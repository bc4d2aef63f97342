"""Differential tests for the integer-scaled concrete strategy lookup.

``DBM.contains``, ``Federation.contains``, ``NodeWin.rank_of`` and
``zone_delay_interval`` test a concrete clock valuation against zones in
Python ints: the valuation is scaled once to a common denominator
(:class:`ScaledValuation`) and compared with each zone's cached integer
bounds.  The ``Fraction`` loops below are the straightforward reading of
the DBM semantics and serve as the reference.  Points are drawn with
mixed denominators, plain ints and floats, exactly on strict and
non-strict bounds, and one tiny step either side of them.
"""

from fractions import Fraction
from typing import Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dbm import DBM, INF, Federation, ScaledValuation, decode, lt
from repro.game.solver import NodeWin
from repro.game.strategy import federation_delay_candidates, zone_delay_interval
from repro.semantics.state import ConcreteState
from repro.semantics.system import DelayInterval

from tests.zone_strategies import diagonal_zones, zones

#: A step far below any denominator the strategies draw: "just off" a bound.
EPS = Fraction(1, 2**70)


# ----------------------------------------------------------------------
# Reference: the Fraction loops over the encoded matrix
# ----------------------------------------------------------------------


def exact(valuation):
    """The valuation's exact rational values (floats via ``Fraction``)."""
    return [Fraction(v) for v in valuation]


def ref_satisfies(difference, enc: int) -> bool:
    if enc >= INF:
        return True
    value, strict = decode(enc)
    return difference < value if strict else difference <= value


def ref_contains(zone: DBM, valuation) -> bool:
    if zone.is_empty():
        return False
    v = exact(valuation)
    for i in range(zone.dim):
        vi = v[i] if i else 0
        for j in range(zone.dim):
            if i == j:
                continue
            vj = v[j] if j else 0
            if not ref_satisfies(vi - vj, int(zone.m[i, j])):
                return False
    return True


def ref_zone_delay_interval(zone: DBM, clocks) -> Optional[DelayInterval]:
    if zone.is_empty():
        return None
    v = exact(clocks)
    lo = Fraction(0)
    lo_strict = False
    hi: Optional[Fraction] = None
    hi_strict = False
    for i in range(zone.dim):
        for j in range(zone.dim):
            if i == j:
                continue
            enc = int(zone.m[i, j])
            if enc >= INF:
                continue
            value, strict = decode(enc)
            vi = v[i] if i else Fraction(0)
            vj = v[j] if j else Fraction(0)
            if i != 0 and j != 0:
                diff = vi - vj
                if diff > value or (diff == value and strict):
                    return None
                continue
            if j == 0:
                slack = Fraction(value) - vi
                if hi is None or slack < hi or (slack == hi and strict and not hi_strict):
                    hi, hi_strict = slack, strict
            else:
                need = -Fraction(value) - vj
                if need > lo or (need == lo and strict and not lo_strict):
                    lo, lo_strict = need, strict
    interval = DelayInterval(lo, lo_strict, hi, hi_strict)
    if interval.is_empty():
        return None
    return interval


def ref_rank_of(win: NodeWin, valuation) -> Optional[int]:
    for step, fed in win.layers:
        if any(ref_contains(z, valuation) for z in fed.zones):
            return step
    return None


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------


@st.composite
def any_zones(draw, dim):
    """Canonical zones of ``dim``: random, diagonal (dim >= 3) or empty."""
    kinds = [zones(dim), st.just(DBM.empty(dim))]
    if dim >= 3:
        kinds.append(diagonal_zones(dim))
    return draw(st.one_of(*kinds))


@st.composite
def rationals(draw):
    """A non-negative rational with a mixed denominator."""
    den = draw(st.sampled_from([1, 2, 3, 4, 7, 10, 12, 1000, 2**20, 3**13]))
    return Fraction(draw(st.integers(0, 20 * den)), den)


@st.composite
def as_mixed_type(draw, value: Fraction):
    """``value`` as an int, a float or a Fraction, whichever are exact."""
    forms = [value]
    if value.denominator == 1:
        forms.append(int(value))
    if Fraction(float(value)) == value:
        forms.append(float(value))
    return draw(st.sampled_from(forms))


@st.composite
def valuations(draw, zone: DBM):
    """A valuation of ``zone.dim`` clocks, often on or next to a bound."""
    dim = zone.dim
    v = [Fraction(0)] + [draw(rationals()) for _ in range(dim - 1)]
    if not zone.is_empty() and draw(st.booleans()):
        # Start inside the zone, so membership is not trivially false.
        v = list(zone.sample())
    bounds = zone.int_bounds() if not zone.is_empty() else ()
    if bounds and draw(st.booleans()):
        # Put v_i - v_j on the bound, or one EPS step off it.
        i, j, c, _nonstrict = draw(st.sampled_from(bounds))
        delta = draw(st.sampled_from([Fraction(0), EPS, -EPS]))
        if j == 0:
            v[i] = c + delta
        elif i == 0:
            v[j] = -c - delta
        else:
            v[i] = v[j] + c + delta
    out = [draw(as_mixed_type(x)) for x in v]
    if dim > 1 and draw(st.booleans()):
        # An arbitrary float: denominators up to 2**1074.
        k = draw(st.integers(1, dim - 1))
        out[k] = draw(st.floats(-1, 30, allow_nan=False, allow_infinity=False))
    return out


@st.composite
def zone_and_point(draw):
    dim = draw(st.integers(1, 5))
    zone = draw(any_zones(dim))
    return zone, draw(valuations(zone))


@st.composite
def federation_and_point(draw):
    dim = draw(st.integers(1, 5))
    members = draw(st.lists(any_zones(dim), max_size=3))
    fed = Federation(dim, members)
    # Aim at one member's bounds (or, for an empty federation, anywhere).
    anchor = draw(st.sampled_from(fed.zones)) if fed.zones else DBM.universal(dim)
    return fed, draw(valuations(anchor))


# ----------------------------------------------------------------------
# Properties
# ----------------------------------------------------------------------


class TestScaledValuation:
    @given(zone_and_point())
    def test_scaling_is_exact(self, case):
        _zone, v = case
        point = ScaledValuation.of(v)
        assert point.den >= 1
        assert point.ints[0] == 0
        for i in range(1, len(v)):
            assert Fraction(point.ints[i], point.den) == Fraction(v[i])
        assert ScaledValuation.of(point) is point

    def test_reference_clock_ignored(self):
        assert ScaledValuation.of([5, Fraction(1, 2), 3]) == ScaledValuation(2, (0, 1, 6))

    def test_float_taken_exactly(self):
        # In float arithmetic 2**30 - 2**-30 rounds to 2**30, which fails
        # the strict bound; the exact difference meets it.
        zone = DBM.from_constraints(3, [(1, 2, lt(2**30))])
        assert zone.contains([0.0, float(2**30), 2.0**-30])
        assert ScaledValuation.of([0, 0.1]).den == 2**55

    def test_concrete_state_caches_scaled(self):
        state = ConcreteState((0,), (), (Fraction(0), Fraction(1, 3), Fraction(5, 2)))
        assert state.scaled == ScaledValuation(6, (0, 2, 15))
        assert state.scaled is state.scaled
        assert all(type(c) is Fraction for c in state.clocks)
        zone = DBM.from_constraints(3, [(2, 1, lt(3))])
        assert state.in_zone(zone) == ref_contains(zone, state.clocks)


class TestContains:
    @settings(max_examples=300)
    @given(zone_and_point())
    def test_dbm_contains_matches_reference(self, case):
        zone, v = case
        expected = ref_contains(zone, v)
        assert zone.contains(v) == expected
        assert zone.contains(ScaledValuation.of(v)) == expected

    @settings(max_examples=200)
    @given(federation_and_point())
    def test_federation_contains_matches_reference(self, case):
        fed, v = case
        expected = any(ref_contains(z, v) for z in fed.zones)
        assert fed.contains(v) == expected
        assert fed.contains(ScaledValuation.of(v)) == expected

    @given(federation_and_point(), st.data())
    def test_rank_of_matches_reference(self, case, data):
        fed, v = case
        layers = [(step, Federation(fed.dim, [zone])) for step, zone in enumerate(fed.zones)]
        extra = data.draw(any_zones(fed.dim))
        layers.append((len(layers), Federation(fed.dim, [extra])))
        win = NodeWin(fed, Federation.empty(fed.dim), layers)
        expected = ref_rank_of(win, v)
        assert win.rank_of(v) == expected
        assert win.rank_of(ScaledValuation.of(v)) == expected


class TestDelayInterval:
    @settings(max_examples=300)
    @given(zone_and_point())
    def test_zone_delay_interval_matches_reference(self, case):
        zone, v = case
        expected = ref_zone_delay_interval(zone, v)
        for clocks in (v, ScaledValuation.of(v)):
            got = zone_delay_interval(zone, clocks)
            assert got == expected
            if got is not None:
                assert type(got.lo) is Fraction
                assert got.hi is None or type(got.hi) is Fraction

    @given(federation_and_point())
    def test_federation_delay_candidates_match_reference(self, case):
        fed, v = case
        expected = []
        for zone in fed.zones:
            interval = ref_zone_delay_interval(zone, v)
            if interval is None:
                continue
            pick = interval.pick()
            if pick > 0:
                expected.append(pick)
            elif interval.contains(Fraction(0)):
                expected.append(Fraction(0))
        assert federation_delay_candidates(fed, v) == expected
        assert federation_delay_candidates(fed, ScaledValuation.of(v)) == expected
