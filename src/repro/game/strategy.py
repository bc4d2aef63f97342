"""Winning strategies: extraction, runtime lookup, and printing.

A solved game (:class:`~repro.game.solver.GameResult`) induces a
state-based strategy (paper Def. 6): a partial function from semantic
states to ``Act_c ∪ {λ}``.  Concretely, per graph node we keep

* the **goal** federation — the game is already won there (``Done``);
* **action decisions** ``(step, edge, federation)`` — firing the
  controllable ``edge`` from a state of ``federation`` moves to a target
  state that entered the winning set at fixpoint step ``step``;
* everything else in the winning federation is implicit **wait** (λ).

Rank discipline: a concrete state's *rank* is the fixpoint step at which
it became winning; an action decision is only taken when its target-layer
step is strictly below the current rank.  Ranks strictly decrease along
both strategy actions and (by construction of the ``B``-term) opponent
moves, so supervised plays terminate in the goal — this is the
computational content of the paper's Theorem 11.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional

from ..dbm import DBM, Federation, ScaledValuation
from ..graph.explorer import GraphEdge, GraphNode
from ..semantics.state import ConcreteState
from ..semantics.system import DelayInterval, Move
from .solver import GameResult, NodeWin


# ----------------------------------------------------------------------
# Zone / delay geometry helpers
# ----------------------------------------------------------------------


def zone_delay_interval(zone: DBM, clocks) -> Optional[DelayInterval]:
    """Delays ``d >= 0`` with ``clocks + d ∈ zone`` (None if never).

    ``clocks`` is a valuation or a :class:`~repro.dbm.ScaledValuation`;
    the bounds are worked out in its scaled integers against the zone's
    cached :meth:`~repro.dbm.DBM.int_bounds`, and only the two ends become
    ``Fraction`` s.
    """
    if zone.is_empty():
        return None
    den, ints = ScaledValuation.of(clocks)
    lo = 0
    lo_strict = False
    hi: Optional[int] = None
    hi_strict = False
    for i, j, c, nonstrict in zone.int_bounds():
        if i and j:
            if ints[i] - ints[j] - c * den >= nonstrict:
                return None
            continue
        strict = not nonstrict
        if j == 0:
            slack = c * den - ints[i]
            if hi is None or slack < hi or (slack == hi and strict and not hi_strict):
                hi, hi_strict = slack, strict
        else:
            need = -c * den - ints[j]
            if need > lo or (need == lo and strict and not lo_strict):
                lo, lo_strict = need, strict
    interval = DelayInterval(
        Fraction(lo, den),
        lo_strict,
        None if hi is None else Fraction(hi, den),
        hi_strict,
    )
    if interval.is_empty():
        return None
    return interval


def federation_delay_candidates(fed: Federation, clocks) -> List[Fraction]:
    """Representative positive delays entering each zone of a federation."""
    out: List[Fraction] = []
    if not fed.zones:
        return out
    point = ScaledValuation.of(clocks)
    for zone in fed.zones:
        interval = zone_delay_interval(zone, point)
        if interval is None:
            continue
        pick = interval.pick()
        if pick > 0:
            out.append(pick)
        elif interval.contains(Fraction(0)):
            out.append(Fraction(0))
    return out


# ----------------------------------------------------------------------
# Strategy data
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ActionDecision:
    step: int
    edge: GraphEdge
    fed: Federation

    @property
    def move(self) -> Move:
        return self.edge.move


@dataclass
class NodeStrategy:
    node: Optional[GraphNode]
    win: NodeWin
    actions: List[ActionDecision]

    @property
    def goal(self) -> Federation:
        return self.win.goal


class Verdictish:
    """Tags for strategy decisions."""

    DONE = "done"
    FIRE = "fire"
    WAIT = "wait"
    LOST = "lost"


@dataclass(frozen=True)
class Decision:
    kind: str
    move: Optional[Move] = None
    delay: Optional[Fraction] = None  # for WAIT: None = wait for the plant

    def __repr__(self) -> str:
        if self.kind == Verdictish.FIRE:
            return f"Decision(fire {self.move.label})"
        if self.kind == Verdictish.WAIT:
            return f"Decision(wait {self.delay})"
        return f"Decision({self.kind})"


class DecisionEngine:
    """The runtime decision procedure shared by synthesized strategies
    (:class:`Strategy`) and deserialized ones
    (:class:`repro.game.export.PackedStrategy`).

    Subclasses populate ``_by_key``: discrete-state key → node strategies.
    """

    system = None  # type: ignore[assignment]
    _by_key: Dict[tuple, List[NodeStrategy]]

    def _matching(self, state: ConcreteState) -> List[NodeStrategy]:
        return [
            ns
            for ns in self._by_key.get(state.key, ())
            if ns.win.win.contains(state.scaled)
        ]

    def rank(self, state: ConcreteState) -> Optional[int]:
        """The fixpoint step at which the state became winning."""
        ranks = [
            r
            for ns in self._matching(state)
            if (r := ns.win.rank_of(state.scaled)) is not None
        ]
        return min(ranks) if ranks else None

    def decide(self, state: ConcreteState) -> Decision:
        """The strategy's move at a concrete state (paper Def. 6 lookup)."""
        matching = self._matching(state)
        if not matching:
            return Decision(Verdictish.LOST)
        point = state.scaled
        immediate = self._immediate(matching, point)
        if immediate is not None:
            return immediate
        # Wait: find the earliest future instant where an action (or goal)
        # decision applies, staying inside the winning set.
        candidates: List[Fraction] = []
        for ns in matching:
            candidates.extend(federation_delay_candidates(ns.goal, point))
            for decision in ns.actions:
                candidates.extend(
                    federation_delay_candidates(decision.fed, point)
                )
        for d in sorted(set(c for c in candidates if c > 0)):
            future = state.delayed(d)
            future_matching = self._matching(future)
            if not future_matching:
                continue
            if self._immediate(future_matching, future.scaled) is not None:
                return Decision(Verdictish.WAIT, delay=d)
        return Decision(Verdictish.WAIT, delay=None)

    def _immediate(
        self, matching: List[NodeStrategy], point: ScaledValuation
    ) -> Optional[Decision]:
        for ns in matching:
            if ns.goal.contains(point):
                return Decision(Verdictish.DONE)
        best: Optional[ActionDecision] = None
        rank = None
        for ns in matching:
            node_rank = ns.win.rank_of(point)
            if node_rank is None:
                continue
            if rank is None or node_rank < rank:
                rank = node_rank
        if rank is None:
            return None
        for ns in matching:
            for decision in ns.actions:
                if decision.step >= rank:
                    continue
                if decision.fed.contains(point):
                    if best is None or decision.step < best.step:
                        best = decision
        if best is not None:
            return Decision(Verdictish.FIRE, move=best.move)
        return None


class Strategy(DecisionEngine):
    """A winning strategy over the solved game's symbolic state space."""

    def __init__(self, result: GameResult):
        if not result.winning:
            raise ValueError("cannot extract a strategy from a lost game")
        self.result = result
        self.system = result.graph.system
        self.per_node: Dict[int, NodeStrategy] = {}
        self._by_key: Dict[tuple, List[NodeStrategy]] = {}
        self._build()

    # ------------------------------------------------------------------

    def _build(self) -> None:
        graph = self.result.graph
        for node in graph.nodes:
            entry = self.result.wins.get(node.id)
            if entry is None or entry.win.is_empty():
                continue
            actions: List[ActionDecision] = []
            for edge in node.out_edges:
                if not edge.move.controllable:
                    continue
                target_entry = self.result.wins.get(edge.target.id)
                if target_entry is None:
                    continue
                for step, layer in target_entry.layers:
                    fed = self.system.pred(node.sym, edge.move, layer)
                    fed = fed.intersect(entry.win)
                    if not fed.is_empty():
                        actions.append(ActionDecision(step, edge, fed))
            actions.sort(key=lambda a: a.step)
            ns = NodeStrategy(node, entry, actions)
            self.per_node[node.id] = ns
            self._by_key.setdefault(node.key, []).append(ns)

    # ------------------------------------------------------------------
    # Introspection / printing (paper Fig. 5)
    # ------------------------------------------------------------------

    def describe(self, max_nodes: Optional[int] = None) -> str:
        """A human-readable rendering in the style of the paper's Fig. 5."""
        network = self.system.network
        names = network.clock_names()
        lines: List[str] = []
        count = 0
        for node in self.result.graph.nodes:
            ns = self.per_node.get(node.id)
            if ns is None:
                continue
            if max_nodes is not None and count >= max_nodes:
                lines.append(f"... ({len(self.per_node) - count} more states)")
                break
            count += 1
            locs = " ".join(network.location_names(node.sym.locs))
            lines.append(f"State: ( {locs} )")
            var_view = network.decls.state_to_dict(node.sym.vars)
            if var_view:
                lines.append(f"  vars: {var_view}")
            if not ns.goal.is_empty():
                lines.append(f"  While you are in ({ns.goal.to_string(names)}), goal reached.")
            for decision in ns.actions:
                _, edge = decision.edge.move.edges[0]
                sync = f"{decision.edge.move.label}" if decision.edge.move.label else "tau"
                lines.append(
                    f"  When you are in ({decision.fed.to_string(names)}),"
                    f" take transition {edge.automaton}.{edge.source} ->"
                    f" {edge.automaton}.{edge.target} {{{sync}}}"
                )
            waits = ns.win.win.subtract(ns.goal)
            for decision in ns.actions:
                waits = waits.subtract(decision.fed)
            if not waits.is_empty():
                lines.append(
                    f"  While you are in ({waits.to_string(names)}), wait."
                )
        return "\n".join(lines)

    @property
    def size(self) -> int:
        """Number of symbolic states with a decision (strategy size)."""
        return len(self.per_node)
