"""Warm-start solving: a win-set solve cache + mutant fixpoint repair.

Every mutation-detection sweep, fuzz campaign, and server synthesis
re-solves near-identical reachability games from zero.  This module makes
the backward fixpoint incremental across *problem instances*:

* :class:`WinSetCache` — an in-process + on-disk cache of **converged**
  per-node winning federations, keyed by the network's
  :meth:`~repro.ta.model.Network.structural_hash`, the query text, and
  the effective ExtraM extrapolation caps.  Federations persist in
  minimal-constraint form (round-trip verified at write time), so entries
  are compact and exact.  A cache hit re-explores the simulation graph
  (cheap, forward-only) and installs the stored fixpoint instead of
  re-running the backward worklist.

* :func:`warm_solve` — the cache-consulting front-end: hit → install,
  miss → two-phase solve to convergence → store.  Only converged results
  are ever cached; an early-stopped on-the-fly solve is an intentional
  under-approximation and is *not* cacheable.

* :func:`warm_solve_mutant` — fixpoint **repair** for a mutant of a base
  model whose edit footprint (touched automaton + locations, reported by
  :meth:`repro.testing.mutants.MutantSpec.footprint`) is known.  Base and
  mutant are solved at their *joint* extrapolation caps (elementwise max
  — a sound ExtraM widening), the mutant graph is explored, and every
  node that cannot reach a footprint location is seeded with the base
  model's converged value for the identical symbolic state.  Only the
  footprint's dependency cone (nodes with a path into the footprint,
  plus any node whose exact symbolic state the base solve never saw) is
  re-run through the incremental worklist.

Soundness of the seeding: the tainted set — nodes with a graph path to a
footprint node — is closed under predecessors, so an untainted node's
successors are all untainted and every play from it uses only structure
the mutation did not touch; its winning set therefore equals the base
model's winning set at the same ``(locations, variables, zone)`` (the
zone graphs simulate the concrete semantics, so "no graph path" implies
"no concrete play").  Seeds keep their base fixpoint steps and repair
steps start above them, preserving the rank discipline strategy
extraction relies on.  Seeded values are exactly the fixpoint (never
over-approximations), so re-evaluating a seeded node during repair is a
no-op — the grow-only worklist stays sound.  The ``warmstart``
differential check (:mod:`repro.gen.differential`) fuzzes warm ≡ cold
win-set equality both ways, like every other fast path in this repo;
any node-matching mismatch falls back to a cold solve
(``solver.warm_mismatches``), never to a wrong answer.

Cache layout: ``<dir>/<2-char shard>/<sha256 key>.json``, one entry per
(structural hash, query, caps).  Delete the directory to clear.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..dbm import (
    DBM,
    Federation,
    minimal_constraints,
    verified_minimal_constraints,
)
from .. import faults
from ..semantics.system import System
from ..ta.model import Network
from ..tctl.goals import GoalPredicate
from ..tctl.query import Query, parse_query
from ..util import counters
from .solver import GameResult, NodeWin, TwoPhaseSolver

__all__ = [
    "WinSetCache",
    "effective_caps",
    "warm_disabled",
    "federation_from_obj",
    "federation_to_obj",
    "joint_caps",
    "minimal_constraints",
    "resolve_cache",
    "warm_solve",
    "warm_solve_mutant",
    "zone_from_obj",
    "zone_to_obj",
]

FORMAT_VERSION = 1


def warm_disabled() -> bool:
    """True when ``REPRO_WARM_OFF=1`` forces cold solving everywhere.

    The benchmark-pair knob: lets the committed pre/post benchmark pair
    record the cold baseline on identical code, and gives operators a
    kill-switch should a cache directory ever be suspected stale.
    """
    return os.environ.get("REPRO_WARM_OFF") == "1"


# ----------------------------------------------------------------------
# Minimal-constraint zone codec
# ----------------------------------------------------------------------


def zone_to_obj(zone: DBM) -> List[List[int]]:
    """A nonempty canonical zone as its minimal constraint list.

    The reduction itself lives in :mod:`repro.dbm.minform` (it started
    here and was promoted into the DBM layer); this wrapper keeps the
    warm cache's historical fallback counter.
    """
    cons = verified_minimal_constraints(
        zone, fallback_counter="solver.warm_minform_fallbacks"
    )
    return [[int(i), int(j), int(enc)] for i, j, enc in cons]


def zone_from_obj(dim: int, obj: Sequence[Sequence[int]]) -> DBM:
    """Rebuild a canonical zone from :func:`zone_to_obj` output."""
    return DBM.from_constraints(dim, [(c[0], c[1], c[2]) for c in obj])


def federation_to_obj(fed: Federation) -> List[List[List[int]]]:
    """A federation as a list of minimal-constraint zones (exact)."""
    return [zone_to_obj(z) for z in fed.zones]


def federation_from_obj(dim: int, obj) -> Federation:
    """Rebuild a federation from :func:`federation_to_obj` output."""
    return Federation(dim, [zone_from_obj(dim, zone) for zone in obj])


# ----------------------------------------------------------------------
# Extrapolation caps
# ----------------------------------------------------------------------


def effective_caps(
    system: System,
    query: Query,
    extra_max_consts: Optional[Sequence[int]] = None,
) -> Optional[Tuple[int, ...]]:
    """The ExtraM caps a solver run will actually use (None = disabled).

    Mirrors ``SimulationGraph``: the network's per-clock max constants,
    raised by the goal predicate's clock atoms and any explicit override
    (elementwise max); ``None`` for models with diagonal constraints,
    where extrapolation is off.  Part of the cache key — win-sets are
    only comparable at identical caps.
    """
    network = system.network
    if network.has_diagonal_constraints():
        return None
    from ..expr.clocksplit import update_max_constants

    goal = GoalPredicate(system, query.predicate)
    extra = [0] * system.dim
    update_max_constants(goal.clock_atoms(), system.decls, extra)
    caps = [max(a, b) for a, b in zip(network.max_constants(), extra)]
    if extra_max_consts is not None:
        caps = [max(a, b) for a, b in zip(caps, extra_max_consts)]
    return tuple(int(c) for c in caps)


def joint_caps(base: Network, mutant: Network) -> Optional[List[int]]:
    """Joint ExtraM caps for comparing a base model and its mutant.

    Elementwise max of the two models' max constants — sound for both
    (any cap vector dominating a model's actual constants is a valid
    ExtraM widening) and identical on both sides, so matching symbolic
    states extrapolate identically.  ``None`` when either model has
    diagonal constraints or the clock sets differ (fall back to cold).
    """
    if base.has_diagonal_constraints() or mutant.has_diagonal_constraints():
        return None
    if base.dim != mutant.dim:
        return None
    return [max(a, b) for a, b in zip(base.max_constants(), mutant.max_constants())]


# ----------------------------------------------------------------------
# The cache
# ----------------------------------------------------------------------


class WinSetCache:
    """In-process + on-disk cache of converged win-set solves.

    Keys combine the network's structural hash, the query text, and the
    effective extrapolation caps; entries hold every node's winning
    federation *and* its rank layers (fixpoint step → increment), so a
    restored result supports strategy extraction unchanged.  Disk writes
    are atomic (tmp + rename) — concurrent campaign workers sharing a
    directory race benignly, last writer wins with identical content.
    """

    def __init__(self, directory: Optional[str] = None, *, memory: bool = True):
        self.directory = directory
        if directory:
            os.makedirs(directory, exist_ok=True)
        self._memory: Optional[Dict[str, dict]] = {} if memory else None
        # Same-process repeats skip even re-exploration: the installed
        # GameResult is memoized per key.  Results are treated as
        # immutable by every consumer (strategy extraction only reads).
        self._results: Optional[Dict[str, GameResult]] = {} if memory else None

    # -- keying --------------------------------------------------------

    @staticmethod
    def key_for(
        network: Network,
        query: Union[Query, str],
        caps: Optional[Sequence[int]],
    ) -> str:
        payload = json.dumps(
            {
                "format": FORMAT_VERSION,
                "net": network.structural_hash(),
                "query": str(query),
                "caps": None if caps is None else [int(c) for c in caps],
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, key[:2], key + ".json")

    # -- load / store --------------------------------------------------

    @staticmethod
    def _entry_sha(entry: dict) -> str:
        body = {k: v for k, v in entry.items() if k != "sha"}
        blob = json.dumps(body, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]

    def load(self, key: str) -> Optional[dict]:
        """The stored entry for a key, or None (memory first, then disk).

        A disk entry that fails to parse or fails its recorded ``sha``
        checksum is a cache *miss*, never an error: the file is
        quarantined aside (renamed ``.corrupt``) with a
        ``solver.warm_corrupt_entries`` counter bump and the caller
        falls back to a cold solve — degradation costs time, not
        soundness.
        """
        if self._memory is not None:
            entry = self._memory.get(key)
            if entry is not None:
                return entry
        if self.directory:
            path = self._path(key)
            try:
                with open(path, encoding="utf-8") as handle:
                    entry = json.load(handle)
                if not isinstance(entry, dict):
                    raise ValueError("not a JSON object")
                recorded = entry.get("sha")
                if recorded is not None and recorded != self._entry_sha(
                    entry
                ):
                    raise ValueError("checksum mismatch")
            except OSError:
                return None
            except ValueError:
                counters.inc("solver.warm_corrupt_entries")
                try:
                    os.replace(path, path + ".corrupt")
                except OSError:
                    pass
                return None
            if self._memory is not None:
                self._memory[key] = entry
            return entry
        return None

    def store(self, key: str, entry: dict) -> None:
        """Persist an entry (in-process always; on disk when configured)."""
        entry = dict(entry)
        entry["sha"] = self._entry_sha(entry)
        if self._memory is not None:
            self._memory[key] = entry
        if self.directory:
            path = self._path(key)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            tmp = path + f".tmp.{os.getpid()}"
            try:
                blob = json.dumps(entry, separators=(",", ":"))
                if faults.should_fire("warm.cache.write"):
                    # Injected torn write: the entry lands truncated and
                    # the next load quarantines it as a miss.
                    blob = blob[: max(1, len(blob) // 2)]
                with open(tmp, "w", encoding="utf-8") as handle:
                    handle.write(blob)
                os.replace(tmp, path)
            except OSError:
                counters.inc("solver.warm_store_errors")
                try:
                    os.unlink(tmp)
                except OSError:
                    pass

    def cached_result(self, key: str) -> Optional[GameResult]:
        """A GameResult already installed in this process, if any."""
        if self._results is None:
            return None
        return self._results.get(key)

    def forget_results(self) -> None:
        """Drop the installed-result memo, keeping the stored entries.

        Forces the next lookup through the serialize → explore → install
        path — what the ``warmstart`` differential check and the cache
        tests use to exercise the restore path deliberately.
        """
        if self._results is not None:
            self._results.clear()

    def remember_result(self, key: str, result: GameResult) -> None:
        if self._results is not None:
            self._results[key] = result

    def __len__(self) -> int:
        return 0 if self._memory is None else len(self._memory)


def resolve_cache(
    cache: Union[None, str, WinSetCache]
) -> Optional[WinSetCache]:
    """Accept a cache object, a directory path, or None."""
    if cache is None or isinstance(cache, WinSetCache):
        return cache
    return WinSetCache(str(cache))


# ----------------------------------------------------------------------
# Entry codec
# ----------------------------------------------------------------------


def _entry_from_result(result: GameResult) -> dict:
    nodes = []
    for node in result.graph.nodes:
        entry = result.wins.get(node.id)
        if entry is None or entry.win.is_empty():
            continue
        nodes.append(
            {
                "locs": list(node.sym.locs),
                "vars": list(node.sym.vars),
                "zone": zone_to_obj(node.sym.zone),
                "win": federation_to_obj(entry.win),
                "layers": [
                    [int(step), federation_to_obj(fed)]
                    for step, fed in entry.layers
                ],
            }
        )
    return {
        "format": FORMAT_VERSION,
        "dim": result.graph.system.dim,
        "node_count": int(result.graph.node_count),
        "steps": int(result.steps),
        "winning": bool(result.winning),
        "nodes": nodes,
    }


def _install_entry(solver: TwoPhaseSolver, entry: dict) -> Optional[GameResult]:
    """Install a stored fixpoint into a fresh solver; None on mismatch.

    Explores the graph forward (that part is not cached), matches every
    stored record to a live node by exact ``(locs, vars, zone)``, and
    seeds its :class:`NodeWin`.  Any stored record without a live node
    means exploration diverged from the storing process (e.g. a
    hash-seed-dependent fold order) — report a mismatch so the caller
    re-solves cold; never guess.
    """
    started = time.monotonic()
    dim = solver.system.dim
    if entry.get("format") != FORMAT_VERSION or entry.get("dim") != dim:
        return None
    solver.graph.explore_all()
    if entry.get("node_count") != solver.graph.node_count:
        return None  # exploration diverged from the storing process
    index = {
        (node.sym.locs, node.sym.vars, node.sym.zone.hash_key()): node
        for node in solver.graph.nodes
    }
    seeded = 0
    max_step = 0
    try:
        records = entry["nodes"]
        for rec in records:
            zone = zone_from_obj(dim, rec["zone"])
            key = (tuple(rec["locs"]), tuple(rec["vars"]), zone.hash_key())
            node = index.get(key)
            if node is None:
                solver.wins.clear()
                return None
            layers = [
                (int(step), federation_from_obj(dim, obj))
                for step, obj in rec["layers"]
            ]
            version = max((step for step, _ in layers), default=0)
            solver.wins[node.id] = NodeWin(
                federation_from_obj(dim, rec["win"]),
                solver.goal_fed(node),
                layers,
                version,
            )
            seeded += 1
            max_step = max(max_step, version)
    except (KeyError, TypeError, ValueError, IndexError):
        solver.wins.clear()
        return None
    solver._step = max(int(entry.get("steps", max_step)), max_step)
    counters.inc("solver.warm_nodes_seeded", seeded)
    return GameResult(
        solver._initial_winning(),
        solver.graph,
        solver.wins,
        solver.goal,
        solver._step,
        solver.graph.node_count,
        time.monotonic() - started,
    )


# ----------------------------------------------------------------------
# Warm front-ends
# ----------------------------------------------------------------------


def warm_solve(
    system: System,
    query: Union[Query, str],
    *,
    cache: WinSetCache,
    max_nodes: Optional[int] = None,
    time_limit: Optional[float] = None,
    extra_max_consts: Optional[Sequence[int]] = None,
) -> GameResult:
    """Cache-consulting two-phase solve (always converged).

    Hit → explore + install (``solver.warm_hits``); miss → cold solve +
    store (``solver.warm_misses`` / ``solver.warm_stores``); a hit whose
    stored nodes cannot be matched to the freshly explored graph falls
    back to the cold path (``solver.warm_mismatches``).
    """
    if isinstance(query, str):
        query = parse_query(query)
    if warm_disabled():
        return TwoPhaseSolver(
            system,
            query,
            max_nodes=max_nodes,
            time_limit=time_limit,
            extra_max_consts=(
                None if extra_max_consts is None else list(extra_max_consts)
            ),
        ).solve()
    caps = effective_caps(system, query, extra_max_consts)
    key = cache.key_for(system.network, query, caps)
    memo = cache.cached_result(key)
    if memo is not None:
        counters.inc("solver.warm_hits")
        counters.inc("solver.warm_result_hits")
        return memo
    entry = cache.load(key)
    if entry is not None:
        solver = TwoPhaseSolver(
            system,
            query,
            max_nodes=max_nodes,
            time_limit=time_limit,
            extra_max_consts=(
                None if extra_max_consts is None else list(extra_max_consts)
            ),
        )
        result = _install_entry(solver, entry)
        if result is not None:
            counters.inc("solver.warm_hits")
            cache.remember_result(key, result)
            return result
        counters.inc("solver.warm_mismatches")
    else:
        counters.inc("solver.warm_misses")
    solver = TwoPhaseSolver(
        system,
        query,
        max_nodes=max_nodes,
        time_limit=time_limit,
        extra_max_consts=(
            None if extra_max_consts is None else list(extra_max_consts)
        ),
    )
    result = solver.solve()
    cache.store(key, _entry_from_result(result))
    counters.inc("solver.warm_stores")
    cache.remember_result(key, result)
    return result


def _footprint_node_ids(system: System, graph, footprint) -> set:
    """Graph node ids whose location vector hits the edit footprint."""
    foot_locs: Dict[int, set] = {}
    for k, automaton in enumerate(system.network.automata):
        names = footprint.get(automaton.name)
        if not names:
            continue
        indices = {
            automaton.location_index(name)
            for name in names
            if name in automaton.locations
        }
        if indices:
            foot_locs[k] = indices
    if not foot_locs:
        return set()
    return {
        node.id
        for node in graph.nodes
        if any(node.sym.locs[k] in idxs for k, idxs in foot_locs.items())
    }


def warm_solve_mutant(
    base_system: System,
    mutant_system: System,
    query: Union[Query, str],
    footprint: Optional[Dict[str, frozenset]],
    *,
    cache: WinSetCache,
    max_nodes: Optional[int] = None,
    time_limit: Optional[float] = None,
) -> GameResult:
    """Solve a mutant's game by repairing the base model's fixpoint.

    ``footprint`` is the mutant's edit footprint as reported by
    :meth:`repro.testing.mutants.MutantSpec.footprint` (automaton name →
    touched location names); ``None`` means unknown and falls back to a
    cold solve, as do diagonal-constraint models (no extrapolation caps
    to align) and mismatched clock sets.

    The result is converged and node-for-node equal to a cold two-phase
    solve of the mutant **at the joint caps** — what the ``warmstart``
    differential check asserts.  The repaired result is stored back into
    the cache under the mutant's own structural hash, so re-encountering
    the same mutant (sharded campaign workers, repeated sweeps) is a
    plain cache hit.
    """
    if isinstance(query, str):
        query = parse_query(query)
    caps = joint_caps(base_system.network, mutant_system.network)
    if warm_disabled() or caps is None or footprint is None:
        counters.inc("solver.warm_mutant_cold")
        return TwoPhaseSolver(
            mutant_system, query, max_nodes=max_nodes, time_limit=time_limit
        ).solve()

    # The mutant at joint caps may itself be cached (repeat encounters).
    mutant_key = cache.key_for(
        mutant_system.network, query, effective_caps(mutant_system, query, caps)
    )
    memo = cache.cached_result(mutant_key)
    if memo is not None:
        counters.inc("solver.warm_hits")
        counters.inc("solver.warm_result_hits")
        return memo
    entry = cache.load(mutant_key)
    if entry is not None:
        solver = TwoPhaseSolver(
            mutant_system,
            query,
            max_nodes=max_nodes,
            time_limit=time_limit,
            extra_max_consts=caps,
        )
        result = _install_entry(solver, entry)
        if result is not None:
            counters.inc("solver.warm_hits")
            cache.remember_result(mutant_key, result)
            return result
        counters.inc("solver.warm_mismatches")

    started = time.monotonic()
    base = warm_solve(
        base_system,
        query,
        cache=cache,
        max_nodes=max_nodes,
        time_limit=time_limit,
        extra_max_consts=caps,
    )
    solver = TwoPhaseSolver(
        mutant_system,
        query,
        max_nodes=max_nodes,
        time_limit=time_limit,
        extra_max_consts=caps,
    )
    graph = solver.graph
    graph.explore_all()

    # Dependency cone: nodes with a path into a footprint node (values
    # flow backward, so only they can differ from the base fixpoint).
    tainted = _footprint_node_ids(mutant_system, graph, footprint)
    stack = [node for node in graph.nodes if node.id in tainted]
    while stack:
        node = stack.pop()
        for edge in node.in_edges:
            src = edge.source
            if src.id not in tainted:
                tainted.add(src.id)
                stack.append(src)

    base_index: Dict[tuple, Optional[NodeWin]] = {}
    for bnode in base.graph.nodes:
        key3 = (bnode.sym.locs, bnode.sym.vars, bnode.sym.zone.hash_key())
        base_index[key3] = base.wins.get(bnode.id)

    max_step = 0
    seeded = 0
    recompute: List = []
    for node in graph.nodes:
        if node.id in tainted:
            recompute.append(node)
            continue
        key3 = (node.sym.locs, node.sym.vars, node.sym.zone.hash_key())
        if key3 not in base_index:
            # The base solve never saw this exact symbolic state (fold
            # order divergence): recompute it instead of guessing.
            recompute.append(node)
            continue
        bwin = base_index[key3]
        if bwin is None or bwin.win.is_empty():
            continue  # final value: empty — nothing to seed
        solver.wins[node.id] = NodeWin(
            bwin.win, solver.goal_fed(node), list(bwin.layers), bwin.version
        )
        seeded += 1
        max_step = max(max_step, bwin.version)
    counters.inc("solver.warm_nodes_seeded", seeded)
    counters.inc("solver.warm_nodes_repaired", len(recompute))

    # Repair worklist: seeds are exact fixpoint values (never over-
    # approximations), so the grow-only propagation below converges to
    # the mutant's true fixpoint; re-evaluating a seeded node (reachable
    # when an unmatched neighbour grows) can never grow it further.
    solver._step = max(solver._step, max_step)
    deadline = None if time_limit is None else started + time_limit
    queue: deque = deque(recompute)
    queued: Dict[int, bool] = {node.id: True for node in recompute}
    while queue:
        if deadline is not None and time.monotonic() > deadline:
            from ..graph.explorer import ExplorationLimit

            raise ExplorationLimit("warm mutant repair timed out")
        node = queue.popleft()
        queued[node.id] = False
        new_win = solver._update(node)
        if solver._record_growth(node, new_win):
            for edge in node.in_edges:
                source = edge.source
                if not queued.get(source.id):
                    queue.append(source)
                    queued[source.id] = True

    result = GameResult(
        solver._initial_winning(),
        graph,
        solver.wins,
        solver.goal,
        solver._step,
        graph.node_count,
        time.monotonic() - started,
    )
    cache.store(mutant_key, _entry_from_result(result))
    counters.inc("solver.warm_stores")
    cache.remember_result(mutant_key, result)
    return result
