"""Strategy serialization — the paper's future-work item 2.

"Building a fully automated strategy-based testing environment, of which
a big concern is efficient strategy representation."  This module gives
winning strategies a compact, portable JSON form:

* zones serialize as their canonical integer matrices (with federation
  compaction applied first, so covered zones are dropped);
* moves serialize as ``(automaton index, edge position)`` pairs against a
  *model fingerprint*, so a strategy can only be loaded against the
  network it was synthesized for;
* loading reconstructs a :class:`PackedStrategy` whose ``decide`` is the
  same decision engine the synthesizer uses — test execution does not
  care which one it gets.

Typical round trip::

    data = strategy_to_dict(strategy)
    Path("strategy.json").write_text(json.dumps(data))
    ...
    packed = strategy_from_dict(System(network), json.loads(text))
    execute_test(packed, spec_plant, implementation)
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List

import numpy as np

from ..dbm import DBM, Federation
from ..semantics.system import Move, System
from .solver import NodeWin
from .strategy import ActionDecision, DecisionEngine, NodeStrategy, Strategy


class StrategyFormatError(ValueError):
    """Raised when loading malformed or mismatched strategy data."""


FORMAT_VERSION = 1


# ----------------------------------------------------------------------
# Zone / federation codecs
# ----------------------------------------------------------------------


def dbm_to_list(zone: DBM) -> List[int]:
    """Flatten a canonical DBM to a list of encoded bounds."""
    return [int(v) for v in zone.m.reshape(-1)]


def dbm_from_list(dim: int, values: List[int]) -> DBM:
    """Rebuild a canonical DBM from :func:`dbm_to_list` output."""
    if len(values) != dim * dim:
        raise StrategyFormatError("zone matrix has the wrong size")
    matrix = np.array(values, dtype=np.int64).reshape(dim, dim)
    return DBM(matrix)


def federation_to_obj(fed: Federation) -> List[List[int]]:
    """Serialize a federation (compacted) as lists of encoded bounds."""
    return [dbm_to_list(z) for z in fed.compact().zones]


def federation_from_obj(dim: int, obj: List[List[int]]) -> Federation:
    """Rebuild a federation from :func:`federation_to_obj` output."""
    return Federation(dim, [dbm_from_list(dim, zone) for zone in obj])


# ----------------------------------------------------------------------
# Model fingerprint
# ----------------------------------------------------------------------


def model_fingerprint(system: System) -> str:
    """A digest of the network structure a strategy is valid against."""
    hasher = hashlib.sha256()
    network = system.network
    hasher.update(network.name.encode())
    for automaton in network.automata:
        hasher.update(automaton.name.encode())
        for loc in automaton.location_list:
            hasher.update(
                f"{loc.name}|{loc.invariant}|{loc.committed}|{loc.urgent}".encode()
            )
        for edge in automaton.edges:
            hasher.update(edge.describe().encode())
    for name in sorted(network.channels):
        hasher.update(f"{name}:{network.channels[name].kind}".encode())
    return hasher.hexdigest()[:16]


# ----------------------------------------------------------------------
# Serialization
# ----------------------------------------------------------------------


def _edge_position(system: System, a_idx: int, edge) -> int:
    return system.automata[a_idx].edges.index(edge)


def _move_to_obj(system: System, move: Move) -> dict:
    return {
        "label": move.label,
        "direction": move.direction,
        "controllable": move.controllable,
        "edges": [
            [a_idx, _edge_position(system, a_idx, edge)]
            for a_idx, edge in move.edges
        ],
    }


def _move_from_obj(system: System, obj: dict) -> Move:
    edges = tuple(
        (a_idx, system.automata[a_idx].edges[pos]) for a_idx, pos in obj["edges"]
    )
    return Move(obj["label"], obj["direction"], obj["controllable"], edges)


def strategy_to_dict(strategy: Strategy) -> dict:
    """Serialize a synthesized strategy to plain JSON-compatible data."""
    system = strategy.system
    dim = system.dim
    nodes = []
    for ns in strategy.per_node.values():
        nodes.append(
            {
                "locs": list(ns.node.sym.locs),
                "vars": list(ns.node.sym.vars),
                "win": federation_to_obj(ns.win.win),
                "goal": federation_to_obj(ns.win.goal),
                "layers": [
                    [step, federation_to_obj(fed)] for step, fed in ns.win.layers
                ],
                "actions": [
                    {
                        "step": decision.step,
                        "move": _move_to_obj(system, decision.move),
                        "fed": federation_to_obj(decision.fed),
                    }
                    for decision in ns.actions
                ],
            }
        )
    return {
        "format": FORMAT_VERSION,
        "model": system.network.name,
        "fingerprint": model_fingerprint(system),
        "dim": dim,
        "nodes": nodes,
    }


class _PackedAction(ActionDecision):
    """An action decision carrying a reconstructed move (no graph edge)."""

    def __init__(self, step: int, move: Move, fed: Federation):
        object.__setattr__(self, "step", step)
        object.__setattr__(self, "edge", None)
        object.__setattr__(self, "fed", fed)
        object.__setattr__(self, "_move", move)

    @property
    def move(self) -> Move:
        return self._move


class PackedStrategy(DecisionEngine):
    """A strategy reconstructed from serialized data.

    Exposes the same runtime interface as :class:`Strategy` (``decide``,
    ``rank``, ``system``, ``size``), so the test executor accepts it
    unchanged.
    """

    def __init__(self, system: System, nodes: List[NodeStrategy]):
        self.system = system
        self.per_node: Dict[int, NodeStrategy] = dict(enumerate(nodes))
        self._by_key: Dict[tuple, List[NodeStrategy]] = {}
        for ns in nodes:
            key = ns.win.key  # type: ignore[attr-defined]
            self._by_key.setdefault(key, []).append(ns)

    @property
    def size(self) -> int:
        return len(self.per_node)


def strategy_from_dict(system: System, data: dict) -> PackedStrategy:
    """Reconstruct a strategy against the network it was saved from."""
    if data.get("format") != FORMAT_VERSION:
        raise StrategyFormatError(
            f"unsupported strategy format {data.get('format')!r}"
        )
    expected = model_fingerprint(system)
    if data.get("fingerprint") != expected:
        raise StrategyFormatError(
            "strategy fingerprint does not match the network: the strategy"
            " was synthesized for a different (or modified) model"
        )
    dim = data["dim"]
    if dim != system.dim:
        raise StrategyFormatError("clock count mismatch")
    nodes = []
    for obj in data["nodes"]:
        win = NodeWin(
            federation_from_obj(dim, obj["win"]),
            federation_from_obj(dim, obj["goal"]),
            [
                (step, federation_from_obj(dim, fed))
                for step, fed in obj["layers"]
            ],
        )
        win.key = (tuple(obj["locs"]), tuple(obj["vars"]))  # type: ignore[attr-defined]
        actions = [
            _PackedAction(
                a["step"],
                _move_from_obj(system, a["move"]),
                federation_from_obj(dim, a["fed"]),
            )
            for a in obj["actions"]
        ]
        actions.sort(key=lambda a: a.step)
        nodes.append(NodeStrategy(None, win, actions))
    return PackedStrategy(system, nodes)


def save_strategy(strategy: Strategy, path) -> None:
    """Write a strategy to a JSON file."""
    with open(path, "w") as handle:
        json.dump(strategy_to_dict(strategy), handle)


def load_strategy(system: System, path) -> PackedStrategy:
    """Load a strategy JSON file against its network."""
    with open(path) as handle:
        data = json.load(handle)
    return strategy_from_dict(system, data)
