"""repro — game-theoretic real-time system testing.

A from-scratch reproduction of:

    A. David, K. G. Larsen, S. Li, B. Nielsen.
    "A Game-Theoretic Approach to Real-Time System Testing." DATE 2008.

The library models uncontrollable real-time systems as Timed I/O Game
Automata, synthesizes winning strategies for TCTL test purposes with a
built-in timed-game solver (an UPPAAL-TIGA analogue over a DBM/federation
kernel), and executes those strategies as test cases against black-box
implementations under the tioco conformance relation.

Quickstart::

    from repro import NetworkBuilder, System, parse_query
    from repro import solve_reachability_game, Strategy

    # build a TIOGA network (see repro.models.smartlight for a full one)
    system = System(network)
    result = solve_reachability_game(system, parse_query("control: A<> IUT.Goal"))
    strategy = Strategy(result)

Execute the strategy against an implementation — in-process::

    from repro import SessionConfig, SimulatedImplementation, execute_test
    imp = SimulatedImplementation(System(plant_network), EagerPolicy())
    run = execute_test(strategy, System(plant_network), imp,
                       config=SessionConfig(max_states=512))

or over the network: ``python -m repro.server --port 0`` accepts any
peer speaking the newline-JSON protocol (see :mod:`repro.server`), and
both drivers replay the same sans-IO :class:`TestSession`, so verdicts
agree by construction.
"""

from .dbm import DBM, Federation
from .expr.env import Declarations
from .expr.parser import parse_assignments, parse_expression
from .game.cooperative import CooperativeStrategy, solve_cooperative
from .game.export import PackedStrategy, load_strategy, save_strategy
from .game.safety import (
    SafetyGameSolver,
    SafetyResult,
    SafetyStrategy,
    solve_safety_game,
)
from .game.solver import (
    GameError,
    GameResult,
    OnTheFlySolver,
    TwoPhaseSolver,
    solve_reachability_game,
)
from .game.strategy import Decision, Strategy, Verdictish
from .graph.explorer import ExplorationLimit, SimulationGraph
from .graph.reachability import check_invariant, check_reachable, find_deadlocks
from .semantics.state import ConcreteState, SymbolicState
from .semantics.system import Move, System
from .ta.builder import AutomatonBuilder, NetworkBuilder
from .ta.model import Network, ModelError
from .ta.validate import validate_plant
from .tctl.goals import GoalPredicate
from .tctl.query import Query, parse_query
from .testing import (
    CampaignReport,
    EagerPolicy,
    LazyPolicy,
    QuiescentPolicy,
    RandomPolicy,
    RelativizedMonitor,
    SessionConfig,
    SimulatedImplementation,
    TestCampaign,
    TestExecutor,
    TestSession,
    TiocoMonitor,
    execute_test,
    replay_trace,
)
from .testing.trace import FAIL, INCONCLUSIVE, PASS, TestRun, TimedTrace

# Random model generation + differential testing (kept last: it builds on
# every layer above).
from . import gen  # noqa: E402  (cycle-safe: repro core is fully loaded)

# The network driver (repro.server) re-exports resolve lazily so that
# library users don't pay its asyncio import footprint: the extra
# GC-tracked objects measurably slow allocation-heavy zone kernels.
_SERVER_EXPORTS = ("IUTClient", "ServerConfig", "TestServer", "run_remote_test")


def __getattr__(name):
    if name in _SERVER_EXPORTS:
        from . import server

        value = getattr(server, name)
        globals()[name] = value  # cache: next access skips __getattr__
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_SERVER_EXPORTS))

__version__ = "1.3.0"

__all__ = [
    "AutomatonBuilder",
    "CampaignReport",
    "ConcreteState",
    "CooperativeStrategy",
    "DBM",
    "Decision",
    "Declarations",
    "EagerPolicy",
    "ExplorationLimit",
    "FAIL",
    "Federation",
    "GameError",
    "GameResult",
    "GoalPredicate",
    "INCONCLUSIVE",
    "IUTClient",
    "LazyPolicy",
    "ModelError",
    "Move",
    "Network",
    "NetworkBuilder",
    "OnTheFlySolver",
    "PASS",
    "PackedStrategy",
    "Query",
    "QuiescentPolicy",
    "RandomPolicy",
    "RelativizedMonitor",
    "SafetyGameSolver",
    "SafetyResult",
    "SafetyStrategy",
    "ServerConfig",
    "SessionConfig",
    "SimulatedImplementation",
    "SimulationGraph",
    "Strategy",
    "SymbolicState",
    "System",
    "TestCampaign",
    "TestExecutor",
    "TestRun",
    "TestServer",
    "TestSession",
    "TimedTrace",
    "TiocoMonitor",
    "TwoPhaseSolver",
    "Verdictish",
    "check_invariant",
    "check_reachable",
    "execute_test",
    "find_deadlocks",
    "gen",
    "load_strategy",
    "parse_assignments",
    "parse_expression",
    "parse_query",
    "replay_trace",
    "run_remote_test",
    "save_strategy",
    "solve_cooperative",
    "solve_reachability_game",
    "solve_safety_game",
    "validate_plant",
]
