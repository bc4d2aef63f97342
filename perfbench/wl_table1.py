"""``table1-lep``: the paper's Table 1 cells, solved one at a time.

On-the-fly cells TP2/TP3 x n=7,8 and exhaustive (two-phase) cells
TP1/TP2/TP3 x n=4 of the LEP model.  The model is fixed; the seed only
rotates the cell order.  Every cell must solve winning within budget.
"""

from __future__ import annotations

import os
import statistics
import time

from pbstats import Result
import pbtrace

#: ``(solver, test purpose, n)``; ``otf`` = on-the-fly, ``exh`` = two-phase.
CELLS = (
    ("otf", "TP2", 7), ("otf", "TP2", 8), ("otf", "TP3", 7), ("otf", "TP3", 8),
    ("exh", "TP1", 4), ("exh", "TP2", 4), ("exh", "TP3", 4),
)

#: Seconds one pass over the cells takes on a 2-vCPU box; sizes the
#: number of passes so a run measures about ``--seconds``.
NOMINAL_PASS_S = 6.5

#: Per-cell synthesis budget (seconds); a cell over it is a failure.
TIME_LIMIT_S = 60.0


def passes_for(seconds: int) -> int:
    return max(1, round(seconds / NOMINAL_PASS_S))


def setup(seed: int, passes: int = 1):
    """Fresh models and queries for every pass, in the seed's order."""
    from repro.models.lep import TEST_PURPOSES, lep_network
    from repro.semantics.system import System
    from repro.tctl import parse_query

    shift = seed % len(CELLS)
    order = CELLS[shift:] + CELLS[:shift]
    return [
        [
            (kind, tp, n, System(lep_network(n)), parse_query(TEST_PURPOSES[tp]))
            for kind, tp, n in order
        ]
        for _ in range(passes)
    ]


def _solve(kind, system, query):
    from repro.game import OnTheFlySolver, TwoPhaseSolver

    solver_cls = OnTheFlySolver if kind == "otf" else TwoPhaseSolver
    return solver_cls(system, query, time_limit=TIME_LIMIT_S).solve()


def _run_pass(cells, result: Result, tracer=None):
    """Solve one pass, dropping each cell's model and game once solved,
    so peak RSS is that of the largest cell (Table 1's memory column).

    Returns ``({kind: seconds}, [cell ms], nodes)``.
    """
    from repro.graph import ExplorationLimit

    spent = {"otf": 0.0, "exh": 0.0}
    cell_ms = []
    nodes = 0
    for index in range(len(cells)):
        kind, tp, n, system, query = cells.pop(0)
        start = time.perf_counter()
        try:
            if tracer is None:
                game = _solve(kind, system, query)
            else:
                game = tracer.span("table1.cell", index, _solve, kind, system, query)
        except ExplorationLimit as err:
            game = None
            problem = f"{kind} {tp} n={n}: over budget ({err})"
        elapsed = time.perf_counter() - start
        spent[kind] += elapsed
        cell_ms.append(elapsed * 1e3)
        if game is not None:
            nodes += game.nodes_explored
            problem = f"{kind} {tp} n={n}: not winning"
        result.op(game is not None and game.winning, problem)
        del game, system
    return spent, cell_ms, nodes


def run(seed: int, seconds: int, trace: bool, result: Result, out_dir: str):
    passes = passes_for(seconds)
    plan = setup(seed, 1 if trace else passes)
    result.say(f"table1-lep seed={seed} passes={len(plan)}")
    if trace:
        return _traced(seed, plan.pop(), result, out_dir)

    totals = {"otf": [], "exh": []}
    cell_ms = []
    nodes = []
    while plan:
        spent, ms, pass_nodes = _run_pass(plan.pop(0), result)
        totals["otf"].append(spent["otf"])
        totals["exh"].append(spent["exh"])
        cell_ms.extend(ms)
        nodes.append(pass_nodes)
    # Same cells, same solver: every pass explores exactly as much.
    result.check(len(set(nodes)) == 1, f"graph nodes differ across passes: {nodes}")
    solve_s = sum(totals["otf"]) + sum(totals["exh"])
    result.put("ops_per_s", len(cell_ms) / solve_s, "1/s")
    result.put("latency_p50_ms", statistics.median(cell_ms), "ms")
    result.say(f"  table1.otf_s         {statistics.median(totals['otf']):.4f} s"
               f" (median of {passes} passes)")
    result.say(f"  table1.exhaustive_s  {statistics.median(totals['exh']):.4f} s")
    result.say(f"  graph.nodes          {nodes[0]} per pass")


def _traced(seed, cells, result: Result, out_dir: str):
    from repro.util import counters

    start = time.perf_counter_ns()
    _run_pass(setup(seed)[0], result)
    untraced = time.perf_counter_ns() - start

    tracer = pbtrace.Tracer()
    pbtrace.install(tracer)
    counters.reset()
    start = time.perf_counter_ns()
    try:
        _spent, _ms, nodes = _run_pass(cells, result, tracer)
    finally:
        wall = time.perf_counter_ns() - start
        tracer.restore()
    lines, metrics = pbtrace.layer_report(tracer.table(), wall)
    extras = {"graph.nodes": (nodes, "count"),
              "trace.overhead": (wall / untraced, "ratio")}
    dropped = tracer.write_chrome(os.path.join(out_dir, f"table1-lep-{seed}.trace.json"))
    return lines, metrics, counters.export(), extras, dropped
