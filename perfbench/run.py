"""The repository benchmark: one command, three workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload table1-lep --seed 1 --seconds 10 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``table1-lep``        -- Table 1 strategy synthesis (``wl_table1.py``);
* ``serve-smartlight``  -- online test sessions over ``python -m
  repro.server`` (``wl_serve.py``);
* ``fuzz-campaign``     -- the differential fuzz campaign (``wl_fuzz.py``).

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` is a separate run with spans recorded around each layer's
public calls, and prints the per-layer breakdown.  Every run checks its
outputs; the last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``, and the exit code is 1 when
an output was wrong.  Chrome trace-event JSON of a traced run is written
to ``perfbench/out/``.

The program runs from ``src/`` as users get it: every ``REPRO_*``
setting is removed from the environment first.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("table1-lep", "serve-smartlight", "fuzz-campaign")

#: Fresh-process set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3


def _load_config() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def setup_probe(workload: str, seed: int) -> None:
    """Set the workload up in this (fresh) process, say ``ready``, stop."""
    if workload == "table1-lep":
        import wl_table1

        wl_table1.setup(seed)
    elif workload == "fuzz-campaign":
        import wl_fuzz

        wl_fuzz.setup(seed)
    else:
        import wl_serve

        wl_serve.probe(ROOT, child_env(), seed, lambda: print("ready", flush=True))
        return
    print("ready", flush=True)


def measure_setup(workload: str, seed: int) -> list:
    """Seconds from process start to ``ready`` for fresh set-ups."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
        )
        with proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - start)
            proc.stdout.read()
            code = proc.wait(timeout=60)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code}): {line!r}")
    return times


def peak_rss_mb() -> float:
    """Peak RSS of this process or its largest reaped child, in MB."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(0, SRC)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    from pbstats import Result, failed_share
    import pbtrace
    import wl_fuzz
    import wl_serve
    import wl_table1

    from repro.dbm import backends
    from repro.util import counters

    backends.active()  # resolves the kernel backend as the program would
    selected = [k.rsplit("_", 1)[1] for k in counters.export()["counts"]
                if k.startswith("dbm.backend_selected_")]
    config = _load_config()
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    result = Result()
    trace = bool(args.trace)
    if args.workload == "table1-lep":
        traced = wl_table1.run(args.seed, args.seconds, trace, result, out_dir)
    elif args.workload == "fuzz-campaign":
        traced = wl_fuzz.run(args.seed, args.seconds, trace, result, out_dir)
    else:
        traced = wl_serve.run(args.seed, args.seconds, trace, result, out_dir,
                              ROOT, child_env())

    result.lines.insert(1, f"  kernel backend: {', '.join(selected)}"
                           " (dbm.backend_selected_*)")
    if trace:
        lines, layer_metrics, exported, extras, dropped = traced
        result.lines.extend(lines)
        for name, (value, unit) in pbtrace.per_layer(layer_metrics, exported, extras).items():
            result.put(name, value, unit)
        result.say(f"  chrome trace-event JSON in {out_dir} ({dropped} spans left out)")
        names = [m["name"] for m in config["per_layer"]]
    else:
        if "peak_rss_mb" not in result.metrics:
            result.put("peak_rss_mb", peak_rss_mb(), "MB")
        setups = measure_setup(args.workload, args.seed)
        result.put("setup_s", statistics.median(setups), "s")
        result.say("  setup_s " + ", ".join(f"{s:.3f}" for s in setups)
                   + f" s (median {statistics.median(setups):.3f})")
        result.say(f"  peak_rss_mb {result.metrics['peak_rss_mb'][0]:.1f} MB")
        names = [m["name"] for m in config["end_to_end"]]
    result.say(f"  failed_share {failed_share(result.attempted, result.failed):.4f}"
               f" ({result.failed} of {result.attempted})")
    for problem in result.problems[:20]:
        result.say(f"  WRONG: {problem}")
    for name in names:
        value, unit = result.metrics[name]
        if value or not trace:  # a traced run lists the layers it touched
            result.say(f"  {name:34s} {value:.6g} {unit}")
    print("\n".join(result.lines))
    print(json.dumps(result.payload(names)), flush=True)
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
