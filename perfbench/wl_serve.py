"""``serve-smartlight``: online test sessions against ``python -m repro.server``.

One server subprocess (default config, virtual clock) and up to
``nproc`` persistent TCP connections from this process.  Each session
drives a simulated Smart Light implementation (Eager or seeded Random
policy) against spec ``{"model": "smartlight"}``.  Two phases:

* open loop: sessions due at a fixed rate, each timed from its due
  time, so a stall also charges the sessions queued behind it;
* closed loop: every connection starts its next session as soon as the
  previous verdict lands (saturated throughput).

Every verdict must equal the one an in-process ``TestExecutor`` gives
for the same policy, and the server must build its bundle exactly once.
"""

from __future__ import annotations

import asyncio
import json
import os
import pickle
import random
import select
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional

from pbstats import Result, summarize
import pbtrace

SPEC = {"model": "smartlight"}

#: Open-loop session arrival rate (1/s): about half the saturated
#: throughput of 2 connections on a 2-vCPU box (~780 sessions/s).
OPEN_RATE = 390.0

#: Sessions per second the closed-loop phase is sized for.
CLOSED_NOMINAL = 780.0

#: Distinct session kinds (policy and seed); session ``i`` is kind
#: ``i % KINDS``, so reference verdicts stay cheap to compute.
KINDS = 64

#: A traced run serves a fixed load, sized as for this many seconds, so
#: its span store stays small and its counts repeat exactly.
TRACE_SECONDS = 10

#: Generator lag (ms, at the reported tail) beyond which a run measures
#: the load generator rather than the server, and is invalid.
LAG_LIMIT_MS = 25.0

HERE = os.path.dirname(os.path.abspath(__file__))


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def sizes(seconds: int):
    """``(open-loop sessions, closed-loop sessions)`` for a run."""
    half = seconds / 2.0
    return max(20, round(OPEN_RATE * half)), max(20, round(CLOSED_NOMINAL * half))


# ----------------------------------------------------------------------
# Server process, observed from outside through /proc
# ----------------------------------------------------------------------


class ServerProcess:
    def __init__(self, argv: List[str], cwd: str, env: Dict[str, str]):
        self.proc = subprocess.Popen(
            argv, cwd=cwd, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True,
        )
        line = self._line(timeout=60.0)
        if not line.startswith("listening on "):
            self.kill()
            raise RuntimeError(f"server did not start: {line!r}")
        host, port = line[len("listening on "):].rsplit(":", 1)
        self.address = (host, int(port))

    def _line(self, timeout: float) -> str:
        """The next stdout line; only used before anything is buffered."""
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        if not ready:
            return ""
        return self.proc.stdout.readline().strip()

    def cpu_s(self) -> float:
        """User + system CPU seconds so far (``/proc/<pid>/stat``)."""
        with open(f"/proc/{self.proc.pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        """``VmHWM`` from ``/proc/<pid>/status``."""
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def drain(self) -> dict:
        """SIGTERM, then the stats of the ``drained {...}`` line."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            out, _ = self.proc.communicate(timeout=60.0)
        except subprocess.TimeoutExpired:
            self.kill()
            raise RuntimeError("server did not drain within 60 s")
        for line in out.splitlines():
            if line.startswith("drained "):
                return json.loads(line[len("drained "):])
        raise RuntimeError("server exited without a drained stats line")

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.communicate(timeout=30.0)


# ----------------------------------------------------------------------
# Load generator
# ----------------------------------------------------------------------


class Connection:
    """An ``IUTClient`` whose streams note when replies go out and frames
    come back: the reply latency is the time from the client's write to
    the server's next frame."""

    def __init__(self, reader, writer):
        from repro.server import IUTClient

        self._reader = reader
        self._writer = writer
        self._sent: Optional[float] = None
        self.replies: Optional[List[float]] = None  # recording when a list
        self.frames = 0
        self.client = IUTClient(self, self)

    @classmethod
    async def open(cls, host: str, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    # StreamReader / StreamWriter surface used by IUTClient.
    async def readline(self) -> bytes:
        line = await self._reader.readline()
        self.frames += 1
        if self._sent is not None and self.replies is not None:
            self.replies.append(time.perf_counter() - self._sent)
        self._sent = None
        return line

    def write(self, data: bytes) -> None:
        self._sent = time.perf_counter()
        self._writer.write(data)

    async def drain(self) -> None:
        await self._writer.drain()

    def close(self) -> None:
        self._writer.close()

    async def wait_closed(self) -> None:
        await self._writer.wait_closed()


class Sessions:
    """The session kinds of one seed and their reference verdicts."""

    def __init__(self, seed: int):
        from repro.models.smartlight import smartlight_plant
        from repro.semantics.system import System
        from repro.server.registry import SpecResolver
        from repro.testing import TestExecutor

        rng = random.Random(seed)
        self.policy_seeds = [
            None if k % 2 == 0 else rng.randrange(2**31) for k in range(KINDS)
        ]
        self.plant = System(smartlight_plant())
        bundle = SpecResolver().resolve(SPEC)
        self.reference = []
        for k in range(KINDS):
            run = TestExecutor(bundle.strategy, bundle.plant, self.implementation(k)).run()
            self.reference.append((run.verdict, run.reason, run.iterations, str(run.trace)))

    def implementation(self, index: int):
        from repro.testing import EagerPolicy, RandomPolicy, SimulatedImplementation

        seed = self.policy_seeds[index % KINDS]
        policy = EagerPolicy() if seed is None else RandomPolicy(seed)
        return SimulatedImplementation(self.plant, policy)

    def verify(self, index: int, frame: dict) -> bool:
        got = (frame.get("verdict"), frame.get("reason"), frame.get("iterations"),
               frame.get("trace"))
        return frame.get("type") == "verdict" and got == self.reference[index % KINDS]


async def open_loop(conns, sessions: Sessions, count: int, result: Result):
    """``count`` sessions due at :data:`OPEN_RATE`; latency from due time."""
    queue: asyncio.Queue = asyncio.Queue()
    latency: List[float] = []
    lag: List[float] = []
    t0 = time.perf_counter() + 0.01

    async def dispatch():
        for i in range(count):
            due = t0 + i / OPEN_RATE
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            lag.append(time.perf_counter() - due)
            queue.put_nowait((i, due))
        for _ in conns:
            queue.put_nowait(None)

    async def worker(conn):
        while True:
            item = await queue.get()
            if item is None:
                return
            i, due = item
            frame = await conn.client.run_session(sessions.implementation(i), SPEC)
            latency.append(time.perf_counter() - due)
            result.op(sessions.verify(i, frame), f"open session {i}: {frame}")

    await asyncio.gather(dispatch(), *(worker(c) for c in conns))
    return latency, lag


async def closed_loop(conns, sessions: Sessions, count: int, result: Result):
    """``count`` sessions back to back on every connection; returns wall s."""
    indices = iter(range(count))

    async def worker(conn):
        for i in indices:
            frame = await conn.client.run_session(sessions.implementation(i), SPEC)
            result.op(sessions.verify(i, frame), f"closed session {i}: {frame}")

    start = time.perf_counter()
    await asyncio.gather(*(worker(c) for c in conns))
    return time.perf_counter() - start


# ----------------------------------------------------------------------
# One server lifetime: set-up, both phases, drain
# ----------------------------------------------------------------------


def server_argv(spans_path: Optional[str]) -> List[str]:
    if spans_path is None:
        return [sys.executable, "-m", "repro.server", "--port", "0"]
    return [sys.executable, os.path.join(HERE, "serve_launcher.py"), spans_path,
            "--port", "0"]


async def _start(argv, root, env, seed):
    server = ServerProcess(argv, root, env)
    try:
        host, port = server.address
        conns = [await Connection.open(host, port) for _ in range(nproc())]
        sessions = Sessions(seed)
        warm = await conns[0].client.run_session(sessions.implementation(0), SPEC)
        if not sessions.verify(0, warm):
            raise RuntimeError(f"warm-up session failed: {warm}")
    except BaseException:
        server.kill()
        raise
    return server, conns, sessions


async def _close(server, conns) -> dict:
    for conn in conns:
        await conn.client.close()
    return server.drain()


def probe(root: str, env: Dict[str, str], seed: int, ready) -> None:
    """One full set-up (server start, warm-up, references), ``ready()``,
    then stop the server."""

    async def go():
        server, conns, _ = await _start(server_argv(None), root, env, seed)
        ready()
        await _close(server, conns)

    asyncio.run(go())


def lifetime(root, env, seed, seconds, result: Result, spans_path=None) -> dict:
    """Run both phases against one server; returns what was measured."""
    n_open, n_closed = sizes(seconds)

    async def go():
        server, conns, sessions = await _start(server_argv(spans_path), root, env, seed)
        try:
            out = {}
            for conn in conns:
                conn.replies = []
            cpu0, gen0, t0 = server.cpu_s(), time.process_time(), time.perf_counter()
            latency, lag = await open_loop(conns, sessions, n_open, result)
            cpu1, gen1, t1 = server.cpu_s(), time.process_time(), time.perf_counter()
            out["replies"] = [r for conn in conns for r in conn.replies]
            for conn in conns:
                conn.replies = None
            closed_ns = [time.perf_counter_ns()]
            closed_s = await closed_loop(conns, sessions, n_closed, result)
            closed_ns.append(time.perf_counter_ns())
            cpu2, t2 = server.cpu_s(), time.perf_counter()
            out.update(
                latency=latency, lag=lag, closed_s=closed_s, closed_ns=tuple(closed_ns),
                busy_open=(cpu1 - cpu0) / (t1 - t0),
                busy_closed=(cpu2 - cpu1) / (t2 - t1),
                loadgen_busy=(gen1 - gen0) / (t1 - t0),
                rss_mb=server.peak_rss_mb(),
                frames=sum(conn.frames for conn in conns),
            )
        except BaseException:
            server.kill()
            raise
        out["drained"] = await _close(server, conns)
        return out

    out = asyncio.run(go())
    sessions_total = n_open + n_closed + 1  # + the warm-up session
    stats = out["drained"]
    result.check(stats.get("bundles") == 1,
                 f"server.bundle_builds = {stats.get('bundles')}, expected 1")
    result.check(stats.get("finished") == sessions_total and not stats.get("evicted"),
                 f"server finished {stats.get('finished')} sessions of"
                 f" {sessions_total}, evicted {stats.get('evicted')}")
    out["frames_per_session"] = out["frames"] / sessions_total
    return out


def _ms(values):
    return summarize([v * 1e3 for v in values])


def run(seed: int, seconds: int, trace: bool, result: Result, out_dir: str,
        root: str, env: Dict[str, str]):
    n_open, n_closed = sizes(TRACE_SECONDS if trace else seconds)
    result.say(f"serve-smartlight seed={seed} connections={nproc()}"
               f" open={n_open}@{OPEN_RATE:g}/s closed={n_closed}")
    if trace:
        return _traced(root, env, seed, result, out_dir)
    out = lifetime(root, env, seed, seconds, result)
    session, reply, lag = _ms(out["latency"]), _ms(out["replies"]), _ms(out["lag"])
    result.put("ops_per_s", n_closed / out["closed_s"], "1/s")
    result.put("latency_p50_ms", session["p50"], "ms")
    result.put("peak_rss_mb", out["rss_mb"], "MB")
    _say_tail(result, "serve.session", session)
    _say_tail(result, "serve.reply", reply)
    result.say(f"  serve.sessions_per_s      {n_closed / out['closed_s']:.2f} 1/s")
    _say_tail(result, "loadgen.lag", lag)
    result.say(f"  busy share: server open {out['busy_open']:.3f},"
               f" closed {out['busy_closed']:.3f}; loadgen {out['loadgen_busy']:.3f}")
    drained = out["drained"]
    result.say(f"  drained: sessions={drained.get('started')} verdicts="
               f"{drained.get('finished')} bundle_builds={drained.get('bundles')}"
               f" evictions={drained.get('evicted')}"
               f" frames/session={out['frames_per_session']:.3f}")
    if lag["tail"] is not None and lag["tail"] > LAG_LIMIT_MS:
        result.check(False, f"load generator lagged {lag['tail']:.1f} ms at"
                     f" p{lag['tail_p']:g}: the run measures the generator")


def _say_tail(result: Result, name: str, s: dict) -> None:
    tail = (f", p{s['tail_p']:g} {s['tail']:.4f} ms" if s["tail"] is not None
            else ", no tail (too few samples)")
    result.say(f"  {name + '_ms':25s} p50 {s['p50']:.4f} ms{tail} (n={s['count']})")


def _traced(root, env, seed, result: Result, out_dir: str):
    seconds = TRACE_SECONDS
    plain = lifetime(root, env, seed, seconds, result)
    spans_path = os.path.join(out_dir, f"serve-smartlight-{seed}.spans.pickle")
    traced = lifetime(root, env, seed, seconds, result, spans_path)
    with open(spans_path, "rb") as fh:
        dumped = pickle.load(fh)  # written by serve_launcher.py above
    os.unlink(spans_path)
    tracer = pbtrace.Tracer.from_dump(dumped)
    window = traced["closed_ns"]
    wall = window[1] - window[0]
    lines, metrics = pbtrace.layer_report(tracer.table(window), wall)
    lines.insert(0, "  (server process, closed-loop phase)")
    extras = {
        "server.frames_per_session": (plain["frames_per_session"], "frames"),
        "server.busy_share.open": (plain["busy_open"], "ratio"),
        "server.busy_share.closed": (plain["busy_closed"], "ratio"),
        "loadgen.busy_share": (plain["loadgen_busy"], "ratio"),
        "trace.overhead": (traced["closed_s"] / plain["closed_s"], "ratio"),
    }
    lag = _ms(plain["lag"])
    lines.append(f"  loadgen.lag_p{lag['tail_p']:g}_ms {lag['tail']:.3f} (untraced)")
    dropped = tracer.write_chrome(os.path.join(out_dir, f"serve-smartlight-{seed}.trace.json"))
    return lines, metrics, dumped["counters"], extras, dropped
