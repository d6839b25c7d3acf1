"""The repository benchmark: race verdicts end to end, layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (``src/repro`` must exist).
Workloads (see README.md in this directory):

* ``sp_replay``  -- recorded spawn-sync traces through the depa backend;
* ``lattice_2d`` -- recorded pipelines and wavefronts through lattice2d;
* ``serve_sp``   -- streaming sessions against ``repro-race serve``.

Inputs are built from ``--seed``; every verdict is checked against the
race locations known from how the input was built.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` -- the end-to-end metrics with ``--trace 0``,
the per-layer metrics from a traced run with ``--trace 1``.  The line
before it records the seed and the host.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import gen
import tracing
from rounds import Rounds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: launches of the system under test per run; setup_s is their median
SETUP_LAUNCHES = 5
#: concurrent connections from the one load process, at most one per
#: core: replay processes for the offline workloads, sessions for serve_sp
CONNECTIONS = min(2, os.cpu_count() or 1)
#: operations per run at least: offline replays, serve sessions
REPLAY_MIN_OPS, SERVE_MIN_OPS = 100, 150
#: serve_sp: events per BATCH frame
FRAME_EVENTS = 8192
#: seconds allowed to the system under test to start, and to stop
START_TIMEOUT, STOP_TIMEOUT = 60.0, 60.0

END_TO_END = {
    "events_per_s": "1/s",
    "verdict_ms_p50": "ms",
    "verdict_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "tracefile.read_ms": "ms",
    "tracefile.bytes_per_event": "B",
    "compress.read_ms": "ms",
    "compress.ingest_ms": "ms",
    "compress.memo_hits": "count",
    "compress.memo_misses": "count",
    "ingest.lattice2d_ms": "ms",
    "ingest.depa_ms": "ms",
    "ingest.depa_reuse_events_per_s": "1/s",
    "ingest.depa_once_events_per_s": "1/s",
    "ingest.races_ms": "ms",
    "ingest.engine_new_ms": "ms",
    "ingest.slices": "count",
    "protocol.encode_ms": "ms",
    "protocol.frame_ms": "ms",
    "protocol.decode_ms": "ms",
    "protocol.validate_ms": "ms",
    "protocol.wire_bytes_per_event": "B",
    "client.connect_ms": "ms",
    "client.send_ms": "ms",
    "client.finish_ms": "ms",
    "client.unattributed_ms": "ms",
    "server.ingest_ms": "ms",
    "server.ingest_cpu_ms": "ms",
    "server.session_ms": "ms",
    "server.unattributed_ms": "ms",
    "replay.unattributed_ms": "ms",
    "ops.wall_ms": "ms",
    "trace.events_per_s": "1/s",
    "trace.overhead_pct": "%",
}

#: layers whose spans are ingest calls (for ``ingest.slices``)
INGEST_LAYERS = ("ingest.lattice2d", "ingest.depa", "compress.ingest")
#: server-side layers that belong to the engine (for ``server.ingest_ms``)
ENGINE_LAYERS = INGEST_LAYERS + ("ingest.races", "ingest.engine_new")


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def host_fingerprint() -> dict:
    import numpy

    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fp:
            for line in fp:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu_count": os.cpu_count(),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def child_env() -> dict:
    env = dict(os.environ)
    prior = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + prior if prior else "")
    env["PYTHONUNBUFFERED"] = "1"
    return env


def read_line(proc: subprocess.Popen, timeout: float) -> str:
    """The child's next stdout line, or BenchError when it exits or
    stays silent for ``timeout`` seconds."""
    ready, _, _ = select.select([proc.stdout], [], [], timeout)
    line = proc.stdout.readline() if ready else ""
    if not line:
        stop(proc)
        raise BenchError(f"{proc.args!r} did not start")
    return line


def stop(proc: subprocess.Popen, sig: int = signal.SIGTERM) -> None:
    """Signal ``proc`` and wait for it to end (killing it if needed)."""
    if proc.poll() is None:
        proc.send_signal(sig)
        try:
            proc.wait(STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    for stream in (proc.stdin, proc.stdout):
        if stream is not None:
            stream.close()


def peak_rss_mb(pid: int) -> float:
    """VmHWM, the peak resident set of a live process, in MB."""
    with open(f"/proc/{pid}/status", encoding="utf-8") as fp:
        for line in fp:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise BenchError("no VmHWM in /proc status")


def summarize(records, known_fault) -> tuple:
    """``(correct, attempted, failed)`` over operation records
    ``[index, seconds, verdict right, error, start, connection, round]``.
    ``correct`` holds
    when every failure is an operation of the known fault."""
    failed = [r for r in records if not r[2]]
    correct = all(known_fault[r[0]] for r in failed)
    return correct, len(records), len(failed)


def by_round(records) -> list:
    """The records grouped by round.  Every round is the same list of
    operations, so each round's figures are samples of one quantity."""
    rounds = {}
    for r in records:
        rounds.setdefault(r[6], []).append(r)
    return list(rounds.values())


def end_to_end(records, events, setup, rss_mb) -> dict:
    """The timing metrics are each round's figure, medianed over the
    run's rounds, so a slow stretch of the host that covers less than
    half of a run's rounds does not move them."""
    p50, p90 = [], []
    for rnd in by_round(records):
        ms = [r[1] * 1e3 for r in rnd]
        p50.append(statistics.median(ms))
        p90.append(statistics.quantiles(ms, n=10, method="inclusive")[8])
    return {
        "events_per_s": _events_per_s(records, events),
        "verdict_ms_p50": statistics.median(p50),
        "verdict_ms_p90": statistics.median(p90),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": rss_mb,
    }


def _tagged(metrics: dict, units: dict) -> dict:
    missing = set(units) - set(metrics)
    if missing:
        raise BenchError(f"metrics not measured: {sorted(missing)}")
    return {k: {"value": metrics[k], "unit": units[k]} for k in units}


def _events_per_s(records, events) -> float:
    """Median over rounds of the events whose verdict completed per
    second of operation time per connection (each connection of the
    closed loop is busy the whole phase)."""
    return statistics.median(
        sum(events[r[0]] for r in rnd if r[3] is None) * CONNECTIONS
        / sum(r[1] for r in rnd)
        for rnd in by_round(records)
    )


# -- offline replay workloads -------------------------------------------------


def offline_plan(workload: str, seed: int):
    """``[(trace, format, backend, known fault)]`` for one round."""
    if workload == "sp_replay":
        return [(t, "trz" if t.family == "loop" else "trc", "depa", False)
                for t in gen.sp_replay_inputs(seed)]
    probes = gen.depa_probe_inputs()
    return (
        [(t, "trc", "lattice2d", False) for t in gen.lattice_inputs(seed)]
        + [(t, "trc", "lattice2d", False) for t in probes]
        + [(t, "trc", "depa", True) for t in probes]
    )


def write_inputs(plan, work: Path) -> list:
    """Record each trace to a file; returns the worker's manifest."""
    from repro.compress import compress, write_tracez
    from repro.engine.batch import EventBatch, LocationInterner
    from repro.engine.tracefile import write_trace

    ops, written = [], {}
    for trace, fmt, backend, _fault in plan:
        path = written.get((trace.name, fmt))
        if path is None:
            path = str(work / f"{trace.name}.{fmt}")
            interner = LocationInterner()
            for loc in trace.locations:
                interner.intern(loc)
            batch = EventBatch(trace.ops, trace.a, trace.b)
            if fmt == "trz":
                write_tracez(path, compress(batch, gen.BLOCK_WIDTH), interner)
            else:
                write_trace(path, batch, interner)
            written[(trace.name, fmt)] = path
        ops.append({
            "path": path, "format": fmt, "backend": backend,
            "expected": sorted(trace.expected), "regime": trace.regime,
        })
    return ops


def launch(argv, count: int, ready: str):
    """Start the system under test ``count`` times, timing each start
    until it prints its ``ready`` line; the last one stays running.
    Returns ``(process, first line, start times)``."""
    times = []
    for i in range(count):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            env=child_env(), text=True, cwd=str(ROOT),
        )
        line = read_line(proc, START_TIMEOUT)
        times.append(time.perf_counter() - t0)
        if not line.startswith(ready):
            stop(proc)
            raise BenchError(f"unexpected start-up line {line!r}")
        if i + 1 < count:
            stop(proc)
    return proc, line, times


def closed_loop(connections, per_round: int, seconds: float, min_ops: int):
    """Each connection -- a function of an operation index returning its
    record ``[index, seconds, verdict right, error, start]`` -- runs
    operations back to back, in whole rounds, for ``seconds``.  Returns
    the records, each with its connection number and round appended."""
    rounds = Rounds(per_round, seconds, min_ops)
    records, errors = [], []

    def drive(c: int, op) -> None:
        try:
            while True:
                got = rounds.next()
                if got is None:
                    return
                rnd, k = got
                records.append(op(k) + [c, rnd])
        except Exception as exc:  # surfaced below, after every join
            errors.append(exc)

    # Daemon threads: a terminated run exits without waiting for a
    # connection blocked on its socket or pipe.
    threads = [threading.Thread(target=drive, args=(c, op), daemon=True)
               for c, op in enumerate(connections)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    if errors:
        raise BenchError(f"a connection failed: {errors[0]!r}")
    return records


class Replayer:
    """A replay process, driven over its stdin and stdout."""

    def __init__(self, proc: subprocess.Popen) -> None:
        self.proc = proc

    def ask(self, line: str, timeout: float = START_TIMEOUT) -> str:
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        answer = self.proc.stdout.readline() if ready else ""
        if not answer:
            raise BenchError(f"replay process gave no answer to {line!r}")
        return answer

    def __call__(self, k: int) -> list:
        return json.loads(self.ask(str(k)))


def run_offline(workload: str, args, work: Path) -> dict:
    plan = offline_plan(workload, args.seed)
    ops = write_inputs(plan, work)
    manifest = work / "manifest.json"
    manifest.write_text(json.dumps(ops), encoding="utf-8")
    events = [len(t) for t, _f, _b, _k in plan]
    fault = [k for _t, _f, _b, k in plan]
    seconds = args.seconds / 2 if args.trace else args.seconds
    argv = [sys.executable, str(HERE / "replay_worker.py"), str(manifest)]
    kept, setup = [], []
    try:
        for c in range(CONNECTIONS):
            # the first replay process is the one launched for set-up time
            count = 1 if args.trace or c else SETUP_LAUNCHES
            proc, _line, times = launch(
                argv + [str(work / f"spans-{c}.json")], count, "ready"
            )
            kept.append(proc)
            setup += times
        workers = [Replayer(proc) for proc in kept]
        for w in workers:
            if w.ask("go", args.seconds + START_TIMEOUT).strip() != "warm":
                raise BenchError("replay process did not warm up")
        base = closed_loop(workers, len(ops), seconds, REPLAY_MIN_OPS)
        traced = []
        if args.trace:
            for w in workers:
                if w.ask("trace").strip() != "traced":
                    raise BenchError("replay process did not start tracing")
            traced = closed_loop(workers, len(ops), seconds, REPLAY_MIN_OPS)
        rss = [json.loads(w.ask("quit"))["maxrss_kb"] / 1024
               for w in workers]
    finally:
        for proc in kept:
            stop(proc)
    correct, attempted, failed = summarize(base + traced, fault)
    if not args.trace:
        metrics = end_to_end(base, events, setup, max(rss))
        return _result(correct, attempted, failed, metrics, END_TO_END)

    spans, counts = [], {}
    for c in range(CONNECTIONS):
        s_c, n_c = tracing.load(str(work / f"spans-{c}.json"))
        spans.append(s_c)
        for name, value in n_c.items():
            counts[name] = counts.get(name, 0) + value
    every_span = [span for s_c in spans for span in s_c]
    layers = tracing.self_ms(every_span)
    wall_ms = sum(r[1] for r in traced) * 1e3
    trc = [r for r in traced if ops[r[0]]["format"] == "trc"]
    trc_bytes = sum(os.path.getsize(ops[r[0]]["path"]) for r in trc)
    trc_events = sum(events[r[0]] for r in trc)
    metrics = _layer_metrics(layers)
    metrics.update({
        "tracefile.bytes_per_event": trc_bytes / trc_events if trc else 0.0,
        "compress.memo_hits": counts.get("memo_hits", 0),
        "compress.memo_misses": counts.get("memo_misses", 0),
        "ingest.slices": tracing.calls(every_span, *INGEST_LAYERS),
        **_depa_by_regime(traced, spans, ops, events),
        "replay.unattributed_ms": wall_ms - sum(layers.values()),
        "ops.wall_ms": wall_ms,
    })
    metrics.update(_overhead(
        _events_per_s(base, events), _events_per_s(traced, events),
    ))
    return _result(correct, attempted, failed, metrics, PER_LAYER)


def _depa_by_regime(records, spans, ops, events) -> dict:
    """depa kernel throughput over the traces that rewrite a small
    working set ("reuse") and those that touch each slot once.  Each
    ingest span in ``spans[c]`` (replay process ``c``) is charged to
    the operation that process was running when the span started."""
    ms = {"reuse": 0.0, "once": 0.0}
    for c, spans_c in enumerate(spans):
        mine = sorted((r for r in records if r[5] == c), key=lambda r: r[4])
        starts = [r[4] for r in mine]
        for span in spans_c:
            if span[2] == tracing.INGEST_DEPA:
                at = bisect.bisect_right(starts, span[3]) - 1
                regime = ops[mine[at][0]]["regime"]
                if regime in ms:
                    ms[regime] += span[5] * 1e3
    out = {}
    for regime, spent in ms.items():
        done = sum(events[r[0]] for r in records
                   if ops[r[0]]["regime"] == regime and r[3] is None)
        out[f"ingest.depa_{regime}_events_per_s"] = (
            done / (spent / 1e3) if spent else 0.0
        )
    return out


def _layer_metrics(layers: dict) -> dict:
    """Every per-layer metric at zero, then each measured layer's ms."""
    metrics = {name: 0.0 for name in PER_LAYER}
    for layer, ms in layers.items():
        metrics[f"{layer}_ms"] = ms
    return metrics


def _overhead(untraced_eps: float, traced_eps: float) -> dict:
    return {
        "trace.events_per_s": traced_eps,
        "trace.overhead_pct": (untraced_eps / traced_eps - 1) * 100,
    }


def _result(correct, attempted, failed, metrics, units) -> dict:
    return {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": _tagged(metrics, units),
    }


# -- streaming serve workload -------------------------------------------------


def start_server(argv, setups: int):
    proc, line, times = launch(argv, setups, "serving RPRSERVE on ")
    match = re.search(r":(\d+) ", line)
    if match is None:
        stop(proc)
        raise BenchError(f"no port in {line!r}")
    return proc, int(match.group(1)), times


def load(port: int, batches, locations, expected, seconds: float):
    """Sessions back to back on each connection, in whole rounds."""
    from repro.serve.client import RaceClient

    perf = time.perf_counter

    def session(k: int) -> list:
        t0 = perf()
        try:
            with RaceClient("127.0.0.1", port, backend="depa") as client:
                client.send_batches(batches[k], FRAME_EVENTS)
                summary = client.finish()
            locs = locations[k]
            raced = {locs[r.loc] for r in summary.reports}
        except Exception as exc:  # a refused session is a failure
            return [k, perf() - t0, False, repr(exc), t0]
        dt = perf() - t0
        return [k, dt, raced == expected[k], None, t0]

    return closed_loop([session] * CONNECTIONS, len(batches), seconds,
                       SERVE_MIN_OPS)


def run_serve(args, work: Path) -> dict:
    from repro.engine.batch import EventBatch

    traces = gen.serve_inputs(args.seed)
    batches = [EventBatch(t.ops, t.a, t.b) for t in traces]
    locations = [t.locations for t in traces]
    expected = [t.expected for t in traces]
    events = [len(t) for t in traces]
    fault = [False] * len(traces)
    plain = [sys.executable, "-m", "repro.cli", "serve", "--port", "0"]
    seconds = args.seconds / 2 if args.trace else args.seconds

    proc, port, setup = start_server(
        plain, 1 if args.trace else SETUP_LAUNCHES
    )
    try:
        records = load(port, batches, locations, expected, seconds)
        rss = peak_rss_mb(proc.pid)
    finally:
        stop(proc)
    if not args.trace:
        correct, attempted, failed = summarize(records, fault)
        metrics = end_to_end(records, events, setup, rss)
        return _result(correct, attempted, failed, metrics, END_TO_END)

    spans_path = work / "server-spans.json"
    launcher = [sys.executable, str(HERE / "serve_launcher.py"),
                str(spans_path)] + plain[3:]
    rec = tracing.Recorder()
    tracing.install_protocol(rec)
    tracing.install_client(rec)
    proc, port, _ = start_server(launcher, 1)
    try:
        traced = load(port, batches, locations, expected, seconds)
    finally:
        stop(proc)
    correct, attempted, failed = summarize(records + traced, fault)
    server_spans, server_counts = tracing.load(str(spans_path))
    client_layers = tracing.self_ms(rec.spans)
    server_layers = tracing.self_ms(server_spans)
    server_cpu = tracing.self_ms(server_spans, cpu=True)
    layers = dict(client_layers)
    for layer, ms in server_layers.items():
        layers[layer] = layers.get(layer, 0.0) + ms
    wall_ms = sum(r[1] for r in traced) * 1e3
    session_ms = server_counts.get("session_s", 0.0) * 1e3
    sent = sum(events[r[0]] for r in traced)
    wire = rec.counts.get("wire_bytes", 0) + server_counts.get("wire_bytes", 0)
    metrics = _layer_metrics(layers)
    metrics.update({
        "protocol.wire_bytes_per_event": wire / sent,
        "ingest.slices": tracing.calls(server_spans, *INGEST_LAYERS),
        "client.unattributed_ms": wall_ms - sum(client_layers.values()),
        "server.ingest_ms": sum(server_layers.get(n, 0.0)
                                for n in ENGINE_LAYERS),
        "server.ingest_cpu_ms": sum(server_cpu.get(n, 0.0)
                                    for n in ENGINE_LAYERS),
        "server.session_ms": session_ms,
        "server.unattributed_ms": session_ms - sum(server_layers.values()),
        "ops.wall_ms": wall_ms,
    })
    metrics.update(_overhead(
        _events_per_s(records, events), _events_per_s(traced, events),
    ))
    return _result(correct, attempted, failed, metrics, PER_LAYER)


WORKLOADS = {
    "sp_replay": lambda args, work: run_offline("sp_replay", args, work),
    "lattice_2d": lambda args, work: run_offline("lattice_2d", args, work),
    "serve_sp": run_serve,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}/repro; run from a "
              "source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # A terminated run still stops its children and removes its inputs.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    work = ROOT / ".perfbench" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        print(json.dumps({"workload": args.workload, "seed": args.seed,
                          "seconds": args.seconds, "trace": args.trace,
                          "host": host_fingerprint()}))
        result = WORKLOADS[args.workload](args, work)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
