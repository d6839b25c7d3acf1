"""Self-test of the benchmark's inputs and checks.

    python3 perfbench/selftest.py      # from the root of a source checkout

1. Every input builder in ``gen.py`` emits exactly the columns and
   location table the repository's interpreter records for the same
   program (pipelines, wavefronts, loop and spawn-sync programs).
2. On small instances of every family, the race locations known from
   construction equal those of the brute-force oracle
   (``repro.detectors.oracle.exact_races``).
3. A deliberately corrupted expected verdict is counted as failed, and
   makes ``correct`` false unless the operation is a known fault.
4. The timing metrics are medians over rounds: a slow stretch that
   covers less than half of a run's rounds does not move them.
5. ``BENCHMARK.json`` names exactly the workloads and metrics run.py
   prints.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import importlib
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import gen  # noqa: E402
import run  # noqa: E402

FAILURES = []


def check(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        FAILURES.append(what)


def _record(fn, *args, **kwargs):
    from repro.engine.batch import BatchBuilder

    builder = BatchBuilder()
    fn(*args, observers=[builder], **kwargs)
    return builder


def _same(trace: gen.Trace, builder) -> bool:
    batch = builder.batch
    return (trace.ops == batch.ops and trace.a == batch.a
            and trace.b == batch.b
            and trace.locations == builder.interner.locations())


def _cilk_program(rounds, fanout, accesses, working_set, nested, racy,
                  read_racer):
    """The program ``gen.spawn_sync`` encodes, written for the
    interpreter with ``repro.forkjoin.spawn_sync.cilk``."""
    from repro.forkjoin.program import read, write
    from repro.forkjoin.spawn_sync import cilk

    @cilk
    def task(ctx, path, kids_n, tail):
        for g in range(kids_n):
            yield from ctx.spawn(task, path + (g,), 0, ())
        yield from ctx.sync()
        for g in range(kids_n):
            yield read(("out",) + path + (g, 0))
        for k in range(accesses):
            if k % 3 == 2:
                yield read(("in", (k + len(path)) % gen.N_SHARED))
            else:
                yield write(("out",) + path + (k % working_set,))
        for is_read, loc in tail:
            yield read(loc) if is_read else write(loc)

    @cilk
    def root(ctx):
        for x in range(gen.N_SHARED):
            yield write(("in", x))
        for r in range(rounds):
            for c in range(fanout):
                tail = ()
                if r in racy and c < 2:
                    tail = ((read_racer and c == 1, ("racy", r)),)
                yield from ctx.spawn(task, (c,), nested, tail)
            yield from ctx.sync()
            for c in range(fanout):
                yield read(("out", c, 0))

    return root


def check_streams() -> None:
    from repro.forkjoin import run as run_program
    from repro.forkjoin.pipeline import run_pipeline

    pipes = importlib.import_module("repro.workloads.pipelines")
    waves = importlib.import_module("repro.workloads.wavefront")
    racegen = importlib.import_module("repro.workloads.racegen")
    for n, m, par in [(3, 3, ()), (5, 5, (1, 2)), (6, 4, (0, 1, 2))]:
        check(_same(gen.clean_pipeline(n, m, par),
                    _record(run_pipeline, *pipes.clean_pipeline(n, m),
                            parallel=par)),
              f"stream clean_pipeline {n}x{m} parallel={par}")
        check(_same(gen.racy_pipeline(n, m, par),
                    _record(run_pipeline, *pipes.racy_pipeline(n, m),
                            parallel=par)),
              f"stream racy_pipeline {n}x{m} parallel={par}")
    for r, c in [(3, 3), (4, 6), (7, 2)]:
        check(_same(gen.wavefront(r, c),
                    _record(run_pipeline, *waves.wavefront(r, c))),
              f"stream wavefront {r}x{c}")
        check(_same(gen.wavefront(r, c, bugged=True),
                    _record(run_pipeline, *waves.wavefront_with_bug(r, c))),
              f"stream bugged wavefront {r}x{c}")
    check(_same(gen.blocked_wavefront(8, 6, 2, 3),
                _record(run_pipeline, *waves.blocked_wavefront(8, 6, 2, 3))),
          "stream blocked wavefront 8x6/2x3")
    check(_same(gen.loop("l", fanout=3, loops=4, pattern=8, racy=True),
                _record(run_program, racegen.loop_program(3, 4, 8, racy=True))),
          "stream loop program")
    for kw in [
        dict(rounds=3, fanout=3, accesses=7, working_set=7, nested=0,
             racy=(1,), read_racer=False),
        dict(rounds=2, fanout=4, accesses=10, working_set=4, nested=2,
             racy=(0, 1), read_racer=True),
    ]:
        trace = gen.spawn_sync(
            "s", rounds=kw["rounds"], fanout=kw["fanout"],
            accesses=kw["accesses"], working_set=kw["working_set"],
            nested=kw["nested"], racy_rounds=kw["racy"],
            read_racer=kw["read_racer"],
        )
        check(_same(trace, _record(run_program, _cilk_program(**kw))),
              f"stream spawn-sync {kw}")


def _oracle_locations(trace: gen.Trace) -> set:
    from repro.detectors.oracle import exact_races
    from repro.engine.batch import EventBatch, LocationInterner, events_from_batch

    interner = LocationInterner()
    for loc in trace.locations:
        interner.intern(loc)
    events = events_from_batch(EventBatch(trace.ops, trace.a, trace.b),
                               interner)
    return {pair.loc for pair in exact_races(events)}


def check_ground_truth() -> None:
    small = [
        gen.spawn_sync("sp_once", rounds=3, fanout=3, accesses=9,
                       working_set=9, racy_rounds=(0, 2)),
        gen.spawn_sync("sp_reuse", rounds=2, fanout=4, accesses=12,
                       working_set=4, nested=2, racy_rounds=(1,),
                       read_racer=True),
        gen.spawn_sync("sp_clean", rounds=2, fanout=2, accesses=6,
                       working_set=6),
        gen.loop("loop_racy", fanout=3, loops=3, pattern=8, racy=True),
        gen.loop("loop_clean", fanout=2, loops=3, pattern=8),
        gen.clean_pipeline(5, 4),
        gen.clean_pipeline(5, 4, [1]),
        gen.racy_pipeline(4, 3),
        gen.racy_pipeline(4, 4, [0, 2]),
        gen.wavefront(4, 5),
        gen.wavefront(5, 4, bugged=True),
        gen.blocked_wavefront(8, 8, 2, 4),
    ] + gen.depa_probe_inputs()
    for trace in small:
        oracle = _oracle_locations(trace)
        check(oracle == set(trace.expected),
              f"ground truth {trace.name}: {len(trace.expected)} locations")


def check_failure_counting() -> None:
    import replay_worker
    from repro.engine.batch import EventBatch, LocationInterner
    from repro.engine.tracefile import write_trace

    trace = gen.racy_pipeline(4, 3)
    scratch = HERE.parent / ".perfbench"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        path = str(Path(tmp) / "t.trc")
        interner = LocationInterner()
        for loc in trace.locations:
            interner.intern(loc)
        write_trace(path, EventBatch(trace.ops, trace.a, trace.b), interner)
        op = {"path": path, "format": "trc", "backend": "lattice2d"}
        expected = [trace.expected, trace.expected | {("cell", 0, 0)}]
        records = run.closed_loop(
            [lambda k: replay_worker.request(k, op, expected[k])],
            2, 0.0, 100,
        )
    check(all(r[2] for r in records if r[0] == 0),
          "right verdicts pass")
    check(not any(r[2] for r in records if r[0] == 1),
          "corrupted verdicts fail")
    correct, attempted, failed = run.summarize(records, [False, False])
    check(not correct and failed == attempted // 2,
          "corrupted verdict counted as failed, correct=false")
    correct, _, _ = run.summarize(records, [False, True])
    check(correct, "known-fault failure keeps correct=true")


def check_round_medians() -> None:
    # two operations of 10 and 30 events per round; rounds 0-4 take 1 s
    # and 3 s per operation, rounds 5-7 take twice as long
    events = [10, 30]
    records = [[k, (k * 2 + 1) * (2 if rnd >= 5 else 1), True, None,
                0.0, k, rnd] for rnd in range(8) for k in range(2)]
    got = run.end_to_end(records, events, [0.5], 1.0)
    want = {"events_per_s": 40 * run.CONNECTIONS / 4,
            "verdict_ms_p50": 2000.0, "verdict_ms_p90": 2800.0}
    check(all(abs(got[k] - v) < 1e-9 for k, v in want.items()),
          "timing metrics ignore a slow stretch under half the rounds")


def check_benchmark_json() -> None:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    check({w["name"] for w in spec["workloads"]} == set(run.WORKLOADS),
          "BENCHMARK.json workloads")
    check({m["name"]: m["unit"] for m in spec["end_to_end"]}
          == run.END_TO_END, "BENCHMARK.json end-to-end metrics")
    check({m["name"]: m["unit"] for m in spec["per_layer"]}
          == run.PER_LAYER, "BENCHMARK.json per-layer metrics")


def main() -> int:
    check_streams()
    check_ground_truth()
    check_failure_counting()
    check_round_medians()
    check_benchmark_json()
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
