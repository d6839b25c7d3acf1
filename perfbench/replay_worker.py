"""The offline system under test: a replay process that answers
verdict requests.

Started by ``run.py`` with the package on ``PYTHONPATH``.  It imports
the engine and prints ``ready`` (the end of set-up); ``quit`` on stdin
ends it there, ``go`` loads the manifest, warms up and prints ``warm``.
After that each stdin line is one request:

* ``K`` -- replay operation ``K`` of the manifest and print its record
  ``[K, seconds, verdict right, error or None, start]`` as JSON
  (``start`` on the ``time.perf_counter`` clock the spans use);
* ``trace`` -- install the layer spans (``tracing.install_engine``) and
  print ``traced``;
* ``quit`` -- write the spans (when traced), print
  ``{"maxrss_kb": ...}`` and exit.

An operation replays one recorded trace file to its race verdict: read
the file, build a ``BatchEngine`` for the requested backend, ingest, and
collect the raced locations.  An RPR2TRC file goes through
``read_trace`` and ``ingest``; an RPR2TRZ file through ``read_tracez``
and ``ingest_compressed``, never expanded.  The verdict is compared
with the expected set after the clock stops.

Usage: replay_worker.py MANIFEST SPANS_OUT
"""

from __future__ import annotations

import json
import resource
import sys
import time

from repro.compress import container
from repro.engine import tracefile
from repro.engine.ingest import BatchEngine
from repro.obs.registry import get_registry

from tracing import Recorder, install_engine


def _tuples(obj):
    if isinstance(obj, list):
        return tuple(_tuples(x) for x in obj)
    return obj


def replay(op) -> set:
    """One operation: a trace file in, the set of raced locations out."""
    if op["format"] == "trz":
        ctrace, interner = container.read_tracez(op["path"])
        engine = BatchEngine(backend=op["backend"], interner=interner)
        engine.ingest_compressed(ctrace)
    else:
        batch, interner = tracefile.read_trace(op["path"])
        engine = BatchEngine(backend=op["backend"], interner=interner)
        engine.ingest(batch)
    return {r.loc for r in engine.races()}


def request(k: int, op, expected) -> list:
    """Replay operation ``k``; its record (see the module docstring)."""
    perf = time.perf_counter
    t0 = perf()
    try:
        raced = replay(op)
    except Exception as exc:  # a refusal is a failed operation
        return [k, perf() - t0, False, repr(exc), t0]
    dt = perf() - t0
    return [k, dt, raced == expected, None, t0]


def _memo_counts():
    reg = get_registry()
    labels = {"engine": "batch"}
    return (reg.counter("engine_memo_hits_total", labels=labels).value,
            reg.counter("engine_memo_misses_total", labels=labels).value)


def main(argv) -> int:
    manifest, spans_out = argv
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0
    with open(manifest, encoding="utf-8") as fp:
        ops = json.load(fp)
    expected = [frozenset(_tuples(op["expected"])) for op in ops]
    # Warm-up: one replay per (format, backend) pays lazy imports and
    # first-call costs before any request is timed.
    seen = set()
    for op in ops:
        key = (op["format"], op["backend"])
        if key not in seen:
            seen.add(key)
            replay(op)
    print("warm", flush=True)
    rec = memo = None
    for line in sys.stdin:
        line = line.strip()
        if line == "quit":
            break
        if line == "trace":
            rec = Recorder()
            install_engine(rec)
            memo = _memo_counts()
            print("traced", flush=True)
            continue
        k = int(line)
        print(json.dumps(request(k, ops[k], expected[k])), flush=True)
    if rec is not None:
        hits, misses = _memo_counts()
        rec.count("memo_hits", hits - memo[0])
        rec.count("memo_misses", misses - memo[1])
        rec.dump(spans_out)
    maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"maxrss_kb": maxrss}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
