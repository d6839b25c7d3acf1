"""Spans around the calls into each layer, recorded from outside the
package: a wrapper replaces a public function or method, times each
call, and charges the call's *self* time (its duration minus that of
the wrapped calls nested inside it) to a named layer.

Spans stay in memory and are written out once, when the traced phase
ends.  Each span is ``[id, parent, layer, start, end, self, self_cpu]``:
``parent`` is the id of the enclosing span on the same thread (-1 at
top level), ``start``/``end`` come from ``time.perf_counter``, and
``self``/``self_cpu`` are the self wall and thread-CPU seconds.  Wall
self time includes waiting (for the interpreter lock, a core, or a
socket); the CPU share is the part the thread was running.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from typing import Any, Callable, Dict, List, Optional

# Layer names; run.py turns each into a "<layer>_ms" metric.
TRACEFILE_READ = "tracefile.read"
COMPRESS_READ = "compress.read"
COMPRESS_INGEST = "compress.ingest"
INGEST_LATTICE2D = "ingest.lattice2d"
INGEST_DEPA = "ingest.depa"
INGEST_RACES = "ingest.races"
INGEST_ENGINE_NEW = "ingest.engine_new"
PROTOCOL_ENCODE = "protocol.encode"
PROTOCOL_FRAME = "protocol.frame"
PROTOCOL_DECODE = "protocol.decode"
PROTOCOL_VALIDATE = "protocol.validate"
CLIENT_CONNECT = "client.connect"
CLIENT_SEND = "client.send"
CLIENT_FINISH = "client.finish"

#: public functions of repro.serve.protocol, by the layer they belong to
PROTOCOL_LAYERS = {
    "encode_frame": PROTOCOL_FRAME,
    "parse_frame_header": PROTOCOL_FRAME,
    "check_frame_length": PROTOCOL_FRAME,
    "check_payload_crc": PROTOCOL_FRAME,
    "encode_hello": PROTOCOL_ENCODE,
    "encode_hello_reply": PROTOCOL_ENCODE,
    "encode_batch_payload": PROTOCOL_ENCODE,
    "encode_credit": PROTOCOL_ENCODE,
    "encode_error": PROTOCOL_ENCODE,
    "encode_bye_summary": PROTOCOL_ENCODE,
    "encode_races": PROTOCOL_ENCODE,
    "decode_hello": PROTOCOL_DECODE,
    "decode_hello_reply": PROTOCOL_DECODE,
    "decode_batch_payload": PROTOCOL_DECODE,
    "decode_credit": PROTOCOL_DECODE,
    "decode_error": PROTOCOL_DECODE,
    "decode_bye_summary": PROTOCOL_DECODE,
    "decode_races": PROTOCOL_DECODE,
    "validate_batch_columns": PROTOCOL_VALIDATE,
}


class Recorder:
    """Collects spans from every thread of one process."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Dict[str, float] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count()

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, layer: Any, fn: Callable,
             after: Optional[Callable[[Any], None]] = None) -> Callable:
        """Time every call of ``fn`` as a span of ``layer`` -- a name, or
        a function of the call's first argument that returns one.
        ``after`` sees each call's result (for byte counts)."""
        perf, cpu = time.perf_counter, time.thread_time
        local = self._local
        spans = self.spans
        ids = self._ids

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            name = layer(args[0]) if callable(layer) else layer
            parent = stack[-1][2] if stack else -1
            frame = [0.0, 0.0, next(ids)]  # child wall s, child cpu s, id
            stack.append(frame)
            start, start_cpu = perf(), cpu()
            try:
                result = fn(*args, **kwargs)
            finally:
                end, dur_cpu = perf(), cpu() - start_cpu
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][0] += dur
                    stack[-1][1] += dur_cpu
                spans.append([frame[2], parent, name, start, end,
                              dur - frame[0], dur_cpu - frame[1]])
            if after is not None:
                after(result)
            return result

        return wrapper

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fp:
            json.dump({"spans": self.spans, "counts": self.counts}, fp)


def load(path: str):
    """``(spans, counts)`` as a :class:`Recorder` dumped them."""
    with open(path, encoding="utf-8") as fp:
        data = json.load(fp)
    return data["spans"], data["counts"]


def self_ms(spans, cpu: bool = False) -> Dict[str, float]:
    """Per-layer self wall (or thread-CPU) time in milliseconds."""
    out: Dict[str, float] = {}
    for span in spans:
        name = span[2]
        out[name] = out.get(name, 0.0) + span[6 if cpu else 5] * 1e3
    return out


def calls(spans, *names: str) -> int:
    """How many spans carry one of ``names``."""
    return sum(1 for span in spans if span[2] in names)


def install_engine(rec: Recorder) -> None:
    """Wrap the offline entry points: trace readers and the engine."""
    from repro.compress import container
    from repro.detectors.depa import DePaDetector
    from repro.engine import tracefile
    from repro.engine.ingest import BatchEngine

    def ingest_layer(engine) -> str:
        if isinstance(engine.detector, DePaDetector):
            return INGEST_DEPA
        return INGEST_LATTICE2D

    tracefile.read_trace = rec.wrap(TRACEFILE_READ, tracefile.read_trace)
    container.read_tracez = rec.wrap(COMPRESS_READ, container.read_tracez)
    BatchEngine.__init__ = rec.wrap(INGEST_ENGINE_NEW, BatchEngine.__init__)
    BatchEngine.ingest = rec.wrap(ingest_layer, BatchEngine.ingest)
    BatchEngine.ingest_compressed = rec.wrap(
        COMPRESS_INGEST, BatchEngine.ingest_compressed
    )
    BatchEngine.races = rec.wrap(INGEST_RACES, BatchEngine.races)


def install_protocol(rec: Recorder) -> None:
    """Wrap the wire codec; frame bytes are counted as they are built."""
    from repro.serve import protocol

    def frame_bytes(frame: bytes) -> None:
        rec.count("wire_bytes", len(frame))

    for fname, layer in PROTOCOL_LAYERS.items():
        after = frame_bytes if fname == "encode_frame" else None
        setattr(protocol, fname,
                rec.wrap(layer, getattr(protocol, fname), after))


def install_client(rec: Recorder) -> None:
    """Wrap the blocking client's session calls."""
    from repro.serve.client import RaceClient

    RaceClient.connect = rec.wrap(CLIENT_CONNECT, RaceClient.connect)
    RaceClient.send_batch = rec.wrap(CLIENT_SEND, RaceClient.send_batch)
    RaceClient.finish = rec.wrap(CLIENT_FINISH, RaceClient.finish)
