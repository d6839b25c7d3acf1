"""Benchmark inputs, built straight into engine columns, with the
race-location set each one must produce known from its construction.

Every builder emits the exact event stream the repository's fork-join
interpreter would record for the same program (fork-first, children
join their immediate left neighbour), but without running generators
per event, so a run can build millions of events in a few seconds.
``selftest.py`` checks the streams against the interpreter and the
expected sets against the brute-force oracle on small instances.

Nothing here imports the package under test: the inputs and their
ground truth stay independent of the code being measured.
"""

from __future__ import annotations

import math
import random
from array import array
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Hashable, List, Optional, Sequence, Tuple

# Engine opcodes (repro.engine.batch): the RPR2TRC column format fixes them.
FORK, JOIN, HALT, STEP, READ, WRITE = range(6)

#: compressor block width the loop traces are shaped for
#: (repro.compress.DEFAULT_BLOCK_WIDTH); a loop period dividing it
#: makes every interior block of a worker's run bit-identical
BLOCK_WIDTH = 256

#: read-only shared input locations of the spawn-sync and loop programs
N_SHARED = 4

#: one task's effects: a list of (opcode, location or None for a step)
Cell = List[Tuple[int, Optional[Hashable]]]


@dataclass
class Trace:
    """One benchmark input: engine columns, location table, verdict."""

    name: str
    family: str
    ops: array
    a: array
    b: array
    locations: List[Hashable]
    #: locations a correct detector reports races on, from construction
    expected: FrozenSet[Hashable]
    #: working-set class: "reuse" / "once" (spawn-sync), "loop", or ""
    regime: str = ""

    def __len__(self) -> int:
        return len(self.ops)


class Emitter:
    """Appends events to three columns, interning locations in
    first-seen order (the order ``BatchBuilder`` uses)."""

    def __init__(self) -> None:
        self.ops: List[int] = []
        self.a: List[int] = []
        self.b: List[int] = []
        self.ids: Dict[Hashable, int] = {}
        self.locs: List[Hashable] = []

    def event(self, op: int, a: int, b: int = -1) -> None:
        self.ops.append(op)
        self.a.append(a)
        self.b.append(b)

    def access(self, op: int, task: int, loc: Hashable) -> None:
        lid = self.ids.get(loc)
        if lid is None:
            lid = self.ids[loc] = len(self.locs)
            self.locs.append(loc)
        self.ops.append(op)
        self.a.append(task)
        self.b.append(lid)

    def trace(self, name: str, family: str, expected, **kw) -> Trace:
        return Trace(
            name, family, array("B", self.ops), array("i", self.a),
            array("i", self.b), self.locs, frozenset(expected), **kw,
        )


# -- spawn-sync (series-parallel) programs ----------------------------------


def spawn_sync(
    name: str,
    *,
    rounds: int,
    fanout: int,
    accesses: int,
    working_set: int,
    nested: int = 0,
    racy_rounds: Sequence[int] = (),
    read_racer: bool = False,
) -> Trace:
    """A Cilk-style program: the root publishes a shared input, then per
    round spawns ``fanout`` children (each optionally spawning
    ``nested`` grandchildren), syncs, and reads each child's first slot.

    A task performs ``accesses`` accesses: every third reads the shared
    input, the rest write the task's own slots ``k % working_set``.
    ``working_set >= accesses`` touches each slot once; a small one
    rewrites it.  Slots are keyed by the task's position in its round,
    so later rounds (ordered by the sync) reuse them and the location
    table stays small.  In each round of ``racy_rounds`` the first two
    siblings also write (or, with ``read_racer``, write then read)
    ``("racy", round)``: the only unordered conflicting accesses.
    """
    em = Emitter()
    next_id = 1
    racy = set(racy_rounds)

    def task(parent: int, path: Tuple[int, ...], kids_n: int,
             tail: Cell = ()) -> None:
        nonlocal next_id
        t = next_id
        next_id += 1
        em.event(FORK, parent, t)
        kids = []
        for g in range(kids_n):
            kids.append(next_id)
            task(t, path + (g,), 0)
        for kid in reversed(kids):
            em.event(JOIN, t, kid)
        for g in range(kids_n):
            em.access(READ, t, ("out",) + path + (g, 0))
        for k in range(accesses):
            if k % 3 == 2:
                em.access(READ, t, ("in", (k + len(path)) % N_SHARED))
            else:
                em.access(WRITE, t, ("out",) + path + (k % working_set,))
        for op, loc in tail:
            em.access(op, t, loc)
        em.event(HALT, t)

    for x in range(N_SHARED):
        em.access(WRITE, 0, ("in", x))
    for r in range(rounds):
        kids = []
        for c in range(fanout):
            tail: Cell = []
            if r in racy and c < 2:
                op = READ if (read_racer and c == 1) else WRITE
                tail = [(op, ("racy", r))]
            kids.append(next_id)
            task(0, (c,), nested, tail)
        for t in reversed(kids):
            em.event(JOIN, 0, t)
        for c in range(fanout):
            em.access(READ, 0, ("out", c, 0))
    em.event(HALT, 0)
    return em.trace(
        name, "sp", [("racy", r) for r in sorted(racy)],
        regime="reuse" if working_set < accesses else "once",
    )


def loop(name: str, *, fanout: int, loops: int, pattern: int,
         racy: bool = False) -> Trace:
    """``repro.workloads.racegen.loop_program``: workers repeat one
    fixed access pattern, so the stream is block-periodic.  With
    ``racy`` the first two workers write ``("racy",)`` after looping."""
    em = Emitter()
    for wid in range(fanout):
        t = wid + 1
        em.event(FORK, 0, t)
        for _ in range(loops):
            for k in range(pattern):
                if k % 4 == 3:
                    em.access(READ, t, ("shared", k % N_SHARED))
                else:
                    em.access(WRITE, t, ("private", wid, k))
        if racy and wid < 2:
            em.access(WRITE, t, ("racy",))
        em.event(HALT, t)
    for t in range(fanout, 0, -1):
        em.event(JOIN, 0, t)
    em.event(HALT, 0)
    return em.trace(name, "loop", [("racy",)] if racy else [],
                    regime="loop")


# -- 2D lattices: pipelines and wavefronts ----------------------------------

StageFn = Callable[[int, int], Cell]


def pipeline(name: str, family: str, n_items: int, n_stages: int,
             stage: StageFn, expected, parallel: Sequence[int] = ()) -> Trace:
    """``repro.forkjoin.pipeline.run_pipeline``: cell (item ``j``, stage
    ``i``) is its own task, forked by the item's previous stage; a
    serial stage first joins its left neighbours, and the driver
    drains what is left.  ``stage(i, j)`` gives the cell's effects."""
    par = frozenset(parallel)
    em = Emitter()
    # The task line: each live task's left neighbour (None at the end).
    left: Dict[int, Optional[int]] = {0: None}

    def fork(p: int, c: int) -> None:
        em.event(FORK, p, c)
        left[c], left[p] = left[p], c

    def join_left(t: int) -> None:
        x = left[t]
        em.event(JOIN, t, x)
        left[t] = left.pop(x)

    def joins_before(i: int) -> int:
        k = i - 1
        while k >= 0 and k in par:
            k -= 1
        return i - k

    outstanding = 0
    for j in range(n_items):
        t = 1 + j * n_stages
        outstanding += 1
        fork(0, t)
        for i in range(n_stages):
            if j > 0 and i not in par:
                for _ in range(joins_before(i)):
                    join_left(t)
                    outstanding -= 1
            for op, loc in stage(i, j):
                if loc is None:
                    em.event(op, t)
                else:
                    em.access(op, t, loc)
            if i + 1 < n_stages:
                outstanding += 1
                fork(t, t + 1)
                t += 1
        for i in range(n_stages):
            em.event(HALT, t - i)
    for _ in range(outstanding):
        join_left(0)
    em.event(HALT, 0)
    return em.trace(name, family, expected)


def _buf(i: int, j: int) -> Tuple[str, int, int]:
    return ("buf", i, j)


def clean_pipeline(n_items: int, n_stages: int, parallel: Sequence[int] = (),
                   name: str = "") -> Trace:
    """``repro.workloads.pipelines.clean_pipeline``: race-free while the
    last (accumulating) stage is serial."""
    last = n_stages - 1
    if last in parallel:
        raise ValueError("the accumulating last stage must stay serial")

    def stage(i: int, j: int) -> Cell:
        cell: Cell = [(READ, _buf(i - 1, j))] if i > 0 else []
        cell.append((STEP, None))
        cell.append((WRITE, _buf(i, j)))
        if i == last:
            cell += [(READ, ("acc",)), (WRITE, ("acc",))]
        return cell

    return pipeline(name or f"clean_pipeline_{n_items}x{n_stages}",
                    "clean_pipeline", n_items, n_stages, stage, (), parallel)


def racy_pipeline(n_items: int, n_stages: int, parallel: Sequence[int] = (),
                  writer_stage: int = 0, name: str = "") -> Trace:
    """``repro.workloads.pipelines.racy_pipeline``: stage
    ``writer_stage`` writes ``("leak",)`` and the last stage reads it,
    so adjacent items race on it (needs two or more items)."""
    last = n_stages - 1
    if last in parallel:
        raise ValueError("the accumulating last stage must stay serial")

    def stage(i: int, j: int) -> Cell:
        cell: Cell = [(WRITE, ("leak",))] if i == writer_stage else []
        if i > 0:
            cell.append((READ, _buf(i - 1, j)))
        cell += [(STEP, None), (WRITE, _buf(i, j))]
        if i == last:
            cell += [(READ, ("acc",)), (WRITE, ("acc",)), (READ, ("leak",))]
        return cell

    return pipeline(name or f"racy_pipeline_{n_items}x{n_stages}",
                    "racy_pipeline", n_items, n_stages, stage, [("leak",)],
                    parallel)


def _cell(i: int, j: int) -> Tuple[str, int, int]:
    return ("cell", i, j)


def wavefront(rows: int, cols: int, bugged: bool = False,
              name: str = "") -> Trace:
    """``repro.workloads.wavefront.wavefront`` (or ``wavefront_with_bug``
    at its default anti-diagonal offset): cell ``(i, j)`` reads its
    up / left / diagonal neighbours and writes itself.  The bug also
    reads ``(i - 1, j + 1)``, which races on every such cell."""

    def stage(j: int, i: int) -> Cell:
        cell: Cell = []
        if bugged and i >= 1 and j + 1 < cols:
            cell.append((READ, _cell(i - 1, j + 1)))
        if i > 0:
            cell.append((READ, _cell(i - 1, j)))
        if j > 0:
            cell.append((READ, _cell(i, j - 1)))
            if i > 0:
                cell.append((READ, _cell(i - 1, j - 1)))
        cell.append((WRITE, _cell(i, j)))
        return cell

    expected = (
        [_cell(a, b) for a in range(rows - 1) for b in range(1, cols)]
        if bugged else []
    )
    family = "bugged_wavefront" if bugged else "wavefront"
    return pipeline(name or f"{family}_{rows}x{cols}", family, rows, cols,
                    stage, expected)


def blocked_wavefront(rows: int, cols: int, bh: int, bw: int,
                      name: str = "") -> Trace:
    """``repro.workloads.wavefront.blocked_wavefront``: one task per
    ``bh x bw`` block, reading the neighbouring blocks' boundary cells."""
    if rows % bh or cols % bw:
        raise ValueError("block size must divide the matrix size")

    def stage(J: int, I: int) -> Cell:
        cell: Cell = []
        if I > 0:
            cell += [(READ, _cell(I * bh - 1, j))
                     for j in range(J * bw, (J + 1) * bw)]
        if J > 0:
            cell += [(READ, _cell(i, J * bw - 1))
                     for i in range(I * bh, (I + 1) * bh)]
        cell += [(WRITE, _cell(i, j))
                 for i in range(I * bh, (I + 1) * bh)
                 for j in range(J * bw, (J + 1) * bw)]
        return cell

    return pipeline(name or f"blocked_wavefront_{rows}x{cols}_{bh}x{bw}",
                    "blocked_wavefront", rows // bh, cols // bw, stage, ())


# -- workload make-up ---------------------------------------------------------
#
# A round's make-up is fixed; the seed moves only the details.  Trace
# ``k`` of ``n`` takes its size from stratum ``k`` of ``n`` equal
# (log-)strata of the size range, every other numeric parameter from a
# stratum chosen by a fixed permutation of ``k``, and its flags and
# discrete choices from ``k`` too.  The seed places each value within
# the middle half of its stratum and picks racy rounds, racing access
# kinds and parallel stages.  Shuffling each parameter on its own per
# seed instead let the slowest combinations (large, low-access,
# working-set-reusing traces) come and go with the seed, moving the p90
# by a third between seeds.


def _stratum(rng: random.Random, k: int, n: int, lo: float, hi: float,
             log: bool = True) -> float:
    """A value from the middle half of stratum ``k`` of ``n`` equal
    (log-)strata of ``[lo, hi]``."""
    u = (k + 0.25 + rng.random() / 2) / n
    return lo * (hi / lo) ** u if log else lo + (hi - lo) * u


def _perm(k: int, n: int, step: int) -> int:
    """Position ``k`` under a fixed permutation of ``range(n)``."""
    while math.gcd(step, n) != 1:
        step += 1
    return k * step % n


def _sp_traces(rng: random.Random, prefix: str, n: int, size: Tuple[int, int],
               accesses: Tuple[int, int], fanout: Tuple[int, int]
               ) -> List[Trace]:
    """``n`` spawn-sync traces: half rewrite a 4, 8 or 16-slot working
    set, half touch each slot once; 30% nest a level of spawns; 40%
    race."""
    out = []
    for k in range(n):
        target = _stratum(rng, k, n, *size)
        acc = int(_stratum(rng, _perm(k, n, 37), n, *accesses, log=False))
        fan = int(_stratum(rng, _perm(k, n, 61), n, fanout[0], fanout[1] + 1,
                           log=False))
        working_set = (4, 8, 16)[k // 2 % 3] if k % 2 == 0 else acc
        kids = 2 if k % 10 in (1, 4, 7) else 0
        per_round = fan * (acc + 3 + kids * (acc + 4)) + fan
        rounds = max(1, int(target) // per_round)
        racy_rounds = (
            rng.sample(range(rounds), min(rounds, rng.randint(1, 3)))
            if k % 5 in (0, 3) else []
        )
        out.append(spawn_sync(
            f"{prefix}{k:03d}", rounds=rounds, fanout=fan, accesses=acc,
            working_set=working_set, nested=kids, racy_rounds=racy_rounds,
            read_racer=rng.random() < 0.5,
        ))
    return out


#: spawn-sync traces replayed raw, and loop traces replayed compressed,
#: per round of ``sp_replay``
SP_RAW, SP_LOOPS = 100, 12


def sp_replay_inputs(seed: int) -> List[Trace]:
    """Fine-grained spawn-sync traces of 4-40K events (10-100 accesses
    per task, fanout 2-16) plus a minority of block-periodic loop
    traces of 20-80K events, half of them racy."""
    rng = random.Random(f"sp_replay:{seed}")
    out = _sp_traces(rng, "sp", SP_RAW, (4_000, 40_000), (10, 100), (2, 16))
    for k in range(SP_LOOPS):
        pattern = (16, 32, 64, 128)[k % 4]
        fanout = 2 + _perm(k, SP_LOOPS, 5) % 7
        target = _stratum(rng, k, SP_LOOPS, 20_000, 80_000)
        loops = max(1, int(target) // (fanout * pattern))
        out.append(loop(f"loop{k:02d}", fanout=fanout, loops=loops,
                        pattern=pattern, racy=k % 2 == 1))
    return out


#: seed-dependent traces per family, per round of ``lattice_2d``
LATTICE_MIX = (
    ("clean_pipeline", 20),
    ("racy_pipeline", 20),
    ("wavefront", 18),
    ("bugged_wavefront", 18),
    ("blocked_wavefront", 20),
)


def _lattice_family(rng: random.Random, family: str, n: int) -> List[Trace]:
    out = []
    for k in range(n):
        name = f"{family}{k:02d}"
        target = _stratum(rng, k, n, 3_000, 100_000)
        # stages, aspect ratio or tile shape
        shape = _stratum(rng, _perm(k, n, 7), n, 0.5, 2.0)
        if family in ("clean_pipeline", "racy_pipeline"):
            stages = max(3, min(10, int(6 * shape)))
            items = max(2, int(target // (7 * stages)))
            parallel = sorted(rng.sample(range(stages - 1), 1 + k // 2 % 2)) \
                if k % 2 else []
            build = clean_pipeline if family == "clean_pipeline" \
                else racy_pipeline
            out.append(build(items, stages, parallel, name=name))
        elif family == "blocked_wavefront":
            bh, bw = (2, 4, 8)[k % 3], (2, 4, 8)[(k // 3) % 3]
            side = (target / (1 + 1 / bh + 1 / bw)) ** 0.5
            rows = max(2, int(side * shape ** 0.5) // bh) * bh
            cols = max(2, int(side / shape ** 0.5) // bw) * bw
            out.append(blocked_wavefront(rows, cols, bh, bw, name=name))
        else:
            cells = target / 7
            rows = max(2, int((cells * shape) ** 0.5))
            cols = max(2, int(cells / rows))
            out.append(wavefront(rows, cols, family == "bugged_wavefront",
                                 name=name))
    return out


def depa_probe_inputs() -> List[Trace]:
    """Small clean lattices, the same on every seed, that ``lattice_2d``
    also submits to the depa backend: depa reports races on clean
    non-series-parallel lattices, so those operations fail every run."""
    return [
        clean_pipeline(16, 5, name="probe_clean_pipeline_16x5"),
        clean_pipeline(24, 6, [2], name="probe_clean_pipeline_24x6_par2"),
        wavefront(8, 6, name="probe_wavefront_8x6"),
        blocked_wavefront(16, 16, 4, 4, name="probe_blocked_16x16_4x4"),
    ]


def lattice_inputs(seed: int) -> List[Trace]:
    """Pipelines (serial and parallel stages, clean and racy) and
    wavefronts (clean, bugged, blocked), 3K to 100K events each."""
    rng = random.Random(f"lattice_2d:{seed}")
    return [t for family, n in LATTICE_MIX
            for t in _lattice_family(rng, family, n)]


#: small and large sessions per round of ``serve_sp``
SERVE_SMALL, SERVE_LARGE = 28, 12


def serve_inputs(seed: int) -> List[Trace]:
    """Coarse-task spawn-sync batches (250-1250 accesses per task):
    70% small sessions of 5-20K events, 30% large of 100-300K."""
    rng = random.Random(f"serve_sp:{seed}")
    return (
        _sp_traces(rng, "small", SERVE_SMALL, (5_000, 20_000), (250, 1250),
                   (2, 8))
        + _sp_traces(rng, "large", SERVE_LARGE, (100_000, 300_000),
                     (250, 1250), (2, 16))
    )
