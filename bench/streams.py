"""Seeded request streams, their fingerprints and their expected outputs.

Every workload is one closed set of operand pools plus an ordered list of
items drawn from them.  A seed fixes both, so the same seed always gives
the same stream (and fingerprint), and another seed gives another stream
with exactly the same mix: kinds and priority classes are dealt from
fixed-size blocks with exact counts, and only their order, the operand
values and the variant each item uses come from the seed.

The program under test sees only the generated operands, as typed
problems (``MatVec``, ``MatMul``, ``Jacobi``) or graphs (a two-stage
mat-vec chain, a float MLP and its int8 twin).  Expected outputs are
computed before any timed window: bit-identical ``simulate`` results for
every pool entry, except the n=1024 mat-vec, whose simulation is too slow
for a run and which is checked against float64 NumPy within
:data:`LARGE_RTOL` instead.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro import (
    MLP,
    ArraySpec,
    ConvergenceCriteria,
    ExecutionOptions,
    Graph,
    GraphCompiler,
    Jacobi,
    MatMul,
    MatVec,
    Solver,
)

#: The float64 check for outputs too large to simulate in a run:
#: ``|y - A @ x| <= LARGE_RTOL * (|A| @ |x|)`` elementwise.  Summation
#: order differs from NumPy's, so the bound is n * eps with room to spare.
LARGE_RTOL = 1e-12

#: Service admission classes: name -> (priority level, client-id prefix).
CLASSES: Dict[str, Tuple[int, str]] = {
    "high": (2, "interactive"),
    "normal": (1, "standard"),
    "low": (0, "batch"),
}
#: One block of 10 class labels: 20% high, 50% normal, 30% low.
CLASS_BLOCK: Tuple[str, ...] = ("high",) * 2 + ("normal",) * 5 + ("low",) * 3
CLIENTS_PER_CLASS = 2

#: Items per stream; loops cycle through it.
STREAM_LENGTH = 2000


@dataclass(frozen=True)
class Entry:
    """One operand-pool entry: how to pose it, and its kind label."""

    kind: str
    make: Callable[[], Any]  # a fresh typed problem or Graph per request
    is_graph: bool
    flops: int  # useful multiply-adds x 2 of the whole entry
    operands: Tuple[np.ndarray, ...]  # every array the entry reads


@dataclass(frozen=True)
class Item:
    """One request of a stream."""

    entry: int  # index into Workload.entries
    class_name: str
    priority: int
    client_id: str


@dataclass
class Workload:
    """A seeded stream over a closed operand pool at one array size."""

    name: str
    seed: int
    w: int
    entries: List[Entry]
    items: List[Item]

    def fingerprint(self) -> str:
        """Hash of item kinds, shapes, classes, clients and operand bytes."""
        digest = hashlib.sha256(f"{self.name}:{self.w}".encode())
        for entry in self.entries:
            digest.update(entry.kind.encode())
            for array in entry.operands:
                digest.update(str((array.shape, array.dtype.str)).encode())
                digest.update(np.ascontiguousarray(array).tobytes())
        for item in self.items:
            digest.update(
                f"{item.entry}|{item.class_name}|{item.client_id};".encode()
            )
        return digest.hexdigest()[:16]

    def kind_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for item in self.items:
            kind = self.entries[item.entry].kind
            counts[kind] = counts.get(kind, 0) + 1
        return counts


def _deal(rng: random.Random, block: Sequence[Any], length: int) -> List[Any]:
    """``length`` labels from shuffled copies of ``block``: every label
    appears equally often, up to one partial block."""
    out: List[Any] = []
    while len(out) < length:
        chunk = list(block)
        rng.shuffle(chunk)
        out.extend(chunk)
    return out[:length]


def _items(
    rng: random.Random,
    kind_block: Sequence[str],
    pools: Dict[str, List[int]],
) -> List[Item]:
    """Deal kinds, pool entries, classes and clients, each in exact shares."""
    kinds = _deal(rng, kind_block, STREAM_LENGTH)
    classes = _deal(rng, CLASS_BLOCK, STREAM_LENGTH)
    clients = _deal(rng, range(CLIENTS_PER_CLASS), STREAM_LENGTH)
    entries = {
        kind: iter(_deal(rng, pool, kinds.count(kind)))
        for kind, pool in pools.items()
    }
    items = []
    for kind, class_name, client in zip(kinds, classes, clients):
        level, prefix = CLASSES[class_name]
        items.append(
            Item(
                entry=next(entries[kind]),
                class_name=class_name,
                priority=level,
                client_id=f"{prefix}-{client}",
            )
        )
    return items


def _matvec(a: np.ndarray, x: np.ndarray, kind: str = "matvec") -> Entry:
    return Entry(kind, lambda: MatVec(a, x), False, 2 * a.size, (a, x))


def _matmul(a: np.ndarray, b: np.ndarray, kind: str = "matmul") -> Entry:
    flops = 2 * a.shape[0] * a.shape[1] * b.shape[1]
    return Entry(kind, lambda: MatMul(a, b), False, flops, (a, b))


def soak_mix(seed: int, w: int = 4) -> Workload:
    """The soak traffic mix: small mat-vec/mat-mul, jacobi, graphs, MLPs.

    Kinds per block of 20: 11 matvec (24x24, 16x16, 24x16), 3 matmul
    (8x8), 2 jacobi (n=12, 4 sweeps), 2 two-stage matvec graphs, one
    float MLP and one int8 MLP forward pass.  Three value variants per
    shape.
    """
    rng = np.random.default_rng(seed)
    entries: List[Entry] = []
    pools: Dict[str, List[int]] = {}

    def add(entry: Entry) -> None:
        pools.setdefault(entry.kind, []).append(len(entries))
        entries.append(entry)

    for n, m in ((24, 24), (16, 16), (24, 16)):
        for _ in range(3):
            add(_matvec(rng.standard_normal((n, m)), rng.standard_normal(m)))
    for _ in range(3):
        add(_matmul(rng.standard_normal((8, 8)), rng.standard_normal((8, 8))))
    jacobi_criteria = ConvergenceCriteria(max_iter=4)
    for _ in range(3):
        a = rng.standard_normal((12, 12))
        a += np.diag(np.abs(a).sum(axis=1) + 1.0)
        b = rng.standard_normal(12)
        add(
            Entry(
                "jacobi",
                lambda a=a, b=b: Jacobi(a, b, criteria=jacobi_criteria),
                False, 4 * 2 * a.size, (a, b),
            )
        )
    m1, m2 = rng.standard_normal((12, 16)), rng.standard_normal((10, 12))
    for _ in range(3):
        x = rng.standard_normal(16)
        add(
            Entry(
                "graph",
                lambda x=x: Graph(MatVec(m2, MatVec(m1, x))),
                True, 2 * (m1.size + m2.size), (m1, m2, x),
            )
        )
    w1, b1 = rng.standard_normal((12, 16)) * 0.4, rng.standard_normal(12) * 0.1
    w2, b2 = rng.standard_normal((8, 12)) * 0.4, rng.standard_normal(8) * 0.1
    mlp = MLP([(w1, b1), (w2, b2)])
    nn_x = [rng.standard_normal(16) for _ in range(3)]
    qmlp = mlp.quantized(nn_x)
    flops = 2 * (w1.size + w2.size)
    for x in nn_x:
        add(Entry("nn_float", lambda x=x: mlp.graph(x), True, flops,
                  (w1, b1, w2, b2, x)))
    for x in nn_x:
        add(Entry("nn_int8", lambda x=x: qmlp.graph(x), True, flops,
                  (w1, b1, w2, b2, x)))
    block = (
        ("matvec",) * 11 + ("matmul",) * 3 + ("jacobi",) * 2
        + ("graph",) * 2 + ("nn_float", "nn_int8")
    )
    items = _items(random.Random(f"soak:{seed}"), block, pools)
    return Workload("soak", seed, w, entries, items)


def kernel_mix(seed: int, w: int = 8) -> Workload:
    """Large shapes, n >> w: the paper's size-independent case.

    Kinds per block of 10: 6 mat-vec at n=512, 2 at n=1024 and 2 64x64
    mat-muls.  The n=512 and 64x64 entries are simulated for the oracle;
    the two n=1024 variants are checked against NumPy.
    """
    rng = np.random.default_rng(seed)
    entries = [
        _matvec(rng.standard_normal((512, 512)), rng.standard_normal(512),
                "matvec512"),
        _matmul(rng.standard_normal((64, 64)), rng.standard_normal((64, 64)),
                "matmul64"),
    ]
    for _ in range(2):
        entries.append(
            _matvec(rng.standard_normal((1024, 1024)),
                    rng.standard_normal(1024), "matvec1024")
        )
    pools = {"matvec512": [0], "matmul64": [1], "matvec1024": [2, 3]}
    block = ("matvec512",) * 6 + ("matvec1024",) * 2 + ("matmul64",) * 2
    items = _items(random.Random(f"kernel:{seed}"), block, pools)
    return Workload("kernel", seed, w, entries, items)


def result_values(result: Any) -> np.ndarray:
    """The output array of a ``Solution`` or ``PipelineResult``."""
    return np.asarray(result.values)


def expected_outputs(workload: Workload) -> List[np.ndarray]:
    """Per-entry expected output, computed with the ``simulate`` engine.

    Entries whose simulation would take seconds (n >= 1024) are checked
    against float64 NumPy within :data:`LARGE_RTOL` by the caller, on the
    fast path's first output; they get ``None`` here.
    """
    solver = Solver(ArraySpec(workload.w), ExecutionOptions(backend="simulate"))
    compiler = GraphCompiler(solver)
    expected = []
    for entry in workload.entries:
        if entry.kind == "matvec1024":
            expected.append(None)
        elif entry.is_graph:
            expected.append(result_values(compiler.run(entry.make())))
        else:
            expected.append(result_values(solver.solve(entry.make())))
    return expected


def numpy_check(entry: Entry, values: np.ndarray) -> bool:
    """Float64 NumPy check of a mat-vec output within LARGE_RTOL."""
    a, x = entry.operands
    bound = LARGE_RTOL * (np.abs(a) @ np.abs(x))
    return bool(np.all(np.abs(values - a @ x) <= bound))
