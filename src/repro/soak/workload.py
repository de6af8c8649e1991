"""Deterministic seeded workload generation for the soak harness.

A :class:`SoakWorkload` turns one seed into one reproducible stream of
mixed serving traffic: plain matvec (the bread-and-butter kind, in
several shapes so requests spread across shards), matmul, iterative
jacobi sweeps, two-stage matvec pipeline graphs (served as placed
segments, across shards where the placement splits them) and neural-network
forward passes (a float MLP graph and its int8-quantized twin).  Every
request carries a priority class and a client id drawn from fixed
client pools — ``interactive-*`` submit high, ``standard-*`` normal,
``batch-*`` low — so the stream exercises the QoS admission machinery
end to end.

Operand *values* come from small pre-built pools (a handful of variants
per shape), so a million-request stream costs a million lightweight
:class:`WorkItem` descriptors, not a million fresh arrays — and, more
importantly, the set of plan keys is closed and known up front:
:meth:`SoakWorkload.warmup_items` yields one item per distinct plan
signature, so a harness that replays them once has compiled (or
warm-started) every plan the stream will ever need.  Zero plan builds
after warm-up is then a hard assertion, not a hope.

Per-client streams are split by seeding each client's RNG with
``(seed, client index)`` — any client's stream is reproducible in
isolation, independent of thread interleaving.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..api.config import ExecutionOptions
from ..iterative.criteria import ConvergenceCriteria
from ..nn.mlp import MLP
from ..service.qos import PRIORITY_HIGH, PRIORITY_LOW, PRIORITY_NORMAL

__all__ = ["SoakWorkload", "WorkItem"]

#: Priority class name → (level, traffic share).  Shares sum to 1.
CLASS_MIX: Sequence[Tuple[str, int, float]] = (
    ("high", PRIORITY_HIGH, 0.2),
    ("normal", PRIORITY_NORMAL, 0.5),
    ("low", PRIORITY_LOW, 0.3),
)

#: Request kind → traffic share within a client's stream.
KIND_MIX: Sequence[Tuple[str, float]] = (
    ("matvec", 0.55),
    ("matmul", 0.15),
    ("jacobi", 0.10),
    ("graph", 0.10),
    ("nn", 0.10),
)

#: Client-id prefixes per class (matches the CLASS_MIX order).
CLASS_CLIENT_PREFIX: Dict[str, str] = {
    "high": "interactive",
    "normal": "standard",
    "low": "batch",
}

#: Value variants per operand pool entry (shapes stay fixed; only
#: values rotate, so variants share plan keys).
_VARIANTS = 3


@dataclass(frozen=True)
class WorkItem:
    """One request of the soak stream, ready to submit.

    ``graph`` is set for pipeline/NN traffic (submitted via
    ``submit_graph``); otherwise ``kind``/``operands``/``kwargs`` feed
    ``submit``.  ``class_name`` is the priority class label the harness
    reports under.
    """

    kind: str
    priority: int
    class_name: str
    client_id: str
    operands: Tuple[Any, ...] = ()
    kwargs: Dict[str, Any] = field(default_factory=dict)
    options: Optional[ExecutionOptions] = None
    graph: Any = None


class SoakWorkload:
    """One seed, one reproducible mixed-traffic request stream.

    Parameters
    ----------
    seed:
        Master seed; operand pools and every client stream derive from
        it deterministically.
    w:
        The target array size (only used to scale nothing today — plan
        keys incorporate it through the service's spec; kept explicit so
        a workload is self-describing).
    clients_per_class:
        How many distinct client ids each priority class gets.
    """

    def __init__(self, seed: int = 20260808, w: int = 4, clients_per_class: int = 2):
        if clients_per_class < 1:
            raise ValueError(
                f"clients_per_class must be >= 1, got {clients_per_class}"
            )
        self.seed = int(seed)
        self.w = int(w)
        self.clients_per_class = int(clients_per_class)
        rng = np.random.default_rng(self.seed)
        # -- operand pools (fixed shapes, a few value variants each) ---------
        self._matvec: List[Tuple[np.ndarray, np.ndarray]] = []
        for n, m in ((24, 24), (16, 16), (24, 16)):
            for _ in range(_VARIANTS):
                self._matvec.append(
                    (rng.standard_normal((n, m)), rng.standard_normal(m))
                )
        self._matmul: List[Tuple[np.ndarray, np.ndarray]] = [
            (rng.standard_normal((8, 8)), rng.standard_normal((8, 8)))
            for _ in range(_VARIANTS)
        ]
        # Diagonally dominant systems so jacobi contracts; the fixed
        # iteration budget keeps per-request cost flat and the criteria
        # (part of the options, hence of the plan key) identical across
        # the stream.
        self._jacobi: List[Tuple[np.ndarray, np.ndarray]] = []
        for _ in range(_VARIANTS):
            a = rng.standard_normal((12, 12))
            a += np.diag(np.abs(a).sum(axis=1) + 1.0)
            self._jacobi.append((a, rng.standard_normal(12)))
        self._jacobi_options = ExecutionOptions(
            criteria=ConvergenceCriteria(max_iter=4)
        )
        # Two-stage matvec chains — multi-level, so a multi-shard
        # service pipelines them across shards.
        self._graph_mats = (
            rng.standard_normal((12, 16)),
            rng.standard_normal((10, 12)),
        )
        self._graph_x: List[np.ndarray] = [
            rng.standard_normal(16) for _ in range(_VARIANTS)
        ]
        # One small MLP, used both float and int8-quantized; inputs
        # rotate, weights (and the quantization calibration) are fixed.
        w1 = rng.standard_normal((12, 16)) * 0.4
        b1 = rng.standard_normal(12) * 0.1
        w2 = rng.standard_normal((8, 12)) * 0.4
        b2 = rng.standard_normal(8) * 0.1
        self._mlp = MLP([(w1, b1), (w2, b2)])
        self._nn_x: List[np.ndarray] = [
            rng.standard_normal(16) for _ in range(_VARIANTS)
        ]
        self._qmlp = self._mlp.quantized(self._nn_x)

    # -- the client roster --------------------------------------------------------
    def clients(self) -> List[Tuple[str, int, str]]:
        """Every (client_id, priority level, class name), class-major.

        The harness runs one submitting thread per entry; traffic shares
        between classes come from :meth:`request_counts`, which sizes
        each client's stream by its class's ``CLASS_MIX`` share — the
        realized mix is exact, not sampled.
        """
        roster: List[Tuple[str, int, str]] = []
        for name, level, _share in CLASS_MIX:
            prefix = CLASS_CLIENT_PREFIX[name]
            for index in range(self.clients_per_class):
                roster.append((f"{prefix}-{index}", level, name))
        return roster

    def request_counts(self, total: int) -> List[int]:
        """Per-client stream lengths realizing the class traffic mix.

        Aligned with :meth:`clients`; class totals are ``share * total``
        (largest-remainder rounding, so the counts sum to ``total``
        exactly), split evenly across the class's clients with
        remainders going to its earliest clients.
        """
        shares = [(name, share) for name, _level, share in CLASS_MIX]
        floors = [int(share * total) for _name, share in shares]
        remainders = sorted(
            range(len(shares)),
            key=lambda i: shares[i][1] * total - floors[i],
            reverse=True,
        )
        for i in remainders[: total - sum(floors)]:
            floors[i] += 1
        counts: List[int] = []
        for class_total in floors:
            per, extra = divmod(class_total, self.clients_per_class)
            counts.extend(
                per + (1 if index < extra else 0)
                for index in range(self.clients_per_class)
            )
        return counts

    # -- item construction --------------------------------------------------------
    def _item(
        self, kind: str, variant: int, client_id: str, level: int, name: str
    ) -> WorkItem:
        if kind == "matvec":
            a, x = self._matvec[variant % len(self._matvec)]
            return WorkItem(
                kind="matvec", operands=(a, x),
                priority=level, class_name=name, client_id=client_id,
            )
        if kind == "matmul":
            a, b = self._matmul[variant % len(self._matmul)]
            return WorkItem(
                kind="matmul", operands=(a, b),
                priority=level, class_name=name, client_id=client_id,
            )
        if kind == "jacobi":
            a, b = self._jacobi[variant % len(self._jacobi)]
            return WorkItem(
                kind="jacobi", operands=(a, b),
                options=self._jacobi_options,
                priority=level, class_name=name, client_id=client_id,
            )
        if kind == "graph":
            from ..graph import MatVec

            m1, m2 = self._graph_mats
            x = self._graph_x[variant % len(self._graph_x)]
            return WorkItem(
                kind="graph", graph=MatVec(m2, MatVec(m1, x)),
                priority=level, class_name=name, client_id=client_id,
            )
        if kind == "nn":
            x = self._nn_x[variant % len(self._nn_x)]
            # Alternate float and int8 forward passes.
            model = self._mlp if variant % 2 == 0 else self._qmlp
            return WorkItem(
                kind="nn", graph=model.graph(x),
                priority=level, class_name=name, client_id=client_id,
            )
        raise ValueError(f"unknown workload kind {kind!r}")

    def warmup_items(self) -> List[WorkItem]:
        """One item per distinct plan signature in the stream.

        Replaying these once compiles (or finds warm) every plan any
        stream item will ever resolve — afterwards the stream runs with
        zero plan builds.  All warmup items ride an anonymous high
        class, exempt from rate limits and last to shed.
        """
        items: List[WorkItem] = []
        for kind, _share in KIND_MIX:
            # Every variant: value variants share keys (cheap cache
            # hits), but the nn kind alternates two distinct graphs and
            # matvec rotates three shapes — covering all variants covers
            # every signature without kind-specific knowledge here.
            pool = {
                "matvec": len(self._matvec),
                "matmul": len(self._matmul),
                "jacobi": len(self._jacobi),
                "graph": len(self._graph_x),
                "nn": 2 * len(self._nn_x),
            }[kind]
            for variant in range(pool):
                items.append(
                    self._item(kind, variant, "warmup", PRIORITY_HIGH, "high")
                )
        return items

    def stream(self, client_index: int, count: int) -> Iterator[WorkItem]:
        """``count`` items of one client's deterministic stream.

        ``client_index`` indexes :meth:`clients`.  Each stream is seeded
        by ``(seed, client_index)``, so it reproduces independently of
        how other clients' threads interleave.
        """
        roster = self.clients()
        client_id, level, name = roster[client_index % len(roster)]
        rng = random.Random(f"{self.seed}:{client_index}")
        kinds = [kind for kind, _share in KIND_MIX]
        weights = [share for _kind, share in KIND_MIX]
        for _ in range(count):
            kind = rng.choices(kinds, weights)[0]
            variant = rng.randrange(1 << 16)
            yield self._item(kind, variant, client_id, level, name)
