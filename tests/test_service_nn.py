"""Quantized MLP inference through the serving layer.

Acceptance (ISSUE 6): multi-client int8 MLP graphs served through 4
shards are bit-identical to a single-threaded ``GraphCompiler`` run, the
whole forward pass rides one compiled pipeline per submission (warm after
the home shard's first build), and the fleet snapshot carries the new
graph metadata (depth and per-kind stage counts).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import ArraySpec, Solver
from repro.graph import GraphCompiler
from repro.nn import MLP
from repro.service import SolverService

W = 4
SIZES = (6, 8, 5, 3)  # 3 layers -> 14-node quantized graphs
N_CLIENT_INPUTS = 6


@pytest.fixture
def deployment(rng):
    """A calibrated 3-layer QuantizedMLP plus a batch of client inputs."""
    layers = [
        (
            rng.normal(size=(fan_out, fan_in)) / np.sqrt(fan_in),
            rng.normal(size=fan_out) * 0.1,
        )
        for fan_in, fan_out in zip(SIZES, SIZES[1:])
    ]
    mlp = MLP(layers)
    calibration = [rng.normal(size=SIZES[0]) for _ in range(8)]
    inputs = [rng.normal(size=SIZES[0]) for _ in range(N_CLIENT_INPUTS)]
    return mlp.quantized(calibration), inputs


class TestServiceNN:
    def test_sharded_inference_bit_identical_to_direct(self, deployment):
        qmlp, inputs = deployment
        reference = GraphCompiler(Solver(ArraySpec(W)))
        expected = [reference.run(qmlp.graph(x)).output("logits") for x in inputs]
        with SolverService(ArraySpec(W), n_shards=4) as service:
            futures = [service.submit_graph(qmlp.graph(x)) for x in inputs]
            results = [future.result(timeout=30) for future in futures]
        for result, logits in zip(results, expected):
            assert np.array_equal(result.output("logits"), logits)

    def test_resubmission_is_warm_on_home_shard(self, deployment):
        qmlp, inputs = deployment
        x = inputs[0]
        with SolverService(ArraySpec(W), n_shards=4) as service:
            cold = service.solve_graph(qmlp.graph(x))
            assert not cold.warm
            # Same shapes, fresh values: routed to the same home shard,
            # every stage plan is already resident.
            warm_results = [
                service.solve_graph(qmlp.graph(x2)) for x2 in inputs[1:]
            ]
        for warm in warm_results:
            assert warm.warm
            assert warm.plan_builds == 0 and warm.compile_plan_builds == 0

    def test_stats_carry_graph_depth_and_stage_kinds(self, deployment):
        qmlp, inputs = deployment
        n_graphs = len(inputs)
        with SolverService(ArraySpec(W), n_shards=4) as service:
            for x in inputs:
                service.solve_graph(qmlp.graph(x))
            stats = service.stats()
        assert stats.graphs == n_graphs
        # The 14-node graph runs as the fused program: the input quantize
        # plus one fused dense->...->quantize chain per layer.
        assert stats.graph_stages == 4 * n_graphs
        # The quantized MLP graph is a pure chain: depth == stage count.
        assert stats.graph_levels == 4 * n_graphs
        assert stats.graph_stages_by_kind == {
            "quantize": n_graphs,
            "fused": 3 * n_graphs,
        }
        assert "stage kinds:" in stats.describe()

    @pytest.mark.parametrize(
        "n_shards", [1, 4], ids=["one_shard", "pipelined"]
    )
    def test_graph_fused_counts_fused_epilogues(self, rng, n_shards):
        """The fleet's fused-stage count is the direct result's, epilogue
        groups included, on one shard and across shards."""
        mlp = MLP([
            (rng.normal(size=(6, 5)), rng.normal(size=6)),
            (rng.normal(size=(3, 6)), rng.normal(size=3)),
        ])
        graph = mlp.graph(rng.normal(size=5))
        direct = GraphCompiler(Solver(ArraySpec(W))).run(graph)
        fused = (
            direct.fused_pairs + direct.fused_rewrites + direct.fused_epilogues
        )
        assert direct.fused_epilogues == 2  # dense -> bias (-> relu) per layer
        with SolverService(ArraySpec(W), n_shards=n_shards) as service:
            result = service.submit_graph(graph).result(timeout=30)
            stats = service.stats()
        # Every served graph runs as placed segments.
        assert stats.segments > 0
        assert result.fused_epilogues == direct.fused_epilogues
        assert stats.graph_fused == fused
        assert (
            f"1 graph(s), {len(direct.solutions)} stage(s), {fused} fused"
            in stats.describe()
        )

    def test_mixed_precision_clients_do_not_collide(self, deployment, rng):
        """Float and int8 graphs of the same network coexist in one fleet."""
        qmlp, inputs = deployment
        mlp = qmlp.mlp
        x = inputs[0]
        with SolverService(ArraySpec(W), n_shards=4) as service:
            int8_logits = service.solve_graph(qmlp.graph(x)).output("logits")
            float_logits = service.solve_graph(mlp.graph(x)).output("logits")
        reference = GraphCompiler(Solver(ArraySpec(W)))
        assert np.array_equal(
            int8_logits, reference.run(qmlp.graph(x)).output("logits")
        )
        assert np.array_equal(
            float_logits, reference.run(mlp.graph(x)).output("logits")
        )
        bounds = qmlp.error_bounds(x)["logits"]
        assert np.all(np.abs(int8_logits - float_logits) <= bounds + 1e-9)
