"""Cross-API equivalence: every typed problem == its string-kind call.

The redesign's compatibility contract: for every kind with a typed
problem class, solving the typed object must be **bit-identical** to the
legacy string-kind call — same values, same plan key, same cache
behaviour — across a grid of problem shapes, array sizes and execution
backends.  Both spellings go through ``Solver.derive`` and must land on
the same compiled plan, constructor overrides (``overlapped=``,
``omega=``, ``tolerance=``, ``criteria=``) spelled as keywords of the
string call included.  Every door that takes a string call —
``Solver.plan_key`` with operands or with ``shape=``, ``Solver.derive``
and ``SolverService.plan_key`` — takes the same keywords and gives the
same key.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import ArraySpec, ExecutionOptions, Solver
from repro.service import SolverService
from repro.graph import (
    CG,
    LU,
    Jacobi,
    MatMul,
    MatVec,
    Power,
    Refine,
    SOR,
    Sparse,
    Triangular,
    problem_types,
)
from repro.iterative import ConvergenceCriteria

BACKENDS = ("simulate", "vectorized")
CRITERIA = ConvergenceCriteria(atol=1e-12, max_iter=8)


def _spd(rng, n: int) -> np.ndarray:
    a = rng.normal(size=(n, n))
    matrix = (a + a.T) / 2.0
    return matrix + (np.abs(matrix).sum(axis=1).max() + 1.0) * np.eye(n)


def _pair(w: int, backend: str):
    """Two fresh solvers (typed / string) with identical configuration."""
    options = ExecutionOptions(backend=backend, criteria=CRITERIA)
    return Solver(ArraySpec(w), options=options), Solver(
        ArraySpec(w), options=options
    )


def _values_equal(lhs, rhs) -> bool:
    if isinstance(lhs, tuple):
        return all(
            np.array_equal(left, right) for left, right in zip(lhs, rhs)
        )
    return np.array_equal(lhs, rhs)


def _assert_equivalent(typed_solver, string_solver, problem, kind, *operands, **kwargs):
    typed = typed_solver.solve(problem)
    legacy = string_solver.solve(kind, *operands, **kwargs)
    assert typed.kind == legacy.kind == kind
    assert _values_equal(typed.values, legacy.values)
    assert typed.measured_steps == legacy.measured_steps
    assert typed.plan_key == legacy.plan_key
    # Warm re-solves hit the cache identically on both paths.
    again = typed_solver.solve(problem)
    assert again.from_cache
    assert _values_equal(again.values, typed.values)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("w", (3, 4))
class TestTypedStringEquivalence:
    @pytest.mark.parametrize("shape", ((6, 9), (7, 5), (8, 8)))
    def test_matvec(self, rng, w, backend, shape):
        typed_solver, string_solver = _pair(w, backend)
        matrix = rng.normal(size=shape)
        x = rng.normal(size=shape[1])
        b = rng.normal(size=shape[0])
        _assert_equivalent(
            typed_solver, string_solver, MatVec(matrix, x, b),
            "matvec", matrix, x, b,
        )

    @pytest.mark.parametrize("shape", ((4, 5, 7), (6, 6, 6)))
    def test_matmul(self, rng, w, backend, shape):
        typed_solver, string_solver = _pair(w, backend)
        n, p, m = shape
        a = rng.normal(size=(n, p))
        b = rng.normal(size=(p, m))
        e = rng.normal(size=(n, m))
        _assert_equivalent(
            typed_solver, string_solver, MatMul(a, b, e), "matmul", a, b, e
        )

    @pytest.mark.parametrize("n", (6, 9))
    @pytest.mark.parametrize("lower", (True, False))
    def test_triangular(self, rng, w, backend, n, lower):
        typed_solver, string_solver = _pair(w, backend)
        factor = np.tril(rng.normal(size=(n, n))) + n * np.eye(n)
        matrix = factor if lower else factor.T
        b = rng.normal(size=n)
        _assert_equivalent(
            typed_solver, string_solver, Triangular(matrix, b, lower=lower),
            "triangular", matrix, b, lower=lower,
        )

    @pytest.mark.parametrize("n", (6, 9))
    def test_lu(self, rng, w, backend, n):
        typed_solver, string_solver = _pair(w, backend)
        matrix = _spd(rng, n)
        _assert_equivalent(typed_solver, string_solver, LU(matrix), "lu", matrix)

    @pytest.mark.parametrize("n", (6, 8))
    def test_jacobi(self, rng, w, backend, n):
        typed_solver, string_solver = _pair(w, backend)
        matrix, b = _spd(rng, n), rng.normal(size=n)
        _assert_equivalent(
            typed_solver, string_solver, Jacobi(matrix, b), "jacobi", matrix, b
        )

    @pytest.mark.parametrize("n", (6, 8))
    def test_sor_with_omega_override(self, rng, w, backend, n):
        typed_solver, string_solver = _pair(w, backend)
        matrix, b = _spd(rng, n), rng.normal(size=n)
        typed = typed_solver.solve(SOR(matrix, b, omega=1.4))
        legacy = string_solver.solve(
            "sor", matrix, b,
            options=ExecutionOptions(
                backend=backend, criteria=CRITERIA, omega=1.4
            ),
        )
        assert np.array_equal(typed.values, legacy.values)
        assert typed.plan_key == legacy.plan_key

    @pytest.mark.parametrize("n", (6, 8))
    def test_cg(self, rng, w, backend, n):
        typed_solver, string_solver = _pair(w, backend)
        matrix, b = _spd(rng, n), rng.normal(size=n)
        _assert_equivalent(
            typed_solver, string_solver, CG(matrix, b), "cg", matrix, b
        )

    @pytest.mark.parametrize("n", (6, 8))
    def test_refine(self, rng, w, backend, n):
        typed_solver, string_solver = _pair(w, backend)
        matrix, b = _spd(rng, n), rng.normal(size=n)
        _assert_equivalent(
            typed_solver, string_solver, Refine(matrix, b), "refine", matrix, b
        )

    @pytest.mark.parametrize("n", (6, 8))
    def test_power_with_start_vector(self, rng, w, backend, n):
        typed_solver, string_solver = _pair(w, backend)
        matrix = _spd(rng, n)
        x0 = rng.normal(size=n)
        _assert_equivalent(
            typed_solver, string_solver, Power(matrix, x0),
            "power", matrix, x0=x0,
        )

    @pytest.mark.parametrize("n", (8, 12))
    def test_sparse_with_tolerance_override(self, rng, w, backend, n):
        typed_solver, string_solver = _pair(w, backend)
        matrix = rng.normal(size=(n, n))
        matrix[: n // 2, : n // 2] = 0.0
        x = rng.normal(size=n)
        typed = typed_solver.solve(Sparse(matrix, x, tolerance=1e-9))
        legacy = string_solver.solve(
            "sparse", matrix, x,
            options=ExecutionOptions(
                backend=backend, criteria=CRITERIA, tolerance=1e-9
            ),
        )
        assert np.array_equal(typed.values, legacy.values)
        assert typed.plan_key == legacy.plan_key

    @pytest.mark.parametrize(
        "problem_type, overrides",
        [
            (MatVec, {"overlapped": True}),
            (SOR, {"omega": 1.4}),
            (Sparse, {"tolerance": 1e-9}),
            (Jacobi, {"criteria": ConvergenceCriteria(atol=1e-9, max_iter=6)}),
        ],
        ids=["overlapped", "omega", "tolerance", "criteria"],
    )
    @pytest.mark.parametrize("n", (6, 8))
    def test_override_spellings(self, rng, w, backend, n, problem_type, overrides):
        typed_solver, string_solver = _pair(w, backend)
        matrix, vector = _spd(rng, n), rng.normal(size=n)
        if problem_type is Sparse:
            matrix[: n // 2, : n // 2] = 0.0
        problem = problem_type(matrix, vector, **overrides)
        assert problem.resolved_options(typed_solver.options) != typed_solver.options
        _assert_equivalent(
            typed_solver, string_solver, problem,
            problem_type.kind, matrix, vector, **overrides,
        )


def _string_call(kind: str, a: np.ndarray, v: np.ndarray):
    """``kind``'s string-call operands from a square ``a`` and a vector
    ``v``, with the ``shape=`` spec a plan of those operands takes."""
    n = len(v)
    if kind in ("matmul", "naive_matmul"):
        return (a, a), (n, n, n)
    if kind in ("lu", "power"):
        return (a,), n
    if kind == "relu":
        return (v,), n
    if kind == "bias":
        return (v, v), n
    if kind in ("quantize", "dequantize"):
        return (v, 0.5), n
    if kind in ("matvec", "sparse", "dense", "prt", "naive_matvec", "block_partitioned"):
        return (a, v), (n, n)
    return (a, v), n  # triangular and the A x = b kinds


#: Every typed kind bare, then each keyword spelling of
#: ``test_override_spellings`` and one per remaining option keyword.
_SPELLINGS = [(kind, {}) for kind in problem_types()] + [
    ("matvec", {"overlapped": True}),
    ("sor", {"omega": 1.4}),
    ("sparse", {"tolerance": 1e-9}),
    ("jacobi", {"criteria": ConvergenceCriteria(atol=1e-9, max_iter=6)}),
    ("gauss_seidel", {"criteria": ConvergenceCriteria(atol=1e-9, max_iter=6)}),
    ("dense", {"dtype_mode": "int8"}),
]


class TestOneVocabulary:
    @pytest.fixture(scope="class")
    def service(self):
        with SolverService(ArraySpec(4), n_shards=1) as service:
            yield service

    @pytest.mark.parametrize(
        "kind, keywords",
        _SPELLINGS,
        ids=[f"{kind}-{'-'.join(keywords) or 'bare'}" for kind, keywords in _SPELLINGS],
    )
    def test_every_door_gives_one_key(self, rng, service, kind, keywords):
        operands, shape = _string_call(kind, _spd(rng, 6), rng.normal(size=6))
        solver = Solver(ArraySpec(4))
        key = solver.plan_key(kind, *operands, **keywords)
        assert key == solver.derive(kind, *operands, **keywords)[0]
        assert key == service.plan_key(kind, *operands, **keywords)
        assert key == solver.plan_key(kind, shape=shape, **keywords)
        assert key == service.plan_key(kind, shape=shape, **keywords)

    def test_shape_form_refuses_a_field_that_is_no_keyword(self):
        solver = Solver(ArraySpec(4))
        with pytest.raises(TypeError, match="unexpected keyword argument 'record_trace'"):
            solver.plan_key("matvec", shape=(6, 6), record_trace=True)
        with pytest.raises(TypeError, match="unexpected keyword argument 'omega'"):
            solver.plan("gauss_seidel", shape=6, omega=1.5)

    def test_operands_and_shape_together_raise_at_both_doors(self, service):
        a, x = np.ones((6, 5)), np.ones(5)
        solver = Solver(ArraySpec(4))
        for door in (solver, service):
            with pytest.raises(TypeError, match="not both"):
                door.plan_key("matvec", a, x, shape=(2, 2))
            with pytest.raises(TypeError, match="carry their own operands"):
                door.plan_key(MatVec(a, x), shape=(6, 5))
            assert door.plan_key("matvec", a, x)[1] == (6, 5)
