"""Tests of the public package surface and the exception hierarchy."""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro import errors


class TestExceptionHierarchy:
    def test_all_errors_derive_from_repro_error(self):
        for name in (
            "ShapeError",
            "BandwidthError",
            "ArraySizeError",
            "TransformError",
            "ScheduleError",
            "FeedbackError",
            "SimulationError",
            "RecoveryError",
        ):
            exc = getattr(errors, name)
            assert issubclass(exc, errors.ReproError)

    def test_value_error_compatibility(self):
        # Shape-ish configuration errors double as ValueError so that callers
        # using plain numpy idioms can catch them without importing repro.
        assert issubclass(errors.ShapeError, ValueError)
        assert issubclass(errors.BandwidthError, ValueError)
        assert issubclass(errors.ArraySizeError, ValueError)

    def test_feedback_error_is_a_schedule_error(self):
        assert issubclass(errors.FeedbackError, errors.ScheduleError)

    def test_single_except_clause_catches_everything(self):
        with pytest.raises(errors.ReproError):
            repro.BandMatrix(3, 3, lower=0, upper=0).set(2, 0, 1.0)


class TestPublicAPI:
    def test_version_is_exposed(self):
        assert repro.__version__ == "1.1.0"

    def test_version_matches_package_metadata(self):
        import pathlib
        import re

        pyproject = pathlib.Path(__file__).parent.parent / "pyproject.toml"
        declared = re.search(
            r'^version\s*=\s*"([^"]+)"', pyproject.read_text(), re.MULTILINE
        )
        assert declared is not None
        assert repro.__version__ == declared.group(1)

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_quickstart_from_module_docstring(self):
        rng = np.random.default_rng(0)
        matrix = rng.normal(size=(10, 7))
        x = np.random.default_rng(1).normal(size=7)
        solution = repro.Solver(repro.ArraySpec(w=4)).solve(repro.MatVec(matrix, x))
        assert np.allclose(solution.values, matrix @ x)

    def test_top_level_classes_are_the_same_objects(self):
        from repro.core.matvec import MatVecSolution as Inner

        assert repro.MatVecSolution is Inner
