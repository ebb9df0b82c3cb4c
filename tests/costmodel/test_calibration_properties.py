"""Property tests for the cost-model fitting loop.

Three properties the calibration layer promises:

* **determinism** — same seed, same grid → bit-identical
  fitted parameters (the whole digest-keyed caching story depends on
  this);
* **convergence** — on synthetic ground truth generated *by* the model
  class (a known parameter vector applied to real feature rows), the
  fitter recovers the parameters within the ridge term's tolerance;
* **monotone error reduction** — the fitted model's summed squared
  *relative* error never exceeds the uncalibrated analytic model's on
  the fitting points (the analytic identity is feasible in the ridge
  objective, so this holds by construction, not luck), and the
  committed report's aggregate MARE improves too.

Collection simulates a few dozen small configs; everything here uses
the deterministic quick grid to stay in tier-1 time.
"""

from __future__ import annotations

import math

import pytest

from repro.costmodel.calibrate import (
    FEATURE_NAMES,
    CalibrationPoint,
    calibration_grid,
    collect_points,
    fit_family,
    fit_points,
    predict_time,
    sum_squared_relative_error,
)

@pytest.fixture(scope="module")
def quick_points():
    """Simulated ground truth for the seed-0 quick grid (shared)."""
    return collect_points(calibration_grid(quick=True, seed=0))


def family(points, method):
    return [p for p in points if p.config.method == method]


class TestDeterminism:
    def test_grid_is_seed_deterministic(self):
        assert calibration_grid(quick=True, seed=0) == calibration_grid(
            quick=True, seed=0
        )
        assert calibration_grid(quick=True, seed=1) != calibration_grid(
            quick=True, seed=0
        )

    def test_grid_covers_every_family_on_both_shapes(self):
        from repro.harness.experiments import KNOWN_METHODS

        for grid in (calibration_grid(), calibration_grid(quick=True)):
            for method in KNOWN_METHODS:
                shapes = {c.shape for c in grid if c.method == method}
                assert shapes == {"1f1b", "vhalf"}, (
                    f"{method} missing a shape block: {shapes}"
                )

    def test_quick_grid_keeps_fit_well_posed(self):
        grid = calibration_grid(quick=True, seed=0)
        from repro.harness.experiments import KNOWN_METHODS

        for method in KNOWN_METHODS:
            count = sum(1 for c in grid if c.method == method)
            assert count >= len(FEATURE_NAMES) + 1

    def test_fit_is_bit_identical_across_runs(self, quick_points):
        points = family(quick_points, "vocab-1")
        first = fit_family(points)
        second = fit_family(points)
        assert first == second  # exact float equality, not approx

    def test_collection_is_deterministic(self, quick_points):
        again = collect_points(calibration_grid(quick=True, seed=0))
        assert [p.simulated for p in again] == [
            p.simulated for p in quick_points
        ]
        assert [p.features for p in again] == [p.features for p in quick_points]


class TestConvergence:
    def test_recovers_known_parameters_on_conditioned_design(self):
        # A well-conditioned synthetic design matrix (seeded pseudo-
        # random feature rows) with truth generated BY the model class:
        # the solver must recover the exact parameter vector, the only
        # gap being the tiny ridge pull toward the analytic identity.
        import random

        from repro.costmodel.calibrate import (
            PhaseFeatures,
            CalibrationConfig,
        )

        rng = random.Random(7)
        truth = (1.05, 0.9, 2.0, 1.5, 0.5, 10.0, 0.01)
        assert len(truth) == len(FEATURE_NAMES)
        synthetic = []
        for i in range(40):
            features = PhaseFeatures(
                method="synthetic",
                steady=rng.uniform(0.5, 2.0),
                ramp=rng.uniform(0.05, 0.5),
                overhead=rng.uniform(0.001, 0.05),
                coll_alpha=rng.uniform(0.001, 0.1),
                coll_beta=rng.uniform(0.01, 0.3),
                p2p=rng.uniform(1e-4, 1e-2),
            )
            synthetic.append(
                CalibrationPoint(
                    config=CalibrationConfig("synthetic", 8, 65536, 2048, 8 + i),
                    features=features,
                    simulated=predict_time(truth, features.vector()),
                )
            )
        fitted = fit_family(synthetic)
        for name, got, want in zip(FEATURE_NAMES, fitted, truth):
            assert got == pytest.approx(want, rel=1e-4, abs=1e-4), name

    def test_recovers_synthetic_function_on_real_features(self, quick_points):
        # On the real (partially collinear) feature rows of one family,
        # individual minor parameters are not identifiable — but the
        # fitted *function* must still reproduce the synthetic truth on
        # the fitting points, and the dominant phase parameters are
        # pinned.
        truth = (1.05, 0.9, 2.0, 1.5, 0.5, 10.0, 0.01)
        synthetic = [
            CalibrationPoint(
                config=p.config,
                features=p.features,
                simulated=predict_time(truth, p.features.vector()),
            )
            for p in family(quick_points, "vocab-2")
        ]
        fitted = fit_family(synthetic)
        for point in synthetic:
            predicted = predict_time(fitted, point.features.vector())
            assert predicted == pytest.approx(point.simulated, rel=1e-3)
        assert fitted[0] == pytest.approx(truth[0], rel=1e-2)  # steady
        assert fitted[1] == pytest.approx(truth[1], rel=1e-2)  # ramp

    def test_singular_grid_is_reported_not_garbage(self, quick_points):
        # One repeated point cannot pin 7 parameters even with ridge
        # regularization disabled.
        points = family(quick_points, "baseline")[:1] * 3
        with pytest.raises(ValueError, match="singular"):
            fit_family(points, ridge=0.0)


class TestMonotoneImprovement:
    def test_fit_never_worse_than_analytic_on_fitting_points(self, quick_points):
        from repro.harness.experiments import KNOWN_METHODS

        for method in KNOWN_METHODS:
            points = family(quick_points, method)
            params = fit_family(points)
            assert sum_squared_relative_error(
                points, params
            ) <= sum_squared_relative_error(points, None), method

    def test_report_aggregate_error_improves(self, quick_points):
        profile = fit_points(
            quick_points, name="t", grid="quick", seed=0
        )
        report = profile.report
        assert report.mean_abs_rel_error < report.baseline_mean_abs_rel_error
        for row in report.families:
            assert row.mean_abs_rel_error <= row.baseline_mean_abs_rel_error * 1.5


class TestPredict:
    def test_predict_time_is_fsum_of_products(self):
        params = (1.0, 2.0, 3.0)
        vector = (0.5, 0.25, 0.125)
        assert predict_time(params, vector) == math.fsum(
            p * x for p, x in zip(params, vector)
        )
