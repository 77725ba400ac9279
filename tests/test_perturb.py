"""Monotone scale perturbations."""

import numpy as np
import pytest

from scalefree.errors import EmptyDataset, NonFiniteResult, NonFiniteValue
from scalefree.perturb import PERTURBATION_KINDS, PerturbationSpec, perturb_matrix
from scalefree.transforms import _unit

from conftest import fit_column, perturb_column


def rescale_unit(values) -> np.ndarray:
    """The unit rescale `perturb_matrix` applies, of one column."""
    col = np.asarray(values, dtype=np.float64)[:, None]
    return _unit(col, col.min(axis=0), col.max(axis=0))[:, 0]


class TestRescaleUnit:
    def test_affine_mapping(self):
        assert np.array_equal(rescale_unit([2.0, 10.0, 6.0]), [0.0, 1.0, 0.5])

    def test_constant_column_to_zeros(self):
        assert np.array_equal(rescale_unit([5.0, 5.0]), [0.0, 0.0])

    def test_identity_on_unit_range(self):
        assert np.array_equal(rescale_unit([0.0, 1.0]), [0.0, 1.0])

    def test_empty(self):
        with pytest.raises(EmptyDataset):
            perturb_column([], PerturbationSpec("identity"))

    def test_bare_scalar(self):
        with pytest.raises(ValueError, match="2-D feature matrix"):
            perturb_column(5.0, PerturbationSpec("identity"))


class TestShiftScale:
    """The identity perturbation is the shift-scale of the unit values."""

    def test_default_constants(self):
        out = perturb_column([0.0, 1.0, 0.5], PerturbationSpec("identity"))
        assert out[0] == pytest.approx(0.01, rel=1e-12)
        assert out[1] == pytest.approx(100.01, rel=1e-12)
        assert out[2] == pytest.approx(50.01, rel=1e-12)

    def test_strictly_positive_on_unit_interval(self):
        spec = PerturbationSpec("identity")
        assert np.all(perturb_column(np.linspace(0, 1, 101), spec) > 0)


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            PerturbationSpec("cube")

    @pytest.mark.parametrize("bad", [{"shift": 0.0}, {"shift": -1.0}, {"scale": 0.0}, {"scale": -2.0}])
    def test_nonpositive_constants(self, bad):
        with pytest.raises(ValueError):
            PerturbationSpec("log", **bad)

    @pytest.mark.parametrize("bad", [{"shift": np.inf}, {"scale": np.inf}])
    def test_non_finite_constants(self, bad):
        with pytest.raises(ValueError, match="must be finite and > 0, got inf"):
            PerturbationSpec("inverse", **bad)


class TestApplyPerturbation:
    def test_inverse_of_small_value(self):
        # column min maps to x' = 0.01, whose inverse is 100
        out = perturb_column([0.0, 1.0], PerturbationSpec("inverse"))
        assert out[0] == pytest.approx(100.0, rel=1e-9)

    def test_log_recovers_unit_at_e(self):
        u_e = np.e / 100.0 - 0.0001  # the unit value whose shift-scale image is e
        out = perturb_column([0.0, u_e, 1.0], PerturbationSpec("log"))
        assert out[1] == pytest.approx(1.0, rel=1e-12)

    def test_square_distorts_gaps(self):
        # equally spaced inputs stop being equally spaced after squaring
        x, y, z = 1.0, 2.0, 3.0
        assert (y - x) == (z - y)
        out = perturb_column([x, y, z], PerturbationSpec("square"))
        assert (out[1] - out[0]) < (out[2] - out[1])

    @pytest.mark.parametrize("kind", ["identity", "log", "square", "sqrt"])
    def test_increasing_kinds_preserve_order(self, kind):
        rng = np.random.default_rng(31)
        col = rng.uniform(-50, 50, size=400)
        col = np.unique(col)  # strictly increasing input
        out = perturb_column(col, PerturbationSpec(kind))
        assert np.all(np.diff(out) > 0)

    def test_inverse_reverses_order(self):
        rng = np.random.default_rng(32)
        col = np.unique(rng.uniform(-50, 50, size=400))
        out = perturb_column(col, PerturbationSpec("inverse"))
        assert np.all(np.diff(out) < 0)

    @pytest.mark.parametrize("kind", PERTURBATION_KINDS)
    def test_outputs_finite(self, kind):
        rng = np.random.default_rng(33)
        col = rng.normal(scale=1e6, size=300)
        out = perturb_column(col, PerturbationSpec(kind))
        assert np.isfinite(out).all()

    def test_overflowing_scale_raises(self):
        with pytest.raises(NonFiniteResult):
            with np.errstate(over="ignore"):
                perturb_column([0.0, 1.0], PerturbationSpec("square", scale=1e200))

    @pytest.mark.parametrize("kind", PERTURBATION_KINDS)
    def test_constant_column_stays_constant(self, kind):
        out = perturb_column([4.0, 4.0, 4.0], PerturbationSpec(kind))
        assert np.all(out == out[0])
        assert np.isfinite(out).all()


class TestPerturbMatrix:
    def test_columnwise_application(self):
        rng = np.random.default_rng(34)
        x = rng.normal(size=(40, 3))
        spec = PerturbationSpec("sqrt")
        out = perturb_matrix(x, spec)
        for c in range(3):
            assert np.array_equal(out[:, c], perturb_column(x[:, c], spec))

    @pytest.mark.parametrize("kind", ["identity", "log", "sqrt"])
    def test_matrix_perturbs_each_column_as_alone(self, kind):
        """Each column decides its own overflow fallback. A shift of 5e-324
        keeps the third column's unit value 5e-324 apart from 0.0, which
        halving the whole matrix for its first column would make it."""
        x = np.array([
            [-1e308, 3.0, 0.0],
            [1e308, 3.0, 5e-324],
            [5e307, 3.0, 1.0],
            [0.0, 3.0, 0.25],
        ])  # fmt: skip
        spec = PerturbationSpec(kind, shift=5e-324, scale=1.0)
        out = perturb_matrix(x, spec)
        alone = np.column_stack([perturb_column(col, spec) for col in x.T])
        assert out.tobytes() == alone.tobytes()
        if kind == "identity":
            assert out[:, 2].tolist() == [5e-324, 1e-323, 1.0, 0.25]

    def test_range_beyond_float_max(self):
        """A finite column whose range overflows float64 still unit-scales."""
        spec = PerturbationSpec("identity")
        out = perturb_matrix([[-1e308], [0.0], [1e308]], spec)
        assert out[:, 0].tolist() == (spec.scale * (np.array([0.0, 0.5, 1.0]) + spec.shift)).tolist()

    def test_checks_the_matrix_once_with_the_column_errors(self):
        """One check of the input and one of the output raise what the
        per-column path raises."""
        spec = PerturbationSpec("log")
        with pytest.raises(NonFiniteValue, match="^column contains NaN or infinite values$"):
            perturb_matrix([[1.0, 2.0], [3.0, np.nan]], spec)
        with pytest.raises(EmptyDataset, match=r"^cannot perturb a feature matrix of shape \(0, 2\)"):
            perturb_matrix(np.zeros((0, 2)), spec)
        with pytest.raises(EmptyDataset, match=r"^cannot perturb a feature matrix of shape \(0, 0\)"):
            perturb_matrix(np.zeros((0, 0)), spec)
        with pytest.raises(NonFiniteResult, match="^perturbation 'square' produced non-finite values$"):
            with np.errstate(over="ignore"):
                perturb_matrix([[0.0, 0.0], [1.0, 1.0]], PerturbationSpec("square", scale=1e200))

    @pytest.mark.parametrize("kind", PERTURBATION_KINDS)
    @pytest.mark.parametrize("shift, scale", [(10.0, 1e308), (1e308, 10.0)])
    def test_shift_scale_overflow_raises_before_the_map(self, kind, shift, scale):
        """scale * (u + shift) overflows to inf, which inverse would map to 0
        and so hide. It raises, and with no numpy warning, which pytest
        would raise instead."""
        spec = PerturbationSpec(kind, shift=shift, scale=scale)
        message = f"^perturbation {kind!r} produced non-finite values$"
        with pytest.raises(NonFiniteResult, match=message):
            perturb_matrix([[0.0], [1.0]], spec)

    def test_overflowing_map_raises_without_a_warning(self):
        spec = PerturbationSpec("square", scale=1e200)
        with pytest.raises(NonFiniteResult, match="^perturbation 'square' produced non-finite values$"):
            perturb_matrix([[0.0], [1.0]], spec)

    def test_rank_of_perturbed_matches_original(self):
        """Composition law: rank transforms see through increasing perturbations."""
        rng = np.random.default_rng(35)
        col = np.unique(rng.normal(size=200))
        base = fit_column(col, "rank").transform(col)
        for kind in ("identity", "log", "square", "sqrt"):
            pert = perturb_column(col, PerturbationSpec(kind))
            assert np.array_equal(fit_column(pert, "rank").transform(pert), base)
