"""Unit tests for repro.util.validation and the error hierarchy."""

import pytest

from repro.util import errors, validation


class TestCheckPositive:
    def test_accepts_positive(self):
        assert validation.check_positive("x", 0.5) == 0.5

    @pytest.mark.parametrize("bad", [0, -1, -0.001])
    def test_rejects_non_positive(self, bad):
        with pytest.raises(errors.ConfigError, match="x must be > 0"):
            validation.check_positive("x", bad)


class TestCheckNonNegative:
    def test_accepts_zero(self):
        assert validation.check_non_negative("x", 0) == 0

    def test_rejects_negative(self):
        with pytest.raises(errors.ConfigError):
            validation.check_non_negative("x", -1e-9)


class TestCheckPositiveInt:
    def test_accepts_int(self):
        assert validation.check_positive_int("n", 8) == 8

    @pytest.mark.parametrize("bad", [0, -3, 1.5, True, "8"])
    def test_rejects_bad_values(self, bad):
        with pytest.raises(errors.ConfigError):
            validation.check_positive_int("n", bad)


class TestCheckFraction:
    @pytest.mark.parametrize("ok", [0.0, 0.5, 1.0])
    def test_accepts_unit_interval(self, ok):
        assert validation.check_fraction("f", ok) == ok

    @pytest.mark.parametrize("bad", [-0.01, 1.01, 5])
    def test_rejects_outside(self, bad):
        with pytest.raises(errors.ConfigError):
            validation.check_fraction("f", bad)


class TestCheckIn:
    def test_accepts_member(self):
        assert validation.check_in("mode", "a", ["a", "b"]) == "a"

    def test_rejects_non_member(self):
        with pytest.raises(errors.ConfigError, match="mode"):
            validation.check_in("mode", "c", ["a", "b"])


class TestCheckShape:
    def test_accepts_rank_up_to_5(self):
        assert validation.check_shape("t", [1, 2, 3, 4, 5]) == (1, 2, 3, 4, 5)

    def test_accepts_scalar(self):
        assert validation.check_shape("t", []) == ()

    def test_rejects_rank_6(self):
        # Gaudi TPC tensors are rank 1..5 (paper section 2.2).
        with pytest.raises(errors.ShapeError, match="rank 6"):
            validation.check_shape("t", [1] * 6)

    @pytest.mark.parametrize("bad", [[-1], [2.0, 3], [True]])
    def test_rejects_bad_dims(self, bad):
        with pytest.raises(errors.ShapeError):
            validation.check_shape("t", bad)


class TestSameShape:
    def test_matching(self):
        assert validation.same_shape("x", (2, 3), [2, 3]) == (2, 3)

    def test_mismatch(self):
        with pytest.raises(errors.ShapeError, match="shapes differ"):
            validation.same_shape("x", (2, 3), (3, 2))


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            errors.ConfigError,
            errors.ShapeError,
            errors.GraphError,
            errors.CompileError,
            errors.ExecutionError,
            errors.KernelError,
            errors.AutogradError,
            errors.DataError,
        ],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, errors.ReproError)

    def test_device_memory_error_carries_sizes(self):
        err = errors.DeviceMemoryError(100, 50, detail="test")
        assert err.required_bytes == 100
        assert err.capacity_bytes == 50
        assert "test" in str(err)
        assert isinstance(err, errors.ReproError)


class TestLayoutPlannerValidation:
    @pytest.mark.parametrize(
        "grids",
        [
            {"tp_grid": (0,)},
            {"tp_grid": (1, -4)},
            {"pp_grid": (0,)},
            {"pp_grid": (1, 2.0)},
            {"microbatch_grid": (1, 0)},
        ],
    )
    def test_non_positive_grid_entry_rejected(self, grids):
        from repro.core.auto_layout import auto_layout, enumerate_layouts

        with pytest.raises(errors.ConfigError, match="grid entry"):
            enumerate_layouts(8, **grids)
        with pytest.raises(errors.ConfigError, match="grid entry"):
            auto_layout("gpt", 8, **grids)

    def test_every_layout_infeasible_raises_typed_error(self, monkeypatch):
        """A grid whose every candidate prices infeasible raises a typed
        error that names each layout with its reason."""
        from repro.core.auto_layout import (
            LayoutPlanner,
            LayoutPricing,
            auto_layout,
        )

        monkeypatch.setattr(
            LayoutPlanner, "price",
            lambda self, layout: LayoutPricing(
                layout, None, "exceeds HBM capacity"
            ),
        )
        with pytest.raises(errors.CompileError) as exc:
            auto_layout("gpt", 8, tp_grid=(1, 2), pp_grid=(1,))
        message = str(exc.value)
        assert "every candidate layout for gpt on 8 cards" in message
        assert "tp1·pp1·dp8: exceeds HBM capacity" in message
        assert "tp2·pp1·dp4: exceeds HBM capacity" in message

    @pytest.mark.parametrize("batch", [0, -8, 2.5, True])
    def test_bad_batch_rejected(self, batch):
        from repro.core.auto_layout import LayoutPlanner, run_parallel_study

        with pytest.raises(errors.DataError, match="batch"):
            LayoutPlanner("gpt", batch=batch)
        with pytest.raises(errors.DataError, match="batch"):
            run_parallel_study(batch=batch)
