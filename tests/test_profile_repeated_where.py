"""Tests for multi-iteration profiling and the where op."""

import numpy as np
import pytest

from repro import ht
from repro.ht import functional as F
from repro.hw.costmodel import EngineKind
from repro.synapse import SynapseProfiler
from repro.util.errors import ConfigError


def small_graph():
    with ht.record("iter", mode="symbolic") as rec:
        a = ht.input_tensor((256, 256), name="a")
        b = ht.input_tensor((256, 256), name="b")
        F.matmul(F.softmax(F.matmul(a, b)), b)
    return rec.graph


class TestProfileRepeated:
    def test_first_iteration_includes_compile(self):
        results = SynapseProfiler().profile_repeated(small_graph(), 3)
        assert len(results) == 3
        first, *rest = results
        compile_events = first.timeline.engine_events(EngineKind.HOST)
        assert any("compile" in ev.name for ev in compile_events)
        for r in rest:
            assert not r.timeline.engine_events(EngineKind.HOST)

    def test_steady_state_iterations_equal(self):
        results = SynapseProfiler().profile_repeated(small_graph(), 4)
        steady = [r.total_time_us for r in results[1:]]
        assert max(steady) == pytest.approx(min(steady), rel=1e-6)

    def test_first_iteration_slower(self):
        results = SynapseProfiler().profile_repeated(small_graph(), 2)
        assert results[0].total_time_us > results[1].total_time_us

    def test_compile_cost_scales_with_schedule(self):
        results = SynapseProfiler().profile_repeated(
            small_graph(), 1, compile_us_per_op=100.0
        )
        compile_ev = results[0].timeline.engine_events(EngineKind.HOST)[0]
        assert compile_ev.dur_us == 100.0 * len(results[0].schedule)

    def test_compile_can_be_disabled(self):
        results = SynapseProfiler().profile_repeated(
            small_graph(), 2, compile_us_per_op=0.0
        )
        assert not results[0].timeline.engine_events(EngineKind.HOST)
        assert results[0].total_time_us == pytest.approx(
            results[1].total_time_us, rel=1e-6
        )

    def test_invalid_iterations(self):
        with pytest.raises(ConfigError, match="iterations"):
            SynapseProfiler().profile_repeated(small_graph(), 0)


class TestWhere:
    def test_selects_by_mask(self):
        with ht.record():
            mask = ht.tensor([1.0, 0.0, 1.0])
            a = ht.tensor([10.0, 20.0, 30.0])
            b = ht.tensor([-1.0, -2.0, -3.0])
            out = F.where(mask, a, b)
            np.testing.assert_allclose(out.numpy(), [10.0, -2.0, 30.0])

    def test_broadcasts(self):
        with ht.record():
            mask = ht.tensor(np.ones((3, 1)))
            a = ht.tensor(np.full((3, 4), 7.0))
            b = ht.tensor(np.zeros((1, 4)))
            assert F.where(mask, a, b).shape == (3, 4)

    def test_gradients_split_by_mask(self):
        mask_np = np.array([1.0, 0.0, 1.0, 0.0])
        with ht.record():
            mask = ht.tensor(mask_np)
            a = ht.tensor(np.ones(4), requires_grad=True)
            b = ht.tensor(np.ones(4), requires_grad=True)
            F.sum(F.where(mask, a, b)).backward()
            np.testing.assert_allclose(a.grad.numpy(), mask_np)
            np.testing.assert_allclose(b.grad.numpy(), 1.0 - mask_np)

    def test_mask_carries_no_gradient(self):
        with ht.record():
            mask = ht.tensor([1.0, 0.0], requires_grad=True)
            a = ht.tensor([1.0, 2.0], requires_grad=True)
            b = ht.tensor([3.0, 4.0])
            F.sum(F.where(mask, a, b)).backward()
            assert mask.grad is None

    def test_numeric_gradcheck(self):
        rng = np.random.default_rng(0)
        mask_np = (rng.random((3, 3)) > 0.5).astype(np.float64)
        a0 = rng.normal(size=(3, 3))
        b0 = rng.normal(size=(3, 3))

        def value(av):
            with ht.record():
                out = F.mean(F.square(F.where(
                    ht.tensor(mask_np), ht.tensor(av, requires_grad=True),
                    ht.tensor(b0),
                )))
                return out.item()

        with ht.record():
            a = ht.tensor(a0, requires_grad=True)
            loss = F.mean(F.square(F.where(ht.tensor(mask_np), a,
                                           ht.tensor(b0))))
            loss.backward()
            g = a.grad.numpy()
        eps = 1e-4
        for idx in [(0, 0), (1, 1), (2, 2)]:
            ap, am = a0.copy(), a0.copy()
            ap[idx] += eps
            am[idx] -= eps
            num = (value(ap) - value(am)) / (2 * eps)
            assert g[idx] == pytest.approx(num, abs=2e-3)

    def test_where_is_tpc_mapped(self):
        from repro.synapse import engine_for

        assert engine_for("where").value == "TPC"
