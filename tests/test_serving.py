"""Serving-layer invariants: the A15 simulator and its decode-path
contracts.

The properties the PR claims, executed:

* conservation — every arrival finishes exactly one of
  completed / truncated (cache-full) / rejected;
* TTFT decomposes exactly into queueing + prefill, and event times are
  causally ordered;
* KV residency (reservations + weights) never exceeds the HBM budget,
  including under a tight budget where the planner — not the slot
  count — bounds the batch;
* the serving JSONL is byte-identical at any ``--jobs`` width;
* the KV-cache boundary: ``max_decode_context`` is the last legal
  decode step, and cached generation reproduces the uncached tokens.
"""

import hashlib
import io
import math
from collections import Counter, deque
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import ht
from repro.core.decode_study import DecodeStudyResult
from repro.core.serving import (
    SERVING_POLICIES,
    Request,
    ServingAblationResult,
    ServingPoint,
    ServingSimulator,
    ServingWorkload,
    generate_requests,
    kv_bytes_per_token,
    run_serving,
    serving_weight_bytes,
)
from repro.models import (
    GPT2LMHeadModel,
    generate,
    max_decode_context,
    paper_gpt_config,
    record_decode_step,
    scaled,
    tiny_gpt_config,
)
from repro.synapse.serving import ServingRuntime
from repro.util.errors import ConfigError, DataError, ShapeError

SMALL = scaled(paper_gpt_config(), vocab_size=128, seq_len=256)
SMALL_WORKLOAD = ServingWorkload(prompt_range=(4, 48), output_range=(2, 40))


@pytest.fixture(scope="module")
def runtime():
    """One shared step-cost oracle; geometries compile once per module."""
    return ServingRuntime()


@pytest.fixture(scope="module")
def simulator(runtime):
    return ServingSimulator(
        runtime, model_config=SMALL, max_batch=4, ctx_quantum=64
    )


class TestKvCacheBoundary:
    def test_last_legal_context(self):
        cfg = SMALL
        assert max_decode_context(cfg) == cfg.max_seq_len - 1
        rec = record_decode_step(
            cfg, batch=1, context_len=max_decode_context(cfg)
        )
        assert rec.graph is not None

    def test_cache_full_is_rejected_with_contract(self):
        cfg = SMALL
        with pytest.raises(ShapeError, match="exceeds"):
            record_decode_step(cfg, batch=1, context_len=cfg.max_seq_len)
        with pytest.raises(ShapeError, match="finish or evict"):
            record_decode_step(cfg, batch=1, context_len=cfg.max_seq_len)

    def test_serving_loop_truncates_at_boundary(self, runtime):
        # one request whose desired output overruns the cache: it must
        # finish as length_cap with its cache inside the boundary
        sim = ServingSimulator(runtime, model_config=SMALL, max_batch=2)
        trace = generate_requests(
            1, 5.0,
            workload=ServingWorkload(
                prompt_range=(200, 200), output_range=(500, 500)
            ),
        )
        result = sim.run(trace, "continuous")
        (req,) = result.records
        assert req.finish_reason == "length_cap"
        # resident cache entries = prompt + generated - 1: the loop
        # stops exactly when the cache is full, never past it
        assert req.prompt_len + req.generated - 1 == SMALL.max_seq_len
        assert result.metrics()["truncated"] == 1


class TestCachedGeneration:
    def _trained_ish_model(self):
        return GPT2LMHeadModel(
            tiny_gpt_config(vocab_size=31), rng=np.random.default_rng(3)
        )

    def test_cached_matches_uncached_greedy_and_sampled(self):
        model = self._trained_ish_model()
        prompt = [1, 4, 9, 16]
        slow = generate(model, prompt, max_new_tokens=20, use_cache=False)
        fast = generate(model, prompt, max_new_tokens=20)
        assert slow == fast
        s1 = generate(model, prompt, max_new_tokens=20, temperature=0.7,
                      rng=np.random.default_rng(5), use_cache=False)
        s2 = generate(model, prompt, max_new_tokens=20, temperature=0.7,
                      rng=np.random.default_rng(5))
        assert s1 == s2

    def test_cached_matches_uncached_past_the_window(self):
        # the context slides past max_seq_len mid-generation; the
        # cached path must fall back and still match token for token
        model = self._trained_ish_model()
        window = model.config.max_seq_len
        prompt = list(range(1, 30))
        n = window - len(prompt) + 10
        slow = generate(model, prompt, max_new_tokens=n, use_cache=False)
        fast = generate(model, prompt, max_new_tokens=n)
        assert slow == fast


class TestDecodeStudyGuards:
    def _degenerate(self):
        profile = SimpleNamespace(
            total_time_us=0.0,
            schedule=SimpleNamespace(ops=[]),
            timeline=SimpleNamespace(busy_time_us=lambda engine: 0.0),
        )
        return DecodeStudyResult([128], 1, profiles=[profile])

    def test_idle_mme_raises(self):
        with pytest.raises(DataError, match="kept the MME idle"):
            self._degenerate().mme_achieved_tflops(0)

    def test_zero_duration_raises(self):
        with pytest.raises(DataError, match="zero-duration"):
            self._degenerate().tokens_per_second(0)


class TestServingProperties:
    @given(
        seed=st.integers(0, 30),
        rate=st.floats(2.0, 200.0),
        num=st.integers(5, 40),
        policy=st.sampled_from(("static", "continuous")),
    )
    @settings(max_examples=30, deadline=None)
    def test_conservation_and_causality(self, simulator, seed, rate, num,
                                        policy):
        trace = generate_requests(
            num, rate, workload=SMALL_WORKLOAD, seed=seed
        )
        result = simulator.run(trace, policy)
        m = result.metrics()
        # conservation: every arrival lands in exactly one bucket
        assert m["completed"] + m["truncated"] + m["rejected"] == num
        for r in result.records:
            assert r.finish_reason in ("completed", "length_cap", "rejected")
            if r.finish_reason == "rejected":
                continue
            # causal ordering and the exact TTFT decomposition
            assert r.arrival_us <= r.admitted_us <= r.first_token_us
            assert r.first_token_us <= r.finish_us
            assert r.ttft_us == pytest.approx(
                r.queueing_us + (r.first_token_us - r.admitted_us)
            )
            assert 1 <= r.generated <= r.output_len
            # the cache never outgrew the model's window
            assert r.prompt_len + r.generated <= SMALL.max_seq_len + 1

    @given(
        seed=st.integers(0, 10),
        policy=st.sampled_from(("static", "continuous")),
    )
    @settings(max_examples=10, deadline=None)
    def test_residency_within_budget(self, simulator, seed, policy):
        trace = generate_requests(
            25, 50.0, workload=SMALL_WORKLOAD, seed=seed
        )
        result = simulator.run(trace, policy)
        assert result.peak_kv_actual_bytes <= result.peak_kv_reserved_bytes
        assert (
            result.weight_bytes + result.peak_kv_reserved_bytes
            <= result.budget_bytes
        )

    def test_tight_budget_bounds_batch_below_slots(self):
        # budget holds the weights plus only a few requests' reserved
        # KV: admission must stop there, well before the slot count
        per_request = kv_bytes_per_token(SMALL) * SMALL.max_seq_len
        budget = serving_weight_bytes(SMALL) + 8 * per_request
        runtime = ServingRuntime(hbm_budget=budget)
        sim = ServingSimulator(
            runtime, model_config=SMALL, max_batch=16, ctx_quantum=64
        )
        trace = generate_requests(
            60, 100.0,
            workload=ServingWorkload(
                prompt_range=(32, 128), output_range=(64, 128)
            ),
        )
        result = sim.run(trace, "continuous")
        m = result.metrics()
        assert m["completed"] + m["truncated"] == 60  # nothing starves
        assert 0 < result.peak_in_flight < 16
        assert (
            result.weight_bytes + result.peak_kv_reserved_bytes <= budget
        )


class TestServingJsonl:
    def test_byte_identical_at_any_jobs_width(self):
        points = [
            ServingPoint(policy=p, rate_per_s=r, num_requests=80)
            for r in (10.0, 40.0)
            for p in ("static", "continuous")
        ]
        serial, pooled = io.StringIO(), io.StringIO()
        run_serving(points, stream=serial, jobs=1)
        run_serving(points, stream=pooled, jobs=2)
        assert serial.getvalue() == pooled.getvalue()
        lines = serial.getvalue().splitlines()
        assert len(lines) == len(points)


class TestServingRuntime:
    def test_step_costs_memoize(self):
        runtime = ServingRuntime()
        calls = []

        def factory():
            calls.append(1)
            return record_decode_step(SMALL, batch=2, context_len=64).graph

        first = runtime.step_cost(("t", 2, 64), factory)
        again = runtime.step_cost(("t", 2, 64), factory)
        assert first is again
        assert len(calls) == 1
        assert runtime.lookups == 2 and runtime.measured == 1
        assert runtime.replay_fraction == pytest.approx(0.5)

    def test_infeasible_geometry_memoized(self):
        runtime = ServingRuntime(hbm_budget=1 << 20)  # 1 MiB: nothing fits
        calls = []

        def factory():
            calls.append(1)
            return record_decode_step(SMALL, batch=2, context_len=64).graph

        assert not runtime.feasible(("t", 2, 64), factory)
        assert not runtime.feasible(("t", 2, 64), factory)
        assert len(calls) == 1
        assert runtime.infeasible == 1


class TestServingValidation:
    def test_bad_trace_args(self):
        with pytest.raises(DataError, match="num_requests"):
            generate_requests(0, 10.0)
        with pytest.raises(DataError, match="arrival_rate"):
            generate_requests(5, 0.0)

    @pytest.mark.parametrize(
        "rate", [float("nan"), float("inf"), -1.0, "10", True]
    )
    def test_rate_must_be_finite_positive_number(self, rate):
        with pytest.raises(DataError, match="arrival_rate"):
            generate_requests(10, rate)

    @pytest.mark.parametrize("num", [2.5, "10", True, -3])
    def test_count_must_be_positive_int(self, num):
        with pytest.raises(DataError, match="num_requests"):
            generate_requests(num, 10.0)

    @pytest.mark.parametrize("field", ["max_batch", "ctx_quantum"])
    @pytest.mark.parametrize("bad", [0, 2.5, 1.5, "8", True])
    def test_simulator_knobs_must_be_positive_ints(self, runtime, field,
                                                   bad):
        with pytest.raises(ConfigError, match=field):
            ServingSimulator(runtime, **{field: bad})

    @pytest.mark.parametrize("budget", [0, -1, 2.5, "1"])
    def test_hbm_budget_must_be_positive_int(self, budget):
        # 0 used to mean "full device capacity" silently
        with pytest.raises(ConfigError, match="hbm_budget"):
            ServingRuntime(hbm_budget=budget)

    def test_unknown_policy(self, simulator):
        trace = generate_requests(2, 10.0, workload=SMALL_WORKLOAD)
        with pytest.raises(Exception, match="unknown serving policy"):
            simulator.run(trace, "clairvoyant")

    @pytest.mark.parametrize("field", ["prompt_range", "output_range"])
    def test_inverted_range(self, field):
        with pytest.raises(DataError, match=field):
            ServingWorkload(**{field: (20, 10)})

    @pytest.mark.parametrize("field", ["prompt_range", "output_range"])
    def test_zero_length_range(self, field):
        with pytest.raises(DataError, match=field):
            ServingWorkload(**{field: (0, 0)})

    @pytest.mark.parametrize("bad", [(1.0, 4), (1, 2, 3), (4,), "ab"])
    def test_not_two_ints(self, bad):
        with pytest.raises(DataError, match="prompt_range"):
            ServingWorkload(prompt_range=bad)

    def test_unit_range_accepted(self):
        assert ServingWorkload(prompt_range=(1, 1), output_range=(1, 1))

    def test_result_for_missing_point(self):
        with pytest.raises(DataError, match="no serving point"):
            ServingAblationResult().result_for("static", 10.0)


_PRESSURE = scaled(paper_gpt_config(), vocab_size=512)
_CAPPED = scaled(paper_gpt_config(), vocab_size=512, seq_len=512)

#: serving scenarios whose per-request records are pinned below: the
#: paper model at two rates, one slot, a fine context quantum, the A15
#: KV-pressure budget, and a short window that truncates and rejects
EXACTNESS_SCENARIOS = {
    "default-20": dict(num=120, rate=20.0),
    "default-60": dict(num=120, rate=60.0),
    "max-batch-1": dict(num=60, rate=20.0, max_batch=1),
    "quantum-16": dict(num=60, rate=20.0, ctx_quantum=16),
    "kv-pressure": dict(
        num=60, rate=10.0, model_config=_PRESSURE, max_batch=16,
        hbm_budget=serving_weight_bytes(_PRESSURE)
        + 5 * kv_bytes_per_token(_PRESSURE) * _PRESSURE.max_seq_len,
        workload=ServingWorkload(
            prompt_range=(256, 768), output_range=(256, 512)
        ),
    ),
    "length-cap": dict(
        num=300, rate=20.0, model_config=_CAPPED, seed=5,
        workload=ServingWorkload(
            prompt_range=(100, 520), output_range=(50, 400)
        ),
    ),
}

#: sha256 of every record's lifecycle tuple plus the run's makespan and
#: step/peak counters, as the one-decode-step-per-iteration loop
#: produced them; the windowed loop must reproduce them bit for bit
RECORD_DIGESTS = {
    ("default-20", "continuous"):
        "82699f2265dab220de773a6003a1ab191c25ef0a0b224ff0950de35dc4d9b4a4",
    ("default-20", "static"):
        "c7239ae8c75d648bc59e435f06f7409c9e1db2b3a1c69b014151b0968d243bc8",
    ("default-60", "continuous"):
        "23c9523f55433e06500bb9ec6b33876d002e9374103b391b2cbfdb9192b10964",
    ("default-60", "static"):
        "885c53d19da45732b14e7e4a4868d7b3985ccf4c58adb5bdc3f3520e716e4d8c",
    ("kv-pressure", "continuous"):
        "d7047e1305b58db9afc7130aef6d67b70164c182671554c88f87f3d36c393c85",
    ("kv-pressure", "static"):
        "470ea0b5c5250d13a5e8e3e93e5f871f82a6d7ef4416268f4837b5f00d40d20b",
    ("length-cap", "continuous"):
        "667adf30d93a634e85b15c7a1c80900204796ca286efc57e81738556665b18ab",
    ("length-cap", "static"):
        "4ba11e7c946793fce3bbcc61ed1a0cdbebc3f7c8d7a4c68da93ba68377121745",
    ("max-batch-1", "continuous"):
        "eb8997fdf4c35d32881e466c50ba416af320ad7dbf3cf222a34504930c97f951",
    ("max-batch-1", "static"):
        "50db23caafdb0eca4a056dcce2f77bead31b61428507f90b65ebeae8b3b89772",
    ("quantum-16", "continuous"):
        "75c88c7bc6a4a85088f00753f06baf0ba63c08f416f52001a37c4b1fc9334ac8",
    ("quantum-16", "static"):
        "05b4bd8618091eef19ceb1b7d9c6c02b52d9f873e7a1173a40c31c9cf73cd5be",
}


def _build_scenario(name: str):
    spec = dict(EXACTNESS_SCENARIOS[name])
    runtime = ServingRuntime(hbm_budget=spec.pop("hbm_budget", None))
    trace = generate_requests(
        spec.pop("num"), spec.pop("rate"),
        workload=spec.pop("workload", ServingWorkload()),
        seed=spec.pop("seed", 0),
    )
    return runtime, ServingSimulator(runtime, **spec), trace


def _serve_scenario(name: str, policy: str):
    runtime, sim, trace = _build_scenario(name)
    return runtime, sim.run(trace, policy)


def _record_digest(result) -> str:
    h = hashlib.sha256()
    for r in result.records:
        h.update(repr((
            r.rid, r.admitted_us, r.first_token_us, r.finish_us,
            r.generated, r.context_len, r.finish_reason,
            r.reserved_kv_bytes,
        )).encode())
    h.update(repr((
        result.makespan_us, result.prefill_steps, result.decode_steps,
        result.decode_slot_tokens, result.peak_in_flight,
        result.peak_kv_reserved_bytes, result.peak_kv_actual_bytes,
    )).encode())
    return h.hexdigest()


class TestWindowedDecodeExactness:
    @pytest.mark.parametrize("policy", ["continuous", "static"])
    @pytest.mark.parametrize("name", sorted(EXACTNESS_SCENARIOS))
    def test_records_match_pinned_digest(self, name, policy):
        _, result = _serve_scenario(name, policy)
        assert _record_digest(result) == RECORD_DIGESTS[name, policy]

    def test_length_cap_scenario_truncates_and_rejects(self):
        _, result = _serve_scenario("length-cap", "continuous")
        m = result.metrics()
        assert (m["truncated"], m["rejected"]) == (168, 7)

    def test_windows_skip_lookups(self):
        runtime, result = _serve_scenario("default-20", "continuous")
        assert runtime.lookups < result.decode_steps


class TestAdmissionVerdicts:
    """The simulator's plan-verdict table: each admission geometry
    costs one oracle query per simulator, and admission decisions are
    unchanged (the pinned digests above are the exactness oracle)."""

    @pytest.mark.parametrize("name", ["default-20", "kv-pressure"])
    def test_each_geometry_probed_once_per_simulator(self, name):
        runtime, sim, trace = _build_scenario(name)
        probes = Counter()
        feasible = runtime.feasible

        def counting(key, factory):
            probes[key] += 1
            return feasible(key, factory)

        runtime.feasible = counting
        for policy in SERVING_POLICIES:
            sim.run(trace, policy)
        assert probes and max(probes.values()) == 1

    def test_running_reservations(self):
        # an always-feasible oracle isolates the reservation arithmetic
        tok = kv_bytes_per_token(SMALL)
        asked = []
        oracle = SimpleNamespace(
            hbm_budget=serving_weight_bytes(SMALL) + 6 * 64 * tok,
            feasible=lambda key, factory: asked.append(key[1:]) or True,
        )
        sim = ServingSimulator(
            oracle, model_config=SMALL, max_batch=8, ctx_quantum=64
        )
        # one in-flight request reserving three quanta; each short
        # candidate reserves one, so three more fill the budget
        running = Request(0, 0.0, 100, 60)
        running.reserved_kv_bytes = 3 * 64 * tok
        queue = deque(generate_requests(
            6, 1e3, workload=ServingWorkload(
                prompt_range=(8, 16), output_range=(8, 16)
            ),
        ))
        joiners = sim._admit(queue, [running], math.inf, [])
        assert [r.reserved_kv_bytes for r in joiners] == [64 * tok] * 3
        assert queue[0].reserved_kv_bytes == 0  # the refused head
        # the group's decode geometry is the in-flight worst case
        group_decodes = [k for k in asked if k[0] == "decode" and k[1] > 1]
        assert group_decodes == [("decode", 2, 192), ("decode", 4, 192)]

    def test_kv_pressure_exercises_the_refusal_branch(self):
        _, sim, trace = _build_scenario("kv-pressure")
        refusals = Counter()
        admit = sim._admit
        for policy in SERVING_POLICIES:
            def counting(queue, in_flight, t, rejected, policy=policy):
                joiners = admit(queue, in_flight, t, rejected)
                # admission stops with an arrived head and a free slot
                # only when the group test refused that head
                if (
                    queue and queue[0].arrival_us <= t
                    and len(in_flight) + len(joiners) < sim.max_batch
                ):
                    refusals[policy] += 1
                return joiners

            sim._admit = counting
            sim.run(trace, policy)
        assert refusals == {"continuous": 700, "static": 25}

    def test_default_trace_measures_twenty_geometries(self):
        runtime = ServingRuntime()
        sim = ServingSimulator(runtime, max_batch=8)
        trace = generate_requests(10_000, 20.0)
        for policy in SERVING_POLICIES:
            assert sim.run(trace, policy).metrics()["rejected"] == 0
        assert runtime.measured == 20
        # one lookup per decode window and prefill, plus one per
        # admission geometry's first probe
        assert runtime.lookups == 39_939
