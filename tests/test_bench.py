"""Quartile filtering, the memory model, the timed library forwards, and reporting."""

import dataclasses
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attentive_mlp.attention import (
    AmlpCovParams,
    AttentionInputs,
    ConfigError,
    amlp_cov_forward,
    softmax_attention,
)
from attentive_mlp import bench
from attentive_mlp.bench import (
    _available_memory_bytes,
    ARCHITECTURES,
    BenchConfig,
    BenchRecord,
    CSV_HEADER,
    fit_loglog_slope,
    iqr_filter,
    model_memory,
    records_to_csv,
    run_and_report,
    sweep_inner_dimension,
    time_architecture,
    SweepConfig,
)
from attentive_mlp.tensor import ContractError, Tensor


class TestIqrFilter:
    def test_constant_samples(self):
        kept, mean = iqr_filter([3.25] * 10)
        assert mean == 3.25
        assert all(v == 3.25 for v in kept)

    def test_eight_samples_keep_middle_four(self):
        kept, mean = iqr_filter([5, 2, 7, 1, 8, 3, 6, 4])
        assert kept == [3, 4, 5, 6]
        assert mean == 4.5

    def test_hundred_samples(self):
        kept, mean = iqr_filter(list(range(100, 0, -1)))
        assert len(kept) == 50
        assert kept[0] == 26 and kept[-1] == 75
        assert mean == 50.5

    def test_too_few_samples(self):
        with pytest.raises(ContractError):
            iqr_filter([1.0, 2.0, 3.0])

    @settings(max_examples=80, deadline=None)
    @given(st.integers(4, 400), st.integers(0, 2**31 - 1))
    def test_kept_size_rule_and_mean_consistency(self, n, seed):
        import math

        samples = np.random.default_rng(seed).standard_normal(n).tolist()
        kept, mean = iqr_filter(samples)
        assert len(kept) == math.ceil(3 * n / 4) - n // 4
        assert mean == pytest.approx(sum(kept) / len(kept))
        assert min(samples) <= mean <= max(samples)


class TestMemoryModel:
    def test_formula_at_minimal_length(self):
        # direct substitution of the documented expressions at n = 1
        assert model_memory("nar-softmax", 1, 1, 512, 64, 8, 3) == 3 * (8 + 3 * 512 + 512)
        dh = 512 // 8
        assert model_memory("nar-amlp", 1, 1, 512, 64, 8, 3) == 3 * (
            2 * dh * dh * 8 + 2 * 64 * 512 + 64 * 8 + 4 * 512
        )
        assert model_memory("ar-causal-softmax", 1, 1, 512, 64, 8, 3) == 3 * (2 * 512 + 8)

    def test_headline_ratio(self):
        soft = model_memory("nar-softmax", 8192, 8192, 512, 64, 8, 1)
        amlp = model_memory("nar-amlp", 8192, 8192, 512, 64, 8, 1)
        assert amlp / soft <= 0.12

    def test_doubling_length(self):
        for batch in (1, 12):
            soft1 = model_memory("nar-softmax", 4096, 4096, 512, 64, 8, batch)
            soft2 = model_memory("nar-softmax", 8192, 8192, 512, 64, 8, batch)
            assert soft2 >= 2 * soft1
            amlp1 = model_memory("nar-amlp", 4096, 4096, 512, 64, 8, batch)
            amlp2 = model_memory("nar-amlp", 8192, 8192, 512, 64, 8, batch)
            assert amlp2 < 2.1 * amlp1

    def test_unknown_architecture(self):
        with pytest.raises(ConfigError):
            model_memory("nar-linear", 8, 8, 8, 2, 2, 1)

    def test_positive_arguments_required(self):
        with pytest.raises(ContractError):
            model_memory("nar-softmax", 0, 8, 8, 2, 2, 1)

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(ARCHITECTURES),
        st.integers(1, 2048),
        st.integers(1, 2048),
        st.integers(1, 6),
        st.integers(1, 6),
        st.integers(0, 5),
    )
    def test_monotone_in_every_argument(self, arch, n, m, hmul, c, arg):
        h = hmul
        d = h * 8
        c = min(c, 8)
        args = [n, m, d, c, h, 2]
        base = model_memory(arch, *args)
        bumped = list(args)
        if arg == 2:  # widen d by one head-width so h still divides it
            bumped[2] += h
        elif arg == 4:  # adding a head needs d divisible by both
            if arch == "nar-amlp":
                # genuinely non-monotone in h at fixed d: the per-head
                # covariance term is 2*d*d/h (see the dedicated test below)
                return
            bumped[4] = h * 2
            bumped[2] = d * 2
            base = model_memory(arch, n, m, d * 2, c, h, 2)
        else:
            bumped[arg] += 1
        assert model_memory(arch, *bumped) >= base

    def test_adaptive_head_count_tradeoff(self):
        # at fixed width, more heads shrink the (d/h)^2-per-head covariance
        # summaries but grow the n*c*h hidden term: memory falls with h for
        # short sequences and rises with h once n*c dominates
        short_1h = model_memory("nar-amlp", 1, 1, 16, 1, 1, 2)
        short_2h = model_memory("nar-amlp", 1, 1, 16, 1, 2, 2)
        assert short_2h < short_1h
        long_1h = model_memory("nar-amlp", 4096, 4096, 16, 1, 1, 2)
        long_2h = model_memory("nar-amlp", 4096, 4096, 16, 1, 2, 2)
        assert long_2h > long_1h


class TestAvailableMemory:
    @staticmethod
    def _fake_root(tmp_path, memory_max, group):
        (tmp_path / "proc/self").mkdir(parents=True)
        (tmp_path / "proc/meminfo").write_text("MemTotal: 8000 kB\nMemAvailable: 4000 kB\n")
        (tmp_path / "proc/self/cgroup").write_text(f"4:memory:/v1/path\n0::{group}\n")
        if memory_max is not None:
            limit_dir = tmp_path / "sys/fs/cgroup" / group.lstrip("/")
            limit_dir.mkdir(parents=True, exist_ok=True)
            (limit_dir / "memory.max").write_text(memory_max + "\n")
        return str(tmp_path)

    @pytest.mark.parametrize(
        "memory_max, group, expected",
        [
            ("1048576", "/jobs/a", 1048576),  # a limit below MemAvailable wins
            (str(10**12), "/jobs/a", 4000 * 1024),  # one above it does not
            ("max", "/jobs/a", 4000 * 1024),  # "max" means no limit
            (None, "/jobs/a", 4000 * 1024),  # no limit file
            ("2048", "/", 2048),  # the root group
        ],
    )
    def test_cgroup_limit_caps_meminfo(self, tmp_path, memory_max, group, expected):
        assert _available_memory_bytes(self._fake_root(tmp_path, memory_max, group)) == expected

    def test_limit_without_meminfo(self, tmp_path):
        root = self._fake_root(tmp_path, "2048", "/jobs/a")
        (tmp_path / "proc/meminfo").unlink()
        assert _available_memory_bytes(root) == 2048

    def test_nothing_readable(self, tmp_path):
        assert _available_memory_bytes(str(tmp_path)) is None


class TestBenchRunsLibrary:
    CFG = BenchConfig(lengths=(9,), batch=2, runs=4, d_model=12, heads=2, c=3, warmup=0)

    @staticmethod
    def _drawn_arrays(cfg, arch, n):
        """The cell's operands, drawn from its seed as raw arrays: q, k, v, then c_q, c_k."""
        rng = bench._cell_rng(cfg, arch, n)
        dh = cfg.d_model // cfg.heads
        qkv = [rng.standard_normal((cfg.batch * cfg.heads, n, dh)) for _ in range(3)]
        projections = [rng.standard_normal((cfg.c, dh)) * dh**-0.5 for _ in range(2)]
        return qkv, projections

    @pytest.mark.parametrize(
        "arch, sigma1",
        [("nar-softmax", "relu"), ("nar-amlp", "softmax"), ("nar-amlp", "relu"), ("nar-amlp", "identity")],
    )
    def test_cell_runs_library_forward_on_its_arrays(self, arch, sigma1):
        cfg = dataclasses.replace(self.CFG, sigma1=sigma1)
        out = bench._run_once(arch, bench._make_inputs(cfg, arch, 9))
        (q, k, v), (c_q, c_k) = self._drawn_arrays(cfg, arch, 9)
        inputs = AttentionInputs(Tensor(q), Tensor(k), Tensor(v))
        if arch == "nar-softmax":
            lib = softmax_attention(inputs)
        else:
            lib = amlp_cov_forward(inputs, AmlpCovParams(Tensor(c_q), Tensor(c_k), sigma1=sigma1))
        np.testing.assert_array_equal(out.data, lib.data)

    def test_amlp_cell_follows_sigma1(self):
        outs = [
            bench._run_once(
                "nar-amlp",
                bench._make_inputs(dataclasses.replace(self.CFG, sigma1=s), "nar-amlp", 9),
            ).data
            for s in ("relu", "softmax")
        ]
        assert not np.allclose(*outs)

    def test_ar_causal_decode_matches_prefix_attention(self):
        rng = np.random.default_rng(2)
        q, k, v = (rng.standard_normal((1, 7, 4)) for _ in range(3))
        out = bench._run_once(
            "ar-causal-softmax", (AttentionInputs(Tensor(q), Tensor(k), Tensor(v)),)
        )
        for t in range(1, 8):
            lib = softmax_attention(
                AttentionInputs(Tensor(q[0, t - 1 : t]), Tensor(k[0, :t]), Tensor(v[0, :t])),
                scaled=True,
            )
            np.testing.assert_allclose(out[0, t - 1], lib.data[0], atol=1e-13)


class TestBenchConfig:
    def test_runs_below_four_rejected(self):
        with pytest.raises(ContractError):
            BenchConfig(runs=3)

    def test_lengths_must_increase(self):
        with pytest.raises(ConfigError):
            BenchConfig(lengths=(256, 256))

    def test_unknown_sigma1(self):
        with pytest.raises(ConfigError, match="sigma1"):
            BenchConfig(sigma1="bogus")

    def test_unknown_architecture(self):
        with pytest.raises(ConfigError):
            BenchConfig(architectures=("nar-softmax", "mystery"))


SMALL = BenchConfig(lengths=(16, 64), batch=1, runs=8, d_model=16, heads=2, c=4, warmup=1)


class TestTimeArchitecture:
    def test_kept_is_half_of_hundred_runs(self):
        cfg = BenchConfig(lengths=(8,), batch=1, runs=100, d_model=8, heads=1, c=2, warmup=0)
        record = time_architecture("nar-amlp", 8, cfg)
        assert record.kept == 50

    def test_work_grows_with_length(self):
        cfg = BenchConfig(
            lengths=(256, 2048), batch=1, runs=5, d_model=64, heads=1, c=16, warmup=1
        )
        for arch in ARCHITECTURES:
            slow = time_architecture(arch, 2048, cfg)
            fast = time_architecture(arch, 256, cfg)
            assert slow.mean_latency_s > fast.mean_latency_s, arch

    def test_measured_peak_within_factor_two_of_model(self):
        cfg = BenchConfig(lengths=(512,), batch=2, runs=4, d_model=64, heads=2, c=8, warmup=0)
        for arch in ARCHITECTURES:
            record = time_architecture(arch, 512, cfg)
            assert record.measured_peak_bytes is not None
            ratio = record.measured_peak_bytes / (8 * record.modeled_elems)
            assert 0.5 <= ratio <= 2.0, (arch, ratio)

    def test_warmup_lasts_at_least_the_floor(self, monkeypatch):
        calls = []
        monkeypatch.setattr(bench, "_MIN_WARMUP_S", 0.01)
        monkeypatch.setattr(bench, "_run_once", lambda arch, args: calls.append(time.perf_counter()))
        start = time.perf_counter()
        samples = bench._time_interleaved("nar-amlp", ["a", "b"], runs=3, warmup=1)
        assert [len(s) for s in samples] == [3, 3]
        assert calls[-6] - start >= 0.01  # the first timed run follows the floor
        calls.clear()
        bench._time_interleaved("nar-amlp", ["a", "b"], runs=3, warmup=0)
        assert len(calls) == 6  # warmup 0 still means no warm-up

    def test_modeled_elems_deterministic(self):
        a = time_architecture("nar-amlp", 64, SMALL)
        b = time_architecture("nar-amlp", 64, SMALL)
        assert a.modeled_elems == b.modeled_elems


class TestReporting:
    def test_row_count_and_schema(self):
        records, csv_text, summary = run_and_report(SMALL)
        lines = csv_text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) - 1 == len(SMALL.architectures) * len(SMALL.lengths)
        assert "slope" in summary

    def test_infeasible_row_keeps_schema(self):
        r = BenchRecord(
            arch="nar-softmax",
            n=1 << 20,
            batch=12,
            runs=100,
            kept=0,
            mean_latency_s=None,
            modeled_elems=123,
            measured_peak_bytes=None,
            feasible=False,
        )
        line = records_to_csv([r]).strip().split("\n")[1]
        assert line == "nar-softmax,1048576,12,100,0,,123,"

    def test_nine_significant_digits(self):
        r = BenchRecord(
            arch="nar-amlp",
            n=8,
            batch=1,
            runs=4,
            kept=2,
            mean_latency_s=0.123456789123,
            modeled_elems=10,
            measured_peak_bytes=None,
        )
        assert ",0.123456789," in records_to_csv([r])

    def test_speedup_ordering_reported(self):
        cfg = BenchConfig(lengths=(64, 256), batch=1, runs=4, d_model=32, heads=1, c=8, warmup=1)
        _, _, summary = run_and_report(cfg)
        assert "speedup relative to ar-causal-softmax" in summary


class TestSlopeFit:
    def test_quadratic_series(self):
        ns = [256, 512, 1024, 2048]
        ts = [1e-6 * n * n for n in ns]
        assert fit_loglog_slope(ns, ts) == pytest.approx(2.0, abs=1e-9)

    def test_needs_two_points(self):
        with pytest.raises(ContractError):
            fit_loglog_slope([4], [1.0])


class TestSweepValidation:
    def test_inner_dim_above_head_width_rejected(self):
        with pytest.raises(ConfigError):
            sweep_inner_dimension([32], SweepConfig(d_model=32, heads=2))


class TestSweepAccuracy:
    def test_weights_the_last_probe_evaluated_are_not_evaluated_again(self, monkeypatch):
        calls = []
        real = bench.evaluate
        monkeypatch.setattr(bench, "evaluate", lambda *a: calls.append(a) or real(*a))
        cfg = SweepConfig(train_steps=4, probe_every=2, eval_samples=8, stop_accuracy=1.1)
        for steps, stop, expected in (
            (4, 1.1, 2),  # probes after steps 2 and 4, nothing after training
            (5, 1.1, 3),  # step 5 was not probed, so training ends with one evaluation
            (4, 0.0, 1),  # the first probe stops training
        ):
            calls.clear()
            bench._train_toy_accuracy(
                4, dataclasses.replace(cfg, train_steps=steps, stop_accuracy=stop)
            )
            assert len(calls) == expected, (steps, stop)


class TestCausalScaling:
    def test_sequential_decode_superlinear_and_slower_than_parallel(self):
        # the step-by-step decode re-attends to the whole prefix each step,
        # so its total time must grow superlinearly in length; at the top
        # length the adaptive forward must beat the quadratic one by more
        cfg = BenchConfig(
            lengths=(512, 1024, 2048, 4096), batch=2, runs=4, d_model=512, heads=1, c=64,
            warmup=1,
        )
        records, _, summary = run_and_report(cfg)
        by = {(r.arch, r.n): r for r in records}
        ns = cfg.lengths
        ar = [by[("ar-causal-softmax", n)].mean_latency_s for n in ns]
        slope = fit_loglog_slope(ns, ar)
        assert slope >= 1.5, slope
        top = ns[-1]
        amlp_speedup = ar[-1] / by[("nar-amlp", top)].mean_latency_s
        soft_speedup = ar[-1] / by[("nar-softmax", top)].mean_latency_s
        assert amlp_speedup > soft_speedup
        assert "speedup relative to ar-causal-softmax" in summary
