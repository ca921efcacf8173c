"""Toy parallel-decoding model: forward contracts, training, checkpoints."""

import copy
import gc
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from attentive_mlp.attention import ConfigError
from attentive_mlp import narmodel
from attentive_mlp.narmodel import (
    InputError,
    NarConfig,
    NarModel,
    SyntheticTask,
    evaluate,
    load_checkpoint,
    save_checkpoint,
    train,
)
from attentive_mlp.tensor import (
    ContractError,
    Tape,
    Tensor,
    backward,
    cross_entropy,
    finite_difference_check,
)

TINY = NarConfig(vocab_size=7, seq_len=4, source_len=4, d_model=8, heads=2, c=2, seed=0)


class TestConfig:
    def test_heads_must_divide_width(self):
        with pytest.raises(ConfigError):
            NarConfig(d_model=32, heads=3)

    def test_inner_dim_bounded_by_head_width(self):
        with pytest.raises(ConfigError):
            NarConfig(d_model=32, heads=2, c=17)

    def test_unknown_variant(self):
        with pytest.raises(ConfigError):
            NarConfig(variant="nope")

    @pytest.mark.parametrize(
        "field, value",
        [
            ("sigma1", "bogus"),
            ("beta", 2.0),
            ("beta", -0.1),
            ("beta", float("nan")),
            ("vocab_size", 0),
            ("seq_len", 0),
            ("source_len", 0),
            ("learning_rate", float("nan")),
            ("learning_rate", float("inf")),
        ],
    )
    def test_rejects_bad_setting(self, field, value):
        with pytest.raises(ConfigError, match=field):
            NarConfig(**{field: value})


class TestForward:
    def test_logits_shape(self):
        model = NarModel(TINY)
        out = model.forward([0, 1, 2, 3])
        assert out.shape == (TINY.seq_len, TINY.vocab_size)

    def test_deterministic(self):
        model = NarModel(TINY)
        a = model.forward([1, 2, 3, 4]).data
        b = model.forward([1, 2, 3, 4]).data
        assert np.array_equal(a, b)

    def test_untrained_entropy_near_uniform(self):
        model = NarModel(NarConfig())
        logits = model.forward(np.arange(12) % 16).data
        shifted = logits - logits.max(axis=1, keepdims=True)
        probs = np.exp(shifted)
        probs /= probs.sum(axis=1, keepdims=True)
        entropy = -(probs * np.log(probs)).sum(axis=1)
        target = np.log(16)
        assert np.all(np.abs(entropy - target) <= 0.05 * target)

    def test_token_out_of_range(self):
        model = NarModel(TINY)
        with pytest.raises(InputError):
            model.forward([0, 1, 2, 7])

    def test_wrong_length(self):
        model = NarModel(TINY)
        with pytest.raises(InputError):
            model.forward([0, 1, 2])

    @pytest.mark.parametrize(
        "tokens, dtype",
        [
            ([0.9, 1.7, 2.2, 3.99], "float64"),  # was truncated and decoded as [0, 1, 2, 3]
            (["1", "2", "3", "0"], "<U1"),  # was parsed
            (["a", "b", "c", "d"], "<U1"),  # was reported as a length fault
            ([True, False, True, True], "bool"),
        ],
        ids=["float", "digits", "letters", "bool"],
    )
    def test_non_integer_source_names_its_dtype(self, tokens, dtype):
        with pytest.raises(InputError, match=f"^sources must be integer token ids, got dtype {dtype}$"):
            NarModel(TINY).generate(tokens)

    def test_any_integer_dtype_decodes_alike(self):
        model = NarModel(TINY)
        want = model.generate([0, 1, 2, 3])
        for dtype in (np.int32, np.uint8):
            assert np.array_equal(model.generate(np.array([0, 1, 2, 3], dtype=dtype)), want)

    def test_targets_never_reach_the_forward_pass(self):
        # with lr=0 a training step computes losses against arbitrary targets
        # without moving parameters, so the decode cannot depend on them
        cfg = NarConfig(vocab_size=7, seq_len=4, source_len=4, d_model=8, heads=2, c=2, learning_rate=0.0)
        model = NarModel(cfg)
        src = np.array([1, 2, 3, 4])
        before = model.forward(src).data
        model.train_step([(src, np.array([0, 0, 0, 0]))])
        model.train_step([(src, np.array([6, 5, 4, 3]))])
        after = model.forward(src).data
        assert np.array_equal(before, after)

    @pytest.mark.parametrize("variant", ["cov", "pquery", "softmax"])
    def test_variants_share_shapes(self, variant):
        cfg = NarConfig(vocab_size=7, seq_len=4, source_len=4, d_model=8, heads=2, c=2, variant=variant)
        model = NarModel(cfg)
        assert model.forward([1, 2, 3, 4]).shape == (4, 7)


class TestTrainStep:
    def test_initial_loss_near_uniform_baseline(self):
        model = NarModel(NarConfig())
        task = SyntheticTask("reverse", vocab=16, length=12, seed=3)
        loss = model.train_step(task.sample(4, split="train"))
        assert abs(loss - np.log(16)) <= 0.3

    def test_zero_learning_rate_freezes_parameters(self):
        cfg = NarConfig(vocab_size=7, seq_len=4, source_len=4, d_model=8, heads=2, c=2, learning_rate=0.0)
        model = NarModel(cfg)
        before = {k: v.copy() for k, v in model.params.items()}
        task = SyntheticTask("copy", vocab=7, length=4, seed=0)
        model.train_step(task.sample(2, split="train"))
        for k in before:
            assert np.array_equal(before[k], model.params[k])

    def test_empty_batch_rejected(self):
        with pytest.raises(ContractError):
            NarModel(TINY).train_step([])

    def test_loss_decreases(self):
        cfg = NarConfig(vocab_size=7, seq_len=4, source_len=4, d_model=8, heads=2, c=2, learning_rate=0.2)
        model = NarModel(cfg)
        task = SyntheticTask("copy", vocab=7, length=4, seed=1)
        losses = train(model, task, steps=120, batch_size=4)
        assert np.median(losses[-20:]) < np.median(losses[:20])

    def test_on_step_stops_after_step_k(self):
        cfg = NarConfig(vocab_size=7, seq_len=4, source_len=4, d_model=8, heads=2, c=2, learning_rate=0.2)
        task = SyntheticTask("copy", vocab=7, length=4, seed=1)
        seen = []

        def stop_at_5(step, loss):
            seen.append((step, loss))
            return step == 5

        losses = train(NarModel(cfg), task, steps=50, batch_size=4, on_step=stop_at_5)
        manual = NarModel(cfg)
        batches = task.stream(4)
        expected = [manual.train_step(next(batches)) for _ in range(5)]
        assert losses == expected
        assert seen == list(zip(range(1, 6), expected))

    def test_default_cov_step_records_97_nodes(self, monkeypatch):
        # 43 parameter leaves plus 54 ops, each covariance mechanism call one
        # of them: a change that splits the mechanism into ops again moves this
        tapes = []

        def tracked_tape():
            tapes.append(Tape())
            return tapes[-1]

        monkeypatch.setattr(narmodel, "Tape", tracked_tape)
        model = NarModel(NarConfig())
        model.loss_and_grads(SyntheticTask("reverse", vocab=16, length=12).sample(8, "train"))
        assert len(model.params) == 43
        assert len(tapes) == 1 and len(tapes[0]) == 97

    def test_diverging_update_names_parameter_and_step(self):
        # at lr 1e300 every updated entry is still finite (the largest
        # gradient entry is about 0.1), but its square is not
        model = NarModel(NarConfig(learning_rate=1e300))
        before = {k: v.copy() for k, v in model.params.items()}
        task = SyntheticTask("reverse", vocab=16, length=12)
        with pytest.raises(ContractError, match="^parameter 'embed' diverged"):
            model.train_step(task.sample(8, "train"))
        for k in before:
            assert np.array_equal(before[k], model.params[k])
        with pytest.raises(ContractError, match="^step 1: parameter 'embed' diverged"):
            train(model, task, steps=5)

    @pytest.mark.parametrize("variant", ["cov", "pquery", "softmax"])
    def test_gradients_match_finite_differences(self, variant):
        cfg = NarConfig(
            vocab_size=5, seq_len=3, source_len=3, d_model=4, heads=1, c=2, variant=variant, seed=1
        )
        model = NarModel(cfg)
        src = np.array([0, 2, 4])
        tgt = np.array([4, 2, 0])
        names = sorted(model.params)

        from attentive_mlp.tensor import cross_entropy

        def f(*tensors):
            p = dict(zip(names, tensors))
            return cross_entropy(model._forward(src, p), tgt)

        params = [Tensor(model.params[k]) for k in names]
        reports = finite_difference_check(f, params, h=1e-4, tol=1e-3)
        bad = [(names[r.index], r.max_rel_err) for r in reports if not r.passed]
        assert not bad, bad


class TestBatchedTape:
    """One tape over a (B, n) batch against B single-sample tapes."""

    @pytest.mark.parametrize("variant", ["cov", "pquery", "softmax"])
    def test_loss_and_gradients_match_per_sample_tapes(self, variant):
        cfg = NarConfig(vocab_size=7, seq_len=4, source_len=4, d_model=8, heads=2, c=2, variant=variant)
        model = NarModel(cfg)
        batch = SyntheticTask("reverse", vocab=7, length=4, seed=4).sample(5, split="train")
        loss, grads = model.loss_and_grads(batch)

        losses, summed = [], {k: np.zeros_like(v) for k, v in model.params.items()}
        for source, target in batch:
            tape = Tape()
            p = {k: tape.leaf(Tensor(v)) for k, v in model.params.items()}
            sample_loss = cross_entropy(model._forward(source, p), target)
            backward(tape, sample_loss)
            losses.append(sample_loss.item())
            for k in summed:
                summed[k] += p[k].grad.data
        assert abs(loss - np.mean(losses)) <= 1e-12 * abs(loss)
        assert set(grads) == set(model.params)
        for k, total in summed.items():
            want = total / len(batch)
            assert np.abs(grads[k] - want).max() <= 1e-12 * np.abs(want).max(), k

    def test_batched_forward_matches_per_source(self):
        model = NarModel(TINY)
        sources = np.array([[0, 1, 2, 3], [6, 5, 4, 3], [1, 1, 1, 1]])
        logits = model.forward(sources)
        assert logits.shape == (3, TINY.seq_len, TINY.vocab_size)
        for b, src in enumerate(sources):
            np.testing.assert_allclose(logits.data[b], model.forward(src).data, rtol=0, atol=1e-13)

    def test_ragged_batch_rejected(self):
        with pytest.raises(InputError):
            NarModel(TINY).train_step([(np.arange(4), np.arange(4)), (np.arange(3), np.arange(3))])

    @pytest.mark.parametrize("side", ["sources", "targets"])
    def test_ragged_batch_names_its_row(self, side):
        # one 3-token target raised numpy's ValueError
        good, short = np.arange(4), np.arange(3)
        pairs = [(good, good), (good, good), (short, good) if side == "sources" else (good, short)]
        with pytest.raises(InputError, match=rf"^{side} must all have 4 tokens: row 2 has shape \(3,\)$"):
            NarModel(TINY).loss_and_grads(pairs)

    def test_non_integer_targets_name_their_dtype(self):
        # [0.5, 1.5, 2.5, 3.5] gave the loss of the targets [0, 1, 2, 3]
        batch = [(np.arange(4), np.array([0.5, 1.5, 2.5, 3.5]))]
        with pytest.raises(InputError, match="^targets must be integer token ids, got dtype float64$"):
            NarModel(TINY).loss_and_grads(batch)

    def test_targets_out_of_vocab_rejected(self):
        with pytest.raises(InputError, match="^token out of range for vocab 7$"):
            NarModel(TINY).loss_and_grads([(np.arange(4), np.array([0, 1, 2, 7]))])

    def test_empty_source_batch_rejected(self):
        with pytest.raises(InputError):
            NarModel(TINY).forward(np.zeros((0, 4), dtype=np.int64))


class TestGenerate:
    def test_output_length(self):
        model = NarModel(TINY)
        assert len(model.generate([0, 1, 2, 3])) == TINY.seq_len

    def test_generate_is_argmax_of_forward(self):
        model = NarModel(TINY)
        src = [3, 1, 0, 6]
        np.testing.assert_array_equal(
            model.generate(src), np.argmax(model.forward(src).data, axis=1)
        )

    def test_batch_matches_per_source(self):
        model = NarModel(TINY)
        sources = np.array([[3, 1, 0, 6], [2, 2, 5, 4]])
        np.testing.assert_array_equal(
            model.generate(sources), [model.generate(src) for src in sources]
        )

    def test_ties_pick_lower_token_id(self):
        class Tied(NarModel):
            def forward(self, source_tokens):
                logits = np.zeros((self.config.seq_len, self.config.vocab_size))
                logits[:, 2] = 1.0
                logits[:, 5] = 1.0
                return Tensor(logits)

        model = Tied(TINY)
        np.testing.assert_array_equal(model.generate([0, 1, 2, 3]), [2, 2, 2, 2])


class TestEvaluate:
    def test_copy_stub_is_perfect_on_copy_task(self):
        class CopyStub:
            def generate(self, source):
                return np.asarray(source).copy()

        task = SyntheticTask("copy", vocab=9, length=6, seed=2)
        assert evaluate(CopyStub(), task, 50) == 1.0

    def test_untrained_accuracy_near_chance(self):
        model = NarModel(NarConfig(seed=5))
        task = SyntheticTask("reverse", vocab=16, length=12, seed=6)
        acc = evaluate(model, task, 2000)
        assert abs(acc - 1 / 16) <= 0.05

    def test_reproducible(self):
        model = NarModel(TINY)
        task = SyntheticTask("copy", vocab=7, length=4, seed=3)
        assert evaluate(model, task, 64) == evaluate(model, task, 64)

    def test_eval_split_disjoint_from_train_stream(self):
        task = SyntheticTask("copy", vocab=7, length=4, seed=3)
        eval_set = {tuple(s) for s, _ in task.sample(16, split="eval")}
        train_set = {tuple(s) for s, _ in task.sample(16, split="train")}
        assert eval_set != train_set


class TestSyntheticTask:
    def test_reverse_target(self):
        task = SyntheticTask("reverse", vocab=5, length=4, seed=0)
        src, tgt = task.sample(1)[0]
        np.testing.assert_array_equal(tgt, src[::-1])

    def test_sampling_deterministic(self):
        a = SyntheticTask("copy", vocab=5, length=4, seed=9).sample(8)
        b = SyntheticTask("copy", vocab=5, length=4, seed=9).sample(8)
        for (sa, ta), (sb, tb) in zip(a, b):
            assert np.array_equal(sa, sb) and np.array_equal(ta, tb)

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            SyntheticTask("sort", vocab=5, length=4)

    @pytest.mark.parametrize("field", ["vocab", "length"])
    def test_nonpositive_size_rejected_at_construction(self, field):
        with pytest.raises(ConfigError, match=f"{field} must be >= 1"):
            SyntheticTask("copy", **{"vocab": 5, "length": 4, field: 0})

    def test_unknown_split_rejected(self):
        task = SyntheticTask("copy", vocab=5, length=4)
        with pytest.raises(ConfigError, match="split"):
            task.sample(2, split="test")
        with pytest.raises(ConfigError, match="split"):
            task.stream(2, split="dev")

    @pytest.mark.parametrize("count", [0, -1])
    def test_nonpositive_count_rejected_at_call(self, count):
        # stream is a generator, so its size is checked at the call, where
        # sample checks its count, not at the first draw
        task = SyntheticTask("copy", vocab=5, length=4)
        with pytest.raises(ContractError, match=f"count must be >= 1, got {count}"):
            task.sample(count)
        with pytest.raises(ContractError, match=f"count must be >= 1, got {count}"):
            task.stream(count)


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        model = NarModel(NarConfig(variant="pquery", seed=11))
        model.train_step(SyntheticTask("copy", vocab=16, length=12, seed=0).sample(2, "train"))
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, str(path))
        loaded = load_checkpoint(str(path))
        assert loaded.config == model.config
        assert set(loaded.params) == set(model.params)
        for k in model.params:
            assert np.array_equal(model.params[k], loaded.params[k]), k

    def test_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_text("something-else v1\n")
        with pytest.raises(ContractError):
            load_checkpoint(str(path))

    def test_rejects_missing_params(self, tmp_path):
        model = NarModel(TINY)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, str(path))
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ContractError):
            load_checkpoint(str(path))


class TestCheckpointErrors:
    """Malformed checkpoint text raises ContractError, never a bare parse error."""

    @pytest.fixture(scope="class")
    def good_text(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("ckpt") / "good.ckpt"
        save_checkpoint(NarModel(TINY), str(path))
        return path.read_text()

    def _load(self, tmp_path, text):
        path = tmp_path / "case.ckpt"
        path.write_bytes(text if isinstance(text, bytes) else text.encode("ascii"))
        return load_checkpoint(str(path))

    def test_magic_line_only(self, tmp_path, good_text):
        with pytest.raises(ContractError):
            self._load(tmp_path, good_text.splitlines()[0] + "\n")

    def test_short_param_line(self, tmp_path, good_text):
        lines = good_text.splitlines()
        lines[2] = " ".join(lines[2].split(" ")[:3])
        with pytest.raises(ContractError):
            self._load(tmp_path, "\n".join(lines) + "\n")

    def test_bad_hex(self, tmp_path, good_text):
        lines = good_text.splitlines()
        lines[2] = lines[2][:-2] + "zz"
        with pytest.raises(ContractError):
            self._load(tmp_path, "\n".join(lines) + "\n")

    def test_unknown_config_key(self, tmp_path, good_text):
        text = good_text.replace('"beta"', '"bogus_key": 1, "beta"', 1)
        with pytest.raises(ContractError):
            self._load(tmp_path, text)

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_fuzzed_text_loads_or_raises_contract_error(self, tmp_path, good_text, data):
        raw = bytearray(good_text.encode("ascii"))
        if data.draw(st.booleans(), label="truncate"):
            raw = raw[: data.draw(st.integers(0, len(raw) - 1), label="cut")]
        else:
            pos = data.draw(st.integers(0, len(raw) - 1), label="pos")
            raw[pos] ^= data.draw(st.integers(1, 255), label="mask")
        try:
            model = self._load(tmp_path, bytes(raw))
        except ContractError:
            return
        assert isinstance(model, NarModel)


class TestTapeRelease:
    def test_train_tape_freed_by_refcount(self, monkeypatch):
        tapes = []

        def tracked_tape():
            tape = Tape()
            tapes.append(weakref.ref(tape))
            return tape

        monkeypatch.setattr(narmodel, "Tape", tracked_tape)
        model = NarModel(TINY)
        batch = SyntheticTask("copy", vocab=7, length=4, seed=0).sample(3, "train")
        gc.disable()
        try:
            model.loss_and_grads(batch)
            assert len(tapes) == 1 and tapes[0]() is None
        finally:
            gc.enable()


class TestLossCurves:
    @pytest.mark.parametrize("variant", ["cov", "pquery", "softmax"])
    def test_median_late_loss_below_early(self, variant):
        cfg = NarConfig(variant=variant, learning_rate=0.2, seed=0)
        model = NarModel(cfg)
        task = SyntheticTask("reverse", vocab=16, length=12, seed=1)
        losses = train(model, task, steps=1000, batch_size=8)
        assert np.median(losses[900:1000]) < np.median(losses[0:100])
