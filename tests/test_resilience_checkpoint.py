"""Tests for checkpoint/restore, the non-finite guard, and expert
degradation in the functional-substrate trainer."""

import numpy as np
import pytest

from repro.autograd.optim import Adam
from repro.autograd.tensor import Tensor
from repro.nn.models import MoEClassifier
from repro.obs.runs import RunStore, recording_run
from repro.resilience.checkpoint import (
    capture_training_state,
    load_checkpoint,
    restore_training_state,
    save_checkpoint,
)
from repro.train.data import ClusteredTokenTask, TokenBatch
from repro.train.trainer import train_model


@pytest.fixture(scope="module")
def splits():
    task = ClusteredTokenTask(num_clusters=8, input_dim=8, num_classes=4,
                              noise=0.4, seed=0)
    return task.sample(1024), task.sample(512)


def fresh_model(seed=0):
    return MoEClassifier(8, 16, 32, 4, num_blocks=2, num_experts=8,
                         rng=np.random.default_rng(seed), top_k=2)


class TestCheckpointRoundTrip:
    def test_save_load_identity(self, tmp_path):
        model = fresh_model()
        opt = Adam([p for p in model.parameters() if p.requires_grad])
        rng = np.random.default_rng(3)
        rng.integers(0, 100, 7)  # advance so the state is non-trivial
        ckpt = capture_training_state(model, opt, rng, step=5)
        path = str(tmp_path / "ck.npz")
        save_checkpoint(ckpt, path)
        loaded = load_checkpoint(path)
        assert loaded.step == 5
        assert loaded.rng_state == ckpt.rng_state
        assert set(loaded.params) == set(ckpt.params)
        for name in ckpt.params:
            np.testing.assert_array_equal(loaded.params[name],
                                          ckpt.params[name])
        for a, b in zip(loaded.opt_m, ckpt.opt_m):
            np.testing.assert_array_equal(a, b)

    def test_restore_into_fresh_objects(self, tmp_path):
        model = fresh_model()
        opt = Adam([p for p in model.parameters() if p.requires_grad])
        rng = np.random.default_rng(3)
        ckpt = capture_training_state(model, opt, rng, step=0)

        other = fresh_model(seed=9)  # different init
        other_opt = Adam([p for p in other.parameters()
                          if p.requires_grad])
        other_rng = np.random.default_rng(99)
        restore_training_state(other, other_opt, other_rng, ckpt)
        for (n1, p1), (n2, p2) in zip(model.named_parameters(),
                                      other.named_parameters()):
            assert n1 == n2
            np.testing.assert_array_equal(p1.data, p2.data)
        assert other_rng.bit_generator.state == rng.bit_generator.state

    def test_restore_reapplies_failed_experts(self, tmp_path):
        model = fresh_model()
        model.fail_expert(0, 3)
        opt = Adam([p for p in model.parameters() if p.requires_grad])
        ckpt = capture_training_state(model, opt,
                                      np.random.default_rng(0), step=1)
        assert ckpt.failed_experts == {0: [3]}
        other = fresh_model()
        other_opt = Adam([p for p in other.parameters()
                          if p.requires_grad])
        # The resumed run suffered nothing: the mask comes back, but
        # no ``fault`` event (which would arm ``recovery_overdue``).
        with recording_run(root=tmp_path, run_id="resumed"):
            restore_training_state(other, other_opt,
                                   np.random.default_rng(0), ckpt)
        assert other.moe_layers()[0].failed_experts == {3}
        assert [e for e in RunStore(tmp_path).events("resumed")
                if e["kind"] == "fault"] == []

    @pytest.mark.parametrize("experts", [[99], [-1], list(range(8))])
    def test_restore_validates_failed_experts(self, experts):
        """The mask read from disk goes through the same range and
        last-survivor checks as a live failure."""
        model = fresh_model()
        opt = Adam([p for p in model.parameters() if p.requires_grad])
        ckpt = capture_training_state(model, opt,
                                      np.random.default_rng(0), step=0)
        ckpt.failed_experts = {0: experts}
        with pytest.raises(ValueError):
            restore_training_state(model, opt,
                                   np.random.default_rng(0), ckpt)

    def test_shape_mismatch_rejected(self):
        model = fresh_model()
        opt = Adam([p for p in model.parameters() if p.requires_grad])
        ckpt = capture_training_state(model, opt,
                                      np.random.default_rng(0), step=0)
        name = next(iter(ckpt.params))
        ckpt.params[name] = np.zeros((1, 1))
        with pytest.raises(ValueError, match="shape mismatch"):
            restore_training_state(model, opt,
                                   np.random.default_rng(0), ckpt)

    def test_name_mismatch_rejected(self):
        model = fresh_model()
        opt = Adam([p for p in model.parameters() if p.requires_grad])
        ckpt = capture_training_state(model, opt,
                                      np.random.default_rng(0), step=0)
        name = next(iter(ckpt.params))
        ckpt.params["bogus"] = ckpt.params.pop(name)
        with pytest.raises(ValueError, match="name mismatch"):
            restore_training_state(model, opt,
                                   np.random.default_rng(0), ckpt)


class TestResumeDeterminism:
    def test_resume_is_bit_identical(self, splits, tmp_path):
        """The acceptance contract: 40 straight steps == 20 steps ->
        checkpoint -> fresh process state -> restore -> 20 more,
        bit for bit (parameters and loss trace)."""
        train, test = splits
        kwargs = dict(steps=40, batch_size=64, seed=0)

        straight = train_model(fresh_model(), train, test, **kwargs)

        ckpt_dir = str(tmp_path / "ckpts")
        first = train_model(fresh_model(), train, test,
                            steps=20, batch_size=64, seed=0,
                            checkpoint_every=20, checkpoint_dir=ckpt_dir)
        assert len(first.checkpoint_paths) == 1

        resumed_model = fresh_model()  # same construction seed
        resumed = train_model(resumed_model, train, test, **kwargs,
                              resume_from=first.checkpoint_paths[0])

        assert resumed.losses == straight.losses
        assert resumed.train_accuracies == straight.train_accuracies
        assert resumed.capacity_traces == straight.capacity_traces
        assert resumed.eval_accuracy == straight.eval_accuracy

    def test_resumed_params_match_straight(self, splits, tmp_path):
        train, test = splits
        straight_model = fresh_model()
        train_model(straight_model, train, test, steps=30,
                    batch_size=64, seed=0)

        ckpt_dir = str(tmp_path / "ckpts")
        first = train_model(fresh_model(), train, test, steps=15,
                            batch_size=64, seed=0,
                            checkpoint_every=15, checkpoint_dir=ckpt_dir)
        resumed_model = fresh_model()
        train_model(resumed_model, train, test, steps=30,
                    batch_size=64, seed=0,
                    resume_from=first.checkpoint_paths[0])
        for (n1, p1), (n2, p2) in zip(
                straight_model.named_parameters(),
                resumed_model.named_parameters()):
            assert n1 == n2
            np.testing.assert_array_equal(p1.data, p2.data)

    def test_resume_past_end_rejected(self, splits, tmp_path):
        train, test = splits
        ckpt_dir = str(tmp_path / "ckpts")
        result = train_model(fresh_model(), train, test, steps=10,
                             batch_size=32, seed=0,
                             checkpoint_every=10,
                             checkpoint_dir=ckpt_dir)
        with pytest.raises(ValueError, match="nothing left"):
            train_model(fresh_model(), train, test, steps=10,
                        batch_size=32, seed=0,
                        resume_from=result.checkpoint_paths[0])

    def test_checkpoint_every_validation(self, splits):
        train, test = splits
        with pytest.raises(ValueError, match="checkpoint_dir"):
            train_model(fresh_model(), train, test, steps=5,
                        checkpoint_every=2)
        with pytest.raises(ValueError, match="checkpoint_every"):
            train_model(fresh_model(), train, test, steps=5,
                        checkpoint_every=0, checkpoint_dir="/tmp/x")


class TestNonFiniteGuard:
    def test_poisoned_step_skipped_and_rolled_back(self, splits):
        train, test = splits
        model = fresh_model()
        poisoned_at = {}

        def hook(step, m):
            if step == 5:
                victim = next(p for p in m.parameters()
                              if p.requires_grad)
                poisoned_at["value"] = victim
                victim.data.flat[0] = np.nan

        result = train_model(model, train, test, steps=10,
                             batch_size=32, seed=0, step_hook=hook)
        assert result.skipped_steps == [5]
        assert len(result.losses) == 9
        assert np.isfinite(result.losses).all()
        # The rollback healed the poisoned weight.
        assert np.isfinite(poisoned_at["value"].data).all()

    def test_rollback_leaves_optimizer_state_untouched(self, splits,
                                                       monkeypatch):
        """The guard snapshots parameters only: ``Adam.step`` never runs
        on a bad step, so the moments and step count at rollback *are*
        the last-good ones, byte for byte, and training resumes."""
        from repro.train import trainer

        train, test = splits
        model = fresh_model()
        made = []

        class SpyAdam(Adam):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        monkeypatch.setattr(trainer, "Adam", SpyAdam)
        seen = {}

        def state(opt):
            return ([p.data.tobytes() for p in opt.params],
                    [m.tobytes() for m in opt._m],
                    [v.tobytes() for v in opt._v], opt._step)

        def hook(step, m):
            if step in (5, 6, 7):
                seen[step] = state(made[0])
            if step == 5:
                made[0].params[0].data.flat[0] = np.nan

        result = train_model(model, train, test, steps=8, batch_size=32,
                             seed=0, step_hook=hook)
        assert result.skipped_steps == [5]
        assert seen[6] == seen[5]           # restored bit for bit
        assert seen[7][3] == seen[6][3] + 1     # the next step trains
        assert seen[7][0] != seen[6][0] and seen[7][1] != seen[6][1]

    def test_replaced_poisoned_weight_rolls_back_through_the_store(
            self, splits, monkeypatch):
        """The poison replaces a weight's array instead of writing into
        it: the rollback points the parameter back at its view of the
        optimizer's store, which holds the last-good values."""
        from repro.train import trainer

        train, test = splits
        made, seen = [], {}

        class SpyAdam(Adam):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        monkeypatch.setattr(trainer, "Adam", SpyAdam)

        def hook(step, m):
            opt = made[0]
            if step in (3, 4):
                store, = opt.stores.values()
                seen[step] = ([p.data.tobytes() for p in opt.params],
                              all(np.shares_memory(p.data, store)
                                  for p in opt.params))
            if step == 3:
                victim = opt.params[0]
                victim.data = np.full_like(victim.data, np.nan)

        result = train_model(fresh_model(), train, test, steps=5,
                             batch_size=32, seed=0, step_hook=hook)
        assert result.skipped_steps == [3]
        assert seen[4] == seen[3] and seen[4][1]

    def test_inf_gradient_trips_guard_through_norm(self, splits,
                                                   monkeypatch):
        train, test = splits
        model = fresh_model()
        victim = next(p for p in model.parameters() if p.requires_grad)
        calls = {"n": 0}
        real_backward = Tensor.backward

        def backward(self, grad=None):
            real_backward(self, grad)
            calls["n"] += 1
            if calls["n"] == 3:             # step index 2
                victim.grad.flat[0] = np.inf

        monkeypatch.setattr(Tensor, "backward", backward)
        with np.errstate(invalid="raise"):
            result = train_model(model, train, test, steps=5,
                                 batch_size=32, seed=0)
        assert result.skipped_steps == [2]
        assert len(result.losses) == 4
        assert all(np.isfinite(p.data).all() for p in model.parameters())

    def test_skipped_boundary_step_still_checkpoints(self, splits,
                                                     tmp_path):
        """A guarded step that lands on a checkpoint boundary must not
        drop that checkpoint: the rolled-back state is saved, resuming
        from it is bit-identical and the skip is recorded once."""
        train, test = splits

        def hook(step, m):
            if step == 3:  # completes the checkpoint_every=4 boundary
                next(p for p in m.parameters()
                     if p.requires_grad).data.flat[0] = np.nan

        def run(ckpt_dir, **kwargs):
            return train_model(fresh_model(), train, test, steps=8,
                               batch_size=32, seed=0, step_hook=hook,
                               checkpoint_every=4,
                               checkpoint_dir=str(tmp_path / ckpt_dir),
                               **kwargs)

        full = run("full")
        assert full.skipped_steps == [3]
        assert [p.rsplit("/", 1)[1] for p in full.checkpoint_paths] == [
            "ckpt_000004.npz", "ckpt_000008.npz"]
        boundary = load_checkpoint(full.checkpoint_paths[0])
        assert boundary.step == 4
        assert list(boundary.skipped_steps) == [3]

        resumed = run("resumed", resume_from=full.checkpoint_paths[0])
        assert resumed.skipped_steps == [3]
        assert resumed.losses == full.losses
        assert resumed.eval_accuracy == full.eval_accuracy

    def test_hookless_run_never_copies_the_store(self, splits,
                                                 monkeypatch):
        """Without a step hook only ``Adam.step`` writes the parameters,
        and it runs on good steps only: the guard takes no copy.  A step
        made non-finite by an ``inf`` token in the data is skipped and
        leaves every parameter bitwise as it was."""
        train, test = splits

        def copy(self):
            raise AssertionError("the guard copied the store")

        monkeypatch.setattr(Adam, "snapshot", copy)
        # A token the trainer's own draw first samples at step 2.
        rng = np.random.default_rng(0)
        draws = [rng.integers(0, len(train), 32) for _ in range(3)]
        token = next(i for i in draws[2]
                     if i not in draws[0] and i not in draws[1])
        x = train.x.copy()
        x[token, 0] = np.inf
        poisoned = TokenBatch(x, train.y, train.cluster)

        def run(data, steps):
            model = fresh_model()
            with np.errstate(all="ignore"):
                result = train_model(model, data, test, steps=steps,
                                     batch_size=32, seed=0)
            return result, [p.data.tobytes() for p in model.parameters()]

        clean, before = run(train, 2)
        result, after = run(poisoned, 3)
        assert result.skipped_steps == [2]
        assert result.losses == clean.losses
        assert after == before

    def test_noop_hook_retains_no_copy_between_steps(self, splits,
                                                     monkeypatch):
        """The copy brackets the hook call alone: from the forward
        through ``Adam.step`` the optimizer holds no array but its
        store, moments and block scratch (and views of them)."""
        from repro.train import trainer

        train, test = splits
        held = []

        def arrays(obj):
            if isinstance(obj, np.ndarray):
                yield obj
            elif isinstance(obj, (list, tuple)):
                for item in obj:
                    yield from arrays(item)
            elif isinstance(obj, dict):
                for item in obj.values():
                    yield from arrays(item)

        class SpyAdam(Adam):
            def step(self):
                own = [*self.stores.values(), *self._flat, self._scratch]
                held.append([a.nbytes for a in arrays(vars(self))
                             if a.nbytes and not any(
                                 np.shares_memory(a, b) for b in own)])
                super().step()

        monkeypatch.setattr(trainer, "Adam", SpyAdam)
        result = train_model(fresh_model(), train, test, steps=4,
                             batch_size=32, seed=0,
                             step_hook=lambda step, m: None)
        assert result.skipped_steps == []
        assert held == [[]] * 4

    def test_rollback_restores_signed_zero_and_nan_bits(self, splits):
        """The rollback compares bits, not values: ``-0.0`` written
        over a zero bias and a NaN written over a weight are both
        undone bit for bit."""
        train, test = splits
        seen = {}

        def hook(step, m):
            params = [p for p in m.parameters() if p.requires_grad]
            seen[step] = [p.data.tobytes() for p in params]
            if step == 0:       # the biases are still zero
                zero = next(p for p in params if (p.data == 0).any())
                zero.data[np.nonzero(zero.data == 0)[0][0]] = -0.0
                weight = next(p for p in params if p is not zero)
                weight.data.flat[0] = np.nan

        result = train_model(fresh_model(), train, test, steps=2,
                             batch_size=32, seed=0, step_hook=hook)
        assert result.skipped_steps == [0]
        assert seen[1] == seen[0]

    def test_poison_after_resume_heals_to_the_checkpoint(self, splits,
                                                         tmp_path):
        """A poison on the first step after ``resume_from`` rolls back
        to the checkpoint's values, and the run matches the same
        poisoned run without the resume."""
        train, test = splits
        seen = {}

        def hook(step, m):
            params = [p for p in m.parameters() if p.requires_grad]
            seen[step] = [p.data.tobytes() for p in params]
            if step == 4:
                params[0].data.flat[0] = np.nan

        def run(steps, **kwargs):
            model = fresh_model()
            result = train_model(model, train, test, steps=steps,
                                 batch_size=32, seed=0, **kwargs)
            return result, [p.data.tobytes() for p in model.parameters()]

        first, _ = run(4, checkpoint_every=4,
                       checkpoint_dir=str(tmp_path))
        ckpt = load_checkpoint(first.checkpoint_paths[0])
        resumed, resumed_params = run(
            7, resume_from=first.checkpoint_paths[0], step_hook=hook)
        model = fresh_model()
        assert [ckpt.params[name].tobytes()
                for name, p in model.named_parameters()
                if p.requires_grad] == seen[5] == seen[4]
        full, full_params = run(7, step_hook=hook)
        assert resumed.skipped_steps == full.skipped_steps == [4]
        assert resumed.losses == full.losses
        assert resumed_params == full_params


class TestExpertDegradation:
    def test_failed_expert_receives_no_tokens(self):
        from repro.nn.moe import MoE

        def run(fail):
            layer = MoE(8, 16, 4, np.random.default_rng(0), top_k=2)
            if fail:
                layer.mask_expert(2)
            x = Tensor(np.random.default_rng(1).normal(size=(64, 8)))
            out, aux = layer(x)
            (out.sum() + aux).backward()
            return layer, out

        healthy, _ = run(fail=False)
        # Control: expert 2 normally gets traffic, so gradients flow.
        assert np.abs(healthy.w1.grad[2]).sum() > 0

        failed, out = run(fail=True)
        # No tokens routed to the dead expert -> no gradient into it.
        assert np.abs(failed.w1.grad[2]).sum() == 0
        assert np.abs(failed.w2.grad[2]).sum() == 0
        # Survivors still train and the output stays finite.
        assert np.abs(failed.w1.grad[0]).sum() > 0
        assert np.isfinite(out.data).all()

    def test_training_continues_through_expert_failure(self, splits):
        train, test = splits
        model = fresh_model()

        def hook(step, m):
            if step == 4:
                m.fail_expert(0, 1)

        result = train_model(model, train, test, steps=12,
                             batch_size=32, seed=0, step_hook=hook)
        assert np.isfinite(result.losses).all()
        assert len(result.losses) == 12
        assert model.moe_layers()[0].failed_experts == {1}

    def test_accuracy_degrades_gracefully(self, splits):
        """Losing 2 of 8 experts mid-run must dent accuracy, not
        collapse it — survivors absorb the re-routed tokens."""
        train, test = splits
        kwargs = dict(steps=40, batch_size=64, seed=0)
        healthy = train_model(fresh_model(), train, test, **kwargs)

        def hook(step, m):
            if step == 10:
                m.fail_expert(0, 1)
                m.fail_expert(0, 2)

        degraded = train_model(fresh_model(), train, test, **kwargs,
                               step_hook=hook)
        assert degraded.skipped_steps == []
        assert degraded.eval_accuracy > 0.25   # above 4-class chance
        assert degraded.eval_accuracy >= healthy.eval_accuracy - 0.1

    def test_cannot_fail_all_experts(self):
        model = fresh_model()
        layer = model.moe_layers()[0]
        for e in range(layer.num_experts - 1):
            layer.mask_expert(e)
        with pytest.raises(ValueError, match="last surviving"):
            layer.mask_expert(layer.num_experts - 1)

    def test_fail_expert_validation(self):
        model = fresh_model()
        with pytest.raises(ValueError):
            model.fail_expert(5, 0)  # no such layer
        with pytest.raises(ValueError):
            model.fail_expert(0, 99)  # no such expert


class TestWindowedFinalMetrics:
    """Regression tests for the short-run window bug: final metrics
    must average over min(20, available) completed steps and stay
    finite even when steps were skipped."""

    def test_short_run_window_clamped(self, splits):
        train, test = splits
        result = train_model(fresh_model(), train, test, steps=7,
                             batch_size=32, seed=0)
        assert result.final_train_loss == pytest.approx(
            float(np.mean(result.losses)))
        assert result.final_train_accuracy == pytest.approx(
            float(np.mean(result.train_accuracies)))

    def test_long_run_window_is_last_20(self, splits):
        train, test = splits
        result = train_model(fresh_model(), train, test, steps=25,
                             batch_size=32, seed=0)
        assert result.final_train_loss == pytest.approx(
            float(np.mean(result.losses[-20:])))
        assert result.final_train_accuracy == pytest.approx(
            float(np.mean(result.train_accuracies[-20:])))

    def test_final_accuracy_in_range(self, splits):
        train, test = splits
        result = train_model(fresh_model(), train, test, steps=10,
                             batch_size=32, seed=0)
        assert 0.0 <= result.final_train_accuracy <= 1.0


class TestDtypeRoundTrip:
    """ISSUE 6: checkpoints are dtype-authoritative.  A float32 run's
    restore must stay bit-identical float32 (no silent casting through
    float64), and a checkpoint restores correctly into a model that was
    initialised under the other substrate dtype."""

    @staticmethod
    def _state(dtype):
        from repro.core.substrate import substrate_dtype

        with substrate_dtype(dtype):
            model = fresh_model()
            opt = Adam([p for p in model.parameters()
                        if p.requires_grad])
            # One real step so Adam moments are non-trivial.
            rng = np.random.default_rng(5)
            x = rng.normal(size=(16, 8))
            logits, l_aux = model(Tensor(x))
            (logits.sum() + l_aux).backward()
            opt.step()
            opt.zero_grad()
        return model, opt

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_save_load_preserves_dtype_bitwise(self, dtype, tmp_path):
        model, opt = self._state(dtype)
        rng = np.random.default_rng(3)
        ckpt = capture_training_state(model, opt, rng, step=1)
        path = str(tmp_path / "ck.npz")
        save_checkpoint(ckpt, path)
        loaded = load_checkpoint(path)
        for name, arr in ckpt.params.items():
            assert arr.dtype == dtype
            got = loaded.params[name]
            assert got.dtype == dtype
            assert got.tobytes() == arr.tobytes()  # bit identical
        for a, b in zip(loaded.opt_m, ckpt.opt_m):
            assert a.dtype == dtype
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("save_dtype,init_dtype",
                             [(np.float32, np.float64),
                              (np.float64, np.float32)])
    def test_restore_is_dtype_authoritative(self, save_dtype,
                                            init_dtype, tmp_path):
        from repro.core.substrate import substrate_dtype

        model, opt = self._state(save_dtype)
        rng = np.random.default_rng(3)
        ckpt = capture_training_state(model, opt, rng, step=1)

        with substrate_dtype(init_dtype):
            other = fresh_model(seed=9)
            other_opt = Adam([p for p in other.parameters()
                              if p.requires_grad])
        restore_training_state(other, other_opt,
                               np.random.default_rng(0), ckpt)
        for (name, p), (_, src) in zip(other.named_parameters(),
                                       model.named_parameters()):
            assert p.data.dtype == save_dtype, name
            assert p.data.tobytes() == src.data.tobytes()
        for slot, saved in zip(other_opt._m, ckpt.opt_m):
            assert slot.dtype == save_dtype
            assert slot.tobytes() == saved.tobytes()
        for slot, saved in zip(other_opt._v, ckpt.opt_v):
            assert slot.dtype == save_dtype
            assert slot.tobytes() == saved.tobytes()
        # The re-seated moments are live optimizer state, not copies on
        # the side: the next step is bit-identical on both.
        x = np.random.default_rng(6).normal(size=(16, 8))
        with substrate_dtype(save_dtype):
            for m, o in ((model, opt), (other, other_opt)):
                logits, l_aux = m(Tensor(x))
                (logits.sum() + l_aux).backward()
                o.step()
        for (name, p), (_, src) in zip(other.named_parameters(),
                                       model.named_parameters()):
            assert p.data.dtype == save_dtype, name
            assert p.data.tobytes() == src.data.tobytes(), name

    def test_meta_records_substrate_dtype(self, tmp_path):
        import json as _json

        from repro.core.substrate import substrate_dtype

        model, opt = self._state(np.float32)
        path = str(tmp_path / "ck.npz")
        # Meta records whatever dtype is active *at save time*.
        with substrate_dtype(np.float32):
            ckpt = capture_training_state(model, opt,
                                          np.random.default_rng(0),
                                          step=0)
            save_checkpoint(ckpt, path)
        with np.load(path, allow_pickle=False) as data:
            meta = _json.loads(bytes(data["meta"]).decode("utf-8"))
        assert meta["substrate_dtype"] == "float32"


class TestTornWrites:
    """A write that dies half-way (ROADMAP 7c) leaves the previous
    file at the final path, byte for byte, and nothing beside it."""

    def test_torn_checkpoint_save(self, tmp_path, monkeypatch):
        model = fresh_model()
        opt = Adam([p for p in model.parameters() if p.requires_grad])
        ckpt = capture_training_state(model, opt,
                                      np.random.default_rng(3), step=5)
        path = tmp_path / "ckpt_000005.npz"

        def torn_savez(file, **arrays):
            fh = open(file, "wb") if isinstance(file, str) else file
            fh.write(b"PK\x03\x04 half a zip member")
            fh.flush()
            raise OSError("disk full")

        with monkeypatch.context() as m:
            m.setattr(np, "savez", torn_savez)
            with pytest.raises(OSError):
                save_checkpoint(ckpt, str(path))
        assert not path.exists()  # never a partial first checkpoint
        assert list(tmp_path.iterdir()) == []

        save_checkpoint(ckpt, str(path))
        before = path.read_bytes()
        with monkeypatch.context() as m:
            m.setattr(np, "savez", torn_savez)
            with pytest.raises(OSError):
                save_checkpoint(ckpt, str(path))
        assert path.read_bytes() == before
        assert load_checkpoint(str(path)).step == 5
        assert list(tmp_path.iterdir()) == [path]

    def test_torn_manifest_and_metrics(self, tmp_path, monkeypatch):
        from repro.obs import runs

        class TornFile:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return self.fh.__exit__(*exc)

            def write(self, text):
                self.fh.write(text[:len(text) // 2])
                self.fh.flush()
                raise OSError("disk full")

        writer = runs.RunWriter.create(root=tmp_path, run_id="r",
                                       created_at=1.0)
        writer.update_summary({"loss": 0.5})
        writer.finalize(registry_snapshot={"counters": {"a": 1}})
        run_dir = tmp_path / "r"
        before = {p.name: p.read_bytes() for p in run_dir.iterdir()}
        monkeypatch.setattr(
            runs, "open", lambda *a, **kw: TornFile(open(*a, **kw)),
            raising=False)
        with pytest.raises(OSError):
            writer.update_summary({"loss": 0.25})
        with pytest.raises(OSError):
            writer.finalize(registry_snapshot={"counters": {"a": 2}})
        assert {p.name: p.read_bytes()
                for p in run_dir.iterdir()} == before
        assert RunStore(tmp_path).manifest("r").summary == {"loss": 0.5}


class TestResumeAcrossSubstrateConfig:
    """A checkpoint is portable across substrate *configuration*
    changes — the restored process may run with a different ambient
    dtype, and the saved state stays authoritative."""

    def test_float32_ckpt_resumed_under_float64_process(
            self, splits, tmp_path):
        """A float32 checkpoint restored in a float64-ambient process
        keeps its saved dtype end to end: the resumed run trains on
        float32 parameters and never silently widens them."""
        from repro.core.substrate import substrate_dtype

        train, test = splits
        ckpt_dir = str(tmp_path / "ckpts")
        with substrate_dtype(np.float32):
            first = train_model(fresh_model(), train, test, steps=8,
                                batch_size=64, seed=0,
                                checkpoint_every=8,
                                checkpoint_dir=ckpt_dir)
        ckpt = load_checkpoint(first.checkpoint_paths[0])
        assert all(a.dtype == np.float32
                   for a in ckpt.params.values())

        with substrate_dtype(np.float64):
            model = fresh_model()
            resumed = train_model(
                model, train, test, steps=16, batch_size=64, seed=0,
                resume_from=first.checkpoint_paths[0])
        # The restore overwrote the float64 init with the saved
        # float32 state, and training kept it there.
        assert all(p.data.dtype == np.float32
                   for _, p in model.named_parameters())
        assert np.isfinite(resumed.losses).all()
        assert len(resumed.losses) == 16

    def test_resumed_state_matches_ckpt_bitwise_after_zero_steps(
            self, splits, tmp_path):
        """Restore-then-first-step determinism: the restored params of
        a cross-dtype-process resume are byte-equal to the file."""
        from repro.core.substrate import substrate_dtype

        train, test = splits
        ckpt_dir = str(tmp_path / "ckpts")
        with substrate_dtype(np.float32):
            first = train_model(fresh_model(), train, test, steps=8,
                                batch_size=64, seed=0,
                                checkpoint_every=8,
                                checkpoint_dir=ckpt_dir)
        ckpt = load_checkpoint(first.checkpoint_paths[0])
        with substrate_dtype(np.float64):
            model = fresh_model(seed=9)
            opt = Adam([p for p in model.parameters()
                        if p.requires_grad])
        restore_training_state(model, opt, np.random.default_rng(0),
                               ckpt)
        for name, p in model.named_parameters():
            assert p.data.tobytes() == ckpt.params[name].tobytes()
        # The float64 store was re-seated in the checkpoint's float32.
        store, = opt.stores.values()
        assert store.dtype == np.float32
        assert all(np.shares_memory(p.data, store) for p in opt.params)
