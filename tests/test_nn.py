"""Tests for the trainable NN modules and the MoE layer module."""

import numpy as np
import pytest

from repro.autograd.tensor import Tensor
from repro.nn.models import DenseClassifier, MoEClassifier
from repro.nn.modules import FFN, LayerNorm, Linear, Module
from repro.nn.moe import MoE


@pytest.fixture(autouse=True)
def _float64_substrate():
    """Numeric gradient checks stay in float64: central differences at
    float32 lose half the mantissa to roundoff (see ISSUE 6 / DESIGN
    dtype conventions)."""
    from repro.core.substrate import substrate_dtype
    with substrate_dtype(np.float64):
        yield


@pytest.fixture
def rng():
    return np.random.default_rng(0)


class TestModules:
    def test_linear_forward(self, rng):
        layer = Linear(4, 3, rng)
        x = Tensor(rng.normal(size=(5, 4)))
        out = layer(x)
        np.testing.assert_allclose(
            out.data, x.data @ layer.weight.data + layer.bias.data)

    def test_linear_no_bias(self, rng):
        layer = Linear(4, 3, rng, bias=False)
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_parameters_recursive(self, rng):
        class Stack(Module):
            def __init__(self, *modules):
                self.modules = list(modules)

        model = Stack(Linear(4, 8, rng), LayerNorm(8), FFN(8, 16, rng))
        # linear w+b, ln w+b, ffn 2x(w+b) = 8 tensors.
        assert len(model.parameters()) == 8

    def test_named_parameters_paths(self, rng):
        ffn = FFN(4, 8, rng)
        names = dict(ffn.named_parameters())
        assert "fc1.weight" in names
        assert "fc2.bias" in names

    def test_freeze(self, rng):
        ffn = FFN(4, 8, rng)
        ffn.freeze()
        assert all(not p.requires_grad
                   for p in [ffn.fc1.weight, ffn.fc2.weight])
        assert ffn.parameters() == []

    def test_num_parameters(self, rng):
        layer = Linear(4, 3, rng)
        assert layer.num_parameters() == 4 * 3 + 3

    def test_ffn_rejects_bad_activation(self, rng):
        with pytest.raises(ValueError):
            FFN(4, 8, rng, activation="swish")

    def test_layernorm_normalizes(self, rng):
        ln = LayerNorm(16)
        x = Tensor(rng.normal(size=(8, 16)) * 10 + 5)
        out = ln(x).data
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-9)
        np.testing.assert_allclose(out.std(axis=-1), 1.0, atol=1e-3)

    def test_module_forward_abstract(self):
        with pytest.raises(NotImplementedError):
            Module()(1)


class TestMoEModule:
    def make(self, rng, **kwargs):
        defaults = dict(model_dim=8, hidden_dim=16, num_experts=4,
                        rng=rng, top_k=2, capacity_factor=2.0)
        defaults.update(kwargs)
        return MoE(**defaults)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("router", ["linear", "cosine"])
    def test_expert_weights_match_one_shot_draw(self, dtype, router):
        # The per-expert draw is bitwise the old one-shot float64 draw
        # cast to the substrate dtype, and leaves the generator in the
        # same state, so the router and every later draw see the same
        # values.
        from repro.core.substrate import substrate_dtype
        from tests.reference_ops import expert_weights_one_shot
        with substrate_dtype(dtype):
            rng = np.random.default_rng(11)
            moe = MoE(8, 16, 5, rng, router=router)
        oracle = np.random.default_rng(11)
        w1, w2 = expert_weights_one_shot(oracle, 8, 16, 5, dtype)
        assert moe.w1.data.dtype == moe.w2.data.dtype == dtype
        np.testing.assert_array_equal(moe.w1.data, w1)
        np.testing.assert_array_equal(moe.w2.data, w2)
        router_draws = ([(moe.gate.weight, 0.5)] if router == "linear"
                        else [(moe.cosine_proj.weight, 0.5),
                              (moe.expert_embed, 256 ** -0.5)])
        for param, scale in router_draws:
            np.testing.assert_array_equal(
                param.data,
                oracle.normal(0.0, scale, param.shape).astype(dtype))
        assert rng.bit_generator.state == oracle.bit_generator.state

    def test_forward_shapes(self, rng):
        moe = self.make(rng)
        out, l_aux = moe(Tensor(rng.normal(size=(32, 8))))
        assert out.shape == (32, 8)
        assert l_aux.data.size == 1

    def test_backward_reaches_all_params(self, rng):
        moe = self.make(rng)
        x = Tensor(rng.normal(size=(32, 8)), requires_grad=True)
        out, l_aux = moe(x)
        (out.sum() + l_aux).backward()
        for name, p in moe.named_parameters():
            assert p.grad is not None, name
        assert x.grad is not None

    def test_router_gets_gradient_with_k1(self, rng):
        # The Switch-style k=1 path must train the router through the
        # combine (the raw probability scales the output).
        moe = self.make(rng, top_k=1)
        x = Tensor(rng.normal(size=(32, 8)))
        out, _ = moe(x)
        out.sum().backward()
        assert np.abs(moe.gate.weight.grad).max() > 0

    def test_matches_functional_layer(self, rng):
        # The trainable forward must agree with the functional
        # expert-parallel forward run on the same layer at W = 1.
        from repro.core.config import MoEConfig
        from repro.moe.distributed import distributed_moe_forward
        moe = self.make(rng, capacity_factor=4.0)
        moe.w1.data = rng.normal(size=moe.w1.shape)
        x = rng.normal(size=(24, 8))
        out, _ = moe(Tensor(x))

        moe.freeze()
        cfg = MoEConfig(world_size=1, experts_per_gpu=4, model_dim=8,
                        hidden_dim=16, tokens_per_gpu=24, top_k=2,
                        capacity_factor=4.0)
        expected = distributed_moe_forward([x], moe, cfg).outputs[0]
        np.testing.assert_allclose(out.data, expected, atol=1e-9)

    def test_failed_expert_path_keeps_substrate_dtype(self, rng):
        # ISSUE 6: the degenerate-routing fallback used to hardcode
        # float64 gates, mixing precisions mid-step once an expert was
        # marked failed.  Under a float32 substrate every tensor the
        # step produces must stay float32.
        from repro.core.substrate import substrate_dtype

        with substrate_dtype(np.float32):
            moe = self.make(np.random.default_rng(0))
            moe.fail_expert(1)
            x = Tensor(np.random.default_rng(1).normal(size=(32, 8)),
                       requires_grad=True)
            out, l_aux = moe(x)
            assert out.data.dtype == np.float32
            assert l_aux.data.dtype == np.float32
            stats = moe.last_routing_stats
            assert stats is not None
            (out.sum() + l_aux).backward()
            assert x.grad.dtype == np.float32
            for name, p in moe.named_parameters():
                if p.grad is not None:
                    assert p.grad.dtype == np.float32, name

    def test_dynamic_top_k_per_call(self, rng):
        moe = self.make(rng)
        x = Tensor(rng.normal(size=(16, 8)))
        out1, _ = moe(x, top_k=1)
        out3, _ = moe(x, top_k=3)
        assert not np.allclose(out1.data, out3.data)

    def test_adaptive_capacity_never_drops(self, rng):
        moe = self.make(rng, capacity_factor=0.0)
        moe(Tensor(rng.normal(size=(64, 8))))
        assert moe.last_routing_stats.dropped_fraction == 0.0

    def test_bounded_capacity_records_factor(self, rng):
        moe = self.make(rng, capacity_factor=-1.0)
        moe(Tensor(rng.normal(size=(64, 8))))
        assert moe.last_effective_capacity_factor <= 1.0
        assert moe.last_routing_stats.needed_capacity_factor >= 1.0

    def test_bpr_flag(self, rng):
        moe = self.make(rng, batch_prioritized=True,
                        capacity_factor=0.5, top_k=1)
        out, _ = moe(Tensor(rng.normal(size=(64, 8))))
        assert moe.last_routing_stats.dropped_fraction > 0

    def test_cosine_router(self, rng):
        moe = self.make(rng, router="cosine")
        out, l_aux = moe(Tensor(rng.normal(size=(16, 8))))
        assert out.shape == (16, 8)
        out.sum().backward()
        assert moe.expert_embed.grad is not None

    def test_rejects_bad_config(self, rng):
        with pytest.raises(ValueError):
            self.make(rng, num_experts=0)
        with pytest.raises(ValueError):
            self.make(rng, top_k=9)
        with pytest.raises(ValueError):
            self.make(rng, router="mystery")

    def test_rejects_bad_input(self, rng):
        moe = self.make(rng)
        with pytest.raises(ValueError):
            moe(Tensor(rng.normal(size=(4, 8, 2))))
        # No tokens: rejected explicitly (T = 0 support is ROADMAP 7a).
        with pytest.raises(ValueError, match=">= 1 token"):
            moe(Tensor(np.zeros((0, 8))))


class TestClassifiers:
    def test_dense_forward(self, rng):
        model = DenseClassifier(6, 8, 16, 5, num_blocks=2, rng=rng)
        logits, l_aux = model(Tensor(rng.normal(size=(10, 6))))
        assert logits.shape == (10, 5)
        assert float(l_aux.data) == 0.0

    def test_moe_forward_and_aux(self, rng):
        model = MoEClassifier(6, 8, 16, 5, num_blocks=4, num_experts=4,
                              rng=rng)
        logits, l_aux = model(Tensor(rng.normal(size=(10, 6))))
        assert logits.shape == (10, 5)
        assert float(l_aux.data) > 0

    def test_moe_layer_placement_every_other(self, rng):
        model = MoEClassifier(6, 8, 16, 5, num_blocks=4, num_experts=4,
                              rng=rng)
        assert len(model.moe_layers()) == 2

    def test_freeze_moe_keeps_rest_trainable(self, rng):
        model = MoEClassifier(6, 8, 16, 5, num_blocks=2, num_experts=4,
                              rng=rng)
        n_all = len([p for p in model.parameters() if p.requires_grad])
        model.freeze_moe()
        n_left = len([p for p in model.parameters() if p.requires_grad])
        assert 0 < n_left < n_all

    def test_frozen_moe_stays_on_the_tape_for_a_trainable_encoder(self):
        # Table 10's recipe: the MoE layers take no gradient, but their
        # input does, so they must keep the tape and pass the encoder
        # exactly the gradient the unfrozen model gives it.
        from repro.autograd.functional import cross_entropy

        def encoder_grads(freeze: bool):
            model = MoEClassifier(6, 8, 16, 5, num_blocks=2,
                                  num_experts=4, top_k=2,
                                  rng=np.random.default_rng(0))
            if freeze:
                model.freeze_moe()
            data = np.random.default_rng(1)
            logits, l_aux = model(Tensor(data.normal(size=(24, 6))))
            loss = cross_entropy(logits, data.integers(0, 5, size=24))
            (loss + l_aux).backward()
            return [p.grad for p in model.encoder.parameters()]

        for frozen, trained in zip(encoder_grads(True),
                                   encoder_grads(False)):
            assert frozen.tobytes() == trained.tobytes()

    def test_train_step_tape_nodes(self, monkeypatch):
        # One step of the benchmark's train_small model and loss: each
        # dense layer (encoder, LayerNorm, dense FFN, head) is one tape
        # node, and so are the router's selected gates and l_aux, so the
        # step records 18 (26 with the router's ten-node composed chain,
        # 32 when Linear and FFN were composed too).
        from repro.autograd.functional import cross_entropy

        ops = []
        real = Tensor.from_op

        def counting(*args, **kwargs):
            ops.append(args[3])
            return real(*args, **kwargs)

        monkeypatch.setattr(Tensor, "from_op", staticmethod(counting))
        model = MoEClassifier(8, 32, 64, 4, num_blocks=2, num_experts=8,
                              top_k=2, capacity_factor=1.25,
                              rng=np.random.default_rng(0))
        data = np.random.default_rng(1)
        logits, l_aux = model(Tensor(data.normal(size=(256, 8))))
        loss = cross_entropy(logits, data.integers(0, 4, size=256)) \
            + l_aux * 0.01
        loss.backward()
        assert len(ops) == 18
        assert ops.count("linear") == 3 and ops.count("ffn") == 1
        assert ops.count("route_gates") == ops.count("route_l_aux") == 1

    def test_moe_parameter_names_are_unique_paths(self, rng):
        # MoE keeps its own tensors a second time for the frozen-path
        # check; each is still named once, under its attribute.
        for router, names in (("linear", ["w1", "w2", "gate.weight"]),
                              ("cosine", ["w1", "w2", "cosine_proj.weight",
                                          "expert_embed",
                                          "log_temperature"])):
            moe = MoE(8, 16, 4, rng, router=router)
            assert [n for n, _ in moe.named_parameters()] == names
            assert len(moe.parameters()) == len(names)

    def test_set_inference_capacity(self, rng):
        model = MoEClassifier(6, 8, 16, 5, num_blocks=2, num_experts=4,
                              rng=rng, capacity_factor=1.0)
        model.set_inference_capacity(0.5)
        assert all(layer.capacity_policy.capacity_factor == 0.5
                   for layer in model.moe_layers())

    def test_features_shape(self, rng):
        model = MoEClassifier(6, 8, 16, 5, num_blocks=2, num_experts=4,
                              rng=rng)
        feats = model.features(Tensor(rng.normal(size=(7, 6))))
        assert feats.shape == (7, 8)
