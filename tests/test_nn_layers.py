"""Tests for the neural-network layers and the Module system."""

import numpy as np
import pytest

from repro.nn import (Module, ModuleList, Parameter, Linear, LayerNorm, Dropout, MLP,
                      Sequential, Activation, Identity, MixerBlock, TemporalAttention)
from repro.tensor import Tensor
from repro.tensor.gradcheck import gradcheck

from test_tensor_ops import (assert_mixer_agrees, composed_attention,  # noqa: E402
                             composed_mixer_block, node_mixer_block, run_mixer,
                             scaled_dot_product_attention)

RNG = np.random.default_rng(3)

# The engine's oracles and gradient checks run in float64 — through the same
# kernels the float32 program runs (see ``conftest.float64_compute``).
pytestmark = pytest.mark.usefixtures("float64_compute")


class TestModuleSystem:
    def test_parameter_registration(self):
        class Net(Module):
            def __init__(self):
                super().__init__()
                self.w = Parameter(np.ones(3))
                self.inner = Linear(2, 2, rng=RNG)

        net = Net()
        names = dict(net.named_parameters())
        assert "w" in names and "inner.weight" in names and "inner.bias" in names
        assert net.num_parameters() == 3 + 4 + 2

    def test_train_eval_propagates(self):
        net = Sequential(Linear(2, 2, rng=RNG), Dropout(0.5))
        net.eval()
        assert all(not m.training for _, m in net.named_modules())
        net.train()
        assert all(m.training for _, m in net.named_modules())

    def test_state_dict_roundtrip(self):
        a = MLP(4, [8], 2, rng=np.random.default_rng(0))
        b = MLP(4, [8], 2, rng=np.random.default_rng(1))
        state = a.state_dict()
        b.load_state_dict(state)
        x = Tensor(RNG.standard_normal((3, 4)))
        assert np.allclose(a(x).data, b(x).data)

    def test_state_dict_strict_mismatch(self):
        a = Linear(2, 2, rng=RNG)
        with pytest.raises(KeyError):
            a.load_state_dict({"weight": np.zeros((2, 2))})  # missing bias

    def test_state_dict_shape_mismatch(self):
        a = Linear(2, 2, rng=RNG)
        bad = a.state_dict()
        bad["weight"] = np.zeros((3, 3))
        with pytest.raises(ValueError):
            a.load_state_dict(bad)

    def test_zero_grad(self):
        lin = Linear(3, 2, rng=RNG)
        lin(Tensor(RNG.standard_normal((4, 3)))).sum().backward()
        assert lin.weight.grad is not None
        lin.zero_grad()
        assert lin.weight.grad is None

    def test_module_list(self):
        ml = ModuleList([Linear(2, 2, rng=RNG), Linear(2, 2, rng=RNG)])
        assert len(ml) == 2
        assert len(list(ml[0].parameters())) == 2
        assert len(Sequential(*list(ml)).parameters()) == 4


class TestLayers:
    def test_linear_shapes_and_values(self):
        lin = Linear(4, 3, rng=RNG)
        x = Tensor(RNG.standard_normal((5, 4)))
        out = lin(x)
        assert out.shape == (5, 3)
        assert np.allclose(out.data, x.data @ lin.weight.data.T + lin.bias.data)

    def test_linear_no_bias(self):
        lin = Linear(4, 3, bias=False, rng=RNG)
        assert lin.bias is None
        assert len(lin.parameters()) == 1

    def test_linear_gradcheck(self):
        lin = Linear(3, 2, rng=RNG)
        x = Tensor(RNG.standard_normal((4, 3)), requires_grad=True)
        gradcheck(lambda a: lin(a).sum(), [x])
        gradcheck(lambda w: (Tensor(x.data) @ w.T + lin.bias).sum(), [lin.weight])

    def test_layernorm_gradcheck(self):
        ln = LayerNorm(6)
        x = Tensor(RNG.standard_normal((3, 6)), requires_grad=True)
        gradcheck(lambda a: ln(a).sum(), [x])

    def test_mlp_depth(self):
        mlp = MLP(4, [8, 8], 2, dropout=0.1, rng=RNG)
        out = mlp(Tensor(RNG.standard_normal((5, 4))))
        assert out.shape == (5, 2)

    def test_activation_unknown(self):
        with pytest.raises(ValueError):
            Activation("nope")

    def test_identity(self):
        x = Tensor(RNG.standard_normal((2, 2)))
        assert np.allclose(Identity()(x).data, x.data)

    def test_dropout_probability_validation(self):
        with pytest.raises(ValueError):
            Dropout(1.5)


class TestMixer:
    def test_shapes_preserved(self):
        block = MixerBlock(num_tokens=6, dim=10, rng=RNG)
        x = Tensor(RNG.standard_normal((4, 6, 10)))
        assert block(x).shape == (4, 6, 10)

    def test_mask_blocks_leakage(self):
        """Changing a masked-out token must not change valid outputs."""
        block = MixerBlock(num_tokens=5, dim=8, rng=np.random.default_rng(0))
        block.eval()
        mask = np.array([[True, True, True, False, False]] * 2)
        x1 = RNG.standard_normal((2, 5, 8))
        x2 = x1.copy()
        x2[:, 3:, :] += 100.0   # only padded tokens differ
        out1 = block(Tensor(x1), mask=mask).data
        out2 = block(Tensor(x2), mask=mask).data
        assert np.allclose(out1[:, :3], out2[:, :3])

    def test_gradients_flow(self):
        block = MixerBlock(num_tokens=4, dim=6, rng=RNG)
        x = Tensor(RNG.standard_normal((3, 4, 6)), requires_grad=True)
        block(x).sum().backward()
        assert x.grad is not None and np.any(x.grad != 0)

    def test_matches_composed_modules(self):
        """GraphMixer's and the adaptive sampler's configurations against the
        block composed from its own LayerNorm / FeedForward modules."""
        for tokens, dim, kwargs in [(5, 32, {}), (10, 34, {"token_expansion": 0.5,
                                                            "channel_expansion": 1.0})]:
            block = MixerBlock(tokens, dim, rng=np.random.default_rng(0), **kwargs)
            x, coeff = RNG.standard_normal((2, 7, tokens, dim))
            mask = RNG.random((7, tokens)) < 0.7
            for m in (mask, None):
                assert_mixer_agrees(run_mixer(node_mixer_block, block, x, m, coeff),
                                    run_mixer(composed_mixer_block, block, x, m, coeff))

    def test_dropout_consumes_the_composed_draws(self):
        """In training mode the node draws its keep-masks from the two
        ``Dropout`` generators in the composed order and shapes — the token
        mask at ``(R, d, h)``, applied through its ``(R, h, d)`` view — so it
        reproduces the composed output, gradients and generator state."""
        x, coeff = RNG.standard_normal((2, 6, 5, 8))
        mask = RNG.random((6, 5)) < 0.7
        results, states = [], []
        for forward in (node_mixer_block, composed_mixer_block):
            block = MixerBlock(5, 8, dropout=0.3, rng=np.random.default_rng(11))
            assert block.token_mlp.drop._rng is block.channel_mlp.drop._rng
            results.append(run_mixer(forward, block, x, mask, coeff))
            states.append(block.token_mlp.drop._rng.bit_generator.state)
        assert_mixer_agrees(*results)
        assert states[0] == states[1]
        # dropout was active: the eval-mode output differs, and draws nothing
        block.eval()
        quiet = block(Tensor(x), mask=mask)
        assert not np.allclose(quiet.data, results[0][0].data)
        assert block.token_mlp.drop._rng.bit_generator.state == states[1]


class TestAttention:
    """The composed attention TGAT's one-node aggregate is tested against."""

    def test_sdpa_uniform_when_equal_keys(self):
        q = Tensor(np.ones((2, 1, 4)))
        k = Tensor(np.ones((2, 5, 4)))
        v = Tensor(RNG.standard_normal((2, 5, 4)))
        out, attn = scaled_dot_product_attention(q, k, v)
        assert np.allclose(attn.data, 0.2)
        assert np.allclose(out.data[:, 0], v.data.mean(axis=1))

    def test_sdpa_mask(self):
        q = Tensor(RNG.standard_normal((2, 1, 4)))
        k = Tensor(RNG.standard_normal((2, 5, 4)))
        v = Tensor(RNG.standard_normal((2, 5, 4)))
        mask = np.array([[True, True, False, False, False]] * 2)
        _, attn = scaled_dot_product_attention(q, k, v, mask=mask)
        assert np.allclose(attn.data[:, :, 2:], 0)

    def test_temporal_attention_shapes(self):
        att = TemporalAttention(query_dim=6, message_dim=9, out_dim=8, num_heads=2, rng=RNG)
        out, attn = composed_attention(att, Tensor(RNG.standard_normal((3, 6))),
                                       Tensor(RNG.standard_normal((3, 7, 9))))
        assert out.shape == (3, 8)
        assert attn.shape == (3, 2, 7)

    def test_temporal_attention_head_divisibility(self):
        with pytest.raises(ValueError):
            TemporalAttention(4, 4, 7, num_heads=2)

    def test_attention_ignores_masked_messages(self):
        att = TemporalAttention(query_dim=4, message_dim=4, out_dim=4, num_heads=1,
                                dropout=0.0, rng=np.random.default_rng(0))
        att.eval()
        q = Tensor(RNG.standard_normal((1, 4)))
        msgs1 = RNG.standard_normal((1, 3, 4))
        msgs2 = msgs1.copy()
        msgs2[:, 2] += 50.0
        mask = np.array([[True, True, False]])
        out1, _ = composed_attention(att, q, Tensor(msgs1), mask=mask)
        out2, _ = composed_attention(att, q, Tensor(msgs2), mask=mask)
        assert np.allclose(out1.data, out2.data)
