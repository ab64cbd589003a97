"""Tests for adaptive mini-batch selection and the neighbor decoders."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (AdaptiveMiniBatchSelector, ChronologicalSelector, make_decoder,
                        LinearDecoder, GATDecoder, GATv2Decoder, TransformerDecoder)
from repro.tensor import Tensor

RNG = np.random.default_rng(0)


class TestChronologicalSelector:
    def test_covers_training_set_in_order(self):
        sel = ChronologicalSelector(num_train=95, batch_size=30)
        batches = list(sel.epoch())
        assert len(batches) == sel.num_batches == 4
        joined = np.concatenate(batches)
        assert np.array_equal(joined, np.arange(95))

    def test_validation(self):
        with pytest.raises(ValueError):
            ChronologicalSelector(0, 10)
        with pytest.raises(ValueError):
            ChronologicalSelector(10, 0)


class TestAdaptiveMiniBatchSelector:
    def test_initial_distribution_uniform(self):
        sel = AdaptiveMiniBatchSelector(100, 10, seed=0)
        assert np.allclose(sel.probabilities(), 0.01)
        assert sel.effective_sample_size() == pytest.approx(100)

    def test_update_follows_eq11(self):
        sel = AdaptiveMiniBatchSelector(10, 5, gamma=0.1, seed=0)
        idx = np.array([0, 3])
        logits = np.array([2.0, -2.0])
        sel.update(idx, logits)
        expected = 1 / (1 + np.exp(-logits)) + 0.1
        assert np.allclose(sel.scores[idx], expected)
        assert sel.scores[1] == 1.0   # untouched entries keep their score

    def test_update_shape_mismatch(self):
        sel = AdaptiveMiniBatchSelector(10, 5)
        with pytest.raises(ValueError):
            sel.update(np.array([0, 1]), np.array([1.0]))

    def test_high_score_edges_sampled_more(self):
        sel = AdaptiveMiniBatchSelector(200, 20, gamma=0.0, seed=1)
        hot = np.arange(20)
        sel.scores[:] = 0.01
        sel.scores[hot] = 10.0
        counts = np.zeros(200)
        for _ in range(100):
            batch = sel.sample_batch()
            counts[batch] += 1
        assert counts[hot].mean() > 5 * counts[20:].mean()

    def test_gamma_keeps_exploration(self):
        """With a gamma floor, even zero-logit edges keep non-trivial probability."""
        sel = AdaptiveMiniBatchSelector(50, 10, gamma=0.5, seed=2)
        sel.update(np.arange(50), np.full(50, -20.0))   # all near-zero sigmoid
        assert sel.probabilities().min() > 0.0
        assert sel.effective_sample_size() == pytest.approx(50, rel=1e-6)

    def test_batches_are_unique_within_batch(self):
        sel = AdaptiveMiniBatchSelector(40, 15, seed=3)
        for batch in sel.epoch():
            assert batch.size == np.unique(batch).size

    def test_epoch_batch_count_matches_chronological(self):
        ada = AdaptiveMiniBatchSelector(101, 20, seed=0)
        chrono = ChronologicalSelector(101, 20)
        assert len(list(ada.epoch())) == len(list(chrono.epoch()))

    def test_gamma_validation(self):
        with pytest.raises(ValueError):
            AdaptiveMiniBatchSelector(10, 5, gamma=-0.1)


@settings(max_examples=20, deadline=None)
@given(num_train=st.integers(5, 200), batch=st.integers(1, 50),
       seed=st.integers(0, 100))
def test_property_selector_indices_always_valid(num_train, batch, seed):
    sel = AdaptiveMiniBatchSelector(num_train, batch, seed=seed)
    sel.update(np.arange(num_train),
               np.random.default_rng(seed).standard_normal(num_train))
    out = sel.sample_batch()
    assert out.size == min(batch, num_train)
    assert out.min() >= 0 and out.max() < num_train
    probs = sel.probabilities()
    assert np.isclose(probs.sum(), 1.0)
    assert np.all(probs >= 0)


@pytest.mark.usefixtures("float64_compute")
class TestDecoders:
    ENC, TGT, R, M = 20, 12, 6, 8

    def _inputs(self):
        z = Tensor(RNG.standard_normal((self.R, self.M, self.ENC)), requires_grad=True)
        v = Tensor(RNG.standard_normal((self.R, self.TGT)), requires_grad=True)
        return z, v

    @pytest.mark.parametrize("kind,cls", [
        ("linear", LinearDecoder), ("gat", GATDecoder),
        ("gatv2", GATv2Decoder), ("transformer", TransformerDecoder)])
    def test_factory_and_shapes(self, kind, cls):
        dec = make_decoder(kind, self.ENC, self.TGT, rng=RNG)
        assert isinstance(dec, cls)
        z, v = self._inputs()
        scores = dec(z, v)
        assert scores.shape == (self.R, self.M)

    @pytest.mark.parametrize("kind", ["linear", "gat", "gatv2", "transformer"])
    def test_gradients_reach_parameters(self, kind):
        dec = make_decoder(kind, self.ENC, self.TGT, rng=RNG)
        z, v = self._inputs()
        dec(z, v).sum().backward()
        assert any(p.grad is not None and np.any(p.grad != 0) for p in dec.parameters())
        assert z.grad is not None

    def test_target_matters_for_attention_decoders(self):
        """GAT/GATv2/transformer scores must depend on the target embedding."""
        for kind in ("gat", "gatv2", "transformer"):
            dec = make_decoder(kind, self.ENC, self.TGT, rng=np.random.default_rng(5))
            z, _ = self._inputs()
            v1 = Tensor(RNG.standard_normal((self.R, self.TGT)))
            v2 = Tensor(RNG.standard_normal((self.R, self.TGT)))
            assert not np.allclose(dec(z, v1).data, dec(z, v2).data), kind

    def test_unknown_decoder(self):
        with pytest.raises(ValueError):
            make_decoder("mlp", 4, 4)
