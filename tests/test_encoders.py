"""Tests for the time / frequency / identity encoders."""

import numpy as np
import pytest

from repro.encoders import (LearnableTimeEncoder, FixedTimeEncoder, FrequencyEncoder,
                            IdentityEncoder, sort_by_recency)
from repro.tensor import Tensor, gradcheck


class TestTimeEncoders:
    def test_learnable_shapes_and_range(self):
        enc = LearnableTimeEncoder(8, rng=np.random.default_rng(0))
        out = enc(np.array([[0.0, 1.0, 100.0], [5.0, 2.0, 3.0]]))
        assert out.shape == (2, 3, 8)
        assert np.all(np.abs(out.data) <= 1.0)

    def test_learnable_zero_delta_is_cos_bias(self):
        enc = LearnableTimeEncoder(4, rng=np.random.default_rng(0))
        out = enc(np.zeros(3))
        assert np.allclose(out.data, np.cos(enc.b.data), atol=1e-12)

    def test_learnable_gradients_flow(self):
        enc = LearnableTimeEncoder(6, rng=np.random.default_rng(1))
        out = enc(np.linspace(0, 10, 5))
        out.sum().backward()
        assert enc.w.grad is not None and np.any(enc.w.grad != 0)
        assert enc.b.grad is not None

    @pytest.mark.usefixtures("float64_compute")
    def test_learnable_gradcheck(self):
        rng = np.random.default_rng(3)
        delta = np.abs(rng.standard_normal((3, 2)))
        enc = LearnableTimeEncoder(4, rng=rng)
        # gradcheck perturbs the parameter arrays in place, so a lambda that
        # closes over the encoder sees every perturbation.
        assert gradcheck(lambda w, b: enc(delta).sum(), [enc.w, enc.b],
                         atol=1e-3, rtol=1e-2)

    def test_fixed_no_parameters(self):
        enc = FixedTimeEncoder(8)
        assert enc.parameters() == []

    def test_fixed_frequencies_decay(self):
        enc = FixedTimeEncoder(16)
        assert np.all(np.diff(enc.omega) <= 0)
        assert enc.omega[0] == pytest.approx(1.0)

    def test_fixed_distinguishes_time_scales(self):
        enc = FixedTimeEncoder(16)
        recent = enc(np.array([1.0])).data
        old = enc(np.array([1000.0])).data
        assert not np.allclose(recent, old)

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            LearnableTimeEncoder(0)
        with pytest.raises(ValueError):
            FixedTimeEncoder(-1)

    def test_accepts_tensor_input(self):
        enc = FixedTimeEncoder(4)
        out = enc(Tensor(np.ones((2, 3))))
        assert out.shape == (2, 3, 4)


class TestFrequencyEncoder:
    def test_shapes(self):
        enc = FrequencyEncoder(10)
        out = enc(np.arange(12).reshape(3, 4))
        assert out.shape == (3, 4, 10)

    def test_alternating_sin_cos(self):
        enc = FrequencyEncoder(6)
        out = enc(np.array([3.0])).data[0]
        angles = 3.0 * enc.inv_wavelength
        assert np.allclose(out[0], np.sin(angles[0]))
        assert np.allclose(out[1], np.cos(angles[1]))

    @pytest.mark.usefixtures("float64_compute")
    @pytest.mark.parametrize("dim", [1, 2, 7, 8])
    def test_equals_select_after_both_transcendentals(self, dim):
        """sin on the even and cos on the odd channels only — bit for bit what
        evaluating both over every channel and selecting gave."""
        enc = FrequencyEncoder(dim)
        freq = np.random.default_rng(dim).integers(0, 40, (50, 10))
        angles = freq.astype(np.float64)[..., None] * enc.inv_wavelength
        both = np.where(np.arange(dim) % 2 == 0, np.sin(angles), np.cos(angles))
        assert np.array_equal(enc(freq).data, both)

    def test_distinguishes_frequencies(self):
        enc = FrequencyEncoder(8)
        assert not np.allclose(enc(np.array([1])).data, enc(np.array([7])).data)

    def test_bounded(self):
        enc = FrequencyEncoder(8)
        out = enc(np.arange(100)).data
        assert np.all(np.abs(out) <= 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            FrequencyEncoder(0)


class TestIdentityEncoder:
    def test_pairwise_indicator(self):
        enc = IdentityEncoder(4)
        nodes = np.array([[7, 7, 3, 9]])
        out = enc(nodes).data[0]
        assert out[0, 1] == 1 and out[1, 0] == 1
        assert out[0, 2] == 0
        assert np.allclose(np.diag(out), 1)

    def test_mask_zeroes_padded(self):
        enc = IdentityEncoder(3)
        nodes = np.array([[5, 5, 0]])
        mask = np.array([[True, True, False]])
        out = enc(nodes, mask).data[0]
        assert np.allclose(out[2], 0)
        assert np.allclose(out[:, 2], 0)

    def test_budget_validation(self):
        enc = IdentityEncoder(4)
        with pytest.raises(ValueError):
            enc(np.zeros((2, 3), dtype=int))
        with pytest.raises(ValueError):
            IdentityEncoder(0)

    def test_sort_by_recency(self):
        times = np.array([[1.0, 5.0, 3.0]])
        nodes = np.array([[10, 20, 30]])
        mask = np.array([[True, True, True]])
        order = sort_by_recency(nodes, times, mask)
        assert order[0].tolist() == [1, 2, 0]

    def test_sort_by_recency_pushes_padding_last(self):
        times = np.array([[9.0, 5.0, 3.0]])
        mask = np.array([[False, True, True]])
        order = sort_by_recency(np.zeros((1, 3), dtype=int), times, mask)
        assert order[0, -1] == 0
