"""Tests for the optimiser and gradient clipping."""

import numpy as np
import pytest

from repro.nn import Linear, Parameter
from repro.optim import Adam, clip_grad_norm
from repro.tensor import Tensor


def quadratic_param(start=5.0):
    return Parameter(np.array([start]))


def run_optimizer(opt_cls, steps=200, **kwargs):
    p = quadratic_param()
    opt = opt_cls([p], **kwargs)
    for _ in range(steps):
        opt.zero_grad()
        loss = (p * p).sum()
        loss.backward()
        opt.step()
    return float(p.data[0])


class TestOptimizers:
    def test_adam_converges_on_quadratic(self):
        assert abs(run_optimizer(Adam, lr=0.1, steps=400)) < 1e-2

    def test_adam_beats_initial_loss_on_regression(self):
        rng = np.random.default_rng(0)
        # float32, the program's dtype: parameters, gradients and moments.
        x = rng.standard_normal((64, 5)).astype(np.float32)
        true_w = rng.standard_normal((5, 1)).astype(np.float32)
        y = x @ true_w
        lin = Linear(5, 1, rng=rng)
        opt = Adam(lin.parameters(), lr=1e-2)
        losses = []
        for _ in range(150):
            opt.zero_grad()
            pred = lin(Tensor(x))
            loss = ((pred - Tensor(y)) ** 2).mean()
            loss.backward()
            opt.step()
            losses.append(float(loss.data))
        assert losses[-1] < 0.05 * losses[0]
        assert all(a.dtype == np.float32 for a in
                   [loss.data, *opt._m, *opt._v, *(p.data for p in opt.params)])

    def test_weight_decay_shrinks_weights(self):
        p = Parameter(np.full(3, 10.0))
        opt = Adam([p], lr=0.5, weight_decay=0.5)
        for _ in range(50):
            opt.zero_grad()
            p.grad = np.zeros_like(p.data)   # pure decay
            opt.step()
        assert np.all(np.abs(p.data) < 1.0)

    def test_empty_params_rejected(self):
        with pytest.raises(ValueError):
            Adam([], lr=1e-3)

    def test_bad_lr_rejected(self):
        with pytest.raises(ValueError):
            Adam([quadratic_param()], lr=0.0)

    def test_step_skips_none_grads(self):
        p = quadratic_param()
        before = p.data.copy()
        Adam([p], lr=0.1).step()
        assert np.allclose(p.data, before)

    def test_adam_state_dict(self):
        p = quadratic_param()
        opt = Adam([p], lr=0.1)
        opt.zero_grad()
        (p * p).sum().backward()
        opt.step()
        state = opt.state_dict()
        assert state["t"] == 1
        opt2 = Adam([quadratic_param()], lr=0.1)
        opt2.load_state_dict(state)
        assert opt2.t == 1


class TestGradClip:
    def test_clip_reduces_norm(self):
        p = Parameter(np.zeros(4))
        p.grad = np.full(4, 10.0)
        norm = clip_grad_norm([p], max_norm=1.0)
        assert norm == pytest.approx(20.0)
        assert np.linalg.norm(p.grad) == pytest.approx(1.0, rel=1e-6)

    def test_clip_noop_when_small(self):
        p = Parameter(np.zeros(4))
        p.grad = np.full(4, 0.01)
        clip_grad_norm([p], max_norm=1.0)
        assert np.allclose(p.grad, 0.01)

    def test_clip_empty(self):
        assert clip_grad_norm([Parameter(np.zeros(2))], 1.0) == 0.0

