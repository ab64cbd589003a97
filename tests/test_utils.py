"""Tests for RNG management, timers and config helpers."""

import dataclasses
import time

import numpy as np
import pytest

from repro.core.config import asdict_shallow
from repro.utils import new_rng, spawn_rngs, seed_everything, RngMixin, Timer


class TestRng:
    def test_new_rng_deterministic(self):
        assert new_rng(5).integers(0, 1000) == new_rng(5).integers(0, 1000)

    def test_spawn_rngs_independent_streams(self):
        a, b = spawn_rngs(7, 2)
        assert not np.array_equal(a.integers(0, 1000, 10), b.integers(0, 1000, 10))

    def test_spawn_deterministic(self):
        a1, _ = spawn_rngs(7, 2)
        a2, _ = spawn_rngs(7, 2)
        assert np.array_equal(a1.integers(0, 1000, 10), a2.integers(0, 1000, 10))

    def test_seed_everything(self):
        rng = seed_everything(3)
        assert isinstance(rng, np.random.Generator)

    def test_mixin(self):
        class Thing(RngMixin):
            pass

        t = Thing()
        t.seed(11)
        first = t.rng.integers(0, 100)
        t.seed(11)
        assert t.rng.integers(0, 100) == first


class TestTimer:
    def test_sections_accumulate(self):
        timer = Timer()
        with timer.section("a"):
            time.sleep(0.01)
        with timer.section("a"):
            pass
        assert timer.totals()["a"] >= 0.01
        assert timer.counts()["a"] == 2

    def test_add_and_total(self):
        timer = Timer()
        timer.add("sim", 1.5)
        timer.add("sim", 0.5)
        assert timer.totals()["sim"] == pytest.approx(2.0)
        assert timer.total() == pytest.approx(2.0)

    def test_reset(self):
        timer = Timer()
        timer.add("x", 1.0)
        timer.reset()
        assert timer.totals() == {}
        assert timer.counts() == {}


class TestMisc:
    def test_asdict_shallow(self):
        @dataclasses.dataclass
        class Cfg:
            x: int = 1
            arr: np.ndarray = dataclasses.field(default_factory=lambda: np.zeros(3))

        cfg = Cfg()
        d = asdict_shallow(cfg)
        assert d["x"] == 1 and d["arr"] is cfg.arr

    def test_asdict_shallow_rejects_non_dataclass(self):
        with pytest.raises(TypeError):
            asdict_shallow({"x": 1})
