"""Tests for RNG management, timers and config helpers."""

import dataclasses
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import repro
from repro.core.config import asdict_shallow
from repro.utils import timer as timer_mod
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

    def test_concurrent_updates_are_not_lost(self, monkeypatch):
        # The evaluator's scoring threads record NF / FS / AS into one timer.
        threads, rounds = 8, 2000
        clock = threading.local()

        def tick():                      # every section lasts exactly 1.0
            clock.now = getattr(clock, "now", 0.0) + 1.0
            return clock.now
        monkeypatch.setattr(timer_mod, "time", SimpleNamespace(perf_counter=tick))
        timer = Timer()
        start = threading.Barrier(threads, timeout=30)

        def record():
            start.wait()
            for _ in range(rounds):
                timer.add("sim", 1.0)
                with timer.section("NF"):
                    pass

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=record) for _ in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert timer.totals() == {"sim": threads * rounds, "NF": threads * rounds}
        assert timer.counts() == {"sim": threads * rounds, "NF": threads * rounds}


def test_version_matches_pyproject():
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    line = next(line for line in pyproject.read_text().splitlines()
                if line.startswith("version = "))
    assert line == f'version = "{repro.__version__}"'


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
