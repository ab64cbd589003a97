"""Tests for RNG management and timers."""

import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import repro
from repro.utils import timer as timer_mod
from repro.utils import new_rng, spawn_rngs, Timer
from repro.utils.rng import TileGenerator


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

    def test_tile_generator_is_default_rng_built_at_its_first_draw(self):
        seed = int(np.random.default_rng(3).bit_generator.random_raw())
        tile, want = TileGenerator(seed), np.random.default_rng(seed)
        assert tile._generator is None
        assert np.array_equal(tile.random(5), want.random(5))
        assert np.array_equal(tile.gumbel(size=(2, 3)), want.gumbel(size=(2, 3)))
        assert tile.bit_generator.state == want.bit_generator.state


class TestTimer:
    def test_sections_accumulate(self):
        timer = Timer()
        with timer.section("a"):
            time.sleep(0.01)
        with timer.section("a"):
            pass
        assert timer.totals()["a"] >= 0.01

    def test_reset(self):
        timer = Timer()
        with timer.section("x"):
            pass
        timer.reset()
        assert timer.totals() == {}

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
                with timer.section("NF"):
                    pass
                with timer.section("FS"):
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
        assert timer.totals() == {"NF": threads * rounds, "FS": threads * rounds}


def test_version_matches_pyproject():
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    line = next(line for line in pyproject.read_text().splitlines()
                if line.startswith("version = "))
    assert line == f'version = "{repro.__version__}"'

