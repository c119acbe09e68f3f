import dataclasses
import math
import os
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qkfmag.core import (
    INFINITE,
    PhysicalParams,
    TimeGrid,
    WorkerError,
    collapse_rate,
    forked_map,
    gamma_from_cycles,
    larmor_frequency,
    make_grid,
    t2_bound,
    validate_params,
)
from qkfmag.montecarlo import checkpoints_for_times


def params(**kw):
    base = dict(j_total=4e6, gamma=2 * math.pi * 1e6, b_true=1e-6, meas_strength=1e5,
                efficiency=1.0, prior_b_variance=1e-8, t_total=2e-3)
    base.update(kw)
    return PhysicalParams(**base)


class TestValidateParams:
    def test_fig2_set_is_valid(self):
        p = params()
        assert validate_params(p) is p

    def test_zero_efficiency_rejected(self):
        with pytest.raises(ValueError, match=r"efficiency must be in \(0,1\]"):
            validate_params(params(efficiency=0.0))

    def test_negative_meas_strength_rejected(self):
        with pytest.raises(ValueError, match="measurement strength must be positive"):
            validate_params(params(meas_strength=-1.0))

    def test_all_violations_reported(self):
        with pytest.raises(ValueError) as err:
            validate_params(params(efficiency=2.0, t_total=-1.0, j_total=0.0))
        msg = str(err.value)
        assert "efficiency" in msg and "t_total" in msg and "j_total" in msg

    def test_infinite_prior_allowed(self):
        validate_params(params(prior_b_variance=INFINITE))

    def test_negative_prior_rejected(self):
        with pytest.raises(ValueError, match="prior_b_variance"):
            validate_params(params(prior_b_variance=-1e-9))

    @pytest.mark.parametrize("field, value", [("efficiency", 0.0), ("t_total", -1.0)])
    def test_replace_validates(self, field, value):
        # construction validates, so no changed copy escapes the invariants
        with pytest.raises(ValueError, match=f"invalid parameters: {field}: "):
            dataclasses.replace(params(), **{field: value})


class TestGammaConversion:
    def test_one_khz_per_mg(self):
        assert gamma_from_cycles(1.0) == pytest.approx(6.283185307179586e6, rel=1e-12)

    def test_linearity(self):
        assert gamma_from_cycles(0.5) == pytest.approx(math.pi * 1e6, rel=1e-12)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            gamma_from_cycles(0.0)

    @given(st.floats(min_value=1e-6, max_value=1e6))
    def test_round_trip(self, v):
        assert gamma_from_cycles(v) / (2 * math.pi * 1e6) == pytest.approx(v, rel=1e-12)


class TestDerivedQuantities:
    def test_larmor(self):
        assert larmor_frequency(params()) == pytest.approx(2 * math.pi, rel=1e-12)

    def test_t2_bound(self):
        assert t2_bound(params()) == pytest.approx(2e-5, rel=1e-12)

    def test_pure_functions(self):
        p = params()
        assert larmor_frequency(p) == larmor_frequency(p)
        assert collapse_rate(p) == 2 * p.efficiency * p.meas_strength * p.j_total


class TestTimeGrid:
    def test_uniform(self):
        g = TimeGrid.uniform(0.25, 4)
        np.testing.assert_allclose(g.times, [0.0, 0.25, 0.5, 0.75, 1.0])
        assert g.t_total == 1.0
        assert g.n_intervals == 4

    def test_times_match_concatenated_formula(self):
        # the in-place fill is bitwise [0, prefix, start + dt * (1..n)]
        for g in (TimeGrid.uniform(0.1, 1000), TimeGrid.uniform(1e-8, 3),
                  TimeGrid.with_prefix(dt=1e-3, t_total=1.0, t_first=1e-7, ratio=1.3),
                  make_grid(params())):
            start = g.prefix[-1] if g.prefix.size else 0.0
            want = np.concatenate([[0.0], g.prefix, start + g.dt * np.arange(1, g.n_steps + 1)])
            assert g.times.tobytes() == want.tobytes()

    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError):
            TimeGrid(0.0, 5)
        with pytest.raises(ValueError):
            TimeGrid(0.1, 0)

    def test_prefix_grid_monotone_and_lands_on_t_total(self):
        g = TimeGrid.with_prefix(dt=1e-3, t_total=1.0, t_first=1e-7, ratio=1.3)
        t = g.times
        assert t[0] == 0.0
        assert np.all(np.diff(t) > 0)
        assert t[-1] == pytest.approx(1.0, rel=1e-12)
        assert t[1] == pytest.approx(1e-7)
        # prefix steps never exceed the uniform spacing by much
        assert np.max(np.diff(t)) <= g.dt * (1 + 1e-9)

    def test_make_grid_auto_prefix_at_production_scale(self):
        p = params()
        g = make_grid(p)
        assert g.prefix.size > 0
        lam = collapse_rate(p)
        steps = np.diff(g.times)
        assert lam * steps[0] <= 0.21
        assert g.times[-1] == pytest.approx(p.t_total, rel=1e-12)

    def test_make_grid_no_prefix_when_not_needed(self):
        p = params(j_total=10.0, meas_strength=1.0, t_total=1.0, prior_b_variance=1.0)
        g = make_grid(p)
        assert g.prefix.size == 0

    @given(st.floats(min_value=1e-6, max_value=1.0),
           st.integers(min_value=1, max_value=500))
    def test_uniform_grid_properties(self, dt, n):
        g = TimeGrid.uniform(dt, n)
        t = g.times
        assert len(t) == n + 1
        assert np.all(np.diff(t) > 0)
        assert t[-1] == pytest.approx(n * dt, rel=1e-9)


def whole_times(dt: float, n_steps: int, prefix) -> np.ndarray:
    """The grid's points as one array, filled in place as ``TimeGrid`` once did
    when it stored them: the reference form of ``TimeGrid.points``."""
    prefix = np.asarray(prefix, dtype=float)
    k = prefix.size
    t = np.arange(-k, n_steps + 1, dtype=float)
    t[0] = 0.0
    t[1:k + 1] = prefix
    uniform = t[k + 1:]
    uniform *= dt
    uniform += prefix[-1] if k else 0.0
    return t


def searchsorted_checkpoints(times: np.ndarray, wanted) -> tuple:
    """``checkpoints_for_times`` as it once ran, by ``searchsorted`` over the whole grid."""
    pts = times[1:]
    t = np.asarray(wanted, dtype=float)
    hi = np.minimum(np.searchsorted(pts, t), len(pts) - 1)
    lo = np.maximum(hi - 1, 0)
    k = np.where(np.abs(pts[lo] - t) <= np.abs(pts[hi] - t), lo, hi)
    return tuple(sorted(set((k + 1).tolist())))


@st.composite
def grids(draw):
    """(dt, n_steps, prefix): a uniform tail of 1-5000 steps, with or without a
    prefix.  The prefix may decrease, and may end so far from 0 that the tail's
    points round unevenly (1e15 dt) or onto each other (1e20 dt)."""
    dt = draw(st.floats(min_value=1e-300, max_value=1e3))
    n_steps = draw(st.integers(min_value=1, max_value=5000))
    steps = draw(st.lists(st.floats(min_value=1e-3, max_value=2.0), max_size=40))
    prefix = dt * (draw(st.sampled_from([0.0, 1e15, 1e20])) + np.cumsum(steps))
    if draw(st.booleans()):
        prefix = prefix[::-1]
    return dt, n_steps, prefix


class TestGridFormula:
    """``TimeGrid.points`` against the whole array that the grid once stored, and the
    checkpoint search, which reads only points, against ``searchsorted`` over it."""

    @given(grids(), st.data())
    def test_points_match_the_whole_array(self, grid, data):
        dt, n_steps, prefix = grid
        want = whole_times(dt, n_steps, prefix)
        if not np.all(want[1:] > want[:-1]):
            with pytest.raises(ValueError, match="strictly increasing"):
                TimeGrid(dt, n_steps, prefix)
            return
        g = TimeGrid(dt, n_steps, prefix)
        assert g._times is None  # nothing beyond the prefix is stored until times is read
        n = g.n_intervals
        assert n + 1 == len(want) and g.t_total == want[-1]
        for _ in range(5):
            a = data.draw(st.integers(min_value=0, max_value=n))
            b = data.draw(st.integers(min_value=a, max_value=n + 1))
            assert g.points(np.arange(a, b)).tobytes() == want[a:b].tobytes()
        index = data.draw(st.lists(st.integers(min_value=0, max_value=n), max_size=20))
        assert g.points(np.array(index, dtype=int)).tobytes() == want[index].tobytes()
        i = data.draw(st.integers(min_value=0, max_value=n))
        assert float(g.points(i)) == want[i]
        assert g.times.tobytes() == want.tobytes()

    @given(grids(), st.data())
    def test_searches_match_searchsorted(self, grid, data):
        # wanted times at points, between them, at their midpoints (ties), and
        # below the first and past the last
        times = whole_times(*grid)
        if not np.all(times[1:] > times[:-1]):
            return
        g = TimeGrid(*grid)
        n = len(times) - 1
        at = data.draw(st.lists(st.integers(min_value=0, max_value=n), min_size=1, max_size=8))
        exact = times[at]
        near = np.concatenate([np.nextafter(exact, -np.inf), np.nextafter(exact, np.inf)])
        ties = 0.5 * (times[:-1] + times[1:])[np.minimum(at, n - 1)]
        outside = np.array([-times[-1], -1e-300, times[-1] * 2, np.inf, -np.inf, np.nan])
        inside = data.draw(st.lists(st.floats(min_value=0.0, max_value=times[-1]), max_size=5))
        for wanted in (exact, near, ties, outside, inside,
                       np.concatenate([exact, near, ties, outside, inside])):
            assert np.array_equal(g.searchsorted(wanted), np.searchsorted(times, wanted))
            assert checkpoints_for_times(g, wanted) == searchsorted_checkpoints(times, wanted)
        assert g._times is None

    @pytest.mark.parametrize("grid", [
        TimeGrid.with_prefix(dt=1e-3, t_total=1.0, t_first=1e-7, ratio=1.3),
        TimeGrid(0.1, 1000), TimeGrid(0.3, 3000, 0.3 * (1e15 + np.arange(1, 4)))])
    def test_searches_at_every_point(self, grid):
        # the tail formula's inverse is one step off at ~5-10% of these points
        times = whole_times(grid.dt, grid.n_steps, grid.prefix)
        g = TimeGrid(grid.dt, grid.n_steps, grid.prefix)
        mid = 0.5 * (times[1:] + times[:-1])
        for wanted in (times, mid, np.nextafter(times, np.inf), np.nextafter(times, -np.inf)):
            assert np.array_equal(g.searchsorted(wanted), np.searchsorted(times, wanted))
            assert checkpoints_for_times(g, wanted) == searchsorted_checkpoints(times, wanted)


class TestForkedMap:
    """``forked_map``: task order at any worker count, frames past a pipe's buffer, and no
    child left behind however the parent stops."""

    @staticmethod
    def frame(i: int) -> bytes:
        return bytes([i % 251]) * (100_000 * (i % 3))  # 0, 100 kB and 200 kB frames

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="the workers are forked")
    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    def test_results_in_task_order(self, workers):
        assert list(forked_map(self.frame, 7, workers)) == [self.frame(i) for i in range(7)]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_one_task_or_no_fork_runs_in_process(self, monkeypatch):
        def pid(i):
            return str(os.getpid()).encode()

        here = str(os.getpid()).encode()
        assert list(forked_map(pid, 1, 4)) == [here]
        monkeypatch.delattr(os, "fork", raising=False)
        assert list(forked_map(pid, 3, 4)) == [here] * 3

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="the workers are forked")
    def test_failed_task_names_its_worker(self, capfd):
        def task(i):
            if i == 4:  # worker 1 of 3
                raise FloatingPointError("injected")
            return b"ok"

        got = []
        with pytest.raises(WorkerError, match="worker 1 of 3 .* exit status 1"):
            got.extend(forked_map(task, 6, 3))
        assert got == [b"ok"] * 4
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert "FloatingPointError: injected" in capfd.readouterr().err

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="the workers are forked")
    def test_closing_after_the_first_item_kills_and_reaps(self):
        def task(i):
            if i:
                time.sleep(60)
            return b"first"

        t0 = time.monotonic()
        results = forked_map(task, 4, 2)
        assert next(results) == b"first"
        results.close()
        assert time.monotonic() - t0 < 30
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
