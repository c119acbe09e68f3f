"""``core.write_csv`` against the per-row ``csv.writer`` loops it replaced, and
``core.format_floats`` against ``repr``."""

import io
import json
import math
import os
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkfmag.cli import main
from qkfmag.config import load_config
from qkfmag import dynamics
from qkfmag.core import (CSV_BLOCK_ROWS, SCAN_BLOCK, PhysicalParams, TimeGrid, _format_pass,
                         _format_tables, format_floats, make_grid, write_csv)
from qkfmag.dynamics import RecordStream, lowpass_filter, simulate_trajectory
from qkfmag.estimators import (
    detection_threshold_asymptotic,
    riccati_analytic,
    riccati_integrate,
    shotnoise_limit,
    write_threshold_csv,
)
from qkfmag.montecarlo import EnsembleSpec, checkpoints_for_times, run_ensemble, scaling_study
from qkfmag.rng import substream
from qkfmag.sme_oracle import compare_to_gaussian, recommended_dt

from csv_oracle import (
    deviation_rows,
    ensemble_rows,
    scaling_rows,
    threshold_rows,
    trajectory_rows,
    write_csv_rows,
)

B = CSV_BLOCK_ROWS
SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.5e-310, 1e16, 1e-5, 0.0001,
           1000.0, -3.0, 1.0 / 3.0, 2.0**53 + 2, 1.7976931348623157e308]


def written(write, *args) -> bytes:
    """What ``write(*args, fobj)`` writes to a binary file."""
    buf = io.BytesIO()
    write(*args, buf)
    return buf.getvalue()


def oracle(rows, *args) -> bytes:
    """What the row loop ``rows(*args, fobj)`` writes to a text file, as ASCII bytes."""
    buf = io.StringIO()
    rows(*args, buf)
    return buf.getvalue().encode("ascii")


def both(header, columns):
    """What ``write_csv`` and the generic row loop write for ``columns``."""
    new, ref = io.BytesIO(), io.StringIO()
    write_csv(new, header, columns)
    write_csv_rows(ref, header, columns)
    return new.getvalue(), ref.getvalue().encode("ascii")


def first_difference(new: bytes, ref: bytes):
    """None if the files are equal, else the first differing line of each
    (a short failure report: a diff of two large files is slow)."""
    if new == ref:
        return None
    a, b = new.split(b"\n"), ref.split(b"\n")
    k = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    return k, a[k:k + 1], b[k:k + 1]


def record_files(p, grid, rec) -> list:
    """The row loops' trajectory.csv and photocurrent_filtered.csv of the whole record ``rec``."""
    k = grid.n_intervals - grid.n_steps  # the photocurrent's first step
    photocurrent = io.StringIO()
    write_csv_rows(photocurrent, ["t", "y", "y_filtered"],
                   [rec.times[k:-1], rec.y[k:], lowpass_filter(rec.y[k:], grid.dt, math.sqrt(p.j_total) / p.t_total)])
    return [oracle(trajectory_rows, rec), photocurrent.getvalue().encode("ascii")]


def formatted(values) -> list:
    """``format_floats``' text of each value, from one call: its cell's non-NUL bytes
    before the separator b"\\r\\n", which every cell holds in bytes 30-31."""
    x = np.asarray(values, dtype=float).reshape(-1, 1)
    cells = format_floats(x, [b"\r\n"]).reshape(-1, 32)
    assert (cells[:, 30:] == np.frombuffer(b"\r\n", np.uint8)).all()
    return [bytes(text[text != 0]).decode("ascii") for text in cells[:, :30]]


def around(v: float) -> list:
    return [math.nextafter(v, -math.inf), v, math.nextafter(v, math.inf)]


class TestFormatFloats:
    """``format_floats`` writes exactly what ``repr`` writes, the values its arithmetic
    cannot decide by ``repr`` itself."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(), min_size=1, max_size=64))  # nan, inf, -0.0, subnormals included
    def test_floats(self, values):
        assert formatted(values) == [repr(v) for v in values]

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
    def test_bit_patterns(self, words):
        x = np.array(words, dtype=np.uint64).view(np.float64)
        assert formatted(x) == [repr(v) for v in x.tolist()]

    def test_edge_sets(self):
        # powers of two (the lopsided intervals), powers of ten and their neighbours,
        # the notation's thresholds, the integers around 2^53; both signs, one call
        values = list(SPECIAL) + [math.ldexp(1.0, e) for e in range(-1074, 1024)]
        for v in [float(f"1e{k}") for k in range(-323, 309)] + [1e-5, 1e-4, 1e16]:
            values += around(v)
        values += [float(2**53 + d) for d in range(-8, 9)]
        values += [-v for v in values]
        assert formatted(values) == [repr(v) for v in values]

    def test_power_table(self):
        # U = 2^e 10^-k in [1, 10), as hi + lo to 2^-105, at every normal exponent
        uh, _, _, ul, k15 = _format_tables()[0]
        for biased in range(1, 2047):
            u = Fraction(2) ** (biased - 1075) / Fraction(10) ** (int(k15[biased]) - 15)
            assert 1 <= u < 10
            assert abs(Fraction(uh[biased]) + Fraction(ul[biased]) - u) < u / 2**105

    def test_values_left_to_repr_keep_their_place(self):
        n = 2 * CSV_BLOCK_ROWS + 1
        x = np.linspace(0.1, 7.3, 2 * n).reshape(n, 2)
        at = [0, 3, 5, 2 * CSV_BLOCK_ROWS - 1, 2 * CSV_BLOCK_ROWS, 2 * n - 1]  # row starts, ends
        x.reshape(-1)[at] = [2.5e-310, math.nan, 2.0**50 + 0.25, -math.inf, 5e-324, 2.0]
        cells = format_floats(x, [b",", b"\r\n"])
        assert cells[cells != 0].tobytes().decode("ascii") == "".join(
            f"{a!r},{b!r}\r\n" for a, b in x.tolist())
        m = 2 * CSV_BLOCK_ROWS
        _, left = _format_pass(x.reshape(-1)[:m].copy())
        assert left.tolist() == at[:4]  # a subnormal, a nan, a tie (X = ...2.5), an inf

    def test_zero_takes_no_repr(self):
        # digits 0 at decimal exponent 0: "0.0" and "-0.0" from the vectorised path
        x = np.array([0.0, -0.0, 1e-300, -0.0, 0.0])
        _, left = _format_pass(x)
        assert left.size == 0
        assert formatted(x) == [repr(v) for v in x.tolist()] == ["0.0", "-0.0", "1e-300",
                                                                  "-0.0", "0.0"]


class TestWriteCsv:
    @pytest.mark.parametrize("n", [1, B - 1, B, B + 1, 2 * B + 1])
    def test_block_boundaries(self, n):
        rng = np.random.default_rng(n)
        cols = [np.cumsum(rng.exponential(size=n)), rng.normal(size=n) * 1e-7,
                [("qkf", "regression")[k % 2] for k in range(n)], rng.normal(size=n).round(1)]
        new, ref = both(["t", "a", "estimator", "rounded"], cols)
        assert first_difference(new, ref) is None
        assert new.count(b"\r\n") == n + 1

    def test_unequal_columns_raise(self):
        with pytest.raises(ValueError):
            write_csv(io.BytesIO(), ["t", "y"], [np.arange(3.0), np.arange(2.0)])
        with pytest.raises(ValueError):
            write_csv(io.BytesIO(), ["t", "source"], [np.arange(3.0), ["qkf"] * 2])

    def test_label_longer_than_a_cell_raises(self):
        # a label and its separator fill at most one 32-byte cell
        write_csv(io.BytesIO(), ["source", "t"], [["x" * 31], [1.0]])
        with pytest.raises(ValueError, match="longer than 32 bytes"):
            write_csv(io.BytesIO(), ["source", "t"], [["x" * 32], [1.0]])

    def test_special_values(self):
        vals = np.array(SPECIAL)
        new, ref = both(["x", "y"], [vals, vals[::-1].tolist()])
        assert first_difference(new, ref) is None
        first = [row.split(b",")[0].decode() for row in new.split(b"\r\n")[1:-1]]
        assert first == [repr(v) for v in SPECIAL]
        assert first[:6] == ["nan", "inf", "-inf", "-0.0", "0.0", "5e-324"]

    def test_integer_values_print_as_floats(self):
        new, ref = both(["j_total", "estimator"], [[1000, 10, 2**53], ["qkf", "a", "b"]])
        assert first_difference(new, ref) is None
        assert new == b"j_total,estimator\r\n1000.0,qkf\r\n10.0,a\r\n9007199254740992.0,b\r\n"

    def test_str_columns(self):
        cols = [["riccati_numeric"] * 3 + ["shotnoise"] * 2, np.arange(5) * 0.5, ["x"] * 5]
        new, ref = both(["source", "v", "tag"], cols)
        assert first_difference(new, ref) is None
        assert new.split(b"\r\n")[-2] == b"shotnoise,2.0,x"

    def test_dialect(self):
        # csv.writer's terminator, raw fields
        new, _ = both(["t", "y", "d_xi"], [[0.0, 0.5], [1.25, -2.0], np.array([3e-9, -0.0])])
        assert new == b"t,y,d_xi\r\n0.0,1.25,3e-09\r\n0.5,-2.0,-0.0\r\n"

    def test_header_only(self):
        new, ref = both(["t", "y"], [np.empty(0), np.empty(0)])
        assert new == ref == b"t,y\r\n"


class TestArtifactBytes:
    """Each artifact's ``to_csv`` writes what its old row loop wrote."""

    def test_trajectory(self, toy_params):
        p = toy_params
        for n in (1, B - 2, B - 1, 2 * B + 7, 2 * SCAN_BLOCK):  # 2 SCAN_BLOCK: whole blocks
            rec = simulate_trajectory(p, TimeGrid.uniform(p.t_total / n, n), substream(5, n))
            assert first_difference(written(rec.to_csv), oracle(trajectory_rows, rec)) is None
        rec = simulate_trajectory(p, make_grid(p, dt=1e-4, prefix=True), substream(5, 0))
        assert first_difference(written(rec.to_csv), oracle(trajectory_rows, rec)) is None

    @pytest.mark.parametrize("estimators, prior", [(("qkf", "regression"), 0.05),
                                                   (("regression", "qkf"), 0.05),
                                                   (("qkf",), math.inf)])
    def test_ensemble(self, toy_params, estimators, prior):
        p = replace(toy_params, prior_b_variance=prior, t_total=0.01)
        grid = make_grid(p, dt=1e-5)
        times = [1e-5, 1e-3, 0.01] if estimators == ("qkf",) else [1e-3, 0.005, 0.01]
        spec = EnsembleSpec(params=p, grid=grid, n_traj=24, master_seed=3,
                            estimators=estimators, checkpoints=checkpoints_for_times(grid, times))
        stats = run_ensemble(spec)
        text = written(stats.to_csv)
        assert first_difference(text, oracle(ensemble_rows, stats)) is None
        assert (b"nan" in text) == math.isinf(prior)  # unresolved prior at grid point 1

    def test_scaling(self, toy_params):
        p = replace(toy_params, b_true=0.0, prior_b_variance=math.inf)
        result = scaling_study(p, [10, 100, 1000, 10000], n_traj=8, master_seed=1,
                               t_check=0.05, grid_for=lambda q: make_grid(q, dt=2e-3))
        assert first_difference(written(result.to_csv), oracle(scaling_rows, result)) is None

    def test_thresholds(self, toy_params):
        p = toy_params
        times = np.geomspace(1e-4, p.t_total, 31)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            curves = {"riccati_numeric": np.sqrt(riccati_integrate(p, times).v22),
                      "riccati_analytic": riccati_analytic(p, times),
                      "asymptotic": detection_threshold_asymptotic(p, times),
                      "shotnoise": shotnoise_limit(p, times)}
        new = written(write_threshold_csv, times, curves)
        ref = oracle(threshold_rows, times, curves)
        assert first_difference(new, ref) is None

    def test_oracle_deviation(self):
        p = PhysicalParams(j_total=2.0, gamma=1.0, b_true=0.0, meas_strength=1.0,
                           efficiency=1.0, prior_b_variance=1.0, t_total=0.3)
        dt = recommended_dt(p, p.j_total)
        n = int(math.ceil(p.t_total / dt))
        dev = compare_to_gaussian(p, TimeGrid.uniform(p.t_total / n, n), substream(3, 3))
        assert n > B
        assert first_difference(written(dev.to_csv), oracle(deviation_rows, dev)) is None


class TestRecordFiles:
    """``simulate``'s trajectory.csv and photocurrent_filtered.csv, formatted once per float
    in forked tasks, against the row loops, at every worker count."""

    DOC = {"j_total": 100.0, "gamma": 1.5, "gamma_convention": "angular", "b_true": 0.01,
           "meas_strength": 50.0, "efficiency": 0.8, "prior_b_variance": 0.05,
           "t_total": 0.5, "seed": 77}

    @pytest.mark.parametrize("log_prefix, flags", [(True, []), (False, []),
                                                   (True, ["--zero-noise"])],
                             ids=["log-prefix", "uniform", "zero-noise"])
    def test_every_worker_count_writes_the_row_loops_bytes(self, tmp_path, log_prefix, flags):
        self.check_worker_counts(tmp_path, log_prefix, flags)

    @pytest.mark.parametrize("flags", [[], ["--zero-noise"]], ids=["noise", "zero-noise"])
    @pytest.mark.parametrize("block", [100, 3000])
    def test_every_block_size_writes_the_row_loops_bytes(self, tmp_path, monkeypatch, block,
                                                         flags):
        # each task regenerates one block from its start and runs the low-pass on
        # from there: the bytes do not depend on where the blocks end
        assert SCAN_BLOCK % block and block % SCAN_BLOCK  # not the default's bounds
        monkeypatch.setattr(dynamics, "SCAN_BLOCK", block)
        self.check_worker_counts(tmp_path, True, flags)

    @pytest.mark.parametrize("n, n_pref", [(1, 0), (2 * SCAN_BLOCK, 0), (2 * SCAN_BLOCK, 20)])
    def test_stream_of_one_step_or_whole_blocks(self, toy_params, n, n_pref):
        # one block of one step, or whole blocks: either way the last block also
        # writes point n, whose step fields are blank
        self.check_stream(toy_params, n, n_pref, (1, 2, 3))

    @pytest.mark.parametrize("rows", [1, 3, 5, 25])
    def test_pass_ends_write_the_row_loops_bytes(self, toy_params, monkeypatch, rows):
        # three blocks of 128 steps, the last of 99: the photocurrent's first row
        # (row 24 of block 0) and point n's (row 99 of block 2) each end a pass of
        # 1, 5 or 25 rows; with 3, the first starts a pass and point n's row is
        # a pass of its own
        monkeypatch.setattr(dynamics, "SCAN_BLOCK", 128)
        monkeypatch.setattr(dynamics, "CSV_BLOCK_ROWS", rows)
        self.check_stream(toy_params, 2 * 128 + 99, 24, (1, 3))

    def check_stream(self, p, n, n_pref, worker_counts):
        """``RecordStream.to_csv``'s files on an n-step grid, its first ``n_pref``
        points a geometric prefix, against the row loops at each worker count."""
        grid = TimeGrid(p.t_total / n, n - n_pref, prefix=np.geomspace(1e-7, 1e-5, n_pref))
        want = record_files(p, grid, simulate_trajectory(p, grid, substream(5, n)))
        stream = RecordStream(p, grid, substream(5, n))
        assert len(list(stream.blocks())) == -(-n // dynamics.SCAN_BLOCK)
        for workers in worker_counts:
            files = [io.BytesIO(), io.BytesIO()]
            stream.to_csv(*files, workers=workers)
            for got, ref in zip(files, want):
                assert first_difference(got.getvalue(), ref) is None, workers

    def check_worker_counts(self, tmp_path, log_prefix, flags):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dict(self.DOC, grid={"dt": 5e-5, "log_prefix": log_prefix})))
        cfg = load_config(str(path))
        grid = cfg.make_grid()
        rec = simulate_trajectory(cfg.params, grid, substream(cfg.seed, 0),
                                  zero_noise=bool(flags))
        n_pref = len(rec.times) - 1 - grid.n_steps
        assert (n_pref > 0) == log_prefix
        block = dynamics.SCAN_BLOCK
        assert grid.n_intervals > 2 * block and grid.n_intervals % block  # a short last block
        want = record_files(cfg.params, grid, rec)
        for workers in ("1", "2", "3"):
            out = tmp_path / f"w{workers}"
            assert main(["simulate", "--config", str(path), "--workers", workers,
                         "--out", str(out), *flags]) == 0
            for name, ref in zip(("trajectory.csv", "photocurrent_filtered.csv"), want):
                assert first_difference((out / name).read_bytes(), ref) is None, (workers, name)
        if hasattr(os, "fork"):
            with pytest.raises(ChildProcessError):
                os.waitpid(-1, os.WNOHANG)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="the workers are forked")
    def test_failed_write_leaves_no_child(self, toy_params):
        class Full(io.BytesIO):
            def write(self, data):
                if self.tell():
                    raise OSError(28, "No space left on device")
                return super().write(data)

        n = 3 * SCAN_BLOCK
        rec = simulate_trajectory(toy_params, TimeGrid.uniform(toy_params.t_total / n, n),
                                  substream(5, 0))
        with pytest.raises(OSError, match="No space") as held:  # its traceback holds to_csv
            rec.to_csv(Full(), workers=2)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        del held
