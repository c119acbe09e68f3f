import numpy as np
import pytest
from scipy import stats as sstats

from qkfmag.rng import SeedSpec, fill_normals, substream


class TestSubstream:
    def test_distinct_streams_differ(self):
        a = substream(99, 0).generator().standard_normal(1024)
        b = substream(99, 1).generator().standard_normal(1024)
        assert not np.array_equal(a, b)
        # spot check a handful of index pairs
        for i in range(2, 10):
            assert not np.array_equal(a, substream(99, i).generator().standard_normal(1024))

    def test_deterministic_across_calls(self):
        a = substream(1234, 7).generator().standard_normal(256)
        b = substream(1234, 7).generator().standard_normal(256)
        np.testing.assert_array_equal(a, b)

    def test_chunked_draws_match_whole(self):
        g = substream(5, 3).generator()
        parts = np.concatenate([g.standard_normal(100), g.standard_normal(156)])
        whole = substream(5, 3).generator().standard_normal(256)
        np.testing.assert_array_equal(parts, whole)

    def test_master_seed_matters(self):
        a = substream(1, 0).generator().standard_normal(64)
        b = substream(2, 0).generator().standard_normal(64)
        assert not np.array_equal(a, b)

    def test_validation(self):
        with pytest.raises(ValueError):
            SeedSpec(master_seed=-1, stream_index=0)
        with pytest.raises(ValueError):
            SeedSpec(master_seed=0, stream_index=2**63)


class TestFillNormals:
    """The block fill and ``SeedSpec.generator()`` read one stream address."""

    @pytest.mark.parametrize("width", [0, 1, 792])
    @pytest.mark.parametrize("i0", [0, 1024, 2**63 - 3])
    def test_rows_are_substreams(self, i0, width):
        seed = 20260810
        out = fill_normals(seed, i0, np.full((3, width), np.nan))
        for k, row in enumerate(out):
            want = substream(seed, i0 + k).generator().standard_normal(width)
            assert row.tobytes() == want.tobytes()
            # the address itself: the stream index in the counter's high word
            philox = np.random.Philox(key=seed, counter=(i0 + k) << 192)
            assert row.tobytes() == np.random.Generator(philox).standard_normal(width).tobytes()

    def test_validation(self):
        with pytest.raises(ValueError):
            fill_normals(0, 2**63 - 2, np.empty((3, 4)))
        with pytest.raises(ValueError):
            fill_normals(0, -1, np.empty((1, 4)))
        with pytest.raises(ValueError):
            fill_normals(2**64, 0, np.empty((1, 4)))


class TestEquidistribution:
    """Pooled-substream battery, alpha = 0.01, fixed seeds (deterministic)."""

    def _pool(self, n_streams=64, n=4096, seed=20260810):
        return np.stack([substream(seed, i).generator().standard_normal(n)
                         for i in range(n_streams)])

    def test_uniform_bins_chi2(self):
        z = self._pool().ravel()
        u = sstats.norm.cdf(z)
        counts, _ = np.histogram(u, bins=64, range=(0.0, 1.0))
        chi2 = ((counts - len(u) / 64) ** 2 / (len(u) / 64)).sum()
        p = sstats.chi2.sf(chi2, df=63)
        assert p > 0.01

    def test_moments(self):
        z = self._pool().ravel()
        n = len(z)
        assert abs(z.mean()) < 3.5 / np.sqrt(n)
        assert abs(z.var() - 1.0) < 3.5 * np.sqrt(2.0 / n)

    def test_lag_correlation(self):
        z = self._pool().ravel()
        r = np.corrcoef(z[:-1], z[1:])[0, 1]
        assert abs(r) < 3.5 / np.sqrt(len(z) - 1)

    def test_cross_stream_correlation(self):
        pool = self._pool(n_streams=16)
        c = np.corrcoef(pool)
        off = c[~np.eye(16, dtype=bool)]
        assert np.max(np.abs(off)) < 4.5 / np.sqrt(pool.shape[1])
