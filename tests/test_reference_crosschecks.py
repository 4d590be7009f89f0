"""Cross-checks against SciPy reference implementations.

Independent implementations of the same mathematics catch silent errors
that self-consistent unit tests cannot.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from repro.apps.gtm import _sqdist, gtm_interpolate, train_gtm


class TestSqdistVsScipy:
    @given(
        st.integers(min_value=1, max_value=30),
        st.integers(min_value=1, max_value=30),
        st.integers(min_value=1, max_value=10),
        st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=30, deadline=None)
    def test_matches_cdist(self, n_a, n_b, dim, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(scale=5.0, size=(n_a, dim))
        b = rng.normal(scale=5.0, size=(n_b, dim))
        ours = _sqdist(a, b)
        reference = cdist(a, b, metric="sqeuclidean")
        np.testing.assert_allclose(ours, reference, rtol=1e-8, atol=1e-8)

    def test_never_negative(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(50, 8)) * 1e-8  # near-degenerate values
        assert (_sqdist(a, a) >= 0).all()


class TestGtmVsScipyKmeansBaseline:
    def test_gtm_separates_what_kmeans_separates(self):
        """On cleanly clustered data, GTM's latent projection must keep
        the same clusters separable that plain k-means recovers."""
        from scipy.cluster.vq import kmeans2

        rng = np.random.default_rng(5)
        centers = np.eye(4)[:, :4] * 12.0  # 4 well-separated centers
        points = np.concatenate(
            [c + rng.normal(scale=0.5, size=(40, 4)) for c in centers]
        )
        labels = np.repeat(np.arange(4), 40)
        model = train_gtm(points, latent_per_dim=8, rbf_per_dim=3, iterations=15)
        latent = gtm_interpolate(model, points)
        # k-means on the 2-D latent embedding recovers the 4 groups.
        _, assignments = kmeans2(latent, 4, seed=3, minit="++")
        # Cluster agreement up to label permutation: every true cluster
        # maps to a dominant latent cluster.
        for true in range(4):
            values, counts = np.unique(
                assignments[labels == true], return_counts=True
            )
            assert counts.max() / counts.sum() > 0.9
