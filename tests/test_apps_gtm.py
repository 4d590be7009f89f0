"""Tests for GTM training and GTM Interpolation."""

import numpy as np
import pytest

from repro.apps.gtm import (
    GtmModel,
    _sqdist,
    gtm_interpolate,
    gtm_responsibilities,
    train_gtm,
)


# The chunked interpolation that cache-sized blocks replaced, verbatim.
def _gtm_interpolate_reference(
    model: GtmModel,
    points: np.ndarray,
    batch_size: int = 10_000,
    projection: str = "mean",
) -> np.ndarray:
    """Project out-of-sample ``points`` (N x D) to latent space (N x L).

    ``projection='mean'`` (default) gives each point the responsibility-
    weighted mean of the latent grid — the posterior mean of Bae et al.
    ``projection='mode'`` gives the single most responsible latent grid
    point (Bishop's posterior mode), which preserves hard cluster
    boundaries at the cost of grid quantization.

    Points stream through in ``batch_size`` chunks so memory stays
    proportional to ``batch_size * K`` regardless of N.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError(f"points must be 2-D, got shape {points.shape}")
    if points.shape[1] != model.data_dim:
        raise ValueError(
            f"points have dimension {points.shape[1]}, model expects "
            f"{model.data_dim}"
        )
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    if projection not in ("mean", "mode"):
        raise ValueError(f"unknown projection {projection!r}")
    out = np.empty((points.shape[0], model.latent_dim))
    projections = model.projections()
    for start in range(0, points.shape[0], batch_size):
        chunk = points[start : start + batch_size]
        sq = _sqdist(chunk, projections)
        if projection == "mode":
            winners = sq.argmin(axis=1)  # max responsibility = min dist
            out[start : start + chunk.shape[0]] = model.latent_points[winners]
            continue
        log_p = -0.5 * model.beta * sq
        log_p -= log_p.max(axis=1, keepdims=True)
        p = np.exp(log_p)
        p /= p.sum(axis=1, keepdims=True)
        out[start : start + chunk.shape[0]] = p @ model.latent_points
    return out



def three_clusters(n_per=60, dim=10, seed=0):
    """Three well-separated Gaussian blobs in ``dim`` dimensions."""
    rng = np.random.default_rng(seed)
    centers = np.zeros((3, dim))
    centers[0, 0] = 8.0
    centers[1, 1] = 8.0
    centers[2, 2] = 8.0
    points = np.concatenate(
        [c + rng.normal(scale=0.5, size=(n_per, dim)) for c in centers]
    )
    labels = np.repeat(np.arange(3), n_per)
    return points, labels


@pytest.fixture(scope="module")
def trained():
    points, labels = three_clusters()
    model = train_gtm(points, latent_per_dim=8, rbf_per_dim=3, iterations=20)
    return model, points, labels


class TestTraining:
    def test_log_likelihood_increases(self, trained):
        model, _, _ = trained
        ll = model.log_likelihoods
        assert len(ll) >= 2
        # EM must be (near-)monotone: allow tiny numerical wiggle.
        diffs = np.diff(ll)
        assert (diffs > -1e-6 * np.abs(ll[0])).all()
        assert ll[-1] > ll[0]

    def test_model_shapes(self, trained):
        model, points, _ = trained
        assert model.latent_points.shape == (64, 2)
        assert model.rbf_centers.shape == (9, 2)
        assert model.weights.shape == (10, points.shape[1])
        assert model.beta > 0

    def test_projections_shape(self, trained):
        model, points, _ = trained
        proj = model.projections()
        assert proj.shape == (model.n_latent, points.shape[1])

    def test_separated_clusters_map_to_separated_latent_regions(self, trained):
        model, points, labels = trained
        latent = gtm_interpolate(model, points)
        centroids = np.array(
            [latent[labels == k].mean(axis=0) for k in range(3)]
        )
        spreads = np.array(
            [latent[labels == k].std(axis=0).mean() for k in range(3)]
        )
        # Every pair of cluster centroids separated well beyond the spread.
        for i in range(3):
            for j in range(i + 1, 3):
                gap = np.linalg.norm(centroids[i] - centroids[j])
                assert gap > 2.0 * max(spreads[i], spreads[j])

    def test_deterministic(self):
        points, _ = three_clusters(n_per=30, seed=3)
        a = train_gtm(points, latent_per_dim=5, rbf_per_dim=3, iterations=5)
        b = train_gtm(points, latent_per_dim=5, rbf_per_dim=3, iterations=5)
        np.testing.assert_allclose(a.weights, b.weights)
        assert a.beta == b.beta

    def test_input_validation(self):
        with pytest.raises(ValueError, match="2-D"):
            train_gtm(np.zeros(10))
        with pytest.raises(ValueError, match="latent_dim"):
            train_gtm(np.zeros((10, 3)), latent_dim=5)
        with pytest.raises(ValueError, match="two data points"):
            train_gtm(np.zeros((1, 3)))


class TestInterpolation:
    def test_output_shape_and_range(self, trained):
        model, points, _ = trained
        latent = gtm_interpolate(model, points)
        assert latent.shape == (points.shape[0], 2)
        # Posterior means live inside the convex hull of the grid.
        assert latent.min() >= -1.0 - 1e-9
        assert latent.max() <= 1.0 + 1e-9

    def test_batched_matches_unbatched(self, trained):
        model, points, _ = trained
        whole = gtm_interpolate(model, points, batch_size=10**9)
        batched = gtm_interpolate(model, points, batch_size=7)
        np.testing.assert_allclose(whole, batched)

    def test_out_of_sample_near_in_sample_neighbors(self, trained):
        """Interpolated out-of-sample points land near the latent
        positions of the training points from the same cluster."""
        model, points, labels = trained
        rng = np.random.default_rng(42)
        train_latent = gtm_interpolate(model, points)
        for k in range(3):
            cluster = points[labels == k]
            fresh = cluster.mean(axis=0) + rng.normal(
                scale=0.3, size=cluster.shape[1]
            )
            projected = gtm_interpolate(model, fresh[None, :])[0]
            centroid = train_latent[labels == k].mean(axis=0)
            assert np.linalg.norm(projected - centroid) < 0.5

    def test_dimension_mismatch_rejected(self, trained):
        model, _, _ = trained
        with pytest.raises(ValueError, match="dimension"):
            gtm_interpolate(model, np.zeros((5, 3)))

    def test_1d_points_rejected(self, trained):
        model, _, _ = trained
        with pytest.raises(ValueError, match="2-D"):
            gtm_interpolate(model, np.zeros(10))

    def test_bad_batch_size_rejected(self, trained):
        model, points, _ = trained
        with pytest.raises(ValueError, match="batch_size"):
            gtm_interpolate(model, points, batch_size=0)

    def test_mode_projection_lands_on_grid_points(self, trained):
        model, points, _ = trained
        latent = gtm_interpolate(model, points[:40], projection="mode")
        grid = {tuple(row) for row in model.latent_points}
        assert all(tuple(row) in grid for row in latent)

    def test_mode_near_mean(self, trained):
        """With a well-trained model the mode tracks the mean closely."""
        model, points, _ = trained
        mean = gtm_interpolate(model, points[:60], projection="mean")
        mode = gtm_interpolate(model, points[:60], projection="mode")
        spacing = 2.0 / 7  # 8 points per dim over [-1, 1]
        distance = np.linalg.norm(mean - mode, axis=1)
        assert np.median(distance) < 2 * spacing

    def test_unknown_projection_rejected(self, trained):
        model, points, _ = trained
        with pytest.raises(ValueError, match="projection"):
            gtm_interpolate(model, points[:5], projection="median")

    def test_responsibilities_are_normalized(self, trained):
        model, points, _ = trained
        resp = gtm_responsibilities(model, points[:25])
        assert resp.shape == (25, model.n_latent)
        np.testing.assert_allclose(resp.sum(axis=1), 1.0)
        assert (resp >= 0).all()

    def test_interpolation_is_responsibility_weighted_mean(self, trained):
        model, points, _ = trained
        resp = gtm_responsibilities(model, points[:10])
        expected = resp @ model.latent_points
        actual = gtm_interpolate(model, points[:10])
        np.testing.assert_allclose(actual, expected)


class TestBlockedExactness:
    """Cache-sized blocks must give the bits of one whole-input pass.

    Both BLAS products run per batch, as in the old code, so this holds
    whatever OpenBLAS core or thread count computes them.  Blocking the
    products themselves did not: on OpenBLAS's Haswell kernels with two
    threads, rows near the threads' split of a 2500-row product differ
    in the last bit from the same rows in a 512-row product.
    """

    @pytest.fixture(scope="class")
    def pubchem_like(self):
        points, _ = three_clusters(n_per=100, dim=16, seed=5)
        model = train_gtm(points, iterations=30, tol=0.0)
        return model, np.random.default_rng(6).normal(
            scale=3.0, size=(2500, 16)
        )

    @pytest.mark.parametrize("n_points", [1, 40, 511, 512, 513, 2500])
    @pytest.mark.parametrize("projection", ["mean", "mode"])
    def test_default_blocks_equal_one_block(
        self, pubchem_like, n_points, projection
    ):
        model, points = pubchem_like
        points = points[:n_points]
        blocked = gtm_interpolate(model, points, projection=projection)
        whole = gtm_interpolate(
            model, points, batch_size=10**9, projection=projection
        )
        assert np.array_equal(blocked, whole)
        assert np.array_equal(blocked, _gtm_interpolate_reference(
            model, points, batch_size=10**9, projection=projection
        ))

    @pytest.mark.parametrize("batch_size", [7, 1100])
    @pytest.mark.parametrize("projection", ["mean", "mode"])
    def test_any_batch_size_equals_old_code(
        self, pubchem_like, batch_size, projection
    ):
        model, points = pubchem_like
        assert np.array_equal(
            gtm_interpolate(
                model, points, batch_size=batch_size, projection=projection
            ),
            _gtm_interpolate_reference(
                model, points, batch_size=batch_size, projection=projection
            ),
        )


class TestModelHelpers:
    def test_properties(self, trained):
        model, points, _ = trained
        assert model.n_latent == 64
        assert model.latent_dim == 2
        assert model.data_dim == points.shape[1]

    def test_basis_includes_bias(self, trained):
        model, _, _ = trained
        phi = model.basis(model.latent_points[:5])
        assert phi.shape == (5, model.rbf_centers.shape[0] + 1)
        np.testing.assert_allclose(phi[:, -1], 1.0)
