"""Generative Topographic Mapping (GTM) and GTM Interpolation.

GTM (Bishop, Svensén & Williams 1998) models high-dimensional data ``T``
(N x D) as a noisy image of a low-dimensional latent grid: latent points
``x_k`` map through an RBF network ``y_k = Phi(x_k) W`` into data space,
with isotropic Gaussian noise of precision ``beta``.  Training is EM.

**GTM Interpolation** (Bae et al., HPDC 2010 — the paper's reference
[17]) is the out-of-sample extension this repository's target paper
benchmarks: train on a small *sample* set (here 100k of 26M PubChem
points), then project the remaining *out-of-sample* points by computing
their responsibilities against the fixed trained model and taking the
responsibility-weighted mean latent position.  Interpolation touches
every (point, latent-cell) pair once — a streaming, memory-bandwidth
bound computation, exactly the behaviour the paper's Section 6 analyses.

Everything is vectorized NumPy; interpolation processes points in batches
so the working set stays bounded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["GtmModel", "gtm_interpolate", "gtm_responsibilities", "train_gtm"]


@dataclass
class GtmModel:
    """A trained GTM: everything interpolation needs."""

    latent_points: np.ndarray  # (K, L) latent grid
    rbf_centers: np.ndarray  # (M, L)
    rbf_width: float
    weights: np.ndarray  # (M + 1, D) mapping, last row is bias
    beta: float  # noise precision
    log_likelihoods: list[float]

    @property
    def n_latent(self) -> int:
        return self.latent_points.shape[0]

    @property
    def latent_dim(self) -> int:
        return self.latent_points.shape[1]

    @property
    def data_dim(self) -> int:
        return self.weights.shape[1]

    def basis(self, latent: np.ndarray) -> np.ndarray:
        """RBF design matrix with bias column for latent positions."""
        sq = _sqdist(latent, self.rbf_centers)
        phi = np.exp(-sq / (2.0 * self.rbf_width**2))
        return np.hstack([phi, np.ones((latent.shape[0], 1))])

    def projections(self) -> np.ndarray:
        """Data-space images of the latent grid: (K, D)."""
        return self.basis(self.latent_points) @ self.weights


def _sqdist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances, (len(a), len(b))."""
    aa = np.sum(a * a, axis=1)[:, None]
    bb = np.sum(b * b, axis=1)[None, :]
    sq = aa + bb - 2.0 * (a @ b.T)
    np.maximum(sq, 0.0, out=sq)
    return sq


def _grid(points_per_dim: int, dim: int) -> np.ndarray:
    """A regular grid over [-1, 1]^dim, (points_per_dim**dim, dim)."""
    axes = [np.linspace(-1.0, 1.0, points_per_dim)] * dim
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def train_gtm(
    data: np.ndarray,
    latent_dim: int = 2,
    latent_per_dim: int = 10,
    rbf_per_dim: int = 4,
    rbf_width_factor: float = 2.0,
    iterations: int = 30,
    regularization: float = 1e-3,
    seed: int = 0,
    tol: float = 1e-5,
) -> GtmModel:
    """Fit a GTM to ``data`` (N x D) with EM.

    Initialization follows Bishop et al.: the mapping starts from the
    PCA plane of the data, and ``beta`` from the residual variance.
    Training stops after ``iterations`` EM steps or when the mean
    log-likelihood improves by less than ``tol``.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2:
        raise ValueError(f"data must be 2-D, got shape {data.shape}")
    n_points, data_dim = data.shape
    if latent_dim < 1 or latent_dim > data_dim:
        raise ValueError(f"latent_dim {latent_dim} outside 1..{data_dim}")
    if n_points < 2:
        raise ValueError("need at least two data points")

    latent = _grid(latent_per_dim, latent_dim)
    centers = _grid(rbf_per_dim, latent_dim)
    # Width proportional to center spacing.
    spacing = 2.0 / max(rbf_per_dim - 1, 1)
    width = rbf_width_factor * spacing

    sq = _sqdist(latent, centers)
    phi = np.exp(-sq / (2.0 * width**2))
    phi = np.hstack([phi, np.ones((latent.shape[0], 1))])  # (K, M+1)
    n_basis = phi.shape[1]

    # PCA initialization of W: map latent axes onto principal axes.
    mean = data.mean(axis=0)
    centered = data - mean
    # Economy SVD: we only need the first latent_dim+1 components.
    _, svals, vt = np.linalg.svd(centered, full_matrices=False)
    scales = svals[:latent_dim] / np.sqrt(max(n_points - 1, 1))
    target = latent @ (vt[:latent_dim] * scales[:, None])  # (K, D)
    target = target + mean
    reg = regularization * np.eye(n_basis)
    weights = np.linalg.solve(phi.T @ phi + reg, phi.T @ target)

    projections = phi @ weights
    # Initial beta: inverse of the larger of the (latent_dim+1)-th PCA
    # eigenvalue and half the mean nearest-neighbour projection spacing.
    if latent_dim < len(svals):
        resid_var = float(svals[latent_dim] ** 2) / max(n_points - 1, 1)
    else:
        resid_var = float(centered.var())
    inter = _sqdist(projections, projections)
    np.fill_diagonal(inter, np.inf)
    nn = float(np.median(inter.min(axis=1))) / 2.0
    beta = 1.0 / max(resid_var, nn, 1e-12)

    del seed  # deterministic init; kept in the signature for API stability
    log_likelihoods: list[float] = []

    # One distance matrix per EM step: beta's is the next E step's.
    sq_dists = _sqdist(projections, data)
    for _ in range(iterations):
        responsibilities, log_like = _e_step(sq_dists, beta, data_dim)
        log_likelihoods.append(log_like)
        # M step.
        g = responsibilities.sum(axis=1)  # (K,)
        lhs = (phi * g[:, None]).T @ phi + (regularization / beta) * np.eye(
            n_basis
        )
        rhs = phi.T @ (responsibilities @ data)
        weights = np.linalg.solve(lhs, rhs)
        projections = phi @ weights
        sq_dists = _sqdist(projections, data)
        beta = float(
            n_points * data_dim / max((responsibilities * sq_dists).sum(), 1e-300)
        )
        if (
            len(log_likelihoods) >= 2
            and abs(log_likelihoods[-1] - log_likelihoods[-2])
            < tol * abs(log_likelihoods[-2])
        ):
            break

    return GtmModel(
        latent_points=latent,
        rbf_centers=centers,
        rbf_width=width,
        weights=weights,
        beta=beta,
        log_likelihoods=log_likelihoods,
    )


def _e_step(
    sq: np.ndarray, beta: float, data_dim: int
) -> tuple[np.ndarray, float]:
    """Responsibilities and mean log-likelihood from (K x N) distances."""
    n_latent = sq.shape[0]
    log_p = -0.5 * beta * sq
    shift = log_p.max(axis=0)
    log_p -= shift
    p = np.exp(log_p)
    denom = p.sum(axis=0)
    responsibilities = p / denom
    # Mean log-likelihood (up to the constant shift we subtracted back in).
    log_norm = (
        0.5 * data_dim * np.log(beta / (2.0 * np.pi)) - np.log(n_latent)
    )
    log_like = float(np.mean(np.log(denom) + shift + log_norm))
    return responsibilities, log_like


def gtm_responsibilities(
    model: GtmModel, points: np.ndarray
) -> np.ndarray:
    """Posterior responsibilities (N x K) of latent cells for ``points``."""
    points = np.asarray(points, dtype=np.float64)
    projections = model.projections()
    sq = _sqdist(points, projections)  # (N, K)
    log_p = -0.5 * model.beta * sq
    log_p -= log_p.max(axis=1, keepdims=True)
    p = np.exp(log_p)
    p /= p.sum(axis=1, keepdims=True)
    return p


def gtm_interpolate(
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
