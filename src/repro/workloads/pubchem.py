"""PubChem-like workloads for GTM Interpolation.

The paper uses 26 million PubChem chemical-structure descriptors with 166
dimensions, pre-processed into a 100k-point training *sample* plus 264
out-of-sample files of 100k points each.  Real PubChem data is not
shipped here; a Gaussian-mixture generator produces vectors with the same
shape and clustered structure (166-bit MACCS-key descriptors are, after
preprocessing, dense clustered vectors — a mixture model is the standard
synthetic stand-in).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.core.task import TaskSpec

__all__ = [
    "generate_pubchem_points",
    "gtm_task_specs",
    "write_gtm_workload",
]

PUBCHEM_DIMENSIONS = 166
# gtm_task_specs' simulated bytes per value: the paper's zipped real
# PubChem splits (~half of float64).  Synthetic splits are stored raw.
_COMPRESSED_BYTES_PER_VALUE = 4.0


def generate_pubchem_points(
    n_points: int,
    dimensions: int = PUBCHEM_DIMENSIONS,
    n_clusters: int = 8,
    cluster_scale: float = 5.0,
    noise_scale: float = 1.0,
    seed: int = 0,
) -> np.ndarray:
    """Clustered descriptor vectors, (n_points, dimensions)."""
    if n_points < 1:
        raise ValueError("n_points must be >= 1")
    if n_clusters < 1:
        raise ValueError("n_clusters must be >= 1")
    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=cluster_scale, size=(n_clusters, dimensions))
    assignments = rng.integers(0, n_clusters, size=n_points)
    return centers[assignments] + rng.normal(
        scale=noise_scale, size=(n_points, dimensions)
    )


def gtm_task_specs(
    n_files: int = 264,
    points_per_file: int = 100_000,
    dimensions: int = PUBCHEM_DIMENSIONS,
    seed: int = 0,
    key_prefix: str = "gtm",
) -> list[TaskSpec]:
    """Task descriptions matching the paper's GTM setup.

    264 files x 100k points, compressed splits (the paper unzips them
    before handing to the executable).  ``work_units`` is kilopoints.
    """
    if n_files < 1 or points_per_file < 1:
        raise ValueError("n_files and points_per_file must be >= 1")
    del seed  # homogeneous partitioning: no randomness needed
    input_size = int(
        points_per_file * dimensions * _COMPRESSED_BYTES_PER_VALUE
    )
    # Output: 2-D latent coordinates — orders of magnitude smaller.
    output_size = points_per_file * 2 * 8
    return [
        TaskSpec(
            task_id=f"{key_prefix}-{i:05d}",
            input_key=f"{key_prefix}/in/{i:05d}.npz",
            output_key=f"{key_prefix}/out/{i:05d}.npy",
            input_size=input_size,
            output_size=output_size,
            work_units=points_per_file / 1000.0,
        )
        for i in range(n_files)
    ]


_SAMPLE_FILE = "sample.npy"


def _write_gtm_inputs(
    in_dir: Path,
    n_files: int,
    points_per_file: int,
    dimensions: int,
    sample_points: int,
    seed: int,
) -> np.ndarray:
    """Generate the splits plus the shared training sample into
    ``in_dir``; returns the sample array."""
    rng = np.random.default_rng(seed)
    centers_seed = int(rng.integers(0, 2**31))
    sample = generate_pubchem_points(
        sample_points, dimensions, seed=centers_seed
    )
    np.save(in_dir / _SAMPLE_FILE, sample)
    # Out-of-sample points must come from the *same* distribution as the
    # sample: reuse the cluster geometry via the same seed (one draw
    # serves every file), then jitter with a per-file stream.
    base = generate_pubchem_points(
        points_per_file, dimensions, seed=centers_seed
    )
    for i in range(n_files):
        file_rng = np.random.default_rng((seed, i))
        points = base + file_rng.normal(scale=0.05, size=base.shape)
        # Stored: deflate saves ~3% of dense float64 at ~10x the time.
        np.savez(in_dir / f"{i:05d}.npz", points=points)
    return sample


def write_gtm_workload(
    directory: str | Path,
    n_files: int,
    points_per_file: int = 500,
    dimensions: int = 16,
    sample_points: int = 300,
    seed: int = 0,
    store: "object | str | None" = "auto",
) -> tuple[list[TaskSpec], np.ndarray]:
    """Write real splits plus a training sample.

    Each split is an ``.npz`` zip with one stored (not deflated)
    ``points`` member: dense synthetic float64 barely deflates.
    Returns (specs, sample) where ``sample`` is the in-sample training
    set the caller fits a GTM on before constructing the executable;
    the sample is also written alongside the splits as
    ``in/sample.npy``; from a store it comes back as a read-only mmap.

    ``store`` says where the input files come from, as in
    :func:`repro.workloads.store.write_inputs`.
    """
    from repro.workloads.store import write_inputs

    if n_files < 1 or points_per_file < 1:
        raise ValueError("n_files and points_per_file must be >= 1")
    directory = Path(directory)
    in_dir = directory / "in"
    (directory / "out").mkdir(parents=True, exist_ok=True)
    params = dict(n_files=n_files, points_per_file=points_per_file,
                  dimensions=dimensions, sample_points=sample_points,
                  seed=seed)
    sample = write_inputs(
        store, "gtm", params, in_dir,
        lambda target: (_write_gtm_inputs(target, **params), {}),
        # mmap the shared sample: consumers read the store's page-cache
        # copy instead of materializing a private array per process.
        lambda *_: np.load(in_dir / _SAMPLE_FILE, mmap_mode="r"),
    )
    specs = []
    for i in range(n_files):
        input_path = in_dir / f"{i:05d}.npz"
        output_path = directory / "out" / f"{i:05d}.npy"
        specs.append(
            TaskSpec(
                task_id=f"gtm-local-{i:05d}",
                input_key=str(input_path),
                output_key=str(output_path),
                input_size=input_path.stat().st_size,
                output_size=points_per_file * 2 * 8,
                work_units=points_per_file / 1000.0,
            )
        )
    return specs, sample
