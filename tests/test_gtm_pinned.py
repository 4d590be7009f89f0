"""Byte pins for the GTM workload path.

The split generator and ``train_gtm`` may be made faster, never
different: these digests were recorded before the splits were stored
instead of deflated and before EM stopped recomputing distances, and
they must still hold.  The model digests depend on the OpenBLAS kernels
that train them, so they are recorded per run-time core; a core with no
record fails, naming the core.
"""

import ctypes
import glob
import hashlib
import os
import zipfile

import numpy as np
import pytest

from repro.apps.gtm import train_gtm
from repro.workloads.pubchem import generate_pubchem_points, write_gtm_workload

# seed -> SHA-256 of the sample, then of each split's points.
SPLIT_DIGESTS = {
    3: [
        "49885e34c774ed5f4aabb63088aae49fbc2db5709d2a4fbd3e9a267294209e4e",
        "4107aa7500b5c9b620a30989dfcfd52c321b0f737b21627520c084035efd7623",
        "29abebb88724702ac840a77b06f22197d80617adfc0ac8960f84579d935495b0",
        "04b45950ca79b6cd0d300de3637d7d0334cff7e9d73f58a3b94f5077e9365a6c",
    ],
    11: [
        "80816bf49961e48b6178d7cabe2915427c3a8784b7f54aba73a94d1c1e3a7934",
        "74294aeb8c053ab81fc6b38d2e682a52a00f41e50939b4c12763613206640f29",
        "c4126698deaa1a756daa5523d3d7eea1a792d1c43e6a821e57f4d501544b474d",
        "e91b879f7184a2a1861794bc48280150c1376ddc0f5fb1be755a6d94fcdc6a91",
    ],
}

# OpenBLAS run-time core -> (data seed, tol) -> (SHA-256 of weights,
# beta and log-likelihoods, EM steps taken).  None is the default tol,
# which stops early.  Haswell's and Sandybridge's were recorded with
# OPENBLAS_CORETYPE.
MODEL_DIGESTS = {
    "SkylakeX": {
        (5, 0.0): (
            "1866d5f796eabe4c51699727b3ecc86bb261cf08185dbe02a2b4b91b7db51cf1",
            30,
        ),
        (5, None): (
            "1d3f02c12eaca22b994e2ba6f3269b95294b10aa66fe6f87574d588dd25a4d42",
            15,
        ),
        (23, 0.0): (
            "c3f5aafe2be06df39a3ec9cce1a20f18ff8378852bf76cd9bcb591037fb7df80",
            30,
        ),
        (23, None): (
            "61777366f8f0ce994a7f2737b1dda8ecf035c9027514368519ce391316eafc28",
            27,
        ),
    },
    "Haswell": {
        (5, 0.0): (
            "c343f15b0b1b1f7b6344b5e11f5ee74b8e2e076b6263167f200ba28d34f57820",
            30,
        ),
        (5, None): (
            "ab8d53ff6eced82cf15105ebc2c7a11f27af9893541bb56551bfafbea271acf5",
            15,
        ),
        (23, 0.0): (
            "a61f8e333293851d983de09aa7a4aa1e610545876791bde55b25ae2e7db4e802",
            30,
        ),
        (23, None): (
            "3c9c4045e360c57b1ca7feed5bc2379b3f1597081ceeaf4e68010216bb709d12",
            27,
        ),
    },
    "Sandybridge": {
        (5, 0.0): (
            "6eccdd32fa2268158fa24222d0282aa51309a11d125e0f6e42a20c0bcd4c98ec",
            30,
        ),
        (5, None): (
            "10da6c584c5c264bd6782f2d252d711806832aaa5d218e373d10b7d621c7d093",
            15,
        ),
        (23, 0.0): (
            "2ec8510f09fae9b93eb28b8019927f79a0d8937a418467f94e96f58ec5dd4ffb",
            30,
        ),
        (23, None): (
            "4308f8e7001a6f57e5b0819e3f5329072591ef8b8a93b8563f8e5e447a061326",
            27,
        ),
    },
}


def _openblas_core() -> str:
    """The core OpenBLAS picked at run time, read as CI's BLAS step
    reads it ("unknown" when numpy bundles no OpenBLAS)."""
    libs = os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*")
    for path in sorted(glob.glob(libs)):
        corename = getattr(
            ctypes.CDLL(path), "scipy_openblas_get_corename64_", None
        )
        if corename is not None:
            corename.restype = ctypes.c_char_p
            return corename().decode()
    return "unknown"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _write(tmp_path, seed):
    return write_gtm_workload(
        tmp_path / f"w{seed}", n_files=3, points_per_file=40, dimensions=6,
        sample_points=30, seed=seed, store=None,
    )


@pytest.mark.parametrize("seed", sorted(SPLIT_DIGESTS))
def test_split_points_are_pinned(tmp_path, seed):
    specs, sample = _write(tmp_path, seed)
    digests = [_sha(np.asarray(sample).tobytes())]
    for spec in specs:
        with np.load(spec.input_key) as archive:
            digests.append(_sha(archive["points"].tobytes()))
    assert digests == SPLIT_DIGESTS[seed]


def test_splits_are_stored_not_deflated(tmp_path):
    specs, _ = _write(tmp_path, 3)
    for spec in specs:
        with zipfile.ZipFile(spec.input_key) as archive:
            (member,) = archive.infolist()
            assert member.filename == "points.npy"
            assert member.compress_type == zipfile.ZIP_STORED


def test_every_core_pins_the_same_runs():
    runs = [sorted(pins, key=str) for pins in MODEL_DIGESTS.values()]
    assert all(r == runs[0] for r in runs)


@pytest.mark.parametrize(
    "seed, tol", sorted(MODEL_DIGESTS["SkylakeX"], key=str)
)
def test_trained_model_is_pinned(seed, tol):
    core = _openblas_core()
    assert core in MODEL_DIGESTS, (
        f"no trained-model digests recorded for OpenBLAS core {core!r}"
    )
    data = generate_pubchem_points(300, 16, seed=seed)
    model = train_gtm(data, **({} if tol is None else {"tol": tol}))
    digest = hashlib.sha256()
    digest.update(model.weights.tobytes())
    digest.update(np.float64(model.beta).tobytes())
    digest.update(np.asarray(model.log_likelihoods).tobytes())
    assert (digest.hexdigest(), len(model.log_likelihoods)) == (
        MODEL_DIGESTS[core][seed, tol]
    )

