"""Byte pins for the GTM workload path.

The split generator and ``train_gtm`` may be made faster, never
different: these digests were recorded before the splits were stored
instead of deflated and before EM stopped recomputing distances, and
they must still hold.  Like ``perfbench/digests.json``, the model
digests assume the numpy/BLAS build they were recorded on.
"""

import hashlib
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

# (data seed, tol) -> (SHA-256 of weights, beta and log-likelihoods,
# EM steps taken).  None is the default tol, which stops early.
MODEL_DIGESTS = {
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
}


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


@pytest.mark.parametrize("seed, tol", sorted(MODEL_DIGESTS, key=str))
def test_trained_model_is_pinned(seed, tol):
    data = generate_pubchem_points(300, 16, seed=seed)
    model = train_gtm(data, **({} if tol is None else {"tol": tol}))
    digest = hashlib.sha256()
    digest.update(model.weights.tobytes())
    digest.update(np.float64(model.beta).tobytes())
    digest.update(np.asarray(model.log_likelihoods).tobytes())
    assert (digest.hexdigest(), len(model.log_likelihoods)) == (
        MODEL_DIGESTS[seed, tol]
    )

