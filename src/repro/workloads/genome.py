"""Shotgun-sequencing workloads for Cap3.

The paper's Cap3 experiments use FASTA files of gene-sequence fragments:

* the instance-type study processes 200 files of 200 reads each;
* the scaling study uses a *replicated* set of 458-read files, making
  every task identical (homogeneous) so load balance is not a factor;
* the load-balancing discussion (their earlier study [13]) relies on
  *inhomogeneous* files whose assembly times differ.

Generators here produce both: replicated files (identical content) and
inhomogeneous files (lognormally distributed read counts).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.apps.fasta import FastaRecord, write_fasta
from repro.core.task import TaskSpec

__all__ = [
    "cap3_task_specs",
    "generate_genome",
    "generate_read_records",
    "write_cap3_workload",
]

_BASES = np.frombuffer(b"ACGT", dtype=np.uint8)
# Rough FASTA bytes per read: header (~12) + sequence + newlines.
_BYTES_PER_READ_FACTOR = 1.08


def generate_genome(length: int, rng: np.random.Generator) -> str:
    """A uniform-random DNA sequence."""
    if length < 1:
        raise ValueError("length must be >= 1")
    return _BASES[rng.integers(0, 4, size=length)].tobytes().decode("ascii")


def generate_read_records(
    n_reads: int,
    read_length: int = 450,
    coverage: float = 8.0,
    error_rate: float = 0.005,
    poor_end_fraction: float = 0.3,
    both_strands: bool = False,
    rng: np.random.Generator | None = None,
    id_prefix: str = "read",
) -> list[FastaRecord]:
    """Shotgun reads from a fresh random genome.

    Genome length is derived from the requested coverage; read start
    positions are uniform; sequencing errors are uniform substitutions;
    a fraction of reads get a short low-quality (lowercase) tail, giving
    the trimming stage something real to do.  ``both_strands=True``
    samples each read's strand uniformly, as real shotgun sequencing
    does.
    """
    if n_reads < 1:
        raise ValueError("n_reads must be >= 1")
    rng = rng if rng is not None else np.random.default_rng(0)
    genome_length = max(read_length + 1, int(n_reads * read_length / coverage))
    genome = generate_genome(genome_length, rng)
    records = []
    starts = rng.integers(0, genome_length - read_length + 1, size=n_reads)
    for i, start in enumerate(sorted(starts.tolist())):
        fragment = genome[start : start + read_length]
        if both_strands and rng.random() < 0.5:
            from repro.apps.cap3 import reverse_complement

            fragment = reverse_complement(fragment)
        seq = list(fragment)
        n_errors = rng.binomial(read_length, error_rate)
        for pos in rng.integers(0, read_length, size=n_errors):
            seq[pos] = "ACGT"[rng.integers(0, 4)]
        if rng.random() < poor_end_fraction:
            tail = int(rng.integers(5, 25))
            seq[-tail:] = [c.lower() for c in seq[-tail:]]
        records.append(
            FastaRecord(id=f"{id_prefix}{i}", seq="".join(seq))
        )
    return records


def _read_counts(
    n_files: int,
    reads_per_file: int,
    inhomogeneous: bool,
    rng: np.random.Generator,
) -> list[int]:
    if not inhomogeneous:
        return [reads_per_file] * n_files
    # Lognormal spread around the mean, clipped to stay plausible.
    sigma = 0.55
    counts = rng.lognormal(mean=-0.5 * sigma**2, sigma=sigma, size=n_files)
    counts = np.clip(counts * reads_per_file, reads_per_file * 0.2, None)
    return [int(round(c)) for c in counts]


def cap3_task_specs(
    n_files: int,
    reads_per_file: int = 458,
    read_length: int = 450,
    inhomogeneous: bool = False,
    seed: int = 0,
    key_prefix: str = "cap3",
) -> list[TaskSpec]:
    """Task descriptions for a Cap3 workload (simulator input).

    ``work_units`` is the file's read count — the quantity the Cap3
    performance model charges for.  Input sizes follow the paper's
    "hundreds of kilobytes" figure for typical files.
    """
    if n_files < 1:
        raise ValueError("n_files must be >= 1")
    rng = np.random.default_rng(seed)
    counts = _read_counts(n_files, reads_per_file, inhomogeneous, rng)
    specs = []
    for i, count in enumerate(counts):
        input_size = int(count * read_length * _BYTES_PER_READ_FACTOR)
        specs.append(
            TaskSpec(
                task_id=f"{key_prefix}-{i:05d}",
                input_key=f"{key_prefix}/in/{i:05d}.fa",
                output_key=f"{key_prefix}/out/{i:05d}.fa",
                input_size=input_size,
                # Assembly compresses reads into contigs: output smaller.
                output_size=int(input_size * 0.4),
                work_units=float(count),
            )
        )
    return specs


def _write_cap3_inputs(
    in_dir: Path,
    n_files: int,
    reads_per_file: int,
    read_length: int,
    replicated: bool,
    seed: int,
) -> list[float]:
    """Generate the FASTA input files into ``in_dir``; returns the
    per-file read counts (the Cap3 ``work_units``)."""
    rng = np.random.default_rng(seed)
    work_units = []
    base_records = None
    for i in range(n_files):
        if replicated:
            if base_records is None:
                base_records = generate_read_records(
                    reads_per_file, read_length, rng=rng
                )
            records = base_records
        else:
            count = _read_counts(1, reads_per_file, True, rng)[0]
            records = generate_read_records(count, read_length, rng=rng)
        write_fasta(records, in_dir / f"{i:05d}.fa")
        work_units.append(float(len(records)))
    return work_units


def write_cap3_workload(
    directory: str | Path,
    n_files: int,
    reads_per_file: int = 24,
    read_length: int = 200,
    replicated: bool = True,
    seed: int = 0,
    store: "object | str | None" = "auto",
) -> list[TaskSpec]:
    """Write real FASTA files for the local backend.

    With ``replicated=True`` every file has identical content (the
    paper's homogeneous scaling setup); otherwise each file gets a fresh
    genome and its own read count spread.

    ``store`` says where the input files come from, as in
    :func:`repro.workloads.store.write_inputs`.

    Returns specs whose ``input_key``/``output_key`` are file paths and
    whose sizes reflect the bytes actually written.
    """
    from repro.workloads.store import write_inputs

    if n_files < 1 or reads_per_file < 1:
        raise ValueError("n_files and reads_per_file must be >= 1")
    directory = Path(directory)
    in_dir = directory / "in"
    (directory / "out").mkdir(parents=True, exist_ok=True)
    params = dict(n_files=n_files, reads_per_file=reads_per_file,
                  read_length=read_length, replicated=replicated, seed=seed)

    def build(target: Path):
        work_units = _write_cap3_inputs(target, **params)
        return work_units, {"work_units": work_units}

    work_units = write_inputs(store, "cap3", params, in_dir, build,
                              lambda _, extra: extra["work_units"])
    specs = []
    for i, count in enumerate(work_units):
        input_path = in_dir / f"{i:05d}.fa"
        output_path = directory / "out" / f"{i:05d}.fa"
        specs.append(
            TaskSpec(
                task_id=f"cap3-local-{i:05d}",
                input_key=str(input_path),
                output_key=str(output_path),
                input_size=input_path.stat().st_size,
                output_size=int(input_path.stat().st_size * 0.4),
                work_units=float(count),
            )
        )
    return specs
