"""Protein search workloads for BLAST.

The paper bundles 100 protein queries per input file (7–8 KB files)
against NCBI's non-redundant database (8.7 GB).  The generators here
produce an NR-like database (with a controllable fraction of planted
homologs so searches find real hits) and query bundles — including the
paper's scaling setup: an inhomogeneous 128-file base set replicated one
to six times.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.apps.blast import AMINO_ACIDS, BlastDatabase
from repro.apps.fasta import FastaRecord, write_fasta
from repro.core.task import TaskSpec

__all__ = [
    "blast_task_specs",
    "generate_protein_database",
    "generate_query_records",
    "write_blast_workload",
]

_AA = np.frombuffer(AMINO_ACIDS.encode("ascii"), dtype=np.uint8)


def _random_protein(length: int, rng: np.random.Generator) -> str:
    return _AA[rng.integers(0, 20, size=length)].tobytes().decode("ascii")


def _mutate(seq: str, rate: float, rng: np.random.Generator) -> str:
    out = np.frombuffer(seq.encode("ascii"), dtype=np.uint8).copy()
    mask = rng.random(len(out)) < rate
    out[mask] = _AA[rng.integers(0, 20, size=int(mask.sum()))]
    return out.tobytes().decode("ascii")


def generate_protein_database(
    n_sequences: int = 50,
    mean_length: int = 300,
    seed: int = 0,
) -> BlastDatabase:
    """An NR-like database of random proteins."""
    if n_sequences < 1:
        raise ValueError("n_sequences must be >= 1")
    rng = np.random.default_rng(seed)
    records = []
    for i in range(n_sequences):
        length = max(50, int(rng.normal(mean_length, mean_length * 0.2)))
        records.append(
            FastaRecord(id=f"nr{i:06d}", seq=_random_protein(length, rng))
        )
    return records_to_db(records)


def records_to_db(records: list[FastaRecord]) -> BlastDatabase:
    """Build the in-memory database from records."""
    return BlastDatabase(records)


def generate_query_records(
    db: BlastDatabase,
    n_queries: int,
    homolog_fraction: float = 0.5,
    identity: float = 0.8,
    query_length: int = 120,
    seed: int = 0,
    id_prefix: str = "q",
) -> list[FastaRecord]:
    """Query bundle: a mix of planted homologs and random decoys.

    Homologs are mutated fragments of database sequences (so the search
    has true positives to find); decoys are random proteins.
    """
    rng = np.random.default_rng(seed)
    records = []
    for i in range(n_queries):
        if rng.random() < homolog_fraction:
            src = int(rng.integers(0, len(db)))
            seq = db.seqs[src]
            length = min(query_length, len(seq))
            start = int(rng.integers(0, len(seq) - length + 1))
            fragment = seq[start : start + length]
            query = _mutate(fragment, 1.0 - identity, rng)
            desc = f"homolog_of={db.ids[src]}"
        else:
            query = _random_protein(query_length, rng)
            desc = "decoy"
        records.append(
            FastaRecord(id=f"{id_prefix}{i:05d}", seq=query, description=desc)
        )
    return records


def blast_task_specs(
    n_files: int,
    queries_per_file: int = 100,
    base_set_size: int = 128,
    inhomogeneous_base: bool = True,
    seed: int = 0,
    key_prefix: str = "blast",
) -> list[TaskSpec]:
    """Task descriptions matching the paper's BLAST setup.

    Files beyond ``base_set_size`` replicate the base set's work profile
    (the paper replicates its inhomogeneous 128-file set one to six
    times).  Input files are 7–8 KB; outputs range up to megabytes.
    ``work_units`` is the query count, modulated per base file by the
    content-dependent search cost when ``inhomogeneous_base``.
    """
    if n_files < 1:
        raise ValueError("n_files must be >= 1")
    rng = np.random.default_rng(seed)
    if inhomogeneous_base:
        # Per-base-file work multipliers; replicas reuse them.
        sigma = 0.2
        multipliers = rng.lognormal(
            mean=-0.5 * sigma**2, sigma=sigma, size=base_set_size
        )
    else:
        multipliers = np.ones(base_set_size)
    specs = []
    for i in range(n_files):
        mult = float(multipliers[i % base_set_size])
        input_size = int(rng.integers(7_000, 8_193))
        output_size = int(rng.lognormal(mean=np.log(200_000), sigma=1.5))
        specs.append(
            TaskSpec(
                task_id=f"{key_prefix}-{i:05d}",
                input_key=f"{key_prefix}/in/{i:05d}.fa",
                output_key=f"{key_prefix}/out/{i:05d}.tsv",
                input_size=input_size,
                output_size=output_size,
                work_units=queries_per_file * mult,
            )
        )
    return specs


_DB_FILE = "database.fa"


def _write_blast_inputs(
    in_dir: Path,
    n_files: int,
    queries_per_file: int,
    db_sequences: int,
    seed: int,
) -> BlastDatabase:
    """Generate the query files plus the shared database FASTA into
    ``in_dir``; returns the in-memory database."""
    db = generate_protein_database(db_sequences, seed=seed)
    write_fasta(
        [FastaRecord(id=i, seq=s) for i, s in zip(db.ids, db.seqs)],
        in_dir / _DB_FILE,
    )
    for i in range(n_files):
        records = generate_query_records(
            db,
            queries_per_file,
            seed=seed + 1000 + i,
            id_prefix=f"f{i:03d}_q",
        )
        write_fasta(records, in_dir / f"{i:05d}.fa")
    return db


def write_blast_workload(
    directory: str | Path,
    n_files: int,
    queries_per_file: int = 10,
    db_sequences: int = 30,
    seed: int = 0,
    store: "object | str | None" = "auto",
) -> tuple[list[TaskSpec], BlastDatabase]:
    """Write real query files plus a database for the local backend.

    The shared NR-like database is written alongside the queries as
    ``in/database.fa`` — the paper's "shared working set" that every
    worker attaches rather than owning a private copy.

    ``store`` says where the input files come from, as in
    :func:`repro.workloads.store.write_inputs`.
    """
    from repro.apps.fasta import read_fasta
    from repro.workloads.store import write_inputs

    if n_files < 1 or queries_per_file < 1:
        raise ValueError("n_files and queries_per_file must be >= 1")
    directory = Path(directory)
    in_dir = directory / "in"
    (directory / "out").mkdir(parents=True, exist_ok=True)
    params = dict(n_files=n_files, queries_per_file=queries_per_file,
                  db_sequences=db_sequences, seed=seed)
    db = write_inputs(
        store, "blast", params, in_dir,
        lambda target: (_write_blast_inputs(target, **params), {}),
        # On a hit the builder never ran: reindex the shared database
        # file instead of regenerating every sequence.
        lambda built, _: built if built is not None
        else records_to_db(read_fasta(in_dir / _DB_FILE)),
    )
    specs = []
    for i in range(n_files):
        input_path = in_dir / f"{i:05d}.fa"
        output_path = directory / "out" / f"{i:05d}.tsv"
        specs.append(
            TaskSpec(
                task_id=f"blast-local-{i:05d}",
                input_key=str(input_path),
                output_key=str(output_path),
                input_size=input_path.stat().st_size,
                output_size=4096,
                work_units=float(queries_per_file),
            )
        )
    return specs, db
