"""File-in / file-out executable wrappers for the three applications.

The paper's framework contract: a task is one input file processed by an
existing sequential executable into one output file.  These classes wrap
the real algorithm implementations behind exactly that contract, so the
local execution backend schedules them the same way the EC2/Azure workers
schedule ``cap3``, ``blastp`` and the GTM interpolation binary.
"""

from __future__ import annotations

import abc
from pathlib import Path

import numpy as np

from repro.apps.blast import BlastDatabase, BlastParams, blast_search
from repro.apps.cap3 import Cap3Params, assemble
from repro.apps.fasta import FastaRecord, read_fasta, write_fasta
from repro.apps.gtm import GtmModel, gtm_interpolate

__all__ = [
    "BlastExecutable",
    "Cap3Executable",
    "Executable",
    "GtmInterpolationExecutable",
]


class Executable(abc.ABC):
    """The sequential-executable contract every framework schedules."""

    #: short program name (shows up in task logs and reports)
    name: str = "executable"

    @abc.abstractmethod
    def run(self, input_path: str | Path, output_path: str | Path) -> None:
        """Process one input file into one output file.

        Must be deterministic and idempotent: re-running a task (as the
        Classic Cloud framework does after a visibility timeout) must
        produce an identical output file.
        """


class Cap3Executable(Executable):
    """Assemble a file of reads into contigs (mini CAP3).

    Accepts FASTA input, or FASTQ (``.fq``/``.fastq``) in which case
    reads are quality-trimmed first — real CAP3 likewise consumes base
    qualities when available.  Output: a FASTA file containing the
    consensus contigs followed by the unassembled singleton reads,
    mirroring CAP3's ``.contigs`` + ``.singlets`` outputs merged into
    the single file the framework expects.
    """

    name = "cap3"

    def __init__(
        self,
        params: Cap3Params | None = None,
        quality_threshold: int = 20,
    ):
        self.params = params or Cap3Params()
        self.quality_threshold = quality_threshold

    def run(self, input_path: str | Path, output_path: str | Path) -> None:
        input_path = Path(input_path)
        if input_path.suffix.lower() in (".fq", ".fastq"):
            from repro.apps.fastq import quality_trim, read_fastq

            records = [
                trimmed
                for record in read_fastq(input_path)
                if (
                    trimmed := quality_trim(
                        record,
                        threshold=self.quality_threshold,
                        min_length=self.params.min_read_length,
                    )
                )
                is not None
            ]
        else:
            records = read_fasta(input_path)
        result = assemble(records, self.params)
        # Contigs first, then singletons, like cap3's two outputs.
        text_records = [
            FastaRecord(
                id=contig.id,
                seq=contig.seq,
                description=f"reads={len(contig.reads)}",
            )
            for contig in result.contigs
        ]
        text_records.extend(result.singletons)
        write_fasta(text_records, output_path)


class BlastExecutable(Executable):
    """Search a FASTA file of protein queries against a resident database.

    The database is loaded once at construction (the paper's workers
    download and extract the NR database at startup, before any tasks).
    Output: BLAST tabular format (``-outfmt 6``): query id, subject id,
    % identity, alignment length, e-value, bit score.
    """

    name = "blastp"

    def __init__(
        self,
        db: BlastDatabase,
        params: BlastParams | None = None,
        num_threads: int = 1,
    ):
        self.db = db
        self.params = params or BlastParams()
        self.num_threads = num_threads

    def run(self, input_path: str | Path, output_path: str | Path) -> None:
        queries = read_fasta(input_path)
        results = blast_search(
            queries, self.db, self.params, num_threads=self.num_threads
        )
        lines = []
        for query in queries:
            for hit in results[query.id]:
                lines.append(
                    "\t".join(
                        (
                            hit.query_id,
                            hit.subject_id,
                            f"{100.0 * hit.identity:.2f}",
                            str(hit.align_length),
                            f"{hit.evalue:.3g}",
                            f"{hit.bit_score:.1f}",
                        )
                    )
                )
        Path(output_path).write_text(
            "\n".join(lines) + ("\n" if lines else ""), encoding="ascii"
        )


class GtmInterpolationExecutable(Executable):
    """Project a file of out-of-sample points through a trained GTM.

    Input: an ``.npz`` archive with a ``points`` array (the paper ships
    compressed data splits that are unzipped before processing — ``.npz``
    *is* the zip container here; stored and deflated members both load,
    and ``write_gtm_workload`` stores them).  Output: a ``.npy`` of latent
    coordinates, orders of magnitude smaller than the input, matching the
    paper's observation about GTM output sizes.
    """

    name = "gtm-interpolate"

    def __init__(self, model: GtmModel, batch_size: int = 10_000):
        self.model = model
        self.batch_size = batch_size

    def run(self, input_path: str | Path, output_path: str | Path) -> None:
        with np.load(input_path) as archive:
            points = archive["points"]
        latent = gtm_interpolate(self.model, points, batch_size=self.batch_size)
        # Write through a handle: np.save(path) appends '.npy' to bare
        # paths, which would break atomic temp-file renames upstream.
        with open(output_path, "wb") as handle:
            np.save(handle, latent)
