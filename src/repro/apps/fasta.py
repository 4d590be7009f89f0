"""FASTA file reading and writing.

Both Cap3 and BLAST consume FASTA-formatted inputs (the paper's tasks are
"a single input file, a single output file").  This module implements the
format: ``>`` header lines carrying an identifier and optional free-text
description, followed by wrapped sequence lines.
"""

from __future__ import annotations

import io
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, TextIO

__all__ = ["FastaRecord", "parse_fasta", "read_fasta", "write_fasta"]

_LINE_WIDTH = 70
# Python's ``\s`` matches exactly the characters ``str.isspace`` accepts.
_WHITESPACE = re.compile(r"\s")


@dataclass(frozen=True)
class FastaRecord:
    """One sequence record."""

    id: str
    seq: str
    description: str = ""

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("FASTA record needs a non-empty id")
        if _WHITESPACE.search(self.seq):
            raise ValueError(f"sequence for {self.id!r} contains whitespace")

    def __len__(self) -> int:
        return len(self.seq)

    @property
    def header(self) -> str:
        """The ``>`` line content (without the marker)."""
        return f"{self.id} {self.description}".strip()


def parse_fasta(stream: TextIO) -> Iterator[FastaRecord]:
    """Yield records from an open FASTA text stream.

    Raises ``ValueError`` on malformed input (sequence data before the
    first header, or an empty header line).
    """
    header: str | None = None
    chunks: list[str] = []
    for lineno, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith(">"):
            if header is not None:
                yield _make_record(header, chunks)
            header = line[1:].strip()
            if not header:
                raise ValueError(f"empty FASTA header at line {lineno}")
            chunks = []
        else:
            if header is None:
                raise ValueError(
                    f"sequence data before any header at line {lineno}"
                )
            chunks.append(line)
    if header is not None:
        yield _make_record(header, chunks)


def _make_record(header: str, chunks: list[str]) -> FastaRecord:
    parts = header.split(None, 1)
    record_id = parts[0]
    description = parts[1] if len(parts) > 1 else ""
    return FastaRecord(id=record_id, seq="".join(chunks), description=description)


def read_fasta(path: str | Path) -> list[FastaRecord]:
    """Read every record from a FASTA file."""
    with open(path, "r", encoding="ascii") as handle:
        return list(parse_fasta(handle))


def write_fasta(
    records: Iterable[FastaRecord], path: str | Path | None = None
) -> str:
    """Write records in FASTA format.

    Returns the formatted text; also writes it to ``path`` if given.
    """
    buffer = io.StringIO()
    for record in records:
        buffer.write(f">{record.header}\n")
        seq = record.seq
        for start in range(0, max(len(seq), 1), _LINE_WIDTH):
            buffer.write(seq[start : start + _LINE_WIDTH])
            buffer.write("\n")
    text = buffer.getvalue()
    if path is not None:
        Path(path).write_text(text, encoding="ascii")
    return text
