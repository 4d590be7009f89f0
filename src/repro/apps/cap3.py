"""A miniature CAP3-style DNA sequence assembler.

Implements the pipeline the paper describes for CAP3 (Huang & Madan 1999)
at reduced scale but with every stage real:

1. **poor-region trimming** — clip low-quality ends (``N`` runs and
   lowercase bases, the conventional soft-mask for poor quality);
2. **overlap computation** — k-mer seeded suffix/prefix overlap detection
   between all read pairs, verified by vectorized identity scoring;
3. **false-overlap removal** — overlaps below the identity/score
   thresholds are rejected;
4. **layout** — greedy merging of the highest-scoring overlaps into
   read chains (contigs), avoiding branches and cycles; contained reads
   attach inside their container;
5. **consensus** — per-column majority vote over the layout produces the
   contig sequence.

The run time is genuinely content-dependent (overlap-dense files take
longer), which is exactly the inhomogeneity property the paper's
load-balancing experiments rely on.
"""

from __future__ import annotations

import re
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.apps.fasta import FastaRecord
from repro.apps.postings import PostingTable, ragged, window_keys

__all__ = [
    "AssemblyResult",
    "Cap3Params",
    "Contig",
    "Overlap",
    "assemble",
    "reverse_complement",
    "trim_read",
]

_BASES = "ACGTN"
_BASE_INDEX = {base: i for i, base in enumerate(_BASES)}
_NON_BASE = re.compile(f"[^{_BASES}]")
# Byte -> index into _BASES; anything else votes N.
_BASE_CODES = np.full(256, _BASE_INDEX["N"], dtype=np.int64)
for _base, _code in _BASE_INDEX.items():
    _BASE_CODES[ord(_base)] = _code
_COMPLEMENT = str.maketrans("ACGTN", "TGCAN")
# Byte-level complement table for encoded arrays.
_COMPLEMENT_BYTES = np.arange(256, dtype=np.uint8)
for _src, _dst in zip(b"ACGTN", b"TGCAN"):
    _COMPLEMENT_BYTES[_src] = _dst


def reverse_complement(seq: str) -> str:
    """The reverse complement of a DNA sequence (N maps to N)."""
    return seq.translate(_COMPLEMENT)[::-1]


def _rc_array(arr: np.ndarray) -> np.ndarray:
    """Reverse complement of an encoded read."""
    return _COMPLEMENT_BYTES[arr][::-1]


@dataclass(frozen=True)
class Cap3Params:
    """Assembly thresholds (defaults loosely follow CAP3's)."""

    min_overlap: int = 30
    min_identity: float = 0.9
    kmer_size: int = 12
    seed_stride: int = 8  # spacing of seed probes along a read prefix
    max_seed_span: int = 64  # how deep into the prefix we look for seeds
    min_read_length: int = 40
    mismatch_penalty: float = 2.0
    handle_reverse_complements: bool = True

    def __post_init__(self) -> None:
        if self.min_overlap < self.kmer_size:
            raise ValueError("min_overlap must be >= kmer_size")
        if not 0.5 <= self.min_identity <= 1.0:
            raise ValueError("min_identity must be in [0.5, 1.0]")
        if self.kmer_size < 4:
            raise ValueError("kmer_size must be >= 4")
        if self.seed_stride < 1:
            raise ValueError("seed_stride must be >= 1")


@dataclass(frozen=True)
class Overlap:
    """A validated alignment of read ``b`` against read ``a``.

    ``a_start`` is the position in ``a`` where ``b`` begins.  When
    ``contained`` is True the whole of ``b`` lies within ``a``;
    otherwise this is a proper suffix(a)/prefix(b) overlap of
    ``length`` bases.
    """

    a: int
    b: int
    a_start: int
    length: int
    identity: float
    score: float
    contained: bool = False


@dataclass
class Contig:
    """An assembled contig: consensus plus its read layout.

    ``strands`` records each read's orientation in the layout: ``'+'``
    (as given) or ``'-'`` (reverse-complemented before placement).
    ``coverage`` is the per-consensus-position read depth.
    """

    id: str
    seq: str
    reads: list[tuple[str, int]] = field(default_factory=list)  # (read id, offset)
    strands: dict[str, str] = field(default_factory=dict)
    coverage: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int32))

    def __len__(self) -> int:
        return len(self.seq)

    def mean_coverage(self) -> float:
        """Average read depth over the consensus (0.0 if empty)."""
        return float(self.coverage.mean()) if len(self.coverage) else 0.0

    def min_coverage(self) -> int:
        """Weakest-link depth — 1 flags unconfirmed single-read spans."""
        return int(self.coverage.min()) if len(self.coverage) else 0


@dataclass
class AssemblyResult:
    """Output of :func:`assemble`."""

    contigs: list[Contig]
    singletons: list[FastaRecord]
    stats: dict[str, float] = field(default_factory=dict)

    @property
    def n50(self) -> int:
        """Contig N50 (0 when there are no contigs)."""
        lengths = sorted((len(c) for c in self.contigs), reverse=True)
        if not lengths:
            return 0
        half = sum(lengths) / 2.0
        acc = 0
        for length in lengths:
            acc += length
            if acc >= half:
                return length
        return lengths[-1]


def trim_read(record: FastaRecord, min_length: int) -> FastaRecord | None:
    """Clip poor-quality ends; return None if too little survives.

    Poor quality is marked as ``N`` bases or lowercase (soft-masked)
    bases at either end of the read.  Interior soft-masked bases are
    uppercased and kept, matching CAP3's treatment of marginal calls;
    interior non-ACGT characters become ``N``.
    """
    seq = record.seq
    start, end = 0, len(seq)
    while start < end and (seq[start] in "Nn" or seq[start].islower()):
        start += 1
    while end > start and (seq[end - 1] in "Nn" or seq[end - 1].islower()):
        end -= 1
    trimmed = seq[start:end].upper()
    if len(trimmed) < min_length:
        return None
    trimmed = _NON_BASE.sub("N", trimmed)
    return FastaRecord(id=record.id, seq=trimmed, description=record.description)


def _encode(seq: str) -> np.ndarray:
    """Sequence as a byte array for vectorized comparisons."""
    return np.frombuffer(seq.encode("ascii"), dtype=np.uint8)


# Base-5 digit per ACGTN byte (trimmed reads hold no other), for k-mer keys.
_KMER_DIGIT = np.zeros(256, dtype=np.int64)
_KMER_DIGIT[list(b"ACGTN")] = range(5)


class _ReadSet:
    """Encoded reads laid end to end in one buffer, with the key of
    every k-mer window from one :func:`window_keys` pass over the buffer
    (windows straddling two reads are computed and never looked at)."""

    def __init__(self, arrays: list[np.ndarray], k: int):
        self.lengths = np.array([len(a) for a in arrays], dtype=np.int64)
        self.starts = np.cumsum(self.lengths) - self.lengths
        self.windows = np.maximum(self.lengths - k + 1, 0)
        self.buf = np.concatenate([np.zeros(0, dtype=np.uint8)] + arrays)
        self.keys = window_keys(_KMER_DIGIT[self.buf], k, 5)


def _placements(
    reads: _ReadSet, n_indexed: int, probes: Sequence[int], params: Cap3Params
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Seeded placements of each probe read against the first
    ``n_indexed`` reads: a seed at b[s] matching a[a_pos] places b at
    ``a_start = a_pos - s``, from a :class:`PostingTable` of those
    reads' k-mers.  Hits on the probe's own read are skipped (read
    ``r + n_indexed`` is read ``r``), and each ``(a, a_start)`` counts
    once per probe.  Returns ``(probe number, a, a_start)`` in the order
    a probe, seed, posting loop meets them.
    """
    table = PostingTable(reads.keys, reads.lengths[:n_indexed], params.kmer_size)

    probes = np.asarray(probes, dtype=np.int64)
    stride = params.seed_stride
    per_probe = np.minimum(reads.windows[probes], params.max_seed_span)
    seed_probe, seed_no = ragged(-(-per_probe // stride))
    seed_pos = stride * seed_no
    seeds = reads.keys[reads.starts[probes[seed_probe]] + seed_pos]
    hit_seed, posting = table.lookup(seeds)
    probe = seed_probe[hit_seed]
    a = table.seq[posting]
    a_start = table.pos[posting] - seed_pos[hit_seed]
    other = a != probes[probe] % n_indexed
    placed = np.stack((probe[other], a[other], a_start[other]))
    # Keep the first of each (probe, a, a_start): a stable sort groups
    # repeats behind it.
    order = np.lexsort(placed[::-1])
    ranked = placed[:, order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (ranked[:, 1:] != ranked[:, :-1]).any(axis=0)
    probe, a, a_start = placed[:, np.sort(order[first])]
    return probe, a, a_start


def _verify_placements(
    reads: _ReadSet, x: np.ndarray, y: np.ndarray, offset: np.ndarray,
    params: Cap3Params,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Score read ``y`` placed at ``offset`` in read ``x`` (y's prefix
    against x's suffix) for many placements in one gather-compare.

    Returns ``(matches, length, accepted)``; ``accepted`` applies the
    overlap length and identity thresholds.
    """
    length = np.minimum(reads.lengths[x] - offset, reads.lengths[y])
    placement, t = ragged(length)
    x_base = (reads.starts[x] + offset)[placement]
    y_base = reads.starts[y][placement]
    same = reads.buf[x_base + t] == reads.buf[y_base + t]
    matches = np.bincount(placement[same], minlength=len(length))
    accepted = (length >= params.min_overlap) & (
        matches / length >= params.min_identity
    )
    return matches, length, accepted


def _find_overlaps(
    arrays: list[np.ndarray], params: Cap3Params
) -> tuple[list[Overlap], int]:
    """All accepted pairwise overlaps via k-mer seeding.

    Returns the best overlap per ordered read pair and the number of
    candidate placements examined (a work measure the performance-model
    calibration uses).
    """
    reads = _ReadSet(arrays, params.kmer_size)
    b, a, a_start = _placements(
        reads, len(arrays), range(len(arrays)), params
    )
    proper = a_start >= 0
    b, a, a_start = b[proper], a[proper], a_start[proper]
    matches, length, accepted = _verify_placements(reads, a, b, a_start, params)
    best: dict[tuple[int, int], Overlap] = {}
    for a_idx, b_idx, start, hits, n in zip(
        *(v[accepted].tolist() for v in (a, b, a_start, matches, length))
    ):
        overlap = Overlap(
            a=a_idx,
            b=b_idx,
            a_start=start,
            length=n,
            identity=hits / n,
            score=hits - params.mismatch_penalty * (n - hits),
            contained=start + len(arrays[b_idx]) <= len(arrays[a_idx]),
        )
        existing = best.get((a_idx, b_idx))
        if existing is None or overlap.score > existing.score:
            best[(a_idx, b_idx)] = overlap
    return list(best.values()), len(a)


def _orientation_edges(
    arrays: list[np.ndarray], params: Cap3Params
) -> list[tuple[int, int, bool]]:
    """Pairwise orientation constraints from both-strand seeding.

    Probes each read's prefix in forward *and* reverse-complement
    orientation against the forward reads; an accepted placement yields
    an edge ``(a, b, same_orientation)``.
    """
    n = len(arrays)
    reads = _ReadSet(
        arrays + [_rc_array(arr) for arr in arrays], params.kmer_size
    )
    # Read b forward, then reverse-complemented (read b + n).
    probe, a, a_start = _placements(
        reads, n, [b + n * flip for b in range(n) for flip in (0, 1)], params
    )
    b = probe // 2
    b_read = b + n * (probe % 2)
    # When b (in this orientation) starts before a, verify with the
    # roles swapped: suffix(b) against prefix(a).
    before = a_start < 0
    _, _, accepted = _verify_placements(
        reads,
        np.where(before, b_read, a),
        np.where(before, a, b_read),
        np.abs(a_start),
        params,
    )
    same = probe % 2 == 0
    return list(zip(*(v[accepted].tolist() for v in (a, b, same))))


def _resolve_orientations(
    n_reads: int, edges: list[tuple[int, int, bool]]
) -> tuple[list[bool], int]:
    """2-colour the parity graph: flip[i] says read i should be
    reverse-complemented.  Conflicting edges (odd cycles from chimeric
    overlaps) are counted and ignored."""
    adjacency: dict[int, list[tuple[int, bool]]] = {}
    for a, b, same in edges:
        adjacency.setdefault(a, []).append((b, same))
        adjacency.setdefault(b, []).append((a, same))
    flip = [False] * n_reads
    visited = [False] * n_reads
    conflicts = 0
    for start in range(n_reads):
        if visited[start]:
            continue
        visited[start] = True
        frontier = [start]
        while frontier:
            node = frontier.pop()
            for neighbour, same in adjacency.get(node, ()):  # noqa: B023
                wanted = flip[node] if same else not flip[node]
                if not visited[neighbour]:
                    visited[neighbour] = True
                    flip[neighbour] = wanted
                    frontier.append(neighbour)
                elif flip[neighbour] != wanted:
                    conflicts += 1
    return flip, conflicts


def _greedy_layout(
    read_lengths: list[int], overlaps: list[Overlap]
) -> tuple[list[list[tuple[int, int]]], set[int]]:
    """Chain reads through their best overlaps.

    Returns ``(chains, used)``: each chain is a list of ``(read index,
    offset)`` in layout coordinates, and ``used`` is the set of placed
    read indices (including contained reads attached in a second pass).
    """
    n_reads = len(read_lengths)
    ranked = sorted(overlaps, key=lambda o: (-o.score, o.a, o.b))

    right_of: dict[int, tuple[int, int]] = {}  # a -> (b, a_start of b)
    left_taken: set[int] = set()
    parent = list(range(n_reads))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for ov in ranked:
        if ov.contained:
            continue
        if ov.a in right_of or ov.b in left_taken:
            continue
        if find(ov.a) == find(ov.b):
            continue  # would close a cycle
        right_of[ov.a] = (ov.b, ov.a_start)
        left_taken.add(ov.b)
        parent[find(ov.a)] = find(ov.b)

    chains: list[list[tuple[int, int]]] = []
    used: set[int] = set()
    offsets: dict[int, int] = {}
    chain_of: dict[int, int] = {}
    for head in range(n_reads):
        if head in left_taken or head not in right_of:
            continue
        chain: list[tuple[int, int]] = []
        offset = 0
        current: int | None = head
        while current is not None:
            chain.append((current, offset))
            used.add(current)
            offsets[current] = offset
            chain_of[current] = len(chains)
            nxt = right_of.get(current)
            if nxt is None:
                break
            successor, a_start = nxt
            offset += a_start
            current = successor
        chains.append(chain)

    # Second pass: attach contained reads inside their container.  A
    # container that joined no chain (e.g. identical duplicate reads,
    # pure-containment clusters) starts a fresh single-read chain first.
    for ov in ranked:
        if not ov.contained or ov.b in used:
            continue
        if ov.a not in used:
            if ov.a in left_taken or ov.a in right_of:
                continue  # shouldn't happen, but never split a chain
            chains.append([(ov.a, 0)])
            used.add(ov.a)
            offsets[ov.a] = 0
            chain_of[ov.a] = len(chains) - 1
        b_offset = offsets[ov.a] + ov.a_start
        chains[chain_of[ov.a]].append((ov.b, b_offset))
        used.add(ov.b)
        offsets[ov.b] = b_offset
        chain_of[ov.b] = chain_of[ov.a]
    return chains, used


def _consensus(
    chain: list[tuple[int, int]], arrays: list[np.ndarray]
) -> tuple[str, np.ndarray]:
    """Majority vote per column; returns (consensus, coverage depth)."""
    total_len = max(offset + len(arrays[idx]) for idx, offset in chain)
    # Every read's votes in one count over flat (column, base) cells.
    columns = np.concatenate(
        [np.arange(offset, offset + len(arrays[idx])) for idx, offset in chain]
    )
    codes = _BASE_CODES[np.concatenate([arrays[idx] for idx, _ in chain])]
    counts = np.bincount(
        columns * len(_BASES) + codes, minlength=total_len * len(_BASES)
    ).astype(np.int32).reshape(total_len, len(_BASES))
    coverage = counts.sum(axis=1, dtype=np.int32)
    # Real bases out-vote N wherever any read has coverage.
    counts[:, _BASE_INDEX["N"]] -= 1
    winners = counts.argmax(axis=1)
    consensus = (
        np.frombuffer(_BASES.encode("ascii"), dtype=np.uint8)[winners]
        .tobytes()
        .decode("ascii")
    )
    return consensus, coverage


def assemble(
    records: list[FastaRecord], params: Cap3Params | None = None
) -> AssemblyResult:
    """Assemble ``records`` into contigs.

    The full CAP3-style pipeline: trim, overlap, filter, layout,
    consensus.  Reads that join no contig are returned as singletons.
    """
    params = params or Cap3Params()
    stats: dict[str, float] = {"reads_in": len(records)}

    trimmed: list[FastaRecord] = []
    dropped = 0
    for record in records:
        kept = trim_read(record, params.min_read_length)
        if kept is None:
            dropped += 1
        else:
            trimmed.append(kept)
    stats["reads_dropped_in_trim"] = dropped
    stats["reads_after_trim"] = len(trimmed)

    arrays = [_encode(r.seq) for r in trimmed]

    # Orientation resolution: shotgun reads arrive on both strands.  A
    # 2-colouring of the overlap parity graph flips reads into one
    # consistent orientation before the forward-only pipeline runs.
    flips = [False] * len(arrays)
    if params.handle_reverse_complements and arrays:
        edges = _orientation_edges(arrays, params)
        flips, conflicts = _resolve_orientations(len(arrays), edges)
        stats["orientation_conflicts"] = conflicts
        stats["reads_flipped"] = sum(flips)
        arrays = [
            _rc_array(arr) if flipped else arr
            for arr, flipped in zip(arrays, flips)
        ]

    overlaps, candidates = _find_overlaps(arrays, params)
    stats["overlap_candidates"] = candidates
    stats["overlaps_accepted"] = len(overlaps)

    chains, used = _greedy_layout([len(a) for a in arrays], overlaps)

    contigs: list[Contig] = []
    for n, chain in enumerate(chains, start=1):
        seq, coverage = _consensus(chain, arrays)
        contigs.append(
            Contig(
                id=f"Contig{n}",
                seq=seq,
                reads=[(trimmed[idx].id, offset) for idx, offset in chain],
                strands={
                    trimmed[idx].id: "-" if flips[idx] else "+"
                    for idx, _ in chain
                },
                coverage=coverage,
            )
        )
    singletons = [trimmed[i] for i in range(len(trimmed)) if i not in used]
    stats["contigs"] = len(contigs)
    stats["singletons"] = len(singletons)
    stats["contig_bases"] = sum(len(c) for c in contigs)
    return AssemblyResult(contigs=contigs, singletons=singletons, stats=stats)
