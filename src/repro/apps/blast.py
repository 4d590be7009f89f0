"""A miniature protein BLAST (seed–extend similarity search).

Real algorithmic pipeline in the style of NCBI BLAST+ (Camacho et al.
2009), scaled down but faithful in structure:

1. **word index** — the database is indexed by k=3 amino-acid words
   (optionally with a scored neighbourhood, as in true BLASTP);
2. **two-hit trigger** — two word hits on the same diagonal within a
   window trigger extension (cuts spurious extensions, as in BLAST 2.0);
3. **ungapped X-drop extension** — seeds extend along the diagonal until
   the score drops X below the running maximum;
4. **gapped banded Smith–Waterman** — promising ungapped hits are
   re-aligned with gaps inside a diagonal band, every alignment of a
   search in one batched DP;
5. **Karlin–Altschul statistics** — raw scores convert to bit scores and
   e-values with the standard gapped BLOSUM62 parameters.

The database object holds all sequences and the word index resident in
memory — the property behind the paper's Figure 9 memory study (BLAST can
"load and reuse the whole database in memory" only when the instance has
enough of it).

Queries are independent; :func:`blast_search` optionally fans a query
batch across threads, mirroring ``blastp -num_threads``.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from repro.apps.fasta import FastaRecord
from repro.apps.postings import PostingTable, window_keys

__all__ = [
    "AMINO_ACIDS",
    "BlastDatabase",
    "BlastHit",
    "BlastParams",
    "LowComplexityFilter",
    "blast_search",
    "blosum62",
    "mask_low_complexity",
]

AMINO_ACIDS = "ARNDCQEGHILKMFPSTWYV"
# Residue index per byte; -1 marks a byte that is no amino acid.
_AA_CODE = np.full(256, -1, dtype=np.int64)
_AA_CODE[list(AMINO_ACIDS.encode("ascii"))] = range(len(AMINO_ACIDS))

# Standard BLOSUM62 substitution matrix, row/column order as AMINO_ACIDS.
_BLOSUM62_ROWS = [
    # A   R   N   D   C   Q   E   G   H   I   L   K   M   F   P   S   T   W   Y   V
    [4, -1, -2, -2, 0, -1, -1, 0, -2, -1, -1, -1, -1, -2, -1, 1, 0, -3, -2, 0],
    [-1, 5, 0, -2, -3, 1, 0, -2, 0, -3, -2, 2, -1, -3, -2, -1, -1, -3, -2, -3],
    [-2, 0, 6, 1, -3, 0, 0, 0, 1, -3, -3, 0, -2, -3, -2, 1, 0, -4, -2, -3],
    [-2, -2, 1, 6, -3, 0, 2, -1, -1, -3, -4, -1, -3, -3, -1, 0, -1, -4, -3, -3],
    [0, -3, -3, -3, 9, -3, -4, -3, -3, -1, -1, -3, -1, -2, -3, -1, -1, -2, -2, -1],
    [-1, 1, 0, 0, -3, 5, 2, -2, 0, -3, -2, 1, 0, -3, -1, 0, -1, -2, -1, -2],
    [-1, 0, 0, 2, -4, 2, 5, -2, 0, -3, -3, 1, -2, -3, -1, 0, -1, -3, -2, -2],
    [0, -2, 0, -1, -3, -2, -2, 6, -2, -4, -4, -2, -3, -3, -2, 0, -2, -2, -3, -3],
    [-2, 0, 1, -1, -3, 0, 0, -2, 8, -3, -3, -1, -2, -1, -2, -1, -2, -2, 2, -3],
    [-1, -3, -3, -3, -1, -3, -3, -4, -3, 4, 2, -3, 1, 0, -3, -2, -1, -3, -1, 3],
    [-1, -2, -3, -4, -1, -2, -3, -4, -3, 2, 4, -2, 2, 0, -3, -2, -1, -2, -1, 1],
    [-1, 2, 0, -1, -3, 1, 1, -2, -1, -3, -2, 5, -1, -3, -1, 0, -1, -3, -2, -2],
    [-1, -1, -2, -3, -1, 0, -2, -3, -2, 1, 2, -1, 5, 0, -2, -1, -1, -1, -1, 1],
    [-2, -3, -3, -3, -2, -3, -3, -3, -1, 0, 0, -3, 0, 6, -4, -2, -2, 1, 3, -1],
    [-1, -2, -2, -1, -3, -1, -1, -2, -2, -3, -3, -1, -2, -4, 7, -1, -1, -4, -3, -2],
    [1, -1, 1, 0, -1, 0, 0, 0, -1, -2, -2, 0, -1, -2, -1, 4, 1, -3, -2, -2],
    [0, -1, 0, -1, -1, -1, -1, -2, -2, -1, -1, -1, -1, -2, -1, 1, 5, -2, -2, 0],
    [-3, -3, -4, -4, -2, -2, -3, -2, -2, -3, -2, -3, -1, 1, -4, -3, -2, 11, 2, -3],
    [-2, -2, -2, -3, -2, -1, -2, -3, 2, -1, -1, -2, -1, 3, -3, -2, -2, 2, 7, -2],
    [0, -3, -3, -3, -1, -2, -2, -3, -3, 3, 1, -2, 1, -1, -2, -2, 0, -3, -2, 4],
]
_BLOSUM62 = np.array(_BLOSUM62_ROWS, dtype=np.int32)
# The gapped DP's substitution scores with a pad letter (20) off either
# sequence, indexed ``subject * 21 + query``; a pad cell scores _DEAD.
_PAD = len(AMINO_ACIDS)
_DEAD = -128
_BAND_SCORES = np.full((21, 21), _DEAD, dtype=np.int8)
_BAND_SCORES[:20, :20] = _BLOSUM62
_BAND_SCORES = _BAND_SCORES.ravel()


def blosum62(a: str, b: str) -> int:
    """BLOSUM62 score for one residue pair."""
    return int(_BLOSUM62[tuple(_encode(a + b))])


# Gapped Karlin-Altschul parameters for BLOSUM62 / gap open 11 extend 1.
_KA_LAMBDA = 0.267
_KA_K = 0.041
_LN2 = float(np.log(2.0))


@dataclass(frozen=True)
class BlastParams:
    """Search thresholds (defaults modelled on blastp's)."""

    word_size: int = 3
    two_hit_window: int = 40
    xdrop_ungapped: float = 7.0
    xdrop_gapped: float = 15.0
    gap_penalty: float = 11.0  # linear gap cost inside the banded DP
    band_width: int = 16
    min_ungapped_score: int = 22  # promotion threshold to gapped stage
    max_evalue: float = 10.0
    neighborhood_threshold: int | None = None  # e.g. 11 for true-BLAST words
    # SEG-style low-complexity filtering: query windows whose Shannon
    # entropy falls below the threshold are excluded from seeding
    # (blastp's default behaviour).  None disables filtering.
    low_complexity_filter: "LowComplexityFilter | None" = None

    def __post_init__(self) -> None:
        if self.word_size < 2:
            raise ValueError("word_size must be >= 2")
        if self.band_width < 1:
            raise ValueError("band_width must be >= 1")
        if self.gap_penalty < 0:
            raise ValueError("gap_penalty must be >= 0")


@dataclass(frozen=True)
class LowComplexityFilter:
    """Entropy-based query masking parameters (SEG-flavoured)."""

    window: int = 12
    entropy_threshold_bits: float = 2.2  # uniform 20 letters = log2(20)=4.32

    def __post_init__(self) -> None:
        if self.window < 4:
            raise ValueError("window must be >= 4")
        if self.entropy_threshold_bits <= 0:
            raise ValueError("entropy threshold must be positive")


def mask_low_complexity(
    enc: np.ndarray, filter_params: LowComplexityFilter
) -> np.ndarray:
    """Boolean mask: True where the query is low complexity.

    Sliding-window Shannon entropy over residue frequencies; a window
    below the threshold masks all its positions — the shape of the SEG
    algorithm (Wootton & Federhen) without its two-stage refinement.
    """
    n = len(enc)
    window = filter_params.window
    masked = np.zeros(n, dtype=bool)
    if n < window:
        return masked
    for start in range(0, n - window + 1):
        counts = np.bincount(enc[start : start + window], minlength=20)
        freqs = counts[counts > 0] / window
        entropy = float(-(freqs * np.log2(freqs)).sum())
        if entropy < filter_params.entropy_threshold_bits:
            masked[start : start + window] = True
    return masked


@dataclass(frozen=True)
class BlastHit:
    """One reported alignment (tabular-output shape)."""

    query_id: str
    subject_id: str
    raw_score: float
    bit_score: float
    evalue: float
    identity: float
    align_length: int
    query_start: int
    query_end: int
    subject_start: int
    subject_end: int


def _encode(seq: str) -> np.ndarray:
    """Protein string to residue-index array; raises on unknown residues."""
    # One byte per character: anything past latin-1 becomes "?".
    enc = _AA_CODE[np.frombuffer(seq.encode("latin-1", "replace"), np.uint8)]
    if (enc < 0).any():
        raise ValueError(f"unknown amino acid {seq[np.argmax(enc < 0)]!r}")
    return enc


class BlastDatabase:
    """An in-memory protein database with a k-word index.

    ``memory_bytes`` reports the resident footprint (sequences + index),
    the quantity that has to fit in instance RAM for the paper's
    memory-sensitivity results.
    """

    def __init__(self, records: list[FastaRecord], word_size: int = 3):
        if not records:
            raise ValueError("database needs at least one sequence")
        self.word_size = word_size
        self.ids = [r.id for r in records]
        self.seqs = [r.seq for r in records]
        # One byte per residue (codes are below 20); numpy upcasts where
        # arithmetic needs it (word keys, the gapped stage's buffers).
        self.encoded = [_encode(r.seq).astype(np.uint8) for r in records]
        self.total_residues = sum(len(s) for s in self.seqs)
        keys = window_keys(np.concatenate(self.encoded), word_size, 20)
        self.postings = PostingTable(keys, list(map(len, self.seqs)), word_size)

    def __len__(self) -> int:
        return len(self.seqs)

    @property
    def memory_bytes(self) -> int:
        """Modelled resident footprint for Figure 9, not this object's
        arrays: a byte per residue plus 64 bytes per indexed word
        position, the cost of a pointer-based posting list."""
        return self.total_residues + 64 * len(self.postings.keys)


def _query_words(
    enc: np.ndarray, params: BlastParams
) -> tuple[np.ndarray, np.ndarray]:
    """(positions, word keys) of a query's probes, optionally with
    neighbourhood: each window's own word, then its variants.

    Positions inside low-complexity regions are skipped when filtering
    is enabled — they would otherwise seed floods of spurious hits.

    Scoring is vectorized: every candidate single-substitution variant
    of every window is scored in one broadcast against BLOSUM62, and
    probes are emitted in the same (position, word position,
    replacement) order the scalar loops used, so downstream diagonal
    bucketing sees an identical stream.
    """
    k = params.word_size
    keys = window_keys(enc, k, 20)
    if len(enc) < k:
        return np.zeros(0, dtype=np.int64), keys
    windows = np.lib.stride_tricks.sliding_window_view(enc, k)
    if params.low_complexity_filter is not None:
        masked = mask_low_complexity(enc, params.low_complexity_filter)
        allowed = ~np.lib.stride_tricks.sliding_window_view(masked, k).any(
            axis=1
        )
        positions = np.nonzero(allowed)[0]
    else:
        positions = np.arange(len(windows))
    if params.neighborhood_threshold is None:
        return positions, keys[positions]

    # Neighbourhood: single-substitution variants scoring >= T against
    # the query word (true BLASTP admits any word >= T; one substitution
    # captures the overwhelming majority for k=3).  score[q, i, r] is
    # the exact self-score of window q with position i replaced by r.
    kept = windows[positions]  # (Q, k)
    diag = np.ascontiguousarray(np.diagonal(_BLOSUM62))
    self_scores = diag[kept]  # (Q, k)
    exact = self_scores.sum(axis=1)  # (Q,)
    scores = (
        exact[:, None, None] - self_scores[:, :, None] + _BLOSUM62[kept]
    )
    admit = scores >= params.neighborhood_threshold
    admit &= kept[:, :, None] != np.arange(len(AMINO_ACIDS))[None, None, :]
    # C-order nonzero == the scalar loop's (q, i, replacement) order.
    q_idx, i_idx, r_idx = np.nonzero(admit)
    variants = kept[q_idx].astype(np.uint8)
    variants[np.arange(len(q_idx)), i_idx] = r_idx
    # Own word, then variants; every k-th window of the variants is one.
    window = np.concatenate((np.arange(len(kept)), q_idx))
    order = np.argsort(window, kind="stable")
    variant_keys = window_keys(variants.ravel(), k, 20)[::k]
    words = np.concatenate((keys[positions], variant_keys))
    return positions[window[order]], words[order]


def _ungapped_extend(
    query: np.ndarray,
    subject: np.ndarray,
    q_pos: int,
    s_pos: int,
    word_size: int,
    xdrop: float,
) -> tuple[int, int, int, int, float]:
    """X-drop extension along the diagonal.

    Returns (q_start, q_end, s_start, s_end, score) with end exclusive.
    """
    seed_score = float(
        _BLOSUM62[
            query[q_pos : q_pos + word_size], subject[s_pos : s_pos + word_size]
        ].sum()
    )
    # Both directions run as one batched scan each: gather the whole
    # diagonal's substitution scores, cumulative-sum them, and cut at
    # the first X-drop.  Every partial sum is a small integer, exactly
    # representable in float64, so this matches the scalar per-step
    # arithmetic bit for bit.
    # Extend right.
    best, best_right = _scan_extend(
        seed_score,
        seed_score,
        query[q_pos + word_size :],
        subject[s_pos + word_size :],
        xdrop,
    )
    # Extend left.
    best, best_left = _scan_extend(
        best,
        best,
        query[q_pos - 1 :: -1] if q_pos > 0 else query[:0],
        subject[s_pos - 1 :: -1] if s_pos > 0 else subject[:0],
        xdrop,
    )
    q_start = q_pos - best_left
    s_start = s_pos - best_left
    q_end = q_pos + word_size + best_right
    s_end = s_pos + word_size + best_right
    return q_start, q_end, s_start, s_end, best


def _scan_extend(
    start_score: float,
    best: float,
    query_tail: np.ndarray,
    subject_tail: np.ndarray,
    xdrop: float,
) -> tuple[float, int]:
    """One X-drop scan: walk paired residues accumulating from
    ``start_score``; returns (best score, steps to the best prefix).

    The stop rule reproduces the scalar loop exactly: the scan ends at
    the first step whose running score falls more than ``xdrop`` below
    the best seen so far (that step is still examined), and the
    reported best is the *first* maximum of the prefix walked.
    """
    steps = min(len(query_tail), len(subject_tail))
    if steps == 0:
        return best, 0
    running = start_score + np.cumsum(
        _BLOSUM62[query_tail[:steps], subject_tail[:steps]]
    )
    high_water = np.maximum.accumulate(running)
    np.maximum(high_water, start_score, out=high_water)
    drops = (high_water - running) > xdrop
    stop = int(np.argmax(drops)) if drops.any() else steps - 1
    walked = running[: stop + 1]
    peak = int(np.argmax(walked))
    if walked[peak] > best:
        return float(walked[peak]), peak + 1
    return best, 0


def _banded_sw(
    query: np.ndarray,
    subject: np.ndarray,
    diagonal: int,
    params: BlastParams,
) -> tuple[float, int, int, int, int, int, int]:
    """Banded Smith-Waterman around ``diagonal`` (= q_pos - s_pos).

    Returns (score, q_start, q_end, s_start, s_end, matches, align_len).
    Coordinates are 0-based, ends exclusive.  A one-job call of
    :func:`_batched_sw`.
    """
    return _batched_sw([(query, subject, diagonal)], params)[0]


def _batched_sw(
    jobs: list[tuple[np.ndarray, np.ndarray, int]], params: BlastParams
) -> list[tuple[float, int, int, int, int, int, int]]:
    """Banded Smith-Waterman for many ``(query, subject, diagonal)`` jobs.

    One DP over (alignments x band lanes), one NumPy step per subject
    row from each alignment's first row that reaches the query; lane
    ``w`` is query position ``j + diagonal - band_width + w``.  Ties go
    as in a cell-by-cell scan: diagonal, then up (subject gap) if
    strictly better, then left (query gap) if strictly better than both;
    the best cell is the row-major first maximum.  The up chain
    ``S[w] = max(E[w], S[w-1] - gap)`` is the scan
    ``maximum.accumulate(E + gap*w) - gap*w``, exact while scores and
    the gap are integers or dyadic fractions (11, 10.5).

    The forward pass computes scores only, recording per cell whether
    the diagonal move restarts, whether the left move won and the lane
    its up chain starts from; one traceback from each best cell then
    recovers the start, length and matches.  See docs/PERFORMANCE.md,
    "App kernel fast paths".
    """
    band = params.band_width
    gap = params.gap_penalty
    width = 2 * band + 1
    n_jobs = len(jobs)
    q_len = np.array([len(q) for q, _, _ in jobs], dtype=np.int64)
    s_len = np.array([len(s) for _, s, _ in jobs], dtype=np.int64)
    lo_d = np.array([d for _, _, d in jobs], dtype=np.int64) - band
    # Rows that reach the query: -width < j + lo_d < len(query).
    first = np.maximum(0, 1 - width - lo_d)
    stop = np.minimum(s_len, q_len - lo_d)
    n_rows = int((stop - first).max(initial=0))
    if n_rows == 0:
        return [(0.0, 0, 0, 0, 0, 0, 0)] * n_jobs
    # Each alignment's query from position first + lo_d and subject
    # from row first, as far as its band reaches, with a pad letter off
    # either sequence (and past ``stop``): a pad cell is dead.
    q_buf = np.concatenate([q for q, _, _ in jobs] + [[_PAD]])
    s_buf = np.concatenate([s for _, s, _ in jobs] + [[_PAD]])
    i = (first + lo_d)[:, None] + np.arange(n_rows + width - 1)
    j = first[:, None] + np.arange(n_rows)
    q_at = (np.cumsum(q_len) - q_len)[:, None] + i
    s_at = (np.cumsum(s_len) - s_len)[:, None] + j
    q_pad = q_buf[np.where((i >= 0) & (i < q_len[:, None]), q_at, -1)]
    s_pad = s_buf[np.where(j < stop[:, None], s_at, -1)]
    # Cell (row t, alignment a, lane w) pairs subject row first + t with
    # query position first + lo_d + t + w.
    q_band = np.lib.stride_tricks.sliding_window_view(
        q_pad.astype(np.int16), width, axis=1
    ).transpose(1, 0, 2)
    sub = _BAND_SCORES[s_pad.T.astype(np.int16)[:, :, None] * 21 + q_band]
    dead = sub == _DEAD

    # Per cell: the diagonal move restarts, the left move won, and the
    # lane its up chain starts from (the cell itself if not up).
    lanes = np.arange(width, dtype=np.min_scalar_type(width - 1))
    restart = np.empty(sub.shape, dtype=bool)
    from_left = np.empty(sub.shape, dtype=bool)
    origin = np.empty(sub.shape, dtype=lanes.dtype)
    top = np.empty((n_rows, n_jobs))  # each row's first maximum
    top_lane = np.empty((n_rows, n_jobs), dtype=np.intp)
    job = np.arange(n_jobs)
    gap_ramp = gap * np.arange(width)  # int64 lanes: an int gap cannot wrap
    score = np.full((n_jobs, width), -np.inf)  # -inf marks a dead cell
    left = np.full_like(score, -np.inf)
    up = np.full_like(score, -np.inf)
    run = np.empty_like(score)
    from_up = np.empty(score.shape, dtype=bool)
    flag = np.empty_like(from_up)
    stem = np.empty(score.shape, dtype=lanes.dtype)
    for t in range(n_rows):
        np.less_equal(score, 0.0, out=restart[t])
        move = np.maximum(score, 0.0)
        move += sub[t]
        np.subtract(score[:, 1:], gap, out=left[:, :-1])
        np.greater(left, move, out=from_left[t])
        np.putmask(move, from_left[t], left)
        np.putmask(move, dead[t], -np.inf)
        np.add(move, gap_ramp, out=run)
        np.maximum.accumulate(run, axis=1, out=run)
        np.subtract(run[:, :-1], gap_ramp[1:], out=up[:, 1:])
        # Up if strictly better, or tied with a left move.
        np.greater(up, move, out=from_up)
        np.equal(up, move, out=flag)
        flag &= from_left[t]
        from_up |= flag
        np.logical_not(from_up, out=flag)
        np.multiply(lanes, flag, out=stem)
        np.maximum.accumulate(stem, axis=1, out=origin[t])
        np.putmask(move, from_up, up)
        np.less(move, 0.0, out=flag)
        flag |= dead[t]
        np.putmask(move, flag, -np.inf)
        score = move
        top_lane[t] = score.argmax(axis=1)
        top[t] = score[job, top_lane[t]]

    # The best cell is the row-major first maximum, if positive.
    best_row = top.argmax(axis=0)
    found = top[best_row, job] > 0
    best = np.where(found, top[best_row, job], 0.0)
    lane = top_lane[best_row, job]
    q_end = np.where(found, best_row + first + lo_d + lane + 1, 0)
    s_end = np.where(found, best_row + first + 1, 0)
    # Traceback: every open alignment steps back one row per turn.
    length = np.zeros(n_jobs, dtype=np.int64)
    matches = np.zeros(n_jobs, dtype=np.int64)
    q_start = np.zeros(n_jobs, dtype=np.int64)
    s_start = np.zeros(n_jobs, dtype=np.int64)
    walking = np.zeros(n_jobs, dtype=bool)
    for t in range(int(best_row[found].max(initial=-1)), -1, -1):
        walking |= found & (best_row == t)
        at = np.nonzero(walking)[0]
        w = lane[at]
        o = origin[t, at, w].astype(np.intp)
        length[at] += w - o + 1
        by_diag = ~from_left[t, at, o]
        matches[at] += by_diag & (q_pad[at, t + o] == s_pad[at, t])
        starts = by_diag & restart[t, at, o]
        ends = at[starts]
        q_start[ends] = (first + lo_d)[ends] + t + o[starts]
        s_start[ends] = first[ends] + t
        walking[ends] = False
        lane[at] = o + ~by_diag  # a left move came from lane w + 1
    return list(zip(
        best.tolist(), q_start.tolist(), q_end.tolist(), s_start.tolist(),
        s_end.tolist(), matches.tolist(), length.tolist(),
    ))


def _evalue(raw_score: float, query_len: int, db_residues: int) -> tuple[float, float]:
    """Karlin-Altschul bit score and e-value."""
    bit = (_KA_LAMBDA * raw_score - float(np.log(_KA_K))) / _LN2
    evalue = _KA_K * query_len * db_residues * float(
        np.exp(-_KA_LAMBDA * raw_score)
    )
    return bit, evalue


def _gapped_jobs(
    enc: np.ndarray, db: BlastDatabase, params: BlastParams
) -> list[tuple[int, int]]:
    """Stages 1-3 for one encoded query: the ``(subject, diagonal)``
    pairs that stage 4 aligns with gaps."""
    k = params.word_size
    # Stage 1+2: word hits grouped per (subject, diagonal); two-hit check.
    positions, words = _query_words(enc, params)
    probe, posting = db.postings.lookup(words)
    hits = (positions[probe], db.postings.seq[posting], db.postings.pos[posting])
    by_diag: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for q, s_idx, s_pos in zip(*(col.tolist() for col in hits)):
        by_diag.setdefault((s_idx, q - s_pos), []).append((q, s_pos))

    # Stage 3: ungapped X-drop extension of triggered diagonals; keep,
    # per subject, the best-scoring ungapped HSP.  Stage 4 (gapped,
    # expensive) then runs once per subject around that HSP's diagonal —
    # the classic BLAST strategy of gapping only the best seed.
    best_ungapped: dict[int, tuple[float, int]] = {}  # s_idx -> (score, diag)
    for (s_idx, diagonal), seeds in by_diag.items():
        seeds.sort()
        trigger = None
        if len(seeds) == 1:
            # Single-hit fallback for very short queries only.
            if len(enc) <= 2 * params.two_hit_window:
                trigger = seeds[0]
        else:
            for (q1, s1), (q2, s2) in zip(seeds, seeds[1:]):
                if 0 < q2 - q1 <= params.two_hit_window:
                    trigger = (q1, s1)
                    break
        if trigger is None:
            continue
        subject = db.encoded[s_idx]
        q_pos, s_pos = trigger
        ung = _ungapped_extend(
            enc, subject, q_pos, s_pos, k, params.xdrop_ungapped
        )
        if ung[4] < params.min_ungapped_score:
            continue
        current = best_ungapped.get(s_idx)
        if current is None or ung[4] > current[0]:
            best_ungapped[s_idx] = (ung[4], diagonal)

    return [(s_idx, diag) for s_idx, (_, diag) in best_ungapped.items()]


def _search_batch(
    queries: list[FastaRecord], db: BlastDatabase, params: BlastParams
) -> list[list[BlastHit]]:
    """Full pipeline for a batch of queries, each query's hits in order.

    Every gapped alignment of the batch runs in one :func:`_batched_sw`.
    """
    encoded = [_encode(query.seq) for query in queries]
    jobs = [_gapped_jobs(enc, db, params) for enc in encoded]
    aligned = iter(_batched_sw(
        [(enc, db.encoded[s_idx], diagonal)
         for enc, query_jobs in zip(encoded, jobs)
         for s_idx, diagonal in query_jobs],
        params,
    ))
    results = []
    for query, enc, query_jobs in zip(queries, encoded, jobs):
        hits: list[BlastHit] = []
        for (s_idx, _), (score, q_start, q_end, s_start, s_end, matches,
                         align_len) in zip(query_jobs, aligned):
            if align_len == 0:
                continue
            bit, evalue = _evalue(score, len(enc), db.total_residues)
            if evalue > params.max_evalue:
                continue
            hits.append(
                BlastHit(
                    query_id=query.id,
                    subject_id=db.ids[s_idx],
                    raw_score=score,
                    bit_score=bit,
                    evalue=evalue,
                    identity=matches / align_len,
                    align_length=align_len,
                    query_start=q_start,
                    query_end=q_end,
                    subject_start=s_start,
                    subject_end=s_end,
                )
            )
        hits.sort(key=lambda h: (-h.raw_score, h.subject_id))
        results.append(hits)
    return results


def blast_search(
    queries: list[FastaRecord],
    db: BlastDatabase,
    params: BlastParams | None = None,
    num_threads: int = 1,
) -> dict[str, list[BlastHit]]:
    """Search every query against ``db``.

    Returns ``{query id: hits}`` preserving per-query hit order.  With
    ``num_threads > 1`` the queries are split into ``num_threads``
    contiguous shares, each searched as one batch on a thread pool —
    the in-process analogue of ``blastp -num_threads``.  ``params``
    must use the word size ``db`` was indexed with.
    """
    params = params or BlastParams()
    if num_threads < 1:
        raise ValueError("num_threads must be >= 1")
    if params.word_size != db.word_size:
        raise ValueError(
            f"word_size {params.word_size} does not match the database's "
            f"{db.word_size}"
        )
    if num_threads == 1 or len(queries) <= 1:
        results = _search_batch(queries, db, params)
    else:
        share = -(-len(queries) // num_threads)
        with ThreadPoolExecutor(max_workers=num_threads) as pool:
            parts = pool.map(
                lambda lo: _search_batch(queries[lo : lo + share], db, params),
                range(0, len(queries), share),
            )
            results = [hits for part in parts for hits in part]
    return {q.id: r for q, r in zip(queries, results)}
