"""Byte-identical parity for the vectorized app hot paths.

The NumPy rewrites of BLAST k-mer seeding / X-drop extension / the
gapped banded DP and of Cap3 k-mer seeding / overlap verification must
be *indistinguishable* from the scalar loops they replaced — same
probes in the same order, same coordinates, same scores, same
assemblies.  Each reference below is the pre-vectorization
implementation, kept verbatim as an executable specification.
"""

import numpy as np
import pytest

from repro.apps import blast as blast_mod
from repro.apps.blast import (
    AMINO_ACIDS,
    BlastParams,
    LowComplexityFilter,
    _BLOSUM62,
    _banded_sw,
    _batched_sw,
    _encode,
    _query_words,
    _ungapped_extend,
    blast_search,
    mask_low_complexity,
)
from repro.apps.cap3 import (
    _BASE_INDEX,
    _BASES,
    Cap3Params,
    Overlap,
    _consensus,
    _find_overlaps,
    _orientation_edges,
    _rc_array,
    _seed_keys,
    assemble,
)
from repro.apps.fasta import FastaRecord


# -- scalar references (pre-vectorization code, verbatim) -----------------


def _query_words_reference(enc, params):
    k = params.word_size
    base = enc.astype(np.uint8).tobytes()
    masked = None
    if params.low_complexity_filter is not None:
        masked = mask_low_complexity(enc, params.low_complexity_filter)
    probes = []
    for pos in range(0, len(base) - k + 1):
        if masked is not None and masked[pos : pos + k].any():
            continue
        word = base[pos : pos + k]
        probes.append((pos, word))
        if params.neighborhood_threshold is None:
            continue
        exact = sum(int(_BLOSUM62[word[i], word[i]]) for i in range(k))
        for i in range(k):
            original = word[i]
            for replacement in range(len(AMINO_ACIDS)):
                if replacement == original:
                    continue
                score = (
                    exact
                    - int(_BLOSUM62[original, original])
                    + int(_BLOSUM62[original, replacement])
                )
                if score >= params.neighborhood_threshold:
                    variant = bytearray(word)
                    variant[i] = replacement
                    probes.append((pos, bytes(variant)))
    return probes


def _ungapped_extend_reference(query, subject, q_pos, s_pos, word_size, xdrop):
    seed_score = float(
        _BLOSUM62[
            query[q_pos : q_pos + word_size],
            subject[s_pos : s_pos + word_size],
        ].sum()
    )
    best = running = seed_score
    best_right = 0
    i = 0
    while True:
        qi, si = q_pos + word_size + i, s_pos + word_size + i
        if qi >= len(query) or si >= len(subject):
            break
        running += int(_BLOSUM62[query[qi], subject[si]])
        i += 1
        if running > best:
            best, best_right = running, i
        elif best - running > xdrop:
            break
    running = best
    best_left = 0
    i = 0
    while True:
        qi, si = q_pos - 1 - i, s_pos - 1 - i
        if qi < 0 or si < 0:
            break
        running += int(_BLOSUM62[query[qi], subject[si]])
        i += 1
        if running > best:
            best, best_left = running, i
        elif best - running > xdrop:
            break
    q_start = q_pos - best_left
    s_start = s_pos - best_left
    q_end = q_pos + word_size + best_right
    s_end = s_pos + word_size + best_right
    return q_start, q_end, s_start, s_end, best


# Plain nested lists for the scalar DP, as the kernel it replaced kept.
_BLOSUM62_LISTS = _BLOSUM62.tolist()


def _banded_sw_reference(
    query: np.ndarray,
    subject: np.ndarray,
    diagonal: int,
    params: BlastParams,
) -> tuple[float, int, int, int, int, int, int]:
    """The cell-by-cell banded DP the batched kernel replaced."""
    band = params.band_width
    m, n = len(query), len(subject)
    lo_d = diagonal - band
    width = 2 * band + 1
    neg = -1e18
    gap = params.gap_penalty

    query_list = query.tolist()
    subject_list = subject.tolist()

    zeros_f = [0.0] * width
    zeros_i = [0] * width
    prev_score = list(zeros_f)
    prev_start_q = list(zeros_i)
    prev_start_s = list(zeros_i)
    prev_match = list(zeros_i)
    prev_len = list(zeros_i)

    best = 0.0
    best_cell = (0, 0)
    best_info = (0, 0, 0, 0)  # q_start, s_start, matches, length

    for j in range(n):
        s_res = subject_list[j]
        blosum_row = _BLOSUM62_LISTS[s_res]
        score = [neg] * width
        start_q = list(zeros_i)
        start_s = list(zeros_i)
        match = list(zeros_i)
        length = list(zeros_i)
        base = j + lo_d
        w_lo = max(0, -base)
        w_hi = min(width, m - base)
        for w in range(w_lo, w_hi):
            i = base + w
            q_res = query_list[i]
            sub = blosum_row[q_res]
            is_match = 1 if q_res == s_res else 0
            # Diagonal move (same w, previous j); restart if source dead.
            p_score = prev_score[w]
            if p_score <= 0.0 or prev_len[w] == 0:
                c_score = float(sub)
                c_q, c_s = i, j
                c_match = is_match
                c_len = 1
            else:
                c_score = p_score + sub
                c_q = prev_start_q[w]
                c_s = prev_start_s[w]
                c_match = prev_match[w] + is_match
                c_len = prev_len[w] + 1
            # Gap in subject (w-1, same row).
            if w > w_lo:
                up = score[w - 1] - gap
                if up > c_score:
                    c_score = up
                    c_q = start_q[w - 1]
                    c_s = start_s[w - 1]
                    c_match = match[w - 1]
                    c_len = length[w - 1] + 1
            # Gap in query (w+1, previous row).
            if w + 1 < width:
                left = prev_score[w + 1] - gap
                if left > c_score and prev_len[w + 1] > 0:
                    c_score = left
                    c_q = prev_start_q[w + 1]
                    c_s = prev_start_s[w + 1]
                    c_match = prev_match[w + 1]
                    c_len = prev_len[w + 1] + 1
            if c_score < 0:
                continue  # local restart; cell stays dead (neg)
            score[w] = c_score
            start_q[w] = c_q
            start_s[w] = c_s
            match[w] = c_match
            length[w] = c_len
            if c_score > best:
                best = c_score
                best_cell = (i + 1, j + 1)
                best_info = (c_q, c_s, c_match, c_len)
        prev_score = score
        prev_start_q = start_q
        prev_start_s = start_s
        prev_match = match
        prev_len = length

    q_start, s_start, matches, align_len = best_info
    q_end, s_end = best_cell
    return best, q_start, q_end, s_start, s_end, matches, align_len


# The attribute-tracking batched DP that scores-plus-traceback replaced,
# verbatim: every cell carries its path's start and tally.
_BLOSUM62_FLAT = _BLOSUM62.ravel()
_PAIR = 1 << 32


def _batched_sw_reference(
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
    the gap are integers or dyadic fractions (11, 10.5).  See
    docs/PERFORMANCE.md, "App kernel fast paths".
    """
    band = params.band_width
    gap = params.gap_penalty
    width = 2 * band + 1
    lanes = np.arange(width)
    gap_ramp = gap * lanes
    n_jobs = len(jobs)
    rows = np.arange(n_jobs)
    cells = rows[:, None] * width  # flat index of each job's lane 0
    q_len = np.array([len(q) for q, _, _ in jobs], dtype=np.int64)
    s_len = np.array([len(s) for _, s, _ in jobs], dtype=np.int64)
    lo_d = np.array([d for _, _, d in jobs], dtype=np.int64) - band
    # Rows that reach the query: -width < j + lo_d < len(query).
    first = np.maximum(0, 1 - width - lo_d)
    stop = np.minimum(s_len, q_len - lo_d)
    # A trailing pad residue keeps the masked gathers in bounds.
    q_buf = np.concatenate([q for q, _, _ in jobs] + [[0]])
    s_buf = np.concatenate([s for _, s, _ in jobs] + [[0]])
    q_off = (np.cumsum(q_len) - q_len)[:, None]
    s_off = np.cumsum(s_len) - s_len

    dead_lane = np.full((n_jobs, 1), -np.inf)
    score = np.full((n_jobs, width), -np.inf)  # -inf marks a dead cell
    # Per cell, two packed pairs: the path's start (query position,
    # subject position) and its tally (length, matches).
    attrs = np.zeros((2, n_jobs, width), dtype=np.int64)
    fresh = np.zeros_like(attrs)
    best = np.zeros(n_jobs)
    # The best cell's start, tally and packed end (query, subject).
    best_attrs = np.zeros((3, n_jobs), dtype=np.int64)
    for t in range(int((stop - first).max(initial=0))):
        j = first + t
        i = (j + lo_d)[:, None] + lanes
        live = (i >= 0) & (i < q_len[:, None]) & (j < stop)[:, None]
        q_res = q_buf[q_off + np.where(live, i, 0)]
        s_res = s_buf[s_off + np.where(j < stop, j, 0)][:, None]
        # Diagonal move.
        restart = score <= 0
        sub = _BLOSUM62_FLAT[s_res * 20 + q_res]
        diag = np.where(restart, 0.0, score) + sub
        fresh[0] = i * _PAIR + j[:, None]
        diag_attrs = np.where(restart, fresh, attrs)
        diag_attrs[1] += (q_res == s_res) + _PAIR
        # Left move, then the better of the two.
        left = np.concatenate((score[:, 1:], dead_lane), axis=1) - gap
        from_left = left > diag
        move = np.where(live, np.where(from_left, left, diag), -np.inf)
        left_attrs = np.concatenate((attrs[:, :, 1:], attrs[:, :, :1]), axis=2)
        move_attrs = np.where(from_left, left_attrs, diag_attrs)
        move_attrs[1] += from_left * _PAIR
        # Up moves: the scan, and each up-chain's origin lane.
        run = np.maximum.accumulate(move + gap_ramp, axis=1)
        up = np.concatenate((dead_lane, run[:, :-1]), axis=1) - gap_ramp
        from_up = (up > move) | ((up == move) & from_left)
        origin = np.maximum.accumulate(np.where(from_up, 0, lanes), axis=1)
        attrs = np.take(move_attrs.reshape(2, -1), cells + origin, axis=1)
        attrs[1] += (lanes - origin) * _PAIR
        cell = np.where(from_up, up, move)
        score = np.where(live & (cell >= 0), cell, -np.inf)
        # Row-major first maximum, kept only if strictly better.
        col = score.argmax(axis=1)
        top = score[rows, col]
        better = top > best
        best = np.where(better, top, best)
        end = (i[rows, col] + 1) * _PAIR + j + 1
        best_attrs = np.where(better, (*attrs[:, rows, col], end), best_attrs)
    (q_start, length, q_end), (s_start, matches, s_end) = (
        half.tolist() for half in np.divmod(best_attrs, _PAIR)
    )
    return list(zip(
        best.tolist(), q_start, q_end, s_start, s_end, matches, length
    ))


def _random_protein(rng, length):
    return "".join(AMINO_ACIDS[i] for i in rng.integers(0, 20, size=length))


class TestQueryWordsParity:
    @pytest.mark.parametrize("threshold", [None, 11, 13])
    def test_random_queries(self, threshold):
        rng = np.random.default_rng(7)
        params = BlastParams(neighborhood_threshold=threshold)
        for length in (2, 3, 5, 40, 120):
            enc = _encode(_random_protein(rng, length))
            assert _query_words(enc, params) == _query_words_reference(
                enc, params
            ), (threshold, length)

    def test_with_low_complexity_filter(self):
        rng = np.random.default_rng(8)
        params = BlastParams(
            neighborhood_threshold=11,
            low_complexity_filter=LowComplexityFilter(window=8),
        )
        # Splice in a low-complexity homopolymer run to exercise masking.
        seq = _random_protein(rng, 30) + "A" * 20 + _random_protein(rng, 30)
        enc = _encode(seq)
        probes = _query_words(enc, params)
        assert probes == _query_words_reference(enc, params)
        assert probes  # the unmasked flanks still seed

    def test_fully_masked_query(self):
        params = BlastParams(
            low_complexity_filter=LowComplexityFilter(window=6)
        )
        enc = _encode("A" * 24)
        assert _query_words(enc, params) == []


class TestUngappedExtendParity:
    def test_random_seed_positions(self):
        rng = np.random.default_rng(9)
        for trial in range(200):
            qlen = int(rng.integers(3, 80))
            slen = int(rng.integers(3, 200))
            k = 3
            if qlen < k or slen < k:
                continue
            query = rng.integers(0, 20, size=qlen)
            subject = rng.integers(0, 20, size=slen)
            q_pos = int(rng.integers(0, qlen - k + 1))
            s_pos = int(rng.integers(0, slen - k + 1))
            got = _ungapped_extend(query, subject, q_pos, s_pos, k, 7.0)
            want = _ungapped_extend_reference(
                query, subject, q_pos, s_pos, k, 7.0
            )
            assert got == want, (trial, q_pos, s_pos)

    def test_identical_sequences_extend_fully(self):
        rng = np.random.default_rng(10)
        seq = rng.integers(0, 20, size=50)
        q0, q1, s0, s1, score = _ungapped_extend(seq, seq, 20, 20, 3, 7.0)
        assert (q0, q1) == (0, 50)
        assert (s0, s1) == (0, 50)
        assert score == float(_BLOSUM62[seq, seq].sum())

    def test_boundary_seeds(self):
        # Seeds flush against either end must not wrap or over-read.
        rng = np.random.default_rng(11)
        query = rng.integers(0, 20, size=10)
        subject = rng.integers(0, 20, size=10)
        for q_pos, s_pos in [(0, 0), (0, 7), (7, 0), (7, 7)]:
            assert _ungapped_extend(
                query, subject, q_pos, s_pos, 3, 7.0
            ) == _ungapped_extend_reference(
                query, subject, q_pos, s_pos, 3, 7.0
            )


def _dp_draws():
    """Seeded ``(query, subject, diagonal, params)`` draws for the DP
    parity test: band widths 1 to 40, gaps 11 and 10.5, two-letter and
    tandem-repeat sequences (score ties everywhere), subjects shorter
    than the band, and diagonals whose band misses the query."""
    rng = np.random.default_rng(2011)
    draws = []
    for n in range(360):
        band = (1, 40, 16, 3)[n % 4]
        gap = (11.0, 10.5)[n // 4 % 2]
        kind = n // 8 % 3  # random, two-letter, tandem repeat
        m = int(rng.integers(1, 90))
        s_len = int(rng.integers(1, band + 1) if n % 5 == 0 else rng.integers(1, 90))
        if kind == 0:
            query = rng.integers(0, 20, size=m)
            subject = rng.integers(0, 20, size=s_len)
        elif kind == 1:
            pair = rng.choice(20, size=2, replace=False)
            query = pair[rng.integers(0, 2, size=m)]
            subject = pair[rng.integers(0, 2, size=s_len)]
        else:
            unit = rng.integers(0, 20, size=int(rng.integers(1, 4)))
            query = np.resize(unit, m)
            subject = np.resize(np.roll(unit, int(rng.integers(0, 3))), s_len)
            # A few point mutations so alignments need gaps.
            subject[rng.integers(0, s_len, size=s_len // 10)] = rng.integers(0, 20)
        if n % 7 == 0:  # the band misses the query entirely
            diagonal = int(rng.choice([-s_len - band - 1, m + band + 1]))
        else:
            diagonal = int(rng.integers(-s_len - band, m + band + 1))
        params = BlastParams(band_width=band, gap_penalty=gap)
        draws.append((query, subject, diagonal, params))
    return draws


class TestBandedSwParity:
    def test_matches_scalar_dp_on_seeded_draws(self):
        draws = _dp_draws()
        assert len(draws) >= 300
        for n, (query, subject, diagonal, params) in enumerate(draws):
            assert _banded_sw(query, subject, diagonal, params) == (
                _banded_sw_reference(query, subject, diagonal, params)
            ), n

    def test_one_batch_equals_one_job_at_a_time(self):
        by_params = {}
        for query, subject, diagonal, params in _dp_draws():
            by_params.setdefault(params, []).append((query, subject, diagonal))
        for params, jobs in by_params.items():
            assert _batched_sw(jobs, params) == [
                _banded_sw_reference(q, s, d, params) for q, s, d in jobs
            ]

    def test_draws_cover_every_axis(self):
        draws = _dp_draws()
        bands = {p.band_width for *_, p in draws}
        gaps = {p.gap_penalty for *_, p in draws}
        assert {1, 40} <= bands and {11.0, 10.5} <= gaps
        assert any(len(s) < p.band_width for _, s, _, p in draws)
        missed = [
            d for q, s, d, p in draws
            if d - p.band_width >= len(q) or d + p.band_width <= -len(s)
        ]
        assert len(missed) >= 30
        results = [_banded_sw_reference(*draw) for draw in draws]
        assert sum(r[6] == 0 for r in results) >= 30  # no alignment
        gapped = [
            r for r in results
            if r[6] and not r[2] - r[1] == r[4] - r[3] == r[6]
        ]
        assert len(gapped) >= 30
        two_letter = [q for q, *_ in draws if len(set(q.tolist())) <= 2]
        assert len(two_letter) >= 100

    def test_integer_gap_matches_scalar_dp(self):
        # An int gap must not take the narrow dtype of the lane numbers.
        by_band = {}
        for query, subject, diagonal, params in _dp_draws():
            if params.gap_penalty == 11.0:
                by_band.setdefault(params.band_width, []).append(
                    (query, subject, diagonal)
                )
        for band, jobs in by_band.items():
            params = BlastParams(band_width=band, gap_penalty=11)
            assert _batched_sw(jobs, params) == [
                _banded_sw_reference(q, s, d, params) for q, s, d in jobs
            ], band

    def test_empty_batch(self):
        assert _batched_sw([], BlastParams()) == []


def _fuzz_batches():
    """Seeded job batches for the scores-plus-traceback DP: band widths
    1/3/16/40, gaps 0/2/10.5/11 and the int 11, alphabets of 2 to 20
    letters (so scores tie), and in every batch a job with no positive
    cell."""
    rng = np.random.default_rng(2026)
    batches = []
    for n in range(320):
        band = (1, 3, 16, 40)[n % 4]
        gap = (0.0, 2.0, 10.5, 11.0, 11)[n // 4 % 5]
        letters = rng.choice(20, size=int(rng.integers(2, 21)), replace=False)
        jobs = []
        for _ in range(int(rng.integers(1, 9))):
            m, s_len = (int(x) for x in rng.integers(1, 60, size=2))
            query = letters[rng.integers(0, len(letters), size=m)]
            subject = letters[rng.integers(0, len(letters), size=s_len)]
            diagonal = int(rng.integers(-s_len - band - 2, m + band + 3))
            jobs.append((query, subject, diagonal))
        # W against D scores -4: no cell is positive.
        jobs.insert(int(rng.integers(0, len(jobs) + 1)), (
            np.full(int(rng.integers(1, 30)), 17),
            np.full(int(rng.integers(1, 30)), 3),
            int(rng.integers(-5, 6)),
        ))
        batches.append((jobs, BlastParams(band_width=band, gap_penalty=gap)))
    return batches


class TestTracebackParity:
    def test_matches_attribute_tracking_dp(self):
        batches = _fuzz_batches()
        assert len(batches) >= 300
        empty = 0
        for n, (jobs, params) in enumerate(batches):
            want = _batched_sw_reference(jobs, params)
            assert _batched_sw(jobs, params) == want, n
            empty += sum(r == (0.0, 0, 0, 0, 0, 0, 0) for r in want)
        assert empty >= len(batches)

    def test_fuzz_covers_gapped_alignments_and_every_gap(self):
        batches = _fuzz_batches()
        results = [
            r for jobs, params in batches
            for r in _batched_sw_reference(jobs, params)
        ]
        gapped = [
            r for r in results
            if r[6] and not r[2] - r[1] == r[4] - r[3] == r[6]
        ]
        assert len(gapped) >= 100
        assert {p.gap_penalty for _, p in batches} == {0.0, 2.0, 10.5, 11.0}
        assert any(type(p.gap_penalty) is int for _, p in batches)
        assert {p.band_width for _, p in batches} == {1, 3, 16, 40}


class TestBlastSearchParity:
    @pytest.mark.parametrize("num_threads", [1, 4])
    @pytest.mark.parametrize(
        "params",
        [BlastParams(), BlastParams(band_width=40, gap_penalty=10.5)],
        ids=["defaults", "band40-gap10.5"],
    )
    def test_hits_match_scalar_dp_search(self, params, num_threads, monkeypatch):
        from repro.workloads.protein import (
            generate_protein_database,
            generate_query_records,
        )

        db = generate_protein_database(30, seed=31)
        queries = generate_query_records(db, 20, seed=32)
        results = blast_search(queries, db, params, num_threads=num_threads)
        monkeypatch.setattr(
            blast_mod,
            "_batched_sw",
            lambda jobs, p: [_banded_sw_reference(q, s, d, p) for q, s, d in jobs],
        )
        reference = blast_search(queries, db, params)
        assert results == reference
        assert sum(len(hits) for hits in reference.values()) >= 20


class TestBlastEndToEnd:
    def test_neighborhood_search_matches_scalar_probe_stream(self):
        """End to end: same hits with neighbourhood words + filtering."""
        from repro.workloads.protein import (
            generate_protein_database,
            generate_query_records,
        )

        db = generate_protein_database(15, seed=21)
        queries = generate_query_records(db, 12, seed=22)
        params = BlastParams(
            neighborhood_threshold=11,
            low_complexity_filter=LowComplexityFilter(),
        )
        results = blast_search(queries, db, params)
        # Pin against a probe-stream-faithful rerun through the
        # reference seeder (monkeypatched), hit for hit.
        original = blast_mod._query_words
        blast_mod._query_words = _query_words_reference
        try:
            reference = blast_search(queries, db, params)
        finally:
            blast_mod._query_words = original
        assert results == reference


def _verify_overlap_reference(a_idx, b_idx, a_arr, b_arr, a_start, params):
    """Score the alignment of ``b`` against ``a`` starting at ``a_start``."""
    length = min(len(a_arr) - a_start, len(b_arr))
    if length < params.min_overlap:
        return None
    a_slice = a_arr[a_start : a_start + length]
    b_slice = b_arr[:length]
    matches = int((a_slice == b_slice).sum())
    identity = matches / length
    if identity < params.min_identity:
        return None
    mismatches = length - matches
    score = matches - params.mismatch_penalty * mismatches
    contained = (a_start + len(b_arr)) <= len(a_arr)
    return Overlap(
        a=a_idx,
        b=b_idx,
        a_start=a_start,
        length=length,
        identity=identity,
        score=score,
        contained=contained,
    )


def _byte_index_reference(arrays, k):
    """The pre-vectorization k-mer -> [(read, position)] dict index."""
    index = {}
    for read_idx, arr in enumerate(arrays):
        seq_bytes = arr.tobytes()
        for pos in range(0, len(seq_bytes) - k + 1):
            index.setdefault(seq_bytes[pos : pos + k], []).append(
                (read_idx, pos)
            )
    return index


def _find_overlaps_reference(arrays, params):
    k = params.kmer_size
    index = _byte_index_reference(arrays, k)
    ref_candidates = 0
    ref_best = {}
    for b_idx, b_arr in enumerate(arrays):
        b_bytes = b_arr.tobytes()
        span = max(0, min(params.max_seed_span, len(b_bytes) - k + 1))
        probed = set()
        for s in range(0, span, params.seed_stride):
            seed = b_bytes[s : s + k]
            for a_idx, a_pos in index.get(seed, ()):
                if a_idx == b_idx:
                    continue
                a_start = a_pos - s
                if a_start < 0:
                    continue
                key = (a_idx, a_start)
                if key in probed:
                    continue
                probed.add(key)
                ref_candidates += 1
                overlap = _verify_overlap_reference(
                    a_idx, b_idx, arrays[a_idx], b_arr, a_start, params
                )
                if overlap is None:
                    continue
                pair = (a_idx, b_idx)
                existing = ref_best.get(pair)
                if existing is None or overlap.score > existing.score:
                    ref_best[pair] = overlap
    return list(ref_best.values()), ref_candidates


def _orientation_edges_reference(arrays, params):
    k = params.kmer_size
    index = _byte_index_reference(arrays, k)
    edges = []
    for b_idx, b_fwd in enumerate(arrays):
        for same, b_arr in ((True, b_fwd), (False, _rc_array(b_fwd))):
            b_bytes = b_arr.tobytes()
            span = max(0, min(params.max_seed_span, len(b_bytes) - k + 1))
            probed = set()
            for s in range(0, span, params.seed_stride):
                seed = b_bytes[s : s + k]
                for a_idx, a_pos in index.get(seed, ()):
                    if a_idx == b_idx:
                        continue
                    a_start = a_pos - s
                    key = (a_idx, a_start)
                    if key in probed:
                        continue
                    probed.add(key)
                    if a_start >= 0:
                        overlap = _verify_overlap_reference(
                            a_idx, b_idx, arrays[a_idx], b_arr, a_start, params
                        )
                    else:
                        overlap = _verify_overlap_reference(
                            b_idx, a_idx, b_arr, arrays[a_idx], -a_start, params
                        )
                    if overlap is not None:
                        edges.append((a_idx, b_idx, same))
    return edges


def _consensus_reference(chain, arrays):
    total_len = max(offset + len(arrays[idx]) for idx, offset in chain)
    counts = np.zeros((total_len, len(_BASES)), dtype=np.int32)
    base_lookup = np.full(256, _BASE_INDEX["N"], dtype=np.int64)
    for base, i in _BASE_INDEX.items():
        base_lookup[ord(base)] = i
    coverage = np.zeros(total_len, dtype=np.int32)
    for idx, offset in chain:
        arr = arrays[idx]
        codes = base_lookup[arr]
        np.add.at(counts, (np.arange(offset, offset + len(arr)), codes), 1)
        coverage[offset : offset + len(arr)] += 1
    # Real bases out-vote N wherever any read has coverage.
    counts[:, _BASE_INDEX["N"]] -= 1
    winners = counts.argmax(axis=1)
    consensus = (
        np.frombuffer(_BASES.encode("ascii"), dtype=np.uint8)[winners]
        .tobytes()
        .decode("ascii")
    )
    return consensus, coverage


def _cap3_reads(n, seed, both_strands=False):
    from repro.workloads.genome import generate_read_records

    reads = generate_read_records(
        n,
        read_length=100,
        both_strands=both_strands,
        rng=np.random.default_rng(seed),
    )
    return [
        np.frombuffer(r.seq.upper().encode("ascii"), dtype=np.uint8)
        for r in reads
    ]


class TestCap3SeedParity:
    def test_seed_keys_injective_and_ordered(self):
        rng = np.random.default_rng(12)
        seq = "".join("ACGTN"[i] for i in rng.integers(0, 5, size=200))
        arr = np.frombuffer(seq.encode("ascii"), dtype=np.uint8)
        k = 12
        keys = _seed_keys(arr, k)
        byte_windows = [
            seq.encode("ascii")[i : i + k] for i in range(len(seq) - k + 1)
        ]
        assert len(keys) == len(byte_windows)
        # Packed codes must distinguish exactly what the bytes do.
        for i, a in enumerate(byte_windows):
            for j, b in enumerate(byte_windows):
                assert (keys[i] == keys[j]) == (a == b)

    def test_large_k_fallback(self):
        arr = np.frombuffer(b"ACGT" * 20, dtype=np.uint8)
        keys = _seed_keys(arr, 30)
        assert keys[0] == b"ACGT" * 7 + b"AC"
        assert len(keys) == 80 - 30 + 1

    def test_overlap_discovery_unchanged(self):
        """Same overlaps (order included) as the byte-sliced index."""
        arrays = _cap3_reads(60, seed=13)
        params = Cap3Params()
        overlaps, candidates = _find_overlaps(arrays, params)
        assert (overlaps, candidates) == _find_overlaps_reference(
            arrays, params
        )

    @pytest.mark.parametrize("kmer_size", [12, 30])
    def test_orientation_edges_unchanged(self, kmer_size):
        arrays = _cap3_reads(60, seed=15, both_strands=True)
        params = Cap3Params(kmer_size=kmer_size, min_overlap=40)
        edges = _orientation_edges(arrays, params)
        assert edges == _orientation_edges_reference(arrays, params)
        assert {same for _, _, same in edges} == {True, False}

    def test_overlap_discovery_beyond_packed_codes(self):
        """k > 27 uses byte keys; the placements must not change."""
        arrays = _cap3_reads(60, seed=16)
        params = Cap3Params(kmer_size=30, min_overlap=40, seed_stride=3)
        overlaps, candidates = _find_overlaps(arrays, params)
        assert (overlaps, candidates) == _find_overlaps_reference(
            arrays, params
        )
        assert overlaps

    def test_assembly_end_to_end_stable(self):
        from repro.workloads.genome import generate_read_records

        reads = generate_read_records(
            50,
            read_length=100,
            both_strands=True,
            rng=np.random.default_rng(14),
        )
        result = assemble(reads)
        again = assemble(reads)
        assert [c.seq for c in result.contigs] == [
            c.seq for c in again.contigs
        ]
        assert result.stats == again.stats
        assert result.stats["contigs"] >= 1


class TestCap3ConsensusParity:
    def test_random_chains_match_per_read_votes(self):
        """Same consensus and coverage as one ``np.add.at`` per read:
        gaps, deep stacks, one-base reads, ties and non-ACGTN bytes."""
        rng = np.random.default_rng(17)
        alphabets = [b"ACGT", b"ACGTN", b"ACGTNX-", b"AC"]
        gapped = 0
        for _ in range(300):
            alphabet = np.frombuffer(
                alphabets[rng.integers(len(alphabets))], dtype=np.uint8
            )
            n_reads = int(rng.integers(1, 12))
            arrays = [
                alphabet[rng.integers(0, len(alphabet),
                                      size=int(rng.integers(1, 40)))]
                for _ in range(n_reads)
            ]
            chain = [
                (int(idx), int(rng.integers(0, 60)))
                for idx in rng.permutation(n_reads)[
                    : int(rng.integers(1, n_reads + 1))
                ]
            ]
            seq, coverage = _consensus(chain, arrays)
            ref_seq, ref_coverage = _consensus_reference(chain, arrays)
            assert seq == ref_seq
            assert coverage.dtype == ref_coverage.dtype == np.int32
            np.testing.assert_array_equal(coverage, ref_coverage)
            gapped += bool((coverage == 0).any())
        assert gapped  # some draws leave uncovered columns


class TestFastaConsensusRoundTrip:
    def test_consensus_string_is_ascii_bases(self):
        reads = [
            FastaRecord(id="r1", seq="ACGTACGTACGTACGTACGTACGTACGTACGTACGTACGT"),
            FastaRecord(id="r2", seq="ACGTACGTACGTACGTACGTACGTACGTACGTACGTACGT"),
        ]
        result = assemble(reads, Cap3Params(min_overlap=12, kmer_size=4))
        for contig in result.contigs:
            assert set(contig.seq) <= set("ACGTN")
