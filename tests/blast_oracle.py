"""Test-only oracle: BLAST's word index as a dict of posting lists.

This is how :class:`repro.apps.blast.BlastDatabase` indexed its words
before it kept them in a :class:`repro.apps.postings.PostingTable`: a
``dict[bytes, list[(subject, position)]]`` built one position at a time,
and stages 1-3 of a search walking it one probe word at a time, with
the probe words from scalar loops.
"""

import numpy as np

from repro.apps.blast import (
    AMINO_ACIDS,
    _BLOSUM62,
    _ungapped_extend,
    mask_low_complexity,
)


def dict_index(encoded, k):
    """Word bytes -> [(subject, position)], in (subject, position) order."""
    index = {}
    for seq_idx, enc in enumerate(encoded):
        as_bytes = enc.astype(np.uint8).tobytes()
        for pos in range(0, len(as_bytes) - k + 1):
            word = as_bytes[pos : pos + k]
            index.setdefault(word, []).append((seq_idx, pos))
    return index


def table_as_dict(table, encoded, k):
    """A posting table in :func:`dict_index`'s shape, each word's
    postings in table order; words come from the residues, not the keys."""
    out = {}
    for seq_idx, pos in zip(table.seq.tolist(), table.pos.tolist()):
        word = encoded[seq_idx][pos : pos + k].astype(np.uint8).tobytes()
        out.setdefault(word, []).append((seq_idx, pos))
    return out


def query_words(enc, params):
    """``blast._query_words`` as scalar loops: (position, word bytes)."""
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


def key_words(keys, k, base=20):
    """Integer word keys back to their residue bytes."""
    powers = base ** np.arange(k - 1, -1, -1, dtype=np.int64)
    digits = keys.astype(np.int64)[:, None] // powers % base
    return [bytes(row) for row in digits.astype(np.uint8)]


def gapped_jobs(enc, db, params, index):
    """``blast._gapped_jobs`` as it was, seeding from ``index``."""
    k = params.word_size
    if len(enc) < k:
        return []
    by_diag = {}
    for q_pos, word in query_words(enc, params):
        for s_idx, s_pos in index.get(word, ()):
            by_diag.setdefault((s_idx, q_pos - s_pos), []).append((q_pos, s_pos))

    best_ungapped = {}
    for (s_idx, diagonal), seeds in by_diag.items():
        seeds.sort()
        trigger = None
        if len(seeds) == 1:
            if len(enc) <= 2 * params.two_hit_window:
                trigger = seeds[0]
        else:
            for (q1, s1), (q2, s2) in zip(seeds, seeds[1:]):
                if 0 < q2 - q1 <= params.two_hit_window:
                    trigger = (q1, s1)
                    break
        if trigger is None:
            continue
        q_pos, s_pos = trigger
        ung = _ungapped_extend(
            enc, db.encoded[s_idx], q_pos, s_pos, k, params.xdrop_ungapped
        )
        if ung[4] < params.min_ungapped_score:
            continue
        current = best_ungapped.get(s_idx)
        if current is None or ung[4] > current[0]:
            best_ungapped[s_idx] = (ung[4], diagonal)
    return [(s_idx, diag) for s_idx, (_, diag) in best_ungapped.items()]


def use_dict_index(monkeypatch, db, params):
    """Make ``blast_search`` seed ``db`` from :func:`dict_index`."""
    from repro.apps import blast

    index = dict_index(db.encoded, db.word_size)
    monkeypatch.setattr(
        blast, "_gapped_jobs",
        lambda enc, db, params: gapped_jobs(enc, db, params, index),
    )
