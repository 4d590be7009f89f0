"""BLAST's word index as one sorted posting table.

The oracle (``tests/blast_oracle.py``) is the dict-of-lists index the
table replaced, and stages 1-3 of a search walking it.  For every word
the table must hold the dict's postings in the dict's order, and a
search seeded from the table must return the oracle search's hits in
the same order.
"""

import re
import tracemalloc

import numpy as np
import pytest

from repro.apps.blast import (
    AMINO_ACIDS,
    BlastDatabase,
    BlastParams,
    LowComplexityFilter,
    _encode,
    blast_search,
)
from repro.apps.fasta import FastaRecord
from repro.apps.postings import PostingTable, window_keys
from repro.workloads.protein import (
    generate_protein_database,
    generate_query_records,
)
from tests.blast_oracle import dict_index, table_as_dict, use_dict_index

# Sequences shorter than every word size, and words ending in residue
# A (byte 0), next to ordinary random proteins.
_EDGE_SEQS = ["", "A", "WA", "AAAA", "CAAGAAAWAAKAA" * 3, "A" * 30 + "W"]

CASES = {
    "k2": BlastParams(word_size=2),
    "k3": BlastParams(),
    "k4": BlastParams(word_size=4),
    "k5": BlastParams(word_size=5),
    "k15-bytes": BlastParams(word_size=15),
    "k3-T11-filtered": BlastParams(
        neighborhood_threshold=11, low_complexity_filter=LowComplexityFilter()
    ),
}


def _database(k):
    base = generate_protein_database(12, seed=41)
    records = [FastaRecord(id=i, seq=s) for i, s in zip(base.ids, base.seqs)]
    records += [
        FastaRecord(id=f"edge{i}", seq=s) for i, s in enumerate(_EDGE_SEQS)
    ]
    return base, BlastDatabase(records, word_size=k)


@pytest.mark.parametrize("params", CASES.values(), ids=CASES)
class TestAgainstDictIndex:
    def test_postings_match_per_word(self, params):
        k = params.word_size
        _, db = _database(k)
        assert table_as_dict(db.postings, db.encoded, k) == dict_index(
            db.encoded, k
        )

    def test_search_matches_dict_seeded_search(self, params, monkeypatch):
        base, db = _database(params.word_size)
        queries = generate_query_records(base, 10, seed=42) + [
            FastaRecord(id="short", seq="WA"),
            FastaRecord(id="a-rich", seq=_EDGE_SEQS[4] + base.seqs[3][:60]),
        ]
        results = blast_search(queries, db, params)
        use_dict_index(monkeypatch, db, params)
        assert results == blast_search(queries, db, params)
        assert sum(len(hits) for hits in results.values()) >= 5


class TestWindowKeys:
    @pytest.mark.parametrize("k", [2, 3, 15])
    def test_equal_exactly_when_windows_are(self, k):
        digits = np.array([0, 0, 0, 1, 0, 0, 0, 0, 19, 0] * 4, dtype=np.int64)
        keys = window_keys(digits, k, 20)
        windows = [bytes(digits[i : i + k]) for i in range(len(digits) - k + 1)]
        assert len(keys) == len(windows)
        for i, a in enumerate(windows):
            for j, b in enumerate(windows):
                assert (keys[i] == keys[j]) == (a == b)

    def test_key_width(self):
        assert window_keys(np.zeros(9, np.int64), 7, 20).dtype == np.int32
        assert window_keys(np.zeros(9, np.int64), 8, 20).dtype == np.int64
        assert window_keys(np.zeros(9, np.int64), 15, 20).dtype == "S15"

    @pytest.mark.parametrize("k", [3, 15])
    def test_short_input_has_no_windows(self, k):
        keys = window_keys(np.zeros(2, np.int64), k, 20)
        assert len(keys) == 0
        assert keys.dtype == window_keys(np.zeros(k, np.int64), k, 20).dtype

    def test_lookup_order(self):
        # Postings of one word come in (sequence, position) order,
        # probes in the order given.
        table = PostingTable(
            window_keys(np.array([0, 0, 1, 0, 0, 0, 1, 0, 0]), 2, 20),
            [4, 5], 2,
        )
        probe, posting = table.lookup(np.array([0, 20, 7], dtype=np.int32))
        assert probe.tolist() == [0, 0, 0, 1, 1]
        assert table.seq[posting].tolist() == [0, 1, 1, 0, 1]
        assert table.pos[posting].tolist() == [0, 0, 3, 2, 2]


def test_index_footprint():
    """Five databases the size ``kernels-local`` builds hold under 1 MiB
    of new allocations: 12 bytes per posting plus the int64 residues.
    With the dict-of-lists index the same five held about 6.9 MB."""
    records = []
    for seed in range(5):
        db = generate_protein_database(30, seed=100 + seed)
        records.append(
            [FastaRecord(id=i, seq=s) for i, s in zip(db.ids, db.seqs)]
        )
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        dbs = [BlastDatabase(r) for r in records]
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert sum(len(db.postings.keys) for db in dbs) > 40_000
    assert held < 2**20


def test_memory_bytes_model_is_pinned():
    # A byte per residue plus 64 per indexed word position; the index's
    # own layout must not move it.
    db = generate_protein_database(30, seed=7)
    assert (db.total_residues, len(db.postings.keys)) == (8895, 8835)
    assert db.memory_bytes == 574_335


class TestEncode:
    def test_encodes_every_residue(self):
        enc = _encode(AMINO_ACIDS * 2)
        assert enc.dtype == np.int64
        assert enc.tolist() == list(range(20)) * 2

    @pytest.mark.parametrize(
        "seq, bad", [("ACDXB", "X"), ("acd", "a"), ("ACéD", "é"),
                     ("ACαX", "α"), ("AC\x00", "\x00")]
    )
    def test_names_first_unknown_residue(self, seq, bad):
        message = f"unknown amino acid {bad!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            _encode(seq)
