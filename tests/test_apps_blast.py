"""Tests for the miniature protein BLAST."""

import numpy as np
import pytest

from repro.apps.blast import (
    AMINO_ACIDS,
    BlastDatabase,
    BlastParams,
    blast_search,
    blosum62,
)
from repro.apps.fasta import FastaRecord


def random_protein(length, seed):
    rng = np.random.default_rng(seed)
    return "".join(AMINO_ACIDS[i] for i in rng.integers(0, 20, size=length))


def mutate(seq, rate, seed):
    rng = np.random.default_rng(seed)
    out = list(seq)
    for i in range(len(out)):
        if rng.random() < rate:
            out[i] = AMINO_ACIDS[rng.integers(0, 20)]
    return "".join(out)


@pytest.fixture(scope="module")
def database():
    records = [
        FastaRecord(id=f"prot{i}", seq=random_protein(300, seed=i))
        for i in range(25)
    ]
    return BlastDatabase(records)


class TestBlosum62:
    def test_symmetric(self):
        for a in AMINO_ACIDS:
            for b in AMINO_ACIDS:
                assert blosum62(a, b) == blosum62(b, a)

    def test_known_values(self):
        assert blosum62("A", "A") == 4
        assert blosum62("W", "W") == 11
        assert blosum62("A", "W") == -3
        assert blosum62("L", "I") == 2

    def test_diagonal_dominates(self):
        for a in AMINO_ACIDS:
            assert blosum62(a, a) == max(blosum62(a, b) for b in AMINO_ACIDS)


class TestDatabase:
    def test_index_covers_all_words(self, database):
        # Every 3-mer window is indexed once, under its base-20 code,
        # sorted by code and then by (subject, position).
        rows = sorted(
            (sum(int(d) * 20 ** (2 - i) for i, d in enumerate(enc[p : p + 3])),
             s, p)
            for s, enc in enumerate(database.encoded)
            for p in range(len(enc) - 2)
        )
        keys, seqs, positions = (np.array(col) for col in zip(*rows))
        postings = database.postings
        assert np.array_equal(postings.keys, keys)
        assert np.array_equal(postings.seq, seqs)
        assert np.array_equal(postings.pos, positions)

    def test_memory_footprint_scales_with_size(self):
        small = BlastDatabase(
            [FastaRecord(id="a", seq=random_protein(100, 1))]
        )
        large = BlastDatabase(
            [
                FastaRecord(id=f"s{i}", seq=random_protein(100, i))
                for i in range(20)
            ]
        )
        assert large.memory_bytes > small.memory_bytes

    def test_empty_database_rejected(self):
        with pytest.raises(ValueError):
            BlastDatabase([])

    def test_unknown_residue_rejected(self):
        with pytest.raises(ValueError, match="unknown amino acid"):
            BlastDatabase([FastaRecord(id="bad", seq="ACDEFGHIKB")])


class TestSearch:
    def test_exact_match_found_with_top_score(self, database):
        query = FastaRecord(id="q", seq=database.seqs[7][50:200])
        results = blast_search([query], database)
        hits = results["q"]
        assert hits, "exact substring must be found"
        assert hits[0].subject_id == "prot7"
        assert hits[0].identity == pytest.approx(1.0)
        assert hits[0].evalue < 1e-10

    def test_planted_homolog_recovered(self, database):
        # 80% identity homolog of prot3.
        homolog = mutate(database.seqs[3][20:260], rate=0.2, seed=99)
        query = FastaRecord(id="hom", seq=homolog)
        hits = blast_search([query], database)["hom"]
        assert hits
        assert hits[0].subject_id == "prot3"
        assert 0.6 < hits[0].identity < 1.0

    def test_random_query_has_no_strong_hits(self, database):
        query = FastaRecord(id="rand", seq=random_protein(200, seed=4242))
        hits = blast_search([query], database)["rand"]
        strong = [h for h in hits if h.evalue < 1e-6]
        assert strong == []

    def test_multiple_queries_keyed_by_id(self, database):
        queries = [
            FastaRecord(id="q1", seq=database.seqs[0][0:150]),
            FastaRecord(id="q2", seq=database.seqs[1][0:150]),
        ]
        results = blast_search(queries, database)
        assert set(results) == {"q1", "q2"}
        assert results["q1"][0].subject_id == "prot0"
        assert results["q2"][0].subject_id == "prot1"

    def test_threaded_search_matches_serial(self, database):
        queries = [
            FastaRecord(id=f"q{i}", seq=database.seqs[i][10:180])
            for i in range(6)
        ]
        serial = blast_search(queries, database, num_threads=1)
        threaded = blast_search(queries, database, num_threads=4)
        assert serial == threaded

    def test_hits_sorted_by_score(self, database):
        # A query matching one subject strongly and others weakly.
        query = FastaRecord(id="q", seq=database.seqs[5][0:250])
        hits = blast_search([query], database)["q"]
        scores = [h.raw_score for h in hits]
        assert scores == sorted(scores, reverse=True)

    def test_one_hit_per_subject(self, database):
        query = FastaRecord(id="q", seq=database.seqs[9][0:200])
        hits = blast_search([query], database)["q"]
        subjects = [h.subject_id for h in hits]
        assert len(subjects) == len(set(subjects))

    def test_query_shorter_than_word_yields_nothing(self, database):
        query = FastaRecord(id="tiny", seq="AC")
        assert blast_search([query], database)["tiny"] == []

    def test_invalid_num_threads(self, database):
        with pytest.raises(ValueError):
            blast_search([], database, num_threads=0)

    def test_alignment_coordinates_consistent(self, database):
        query = FastaRecord(id="q", seq=database.seqs[2][30:230])
        hit = blast_search([query], database)["q"][0]
        assert 0 <= hit.query_start < hit.query_end <= len(query.seq)
        subject_len = len(database.seqs[2])
        assert 0 <= hit.subject_start < hit.subject_end <= subject_len
        assert hit.align_length >= hit.query_end - hit.query_start - 5

    def test_evalue_scales_with_database_size(self):
        subject = random_protein(300, seed=77)
        query = FastaRecord(id="q", seq=subject[50:150])
        small_db = BlastDatabase([FastaRecord(id="s", seq=subject)])
        padding = [
            FastaRecord(id=f"pad{i}", seq=random_protein(300, seed=1000 + i))
            for i in range(30)
        ]
        big_db = BlastDatabase([FastaRecord(id="s", seq=subject)] + padding)
        hit_small = blast_search([query], small_db)["q"][0]
        hit_big = next(
            h for h in blast_search([query], big_db)["q"] if h.subject_id == "s"
        )
        assert hit_big.evalue > hit_small.evalue

    def test_gapped_extension_uses_best_diagonal(self):
        """A subject with two homologous regions on different diagonals:
        the gapped stage must anchor on the stronger one."""
        strong = random_protein(120, seed=301)
        weak = mutate(strong[:60], rate=0.4, seed=302)
        subject = weak + random_protein(40, seed=303) + strong
        db = BlastDatabase([FastaRecord(id="s", seq=subject)])
        query = FastaRecord(id="q", seq=strong)
        (hit,) = blast_search([query], db)["q"]
        # The alignment must cover the strong (full-length, exact) copy.
        assert hit.identity > 0.95
        assert hit.align_length >= 110
        assert hit.subject_start >= len(weak)

    def test_neighborhood_words_expand_sensitivity(self, database):
        # A distant homolog found with neighbourhood seeding should score
        # at least as many hits as exact-word seeding.
        homolog = mutate(database.seqs[11][0:240], rate=0.30, seed=5)
        query = FastaRecord(id="far", seq=homolog)
        exact = blast_search([query], database, BlastParams())["far"]
        neigh = blast_search(
            [query], database, BlastParams(neighborhood_threshold=11)
        )["far"]
        assert len(neigh) >= len(exact)


class TestParams:
    def test_word_size_validation(self):
        with pytest.raises(ValueError):
            BlastParams(word_size=1)

    def test_word_size_must_match_the_database(self, database):
        # A mismatched word size used to return no hits at all.
        query = FastaRecord(id="hom", seq=database.seqs[3][10:150])
        with pytest.raises(ValueError, match="word_size 4 does not match"):
            blast_search([query], database, BlastParams(word_size=4))

    def test_band_width_validation(self):
        with pytest.raises(ValueError):
            BlastParams(band_width=0)

    def test_gap_penalty_validation(self):
        with pytest.raises(ValueError):
            BlastParams(gap_penalty=-1.0)
        assert BlastParams(gap_penalty=0.0).gap_penalty == 0.0
