"""Tests for FASTA parsing and writing."""

import io

import pytest

from repro.apps.fasta import FastaRecord, parse_fasta, read_fasta, write_fasta


def test_roundtrip_single_record(tmp_path):
    record = FastaRecord(id="read1", seq="ACGTACGT", description="test read")
    path = tmp_path / "one.fa"
    write_fasta([record], path)
    (back,) = read_fasta(path)
    assert back == record


def test_roundtrip_many_records(tmp_path):
    records = [
        FastaRecord(id=f"r{i}", seq="ACGT" * (i + 1)) for i in range(10)
    ]
    path = tmp_path / "many.fa"
    write_fasta(records, path)
    assert read_fasta(path) == records


def test_long_sequences_are_wrapped():
    record = FastaRecord(id="long", seq="A" * 200)
    text = write_fasta([record])
    lines = text.strip().split("\n")
    assert lines[0] == ">long"
    assert all(len(line) <= 70 for line in lines[1:])
    assert "".join(lines[1:]) == "A" * 200


def test_parse_handles_multiline_and_blank_lines():
    text = ">id1 desc here\nACGT\n\nACGT\n>id2\nTTTT\n"
    records = list(parse_fasta(io.StringIO(text)))
    assert records[0].id == "id1"
    assert records[0].description == "desc here"
    assert records[0].seq == "ACGTACGT"
    assert records[1].id == "id2"
    assert records[1].seq == "TTTT"


def test_parse_rejects_sequence_before_header():
    with pytest.raises(ValueError, match="before any header"):
        list(parse_fasta(io.StringIO("ACGT\n>late\nACGT\n")))


def test_parse_rejects_empty_header():
    with pytest.raises(ValueError, match="empty FASTA header"):
        list(parse_fasta(io.StringIO(">\nACGT\n")))


def test_parse_empty_stream_yields_nothing():
    assert list(parse_fasta(io.StringIO(""))) == []


def test_record_validation():
    with pytest.raises(ValueError):
        FastaRecord(id="", seq="ACGT")
    with pytest.raises(ValueError):
        FastaRecord(id="x", seq="AC GT")


def test_whitespace_check_is_exactly_str_isspace():
    every = [chr(c) for c in range(0x110000)]
    for space in (c for c in every if c.isspace()):
        with pytest.raises(ValueError, match="whitespace"):
            FastaRecord(id="x", seq=f"AC{space}GT")
    # Every other code point is accepted, all in one sequence.
    FastaRecord(id="x", seq="".join(c for c in every if not c.isspace()))


def test_record_header_and_len():
    r = FastaRecord(id="x", seq="ACGT", description="something")
    assert r.header == "x something"
    assert len(r) == 4
    bare = FastaRecord(id="y", seq="AC")
    assert bare.header == "y"


def test_empty_sequence_record_roundtrip(tmp_path):
    record = FastaRecord(id="empty", seq="")
    path = tmp_path / "empty.fa"
    write_fasta([record], path)
    (back,) = read_fasta(path)
    assert back.id == "empty"
    assert back.seq == ""
