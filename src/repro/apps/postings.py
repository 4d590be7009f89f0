"""Sorted k-word posting tables, shared by Cap3's overlap seeding and
BLAST's database word index."""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = ["PostingTable", "ragged", "window_keys"]


def window_keys(digits: np.ndarray, k: int, base: int) -> np.ndarray:
    """Key of every k-window of ``digits`` (each below ``base``), in
    window order, equal exactly when the windows are: base-``base``
    codes (int32 when they fit), or past int64 the window's digits as
    one fixed-width bytes value."""
    if len(digits) < k:
        return window_keys(np.zeros(k, dtype=np.uint8), k, base)[:0]
    if base**k >= 2**63:
        windows = sliding_window_view(digits.astype(np.uint8), k)
        return np.ascontiguousarray(windows).view(f"S{k}").ravel()
    powers = base ** np.arange(k - 1, -1, -1, dtype=np.int64)
    codes = sliding_window_view(digits, k) @ powers
    return codes.astype(np.int32 if base**k <= 2**31 else np.int64)


def ragged(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For runs of ``counts`` elements laid end to end: each element's
    run number and its offset within the run."""
    run = np.repeat(np.arange(len(counts)), counts)
    return run, np.arange(len(run)) - (np.cumsum(counts) - counts)[run]


class PostingTable:
    """Every k-window of sequences of ``lengths`` residues laid end to
    end, whose :func:`window_keys` are ``keys``, as ``keys``, ``seq`` and
    ``pos`` (int32) columns in a stable sort by key: equal keys stay in
    (sequence, position) order.  Windows across two sequences are left
    out.  12 bytes per posting with int32 keys, 16 with int64."""

    def __init__(self, keys: np.ndarray, lengths, k: int):
        lengths = np.asarray(lengths, dtype=np.int64)
        seq, pos = ragged(np.maximum(lengths - k + 1, 0))
        table = keys[(np.cumsum(lengths) - lengths)[seq] + pos]
        order = np.argsort(table, kind="stable")
        self.keys = table[order]
        self.seq, self.pos = (v[order].astype(np.int32) for v in (seq, pos))

    def lookup(self, probes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Every (probe number, posting number) match, probe by probe and
        each probe's postings in table order."""
        lo = np.searchsorted(self.keys, probes, side="left")
        probe, nth = ragged(np.searchsorted(self.keys, probes, "right") - lo)
        return probe, lo[probe] + nth
