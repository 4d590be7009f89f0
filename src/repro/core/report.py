"""Report rendering: the paper's tables and figure series as text.

Benchmarks print through these helpers so every table/figure regenerates
in a recognizable layout.  :data:`FEATURE_MATRIX` is the paper's Table 3
(qualitative technology comparison) as structured data.
"""

from __future__ import annotations

import json
from typing import Sequence

__all__ = [
    "FEATURE_MATRIX",
    "ascii_bars",
    "feature_matrix_rows",
    "format_series",
    "format_table",
    "serialize_rows",
]

# Table 3: Summary of cloud technology features.
FEATURE_MATRIX: dict[str, dict[str, str]] = {
    "Programming patterns": {
        "AWS/Azure": (
            "Independent job execution; more structure possible using a "
            "client-side driver program"
        ),
        "Hadoop": "MapReduce",
        "DryadLINQ": "DAG execution, extensible to MapReduce and other patterns",
    },
    "Fault tolerance": {
        "AWS/Azure": "Task re-execution based on a configurable time out",
        "Hadoop": "Re-execution of failed and slow tasks",
        "DryadLINQ": "Re-execution of failed and slow tasks",
    },
    "Data storage and communication": {
        "AWS/Azure": "S3/Azure Storage; data retrieved through HTTP",
        "Hadoop": "HDFS parallel file system; TCP-based communication",
        "DryadLINQ": "Local files",
    },
    "Environments": {
        "AWS/Azure": "EC2/Azure virtual instances, local compute resources",
        "Hadoop": "Linux cluster, Amazon Elastic MapReduce",
        "DryadLINQ": "Windows HPCS cluster",
    },
    "Scheduling and load balancing": {
        "AWS/Azure": (
            "Dynamic scheduling through a global queue; natural load "
            "balancing"
        ),
        "Hadoop": (
            "Data locality, rack-aware dynamic task scheduling through a "
            "global queue; natural load balancing"
        ),
        "DryadLINQ": (
            "Data locality, network-topology-aware scheduling; static task "
            "partitions at the node level; suboptimal load balancing"
        ),
    },
}


def feature_matrix_rows() -> list[tuple[str, str, str, str]]:
    """Table 3 as (feature, AWS/Azure, Hadoop, DryadLINQ) rows."""
    return [
        (
            feature,
            cells["AWS/Azure"],
            cells["Hadoop"],
            cells["DryadLINQ"],
        )
        for feature, cells in FEATURE_MATRIX.items()
    ]


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]], title: str = ""
) -> str:
    """Plain-text table with aligned columns."""
    str_rows = [[str(cell) for cell in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in str_rows)) if str_rows
        else len(headers[i])
        for i in range(len(headers))
    ]

    def line(cells: Sequence[str]) -> str:
        return " | ".join(c.ljust(w) for c, w in zip(cells, widths))

    out = []
    if title:
        out.append(title)
    out.append(line(list(headers)))
    out.append("-+-".join("-" * w for w in widths))
    out.extend(line(r) for r in str_rows)
    return "\n".join(out)


def ascii_bars(
    items: Sequence[tuple[str, float]],
    width: int = 40,
    value_format: str = "{:,.0f}",
    title: str = "",
) -> str:
    """Horizontal bar chart in plain text — the figures' bar form.

    ``items`` are (label, value) pairs; bars scale to the maximum value.
    """
    if not items:
        raise ValueError("no bars to draw")
    if width < 1:
        raise ValueError("width must be >= 1")
    peak = max(value for _, value in items)
    if peak < 0:
        raise ValueError("bar values must be non-negative")
    label_width = max(len(label) for label, _ in items)
    lines = [title] if title else []
    for label, value in items:
        filled = 0 if peak == 0 else round(width * value / peak)
        bar = "#" * filled
        lines.append(
            f"{label.ljust(label_width)} | {bar} {value_format.format(value)}"
        )
    return "\n".join(lines)


def format_series(
    x_label: str,
    series: dict[str, dict[object, float]],
    value_format: str = "{:.3f}",
    title: str = "",
) -> str:
    """A figure's data as a table: one column per series.

    ``series`` maps series name -> {x value: y value}.
    """
    xs: list[object] = []
    for values in series.values():
        for x in values:
            if x not in xs:
                xs.append(x)
    headers = [x_label] + list(series)
    rows = []
    for x in xs:
        row = [str(x)]
        for name in series:
            value = series[name].get(x)
            row.append(value_format.format(value) if value is not None else "-")
        rows.append(row)
    return format_table(headers, rows, title=title)


def serialize_rows(rows: Sequence) -> str:
    """Canonical JSON for a study's rows (the determinism surface): each
    row's ``to_dict()``, keys sorted, two-space indent."""
    return json.dumps(
        [row.to_dict() for row in rows], sort_keys=True, indent=2
    )
