"""Terminal-friendly rendering of tables and time series.

The CLI's own reports (the Table-I listing, trace statistics, a live
swarm's outcome, the fluid model's trajectory) print as fixed-width
tables and sparklines; the paper's figures print through the claims
registry (:mod:`repro.analysis.claims`).
"""

from __future__ import annotations

from typing import Sequence

SPARK_LEVELS = "▁▂▃▄▅▆▇█"


def ascii_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    align_right: bool = True,
) -> str:
    """A fixed-width table with a separator under the header.

    >>> print(ascii_table(["id", "n"], [[1, 10], [2, 300]]))
    id   n
    -- ---
     1  10
     2 300
    """
    if not headers:
        raise ValueError("need at least one column")
    columns = len(headers)
    text_rows = [[str(cell) for cell in row] for row in rows]
    for row in text_rows:
        if len(row) != columns:
            raise ValueError(
                "row has %d cells, expected %d" % (len(row), columns)
            )
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in text_rows)) if text_rows
        else len(headers[i])
        for i in range(columns)
    ]

    def fmt(cells: Sequence[str]) -> str:
        parts = []
        for text, width in zip(cells, widths):
            parts.append(text.rjust(width) if align_right else text.ljust(width))
        return " ".join(parts).rstrip()

    lines = [fmt(list(headers)), " ".join("-" * w for w in widths)]
    lines.extend(fmt(row) for row in text_rows)
    return "\n".join(lines)


def sparkline(values: Sequence[float]) -> str:
    """One-line bar rendering of a series.

    >>> sparkline([0, 1, 2, 3])
    '▁▃▆█'
    """
    values = [float(v) for v in values]
    if not values:
        return ""
    low = min(values)
    high = max(values)
    if high == low:
        return SPARK_LEVELS[0] * len(values)
    scale = (len(SPARK_LEVELS) - 1) / (high - low)
    return "".join(
        SPARK_LEVELS[int(round((value - low) * scale))] for value in values
    )

