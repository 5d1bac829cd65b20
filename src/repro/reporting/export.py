"""CSV export of figure series and tables.

The on-disk record of a *run* is the structured trace (``repro run
--trace`` / :func:`repro.instrumentation.replay.replay_instrumentation`);
this module only writes the derived series out for plotting.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path
from typing import Sequence, Union

PathLike = Union[str, Path]


def series_to_csv(
    columns: dict, path: PathLike = None
) -> str:
    """Write aligned series (name -> sequence) as CSV; returns the text.

    >>> print(series_to_csv({"t": [0, 1], "min": [2, 3]}), end="")
    t,min
    0,2
    1,3
    """
    names = list(columns)
    if not names:
        raise ValueError("no columns")
    lengths = {len(columns[name]) for name in names}
    if len(lengths) != 1:
        raise ValueError("all columns must have the same length")
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(names)
    for row in zip(*(columns[name] for name in names)):
        writer.writerow(row)
    text = buffer.getvalue()
    if path is not None:
        Path(path).write_text(text)
    return text


def table_to_csv(
    headers: Sequence[str], rows: Sequence[Sequence[object]], path: PathLike = None
) -> str:
    """Write a row-oriented table as CSV; returns the text."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(list(headers))
    for row in rows:
        writer.writerow(list(row))
    text = buffer.getvalue()
    if path is not None:
        Path(path).write_text(text)
    return text
