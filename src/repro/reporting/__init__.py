"""Result rendering: ASCII tables, ASCII charts and CSV export for the
regenerated figures."""

from repro.reporting.render import ascii_chart, ascii_table, sparkline
from repro.reporting.export import series_to_csv, table_to_csv

__all__ = [
    "ascii_chart",
    "ascii_table",
    "series_to_csv",
    "sparkline",
    "table_to_csv",
]
