"""Result rendering: ASCII tables and sparklines for the terminal."""

from repro.reporting.render import ascii_table, sparkline

__all__ = ["ascii_table", "sparkline"]
