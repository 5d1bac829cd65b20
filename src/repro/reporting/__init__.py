"""Result rendering: ASCII tables and sparklines for the terminal."""
