"""Idealised network-coding comparator (paper §IV-A.4)."""
