"""Peer identifiers and the client ID they carry.

A BitTorrent peer ID is 20 bytes: an Azureus-style client prefix
(``-XX1234-`` style) or, for the mainline client the paper instruments, a
prefix like ``M4-0-2--`` followed by random bytes.  The random part is
regenerated on every client restart; the client ID is the part that
survives one.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from random import Random
from typing import Optional

MAINLINE_PREFIX_RE = re.compile(rb"^(M\d+(?:-\d+)*)-")
AZUREUS_PREFIX_RE = re.compile(rb"^-([A-Za-z]{2}[0-9A-Za-z]{4})-")

_RANDOM_ALPHABET = b"0123456789abcdefghijklmnopqrstuvwxyz"


@dataclass(frozen=True)
class PeerId:
    """A 20-byte peer ID plus its parsed client identity."""

    raw: bytes
    client_id: str

    def __post_init__(self) -> None:
        if len(self.raw) != 20:
            raise ValueError("peer IDs must be exactly 20 bytes")


def make_peer_id(client_id: str, rng: Random) -> PeerId:
    """Generate a peer ID for *client_id* (e.g. ``"M4-0-2"``, ``"-AZ2504"``).

    The random suffix mimics a client restart: calling this again with the
    same ``client_id`` yields a different 20-byte ID but the same parsed
    client identity.
    """
    prefix = client_id.encode("ascii")
    if not prefix.endswith(b"-"):
        prefix += b"-"
    if len(prefix) >= 20:
        raise ValueError("client id %r too long for a 20-byte peer id" % client_id)
    suffix = bytes(rng.choice(_RANDOM_ALPHABET) for _ in range(20 - len(prefix)))
    raw = prefix + suffix
    return PeerId(raw=raw, client_id=parse_client_id(raw) or client_id)


def parse_client_id(raw: bytes) -> Optional[str]:
    """Extract the client ID string from a raw peer ID, if recognisable.

    >>> parse_client_id(b"M4-0-2--abcdefghijkl")
    'M4-0-2'
    >>> parse_client_id(b"-AZ2504-abcdefghijkl")
    '-AZ2504'
    """
    if len(raw) != 20:
        return None
    match = MAINLINE_PREFIX_RE.match(raw)
    if match:
        return match.group(1).decode("ascii")
    match = AZUREUS_PREFIX_RE.match(raw)
    if match:
        return "-" + match.group(1).decode("ascii")
    return None
