"""BitTorrent protocol substrate.

This package implements, from scratch, the protocol-level building blocks
a BitTorrent client needs:

* :mod:`repro.protocol.bencode` — the bencoding codec behind the info
  hash and tracker responses;
* :mod:`repro.protocol.bitfield` — the compact piece-ownership bitmap;
* :mod:`repro.protocol.metainfo` — torrent metadata and piece/block
  geometry (256 kB pieces split in 16 kB blocks by default);
* :mod:`repro.protocol.messages` — all peer-wire messages with binary
  encoding and decoding;
* :mod:`repro.protocol.peer_id` — Azureus-style peer identifiers and the
  client ID they carry (the paper's section III-D).
"""
