"""Tests for peer identifiers and the client ID they carry."""

from random import Random

import pytest

from repro.protocol.peer_id import (
    PeerId,
    make_peer_id,
    parse_client_id,
)


class TestMakePeerId:
    def test_mainline_style(self):
        peer_id = make_peer_id("M4-0-2", Random(1))
        assert len(peer_id.raw) == 20
        assert peer_id.raw.startswith(b"M4-0-2-")
        assert peer_id.client_id == "M4-0-2"

    def test_azureus_style(self):
        peer_id = make_peer_id("-AZ2504", Random(1))
        assert peer_id.raw.startswith(b"-AZ2504-")
        assert peer_id.client_id == "-AZ2504"

    def test_random_suffix_changes_on_restart(self):
        rng = Random(1)
        first = make_peer_id("M4-0-2", rng)
        second = make_peer_id("M4-0-2", rng)
        assert first.raw != second.raw
        assert first.client_id == second.client_id

    def test_deterministic_given_seed(self):
        assert make_peer_id("M4-0-2", Random(7)).raw == make_peer_id(
            "M4-0-2", Random(7)
        ).raw

    def test_too_long_rejected(self):
        with pytest.raises(ValueError):
            make_peer_id("M" * 25, Random(1))


class TestParseClientId:
    def test_mainline(self):
        assert parse_client_id(b"M4-0-2--abcdefghijkl") == "M4-0-2"

    def test_mainline_major_only(self):
        assert parse_client_id(b"M4-abcdefghijklmnopq") == "M4"

    def test_azureus(self):
        assert parse_client_id(b"-AZ2504-abcdefghijkl") == "-AZ2504"

    def test_unknown_format(self):
        assert parse_client_id(b"\x00" * 20) is None

    def test_wrong_length(self):
        assert parse_client_id(b"M4-0-2-") is None


class TestPeerIdValidation:
    def test_raw_must_be_20_bytes(self):
        with pytest.raises(ValueError):
            PeerId(raw=b"short", client_id="x")
