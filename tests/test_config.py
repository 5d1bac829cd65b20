"""Tests for the configuration dataclasses and their §III-C defaults."""

import math

import pytest

from repro.sim.config import KIB, TRACKER_NUM_WANT, PeerConfig, SwarmConfig


class TestPeerConfigDefaults:
    """The paper's mainline 4.0.2 defaults (§III-C)."""

    def test_upload_cap_20_kb(self):
        assert PeerConfig().upload_capacity == 20 * KIB

    def test_download_unconstrained(self):
        assert PeerConfig().download_capacity is None

    def test_peer_set_limits(self):
        config = PeerConfig()
        assert config.max_peer_set == 80
        assert config.min_peer_set == 20
        assert config.max_initiated == 40

    def test_active_peer_set(self):
        assert PeerConfig().unchoke_slots == 4

    def test_random_first_threshold(self):
        assert PeerConfig().random_first_threshold == 4

    def test_choke_cadence(self):
        config = PeerConfig()
        assert config.choke_interval == 10.0
        assert config.optimistic_rounds == 3  # 30 s optimistic rotation

    def test_rate_window(self):
        assert PeerConfig().rate_window == 20.0

    def test_policies_enabled(self):
        config = PeerConfig()
        assert config.endgame_enabled
        assert config.strict_priority
        assert not config.super_seeding

    def test_client_id(self):
        assert PeerConfig().client_id == "M4-0-2"


class TestPeerConfigValidation:
    def test_negative_upload_rejected(self):
        with pytest.raises(ValueError):
            PeerConfig(upload_capacity=-1.0)

    def test_zero_upload_allowed(self):
        assert PeerConfig(upload_capacity=0.0).upload_capacity == 0.0

    def test_bad_download_rejected(self):
        with pytest.raises(ValueError):
            PeerConfig(download_capacity=0.0)

    @pytest.mark.parametrize("cap", [math.nan, math.inf, -math.inf])
    def test_non_finite_capacity_rejected(self, cap):
        """Regression: NaN passed both sign tests, and a swarm whose seed
        had ``upload_capacity=nan`` ran to the end with ``bytes_moved``,
        ``capacity_seconds`` and the utilisation all NaN and no
        completion, raising nothing."""
        with pytest.raises(ValueError, match="upload_capacity"):
            PeerConfig(upload_capacity=cap)
        with pytest.raises(ValueError, match="download_capacity"):
            PeerConfig(download_capacity=cap)

    def test_none_is_the_uncapped_download(self):
        assert PeerConfig(download_capacity=None).download_capacity is None

    def test_peer_set_ordering_enforced(self):
        with pytest.raises(ValueError):
            PeerConfig(min_peer_set=0)
        with pytest.raises(ValueError):
            PeerConfig(min_peer_set=90, max_peer_set=80)

    def test_positive_counts_enforced(self):
        with pytest.raises(ValueError):
            PeerConfig(max_initiated=0)
        with pytest.raises(ValueError):
            PeerConfig(unchoke_slots=0)
        with pytest.raises(ValueError):
            PeerConfig(request_pipeline_depth=0)


class TestSwarmConfigDefaults:
    def test_tracker_defaults(self):
        assert TRACKER_NUM_WANT == 50
        assert SwarmConfig().announce_interval == 30.0 * 60.0

    def test_fluid_defaults(self):
        config = SwarmConfig()
        assert config.tick_interval == 1.0
        assert config.message_latency == 0.0

    def test_hash_verification_off_by_default(self):
        assert not SwarmConfig().verify_piece_hashes

    def test_free_form_knob_dictionary_is_gone(self):
        with pytest.raises(TypeError):
            SwarmConfig(**{"extra": {"availability_backend": "index"}})


class TestNoEngineKnobs:
    """The engine picks its paths from what it observes; no caller can."""

    def test_swarm_config_takes_no_engine(self):
        with pytest.raises(TypeError):
            SwarmConfig(engine=None)

    @pytest.mark.parametrize("use_rarity_index", [True, False])
    def test_peer_config_takes_no_rarity_index_switch(self, use_rarity_index):
        with pytest.raises(TypeError):
            PeerConfig(use_rarity_index=use_rarity_index)
