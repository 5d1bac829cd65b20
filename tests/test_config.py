"""Tests for the configuration dataclasses and their §III-C defaults."""

import ast
import dataclasses
import math
from pathlib import Path

import pytest

from repro.sim.config import (
    KIB,
    OPTIMISTIC_ROUNDS,
    RANDOM_FIRST_THRESHOLD,
    REQUEST_PIPELINE_DEPTH,
    TRACKER_ANNOUNCE_SECONDS,
    TRACKER_NUM_WANT,
    UNCHOKE_SLOTS,
    PeerConfig,
    SwarmConfig,
)

ROOT = Path(__file__).resolve().parent.parent


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
        assert UNCHOKE_SLOTS == 4

    def test_random_first_threshold(self):
        assert RANDOM_FIRST_THRESHOLD == 4

    def test_request_pipeline_depth(self):
        assert REQUEST_PIPELINE_DEPTH == 8

    def test_choke_cadence(self):
        assert PeerConfig().choke_interval == 10.0
        assert OPTIMISTIC_ROUNDS == 3  # 30 s optimistic rotation

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

    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
    @pytest.mark.parametrize("name", ["choke_interval", "rate_window"])
    def test_non_positive_cadence_rejected(self, name, value):
        """Regression: a live swarm given ``choke_interval=nan`` never
        ran a choke round and stalled until its timeout."""
        with pytest.raises(ValueError, match="%s must be finite and > 0" % name):
            PeerConfig(**{name: value})

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


class TestSwarmConfigDefaults:
    def test_tracker_defaults(self):
        assert TRACKER_NUM_WANT == 50
        assert TRACKER_ANNOUNCE_SECONDS == 30.0 * 60.0

    def test_fluid_defaults(self):
        assert SwarmConfig().tick_interval == 1.0

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


CONFIGS = {cls.__name__: cls for cls in (PeerConfig, SwarmConfig)}

# Fields no keyword in src/ or benchmarks/ sets, each kept on purpose.
KEPT_UNSET = {
    ("SwarmConfig", "tick_interval"): "the fluid step is to become a run "
    "coordinate (RunOptions) that the clock-validity sweep sets",
    ("SwarmConfig", "trace_announces"): "the announce-event gate that "
    "structured logging is to set",
    ("SwarmConfig", "verify_piece_hashes"): "the SHA-1 path the hash-check "
    "tests compare the synthetic-payload path against",
}


def keyword_setters():
    """Per config class, the field names some call in ``src/`` or
    ``benchmarks/`` passes as a keyword: to the class itself, or to
    ``replace`` (which either may be)."""
    found = {name: set() for name in CONFIGS}
    for root in ("src", "benchmarks"):
        for path in sorted((ROOT / root).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                callee = getattr(node.func, "id", getattr(node.func, "attr", None))
                keywords = {keyword.arg for keyword in node.keywords}
                for name in CONFIGS:
                    if callee in (name, "replace"):
                        found[name] |= keywords
    return found


class TestNoUnsetKnobs:
    """A config field nothing sets is a constant with a setter: it goes
    back to being a constant (the §III-C client runs one configuration)."""

    def test_every_field_is_set_somewhere_or_kept_on_purpose(self):
        setters = keyword_setters()
        unset = [
            "%s.%s" % (cls_name, field.name)
            for cls_name, cls in CONFIGS.items()
            for field in dataclasses.fields(cls)
            if field.name not in setters[cls_name]
            and (cls_name, field.name) not in KEPT_UNSET
        ]
        assert not unset, "fields nothing sets: %s" % ", ".join(unset)

    def test_kept_fields_exist_and_are_still_unset(self):
        setters = keyword_setters()
        for (cls_name, name), reason in KEPT_UNSET.items():
            fields = dataclasses.fields(CONFIGS[cls_name])
            assert name in {field.name for field in fields}
            assert name not in setters[cls_name], "now set; drop it: " + reason

    def test_settable_value_counts(self):
        assert len(dataclasses.fields(PeerConfig)) == 12
        assert len(dataclasses.fields(SwarmConfig)) == 6
