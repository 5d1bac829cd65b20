"""Tests for the four choke (peer-selection) strategies."""

from random import Random

import pytest

from repro.core.choke import (
    ChokeCandidate,
    LeecherChoker,
    OldSeedChoker,
    SeedChoker,
    TitForTatChoker,
)
from repro.core.free_rider import FreeRiderChoker

from tests.reference_chokers import split_candidates


def candidate(key, interested=True, choked=True, down=0.0, up=0.0,
              uploaded=0.0, downloaded=0.0, last_unchoked=None):
    return ChokeCandidate(
        key=key,
        interested=interested,
        choked=choked,
        download_rate=down,
        upload_rate=up,
        uploaded_to=uploaded,
        downloaded_from=downloaded,
        last_unchoked=last_unchoked,
    )


class TestLeecherChoker:
    def test_unchokes_three_fastest(self):
        choker = LeecherChoker()
        candidates = [
            candidate("a", down=100.0),
            candidate("b", down=300.0),
            candidate("c", down=200.0),
            candidate("d", down=50.0),
            candidate("e", down=10.0),
        ]
        decision = choker.round(*split_candidates(candidates), now=10.0, rng=Random(1))
        regular = [k for k in decision.unchoked if k != decision.optimistic]
        assert set(regular) == {"a", "b", "c"}

    def test_at_most_four_unchoked(self):
        choker = LeecherChoker()
        candidates = [candidate(str(i), down=float(i)) for i in range(20)]
        decision = choker.round(*split_candidates(candidates), now=10.0, rng=Random(1))
        assert len(decision.unchoked) == 4

    def test_optimistic_is_not_a_regular(self):
        choker = LeecherChoker()
        candidates = [candidate(str(i), down=float(10 - i)) for i in range(10)]
        decision = choker.round(*split_candidates(candidates), now=10.0, rng=Random(1))
        regular = [k for k in decision.unchoked if k != decision.optimistic]
        assert decision.optimistic not in regular

    def test_not_interested_never_unchoked(self):
        choker = LeecherChoker()
        candidates = [
            candidate("a", interested=False, down=1000.0),
            candidate("b", down=1.0),
        ]
        decision = choker.round(*split_candidates(candidates), now=10.0, rng=Random(1))
        assert "a" not in decision.unchoked
        assert "b" in decision.unchoked

    def test_optimistic_rotates_every_third_round(self):
        choker = LeecherChoker(optimistic_rounds=3)
        candidates = [candidate(str(i), down=float(100 - i)) for i in range(10)]
        rng = Random(5)
        holders = []
        for round_index in range(9):
            decision = choker.round(
                *split_candidates(candidates), now=10.0 * round_index, rng=rng
            )
            holders.append(decision.optimistic)
        # Within each 3-round window the optimistic peer is stable.
        assert holders[0] == holders[1] == holders[2]
        assert holders[3] == holders[4] == holders[5]

    def test_optimistic_replaced_when_it_leaves(self):
        choker = LeecherChoker()
        candidates = [candidate(str(i), down=float(100 - i)) for i in range(6)]
        decision = choker.round(*split_candidates(candidates), now=0.0, rng=Random(3))
        holder = decision.optimistic
        remaining = [c for c in candidates if c.key != holder]
        decision2 = choker.round(*split_candidates(remaining), now=10.0, rng=Random(3))
        assert decision2.optimistic != holder

    def test_empty_candidates(self):
        decision = LeecherChoker().round(*split_candidates([]), now=0.0, rng=Random(1))
        assert decision.unchoked == []
        assert decision.optimistic is None

    def test_fewer_candidates_than_slots(self):
        choker = LeecherChoker()
        decision = choker.round(
            *split_candidates([candidate("a")]), now=0.0, rng=Random(1)
        )
        assert decision.unchoked == ["a"]

    def test_validation(self):
        with pytest.raises(ValueError):
            LeecherChoker(regular_slots=0)
        with pytest.raises(ValueError):
            LeecherChoker(optimistic_rounds=0)

    def test_reset(self):
        choker = LeecherChoker()
        choker.round(*split_candidates([candidate("a")]), now=0.0, rng=Random(1))
        choker.reset()
        assert choker._round_index == 0


class TestSeedChoker:
    def test_at_most_four_unchoked(self):
        choker = SeedChoker()
        candidates = [candidate(str(i)) for i in range(20)]
        for round_index in range(6):
            decision = choker.round(
                *split_candidates(candidates), now=10.0 * round_index, rng=Random(1)
            )
            assert len(decision.unchoked) <= 4

    def test_sru_rotates_service_over_all_peers(self):
        """Over many rounds every interested peer gets unchoked: the new
        seed algorithm gives the same service time to each leecher."""
        choker = SeedChoker()
        keys = [str(i) for i in range(12)]
        unchoked_now = set()
        rng = Random(7)
        served = set()
        for round_index in range(60):
            candidates = [
                candidate(k, choked=k not in unchoked_now) for k in keys
            ]
            decision = choker.round(
                *split_candidates(candidates), now=10.0 * round_index, rng=rng
            )
            unchoked_now = set(decision.unchoked)
            served |= unchoked_now
        assert served == set(keys)

    def test_rotation_evicts_oldest(self):
        """Each SRU peer takes a slot off the oldest SKU peer."""
        choker = SeedChoker()
        keys = [str(i) for i in range(8)]
        unchoked_now = set()
        rng = Random(3)
        history = []
        for round_index in range(30):
            candidates = [
                candidate(k, choked=k not in unchoked_now) for k in keys
            ]
            decision = choker.round(
                *split_candidates(candidates), now=10.0 * round_index, rng=rng
            )
            unchoked_now = set(decision.unchoked)
            history.append(unchoked_now)
        # The unchoked set keeps changing (round robin), it never freezes.
        assert len({frozenset(s) for s in history[5:]}) > 1

    def test_ignores_rates_entirely(self):
        """A fast free rider cannot hold a slot: rates play no role."""
        choker = SeedChoker()
        rng = Random(11)
        unchoked_now = set()
        fast_rider_rounds = 0
        for round_index in range(60):
            candidates = [
                candidate("fast", choked="fast" not in unchoked_now, down=1e9, up=1e9)
            ] + [
                candidate("slow%d" % i, choked=("slow%d" % i) not in unchoked_now)
                for i in range(10)
            ]
            decision = choker.round(
                *split_candidates(candidates), now=10.0 * round_index, rng=rng
            )
            unchoked_now = set(decision.unchoked)
            if "fast" in unchoked_now:
                fast_rider_rounds += 1
        # It gets its fair rotation share, not a monopoly.
        assert fast_rider_rounds < 40

    def test_validation(self):
        with pytest.raises(ValueError):
            SeedChoker(slots=1)

    def test_sru_round_keeps_full_slots_when_no_choked_interested(self):
        """Regression: in an SRU round with nobody to promote, the seed
        must keep all ``slots`` ranked peers instead of dropping one
        upload slot for the round."""
        choker = SeedChoker()
        rng = Random(1)
        # Five interested peers, all already unchoked: nobody to promote.
        candidates = [
            candidate(str(i), choked=False, last_unchoked=float(i))
            for i in range(5)
        ]
        for round_index in range(3):  # covers both SRU rounds and the SKU round
            decision = choker.round(
                *split_candidates(candidates), now=100.0 + round_index, rng=rng
            )
            assert len(decision.unchoked) == 4  # full slots, no idle slot
            assert decision.optimistic is None

    def test_sru_round_empty_pool_single_unchoked_peer(self):
        """Same regression with fewer peers than slots: all are kept."""
        choker = SeedChoker()
        rng = Random(5)
        decision = choker.round(
            *split_candidates([candidate("only")]), now=0.0, rng=rng
        )
        assert decision.unchoked == ["only"]
        decision = choker.round(
            *split_candidates([candidate("only", choked=False)]), now=10.0, rng=rng
        )
        assert decision.unchoked == ["only"]


class TestOldSeedChoker:
    def test_favours_fastest_downloaders(self):
        """The old algorithm orders by upload rate from the local peer:
        a fast peer keeps its slot forever."""
        choker = OldSeedChoker()
        rng = Random(2)
        fast_rounds = 0
        for round_index in range(30):
            candidates = [candidate("fast", choked=False, up=1e6)] + [
                candidate("slow%d" % i, up=10.0) for i in range(10)
            ]
            decision = choker.round(
                *split_candidates(candidates), now=10.0 * round_index, rng=rng
            )
            if "fast" in decision.unchoked:
                fast_rounds += 1
        assert fast_rounds == 30  # monopoly — the unfairness of §IV-B.3

    def test_validation(self):
        """Regression: the old seed choker took any arguments, and
        ``optimistic_rounds=0`` died of ZeroDivisionError in round one."""
        with pytest.raises(ValueError):
            OldSeedChoker(regular_slots=0)
        with pytest.raises(ValueError):
            OldSeedChoker(optimistic_rounds=0)


class TestTitForTat:
    def test_blocks_peers_over_deficit(self):
        choker = TitForTatChoker(deficit_threshold=1000.0)
        candidates = [
            candidate("debtor", uploaded=5000.0, downloaded=100.0, down=100.0),
            candidate("fair", uploaded=500.0, downloaded=400.0, down=50.0),
        ]
        decision = choker.round(*split_candidates(candidates), now=0.0, rng=Random(1))
        assert "debtor" not in decision.unchoked
        assert "fair" in decision.unchoked

    def test_bootstrap_allowance(self):
        choker = TitForTatChoker(deficit_threshold=1000.0)
        candidates = [candidate("new", uploaded=0.0, downloaded=0.0)]
        decision = choker.round(*split_candidates(candidates), now=0.0, rng=Random(1))
        assert "new" in decision.unchoked

    def test_free_rider_starves_after_allowance(self):
        choker = TitForTatChoker(deficit_threshold=1000.0)
        candidates = [candidate("rider", uploaded=1001.0, downloaded=0.0)]
        decision = choker.round(*split_candidates(candidates), now=0.0, rng=Random(1))
        assert decision.unchoked == []

    def test_slot_cap(self):
        choker = TitForTatChoker(deficit_threshold=1e9, slots=4)
        candidates = [candidate(str(i), down=float(i)) for i in range(10)]
        decision = choker.round(*split_candidates(candidates), now=0.0, rng=Random(1))
        assert len(decision.unchoked) == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            TitForTatChoker(deficit_threshold=-1.0)


class TestFreeRider:
    def test_never_unchokes(self):
        choker = FreeRiderChoker()
        candidates = [candidate(str(i), down=1e6) for i in range(5)]
        decision = choker.round(*split_candidates(candidates), now=0.0, rng=Random(1))
        assert decision.unchoked == []


class TestDeterminism:
    def test_same_seed_same_decisions(self):
        def run():
            choker = LeecherChoker()
            rng = Random(9)
            out = []
            for round_index in range(10):
                candidates = [
                    candidate(str(i), down=float(i % 4)) for i in range(12)
                ]
                decision = choker.round(
                    *split_candidates(candidates), now=10.0 * round_index, rng=rng
                )
                out.append((tuple(decision.unchoked), decision.optimistic))
            return out

        assert run() == run()
