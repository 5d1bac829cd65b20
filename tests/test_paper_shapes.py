"""Qualitative reproduction checks of the paper's headline results, at
test-suite scale (the full-scale versions are the rows of
``repro.analysis.claims``, evaluated by ``repro reproduce``).

Each test encodes one "shape" from DESIGN.md §5.
"""

from repro.analysis.ablations import seed_choke_service
from repro.analysis.fairness import unchoke_interest_correlation
from repro.analysis.interarrival import interarrival_summary
from repro.analysis.replication import (
    rarest_set_decay_rate,
    rarest_set_series,
    replication_series,
)
from repro.core.choke import OldSeedChoker, SeedChoker, TitForTatChoker
from repro.core.fairness import jain_index
from repro.core.free_rider import FreeRiderChoker
from repro.core.rarest_first import RarestFirstSelector, SequentialSelector
from repro.instrumentation import Instrumentation
from repro.sim.config import KIB, PeerConfig

from tests.conftest import fast_config, tiny_swarm
from tests.probes import is_transient


def populated_swarm(
    num_pieces=32,
    leechers=10,
    seed=17,
    seed_upload=4 * KIB,
    leecher_upload=2 * KIB,
    selector_factory=None,
    seed_choker_factory=None,
):
    swarm = tiny_swarm(num_pieces=num_pieces, seed=seed)
    kwargs = {}
    if seed_choker_factory is not None:
        kwargs["seed_choker"] = seed_choker_factory()
    swarm.add_peer(config=fast_config(upload=seed_upload), is_seed=True, **kwargs)
    for __ in range(leechers):
        peer_kwargs = {}
        if selector_factory is not None:
            peer_kwargs["selector"] = selector_factory()
        if seed_choker_factory is not None:
            peer_kwargs["seed_choker"] = seed_choker_factory()
        swarm.add_peer(config=fast_config(upload=leecher_upload), **peer_kwargs)
    return swarm


class TestRarestFirstDiversity:
    """§IV-A: rarest first keeps piece diversity high."""

    def test_rarest_first_keeps_min_copies_above_zero_in_steady_state(self):
        swarm = populated_swarm()
        trace = Instrumentation()
        local = swarm.add_peer(config=fast_config(), observer=trace)
        trace.start_sampling()
        swarm.run(500)
        # After the initial seed has pushed a first copy, the min (over
        # the local peer set, while the local peer is still a leecher)
        # never returns to zero: rare pieces do not reappear (§IV-A.2.b).
        series = replication_series(trace, leecher_state_only=True)
        first_full = swarm.result.first_full_copy_at
        assert first_full is not None
        post = [
            low
            for time, low in zip(series.times, series.min_copies)
            if time > first_full
        ]
        assert post and all(value >= 1 for value in post)

    def test_rarest_first_beats_sequential_on_diversity(self):
        """Sequential selection leaves high-index pieces rare for much
        longer: the availability spread (max-min) stays wider."""

        def spread(selector_factory):
            swarm = populated_swarm(selector_factory=selector_factory, seed=23)
            trace = Instrumentation()
            swarm.add_peer(
                config=fast_config(),
                observer=trace,
                selector=selector_factory(),
            )
            trace.start_sampling()
            swarm.run(260)
            series = replication_series(trace)
            gaps = [
                high - low
                for low, high in zip(series.min_copies, series.max_copies)
            ]
            return sum(gaps) / len(gaps)

        assert spread(RarestFirstSelector) < spread(SequentialSelector)

    def test_rarest_set_collapses_after_churn(self):
        """Steady state: the rarest-pieces set is quickly duplicated
        (sawtooth, figure 6) rather than growing without bound."""
        swarm = populated_swarm(num_pieces=24, leechers=8)
        trace = Instrumentation()
        swarm.add_peer(config=fast_config(), observer=trace)
        trace.start_sampling()
        swarm.run(500)
        times, sizes = rarest_set_series(trace)
        assert min(sizes) < max(sizes)  # it does vary (churny signal)
        assert sizes[-1] <= max(sizes)  # and never diverges


class TestTransientState:
    """§IV-A.2.a: the initial seed's capacity bounds the transient phase."""

    def test_rare_pieces_exist_during_transient(self):
        """While the source has not pushed a full copy, the rarest piece
        has at most one copy in the peer set (it lives only on the
        initial seed; in a torrent larger than the peer set, as in the
        Table-I scenarios, it would read zero as in figure 2)."""
        swarm = populated_swarm(seed_upload=1 * KIB, num_pieces=48)
        trace = Instrumentation()
        swarm.add_peer(config=fast_config(), observer=trace)
        trace.start_sampling()
        swarm.run(120)  # well inside the transient phase
        series = replication_series(trace)
        at_most_one = sum(1 for low in series.min_copies if low <= 1)
        assert at_most_one / len(series.min_copies) > 0.8
        assert is_transient(swarm)

    def test_rarest_set_decays_linearly_with_seed_capacity(self):
        def decay(seed_upload):
            swarm = populated_swarm(seed_upload=seed_upload, num_pieces=48, seed=31)
            trace = Instrumentation()
            swarm.add_peer(config=fast_config(), observer=trace)
            trace.start_sampling()
            swarm.run(120)
            times, sizes = rarest_set_series(trace)
            rate = rarest_set_decay_rate(times, sizes)
            return rate

        slow = decay(1 * KIB)
        fast = decay(4 * KIB)
        assert slow is not None and fast is not None
        assert slow < 0 and fast < 0  # both decreasing
        assert fast < slow  # faster source drains the rare set faster

    def test_transient_duration_set_by_seed_upload(self):
        def first_copy_time(seed_upload):
            swarm = populated_swarm(seed_upload=seed_upload, num_pieces=24, seed=37)
            swarm.add_peer(config=fast_config())
            return swarm.run(600).first_full_copy_at

        slow = first_copy_time(1 * KIB)
        fast = first_copy_time(4 * KIB)
        assert slow is not None and fast is not None
        assert slow > 1.5 * fast


class TestLastPiecesProblem:
    """§IV-A.3: no last-pieces problem in steady state, but a
    first-blocks problem."""

    def test_no_last_pieces_problem_in_steady_state(self):
        swarm = populated_swarm(num_pieces=48, leechers=10)
        trace = Instrumentation()
        swarm.add_peer(config=fast_config(), observer=trace)
        trace.start_sampling()
        swarm.run(600)
        assert trace.seed_state_at is not None
        summary = interarrival_summary(trace, kind="piece", n=10)
        assert summary.last_slowdown() < 2.0

    def test_first_blocks_slower_than_the_rest(self):
        swarm = populated_swarm(num_pieces=48, leechers=10)
        trace = Instrumentation()
        swarm.add_peer(config=fast_config(), observer=trace)
        trace.start_sampling()
        swarm.run(600)
        summary = interarrival_summary(trace, kind="block", n=10)
        # The startup (waiting for the first optimistic unchoke) makes the
        # first blocks' largest gaps the largest overall (figure 8).
        first_tail, last_tail = summary.tail_ratio(0.9)
        assert first_tail >= last_tail


class TestChokeReciprocation:
    """§IV-B.2: the choke algorithm fosters reciprocation and penalises
    free riders in leecher state."""

    def test_free_rider_penalised_in_steady_scarce_swarm(self):
        """Leecher-state choke starves the free rider of regular-unchoke
        slots.  The paired design compares the rider to a *twin* that
        joins at the same instant with the same (empty) bitfield but
        contributes upload: the twin downloads much faster and completes
        earlier.  Scarcity matters — completing peers leave instead of
        lingering as seeds, because with abundant seed capacity the
        paper's criteria deliberately let free riders use the excess.
        """
        from random import Random

        from repro.protocol.bitfield import Bitfield

        rng = Random(6)
        num_pieces = 192
        swarm = tiny_swarm(num_pieces=num_pieces, seed=41)
        swarm.add_peer(config=fast_config(upload=3 * KIB), is_seed=True)
        for __ in range(24):
            have = rng.sample(range(num_pieces), rng.randint(20, 120))
            swarm.add_peer(
                config=fast_config(upload=2 * KIB, seeding_time=1.0),
                initial_bitfield=Bitfield(num_pieces, have=have),
            )
        twin = swarm.add_peer(config=fast_config(upload=2 * KIB))
        rider = swarm.add_peer(
            config=PeerConfig(upload_capacity=0.0),
            leecher_choker=FreeRiderChoker(),
            seed_choker=FreeRiderChoker(),
        )
        swarm.run(200)
        assert twin.total_downloaded > 2.0 * rider.total_downloaded
        result = swarm.run(2800)
        # The rider is penalised but not starved to death (§IV-B.1: free
        # riders may use excess capacity, here the seed's rotation).
        assert rider.address in result.completions
        assert (
            result.completions[rider.address]
            > result.completions[twin.address] + 50.0
        )

    def test_upload_concentrates_on_reciprocating_peers(self):
        swarm = populated_swarm(num_pieces=48, leechers=10, seed=43)
        trace = Instrumentation()
        local = swarm.add_peer(config=fast_config(upload=4 * KIB), observer=trace)
        trace.start_sampling()
        swarm.run(400)
        trace.finalize()
        from repro.analysis.fairness import leecher_contribution

        up_shares, down_shares = leecher_contribution(trace, set_size=2, num_sets=5)
        # The top set of uploads received the lion's share...
        assert up_shares[0] == max(up_shares)
        # ...and that same set reciprocated more than the bottom set.
        assert down_shares[0] >= down_shares[-1]


class TestSeedStateFairness:
    """§IV-B.3: the new seed choke serves everyone near-uniformly; the
    old one lets fast peers monopolise the seed."""

    @staticmethod
    def _seed_service_rounds(seed_choker_factory, seed_value):
        """Unchoked rounds per remote peer under ablation A2's swarm
        (built once, in ``repro.analysis.ablations``), without its free
        rider: nine leechers on identical demand."""
        rounds, __ = seed_choke_service(
            seed_choker_factory, seed_value, free_rider=False
        )
        return rounds

    def test_new_seed_choke_serves_more_uniformly_than_old(self):
        new_rounds = self._seed_service_rounds(SeedChoker, 47)
        old_rounds = self._seed_service_rounds(OldSeedChoker, 47)
        assert len(new_rounds) == 9 and len(old_rounds) == 9
        assert jain_index(list(new_rounds.values())) > jain_index(
            list(old_rounds.values())
        )

    def test_old_seed_choke_lets_fast_peers_monopolise(self):
        """Under the old algorithm the uncapped (fast-download) peers
        hold the regular slots for virtually the whole run."""
        old_rounds = self._seed_service_rounds(OldSeedChoker, 61)
        ranked = sorted(old_rounds.values(), reverse=True)
        total = sum(ranked)
        assert total > 0
        assert sum(ranked[:3]) / total > 0.55

    def test_new_seed_choke_unchoke_correlates_with_interest_time(self):
        swarm = populated_swarm(num_pieces=32, leechers=8, seed=53)
        trace = Instrumentation()
        local = swarm.add_peer(config=fast_config(upload=4 * KIB), observer=trace)
        trace.start_sampling()
        swarm.run(700)
        trace.finalize()
        assert trace.seed_state_at is not None
        correlation = unchoke_interest_correlation(trace, state="seed")
        if len(correlation) >= 4:
            assert correlation.correlation > 0.0


class TestTitForTatStrandsCapacity:
    """§IV-B.1: bit-level tit-for-tat wastes excess capacity that the
    choke algorithm delivers to asymmetric leechers."""

    def test_asymmetric_leecher_completes_faster_under_choke(self):
        """A leecher with tiny upload and big download capacity finishes
        sooner under the choke algorithm than when the other leechers
        run bit-level tit-for-tat and refuse it once the deficit
        allowance is spent."""

        def asymmetric_completion(leecher_choker_factory):
            swarm = tiny_swarm(num_pieces=48, seed=7)
            # Plenty of excess capacity: a fast seed.
            swarm.add_peer(config=fast_config(upload=8 * KIB), is_seed=True,
                           seed_choker=SeedChoker())
            for __ in range(5):
                swarm.add_peer(
                    config=fast_config(upload=4 * KIB),
                    leecher_choker=leecher_choker_factory(),
                )
            # The asymmetric peer: tiny upload, unconstrained download.
            asymmetric = swarm.add_peer(
                config=fast_config(upload=256.0),
                leecher_choker=leecher_choker_factory(),
            )
            result = swarm.run(1500)
            return result.completions[asymmetric.address]

        block = 1 * KIB
        # Default chokers (None selects the mainline leecher choke).
        plain = asymmetric_completion(lambda: None)
        tft = asymmetric_completion(
            lambda: TitForTatChoker(deficit_threshold=2 * block)
        )
        assert plain < tft
