"""Property-based invariants of the choke strategies."""

from random import Random

from hypothesis import given, settings, strategies as st

from repro.core.choke import (
    ChokeCandidate,
    LeecherChoker,
    OldSeedChoker,
    SeedChoker,
    TitForTatChoker,
)

from tests.reference_chokers import split_candidates


@st.composite
def candidates(draw):
    n = draw(st.integers(0, 25))
    out = []
    for index in range(n):
        out.append(
            ChokeCandidate(
                key="p%d" % index,
                interested=draw(st.booleans()),
                choked=draw(st.booleans()),
                download_rate=draw(st.floats(0, 1e6)),
                upload_rate=draw(st.floats(0, 1e6)),
                uploaded_to=draw(st.floats(0, 1e9)),
                downloaded_from=draw(st.floats(0, 1e9)),
                last_unchoked=draw(st.none() | st.floats(0, 1e4)),
            )
        )
    return out


CHOKERS = [
    lambda: LeecherChoker(),
    lambda: SeedChoker(),
    lambda: OldSeedChoker(),
    lambda: TitForTatChoker(deficit_threshold=1e6),
]


@settings(max_examples=60, deadline=None)
@given(candidates(), st.integers(0, 2**31), st.integers(1, 6))
def test_property_unchoked_are_interested_candidates(cands, seed, rounds):
    """Every choker only unchokes interested peers, never invents keys,
    and never exceeds 4 slots, across consecutive rounds."""
    interested_keys = {c.key for c in cands if c.interested}
    for make in CHOKERS:
        choker = make()
        rng = Random(seed)
        current = cands
        for round_index in range(rounds):
            decision = choker.round(
                *split_candidates(current), now=10.0 * round_index, rng=rng
            )
            assert len(decision.unchoked) <= 4
            assert len(set(decision.unchoked)) == len(decision.unchoked)
            assert set(decision.unchoked) <= interested_keys
            if decision.optimistic is not None:
                assert decision.optimistic in decision.unchoked
            # Feed the decision back in: unchoked peers become un-choked
            # candidates on the next round, as the peer would report.
            unchoked = set(decision.unchoked)
            current = [
                ChokeCandidate(
                    key=c.key,
                    interested=c.interested,
                    choked=c.key not in unchoked,
                    download_rate=c.download_rate,
                    upload_rate=c.upload_rate,
                    uploaded_to=c.uploaded_to,
                    downloaded_from=c.downloaded_from,
                    last_unchoked=c.last_unchoked,
                )
                for c in current
            ]


@settings(max_examples=40, deadline=None)
@given(candidates(), st.integers(0, 2**31))
def test_property_decisions_deterministic(cands, seed):
    """Same candidates + same RNG state => same decision, per strategy."""
    for make in CHOKERS:
        first = make().round(*split_candidates(cands), now=0.0, rng=Random(seed))
        second = make().round(*split_candidates(cands), now=0.0, rng=Random(seed))
        assert first.unchoked == second.unchoked
        assert first.optimistic == second.optimistic


@settings(max_examples=40, deadline=None)
@given(candidates(), st.integers(0, 2**31))
def test_property_tft_never_serves_over_threshold(cands, seed):
    threshold = 1000.0
    choker = TitForTatChoker(deficit_threshold=threshold)
    decision = choker.round(*split_candidates(cands), now=0.0, rng=Random(seed))
    by_key = {c.key: c for c in cands}
    for key in decision.unchoked:
        candidate = by_key[key]
        assert candidate.uploaded_to - candidate.downloaded_from < threshold