"""The production chokers against their full-list references.

A production choker reads the interested keys in link order and
snapshots of only the interested links that moved; the references of
``tests/reference_chokers.py`` read one candidate per link and sort them
all.  Both are put through the *same* multi-round script — exact rate
ties (at zero and between equal positives), keys whose ``str`` order is
not their link order (``"10.0.0.10"`` before ``"10.0.0.9"``, ``12``
before ``7``), interest and choke flips between rounds, non-zero
lifetime totals on links that are otherwise idle, and snapshots of
links that did not move (a superset must not matter) — and every round
they must agree on the unchoked list, its order, the optimistic holder
and the RNG state afterwards.
"""

from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.choke import (
    ChokeCandidate,
    LeecherChoker,
    OldSeedChoker,
    SeedChoker,
    TitForTatChoker,
)

from tests.reference_chokers import (
    ReferenceLeecherChoker,
    ReferenceOldSeedChoker,
    ReferenceSeedChoker,
    ReferenceTitForTatChoker,
    moved,
)

#: Keys in link order; sorted by ``str`` they come out in another order.
KEY_POOL = ("10.0.0.9", "10.0.0.10", "10.0.0.100", 12, 7, "b", "a", "10.0.0.2", 3)

RATES = st.sampled_from([0.0, 0.0, 5.0, 5.0, 40.0, 1e6])
TOTALS = st.sampled_from([0.0, 0.0, 300.0, 5000.0])
LAST_UNCHOKED = st.none() | st.sampled_from([0.0, 3.5, 12.0])

#: name -> (production, reference) factories over the same arguments.
PAIRS = {
    "leecher": (LeecherChoker, ReferenceLeecherChoker),
    "seed-old": (OldSeedChoker, ReferenceOldSeedChoker),
    "seed-new": (SeedChoker, ReferenceSeedChoker),
    "tit-for-tat": (TitForTatChoker, ReferenceTitForTatChoker),
}

ARGUMENTS = {
    "leecher": st.fixed_dictionaries(
        {"regular_slots": st.integers(1, 4), "optimistic_rounds": st.integers(1, 3)}
    ),
    "seed-old": st.fixed_dictionaries(
        {"regular_slots": st.integers(1, 4), "optimistic_rounds": st.integers(1, 3)}
    ),
    "seed-new": st.fixed_dictionaries(
        {
            "slots": st.integers(2, 5),
            "random_rounds": st.sampled_from([(0, 1), (0,), (1, 2)]),
        }
    ),
    "tit-for-tat": st.fixed_dictionaries(
        {
            # 0 makes an idle link ineligible (deficit 0 is not below it).
            "deficit_threshold": st.sampled_from([0.0, 1.0, 1000.0, 1e9]),
            "slots": st.integers(1, 5),
        }
    ),
}


@st.composite
def links(draw, keys):
    return [
        ChokeCandidate(
            key=key,
            interested=draw(st.booleans()),
            choked=draw(st.booleans()),
            download_rate=draw(RATES),
            upload_rate=draw(RATES),
            uploaded_to=draw(TOTALS),
            downloaded_from=draw(TOTALS),
            last_unchoked=draw(LAST_UNCHOKED),
        )
        for key in keys
    ]


@st.composite
def scripts(draw):
    keys = draw(st.permutations(KEY_POOL))[: draw(st.integers(0, len(KEY_POOL)))]
    link = st.integers(0, max(0, len(keys) - 1))
    change = st.one_of(
        st.tuples(st.just("interested"), link, st.booleans()),
        st.tuples(st.just("choked"), link, st.booleans()),
        st.tuples(st.just("download_rate"), link, RATES),
        st.tuples(st.just("upload_rate"), link, RATES),
        st.tuples(st.just("uploaded_to"), link, TOTALS),
        st.tuples(st.just("downloaded_from"), link, TOTALS),
        # Back to fully idle: choked, no rate, no totals.
        st.tuples(st.just("idle"), link, st.none()),
    )
    rounds = [
        (
            draw(st.booleans()),  # feed the decision back as choke state
            draw(st.lists(change, max_size=6)),
            draw(st.lists(st.booleans(), min_size=len(keys), max_size=len(keys))),
        )
        for __ in range(draw(st.integers(1, 8)))
    ]
    return draw(links(keys)), rounds


def apply(state, decision, feedback, changes):
    if feedback:
        unchoked = set(decision.unchoked)
        state = [c._replace(choked=c.key not in unchoked) for c in state]
    for field, index, value in changes:
        if not state:
            break
        if field == "idle":
            state[index] = ChokeCandidate(
                key=state[index].key,
                interested=state[index].interested,
                choked=True,
                last_unchoked=state[index].last_unchoked,
            )
        else:
            state[index] = state[index]._replace(**{field: value})
    return state


@pytest.mark.parametrize("name", sorted(PAIRS))
@settings(max_examples=150, deadline=None)
@given(data=st.data(), script=scripts(), seed=st.integers(0, 2**32 - 1))
def test_production_choker_matches_reference(name, data, script, seed):
    arguments = data.draw(ARGUMENTS[name])
    make, make_reference = PAIRS[name]
    production, reference = make(**arguments), make_reference(**arguments)
    production_rng, reference_rng = Random(seed), Random(seed)
    state, rounds = script
    decision = None
    for index, (feedback, changes, extra) in enumerate(rounds):
        if decision is not None:
            state = apply(list(state), decision, feedback, changes)
        now = 10.0 * index
        interested = [c for c in state if c.interested]
        # Every link that moved, plus any idle link the script adds.
        snapshots = [
            c for c, add in zip(state, extra) if c.interested and (moved(c) or add)
        ]
        decision = production.round(
            [c.key for c in interested], snapshots, now, production_rng
        )
        expected = reference.round(state, now, reference_rng)
        assert decision.unchoked == expected.unchoked
        assert decision.optimistic == expected.optimistic
        assert production_rng.getstate() == reference_rng.getstate()


def test_references_are_the_full_list_chokers():
    """The reference reads uninterested and idle candidates itself; the
    production choker never sees the idle ones, and decides the same."""
    state = [
        ChokeCandidate(key=key, interested=key != "b", choked=True)
        for key in ("10.0.0.9", "10.0.0.10", "b", "a")
    ]
    state[3] = state[3]._replace(download_rate=5.0, downloaded_from=100.0)
    production, reference = LeecherChoker(), ReferenceLeecherChoker()
    decision = production.round(
        ["10.0.0.9", "10.0.0.10", "a"], [state[3]], 0.0, Random(4)
    )
    expected = reference.round(state, 0.0, Random(4))
    # "a" by rate, then the zero-rate keys by string: "10.0.0.10" < "10.0.0.9".
    assert decision.unchoked[:3] == expected.unchoked[:3] == ["a", "10.0.0.10", "10.0.0.9"]
    assert decision == expected
