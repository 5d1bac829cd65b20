"""Tests for Jain's index and the figure 9/11 aggregations."""

import pytest
from hypothesis import given, strategies as st

from repro.core.fairness import contribution_sets, jain_index, reciprocation_shares


class TestJain:
    def test_equal_values(self):
        assert jain_index([5.0, 5.0, 5.0]) == pytest.approx(1.0)

    def test_single_value(self):
        assert jain_index([42.0]) == pytest.approx(1.0)

    def test_maximally_unfair(self):
        # One peer gets everything: index = 1/n.
        assert jain_index([100.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)

    def test_empty(self):
        assert jain_index([]) == 1.0

    def test_all_zero(self):
        assert jain_index([0.0, 0.0]) == 1.0


class TestContributionSets:
    def test_shares_sum_to_at_most_one(self):
        totals = {str(i): float(100 - i) for i in range(40)}
        shares = contribution_sets(totals)
        assert len(shares) == 6
        assert sum(shares) <= 1.0 + 1e-9

    def test_ranked_descending(self):
        totals = {str(i): float(i) for i in range(30)}
        shares = contribution_sets(totals)
        assert shares == sorted(shares, reverse=True)

    def test_concentrated_distribution(self):
        totals = {"big%d" % i: 1000.0 for i in range(5)}
        totals.update({"small%d" % i: 1.0 for i in range(25)})
        shares = contribution_sets(totals)
        assert shares[0] > 0.99

    def test_uniform_distribution(self):
        totals = {str(i): 10.0 for i in range(30)}
        shares = contribution_sets(totals)
        assert all(s == pytest.approx(shares[0]) for s in shares)

    def test_empty(self):
        assert contribution_sets({}) == [0.0] * 6

    def test_fewer_peers_than_sets(self):
        shares = contribution_sets({"a": 10.0})
        assert shares[0] == pytest.approx(1.0)
        assert shares[1:] == [0.0] * 5


class TestReciprocationShares:
    def test_reciprocation_alignment(self):
        """When download mirrors upload, the top set dominates both."""
        uploaded = {str(i): float(100 - i) for i in range(30)}
        downloaded = {str(i): float(100 - i) for i in range(30)}
        up_shares, down_shares = reciprocation_shares(uploaded, downloaded)
        assert up_shares[0] == max(up_shares)
        assert down_shares[0] == max(down_shares)

    def test_no_reciprocation(self):
        """Download concentrated on peers we never uploaded to."""
        uploaded = {str(i): float(30 - i) for i in range(30)}
        downloaded = {str(i): 1000.0 if i >= 25 else 0.0 for i in range(30)}
        up_shares, down_shares = reciprocation_shares(uploaded, downloaded)
        assert down_shares[0] == pytest.approx(0.0)
        assert down_shares[5] == pytest.approx(1.0)

    def test_grouping_follows_upload_direction(self):
        uploaded = {"a": 100.0, "b": 1.0}
        downloaded = {"a": 0.0, "b": 999.0}
        up_shares, down_shares = reciprocation_shares(
            uploaded, downloaded, set_size=1, num_sets=2
        )
        assert up_shares[0] == pytest.approx(100.0 / 101.0)
        assert down_shares[0] == pytest.approx(0.0)

    def test_empty(self):
        up, down = reciprocation_shares({}, {})
        assert up == [0.0] * 6 and down == [0.0] * 6


@given(st.lists(st.floats(0.0, 1e6), min_size=1, max_size=50))
def test_property_jain_bounds(values):
    index = jain_index(values)
    assert 0.0 < index <= 1.0 + 1e-9


@given(
    st.dictionaries(
        st.text(min_size=1, max_size=4), st.floats(0.0, 1e6), max_size=40
    )
)
def test_property_contribution_shares_bounded(totals):
    shares = contribution_sets(totals)
    assert len(shares) == 6
    assert all(0.0 <= share <= 1.0 + 1e-9 for share in shares)
    assert sum(shares) <= 1.0 + 1e-6
