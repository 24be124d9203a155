"""Property-based tests for leafset invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.overlay.ids import ID_MASK, cw_distance, ring_distance
from repro.overlay.leafset import Leafset

ids = st.integers(min_value=0, max_value=ID_MASK)
#: Ids crowded into a narrow arc (often straddling 0): ring-distance ties
#: and members sitting on both sides of the owner are common.
crowded = st.builds(
    lambda base, offset: (base + offset) & ID_MASK,
    st.sampled_from([0, 1 << 127, ID_MASK - 8]),
    st.integers(min_value=-16, max_value=16),
)


def reference_closest(leafset: Leafset, key: int, include_owner: bool) -> int:
    """The lexicographic minimum of (ring distance, id) over the candidates."""
    candidates = leafset.members + ([leafset.owner] if include_owner else [])
    return min(candidates, key=lambda member: (ring_distance(member, key), member))


def reference_covers(leafset: Leafset, key: int) -> bool:
    """The three-branch coverage predicate ``Leafset.covers`` replaced."""
    cw, ccw = leafset.cw_members, leafset.ccw_members
    if len(cw) < leafset.half or len(ccw) < leafset.half:
        return True  # a short side
    lo, hi = ccw[-1], cw[-1]
    if lo == hi:
        return True  # both extremes are one node
    if not set(cw).isdisjoint(ccw):
        return True  # the sides overlap
    return cw_distance(lo, key) <= cw_distance(lo, hi)


class TestLeafsetProperties:
    @given(ids, st.lists(ids, max_size=60))
    @settings(max_examples=80)
    def test_sides_keep_closest_members(self, owner, members):
        leafset = Leafset(owner, size=8)
        for member in members:
            leafset.add(member)
        others = [m for m in set(members) if m != owner]
        # Clockwise side must hold the 4 members with smallest cw distance.
        expected_cw = sorted(others, key=lambda m: cw_distance(owner, m))[:4]
        assert set(leafset.cw_members) == set(expected_cw)
        expected_ccw = sorted(others, key=lambda m: cw_distance(m, owner))[:4]
        assert set(leafset.ccw_members) == set(expected_ccw)

    @given(ids, st.lists(ids, max_size=40), ids)
    @settings(max_examples=80)
    def test_closest_is_truly_closest_among_known(self, owner, members, key):
        leafset = Leafset(owner, size=8)
        for member in members:
            leafset.add(member)
        closest = leafset.closest(key)
        for candidate in leafset.members + [owner]:
            assert ring_distance(closest, key) <= ring_distance(candidate, key)

    @given(ids, st.lists(ids, max_size=40))
    @settings(max_examples=80)
    def test_add_remove_roundtrip(self, owner, members):
        leafset = Leafset(owner, size=8)
        for member in members:
            leafset.add(member)
        for member in list(leafset.members):
            leafset.remove(member)
        assert len(leafset) == 0

    @given(ids, st.lists(ids, min_size=1, max_size=40))
    @settings(max_examples=80)
    def test_merge_idempotent(self, owner, members):
        leafset = Leafset(owner, size=8)
        leafset.merge(members)
        snapshot = set(leafset.members)
        assert not leafset.merge(members)  # second merge changes nothing
        assert set(leafset.members) == snapshot

    @given(ids, st.lists(ids, max_size=40))
    @settings(max_examples=80)
    def test_owner_never_member(self, owner, members):
        leafset = Leafset(owner, size=8)
        leafset.merge(members + [owner])
        assert owner not in leafset.members

    @given(
        st.one_of(ids, crowded),
        st.lists(st.one_of(ids, crowded), max_size=12),
        st.one_of(ids, crowded),
        st.booleans(),
        st.sampled_from([2, 4, 8]),
    )
    @settings(max_examples=300)
    def test_closest_equals_lexicographic_min(
        self, owner, members, key, include_owner, size
    ):
        leafset = Leafset(owner, size=size)
        leafset.merge(members)
        if not include_owner and len(leafset) == 0:
            with pytest.raises(ValueError):
                leafset.closest(key, include_owner=False)
            return
        assert leafset.closest(key, include_owner) == reference_closest(
            leafset, key, include_owner
        )

    @given(
        st.one_of(ids, crowded),
        st.lists(st.one_of(ids, crowded), max_size=20),
        st.one_of(ids, crowded),
        st.sampled_from([2, 4, 8]),
    )
    @settings(max_examples=300)
    def test_covers_equals_three_branch_reference(self, owner, members, key, size):
        leafset = Leafset(owner, size=size)
        leafset.merge(members)
        assert leafset.covers(key) == reference_covers(leafset, key)

    def test_closest_tie_and_both_sides(self):
        # Population below the leafset size: each member is on both sides.
        leafset = Leafset(100, size=8)
        leafset.merge([90, 110])
        assert set(leafset.cw_members) == set(leafset.ccw_members) == {90, 110}
        # 90 and 110 tie on distance to 100; the owner wins at distance 0.
        assert leafset.closest(100) == 100
        assert leafset.closest(100, include_owner=False) == 90
        assert leafset.closest(ID_MASK, include_owner=False) == 90
