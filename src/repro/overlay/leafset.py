"""Pastry leafset: the l/2 nearest neighbours on each side of the ring.

The leafset is the overlay's correctness backbone: routing terminates via
the leafset, replica sets are drawn from it, and its heartbeat protocol is
the failure detector for the whole system.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Optional

from repro.overlay.ids import ID_MASK, ID_SPACE, cw_distance, ring_distance

_HALF_SPACE = ID_SPACE >> 1


class Leafset:
    """The ``l/2`` clockwise and counter-clockwise neighbours of a node."""

    def __init__(self, owner: int, size: int = 8) -> None:
        if size <= 0 or size % 2 != 0:
            raise ValueError(f"leafset size must be positive and even, got {size}")
        self.owner = owner
        self.half = size // 2
        self._cw: list[int] = []  # sorted by clockwise distance from owner
        self._ccw: list[int] = []  # sorted by counter-clockwise distance
        # Each side's ring distances from the owner, parallel to the side
        # and so sorted too: an insert is one bisect.
        self._cw_distances: list[int] = []
        self._ccw_distances: list[int] = []
        #: Bumped on every actual mutation; next-hop caches key on it.
        self.version = 0
        self._members: list[int] = []
        self._members_version = 0

    def add(self, node_id: int) -> bool:
        """Consider ``node_id`` for membership.  Returns True if it was added."""
        owner = self.owner
        if node_id == owner:
            return False
        cw = (node_id - owner) & ID_MASK
        ccw = (owner - node_id) & ID_MASK
        half = self.half
        cw_distances = self._cw_distances
        ccw_distances = self._ccw_distances
        # Farther than a full side's last member on both sides: the usual
        # verdict for a gossiped id, decided before any other work.
        if (
            len(cw_distances) >= half
            and cw >= cw_distances[-1]
            and len(ccw_distances) >= half
            and ccw >= ccw_distances[-1]
        ):
            return False
        added = self._insert(self._cw, cw_distances, cw, node_id)
        if self._insert(self._ccw, ccw_distances, ccw, node_id):
            added = True
        if added:
            self.version += 1
        return added

    def _insert(
        self, side: list[int], distances: list[int], distance: int, node_id: int
    ) -> bool:
        # A distance from the owner names exactly one id, so an equal
        # distance at the insertion point means the member is held.
        position = bisect_left(distances, distance)
        if position >= self.half:
            return False
        if position < len(distances) and distances[position] == distance:
            return False
        side.insert(position, node_id)
        distances.insert(position, distance)
        if len(side) > self.half:
            side.pop()
            distances.pop()
        return True

    def remove(self, node_id: int) -> bool:
        """Remove a failed member.  Returns True if it was present."""
        removed = False
        for side, distances in (
            (self._cw, self._cw_distances),
            (self._ccw, self._ccw_distances),
        ):
            if node_id in side:
                position = side.index(node_id)
                del side[position], distances[position]
                removed = True
        if removed:
            self.version += 1
        return removed

    @property
    def members(self) -> list[int]:
        """All distinct members (a node may appear on both sides in tiny rings).

        Built once per :attr:`version` and shared: callers must not
        mutate the list.
        """
        if self._members_version != self.version:
            seen = dict.fromkeys(self._cw)
            seen.update(dict.fromkeys(self._ccw))
            self._members = list(seen)
            self._members_version = self.version
        return self._members

    @property
    def cw_members(self) -> list[int]:
        """Clockwise members ordered by increasing distance."""
        return list(self._cw)

    @property
    def ccw_members(self) -> list[int]:
        """Counter-clockwise members ordered by increasing distance."""
        return list(self._ccw)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._cw or node_id in self._ccw

    def __len__(self) -> int:
        return len(self.members)

    def is_full(self) -> bool:
        """Whether both sides hold ``l/2`` members."""
        return len(self._cw) >= self.half and len(self._ccw) >= self.half

    def extremes(self) -> list[int]:
        """The outermost member on each side — repair queries go to these."""
        result = []
        if self._cw:
            result.append(self._cw[-1])
        if self._ccw:
            result.append(self._ccw[-1])
        return result

    def covers(self, key: int) -> bool:
        """Whether ``key`` falls inside the leafset span.

        Pastry's routing rule: if the key is within the span from the
        farthest counter-clockwise to the farthest clockwise member, the
        message is forwarded directly to the numerically closest member.

        Fewer than ``l`` distinct members means the leafset holds the
        whole ring as far as it knows (a short side, or a member on both
        sides), so it covers every key; the closest-member delivery plus
        stabilization then converge to the true root.  Only ``l``
        distinct members make the span test meaningful: with a wrapped
        set the span ``[lo, hi]`` measures the far arc, so the true root
        of a nearby key would refuse local delivery and prefix-route it
        into a ping-pong to the hop limit.
        """
        if len(self.members) < 2 * self.half:
            return True
        lo = self._ccw[-1]
        span = cw_distance(lo, self._cw[-1])
        return cw_distance(lo, key) <= span

    def closest(self, key: int, include_owner: bool = True) -> int:
        """The member (optionally including the owner) numerically closest to ``key``.

        Ties on ring distance break on the lower id.  Routing and every
        tree-vertex lookup call this, so it walks both sides in place
        with the ring distance inlined instead of building candidates.
        """
        best = -1
        best_distance = ID_SPACE  # beyond any ring distance
        if include_owner:
            best = self.owner
            best_distance = ring_distance(best, key)
        for side in (self._ccw, self._cw):
            for member in side:
                forward = (key - member) & ID_MASK
                distance = ID_SPACE - forward if forward > _HALF_SPACE else forward
                if distance < best_distance or (
                    distance == best_distance and member < best
                ):
                    best = member
                    best_distance = distance
        if best_distance == ID_SPACE:
            raise ValueError("empty leafset and owner excluded")
        return best

    def merge(self, other_members: Iterable[int]) -> bool:
        """Add every id in ``other_members``; returns True if anything changed."""
        changed = False
        for member in other_members:
            if self.add(member):
                changed = True
        return changed

    def neighbour_cw(self) -> Optional[int]:
        """Immediate clockwise neighbour, if known."""
        return self._cw[0] if self._cw else None

    def neighbour_ccw(self) -> Optional[int]:
        """Immediate counter-clockwise neighbour, if known."""
        return self._ccw[0] if self._ccw else None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Leafset(owner={self.owner & ID_MASK:032x}, "
            f"ccw={len(self._ccw)}, cw={len(self._cw)})"
        )
