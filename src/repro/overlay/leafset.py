"""Pastry leafset: the l/2 nearest neighbours on each side of the ring.

The leafset is the overlay's correctness backbone: routing terminates via
the leafset, replica sets are drawn from it, and its heartbeat protocol is
the failure detector for the whole system.
"""

from __future__ import annotations

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
        #: Bumped on every actual mutation; next-hop caches key on it.
        self.version = 0

    def add(self, node_id: int) -> bool:
        """Consider ``node_id`` for membership.  Returns True if it was added."""
        if node_id == self.owner:
            return False
        added = False
        if self._insert(self._cw, cw_distance(self.owner, node_id), node_id):
            added = True
        if self._insert(self._ccw, cw_distance(node_id, self.owner), node_id):
            added = True
        if added:
            self.version += 1
        return added

    def _insert(self, side: list[int], distance: int, node_id: int) -> bool:
        if node_id in side:
            return False
        key = distance

        def side_key(member: int) -> int:
            if side is self._cw:
                return cw_distance(self.owner, member)
            return cw_distance(member, self.owner)

        position = 0
        while position < len(side) and side_key(side[position]) < key:
            position += 1
        if position >= self.half:
            return False
        side.insert(position, node_id)
        if len(side) > self.half:
            side.pop()
        return True

    def remove(self, node_id: int) -> bool:
        """Remove a failed member.  Returns True if it was present."""
        removed = False
        if node_id in self._cw:
            self._cw.remove(node_id)
            removed = True
        if node_id in self._ccw:
            self._ccw.remove(node_id)
            removed = True
        if removed:
            self.version += 1
        return removed

    @property
    def members(self) -> list[int]:
        """All distinct members (a node may appear on both sides in tiny rings)."""
        seen = dict.fromkeys(self._cw)
        seen.update(dict.fromkeys(self._ccw))
        return list(seen)

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
        The span test is only meaningful when both sides are full; a
        half-empty side means either the ring is tiny (we know everyone,
        so the span effectively covers the namespace) or we are still
        converging — both are treated as covering, and the closest-member
        delivery plus stabilization then converge to the true root.

        When the farthest member on both sides is the *same* node, the
        population is no larger than the leafset: the set wraps the whole
        ring and covers every key.  The span arithmetic degenerates there
        (``lo == hi`` collapses the span to zero), which used to make the
        true root of a key refuse local delivery and forward it by
        routing-table prefix instead — two nodes could each pick the other
        as next hop and ping-pong the message to the hop limit forever.
        """
        if len(self._cw) < self.half or len(self._ccw) < self.half:
            return True
        lo = self._ccw[-1]
        hi = self._cw[-1]
        if lo == hi:
            return True
        # The same degeneracy one population size earlier: when a member
        # appears on *both* sides, walking ``half`` steps each way meets,
        # so the ring is no larger than the leafset and every key is
        # covered.  The span [lo, hi] would then measure the far arc —
        # excluding the owner's own neighbourhood, making the true root
        # of a nearby key refuse local delivery and prefix-route it into
        # a ping-pong (the live-mode 6-node cluster hit this).
        if not set(self._cw).isdisjoint(self._ccw):
            return True
        span = cw_distance(lo, hi)
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
