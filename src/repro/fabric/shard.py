"""Consistent-hash flow sharding: the fabric's routing function.

A :class:`HashRing` maps every flow key to exactly one switch. Each
switch owns ``vnodes`` points on a 64-bit ring (virtual nodes smooth the
share each switch receives); a key belongs to the owner of the first
point clockwise from the key's hash. The two properties the fleet
controller depends on:

* **stability** — adding a switch moves only the keys that now land on
  the new switch's points; removing (or reassigning) a switch moves only
  that switch's keys. No other key changes owner. This is what bounds a
  rebalance: the moved-key fraction of an add/remove is the affected
  switch's arc share, which concentrates around ``1/n``.
* **determinism** — ring points are derived with BLAKE2b over the switch
  name and key hashes with a fixed 64-bit mix (splitmix64), so the ring
  is byte-identical across processes and ``PYTHONHASHSEED`` values
  (Python's builtin ``hash`` is never used). A fabric controller and its
  per-switch workers therefore always agree on key placement.

Key lookup is vectorized and mostly a table read: a hash's top 16 bits
name one of 2**16 buckets of the ring, and a bucket no ring point falls
in has one owner, kept in a table (as a Tofino ``ActionSelector`` maps a
flow hash to a member through a table). Only hashes in the few buckets
that hold a point — at most one per virtual node — need a
``searchsorted`` of the ring.

:class:`RebalancePlan` measures the *exact* keyspace fraction whose
owner differs between two rings — by arc measure, not sampling — which
is how the tests assert the ``≤ 1/n + ε`` movement bound and how the
fleet controller bounds skew-driven rebalances.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

__all__ = ["HashRing", "RebalancePlan", "key_hash", "RING_SPACE"]

#: Size of the hash ring (64-bit space).
RING_SPACE = 1 << 64

_U64 = np.uint64
#: Bits of a hash that pick its bucket of the owner table.
_BUCKET_BITS = 16


def key_hash(keys) -> np.ndarray:
    """Hash flow keys onto the ring (vectorized splitmix64 finalizer).

    Accepts a scalar or array; returns ``uint64`` positions. Pure
    integer mixing — no Python ``hash``, no seed dependence.
    """
    x = np.atleast_1d(np.asarray(keys)).astype(np.uint64)
    x = (x + _U64(0x9E3779B97F4A7C15))
    x = (x ^ (x >> _U64(30))) * _U64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> _U64(27))) * _U64(0x94D049BB133111EB)
    return x ^ (x >> _U64(31))


def _point(name: str, replica: int) -> int:
    """Ring position of one virtual node (stable across processes)."""
    digest = hashlib.blake2b(
        f"{name}#{replica}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


@dataclass
class RebalancePlan:
    """Exact ownership diff between two rings (by arc measure).

    ``moved_fraction`` is the fraction of the 64-bit keyspace whose
    owner differs; ``moves`` breaks it down as ``(src, dst) → fraction``.
    Under a uniform key hash these are also the expected moved-key
    fractions.
    """

    moved_fraction: float = 0.0
    moves: dict[tuple[str, str], float] = field(default_factory=dict)

    def sources(self) -> set[str]:
        return {src for src, _dst in self.moves}

    def destinations(self) -> set[str]:
        return {dst for _src, dst in self.moves}

    def to_dict(self) -> dict:
        return {
            "moved_fraction": self.moved_fraction,
            "moves": {f"{s}->{d}": f for (s, d), f in self.moves.items()},
        }


class HashRing:
    """Consistent-hash ring with virtual nodes over switch names."""

    def __init__(self, nodes=(), vnodes: int = 64):
        if vnodes <= 0:
            raise ValueError("vnodes must be positive")
        self.vnodes = vnodes
        #: owner name per virtual-node point (parallel to points); the
        #: point *positions* are fixed by the point's home node name, so
        #: a reassignment relabels owners without moving boundaries.
        self._owner_of_point: dict[int, str] = {}
        self._points = np.empty(0, dtype=np.uint64)
        self._owners: list[str] = []
        self.names: list[str] = []
        for node in nodes:
            self.add(node, _rebuild=False)
        self._rebuild()

    # -- membership -------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.names)

    def __contains__(self, node: str) -> bool:
        return node in self.names

    def add(self, node: str, _rebuild: bool = True) -> None:
        """Add a switch: ``vnodes`` new points, owned by itself."""
        if node in self.names:
            raise ValueError(f"node {node!r} already on the ring")
        self.names.append(node)
        for replica in range(self.vnodes):
            point = _point(node, replica)
            # 64-bit collisions are vanishingly rare; first owner wins
            # deterministically (insertion order is the caller's).
            self._owner_of_point.setdefault(point, node)
        if _rebuild:
            self._rebuild()

    def remove(self, node: str) -> None:
        """Remove a switch; its keys redistribute to the remaining
        owners of the neighboring arcs (only its keys move)."""
        if node not in self.names:
            raise ValueError(f"node {node!r} not on the ring")
        self.names.remove(node)
        self._owner_of_point = {
            p: o for p, o in self._owner_of_point.items() if o != node
        }
        self._rebuild()

    def reassign(self, src: str, dst: str) -> None:
        """Relabel every point ``src`` owns to ``dst`` (live migration).

        The point positions — and therefore every *other* switch's
        keys — are untouched: exactly ``src``'s keys move, all to
        ``dst``. ``dst`` may already be on the ring (absorb) or not
        (standby takeover).
        """
        if src not in self.names:
            raise ValueError(f"node {src!r} not on the ring")
        if dst == src:
            raise ValueError("reassign requires distinct src and dst")
        self._owner_of_point = {
            p: (dst if o == src else o)
            for p, o in self._owner_of_point.items()
        }
        self.names.remove(src)
        if dst not in self.names:
            self.names.append(dst)
        self._rebuild()

    def donate(self, src: str, dst: str, fraction: float,
               max_move_fraction: float | None = None) -> RebalancePlan:
        """Relabel ~``fraction`` of ``src``'s points to ``dst`` (skew
        rebalance). ``src`` keeps at least one point; the moved-key
        fraction — only the donated arcs move — is capped at
        ``max_move_fraction`` by trimming the donated point count.
        Returns the exact :class:`RebalancePlan` of the change.
        """
        if src not in self.names:
            raise ValueError(f"node {src!r} not on the ring")
        if dst not in self.names:
            raise ValueError(f"node {dst!r} not on the ring")
        if src == dst:
            raise ValueError("donate requires distinct src and dst")
        before = self.copy()
        src_points = sorted(
            p for p, o in self._owner_of_point.items() if o == src
        )
        count = max(0, min(int(round(len(src_points) * fraction)),
                           len(src_points) - 1))
        while count > 0:
            for point in src_points[:count]:
                self._owner_of_point[point] = dst
            self._rebuild()
            plan = before.plan_change(self)
            if (max_move_fraction is None
                    or plan.moved_fraction <= max_move_fraction):
                return plan
            # Over budget: undo and retry with fewer donated points.
            for point in src_points[:count]:
                self._owner_of_point[point] = src
            count -= 1
        self._rebuild()
        return RebalancePlan()

    def _rebuild(self) -> None:
        points = np.fromiter(self._owner_of_point, dtype=np.uint64,
                             count=len(self._owner_of_point))
        order = np.argsort(points, kind="stable")
        self._points = points[order]
        sorted_points = [int(p) for p in self._points]
        self._owners = [self._owner_of_point[p] for p in sorted_points]
        self._owner_idx = np.fromiter(
            (self.names.index(o) for o in self._owners),
            dtype=np.int64, count=len(self._owners),
        ) if self._owners else np.empty(0, dtype=np.int64)
        self._table = self._bucket_owners() if self._owners else None

    def _bucket_owners(self) -> np.ndarray:
        """Per bucket (a hash's top :data:`_BUCKET_BITS` bits): the owner
        index of every hash in it, or -1 where a ring point falls inside
        and the owner depends on the rest of the hash."""
        shift = _U64(64 - _BUCKET_BITS)
        starts = np.arange(1 << _BUCKET_BITS, dtype=np.uint64) << shift
        # A bucket without a point: every hash in it has the same first
        # point at or after it, the one at or after the bucket's start.
        table = self._owners_at(starts).astype(
            np.int8 if len(self.names) <= 127 else np.int32)
        table[self._points >> shift] = -1
        return table

    def _owners_at(self, h: np.ndarray) -> np.ndarray:
        """Owner index of each ring position: the first point at or after
        it, wrapping to the first point."""
        slot = np.searchsorted(self._points, h, side="left")
        slot[slot == len(self._points)] = 0
        return self._owner_idx[slot]

    # -- lookup -----------------------------------------------------------------
    def lookup(self, key: int) -> str:
        """Owner of one flow key."""
        return self.names[int(self.lookup_many([key])[0])]

    def lookup_many(self, keys) -> np.ndarray:
        """Owner *indices* (into :attr:`names`) for a key batch."""
        if not self.names:
            raise ValueError("lookup on an empty ring")
        h = key_hash(keys)
        owners = self._table[h >> _U64(64 - _BUCKET_BITS)]
        # Hashes in a bucket a point falls in: first point clockwise
        # at-or-after h, wrapping to the first.
        marked = (owners < 0).nonzero()[0]
        if marked.size:
            owners[marked] = self._owners_at(h[marked])
        return owners

    def split(self, keys) -> tuple[np.ndarray, np.ndarray]:
        """A key batch in owner order — :attr:`names` order, each owner's
        keys in batch order — and the count per owner."""
        keys = np.atleast_1d(np.asarray(keys))
        if len(self.names) == 1:
            # One owner holds every point: the split needs no hashing.
            return keys, np.array([len(keys)])
        owners = self.lookup_many(keys)
        order = owners.argsort(kind="stable")      # a radix sort
        return keys[order], np.bincount(owners, minlength=len(self.names))

    def shard(self, keys) -> dict[str, np.ndarray]:
        """Split a key batch into per-owner sub-batches (order kept; an
        owner with no keys is left out): views of :meth:`split`."""
        ordered, counts = self.split(keys)
        shards, end = {}, 0
        for name, count in zip(self.names, counts.tolist()):
            if count:
                shards[name] = ordered[end:end + count]
                end += count
        return shards

    # -- arc measure ------------------------------------------------------------
    def _arcs(self) -> tuple[np.ndarray, list[str]]:
        """(arc length ending at point i, owner of that arc) pairs.

        The arc *ending* at point ``i`` — from the previous point
        (exclusive) to ``points[i]`` (inclusive) — belongs to
        ``owners[i]``; the first arc wraps around zero.
        """
        points = self._points.astype(np.object_)  # exact python ints
        if len(points) == 0:
            return np.empty(0), []
        prev = np.roll(points, 1)
        lengths = (points - prev) % RING_SPACE
        # A single point owns the whole ring.
        if len(points) == 1:
            lengths[0] = RING_SPACE
        return lengths, self._owners

    def owner_shares(self) -> dict[str, float]:
        """Exact keyspace share per owner (fractions summing to 1)."""
        lengths, owners = self._arcs()
        shares = {name: 0 for name in self.names}
        for length, owner in zip(lengths, owners):
            shares[owner] += int(length)
        return {name: total / RING_SPACE for name, total in shares.items()}

    def plan_change(self, other: "HashRing") -> RebalancePlan:
        """Exact ownership diff from this ring to ``other``.

        Merges both rings' point sets and compares the owner of every
        elementary arc — no sampling, so the returned
        ``moved_fraction`` is the true measure of keys that change
        switch.
        """
        plan = RebalancePlan()
        if not self.names or not other.names:
            return plan
        breakpoints = np.union1d(self._points, other._points)

        def owner_at(ring: "HashRing", pts: np.ndarray) -> list[str]:
            return [ring.names[i] for i in ring._owners_at(pts).tolist()]

        old_owner = owner_at(self, breakpoints)
        new_owner = owner_at(other, breakpoints)
        pts = [int(p) for p in breakpoints]
        moved = 0
        moves: dict[tuple[str, str], int] = {}
        for i, point in enumerate(pts):
            prev = pts[i - 1] if i else pts[-1]
            length = (point - prev) % RING_SPACE or (
                RING_SPACE if len(pts) == 1 else 0
            )
            if old_owner[i] != new_owner[i]:
                moved += length
                pair = (old_owner[i], new_owner[i])
                moves[pair] = moves.get(pair, 0) + length
        plan.moved_fraction = moved / RING_SPACE
        plan.moves = {pair: length / RING_SPACE
                      for pair, length in moves.items()}
        return plan

    def copy(self) -> "HashRing":
        ring = HashRing(vnodes=self.vnodes)
        ring.names = list(self.names)
        ring._owner_of_point = dict(self._owner_of_point)
        ring._rebuild()
        return ring

    def digest(self) -> str:
        """Stable fingerprint of the full ring state (points + owners) —
        equal digests mean identical key placement."""
        h = hashlib.blake2b(digest_size=16)
        for point, owner in zip(self._points, self._owners):
            h.update(int(point).to_bytes(8, "big"))
            h.update(owner.encode())
            h.update(b"\0")
        return h.hexdigest()

    def __repr__(self) -> str:
        return (f"HashRing(nodes={self.names}, vnodes={self.vnodes}, "
                f"points={len(self._points)})")
