"""Consistent-hash sharding invariants.

The fleet controller's correctness rests on three properties, all
asserted here: key→switch stability under membership change (only the
affected node's keys move), the moved-fraction bound (a node's share —
hence a removal's movement — concentrates around ``1/n``), and ring
determinism independent of ``PYTHONHASHSEED``.
"""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fabric import RING_SPACE, HashRing, key_hash

# Node-count / vnode / salt strategy shared by the membership properties.
RING_SHAPES = {
    "n": st.integers(min_value=2, max_value=8),
    "vnodes": st.sampled_from([64, 128]),
    "salt": st.text(alphabet="abcdef", min_size=0, max_size=4),
}


def ring_of(n: int, vnodes: int, salt: str) -> HashRing:
    return HashRing([f"{salt}sw{i}" for i in range(n)], vnodes=vnodes)


def sample_keys(count: int = 4000, seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, 1 << 40, size=count)


class TestLookup:
    def test_lookup_matches_lookup_many(self):
        ring = ring_of(4, 64, "")
        keys = sample_keys(100)
        owners = [ring.names[i] for i in ring.lookup_many(keys)]
        assert owners == [ring.lookup(int(k)) for k in keys]

    def test_shard_partitions_batch(self):
        ring = ring_of(5, 64, "")
        keys = sample_keys()
        shards = ring.shard(keys)
        assert sum(len(s) for s in shards.values()) == len(keys)
        assert set(shards) <= set(ring.names)
        rebuilt = np.sort(np.concatenate(list(shards.values())))
        assert np.array_equal(rebuilt, np.sort(keys))

    @pytest.mark.parametrize("count", [0, 1, 500])
    def test_one_member_shard_equals_hashed_split(self, count):
        # A one-switch ring splits without hashing; the result must be
        # the hashed split, keys in the same order.
        keys = sample_keys(count)
        merged = ring_of(2, 64, "")
        merged.reassign("sw0", "sw1")
        for ring in (ring_of(1, 64, ""), merged):
            idx = ring.lookup_many(keys)
            hashed = {ring.names[i]: keys[idx == i] for i in np.unique(idx)}
            shards = ring.shard(keys)
            assert list(shards) == list(hashed)
            for name, part in hashed.items():
                assert np.array_equal(shards[name], part)

    def test_empty_ring_rejected(self):
        with pytest.raises(ValueError, match="empty ring"):
            HashRing().lookup(1)

    def test_key_hash_is_fixed(self):
        # Pinned value: the ring function must never drift between
        # versions, or a deployed fleet's placement would churn.
        assert int(key_hash(123)[0]) == 13032462758197477675
        assert int(key_hash(0)[0]) == 16294208416658607535



_M64 = (1 << 64) - 1


def _unhash(h: int) -> int:
    """The key :func:`key_hash` maps onto ring position ``h`` (splitmix64's
    finalizer is a bijection: undo each xorshift and multiply)."""
    def unshift(y: int, s: int) -> int:
        x = y
        for _ in range(64 // s + 1):
            x = y ^ (x >> s)
        return x

    x = unshift(h, 31)
    x = unshift((x * pow(0x94D049BB133111EB, -1, 1 << 64)) & _M64, 27)
    x = unshift((x * pow(0xBF58476D1CE4E5B9, -1, 1 << 64)) & _M64, 30)
    return (x - 0x9E3779B97F4A7C15) & _M64


class TestOwnerTable:
    """The bucket table answers what ``searchsorted`` of the ring would,
    above all where a hash sits on a ring point or next to one."""

    @staticmethod
    def edge_keys(ring: HashRing) -> np.ndarray:
        """Keys hashing onto every ring point, one either side of it, 0,
        2**64 - 1 and both ends of every bucket a point falls in."""
        shift = 64 - 16
        positions = {0, _M64}
        for point in ring._points.tolist():
            positions |= {(point - 1) & _M64, point, (point + 1) & _M64}
            bucket = point >> shift
            positions |= {bucket << shift, ((bucket + 1) << shift) - 1}
        keys = np.array([_unhash(h) for h in sorted(positions)],
                        dtype=np.uint64)
        assert sorted(key_hash(keys).tolist()) == sorted(positions)
        return keys

    @staticmethod
    def searched(ring: HashRing, keys) -> np.ndarray:
        """Owner indexes by ``searchsorted`` of the ring: the first point
        at or after the key's hash, wrapping to the first."""
        slot = np.searchsorted(ring._points, key_hash(keys), side="left")
        slot[slot == len(ring._points)] = 0
        return ring._owner_idx[slot]

    def check(self, ring: HashRing) -> None:
        keys = np.concatenate([self.edge_keys(ring),
                               sample_keys(20_000).astype(np.uint64)])
        assert np.array_equal(ring.lookup_many(keys),
                              self.searched(ring, keys))
        ordered, counts = ring.split(keys)
        shards = ring.shard(keys)
        assert list(shards) == [name for name, count
                                in zip(ring.names, counts) if count]
        assert np.array_equal(ordered, np.concatenate(list(shards.values())))
        for name, part in shards.items():
            owner = ring.names.index(name)
            assert np.array_equal(part, keys[ring.lookup_many(keys) == owner])

    def test_edges_after_every_membership_change(self):
        ring = ring_of(4, 64, "")
        self.check(ring)
        ring.reassign("sw1", "standby")
        self.check(ring)
        ring.donate("sw2", "sw0", 0.3)
        self.check(ring)
        ring.remove("sw3")
        self.check(ring)
        ring.add("late")
        self.check(ring)

    def test_one_owner_splits_without_hashing(self):
        ring = ring_of(1, 64, "")
        keys = sample_keys(100)
        ordered, counts = ring.split(keys)
        assert np.array_equal(ordered, keys)
        assert counts.tolist() == [100]


class TestStability:
    @given(**RING_SHAPES)
    @settings(max_examples=25, deadline=None)
    def test_add_moves_only_to_new_node(self, n, vnodes, salt):
        ring = ring_of(n, vnodes, salt)
        keys = sample_keys(2000)
        before = ring.lookup_many(keys)
        before_names = [ring.names[i] for i in before]
        ring.add("newcomer")
        after_names = [ring.names[i] for i in ring.lookup_many(keys)]
        for old, new in zip(before_names, after_names):
            if old != new:
                assert new == "newcomer"

    @given(**RING_SHAPES)
    @settings(max_examples=25, deadline=None)
    def test_remove_moves_only_from_removed(self, n, vnodes, salt):
        ring = ring_of(n, vnodes, salt)
        victim = ring.names[n // 2]
        keys = sample_keys(2000)
        before_names = [ring.names[i] for i in ring.lookup_many(keys)]
        ring.remove(victim)
        after_names = [ring.names[i] for i in ring.lookup_many(keys)]
        for old, new in zip(before_names, after_names):
            if old != new:
                assert old == victim

    def test_reassign_moves_exactly_src_share(self):
        ring = ring_of(4, 64, "")
        src = ring.names[1]
        share = ring.owner_shares()[src]
        before = ring.copy()
        ring.reassign(src, "standby")
        plan = before.plan_change(ring)
        assert plan.sources() == {src}
        assert plan.destinations() == {"standby"}
        assert plan.moved_fraction == pytest.approx(share, abs=1e-15)
        # Every key src owned now belongs to the standby; nobody else's
        # placement changed.
        keys = sample_keys(2000)
        before_names = [before.names[i] for i in before.lookup_many(keys)]
        after_names = [ring.names[i] for i in ring.lookup_many(keys)]
        for old, new in zip(before_names, after_names):
            assert new == ("standby" if old == src else old)


class TestMovedFractionBound:
    @given(**RING_SHAPES)
    @settings(max_examples=25, deadline=None)
    def test_removal_bounded_by_fair_share(self, n, vnodes, salt):
        """Removing one of n switches moves ≤ 1/n + ε of the keyspace.

        The moved fraction equals the victim's arc share exactly; with
        ``vnodes`` virtual nodes the share concentrates around 1/n with
        std ≈ sqrt(2/vnodes)/n, so ε is a generous multiple of that.
        """
        ring = ring_of(n, vnodes, salt)
        epsilon = 4.0 * np.sqrt(2.0 / vnodes) / np.sqrt(n)
        for victim in ring.names:
            before = ring.copy()
            trimmed = ring.copy()
            trimmed.remove(victim)
            plan = before.plan_change(trimmed)
            share = before.owner_shares()[victim]
            assert plan.moved_fraction == pytest.approx(share, abs=1e-12)
            assert plan.moved_fraction <= 1.0 / n + epsilon

    def test_shares_sum_to_one(self):
        for n in (1, 2, 5, 9):
            shares = ring_of(n, 64, "x").owner_shares()
            assert sum(shares.values()) == pytest.approx(1.0, abs=1e-12)
            assert all(s > 0 for s in shares.values())

    def test_plan_measure_matches_empirical_movement(self):
        ring = ring_of(6, 64, "")
        after = ring.copy()
        after.remove(ring.names[0])
        plan = ring.plan_change(after)
        keys = sample_keys(40000, seed=3)
        before_names = [ring.names[i] for i in ring.lookup_many(keys)]
        after_names = [after.names[i] for i in after.lookup_many(keys)]
        moved = sum(o != a for o, a in zip(before_names, after_names))
        empirical = moved / len(keys)
        sigma = np.sqrt(plan.moved_fraction * (1 - plan.moved_fraction)
                        / len(keys))
        assert abs(empirical - plan.moved_fraction) <= 5 * sigma + 1e-9

    def test_donate_respects_move_budget(self):
        ring = ring_of(4, 64, "")
        src, dst = ring.names[0], ring.names[1]
        plan = ring.donate(src, dst, fraction=0.9,
                           max_move_fraction=0.05)
        assert plan.moved_fraction <= 0.05
        if plan.moves:
            assert plan.sources() == {src}
            assert plan.destinations() == {dst}

    def test_donate_keeps_src_on_ring(self):
        ring = ring_of(3, 64, "")
        src, dst = ring.names[0], ring.names[1]
        ring.donate(src, dst, fraction=1.0)
        assert src in ring
        assert ring.owner_shares()[src] > 0


class TestDeterminism:
    def test_digest_ignores_construction_order_of_keys(self):
        a = ring_of(5, 64, "q")
        b = ring_of(5, 64, "q")
        assert a.digest() == b.digest()
        assert a.digest() != ring_of(5, 64, "r").digest()

    def test_copy_preserves_placement(self):
        ring = ring_of(4, 64, "")
        clone = ring.copy()
        keys = sample_keys(500)
        assert np.array_equal(ring.lookup_many(keys),
                              clone.lookup_many(keys))
        assert ring.digest() == clone.digest()

    def test_ring_independent_of_pythonhashseed(self):
        """The ring never consults Python's randomized ``hash``: two
        interpreters with different PYTHONHASHSEED values must agree on
        every vnode point and every key placement."""
        probe = (
            "from repro.fabric import HashRing, key_hash\n"
            "r = HashRing(['sw%d' % i for i in range(5)], vnodes=64)\n"
            "keys = list(range(0, 5000, 37))\n"
            "owners = [r.lookup(k) for k in keys]\n"
            "print(r.digest(), ','.join(owners))\n"
        )
        root = pathlib.Path(__file__).resolve().parents[2]
        outputs = set()
        for seed in ("0", "1", "31337"):
            env = dict(os.environ)
            env["PYTHONHASHSEED"] = seed
            env["PYTHONPATH"] = str(root / "src")
            result = subprocess.run(
                [sys.executable, "-c", probe],
                capture_output=True, text=True, check=True, env=env,
            )
            outputs.add(result.stdout)
        assert len(outputs) == 1
