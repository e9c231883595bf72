"""Match-action tables.

Each pipeline stage holds tables of match-action rules (§2). The
simulator supports the three classic match kinds:

* ``exact``   — all key fields equal the entry's values;
* ``ternary`` — per-entry value/mask pairs with priorities;
* ``lpm``     — longest-prefix match on a single key field.

Entries are installed by the "control plane" (application harnesses and
tests). A lookup returns the winning entry's action name and action data,
or the table's default.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["TableEntry", "MatchActionTable", "TableError"]


class TableError(Exception):
    """Invalid entry shape, overfull table, or bad match kind."""


@dataclass
class TableEntry:
    """One installed rule.

    ``match`` holds one element per key field:

    * exact: the required value;
    * ternary: ``(value, mask)``;
    * lpm: ``(value, prefix_len)`` — only for the single lpm field.

    ``action`` names the action to run; ``action_data`` are its runtime
    arguments; higher ``priority`` wins among ternary matches.
    """

    match: tuple
    action: str
    action_data: tuple = ()
    priority: int = 0


@dataclass
class _Lookup:
    action: str
    action_data: tuple
    hit: bool


class MatchActionTable:
    """A match-action table with bounded capacity."""

    def __init__(
        self,
        name: str,
        key_fields: list[str],
        match_kinds: list[str],
        size: int = 1024,
        default_action: str | None = None,
    ):
        if len(key_fields) != len(match_kinds):
            raise TableError(f"table {name!r}: keys and match kinds differ in length")
        for kind in match_kinds:
            if kind not in ("exact", "ternary", "lpm"):
                raise TableError(f"table {name!r}: unknown match kind {kind!r}")
        if match_kinds.count("lpm") > 1:
            raise TableError(f"table {name!r}: at most one lpm key field")
        if size <= 0:
            raise TableError(f"table {name!r}: size must be positive")
        self.name = name
        self.key_fields = list(key_fields)
        self.match_kinds = list(match_kinds)
        self.size = size
        self.default_action = default_action
        self._entries: list[TableEntry] = []
        self._exact_index: dict[tuple, TableEntry] | None = (
            {} if all(k == "exact" for k in match_kinds) else None
        )
        #: Bumped on every entry mutation; lets compiled lookup caches
        #: (the vector engine's searchsorted index) invalidate cheaply.
        self.version = 0

    @property
    def entries(self) -> list[TableEntry]:
        return list(self._entries)

    def add_entry(self, entry: TableEntry) -> None:
        """Install a rule; raises :class:`TableError` when full."""
        if len(self._entries) >= self.size:
            raise TableError(f"table {self.name!r} is full ({self.size} entries)")
        if len(entry.match) != len(self.key_fields):
            raise TableError(
                f"table {self.name!r}: entry has {len(entry.match)} match fields, "
                f"expected {len(self.key_fields)}"
            )
        self._entries.append(entry)
        if self._exact_index is not None:
            self._exact_index[tuple(int(v) for v in entry.match)] = entry
        self.version += 1

    def remove_entry(self, match: tuple) -> bool:
        """Remove the first rule whose match equals ``match``; True if found."""
        for i, entry in enumerate(self._entries):
            if entry.match == match:
                del self._entries[i]
                if self._exact_index is not None:
                    self._exact_index.pop(tuple(int(v) for v in match), None)
                self.version += 1
                return True
        return False

    def __len__(self) -> int:
        return len(self._entries)

    # -- lookup ---------------------------------------------------------------
    def lookup(self, key_values: list[int]) -> _Lookup:
        """Match ``key_values`` (one per key field) against the rules."""
        if len(key_values) != len(self.key_fields):
            raise TableError(
                f"table {self.name!r}: lookup with {len(key_values)} values, "
                f"expected {len(self.key_fields)}"
            )
        if self._exact_index is not None:
            entry = self._exact_index.get(tuple(int(v) for v in key_values))
            if entry is not None:
                return _Lookup(entry.action, entry.action_data, hit=True)
            return self._miss()

        best: TableEntry | None = None
        best_rank = (-1, -1)  # (lpm prefix length, priority)
        for entry in self._entries:
            rank = self._entry_matches(entry, key_values)
            if rank is not None and rank > best_rank:
                best, best_rank = entry, rank
        if best is None:
            return self._miss()
        return _Lookup(best.action, best.action_data, hit=True)

    def _entry_matches(self, entry: TableEntry, key_values: list[int]):
        prefix_len = 0
        for kind, pattern, value in zip(self.match_kinds, entry.match, key_values):
            value = int(value)
            if kind == "exact":
                if value != int(pattern):
                    return None
            elif kind == "ternary":
                want, mask = pattern
                if (value & int(mask)) != (int(want) & int(mask)):
                    return None
            else:  # lpm
                want, plen = pattern
                plen = int(plen)
                shift = max(0, 32 - plen)
                if (value >> shift) != (int(want) >> shift):
                    return None
                prefix_len = plen
        return (prefix_len, entry.priority)

    def _miss(self) -> _Lookup:
        return _Lookup(self.default_action or "NoAction", (), hit=False)

    def __repr__(self) -> str:
        return (
            f"MatchActionTable({self.name!r}, keys={self.key_fields}, "
            f"{len(self._entries)}/{self.size} entries)"
        )
