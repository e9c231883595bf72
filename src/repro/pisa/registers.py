"""Stateful register arrays.

Registers are the only cross-packet state in a PISA stage (§2). Each
:class:`RegisterArray` is a vector of fixed-width unsigned cells with
wraparound arithmetic. The supported operations mirror the stateful-ALU
patterns real targets provide (read, write, read-add-write,
min/max-update) — each costs one stateful ALU in the resource model.

Indices are reduced modulo the array size: the compiler sizes hash ranges
to the array, and the hardware equivalent is the hash unit's output width;
the modulo here makes the simulator total rather than trapping.
"""

from __future__ import annotations

import numpy as np

__all__ = ["RegisterArray", "RegisterFile", "RegisterError"]


class RegisterError(Exception):
    """Bad register construction or access."""


class RegisterArray:
    """A vector of ``cells`` unsigned integers, each ``width`` bits wide."""

    def __init__(self, name: str, cells: int, width: int):
        if cells <= 0:
            raise RegisterError(f"register {name!r}: cell count must be positive")
        if not 1 <= width <= 64:
            raise RegisterError(f"register {name!r}: width must be in [1, 64]")
        self.name = name
        self.cells = cells
        self.width = width
        self.mask = (1 << width) - 1
        self._data = np.zeros(cells, dtype=np.uint64)

    @property
    def size_bits(self) -> int:
        """Memory footprint in bits (what counts against the stage's M)."""
        return self.cells * self.width

    def _index(self, idx: int) -> int:
        return int(idx) % self.cells

    # -- stateful operations -------------------------------------------------
    def read(self, idx: int) -> int:
        return int(self._data[self._index(idx)])

    def write(self, idx: int, value: int) -> None:
        self._data[self._index(idx)] = np.uint64(int(value) & self.mask)

    def add(self, idx: int, amount: int = 1) -> int:
        """Read-add-write; returns the post-increment value."""
        i = self._index(idx)
        new = (int(self._data[i]) + int(amount)) & self.mask
        self._data[i] = np.uint64(new)
        return new

    def max_update(self, idx: int, value: int) -> int:
        """Keep the maximum of the cell and ``value``; returns the result."""
        i = self._index(idx)
        new = max(int(self._data[i]), int(value) & self.mask)
        self._data[i] = np.uint64(new)
        return new

    def min_update(self, idx: int, value: int) -> int:
        """Keep the minimum of the cell and ``value``; returns the result."""
        i = self._index(idx)
        new = min(int(self._data[i]), int(value) & self.mask)
        self._data[i] = np.uint64(new)
        return new

    def swap(self, idx: int, value: int) -> int:
        """Write ``value``, returning the previous cell contents."""
        i = self._index(idx)
        old = int(self._data[i])
        self._data[i] = np.uint64(int(value) & self.mask)
        return old

    def cond_add(self, idx: int, condition: bool, amount: int = 1) -> int:
        """Predicated increment (stateful-ALU conditional update)."""
        if condition:
            return self.add(idx, amount)
        return self.read(idx)

    # -- bulk helpers (control plane / tests) ----------------------------------
    def clear(self) -> None:
        self._data.fill(0)

    def dump(self) -> np.ndarray:
        """Copy of the raw cell values."""
        return self._data.copy()

    def read_cells(self, idx) -> np.ndarray:
        """:meth:`read` of every index in an array (control-plane gather)."""
        return self._data[np.asarray(idx, dtype=np.int64) % self.cells]

    def nonzero_cells(self) -> int:
        """Occupied (non-zero) cells — the runtime monitor's occupancy signal."""
        return int(np.count_nonzero(self._data))

    @property
    def occupancy(self) -> float:
        """Fraction of cells holding a non-zero value."""
        return self.nonzero_cells() / self.cells

    def merge_delta(self, idx, delta) -> None:
        """Fold per-cell deltas into the array: ``cell += delta`` mod
        2**64, re-masked. ``idx``/``delta`` are parallel arrays. This is
        the join step for additively-used registers under sharded
        execution: because counter addition commutes, summing each
        worker's wrapped delta reproduces the sequential state exactly.
        """
        idx = np.asarray(idx, dtype=np.int64)
        delta = np.asarray(delta, dtype=np.uint64)
        self._data[idx] = (self._data[idx] + delta) & np.uint64(self.mask)

    def merge_extremum(self, idx, values, kind: str) -> None:
        """Merge ``values`` into cells via ``max``/``min`` — the exact
        join for registers touched only by ``max_update``/``min_update``.
        """
        idx = np.asarray(idx, dtype=np.int64)
        values = np.asarray(values, dtype=np.uint64)
        op = np.maximum if kind == "max" else np.minimum
        self._data[idx] = op(self._data[idx], values)

    def overwrite_cells(self, idx, values) -> None:
        """Replace the named cells wholesale (last-writer-wins join)."""
        idx = np.asarray(idx, dtype=np.int64)
        values = np.asarray(values, dtype=np.uint64)
        self._data[idx] = values & np.uint64(self.mask)

    def load(self, values) -> None:
        arr = np.asarray(values, dtype=np.uint64)
        if arr.shape != (self.cells,):
            raise RegisterError(
                f"register {self.name!r}: load shape {arr.shape} != ({self.cells},)"
            )
        # In place, never a reassignment: compiled execution plans bind
        # this buffer directly, and a control-plane load (state
        # migration) must stay visible to them.
        self._data[:] = arr & np.uint64(self.mask)

    def __repr__(self) -> str:
        return f"RegisterArray({self.name!r}, cells={self.cells}, width={self.width})"


class RegisterFile:
    """All register arrays of a pipeline, keyed by instance name.

    Instance names are concrete (post-layout): an elastic declaration
    ``register<bit<32>>[cols][rows] cms`` with rows = 2 yields instances
    ``cms[0]`` and ``cms[1]``.
    """

    def __init__(self):
        self._arrays: dict[str, RegisterArray] = {}
        self._stage_of: dict[str, int] = {}

    def create(self, name: str, cells: int, width: int, stage: int) -> RegisterArray:
        if name in self._arrays:
            raise RegisterError(f"register instance {name!r} created twice")
        array = RegisterArray(name, cells, width)
        self._arrays[name] = array
        self._stage_of[name] = stage
        return array

    def get(self, name: str) -> RegisterArray:
        try:
            return self._arrays[name]
        except KeyError:
            raise RegisterError(f"no register instance named {name!r}") from None

    def stage_of(self, name: str) -> int:
        return self._stage_of[name]

    def in_stage(self, stage: int) -> list[RegisterArray]:
        return [self._arrays[n] for n, s in self._stage_of.items() if s == stage]

    def names(self) -> list[str]:
        return list(self._arrays)

    def clear_all(self) -> None:
        for array in self._arrays.values():
            array.clear()

    def memory_bits_in_stage(self, stage: int) -> int:
        return sum(a.size_bits for a in self.in_stage(stage))

    # -- state migration hooks (elastic runtime) -------------------------------
    def export_state(self) -> dict[str, np.ndarray]:
        """Snapshot every array's contents, keyed by instance name.

        The elastic runtime's state migrator exports the old layout's
        registers before a hot swap; the snapshot is also the rollback
        image if the swapped layout fails validation.
        """
        return {name: array.dump() for name, array in self._arrays.items()}

    def import_state(self, state: dict[str, np.ndarray],
                     strict: bool = False) -> list[str]:
        """Load a prior :meth:`export_state` snapshot into matching arrays.

        Arrays absent from the snapshot keep their contents; snapshot
        entries with no same-shaped array here are skipped (the new
        layout may have fewer rows or different sizes — cross-geometry
        remapping is the migrator's job, not this hook's). Returns the
        names actually loaded. With ``strict=True``, any skip raises.
        """
        loaded: list[str] = []
        for name, values in state.items():
            array = self._arrays.get(name)
            if array is None or array.cells != len(values):
                if strict:
                    raise RegisterError(
                        f"import_state: no matching array for {name!r} "
                        f"({len(values)} cells)"
                    )
                continue
            array.load(values)
            loaded.append(name)
        return loaded

    def __contains__(self, name: str) -> bool:
        return name in self._arrays

    def __len__(self) -> int:
        return len(self._arrays)
