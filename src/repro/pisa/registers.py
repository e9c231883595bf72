"""Stateful register arrays.

Registers are the only cross-packet state in a PISA stage (§2). Each
:class:`RegisterArray` is a vector of fixed-width unsigned cells with
wraparound arithmetic. The supported operations mirror the stateful-ALU
patterns real targets provide (read, write, read-add-write,
min/max-update) — each costs one stateful ALU in the resource model.

Indices are reduced modulo the array size: the compiler sizes hash ranges
to the array, and the hardware equivalent is the hash unit's output width;
the modulo here makes the simulator total rather than trapping.

Switches that run one layout can keep their registers as *banks* of one
:class:`RegisterBanks` set: each family is one ``(k, F)`` block, row
``i`` switch ``i``'s, so one vector batch can serve every switch's lanes
(see :mod:`repro.pisa.vector`).
"""

from __future__ import annotations

import numpy as np

__all__ = ["RegisterArray", "RegisterBanks", "RegisterFile", "RegisterError"]


class RegisterError(Exception):
    """Bad register construction or access."""


class RegisterArray:
    """A vector of ``cells`` unsigned integers, each ``width`` bits wide.

    Its cells are ``block[offset:offset + cells]`` when ``block`` — its
    family's one flat array (see :meth:`RegisterFile.create_family`) —
    is given, else an array of its own.
    """

    def __init__(self, name: str, cells: int, width: int,
                 block: np.ndarray | None = None, offset: int = 0):
        if cells <= 0:
            raise RegisterError(f"register {name!r}: cell count must be positive")
        if not 1 <= width <= 64:
            raise RegisterError(f"register {name!r}: width must be in [1, 64]")
        self.name = name
        self.cells = cells
        self.width = width
        self.mask = (1 << width) - 1
        self.block, self.offset = block, offset
        #: The family whose block this array is a slice of, if any.
        self.family: str | None = None
        self._data = (np.zeros(cells, dtype=np.uint64) if block is None
                      else block[offset:offset + cells])

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


class RegisterBanks:
    """The registers of ``k`` switches that run one layout.

    Each register family is one zeroed ``(k, F)`` ``uint64`` block; row
    ``i`` is bank ``i``'s family block, from which switch ``i``'s
    :class:`RegisterFile` slices its arrays. Everything per switch works
    on those row views unchanged. A vector plan built over a ``k > 1``
    set reads and writes the whole block, each lane in its own bank's
    row, so one batch serves every switch's lanes. A lone pipeline is a
    one-bank set.
    """

    def __init__(self, k: int = 1):
        if k < 1:
            raise RegisterError(f"a bank set needs at least one bank, not {k}")
        self.k = k
        #: Family -> its ``(k, F)`` block.
        self.blocks: dict[str, np.ndarray] = {}
        #: The pipeline each bank belongs to, once built.
        self.members: list = [None] * k

    def block(self, family: str, cells: int) -> np.ndarray:
        """The ``(k, cells)`` block of ``family``, zeroed on first use;
        every bank's layout must give the family the same cell count."""
        block = self.blocks.get(family)
        if block is None:
            block = self.blocks[family] = np.zeros((self.k, cells),
                                                   dtype=np.uint64)
        elif block.shape[1] != cells:
            raise RegisterError(
                f"family {family!r} has {block.shape[1]} cells per bank, "
                f"not {cells}: the banks do not share one layout")
        return block

    def join(self, bank: int, member) -> None:
        """Record ``member`` as bank ``bank``'s pipeline (once)."""
        if not 0 <= bank < self.k:
            raise RegisterError(f"bank {bank} outside a {self.k}-bank set")
        if self.members[bank] is not None:
            raise RegisterError(f"bank {bank} already has a pipeline")
        self.members[bank] = member


class RegisterFile:
    """All register arrays of a pipeline, keyed by instance name.

    Instance names are concrete (post-layout): an elastic declaration
    ``register<bit<32>>[cols][rows] cms`` with rows = 2 yields instances
    ``cms[0]`` and ``cms[1]``.
    """

    def __init__(self):
        self._arrays: dict[str, RegisterArray] = {}
        self._stage_of: dict[str, int] = {}
        self._blocks: dict[str, np.ndarray] = {}

    def create(self, name: str, cells: int, width: int, stage: int,
               block: np.ndarray | None = None,
               offset: int = 0) -> RegisterArray:
        if name in self._arrays:
            raise RegisterError(f"register instance {name!r} created twice")
        array = RegisterArray(name, cells, width, block, offset)
        self._arrays[name] = array
        self._stage_of[name] = stage
        return array

    def create_family(self, family: str,
                      rows: list[tuple[int, int, int, int]],
                      block: np.ndarray | None = None) -> np.ndarray:
        """Instances ``family[i]``, one per ``(i, cells, width, stage)``
        of ``rows``, as consecutive slices, in index order, of one flat
        array: the family's block, so a kernel over several rows gathers
        and scatters once. ``block`` is the caller's zeroed array of the
        rows' total cell count (a bank's row, see :class:`RegisterBanks`);
        by default the family gets one of its own. Returns the block."""
        rows = sorted(rows)
        cells = sum(row[1] for row in rows)
        if block is None:
            block = np.zeros(cells, dtype=np.uint64)
        elif block.shape != (cells,):
            raise RegisterError(f"family {family!r}: block of shape "
                                f"{block.shape} for {cells} cells")
        offset = 0
        for index, cells, width, stage in rows:
            array = self.create(f"{family}[{index}]", cells, width, stage,
                                block=block, offset=offset)
            array.family = family
            offset += cells
        self._blocks[family] = block
        return block

    def block(self, family: str) -> np.ndarray | None:
        """The :meth:`create_family` block of ``family``, if it has one."""
        return self._blocks.get(family)

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
