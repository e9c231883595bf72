"""Columnar (struct-of-arrays) batch execution: the ``vector`` engine.

The compiled engine (:mod:`repro.pisa.compiled`) removed per-packet AST
walking but still pushes one packet at a time through Python frames. A
PISA stage is data-parallel by construction — the same stage program
applies independently to every packet — so this module lowers each
placed unit *once more*, from its AST into whole-batch numpy kernels:

* the PHV becomes a struct-of-arrays batch (:class:`PhvBatch`): one
  ``int64`` column per field plus a presence mask, values always stored
  post-width-mask (64-bit fields as their two's-complement bit pattern);
* expressions evaluate on ``int64`` columns under a static *value kind*
  per subexpression — ``Range(lo, hi)`` (the column is the value),
  ``U64`` (a value in ``[0, 2**64)`` held as its bit pattern) or
  ``Mod64`` (only the residue mod ``2**64`` is known; see
  :func:`_kind`). Each operator is lowered only for the kinds on which
  the column arithmetic is exact; anything else — and any construct the
  lowering cannot prove total — demotes the whole stage to a *scalar
  island*;
* ``hash(seed, ...)`` vectorizes through
  :meth:`~repro.pisa.hashing.MultiplyShiftHash.vector_multi` (uint64
  wraparound, bit-identical to the scalar finalizer);
* register operations become gather/scatter kernels that reproduce the
  *sequential* per-packet semantics exactly, including same-key
  collisions inside one batch: ``add``/``cond_add`` use ``np.add.at``
  (commutative mod :math:`2^{64}`), ``add_read`` a segmented prefix sum
  over index-sorted lanes, ``swap`` a group-chained shift, ``write``
  last-writer-wins dedup, ``max/min_update`` ``np.maximum.at`` — all on
  the cells' own ``uint64`` storage, so 64-bit cells need no special
  case;
* single-exact-key table applies use a sorted-key ``searchsorted``
  cache (invalidated by :attr:`MatchActionTable.version`); entries
  whose actions cannot be vectorized trigger a per-batch
  :class:`_VectorBail` — the stage re-runs as a scalar island.

Mixed-mode execution: vector stages feed scalar islands and resume.
Islands materialize per-packet dicts, run the stage's generated scalar
code (:attr:`~repro.pisa.plan.StagePlan.run`), and scatter the dicts
back into columns — bit-for-bit the scalar semantics, paid only for
stages the static analysis rejects (intra-batch same-register hazards
across steps, dynamic keys, unsupported constructs, ``/ %`` or a table
key on a 64-bit value).

Safety of stage-at-a-time reordering rests on the pipeline invariant
that a register lives in (and is only touched from) exactly one stage;
:class:`VectorPlan` re-checks it and refuses to vectorize otherwise.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from ..lang import ast
from .compiled import _REG_METHODS, _NotStatic, _fold
from .hashing import MultiplyShiftHash
from .interp import SimulationError
from .registers import RegisterArray
from .results import BatchResults, column_rows

__all__ = ["VectorPlan", "PhvBatch"]

_MASK64 = (1 << 64) - 1
#: int64 domain, excluding INT64_MIN for negation/abs headroom.
_I64_MAX = (1 << 63) - 1
_I64_MIN = -_I64_MAX
#: Action-data values assumed in range by the static analysis; entries
#: carrying anything else flip the per-batch scalar bail instead.
_ACTION_DATA_MAX = (1 << 31) - 1
_HASH_WIDTH = 1 << 32
_ZERO = np.int64(0)
_ADDITIVE_METHODS = frozenset({"add", "add_read", "cond_add", "cond_add_read"})
_COMPARES = {"==": np.equal, "!=": np.not_equal, "<": np.less,
             ">": np.greater, "<=": np.less_equal, ">=": np.greater_equal}


class _NotVectorizable(Exception):
    """Static: this stage needs the scalar engine (becomes an island)."""


class _VectorBail(Exception):
    """Runtime: discard this stage's buffered work, re-run it scalar.

    Only raised before any register mutation of the stage (statically
    guaranteed: stages with table applies carry no register-mutating
    steps), so the island re-run sees untouched state.
    """


def _as_array(value, n: int) -> np.ndarray:
    """Broadcast a scalar kernel result to a full batch column."""
    if np.ndim(value) == 0:
        return np.full(n, value, dtype=np.int64)
    return value


def _pattern(value: int) -> np.int64:
    """``value mod 2**64`` as the int64 holding that bit pattern."""
    return np.uint64(value & _MASK64).view(np.int64)


def _u64(value) -> np.ndarray:
    """Reinterpret an int64 kernel result as the unsigned value it encodes."""
    return np.asarray(value).view(np.uint64)


# -- value kinds ----------------------------------------------------------------
#
# What the lowerer statically knows about a subexpression's true
# (unbounded Python int) value v, and so what its int64 column means:
#
# * ``(lo, hi)`` — Range: lo <= v <= hi inside int64; the column is v.
# * ``_U64``    — 0 <= v < 2**64; the column is v's bit pattern, and its
#   ``uint64`` view is v.
# * ``_MOD64``  — v is unbounded; the column is v mod 2**64.
#
# A non-negative Range is also a valid U64 and any Range or U64 a valid
# Mod64 (two's complement), so kinds only ever widen: Range ⊂ U64 ⊂ Mod64.

_U64 = "u64"
_MOD64 = "mod64"


def _kind(lo: int, hi: int):
    """The tightest kind covering every value in ``[lo, hi]``."""
    if _I64_MIN <= lo and hi <= _I64_MAX:
        return (lo, hi)
    if lo >= 0 and hi <= _MASK64:
        return _U64
    return _MOD64


def _bounds(kind, what: str) -> tuple[int, int]:
    """``(lo, hi)`` of a Range or U64 operand of ``what``. A Mod64
    column does not determine its value, so ``what`` cannot read it."""
    if kind is _MOD64:
        raise _NotVectorizable(f"{what} on a value known only mod 2**64")
    return (0, _MASK64) if kind is _U64 else kind


def _static(kind) -> Optional[int]:
    """The value of a Range that pins it to one, else None."""
    if isinstance(kind, tuple) and kind[0] == kind[1]:
        return kind[0]
    return None


def _join(a, b):
    """Kind of a value that is an ``a`` on some lanes and a ``b`` on others."""
    if a is _MOD64 or b is _MOD64:
        return _MOD64
    (alo, ahi), (blo, bhi) = _bounds(a, "join"), _bounds(b, "join")
    return _kind(min(alo, blo), max(ahi, bhi))


def _unsigned(kinds, what: str) -> bool:
    """How ``what`` must compare operands of these kinds: False — all
    Ranges, compare the int64 columns; True — some are U64 and none can
    be negative, compare the ``uint64`` views. Any other mix has no
    column order that matches the value order."""
    if all(isinstance(k, tuple) for k in kinds):
        return False
    if any(_bounds(k, what)[0] < 0 for k in kinds):
        raise _NotVectorizable(
            f"{what} mixes a 64-bit value with a possibly negative one")
    return True


def _truth(fn, kind, what: str) -> Callable:
    """Lower ``value != 0`` (a zero Mod64 column may hide ``2**64``)."""
    _bounds(kind, what)
    return lambda cx: np.asarray(fn(cx)) != 0


def _bit_kind(op: str, a, b):
    """Kind of ``a op b`` for ``&``/``|``/``^``. Column bit operations
    are exact mod 2**64 for every operand kind, so only the bound on
    the result matters."""
    if a is _MOD64 or b is _MOD64:
        return _MOD64
    (alo, ahi), (blo, bhi) = _bounds(a, op), _bounds(b, op)
    if alo >= 0 and blo >= 0:
        if op == "&":
            return _kind(0, min(ahi, bhi))
        return _kind(0, (1 << max(ahi, bhi).bit_length()) - 1)
    bound = (1 << max(abs(alo), abs(ahi), abs(blo), abs(bhi)).bit_length()) - 1
    return _kind(-bound - 1, bound)


class PhvBatch:
    """Struct-of-arrays PHV: one int64 column per field, post-mask values.

    ``present`` tracks which lanes carry the field at all (scalar engines
    materialize per-packet dicts containing only loaded + committed
    keys, and the differential suite compares those dicts exactly).
    Columns hold 0 in non-present lanes, so reads never consult the
    presence mask — ``phv.get(key, 0)`` is just the column.
    """

    __slots__ = ("cols", "present", "n", "_all_true")

    def __init__(self, cols: dict, present: dict, n: int):
        self.cols = cols
        self.present = present
        self.n = n
        self._all_true: Optional[np.ndarray] = None

    def all_true(self) -> np.ndarray:
        if self._all_true is None:
            self._all_true = np.ones(self.n, dtype=bool)
        return self._all_true


class _Cx:
    """Per-batch evaluation context one unit sees."""

    __slots__ = ("cols", "local", "wmask", "args", "n", "hits")

    def __init__(self, cols, n, hits):
        self.cols = cols
        self.local: dict[str, np.ndarray] = {}
        #: key -> lanes a table action actually wrote. Absent for
        #: unit-level writes, which cover every guarded lane; present
        #: for action writes, which cover only the selecting lanes —
        #: the stage commit must not mark miss lanes as carrying the
        #: field (scalar engines leave them unallocated).
        self.wmask: dict[str, np.ndarray] = {}
        self.args: tuple = ()
        self.n = n
        self.hits = hits


def _merge_hits(buf: dict, name: str, hit: np.ndarray,
                ran: Optional[np.ndarray], n: int) -> None:
    """Overwrite ``buf[name]`` under the ``ran`` lanes (None = all)."""
    prev = buf.get(name)
    if prev is None:
        h = np.zeros(n, dtype=bool)
        r = np.zeros(n, dtype=bool)
        buf[name] = (h, r)
    else:
        h, r = prev
    if ran is None:
        h[:] = hit
        r[:] = True
    else:
        h[ran] = hit[ran]
        r |= ran


# ---------------------------------------------------------------------------
# Register kernels — sequential semantics over whole-batch arrays
# ---------------------------------------------------------------------------


def _lane_select(arr: np.ndarray, g: Optional[np.ndarray]) -> np.ndarray:
    return arr if g is None else arr[g]


def _dest_merge(cx: _Cx, key: str, values: np.ndarray,
                g: Optional[np.ndarray]) -> None:
    """Write a register result into the unit-local buffer under ``g``.

    Always produces a fresh array: local entries may alias committed
    columns (identity assigns), which in-place merges must not corrupt.
    """
    if g is None:
        cx.local[key] = values.copy() if values.base is not None else values
        return
    base = cx.local.get(key)
    if base is None:
        base = cx.cols.get(key)
    out = base.copy() if base is not None else np.zeros(cx.n, dtype=np.int64)
    out[g] = values[g]
    cx.local[key] = out


def _segmented_groups(ii: np.ndarray):
    """Stable index-sort + group structure for collision-exact kernels."""
    order = np.argsort(ii, kind="stable")
    si = ii[order]
    k = si.size
    boundary = np.empty(k, dtype=bool)
    boundary[0] = True
    np.not_equal(si[1:], si[:-1], out=boundary[1:])
    starts = np.nonzero(boundary)[0]
    gidx = np.cumsum(boundary) - 1
    ends = np.empty(starts.size, dtype=np.int64)
    ends[:-1] = starts[1:] - 1
    ends[-1] = k - 1
    return order, si, boundary, starts, ends, gidx


class _RegKernels:
    """Builds step closures ``step(cx, g)`` for one bound RegisterArray."""

    def __init__(self, array: RegisterArray):
        self.array = array
        self.data = array._data
        self.cells = array.cells
        # Values arrive as int64 columns of any kind and are stored mod
        # 2**width: masking the bit pattern is exact because the width
        # is at most 64, and for 64-bit cells the mask is the identity.
        self.mask = _pattern(array.mask)
        self.mask_u = np.uint64(array.mask)

    def _indices(self, cx, g, idx_fn) -> np.ndarray:
        idx = _as_array(idx_fn(cx), cx.n) % self.cells
        return _lane_select(idx, g)

    def read(self, dest: str, idx_fn) -> Callable:
        data, cells = self.data, self.cells

        def step(cx, g):
            idx = _as_array(idx_fn(cx), cx.n) % cells
            _dest_merge(cx, dest, data[idx].astype(np.int64), g)

        return step

    def write(self, idx_fn, val_fn) -> Callable:
        data, mask = self.data, self.mask

        def step(cx, g):
            ii = self._indices(cx, g, idx_fn)
            if not ii.size:
                return
            vv = _lane_select(_as_array(val_fn(cx), cx.n) & mask, g)
            # Last writer wins; duplicate fancy-index assignment order is
            # unspecified, so dedupe explicitly via the reversed lanes.
            uniq, first_in_rev = np.unique(ii[::-1], return_index=True)
            last = ii.size - 1 - first_in_rev
            data[uniq] = vv[last].astype(np.uint64)

        return step

    def add(self, idx_fn, amt_fn, cond_fn=None) -> Callable:
        """``add``/``cond_add`` without a destination: pure scatter-add.

        Per-packet masking commutes with summation because the cell
        width divides 2**64, so one wraparound ``np.add.at`` plus a
        final mask of the touched cells is bit-exact.
        """
        data, mask_u = self.data, self.mask_u

        def step(cx, g):
            ii = self._indices(cx, g, idx_fn)
            if not ii.size:
                return
            amt = _lane_select(_as_array(amt_fn(cx), cx.n), g)
            if cond_fn is not None:
                cond = _lane_select(
                    _as_array(cond_fn(cx), cx.n), g) != 0
                amt = np.where(cond, amt, 0)
            np.add.at(data, ii, amt.astype(np.uint64))
            data[np.unique(ii)] &= mask_u

        return step

    def add_read(self, dest: str, idx_fn, amt_fn, cond_fn=None) -> Callable:
        """``add_read``/``cond_add_read``: every lane must observe the
        running post-increment value its sequential position implies —
        a segmented inclusive prefix sum over index-sorted lanes.

        ``cond_add_read`` reduces to ``add_read`` with the amount zeroed
        where the condition fails (the scalar false branch *reads* the
        running cell, which is exactly a +0 in the running sum).
        """
        data, mask_u, cells = self.data, self.mask_u, self.cells

        def step(cx, g):
            n = cx.n
            idx_full = _as_array(idx_fn(cx), n) % cells
            amt_full = _as_array(amt_fn(cx), n)
            if cond_fn is not None:
                cond = _as_array(cond_fn(cx), n) != 0
                amt_full = np.where(cond, amt_full, 0)
            ii = _lane_select(idx_full, g)
            if not ii.size:
                _dest_merge(cx, dest, np.zeros(n, dtype=np.int64),
                            g if g is not None else np.zeros(n, dtype=bool))
                return
            aa = _lane_select(amt_full, g).astype(np.uint64)
            order, si, _b, starts, ends, gidx = _segmented_groups(ii)
            sa = aa[order]
            cs = np.cumsum(sa)                      # wraps mod 2**64 — exact
            base_excl = (cs - sa)[starts][gidx]     # prefix before each group
            seg = cs - base_excl                    # inclusive within-group sum
            init = data[si[starts]][gidx]
            post = (init + seg) & mask_u
            data[si[ends]] = post[ends]
            res = np.empty(ii.size, dtype=np.uint64)
            res[order] = post
            res64 = res.astype(np.int64)
            if g is None:
                _dest_merge(cx, dest, res64, None)
            else:
                full = np.zeros(n, dtype=np.int64)
                full[g] = res64
                _dest_merge(cx, dest, full, g)

        return step

    def swap(self, dest: str, idx_fn, val_fn) -> Callable:
        """Per-lane old value = previous lane's write within its index
        group (the group head reads the pre-batch cell)."""
        data, mask = self.data, self.mask

        def step(cx, g):
            n = cx.n
            idx_full = _as_array(idx_fn(cx), n) % self.cells
            val_full = _as_array(val_fn(cx), n) & mask
            ii = _lane_select(idx_full, g)
            if not ii.size:
                _dest_merge(cx, dest, np.zeros(n, dtype=np.int64),
                            g if g is not None else np.zeros(n, dtype=bool))
                return
            vv = _lane_select(val_full, g).astype(np.uint64)
            order, si, boundary, starts, ends, gidx = _segmented_groups(ii)
            sv = vv[order]
            shifted = np.empty_like(sv)
            shifted[0] = 0
            shifted[1:] = sv[:-1]
            init = data[si[starts]][gidx]
            old = np.where(boundary, init, shifted)
            data[si[ends]] = sv[ends]
            res = np.empty(ii.size, dtype=np.uint64)
            res[order] = old
            res64 = res.astype(np.int64)
            if g is None:
                _dest_merge(cx, dest, res64, None)
            else:
                full = np.zeros(n, dtype=np.int64)
                full[g] = res64
                _dest_merge(cx, dest, full, g)

        return step

    def extremum(self, idx_fn, val_fn, is_max: bool) -> Callable:
        """``max_update``/``min_update`` (no destination): order-free."""
        data, mask = self.data, self.mask
        scatter = np.maximum.at if is_max else np.minimum.at

        def step(cx, g):
            ii = self._indices(cx, g, idx_fn)
            if not ii.size:
                return
            vv = _lane_select(_as_array(val_fn(cx), cx.n) & mask, g)
            scatter(data, ii, vv.astype(np.uint64))

        return step


# ---------------------------------------------------------------------------
# Table kernel — searchsorted over a version-cached exact index
# ---------------------------------------------------------------------------


class _VecAction:
    """One declared action vector-compiled (or marked bail-only)."""

    __slots__ = ("name", "nparams", "steps", "written", "ok")

    def __init__(self, name, nparams, steps, written, ok):
        self.name = name
        self.nparams = nparams
        self.steps = steps          # list of (cx, m) closures
        self.written = written      # key -> value kind it leaves there
        self.ok = ok                # False: selecting it bails to scalar


class _TableCache:
    """Sorted-key lookup state for one table version."""

    __slots__ = ("version", "keys", "aid", "bail", "data", "row",
                 "default_aid", "default_bail")

    def __init__(self, version):
        self.version = version
        self.keys = np.empty(0, dtype=np.int64)
        self.aid = np.empty(0, dtype=np.int64)     # action id per entry
        self.bail = np.empty(0, dtype=bool)        # entry forces scalar
        self.data: dict[int, np.ndarray] = {}      # aid -> (rows, nparams)
        self.row = np.empty(0, dtype=np.int64)     # entry -> row in data[aid]
        self.default_aid = -1                      # -1: miss runs nothing
        self.default_bail = False


class _VecTable:
    """Vectorized apply of a single-exact-key table."""

    def __init__(self, table, key_fn, actions: dict[str, _VecAction],
                 action_ids: dict[str, int]):
        self.table = table
        self.key_fn = key_fn
        self.actions = actions          # name -> _VecAction
        self.by_id = {i: actions[n] for n, i in action_ids.items()}
        self.action_ids = action_ids
        self._cache: Optional[_TableCache] = None
        self._errors: dict[int, str] = {}   # pseudo-aid -> error message

    def _action_id(self, name: str):
        """Resolve an entry's action: id, bail flag, or error message."""
        act = self.actions.get(name)
        if act is None:
            return None, False, (
                f"table {self.table.name!r} selected unknown action {name!r}"
            )
        return self.action_ids[name], not act.ok, None

    def _build_cache(self) -> _TableCache:
        table = self.table
        cache = _TableCache(table.version)
        entries = []
        for key, entry in table._exact_index.items():
            k = key[0]
            if not (_I64_MIN <= k <= _I64_MAX):
                continue                     # unmatchable by any int64 lane
            entries.append((k, entry))
        entries.sort(key=lambda it: it[0])
        n = len(entries)
        cache.keys = np.fromiter((k for k, _ in entries), dtype=np.int64,
                                 count=n)
        aid = np.empty(n, dtype=np.int64)
        bail = np.zeros(n, dtype=bool)
        row = np.zeros(n, dtype=np.int64)
        grouped: dict[int, list] = {}
        err_id = -10
        self._errors = {}
        for pos, (_k, entry) in enumerate(entries):
            a, b, err = self._action_id(entry.action)
            data = tuple(int(v) for v in entry.action_data)
            if err is None and not b:
                act = self.by_id[a]
                if len(data) != act.nparams:
                    err = (f"action {entry.action!r} expects {act.nparams} "
                           f"data values, entry carries {len(data)}")
                elif any(not (0 <= v <= _ACTION_DATA_MAX) for v in data):
                    b = True                 # outside the assumed range
            if err is not None:
                err_id -= 1
                self._errors[err_id] = err
                aid[pos] = err_id
                continue
            aid[pos] = a
            bail[pos] = b
            if not b:
                rows = grouped.setdefault(a, [])
                row[pos] = len(rows)
                rows.append(data)
        cache.aid, cache.bail, cache.row = aid, bail, row
        for a, rows in grouped.items():
            nparams = self.by_id[a].nparams
            cache.data[a] = np.array(rows, dtype=np.int64).reshape(
                len(rows), nparams)
        default = table.default_action or "NoAction"
        if default != "NoAction":
            a, b, err = self._action_id(default)
            if err is None and not b and self.by_id[a].nparams != 0:
                err = (f"action {default!r} expects "
                       f"{self.by_id[a].nparams} data values, "
                       f"entry carries 0")
            if err is not None:
                err_id -= 1
                self._errors[err_id] = err
                cache.default_aid = err_id
            else:
                cache.default_aid = a
                cache.default_bail = b
                if b:
                    cache.default_bail = True
        return cache

    def step(self, cx: _Cx, g: Optional[np.ndarray]) -> None:
        table = self.table
        cache = self._cache
        if cache is None or cache.version != table.version:
            cache = self._cache = self._build_cache()
        n = cx.n
        keys = _as_array(self.key_fn(cx), n)
        nkeys = cache.keys.size
        if nkeys:
            pos = np.searchsorted(cache.keys, keys)
            pos_c = np.minimum(pos, nkeys - 1)
            hit = cache.keys[pos_c] == keys
            entry = np.where(hit, pos_c, -1)
            lane_aid = np.where(hit, cache.aid[pos_c],
                                np.int64(cache.default_aid))
        else:
            hit = np.zeros(n, dtype=bool)
            entry = np.full(n, -1, dtype=np.int64)
            lane_aid = np.full(n, cache.default_aid, dtype=np.int64)
        _merge_hits(cx.hits, table.name, hit, g, n)
        live = hit if g is None else (hit & g)
        ran = g if g is not None else None
        # Any lane selecting a bail-flagged entry → scalar re-run.
        if nkeys and np.any(cache.bail[entry[live]] if live.any() else False):
            raise _VectorBail
        miss = ~hit if g is None else (~hit & g)
        if cache.default_aid != -1 and miss.any():
            if cache.default_aid in self._errors:
                raise SimulationError(self._errors[cache.default_aid])
            if cache.default_bail:
                raise _VectorBail
        sel_aids = lane_aid if ran is None else lane_aid[ran]
        for a in np.unique(sel_aids).tolist():
            if a == -1:
                continue
            if a in self._errors:
                raise SimulationError(self._errors[a])
            act = self.by_id[a]
            m = lane_aid == a
            if ran is not None:
                m &= ran
            if not m.any():
                continue
            if act.nparams:
                rows = cache.row[entry[m]]
                mat = cache.data[a]
                args = []
                for j in range(act.nparams):
                    col = np.zeros(n, dtype=np.int64)
                    col[m] = mat[rows, j]
                    args.append(col)
                cx.args = tuple(args)
            else:
                cx.args = ()
            try:
                for astep in act.steps:
                    astep(cx, m)
            finally:
                cx.args = ()


# ---------------------------------------------------------------------------
# Expression + statement lowering with range tracking
# ---------------------------------------------------------------------------


class _VecLowering:
    """Lowers unit ASTs to whole-batch kernels (shared per pipeline)."""

    def __init__(self, pipeline, plan, mask_i64):
        self.pipeline = pipeline
        self.plan = plan
        self.masks = plan.masks
        self.mask_i64 = mask_i64
        self.consts = pipeline.info.consts
        self.low = plan.lowering
        #: action name -> _VecAction (compiled on demand per table)
        self._vec_actions: dict[str, _VecAction] = {}
        self._action_ids: dict[str, int] = {}

    # -- expressions -----------------------------------------------------------
    def expr(self, e: ast.Expr, scalars: dict[str, int], env: dict):
        """Lower to ``(fn(cx) -> int64 array-or-scalar, kind)``."""
        if not isinstance(e, ast.Name) or e.ident not in scalars:
            try:
                value = _fold(e, self.consts, scalars)
            except _NotStatic:
                pass
            else:
                return self._const(value)
        if isinstance(e, ast.Name):
            if e.ident in scalars:
                pos = scalars[e.ident]
                return ((lambda cx, _p=pos: cx.args[_p]),
                        (0, _ACTION_DATA_MAX))
            return self._field_read(e.ident, env)
        if isinstance(e, (ast.Member, ast.Index)):
            key = self.low.field_key(e, scalars)
            if key is None:
                raise _NotVectorizable("dynamic field key")
            return self._field_read(key, env)
        if isinstance(e, ast.UnaryOp):
            return self._unary(e, scalars, env)
        if isinstance(e, ast.BinaryOp):
            if e.op in ("&&", "||"):
                return self._logical(e, scalars, env)
            return self._binary(e, scalars, env)
        if isinstance(e, ast.Ternary):
            cf, ck = self.expr(e.cond, scalars, env)
            known = _static(ck)
            if known is not None:
                # Like the scalar engines, never touch the dead branch.
                live = e.if_true if known else e.if_false
                return self.expr(live, scalars, env)
            cond = _truth(cf, ck, "ternary condition")
            tf, tk = self.expr(e.if_true, scalars, env)
            ff, fk = self.expr(e.if_false, scalars, env)
            return ((lambda cx: np.where(cond(cx), tf(cx), ff(cx))),
                    _join(tk, fk))
        if isinstance(e, ast.Call):
            return self._call(e, scalars, env)
        raise _NotVectorizable(f"cannot vectorize {type(e).__name__}")

    @staticmethod
    def _const(value: int):
        const = _pattern(value)
        return (lambda cx, _v=const: _v), _kind(value, value)

    def _field_kind(self, key: str):
        """Kind of a committed column: post-mask, so never Mod64 for a
        field of at most 64 bits; a never-allocated field reads 0."""
        return _kind(0, self.masks.get(key, 0))

    def _field_read(self, key: str, env):
        if env is not None and key in env:
            # The local may be missing at runtime even though the env
            # says "written earlier": table actions only materialize
            # their writes for batches whose lanes select them.
            def read_local(cx, _k=key):
                val = cx.local.get(_k)
                if val is not None:
                    return val
                col = cx.cols.get(_k)
                return _ZERO if col is None else col

            return read_local, env[key]

        def read(cx, _k=key):
            col = cx.cols.get(_k)
            return _ZERO if col is None else col

        return read, self._field_kind(key)

    def _unary(self, e: ast.UnaryOp, scalars, env):
        af, ak = self.expr(e.operand, scalars, env)
        if e.op == "!":
            truth = _truth(af, ak, "'!'")
            return ((lambda cx: np.logical_not(truth(cx)).astype(np.int64)),
                    (0, 1))
        if e.op not in ("-", "~"):
            raise _NotVectorizable(f"unary {e.op!r}")
        # -v and ~v = -v - 1 wrap mod 2**64 exactly like the columns do.
        off = 0 if e.op == "-" else 1
        kind = _MOD64
        if ak is not _MOD64:
            lo, hi = _bounds(ak, e.op)
            kind = _kind(-hi - off, -lo - off)
        ufunc = np.negative if e.op == "-" else np.invert
        return (lambda cx: ufunc(af(cx))), kind

    def _logical(self, e: ast.BinaryOp, scalars, env):
        """``&&``/``||``. A left operand that folds decides the result or
        leaves it to the right operand alone — the scalar engines
        short-circuit, so the dead side must not be lowered (it may hold
        a construct that only islands because it is never meant to run,
        like SketchLearn's ``i == 0 || (flow_id >> (i - 1)) & 1 == 1``)."""
        is_or = e.op == "||"
        af, ak = self.expr(e.left, scalars, env)
        known = _static(ak)
        if known is not None and bool(known) == is_or:
            return self._const(int(is_or))
        bf, bk = self.expr(e.right, scalars, env)
        b = _truth(bf, bk, repr(e.op))
        if known is not None:
            return (lambda cx: b(cx).astype(np.int64)), (0, 1)
        a = _truth(af, ak, repr(e.op))
        combine = np.logical_or if is_or else np.logical_and
        return (lambda cx: combine(a(cx), b(cx)).astype(np.int64)), (0, 1)

    def _binary(self, e: ast.BinaryOp, scalars, env):
        af, ak = self.expr(e.left, scalars, env)
        bf, bk = self.expr(e.right, scalars, env)
        op = e.op
        if op in ("+", "-", "*"):
            # int64 ufuncs wrap mod 2**64 (and, unlike the operators,
            # do not warn on numpy scalars), so the column is right for
            # every operand kind; the bounds say how much of the value
            # it still pins down.
            kind = _MOD64
            if ak is not _MOD64 and bk is not _MOD64:
                (alo, ahi), (blo, bhi) = _bounds(ak, op), _bounds(bk, op)
                if op == "+":
                    kind = _kind(alo + blo, ahi + bhi)
                elif op == "-":
                    kind = _kind(alo - bhi, ahi - blo)
                else:
                    corners = [alo * blo, alo * bhi, ahi * blo, ahi * bhi]
                    kind = _kind(min(corners), max(corners))
            ufunc = {"+": np.add, "-": np.subtract, "*": np.multiply}[op]
            return (lambda cx: ufunc(af(cx), bf(cx))), kind
        if op in ("&", "|", "^"):
            ufunc = {"&": np.bitwise_and, "|": np.bitwise_or,
                     "^": np.bitwise_xor}[op]
            return ((lambda cx: ufunc(af(cx), bf(cx))),
                    _bit_kind(op, ak, bk))
        if op in ("/", "%"):
            if not (isinstance(ak, tuple) and isinstance(bk, tuple)):
                raise _NotVectorizable(f"{op!r} on a 64-bit operand")
            m = max(abs(v) for v in (ak if op == "/" else bk))
            ufunc = np.floor_divide if op == "/" else np.mod

            def divmod_(cx):
                a = _as_array(af(cx), cx.n)
                b = _as_array(bf(cx), cx.n)
                out = np.zeros(cx.n, dtype=np.int64)
                ufunc(a, b, out=out, where=b != 0)
                return out

            return divmod_, (-m, m)
        if op in ("<<", ">>"):
            return self._shift(op, af, ak, bf, bk)
        if op in _COMPARES:
            cmp = _COMPARES[op]
            if _unsigned((ak, bk), repr(op)):
                return ((lambda cx: cmp(_u64(af(cx)), _u64(bf(cx)))
                         .astype(np.int64)), (0, 1))
            return (lambda cx: cmp(af(cx), bf(cx)).astype(np.int64)), (0, 1)
        raise _NotVectorizable(f"binary {op!r}")

    @staticmethod
    def _shift(op, af, ak, bf, bk):
        """``a << min(b, 64)`` / ``a >> min(b, 64)``."""
        if not isinstance(bk, tuple):
            raise _NotVectorizable("64-bit shift amount")
        if bk[0] < 0:
            # Negative shifts raise per-packet in the scalar engines.
            raise _NotVectorizable("possibly negative shift amount")
        s_lo, s_hi = min(bk[0], 64), min(bk[1], 64)
        if op == "<<":
            kind = _MOD64
            if ak is not _MOD64:
                corners = [v << s for v in _bounds(ak, op)
                           for s in (s_lo, s_hi)]
                kind = _kind(min(corners), max(corners))

            # Shift the bit pattern: the bits that fall off the top are
            # exactly the multiples of 2**64 every kind may drop (a
            # Range result never loses any). C leaves shifts by >= 64
            # undefined, so that case is spelled out.
            def shl(cx):
                s = np.asarray(bf(cx))
                out = np.left_shift(
                    _u64(af(cx)), np.minimum(s, 63).astype(np.uint64))
                return np.where(s >= 64, _ZERO, out.view(np.int64))

            return shl, kind
        corners = [v >> s for v in _bounds(ak, op) for s in (s_lo, s_hi)]
        kind = _kind(min(corners), max(corners))
        if isinstance(ak, tuple):
            # Arithmetic shift; 63 already saturates an int64 to its sign.
            def shr(cx):
                return np.right_shift(
                    np.asarray(af(cx)), np.minimum(bf(cx), 63))

            return shr, kind

        def shr_u64(cx):
            s = np.asarray(bf(cx))
            out = np.right_shift(
                _u64(af(cx)), np.minimum(s, 63).astype(np.uint64))
            return np.where(s >= 64, _ZERO, out.view(np.int64))

        return shr_u64, kind

    def _call(self, call: ast.Call, scalars, env):
        func = call.func
        if not isinstance(func, ast.Name):
            raise _NotVectorizable("computed call")
        if func.ident == "hash":
            if not call.args:
                raise _NotVectorizable("hash() without seed")
            try:
                seed = _fold(call.args[0], self.consts, scalars)
            except _NotStatic:
                raise _NotVectorizable("dynamic hash seed") from None
            fn = self.low.hash_fn(seed)
            if type(fn) is not MultiplyShiftHash:
                raise _NotVectorizable("non-multiply-shift hash family")
            # The hash reads its arguments mod 2**64 (scalar: ``v &
            # MASK64``, vector: a C cast of the column), so every kind
            # hashes bit-identically.
            value_fns = [self.expr(a, scalars, env)[0]
                         for a in call.args[1:]]
            if not value_fns:
                return self._const(fn(width=_HASH_WIDTH))

            def vhash(cx, _f=fn, _v=value_fns):
                cols = [_as_array(vf(cx), cx.n) for vf in _v]
                return _f.vector_multi(cols, width=_HASH_WIDTH)

            return vhash, (0, _HASH_WIDTH - 1)
        if func.ident in ("min", "max") and call.args:
            lowered = [self.expr(a, scalars, env) for a in call.args]
            fns = [f for f, _k in lowered]
            unsigned = _unsigned([k for _f, k in lowered], func.ident)
            bounds = [_bounds(k, func.ident) for _f, k in lowered]
            reducer = np.minimum if func.ident == "min" else np.maximum
            pick = min if func.ident == "min" else max

            def mm(cx):
                vals = [f(cx) for f in fns]
                if unsigned:
                    vals = [_u64(v) for v in vals]
                acc = vals[0]
                for v in vals[1:]:
                    acc = reducer(acc, v)
                return acc.view(np.int64) if unsigned else acc

            return mm, _kind(pick(lo for lo, _hi in bounds),
                             pick(hi for _lo, hi in bounds))
        raise _NotVectorizable(f"call {func.ident!r}")

    # -- statements ------------------------------------------------------------
    def stmt(self, s: ast.Stmt, scalars, env, effects: list):
        """Lower one statement to ``step(cx, g)``; appends its register/
        table effects to ``effects`` as ``("reg", name, mutates)`` /
        ``("table", name)`` tuples for the stage-level hazard rules."""
        if isinstance(s, ast.Assign):
            key = self.low.field_key(s.target, scalars)
            if key is None:
                raise _NotVectorizable("dynamic assignment target")
            if key not in self.masks:
                # Scalar engines raise PhvError at commit, per packet.
                raise _NotVectorizable("assignment to unallocated field")
            # Any kind may be assigned: the commit masks the column to
            # the field width, which is exact mod 2**64.
            vf, env[key] = self.expr(s.value, scalars, env)

            def step(cx, g, _k=key, _v=vf):
                cx.local[_k] = _as_array(_v(cx), cx.n)

            return step
        if (isinstance(s, ast.CallStmt)
                and isinstance(s.call.func, ast.Member)):
            func = s.call.func
            if func.name == "apply" and isinstance(func.base, ast.Name):
                return self._table_stmt(func.base.ident, scalars, env,
                                        effects)
            return self._register_stmt(s.call, func, scalars, env, effects)
        raise _NotVectorizable(f"statement {type(s).__name__}")

    def _register_stmt(self, call, func, scalars, env, effects):
        method = func.name
        if method not in _REG_METHODS:
            raise _NotVectorizable(f"register method {method!r}")
        array = self.low.register_array(func.base, scalars)
        if type(array) is not RegisterArray:
            raise _NotVectorizable("dynamic or unresolved register")
        kern = _RegKernels(array)
        dest_pos = _REG_METHODS[method]
        dest = None
        if dest_pos is not None:
            dest = self.low.field_key(call.args[dest_pos], scalars)
            if dest not in self.masks:
                raise _NotVectorizable("dynamic register destination")

        def index(i):
            fn, kind = self.expr(call.args[i], scalars, env)
            if not isinstance(kind, tuple):
                raise _NotVectorizable("64-bit register index")
            return fn

        def cond(i):
            fn, kind = self.expr(call.args[i], scalars, env)
            _bounds(kind, "register condition")
            return fn

        def value(i):
            # Stored mod 2**width (see _RegKernels): any kind is exact.
            return self.expr(call.args[i], scalars, env)[0]

        effects.append(("reg", array.name, method != "read"))
        if method == "read":
            step = kern.read(dest, index(1))
        elif method == "write":
            step = kern.write(index(0), value(1))
        elif method == "add":
            step = kern.add(index(0), value(1))
        elif method == "cond_add":
            step = kern.add(index(0), value(2), cond_fn=cond(1))
        elif method == "add_read":
            step = kern.add_read(dest, index(1), value(2))
        elif method == "cond_add_read":
            step = kern.add_read(dest, index(1), value(3), cond_fn=cond(2))
        elif method == "swap":
            step = kern.swap(dest, index(1), value(2))
        elif method == "max_update":
            step = kern.extremum(index(0), value(1), is_max=True)
        else:  # min_update
            step = kern.extremum(index(0), value(1), is_max=False)
        if dest is not None:
            env[dest] = _kind(0, array.mask)
        return step

    # -- tables ----------------------------------------------------------------
    def _vec_action(self, name: str) -> _VecAction:
        """Vector-compile one declared action (memoized). Failure does
        not island the stage: the action is marked bail-only and only
        batches whose lanes actually select it fall back to scalar."""
        act = self._vec_actions.get(name)
        if act is not None:
            return act
        decl = self.pipeline.info.actions[name]
        scalars = {p.name: pos for pos, p in enumerate(decl.params)}
        steps: list = []
        written: dict = {}
        ok = True
        try:
            env: dict = {}
            for s in decl.body.stmts:
                if not isinstance(s, ast.Assign):
                    raise _NotVectorizable(
                        "non-assignment in table action")
                key = self.low.field_key(s.target, scalars)
                if key not in self.masks:
                    raise _NotVectorizable("dynamic action target")
                vf, env[key] = self.expr(s.value, scalars, env)

                def astep(cx, m, _k=key, _v=vf):
                    v = _as_array(_v(cx), cx.n)
                    base = cx.local.get(_k)
                    if base is None:
                        base = cx.cols.get(_k)
                    out = (base.copy() if base is not None
                           else np.zeros(cx.n, dtype=np.int64))
                    out[m] = v[m]
                    cx.local[_k] = out
                    prev = cx.wmask.get(_k)
                    if prev is None:
                        cx.wmask[_k] = m.copy()
                    else:
                        prev |= m

                steps.append(astep)
            written = env
        except _NotVectorizable:
            steps, written, ok = [], {}, False
        act = _VecAction(name, len(decl.params), steps, written, ok)
        self._vec_actions[name] = act
        self._action_ids.setdefault(name, len(self._action_ids))
        return act

    def _table_stmt(self, table_name: str, scalars, env, effects):
        table = self.pipeline.tables.get(table_name)
        if table is None:
            raise _NotVectorizable("unknown table")   # interp raises KeyError
        if table.match_kinds != ["exact"] or len(table.key_fields) != 1:
            raise _NotVectorizable("non single-exact-key table")
        key_fn, key_kind = self._field_read(table.key_fields[0], env)
        if not isinstance(key_kind, tuple):
            # The sorted-key cache matches int64 values, not bit patterns.
            raise _NotVectorizable("64-bit table key")
        actions = {name: self._vec_action(name)
                   for name in self.pipeline.info.actions}
        vt = _VecTable(table, key_fn, actions, self._action_ids)
        effects.append(("table", table_name))
        # After the apply, any key any action may have written holds
        # either its prior value or the action's.
        for act in actions.values():
            for key, kind in act.written.items():
                prev = env.get(key)
                if prev is None:
                    prev = self._field_kind(key)
                env[key] = _join(prev, kind)
        return vt.step

    # -- stages ----------------------------------------------------------------
    def stage_kernel(self, splan, units):
        """Build one whole-batch stage kernel, or raise
        :class:`_NotVectorizable` to demote the stage to an island."""
        no_scalars: dict[str, int] = {}
        unit_kernels = []
        effects: list[tuple] = []
        writers: dict[str, list] = {}
        for unit in units:
            inst = unit.instance
            env: dict = {}
            guard_fn = None
            if inst.guard is not None:
                gf, gk = self.expr(inst.guard, no_scalars, {})
                known = _static(gk)
                if known == 0:
                    continue                # unit never runs
                if known is None:
                    guard_fn = _truth(gf, gk, "guard")
            steps = []
            if inst.table is not None:
                steps.append(self._table_stmt(inst.table, no_scalars, env,
                                              effects))
            else:
                for s in inst.body:
                    steps.append(self.stmt(s, no_scalars, env, effects))
            unit_kernels.append((unit.label, guard_fn, steps))
            for key, kind in env.items():
                writers.setdefault(key, []).append(kind)
        # The stage-exit commit compares what two units wrote to one key
        # column against column, which decides value equality only for
        # kinds that also compare (see _unsigned).
        for key, kinds in writers.items():
            if len(kinds) > 1:
                _unsigned(kinds, f"same-stage writes to {key!r}")
        # Hazard rules: a register touched by >1 step (any of them
        # mutating) needs per-packet interleaving; a table sharing a
        # stage with a register mutation would make _VectorBail unsafe.
        reg_steps: dict[str, int] = {}
        reg_mut: dict[str, int] = {}
        has_table = False
        for eff in effects:
            if eff[0] == "table":
                has_table = True
                continue
            _tag, name, mutates = eff
            reg_steps[name] = reg_steps.get(name, 0) + 1
            if mutates:
                reg_mut[name] = reg_mut.get(name, 0) + 1
        for name, count in reg_steps.items():
            if count > 1 and reg_mut.get(name, 0) > 0:
                raise _NotVectorizable(
                    f"register {name!r}: same-stage read/update interleaving"
                )
        if has_table and reg_mut:
            raise _NotVectorizable("table apply beside register mutation")
        mask_i64 = self.mask_i64
        stage_no = splan.stage

        def kernel(batch: PhvBatch, hits: dict):
            n = batch.n
            stage_hits: dict = {}
            ran_units = []
            for label, guard_fn, steps in unit_kernels:
                cx = _Cx(batch.cols, n, stage_hits)
                g = None
                if guard_fn is not None:
                    g = guard_fn(cx)
                    if np.ndim(g) == 0:
                        if not g:
                            continue
                        g = None
                    elif not g.any():
                        continue
                for step in steps:
                    step(cx, g)
                if cx.local:
                    ran_units.append((label, g, cx.local, cx.wmask))
            # Conflict-checked stage-exit commit (as the scalar engines').
            commits: dict[str, tuple] = {}
            for label, g, local, wmask in ran_units:
                unit_mask = batch.all_true() if g is None else g
                for key, vals in local.items():
                    gm = wmask.get(key, unit_mask)
                    vals = _as_array(vals, n)
                    prior = commits.get(key)
                    if prior is None:
                        commits[key] = (vals, gm.copy(), label)
                        continue
                    pv, pm, owner = prior
                    both = pm & gm
                    if both.any() and np.any(pv[both] != vals[both]):
                        raise SimulationError(
                            f"stage {stage_no}: units {owner!r} and "
                            f"{label!r} write different values to {key!r}"
                        )
                    merged = pv.copy()
                    new_lanes = gm & ~pm
                    merged[new_lanes] = vals[new_lanes]
                    commits[key] = (merged, pm | gm, owner)
            for key, (vals, m, _owner) in commits.items():
                masked = vals & mask_i64[key]
                col = batch.cols.get(key)
                if col is None:
                    batch.cols[key] = np.where(m, masked, _ZERO)
                    batch.present[key] = m.copy()
                else:
                    batch.cols[key] = np.where(m, masked, col)
                    batch.present[key] = batch.present[key] | m
            for name, (h, r) in stage_hits.items():
                _merge_hits(hits, name, h, r if not r.all() else None, n)

        return kernel


# ---------------------------------------------------------------------------
# The vector plan: per-stage kernels + scalar islands + batch front end
# ---------------------------------------------------------------------------


class VectorPlan:
    """Per-stage vector kernels over a pipeline's generated scalar plan.

    ``ok`` is False when the whole program must stay scalar (a register
    reachable from more than one stage — the stage-at-a-time batch
    reordering would not be sequence-equivalent); :meth:`run_batch` must
    not be called in that case.

    64-bit PHV fields are carried as int64 *bit patterns* (value mod
    2**64 in two's complement): loads, commits, and register traffic are
    exact under that encoding, and expressions read them as ``U64``
    values (see the value kinds above :func:`_kind`).
    """

    def __init__(self, pipeline):
        self.pipeline = pipeline
        self.plan = pipeline.plan
        self.masks = self.plan.masks
        #: Fields wider than 63 bits: stored as wrapped bit patterns.
        self.wide = frozenset(
            k for k, m in self.masks.items() if m > _I64_MAX)
        #: Commit masks; the int64 identity for 64-bit fields.
        self.mask_i64 = {k: _pattern(m) for k, m in self.masks.items()}
        self.ok = True
        self.reason = ""
        self.island_stages: list[int] = []
        self.island_reasons: dict[int, str] = {}
        self.stage_exec: list[tuple] = []
        reg_stages: dict[tuple, set[int]] = {}
        for units in pipeline._stage_units:
            for unit in units:
                for ref in unit.instance.registers:
                    reg_stages.setdefault(tuple(ref), set()).add(unit.stage)
        shared = [r for r, stages in reg_stages.items() if len(stages) > 1]
        if shared:
            self.ok = False
            self.reason = f"register {shared[0]} spans multiple stages"
            return
        lowering = _VecLowering(pipeline, self.plan, self.mask_i64)
        for splan in self.plan.stages:
            units = pipeline._stage_units[splan.stage]
            try:
                kernel = lowering.stage_kernel(splan, units)
            except _NotVectorizable as exc:
                kernel = None
                self.island_stages.append(splan.stage)
                self.island_reasons[splan.stage] = str(exc)
            self.stage_exec.append((splan, kernel))

    # -- batch loading ---------------------------------------------------------
    def load_columns(self, columns: dict, n: int,
                     present: Optional[dict] = None) -> PhvBatch:
        """The one loader: ``{packet field: n raw values}`` to a
        :class:`PhvBatch` of resolved, width-masked int64 columns.

        Values are integer arrays of any width (unsigned 64-bit values
        keep their bit pattern; for 64-bit fields the mask is the int64
        identity) or, for raw values outside 64 bits, object arrays of
        Python ints, masked one by one. ``present`` maps a field to its
        lane mask where not every lane carries it.
        """
        resolve = self.pipeline._packet_key
        cols: dict[str, np.ndarray] = {}
        lanes: dict[str, np.ndarray] = {}
        for name, values in columns.items():
            key = resolve(name)
            if values.dtype == object:
                # The masked value is in [0, 2**64): go through uint64
                # and reinterpret as the int64 bit pattern.
                mask = self.masks[key]
                cols[key] = np.fromiter(
                    (int(v) & mask for v in values),
                    dtype=np.uint64, count=n).view(np.int64)
            else:
                cols[key] = (values.astype(np.int64, copy=False)
                             & self.mask_i64[key])
            carried = present.get(name) if present else None
            lanes[key] = (np.ones(n, dtype=bool) if carried is None
                          else carried)
        return PhvBatch(cols, lanes, n)

    def _load(self, packets) -> PhvBatch:
        """``Packet`` front end of :meth:`load_columns`."""
        n = len(packets)
        names = list(packets[0].fields)
        columns: dict[str, np.ndarray] = {}
        if all(len(p.fields) == len(names) for p in packets):
            try:
                for name in names:
                    columns[name] = np.fromiter(
                        (p.fields[name] for p in packets),
                        dtype=np.int64, count=n)
            except (KeyError, OverflowError, ValueError):
                columns.clear()
            else:
                return self.load_columns(columns, n)
        # Ragged batches / out-of-int64 raw values: absent lanes load 0.
        union: dict[str, None] = {}
        for p in packets:
            for name in p.fields:
                union.setdefault(name)
        present: dict[str, np.ndarray] = {}
        for name in union:
            column = np.empty(n, dtype=object)
            column[:] = [p.fields.get(name, 0) for p in packets]
            columns[name] = column
            present[name] = np.fromiter((name in p.fields for p in packets),
                                        dtype=bool, count=n)
        return self.load_columns(columns, n, present)

    # -- scalar islands --------------------------------------------------------
    def _run_island(self, splan, batch: PhvBatch, hits: dict) -> None:
        """Materialize per-packet dicts, run the stage's generated
        scalar code, scatter results back into columns."""
        n = batch.n
        wide = self.wide
        dicts = column_rows(batch.cols, batch.present, n, wide)
        hit_rows: list[dict] = []
        for phv in dicts:
            row: dict = {}
            splan.run(phv, row)
            hit_rows.append(row)
        keys: dict[str, None] = dict.fromkeys(batch.cols)
        for d in dicts:
            for key in d:
                keys.setdefault(key)
        for key in keys:
            dtype = np.uint64 if key in wide else np.int64
            batch.cols[key] = np.fromiter(
                (d.get(key, 0) for d in dicts), dtype=dtype,
                count=n).astype(np.int64, copy=False)
            batch.present[key] = np.fromiter(
                (key in d for d in dicts), dtype=bool, count=n)
        names: dict[str, None] = {}
        for row in hit_rows:
            for name in row:
                names.setdefault(name)
        for name in names:
            hit = np.fromiter((row.get(name, False) for row in hit_rows),
                              dtype=bool, count=n)
            ran = np.fromiter((name in row for row in hit_rows),
                              dtype=bool, count=n)
            _merge_hits(hits, name, hit, ran if not ran.all() else None, n)

    # -- execution -------------------------------------------------------------
    def run_stages(self, batch: PhvBatch, hits: dict) -> None:
        """Run a pre-built batch through every stage, in place.

        The persistent worker pool (:mod:`repro.pisa.pool`) calls this
        directly on shared-memory column slices; :meth:`run_batch` wraps
        it with the result container.
        """
        for splan, kernel in self.stage_exec:
            if kernel is None:
                self._run_island(splan, batch, hits)
            else:
                try:
                    kernel(batch, hits)
                except _VectorBail:
                    self._run_island(splan, batch, hits)

    def run_batch(self, batch: PhvBatch, collect: bool = True):
        """Run a loaded batch through all stages; returns its
        :class:`~repro.pisa.results.BatchResults` (columns kept, rows
        built on demand) or, with ``collect=False``, the lane count."""
        hits: dict = {}
        self.run_stages(batch, hits)
        self.pipeline.packets_processed += batch.n
        if not collect:
            return batch.n
        results = BatchResults(wide=self.wide)
        results.add_chunk(batch.cols, batch.present, batch.n, hits)
        return results

    # -- introspection ---------------------------------------------------------
    def describe(self) -> str:
        """Human-readable vectorization summary."""
        if not self.ok:
            return f"vector plan disabled: {self.reason}"
        total = len(self.stage_exec)
        vec = total - len(self.island_stages)
        lines = [f"vector plan: {vec}/{total} stages vectorized"]
        for stage in self.island_stages:
            lines.append(
                f"  stage {stage}: scalar island"
                f" ({self.island_reasons.get(stage, 'unsupported')})"
            )
        return "\n".join(lines)
