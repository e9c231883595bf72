"""Columnar (struct-of-arrays) batch execution: the ``vector`` engine.

The compiled engine (:mod:`repro.pisa.compiled`) still pushes one packet
at a time through Python frames. A PISA stage is data-parallel by
construction — the same stage program applies independently to every
packet — so this module lowers the placed program *once more*, into the
source of **one numpy function per pipeline** (:attr:`VectorPlan.
source`, ``compile()``-d once at :class:`~repro.pisa.pipeline.Pipeline`
build) that runs a whole batch through every stage:

* the PHV is a struct-of-arrays batch (:class:`PhvBatch`): one ``int64``
  column per field plus a presence mask, values always stored
  post-width-mask (64-bit fields as their two's-complement bit pattern);
  inside the generated function the columns live in Python locals;
* expressions evaluate on ``int64`` columns under a static *value kind*
  per subexpression — ``Range(lo, hi)``, ``U64`` or ``Mod64`` (see
  :func:`_kind`). Each operator is lowered only for the kinds on which
  the column arithmetic is exact; anything else demotes the whole stage
  to a *scalar island*. A committed field keeps its kind into the next
  stage, so a constant (``meta.kv_hit = 0``) folds into its next use;
* a stage is emitted in one of two forms, as in the scalar generator.
  *Straight-line*: stage-entry reads and unit writes are locals, the
  stage-exit commit is a rebind (masked only when the value's kind does
  not already fit the field; a guard is one ``np.where``) — possible
  when no key has two writers and the stage applies no table.
  *Buffered* otherwise: each unit fills a write dict and module-level
  helpers merge, conflict-check and commit them as the scalar engines do;
* ``hash(seed, ...)`` calls a function with the seed's constants bound
  once; register operations are module-level gather/scatter kernels
  that reproduce the *sequential* per-packet semantics exactly,
  same-cell collisions inside one batch included, on the cells' own
  ``uint64`` storage (see "register kernels" below);
* single-exact-key table applies use a sorted-key ``searchsorted``
  cache and one generated function per declared action; an entry whose
  action has no vector form triggers a per-batch :class:`_VectorBail` —
  the stage re-runs as a scalar island.

An island flushes the locals to the batch, runs the stage's generated
scalar code (:attr:`~repro.pisa.plan.StagePlan.run`) over per-packet
dicts and scatters them back into columns — the scalar semantics, bit
for bit, paid only for stages the static analysis rejects.

Safety of stage-at-a-time reordering rests on the pipeline invariant
that a register lives in (and is only touched from) exactly one stage;
:class:`VectorPlan` re-checks it — table actions included — and refuses
to vectorize otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..lang import ast
from ..lang.pretty import pretty_expr
from .alu import apply_binary, apply_unary
from .compiled import (_HASH_WIDTH, _MASK64, _REG_METHODS, _Buffered,
                       _NotStatic, _fold)
from .hashing import MultiplyShiftHash
from .interp import SimulationError
from .registers import RegisterArray
from .results import BatchResults, column_rows

__all__ = ["VectorPlan", "PhvBatch"]

#: int64 domain, excluding INT64_MIN for negation/abs headroom.
_I64_MAX = (1 << 63) - 1
_I64_MIN = -_I64_MAX
#: Action-data values assumed in range by the static analysis; entries
#: carrying anything else flip the per-batch scalar bail instead.
_ACTION_DATA_MAX = (1 << 31) - 1
#: Registers up to this many cells sort their indices as ``uint16``.
_RADIX_CELLS = 1 << 16
_ARITH = ("+", "-", "*", "&", "|", "^")
_COMPARES = ("==", "!=", "<", ">", "<=", ">=")


class _NotVectorizable(Exception):
    """Static: this stage needs the scalar engine (becomes an island)."""


class _VectorBail(Exception):
    """Runtime: discard this stage's buffered work, re-run it scalar.
    Only raised before the stage's commit and any register mutation
    (stages with table applies carry no register-mutating steps), so
    the island re-run sees untouched state."""


def _pattern(value: int) -> int:
    """``value mod 2**64`` as the int64 holding that bit pattern."""
    value &= _MASK64
    return value - (1 << 64) if value > _I64_MAX else value


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


def _arith_kind(op: str, a, b):
    """Kind of ``a op b`` for ``+ - * & | ^``. The int64 column wraps
    mod 2**64 and so is right for every operand kind; the bounds say
    how much of the value it still pins down."""
    if a is _MOD64 or b is _MOD64:
        return _MOD64
    (alo, ahi), (blo, bhi) = _bounds(a, op), _bounds(b, op)
    if op == "+":
        return _kind(alo + blo, ahi + bhi)
    if op == "-":
        return _kind(alo - bhi, ahi - blo)
    if op == "*":
        corners = [alo * blo, alo * bhi, ahi * blo, ahi * bhi]
        return _kind(min(corners), max(corners))
    if alo >= 0 and blo >= 0:
        if op == "&":
            return _kind(0, min(ahi, bhi))
        return _kind(0, (1 << max(ahi, bhi).bit_length()) - 1)
    bound = (1 << max(abs(alo), abs(ahi), abs(blo), abs(bhi)).bit_length()) - 1
    return _kind(-bound - 1, bound)


class PhvBatch:
    """Struct-of-arrays PHV: one int64 column per field, post-mask values.

    ``present`` tracks which lanes carry the field at all (the scalar
    engines' per-packet dicts hold only loaded + committed keys, and the
    differential suite compares those dicts exactly). Columns hold 0 in
    non-present lanes, so ``phv.get(key, 0)`` is just the column.
    """

    __slots__ = ("cols", "present", "n", "all_true")

    def __init__(self, cols: dict, present: dict, n: int):
        self.cols = cols
        self.present = present
        self.n = n
        #: The one read-only presence mask every field that all lanes
        #: carry shares.
        self.all_true = np.ones(n, dtype=bool)
        self.all_true.flags.writeable = False


# ---------------------------------------------------------------------------
# Run-time helpers of the generated module
# ---------------------------------------------------------------------------


def _merge_hits(buf: dict, name: str, hit: np.ndarray,
                ran: Optional[np.ndarray], n: int) -> None:
    """Overwrite ``buf[name]`` under the ``ran`` lanes (None = all)."""
    prev = buf.get(name)
    if prev is None:
        prev = buf[name] = (np.zeros(n, dtype=bool), np.zeros(n, dtype=bool))
    h, r = prev
    if ran is None:
        h[:] = hit
        r[:] = True
    else:
        h[ran] = hit[ran]
        r |= ran


def _rd(w: dict, cols: dict, key: str, n: int) -> np.ndarray:
    """A buffered unit's own write of ``key`` if it made one, else the
    stage-entry column."""
    col = w.get(key)
    if col is None:
        col = cols.get(key)
    return np.zeros(n, dtype=np.int64) if col is None else col


def _action_write(w: dict, wm: dict, cols: dict, key: str, values,
                  m: np.ndarray, n: int) -> None:
    """A table action's write: only the selecting lanes ``m`` take the
    value and are marked as carrying the field (scalar engines leave it
    unallocated on miss lanes)."""
    w[key] = np.where(m, values, _rd(w, cols, key, n))
    prev = wm.get(key)
    wm[key] = m if prev is None else prev | m


def _merge(commits: dict, w: dict, wm: dict, lanes: np.ndarray, label: str,
           stage: int) -> None:
    """Fold one buffered unit's writes into its stage's commit set:
    units may write one key only where they agree on the value.
    ``lanes`` is where the unit ran; ``wm`` narrows it per action key."""
    for key, vals in w.items():
        gm = wm.get(key, lanes)
        prior = commits.get(key)
        if prior is None:
            commits[key] = (vals, gm, label)
            continue
        pv, pm, owner = prior
        both = pm & gm
        if both.any() and np.any(pv[both] != vals[both]):
            raise SimulationError(
                f"stage {stage}: units {owner!r} and "
                f"{label!r} write different values to {key!r}"
            )
        commits[key] = (np.where(gm & ~pm, vals, pv), pm | gm, owner)


def _commit(batch: PhvBatch, commits: dict, masks: dict, hits: dict,
            stage_hits: dict) -> None:
    """Buffered stage exit: merged writes land in the batch, masked,
    on the lanes that wrote them; the stage's table hits join ``hits``."""
    cols, present = batch.cols, batch.present
    for key, (vals, m, _owner) in commits.items():
        col = cols.get(key)
        cols[key] = np.where(m, vals & masks[key], 0 if col is None else col)
        present[key] = m if col is None else present[key] | m
    for name, (h, r) in stage_hits.items():
        _merge_hits(hits, name, h, None if r.all() else r, batch.n)


def _divmod(ufunc, a, b, n: int) -> np.ndarray:
    """``a / b`` or ``a % b`` per lane, 0 where ``b`` is."""
    out = np.zeros(n, dtype=np.int64)
    ufunc(a, b, out=out, where=b != 0)
    return out


def _shift_u64(ufunc, a, s: np.ndarray) -> np.ndarray:
    """``a << min(s, 64)`` / logical ``a >> min(s, 64)`` on the bit
    pattern: the bits ``<<`` drops off the top are exactly the multiples
    of 2**64 every kind may drop (a Range result never loses any). C
    leaves shifts by >= 64 undefined, so that case is spelled out."""
    out = ufunc(np.asarray(a).view(np.uint64),
                np.minimum(s, 63).view(np.uint64))
    return np.where(s >= 64, 0, out.view(np.int64))


# -- register kernels: sequential semantics over whole-batch arrays ----------
#
# ``idx`` is the cell (already reduced modulo the array size) of each
# lane the unit's guard ``g`` selects (None: all ``n``). Stored values
# arrive as the ``uint64`` view of an int64 column of any kind, already
# masked to the cell width (exact: the width is at most 64).


def _group_sort(idx: np.ndarray, sort_dtype):
    """Stable sort of the lanes by cell: the order, the sorted cells and
    the mask of each cell's first lane."""
    order = np.argsort(idx.astype(sort_dtype, copy=False), kind="stable")
    si = idx[order]
    first = np.empty(si.size, dtype=bool)
    first[0] = True
    np.not_equal(si[1:], si[:-1], out=first[1:])
    return order, si, first


def _scatter_back(data, si, first, final, values, order, g, n) -> np.ndarray:
    """Finish a sorted kernel: each touched cell takes what its last
    lane leaves in ``final``; ``values`` return to lane order as an
    int64 column (0 on the lanes ``g`` leaves out)."""
    last = np.empty(si.size, dtype=bool)
    last[-1] = True
    last[:-1] = first[1:]
    data[si[last]] = final[last]
    res = np.empty(si.size, dtype=np.uint64)
    res[order] = values
    if g is None:
        return res.view(np.int64)
    full = np.zeros(n, dtype=np.int64)
    full[g] = res.view(np.int64)
    return full


def _add_read_const(data, mask_u, idx, sort_dtype, amount: int) -> np.ndarray:
    """``add_read`` of a constant on every lane: a lane observes the
    cell plus ``amount`` times its rank among the lanes on that cell."""
    order, si, first = _group_sort(idx, sort_dtype)
    pos = np.arange(si.size)
    rank = pos - np.maximum.accumulate(np.where(first, pos, 0))
    rank += 1
    if amount != 1:
        rank *= amount                      # wraps mod 2**64 — exact
    post = data[si]
    post += rank.view(np.uint64)
    post &= mask_u
    return _scatter_back(data, si, first, post, post, order, None, 0)


def _add_read(data, mask_u, idx, sort_dtype, amount, g, n: int) -> np.ndarray:
    """``add_read``/``cond_add_read``: a lane observes the running
    post-increment value its sequential position implies — a segmented
    inclusive prefix sum over index-sorted lanes. ``cond_add_read`` zeroes
    the amount where its condition fails (the scalar false branch *reads*
    the running cell: a +0 in the running sum)."""
    if not idx.size:
        return np.zeros(n, dtype=np.int64)
    order, si, first = _group_sort(idx, sort_dtype)
    sa = amount[order]
    cs = np.cumsum(sa)                      # wraps mod 2**64 — exact
    base = (cs - sa)[first][np.cumsum(first) - 1]   # prefix before the cell
    post = (data[si] + (cs - base)) & mask_u
    return _scatter_back(data, si, first, post, post, order, g, n)


def _reg_swap(data, idx, sort_dtype, values, g, n: int) -> np.ndarray:
    """Per-lane old value = previous lane's write within its cell (the
    cell's first lane reads the pre-batch cell)."""
    if not idx.size:
        return np.zeros(n, dtype=np.int64)
    order, si, first = _group_sort(idx, sort_dtype)
    sv = values[order]
    old = np.empty_like(sv)
    old[1:] = sv[:-1]
    old[first] = data[si[first]]
    return _scatter_back(data, si, first, sv, old, order, g, n)


def _reg_write(data, idx, values) -> None:
    # Last writer wins (fancy-index assignment order is unspecified).
    uniq, first_in_rev = np.unique(idx[::-1], return_index=True)
    data[uniq] = values[idx.size - 1 - first_in_rev]


def _reg_add(data, mask_u, idx, amount) -> None:
    """``add``/``cond_add``: pure scatter-add. Per-packet masking
    commutes with summation (the cell width divides 2**64), so one
    wraparound ``np.add.at`` plus a mask of the touched cells (``mask_u``
    None: 64-bit cells) is bit-exact. ``amount`` is one ``uint64`` or a
    column of them."""
    np.add.at(data, idx, amount)
    if mask_u is not None:
        data[idx] &= mask_u


# ---------------------------------------------------------------------------
# Table kernel — searchsorted over a version-cached exact index
# ---------------------------------------------------------------------------


@dataclass
class _VecAction:
    """One declared action vector-compiled (or marked bail-only)."""

    nparams: int
    written: dict           # key -> value kind it leaves there
    ok: bool                # False: selecting it bails to scalar
    fn: object = None       # generated (w, wm, cols, m, n, *args)


class _VecTable:
    """Vectorized apply of a single-exact-key table."""

    def __init__(self, table, actions: dict[str, _VecAction]):
        self.table = table
        self.actions = actions
        self.by_id = dict(enumerate(actions.values()))
        self.ids = {name: i for i, name in enumerate(actions)}
        self.version = None             # table version the index is of

    def _bails(self, action: str, data: tuple) -> bool:
        """Whether selecting an entry sends the batch's stage to the
        scalar code: an action with no vector form, data outside the
        assumed range — or a bad entry (unknown action, wrong arity),
        which raises there exactly what the scalar engines raise."""
        act = self.actions.get(action)
        return (act is None or not act.ok or len(data) != act.nparams
                or any(not 0 <= v <= _ACTION_DATA_MAX for v in data))

    def _reindex(self) -> None:
        """Sorted-key lookup state for the table's current version."""
        table = self.table
        self.version = table.version
        # A key outside int64 is unmatchable by any lane.
        entries = sorted(((key[0], entry)
                          for key, entry in table._exact_index.items()
                          if _I64_MIN <= key[0] <= _I64_MAX),
                         key=lambda it: it[0])
        n = len(entries)
        self.keys = np.fromiter((k for k, _ in entries), dtype=np.int64,
                                count=n)
        self.aid = np.full(n, -1, dtype=np.int64)   # action id per entry
        self.bail = np.zeros(n, dtype=bool)         # entry forces scalar
        self.row = np.zeros(n, dtype=np.int64)      # entry -> row of data[aid]
        grouped: dict[int, list] = {}
        for pos, (_k, entry) in enumerate(entries):
            data = tuple(int(v) for v in entry.action_data)
            self.bail[pos] = self._bails(entry.action, data)
            if not self.bail[pos]:
                a = self.aid[pos] = self.ids[entry.action]
                rows = grouped.setdefault(a, [])
                self.row[pos] = len(rows)
                rows.append(data)
        self.data = {a: np.array(rows, dtype=np.int64).reshape(
                         len(rows), self.by_id[a].nparams)
                     for a, rows in grouped.items()}
        default = table.default_action or "NoAction"
        self.default_bail = default != "NoAction" and self._bails(default, ())
        # -1: a miss runs nothing (here).
        self.default_aid = (-1 if default == "NoAction" or self.default_bail
                            else self.ids[default])

    def apply(self, keys: np.ndarray, g: Optional[np.ndarray], w: dict,
              wm: dict, hits: dict, cols: dict, n: int) -> None:
        """Look ``keys`` up on the lanes ``g`` (None: all), record the
        hits and run each selected action's generated function over its
        lanes, writing into the unit's ``w``/``wm``."""
        if self.version != self.table.version:
            self._reindex()
        nkeys = self.keys.size
        if nkeys:
            pos = np.minimum(np.searchsorted(self.keys, keys), nkeys - 1)
            hit = self.keys[pos] == keys
            entry = np.where(hit, pos, -1)
            lane_aid = np.where(hit, self.aid[pos], self.default_aid)
        else:
            hit = np.zeros(n, dtype=bool)
            entry = np.full(n, -1, dtype=np.int64)
            lane_aid = np.full(n, self.default_aid, dtype=np.int64)
        _merge_hits(hits, self.table.name, hit, g, n)
        ran = hit if g is None else hit & g
        miss = ~hit if g is None else ~hit & g
        if ((nkeys and self.bail[entry[ran]].any())
                or (self.default_bail and miss.any())):
            raise _VectorBail
        for a in np.unique(lane_aid if g is None else lane_aid[g]).tolist():
            if a == -1:
                continue
            act = self.by_id[a]
            m = lane_aid == a
            if g is not None:
                m &= g
            args = []
            for j in range(act.nparams):
                col = np.zeros(n, dtype=np.int64)
                col[m] = self.data[a][self.row[entry[m]], j]
                args.append(col)
            act.fn(w, wm, cols, m, n, *args)


# ---------------------------------------------------------------------------
# Source generation with kind tracking
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _V:
    """A lowered subexpression: Python source for its int64 column (its
    truth mask when ``bool``), its kind, and — exactly when the source
    is a literal and not an array — its value."""

    src: str
    kind: object
    const: Optional[int] = None
    bool: bool = False


@dataclass(frozen=True)
class _Field:
    """What the generated function statically knows of one PHV field at
    the current stage entry."""

    val: _V
    #: ``"T"`` — every lane carries it; a local holding its mask or None
    #: at run time; None — ``present`` was not looked at yet.
    pres: Optional[str] = None
    dirty: bool = False     # the batch's dicts do not hold this value yet


@dataclass
class _Scope:
    """Where one unit's or action's names resolve while it is emitted."""

    #: ``"local"`` — straight-line unit, writes are locals; ``"dict"`` —
    #: buffered unit, writes go to ``w``; ``"action"`` — table action,
    #: writes go to ``w`` under the selecting lanes ``m``.
    mode: str
    #: Bound action parameter -> its argument's column.
    scalars: dict = field(default_factory=dict)
    env: dict = field(default_factory=dict)     # own writes so far: key -> _V
    guard: Optional[str] = None                 # local holding the unit's lanes


_PROLOGUE = ["def _vector_run(batch, hits):",
             "    cols = batch.cols; present = batch.present; n = batch.n",
             "    T = batch.all_true"]

#: What every generated module sees besides its own bound objects.
_NAMESPACE = {
    "np": np, "_i64": np.int64, "_u64": np.uint64, "_u16": np.uint16,
    "_full": np.full, "_zeros": np.zeros, "_VectorBail": _VectorBail,
    **{fn.__name__: fn for fn in (
        _rd, _action_write, _merge, _commit, _divmod, _shift_u64,
        _add_read_const, _add_read, _reg_swap, _reg_write, _reg_add)},
}


class _VecGen:
    """Generates the source of one pipeline's ``_vector_run(batch,
    hits)`` and of a function per table action it may call."""

    def __init__(self, vplan: "VectorPlan"):
        self.pipeline = vplan.pipeline
        self.masks = vplan.masks
        self.consts = self.pipeline.info.consts
        self.low = vplan.plan.lowering
        self.ns: dict[str, object] = dict(
            _NAMESPACE, _island=vplan._run_island, _masks=vplan.mask_i64)
        self._names = 0
        self.lines: list[str] = list(_PROLOGUE)
        self.indent = "    "
        self.defs: list[str] = []            # action functions
        self.fields: dict[str, _Field] = {}
        self._cse: dict[str, str] = {}
        self.actions: dict[str, _VecAction] = {}

    # -- emission --------------------------------------------------------------
    def emit(self, line: str) -> None:
        self.lines.append(self.indent + line)

    def _bind(self, obj, hint: str) -> str:
        """A name of the generated module for ``obj``."""
        self._names += 1
        self.ns[f"_{hint}{self._names}"] = obj
        return f"_{hint}{self._names}"

    def _local(self, prefix: str, src: str) -> str:
        """A fresh local holding ``src``; locals are never rebound."""
        self._names += 1
        self.emit(f"{prefix}{self._names} = {src}")
        return f"{prefix}{self._names}"

    def _shared(self, src: str, sc: _Scope) -> str:
        """A local for ``src``, computed once per stage however many
        units ask for it: locals are bound once, so equal source means
        equal value (a write dict's entries are not, so not there)."""
        if sc.mode != "local":
            return src
        if src not in self._cse:
            self._cse[src] = self._local("t", src)
        return self._cse[src]

    # -- values ----------------------------------------------------------------
    @staticmethod
    def _const(value: int) -> _V:
        lit = _pattern(value)
        return _V(f"({lit})" if lit < 0 else str(lit), _kind(value, value),
                  const=value)

    @staticmethod
    def _i64(v: _V) -> str:
        """Source of ``v`` as an int64 column, or its literal."""
        return f"{v.src}.astype(_i64)" if v.bool else v.src

    def _arr(self, v: _V) -> str:
        """Source of ``v`` as an int64 array even when it is a constant."""
        return (self._i64(v) if v.const is None
                else f"_full(n, {v.src}, _i64)")

    def _as_u64(self, v: _V) -> str:
        """Source of the unsigned value a non-negative ``v`` encodes."""
        return (f"{self._i64(v)}.view(_u64)" if v.const is None
                else str(v.const))

    @staticmethod
    def _truth(v: _V, what: str) -> str:
        """Source of ``v != 0`` (a zero Mod64 column may hide ``2**64``)."""
        _bounds(v.kind, what)
        return v.src if v.bool else f"({v.src} != 0)"

    def _masked(self, v: _V, mask: int) -> _V:
        """``v`` as stored into ``mask`` bits: the ``&`` is emitted only
        when the kind does not already fit (and never for 64 bits, where
        the stored value is the bit pattern itself)."""
        if v.const is not None:
            return self._const(v.const & mask)
        if isinstance(v.kind, tuple) and 0 <= v.kind[0] and v.kind[1] <= mask:
            return v
        if mask == _MASK64:
            return _V(self._i64(v), _U64)
        return _V(f"({self._i64(v)} & {mask})", _kind(0, mask))

    # -- fields ----------------------------------------------------------------
    def _field(self, key: str) -> _Field:
        """The stage-entry state of an allocated field, its column loaded
        into a local on first use (absent: 0; post-mask: never Mod64)."""
        f = self.fields.get(key)
        if f is None:
            var = self._local("f", f"cols.get({key!r})")
            self.emit(f"if {var} is None: {var} = _zeros(n, _i64)")
            f = self.fields[key] = _Field(_V(var, _kind(0, self.masks[key])))
        return f

    def _field_read(self, key: str, sc: _Scope) -> _V:
        own = sc.env.get(key)
        if own is not None:
            return own
        if key not in self.masks:
            return self._const(0)       # never allocated: reads 0
        if sc.mode == "action":
            # Shared by all stages: the entry is what the batch holds.
            return _V(f"_rd(w, cols, {key!r}, n)", _kind(0, self.masks[key]))
        return self._field(key).val

    def _flush(self) -> None:
        """Write every field the locals are ahead on back to the batch."""
        for key, f in self.fields.items():
            if f.dirty:
                self.emit(f"cols[{key!r}] = {self._arr(f.val)}; "
                          f"present[{key!r}] = {f.pres}")
                self.fields[key] = _Field(f.val, f.pres)

    def _commit_local(self, key: str, v: _V, guard: Optional[str]) -> None:
        """Straight-line stage exit for one written key."""
        v = self._masked(v, self.masks[key])
        if guard is None:
            if v.const is None and (v.bool or not v.src.isidentifier()):
                v = _V(self._local("f", self._i64(v)), v.kind)
            self.fields[key] = _Field(v, "T", True)
            return
        old = self._field(key)
        var = self._local(
            "f", f"np.where({guard}, {self._i64(v)}, {old.val.src})")
        pres = old.pres
        if pres != "T":
            if pres is None:
                pres = self._local("p", f"present.get({key!r})")
            self.emit(f"{pres} = {guard} if {pres} is None "
                      f"else {pres} | {guard}")
        self.fields[key] = _Field(
            _V(var, _join(v.kind, old.val.kind)), pres, True)

    # -- expressions -----------------------------------------------------------
    def expr(self, e: ast.Expr, sc: _Scope) -> _V:
        """Lower ``e`` for a whole batch."""
        if not isinstance(e, ast.Name) or e.ident not in sc.scalars:
            try:
                return self._const(_fold(e, self.consts, sc.scalars))
            except _NotStatic:
                pass
        if isinstance(e, ast.Name) and e.ident in sc.scalars:
            return _V(sc.scalars[e.ident], (0, _ACTION_DATA_MAX))
        if isinstance(e, (ast.Name, ast.Member, ast.Index)):
            key = self.low.field_key(e, sc.scalars)
            if key is None:
                raise _NotVectorizable("dynamic field key")
            return self._field_read(key, sc)
        if isinstance(e, ast.UnaryOp):
            return self._unary(e, sc)
        if isinstance(e, ast.BinaryOp):
            if e.op in ("&&", "||"):
                return self._logical(e, sc)
            return self._binary(e, sc)
        if isinstance(e, ast.Ternary):
            c = self.expr(e.cond, sc)
            if c.const is not None:
                # Like the scalar engines, never touch the dead branch.
                return self.expr(e.if_true if c.const else e.if_false, sc)
            cond = self._truth(c, "ternary condition")
            t, f = self.expr(e.if_true, sc), self.expr(e.if_false, sc)
            if t.const == 1 and f.const == 0:
                return _V(cond, (0, 1), bool=True)
            return _V(f"np.where({cond}, {self._i64(t)}, {self._i64(f)})",
                      _join(t.kind, f.kind))
        if isinstance(e, ast.Call):
            return self._call(e, sc)
        raise _NotVectorizable(f"cannot vectorize {type(e).__name__}")

    def _unary(self, e: ast.UnaryOp, sc: _Scope) -> _V:
        a = self.expr(e.operand, sc)
        if e.op not in ("!", "-", "~"):
            raise _NotVectorizable(f"unary {e.op!r}")
        if a.const is not None:
            return self._const(apply_unary(e.op, a.const))
        if e.op == "!":
            return _V(f"(~{self._truth(a, repr('!'))})", (0, 1), bool=True)
        # -v and ~v = -v - 1 wrap mod 2**64 exactly like the columns do.
        off = 0 if e.op == "-" else 1
        kind = _MOD64
        if a.kind is not _MOD64:
            lo, hi = _bounds(a.kind, e.op)
            kind = _kind(-hi - off, -lo - off)
        return _V(f"({e.op}{self._i64(a)})", kind)

    def _logical(self, e: ast.BinaryOp, sc: _Scope) -> _V:
        """``&&``/``||``. The scalar engines short-circuit, so the side a
        folded left operand kills must not be lowered (it may island for
        being code never meant to run, like SketchLearn's ``i == 0 ||
        (flow_id >> (i - 1)) & 1 == 1``)."""
        is_or = e.op == "||"
        a = self.expr(e.left, sc)
        if a.const is not None and bool(a.const) == is_or:
            return self._const(int(is_or))
        b = self.expr(e.right, sc)
        if b.const is not None and bool(b.const) == is_or:
            return self._const(int(is_or))
        # What is left of a constant operand is neutral and drops out.
        live = [self._truth(v, repr(e.op)) for v in (a, b) if v.const is None]
        if not live:
            return self._const(int(not is_or))
        return _V(live[0] if len(live) == 1
                  else f"({live[0]} {'|' if is_or else '&'} {live[1]})",
                  (0, 1), bool=True)

    def _binary(self, e: ast.BinaryOp, sc: _Scope) -> _V:
        a, b = self.expr(e.left, sc), self.expr(e.right, sc)
        op = e.op
        if op not in (*_ARITH, "/", "%", "<<", ">>", *_COMPARES):
            raise _NotVectorizable(f"binary {op!r}")
        if a.const is not None and b.const is not None:
            return self._const(apply_binary(op, a.const, b.const))
        if op in _ARITH:
            if b.const == 0 and op in "+-|^":
                return a
            if a.const == 0 and op in "+|^":
                return b
            return _V(f"({self._i64(a)} {op} {self._i64(b)})",
                      _arith_kind(op, a.kind, b.kind))
        if op in ("/", "%"):
            if not (isinstance(a.kind, tuple) and isinstance(b.kind, tuple)):
                raise _NotVectorizable(f"{op!r} on a 64-bit operand")
            m = max(abs(v) for v in (a.kind if op == "/" else b.kind))
            ufunc = "np.floor_divide" if op == "/" else "np.mod"
            return _V(f"_divmod({ufunc}, {self._i64(a)}, {self._i64(b)}, n)",
                      (-m, m))
        if op in ("<<", ">>"):
            return self._shift(op, a, b)
        read = (self._as_u64 if _unsigned((a.kind, b.kind), repr(op))
                else self._i64)
        return _V(self._shared(f"({read(a)} {op} {read(b)})", sc), (0, 1),
                  bool=True)

    def _shift(self, op: str, a: _V, b: _V) -> _V:
        """``a << min(b, 64)`` / ``a >> min(b, 64)``."""
        if not isinstance(b.kind, tuple):
            raise _NotVectorizable("64-bit shift amount")
        if b.kind[0] < 0:
            # Negative shifts raise per-packet in the scalar engines.
            raise _NotVectorizable("possibly negative shift amount")
        shifts = (min(b.kind[0], 64), min(b.kind[1], 64))
        left = op == "<<"
        kind = _MOD64
        if not (left and a.kind is _MOD64):
            corners = [v << s if left else v >> s
                       for v in _bounds(a.kind, op) for s in shifts]
            kind = _kind(min(corners), max(corners))
        src, by = self._i64(a), self._i64(b)
        if not left and isinstance(a.kind, tuple):
            # Arithmetic; 63 already saturates an int64 to its sign.
            by = (f"np.minimum({by}, 63)" if b.const is None
                  else min(b.const, 63))
            return _V(f"({src} >> {by})", kind)
        if b.const is None:
            ufunc = "np.left_shift" if left else "np.right_shift"
            return _V(f"_shift_u64({ufunc}, {src}, {by})", kind)
        if b.const >= 64:
            return _V(f"({src} & 0)", kind)
        if left:
            return _V(f"({src} << {by})", kind)
        return _V(f"({self._as_u64(a)} >> {by}).view(_i64)", kind)

    def _call(self, call: ast.Call, sc: _Scope) -> _V:
        func = call.func
        if not isinstance(func, ast.Name):
            raise _NotVectorizable("computed call")
        if func.ident == "hash":
            return self._hash(call, sc)
        if func.ident not in ("min", "max") or not call.args:
            raise _NotVectorizable(f"call {func.ident!r}")
        vals = [self.expr(a, sc) for a in call.args]
        pick = min if func.ident == "min" else max
        if all(v.const is not None for v in vals):
            return self._const(pick(v.const for v in vals))
        unsigned = _unsigned([v.kind for v in vals], func.ident)
        bounds = [_bounds(v.kind, func.ident) for v in vals]
        read = self._as_u64 if unsigned else self._i64
        src = read(vals[0])
        for v in vals[1:]:
            src = f"np.{func.ident}imum({src}, {read(v)})"
        return _V(src + ".view(_i64)" if unsigned else src,
                  _kind(pick(lo for lo, _hi in bounds),
                        pick(hi for _lo, hi in bounds)))

    def _hash(self, call: ast.Call, sc: _Scope) -> _V:
        if not call.args:
            raise _NotVectorizable("hash() without seed")
        try:
            seed = _fold(call.args[0], self.consts, sc.scalars)
        except _NotStatic:
            raise _NotVectorizable("dynamic hash seed") from None
        fn = self.low.hash_fn(seed)
        if type(fn) is not MultiplyShiftHash:
            raise _NotVectorizable("non-multiply-shift hash family")
        # The hash reads its arguments mod 2**64 (the column's uint64
        # view), so every kind hashes bit-identically.
        vals = [self.expr(a, sc) for a in call.args[1:]]
        if all(v.const is not None for v in vals):
            return self._const(fn(*(v.const for v in vals),
                                  width=_HASH_WIDTH))
        bound = self._bind(fn.bind_vector(len(vals), _HASH_WIDTH), "h")
        cols = ", ".join(self._arr(v) for v in vals)
        return _V(self._local("t", f"{bound}({cols})"), (0, _HASH_WIDTH - 1))

    # -- statements ------------------------------------------------------------
    def _store(self, key: str, v: _V, sc: _Scope) -> None:
        """Record the unit's write of ``v`` to ``key``."""
        if sc.mode == "local":
            if v.const is None and not v.src.isidentifier():
                v = _V(self._local("w", v.src), v.kind, bool=v.bool)
        else:
            if sc.mode == "dict":
                self.emit(f"w[{key!r}] = {self._arr(v)}")
            else:
                self.emit(f"_action_write(w, wm, cols, {key!r}, "
                          f"{self._i64(v)}, m, n)")
            v = _V(f"w[{key!r}]", v.kind)
        sc.env[key] = v

    def _target(self, e: ast.Expr, sc: _Scope, what: str) -> str:
        """The allocated field a statement writes (any other: PhvError
        at commit, per packet, on the scalar engines)."""
        key = self.low.field_key(e, sc.scalars)
        if key not in self.masks:
            raise _NotVectorizable(f"dynamic or unallocated {what}")
        return key

    def stmt(self, s: ast.Stmt, sc: _Scope, effects: list) -> None:
        """Emit one statement; appends its register/table effects to
        ``effects`` as ``("reg", name, mutates)`` / ``("table", name)``
        tuples for the stage-level hazard rules."""
        if isinstance(s, ast.Assign):
            # Any kind: the commit masks to the field width, mod 2**64.
            key = self._target(s.target, sc, "assignment target")
            self._store(key, self.expr(s.value, sc), sc)
        elif not (isinstance(s, ast.CallStmt)
                  and isinstance(s.call.func, ast.Member)):
            raise _NotVectorizable(f"statement {type(s).__name__}")
        elif (s.call.func.name == "apply"
              and isinstance(s.call.func.base, ast.Name)):
            self._table_stmt(s.call.func.base.ident, sc, effects)
        else:
            self._register_stmt(s.call, sc, effects)

    def _register_stmt(self, call, sc: _Scope, effects: list) -> None:
        method = call.func.name
        if method not in _REG_METHODS:
            raise _NotVectorizable(f"register method {method!r}")
        array = self.low.register_array(call.func.base, sc.scalars)
        if type(array) is not RegisterArray:
            raise _NotVectorizable("dynamic or unresolved register")
        # Arguments after the destination: index, [condition,] value.
        dest, args = None, list(call.args)
        if _REG_METHODS[method] is not None:
            dest = self._target(args.pop(0), sc, "register destination")
        cells, g = array.cells, sc.guard
        on = f"[{g}]" if g else ""      # the lanes the unit runs on
        data = self._bind(array._data, "d")
        mask_u = self._bind(np.uint64(array.mask), "m")
        sort = "_u16" if cells <= _RADIX_CELLS else "_i64"

        v = self.expr(args[0], sc)
        if not isinstance(v.kind, tuple):
            raise _NotVectorizable("64-bit register index")
        if v.const is not None:
            idx = f"_full(n, {v.const % cells}, _i64)"
        elif 0 <= v.kind[0] and v.kind[1] < cells:
            idx = self._i64(v)
        elif cells & (cells - 1) == 0:
            idx = f"({self._i64(v)} & {cells - 1})"     # floor mod 2**k
        else:
            idx = self._shared(f"({self._i64(v)} % {cells})", sc)

        effects.append(("reg", array.name, method != "read"))
        if method == "read":
            result = f"{data}[{idx}].view(_i64)"
        elif "add" in method:
            # The increment: one constant on every lane, or a column
            # (zeroed where a cond_* condition fails).
            v = self.expr(args[-1], sc)
            if method.startswith("cond"):
                c = self.expr(args[1], sc)
                cond = self._truth(c, "register condition")
                if c.const is None:
                    v = _V(f"np.where({cond}, {self._i64(v)}, 0)", _MOD64)
                elif not c.const:
                    v = self._const(0)
            everywhere = v.const is not None and g is None
            amount = f"{self._arr(v)}.view(_u64){on}"
            if not method.endswith("read"):
                if everywhere:
                    amount = self._bind(np.uint64(v.const & _MASK64), "k")
                if array.mask == _MASK64:
                    mask_u = None
                self.emit(f"_reg_add({data}, {mask_u}, {idx}{on}, {amount})")
            elif everywhere:
                result = (f"_add_read_const({data}, {mask_u}, {idx}, {sort}, "
                          f"{_pattern(v.const)})")
            else:
                result = (f"_add_read({data}, {mask_u}, {idx}{on}, {sort}, "
                          f"{amount}, {g}, n)")
        else:
            # Stored as the cell keeps it: mod 2**width, any kind exact.
            stored = self._arr(self._masked(self.expr(args[1], sc),
                                            array.mask)) + f".view(_u64){on}"
            if method == "swap":
                result = (f"_reg_swap({data}, {idx}{on}, {sort}, {stored}, "
                          f"{g}, n)")
            elif method == "write":
                self.emit(f"_reg_write({data}, {idx}{on}, {stored})")
            else:   # max_update / min_update: order-free
                self.emit(f"np.{method[:3]}imum.at({data}, {idx}{on}, "
                          f"{stored})")
        if dest is not None:
            self._store(dest, _V(result, _kind(0, array.mask)), sc)

    # -- tables ----------------------------------------------------------------
    def _vec_action(self, name: str) -> _VecAction:
        """Vector-compile one declared action into a generated function
        (memoized). Failure does not island the stage: the action is
        bail-only, and only batches whose lanes select it run scalar."""
        act = self.actions.get(name)
        if act is not None:
            return act
        decl = self.pipeline.info.actions[name]
        params = [f"a{pos}" for pos in range(len(decl.params))]
        sc = _Scope("action", dict(zip((p.name for p in decl.params), params)))
        outer = self.lines, self.indent, self._cse
        self.lines, self.indent, self._cse = [], "    ", {}
        try:
            for s in decl.body.stmts:
                if not isinstance(s, ast.Assign):
                    raise _NotVectorizable("non-assignment in table action")
                key = self._target(s.target, sc, "action target")
                self._store(key, self.expr(s.value, sc), sc)
            written = {k: v.kind for k, v in sc.env.items()}
            act = _VecAction(len(params), written, True)
            self.defs.append(f"def _act_{name}(w, wm, cols, m, n"
                             f"{''.join(', ' + p for p in params)}):")
            self.defs.extend(self.lines or ["    pass"])
        except _NotVectorizable:
            act = _VecAction(len(params), {}, False)
        finally:
            self.lines, self.indent, self._cse = outer
        self.actions[name] = act
        return act

    def _table_stmt(self, table_name: str, sc: _Scope, effects: list) -> None:
        if sc.mode == "local":
            raise _Buffered("table apply")
        table = self.pipeline.tables.get(table_name)
        if table is None:
            raise _NotVectorizable("unknown table")   # interp raises KeyError
        if table.match_kinds != ["exact"] or len(table.key_fields) != 1:
            raise _NotVectorizable("non single-exact-key table")
        key = self._field_read(table.key_fields[0], sc)
        if not isinstance(key.kind, tuple):
            # The sorted-key cache matches int64 values, not bit patterns.
            raise _NotVectorizable("64-bit table key")
        actions = {name: self._vec_action(name)
                   for name in self.pipeline.info.actions}
        effects.append(("table", table_name))
        self.emit(f"{self._bind(_VecTable(table, actions), 't')}.apply("
                  f"{self._arr(key)}, {sc.guard}, w, wm, sh, cols, n)")
        # After the apply, a key any action may write holds its prior
        # value or the action's — in ``w`` or not, known only at run time.
        for act in actions.values():
            for akey, kind in act.written.items():
                prior = sc.env.get(akey, _V("", _kind(0, self.masks[akey])))
                sc.env[akey] = _V(f"_rd(w, cols, {akey!r}, n)",
                                  _join(prior.kind, kind))

    # -- stages ----------------------------------------------------------------
    def _guard(self, inst, sc: _Scope) -> bool:
        """Lower the unit's guard into ``sc.guard``; False when it is
        statically false and the unit never runs."""
        if inst.guard is None:
            return True
        g = self.expr(inst.guard, sc)
        if g.const is None:
            sc.guard = self._local("g", self._truth(g, "guard"))
        return g.const is None or bool(g.const)

    @staticmethod
    def _check_hazards(effects: list) -> None:
        """A register touched by >1 step (any of them mutating) needs
        per-packet interleaving; a table sharing a stage with a register
        mutation would make _VectorBail unsafe."""
        regs = [eff[1] for eff in effects if eff[0] == "reg"]
        mutated = {eff[1] for eff in effects if eff[0] == "reg" and eff[2]}
        for name in mutated:
            if regs.count(name) > 1:
                raise _NotVectorizable(f"register {name!r}: same-stage "
                                       f"read/update interleaving")
        if mutated and any(eff[0] == "table" for eff in effects):
            raise _NotVectorizable("table apply beside register mutation")

    def _form(self, splan, units, mode: str) -> None:
        """Emit the stage straight-line (``"local"``: all bodies against
        the stage-entry locals, then all commits; :class:`_Buffered`
        when that does not apply) or buffered (``"dict"``: per unit a
        write dict, the steps and a conflict-checked merge, one commit
        at stage exit; locals flushed before — actions and islands read
        the batch — and dropped after)."""
        buffered = mode == "dict"
        if buffered:
            self._flush()
            self.emit("try:")
            self.indent = "        "
            self.emit("c = {}; sh = {}")
        effects: list[tuple] = []
        written: dict[str, list] = {}
        for unit in units:
            sc = _Scope(mode)
            if not self._guard(unit.instance, sc):
                continue
            if buffered:
                self.emit("w = {}; wm = {}")
            for s in unit.instance.body:
                self.stmt(s, sc, effects)
            if buffered:
                self.emit(f"_merge(c, w, wm, {sc.guard or 'T'}, "
                          f"{unit.label!r}, {splan.stage})")
            elif written.keys() & sc.env.keys():
                raise _Buffered("units with overlapping write-sets")
            for key, v in sc.env.items():
                written.setdefault(key, []).append((v, sc.guard))
        self._check_hazards(effects)
        if not buffered:
            for key, [(v, guard)] in written.items():
                self._commit_local(key, v, guard)
            return
        # The commit compares what two units wrote to one key column
        # against column, which decides value equality only for kinds
        # that also compare (see _unsigned).
        for key, writes in written.items():
            if len(writes) > 1:
                _unsigned([v.kind for v, _guard in writes],
                          f"same-stage writes to {key!r}")
        self.emit("_commit(batch, c, _masks, hits, sh)")
        self.indent = "    "
        self.emit("except _VectorBail:")
        self.indent = "        "
        self._island(splan)

    def _island(self, splan) -> None:
        """The stage's scalar code over the (flushed) batch."""
        self.emit(f"_island({self._bind(splan, 'sp')}, batch, hits)")
        self.indent = "    "
        self.fields.clear()

    def stage(self, splan, units) -> str:
        """Emit one stage; returns the form it took (``straight-line``,
        ``buffered: <why>`` or ``island: <why>``)."""
        self.emit(f"# stage {splan.stage}")
        mark, entry = len(self.lines), dict(self.fields)
        form = "straight-line"
        for mode in ("local", "dict"):
            self._cse = {}
            try:
                self._form(splan, units, mode)
                return form
            except (_Buffered, _NotVectorizable) as exc:
                del self.lines[mark:]
                self.indent, self.fields = "    ", dict(entry)
                form, why = f"buffered: {exc}", exc
                if isinstance(exc, _NotVectorizable):
                    break
        self._flush()
        self._island(splan)
        return f"island: {why}"


# ---------------------------------------------------------------------------
# The vector plan: the generated function + scalar islands + batch front end
# ---------------------------------------------------------------------------


class VectorPlan:
    """One generated whole-batch function over a pipeline's scalar plan.

    ``ok`` is False when the whole program must stay scalar (a register
    reachable from more than one stage: running stage-at-a-time would
    not be sequence-equivalent); nothing below may be called then.

    ``source`` is the generated module, compiled once here, and
    ``run_stages(batch, hits)`` its ``_vector_run``: a pre-built batch
    through every stage, in place (the worker pool calls it on
    shared-memory column slices; :meth:`run_batch` wraps it with the
    result container). Columns the batch came with are read, never
    written: a field the program writes is rebound to a fresh array.
    ``stage_exec`` pairs each :class:`~repro.pisa.plan.StagePlan` with
    the function that runs it — that same one, stages being blocks of
    it — or None for a scalar island; ``forms`` says how each was emitted.
    """

    def __init__(self, pipeline):
        self.pipeline = pipeline
        self.plan = pipeline.plan
        self.masks = self.plan.masks
        #: Fields wider than 63 bits: stored as wrapped bit patterns.
        self.wide = frozenset(
            k for k, m in self.masks.items() if m > _I64_MAX)
        #: Commit masks; the int64 identity for 64-bit fields.
        self.mask_i64 = {k: np.int64(_pattern(m))
                         for k, m in self.masks.items()}
        self.forms: dict[int, str] = {}
        self.island_reasons: dict[int, str] = {}
        self.island_stages: list[int] = []
        self.stage_exec = [(splan, None) for splan in self.plan.stages]
        self.source = ""
        self.reason = self._shared_register()
        self.ok = not self.reason
        if not self.ok:
            return
        gen = _VecGen(self)
        for splan in self.plan.stages:
            form = gen.stage(splan, pipeline._stage_units[splan.stage])
            self.forms[splan.stage] = form
            if form.startswith("island: "):
                self.island_stages.append(splan.stage)
                self.island_reasons[splan.stage] = form[len("island: "):]
        gen._flush()
        self.source = "\n".join(gen.lines + gen.defs) + "\n"
        exec(compile(self.source, "<pisa-vector-plan>", "exec"), gen.ns)
        self.run_stages = gen.ns["_vector_run"]
        for name, act in gen.actions.items():
            act.fn = gen.ns.get(f"_act_{name}")
        self.stage_exec = [
            (splan,
             None if splan.stage in self.island_reasons else self.run_stages)
            for splan in self.plan.stages]

    def _shared_register(self) -> str:
        """Why stages cannot run batch-at-a-time: a register some second
        stage reaches — through its units or through an action of the
        table it applies — or "" when every register has one stage."""
        info = self.pipeline.info
        reg_stages: dict[str, set[int]] = {}
        for unit in self.pipeline.compiled.units:
            names = [f"{family}[{index}]"
                     for family, index in unit.instance.registers]
            # A tbl_* unit carries no register set of its own: what it
            # touches is what its table's declared actions touch.
            table = info.tables.get(unit.instance.table)
            for name in table.actions if table else ():
                action = info.actions.get(name)
                for s in action.body.stmts if action else ():
                    if not (isinstance(s, ast.CallStmt)
                            and isinstance(s.call.func, ast.Member)
                            and s.call.func.name in _REG_METHODS):
                        continue
                    base = s.call.func.base
                    array = self.plan.lowering.register_array(
                        base, {p.name for p in action.params})
                    if array is None:
                        return (f"action {name!r} of table {table.name!r} "
                                f"reaches register {pretty_expr(base)} "
                                f"through a dynamic instance")
                    names.append(array.name)
            for name in names:
                reg_stages.setdefault(name, set()).add(unit.stage)
        return next((f"register {name} spans multiple stages"
                     for name, stages in reg_stages.items()
                     if len(stages) > 1), "")

    # -- batch loading ---------------------------------------------------------
    def load_columns(self, columns: dict, n: int,
                     present: Optional[dict] = None) -> PhvBatch:
        """The one loader: ``{packet field: n raw values}`` to a
        :class:`PhvBatch` of resolved, width-masked int64 columns.

        Values are integer arrays of any width (unsigned 64-bit values
        keep their bit pattern) or, for raw values outside 64 bits,
        object arrays of Python ints, masked one by one. ``present`` maps
        a field to its lane mask where not every lane carries it.
        """
        resolve = self.pipeline._packet_key
        batch = PhvBatch({}, {}, n)
        for name, values in columns.items():
            key = resolve(name)
            if values.dtype == object:
                # The masked value is in [0, 2**64): go through uint64
                # and reinterpret as the int64 bit pattern.
                mask = self.masks[key]
                batch.cols[key] = np.fromiter(
                    (int(v) & mask for v in values),
                    dtype=np.uint64, count=n).view(np.int64)
            else:
                batch.cols[key] = (values.astype(np.int64, copy=False)
                                   & self.mask_i64[key])
            carried = present.get(name) if present else None
            batch.present[key] = (batch.all_true if carried is None
                                  else carried)
        return batch

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
        n, wide = batch.n, self.wide
        dicts = column_rows(batch.cols, batch.present, n, wide)
        hit_rows: list[dict] = []
        for phv in dicts:
            row: dict = {}
            splan.run(phv, row)
            hit_rows.append(row)
        for key in dict.fromkeys([*batch.cols, *(k for d in dicts for k in d)]):
            dtype = np.uint64 if key in wide else np.int64
            batch.cols[key] = np.fromiter(
                (d.get(key, 0) for d in dicts), dtype=dtype,
                count=n).astype(np.int64, copy=False)
            batch.present[key] = np.fromiter(
                (key in d for d in dicts), dtype=bool, count=n)
        for name in dict.fromkeys(name for row in hit_rows for name in row):
            hit = np.fromiter((row.get(name, False) for row in hit_rows),
                              dtype=bool, count=n)
            ran = np.fromiter((name in row for row in hit_rows),
                              dtype=bool, count=n)
            _merge_hits(hits, name, hit, ran if not ran.all() else None, n)

    # -- execution -------------------------------------------------------------
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
        """Human-readable vectorization summary: per stage the form it
        was emitted in (or why it is a scalar island) and its units."""
        if not self.ok:
            return f"vector plan disabled: {self.reason}"
        total = len(self.stage_exec)
        return "\n".join(
            [f"vector plan: {total - len(self.island_stages)}/{total} "
             f"stages vectorized"]
            + [f"  stage {sp.stage} ({self.forms[sp.stage]}): "
               + ", ".join(sp.units) for sp in self.plan.stages])
