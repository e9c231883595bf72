"""Register-state migration between compiled layouts.

A hot swap (single switch) or a live app migration (fabric) replaces
the serving pipeline mid-stream; without migration the new structures
start cold and quality collapses until they re-learn. This module is
the structure-generic machinery both paths share:

* :func:`snapshot_registers` captures a pipeline's register arrays at a
  quiesce point (see :meth:`~repro.pisa.pipeline.Pipeline.quiesce`) as
  a :class:`RegisterSnapshot` — plain numpy arrays plus geometry, cheap
  to hold, pickle, or ship between fabric switches;
* :func:`restore_registers` maps a snapshot onto another pipeline's
  arrays. Same-geometry instances load directly; counter-style arrays
  whose cell count changed are **folded**: keys index a row by
  ``h(key) mod cols``, so when the column count shrinks from ``C_old``
  to ``C_new`` every old cell ``j`` contributes to new cell
  ``j mod C_new``. Summing contributions preserves the count-min
  overestimate invariant exactly when ``C_new`` divides ``C_old`` (each
  key's new cell aggregates precisely the old cells that could have
  counted it) and remains a safe overestimate otherwise. With
  ``accumulate=True`` the restored values are *added* onto the target's
  existing contents (a fabric switch absorbing a drained peer's sketch
  on top of its own);
* :func:`readmit_by_heat` re-admits exported entries *by heat*: every
  ``(key, value)`` pair is ranked by a caller-supplied estimate and
  re-installed hottest-first. Entries whose candidate slots are all
  taken are dropped — the structure shrank, and the coldest entries are
  the ones to lose.

:meth:`NetCacheApp.migrate_to <repro.apps.netcache.NetCacheApp.migrate_to>`
composes the three: snapshot the CMS family, fold-restore it,
heat-readmit the cached KV entries. The caller (the runtime's hot swap
or the fabric's live migration) validates the populated app and rolls
back if anything fails — the source app is never mutated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

__all__ = [
    "MigrationReport",
    "QuiesceError",
    "RegisterSnapshot",
    "RestoreReport",
    "snapshot_registers",
    "restore_registers",
    "readmit_by_heat",
    "fold_counters",
]


class QuiesceError(RuntimeError):
    """A bulk register operation was attempted mid-batch.

    Snapshots taken between arbitrary packets of a running batch can
    observe torn state (e.g. a controller's paired key/value writes
    half-applied). Request the operation through
    :meth:`~repro.pisa.pipeline.Pipeline.quiesce` instead.
    """


@dataclass
class MigrationReport:
    """What a migration moved and what it lost."""

    kv_entries_old: int = 0
    kv_migrated: int = 0
    kv_dropped: int = 0
    cms_rows_migrated: int = 0
    cms_rows_dropped: int = 0
    cms_exact_fold: bool = True
    cms_mass_old: int = 0
    cms_mass_new: int = 0
    notes: list[str] = field(default_factory=list)

    @property
    def kv_loss_fraction(self) -> float:
        if self.kv_entries_old == 0:
            return 0.0
        return self.kv_dropped / self.kv_entries_old

    def to_dict(self) -> dict:
        return {
            "kv_entries_old": self.kv_entries_old,
            "kv_migrated": self.kv_migrated,
            "kv_dropped": self.kv_dropped,
            "kv_loss_fraction": self.kv_loss_fraction,
            "cms_rows_migrated": self.cms_rows_migrated,
            "cms_rows_dropped": self.cms_rows_dropped,
            "cms_exact_fold": self.cms_exact_fold,
            "cms_mass_old": self.cms_mass_old,
            "cms_mass_new": self.cms_mass_new,
        }


def fold_counters(old: np.ndarray, new_cells: int, mask: int) -> tuple[np.ndarray, bool]:
    """Fold a counter row onto ``new_cells`` cells (see module docstring).

    Returns ``(folded, exact)`` where ``exact`` is True when the fold is
    an exact re-aggregation (same size, or the old size is a multiple of
    the new one).
    """
    old_cells = len(old)
    if new_cells == old_cells:
        return old.copy(), True
    src = old.astype(np.uint64)
    folded = np.zeros(new_cells, dtype=np.uint64)
    np.add.at(folded, np.arange(old_cells) % new_cells, src)
    exact = old_cells % new_cells == 0 if new_cells < old_cells else False
    return folded & np.uint64(mask), exact


# -- structure-generic snapshot / restore ---------------------------------------
@dataclass
class RegisterSnapshot:
    """A pipeline's register image at one quiesce point.

    ``arrays`` maps concrete instance names (``family[index]``) to
    copies of their cell values; ``widths`` carries each instance's cell
    width so a restore onto a narrower target can re-mask. The snapshot
    is plain data — picklable, so fabric workers can ship it between
    processes.
    """

    arrays: dict[str, np.ndarray] = field(default_factory=dict)
    widths: dict[str, int] = field(default_factory=dict)
    packets_processed: int = 0

    def families(self) -> list[str]:
        """Distinct register families in the snapshot, sorted."""
        return sorted({name.partition("[")[0] for name in self.arrays})

    @property
    def total_cells(self) -> int:
        return sum(len(a) for a in self.arrays.values())

    def mass(self, family: str | None = None) -> int:
        """Sum of all cell values (optionally one family's) — the
        conservation check counter folds are audited against."""
        total = 0
        for name, values in self.arrays.items():
            if family is None or name.partition("[")[0] == family:
                total += int(values.astype(np.uint64).sum())
        return total


@dataclass
class RestoreReport:
    """Outcome of mapping one snapshot onto one pipeline."""

    loaded: int = 0                 #: instances restored 1:1 (same cells)
    folded: int = 0                 #: instances re-aggregated onto new cells
    dropped: int = 0                #: snapshot instances with no target array
    exact: bool = True              #: every fold was an exact re-aggregation
    mass_in: int = 0                #: total cell mass read from the snapshot
    mass_out: int = 0               #: total cell mass written to the target

    @property
    def migrated(self) -> int:
        return self.loaded + self.folded


def _family_of(name: str) -> str:
    return name.partition("[")[0]


def snapshot_registers(pipeline, families: Iterable[str] | None = None,
                       ) -> RegisterSnapshot:
    """Capture ``pipeline``'s register arrays (optionally a subset of
    families) as a :class:`RegisterSnapshot`.

    Must be called at a quiesce point: raises :class:`QuiesceError` if a
    :meth:`~repro.pisa.pipeline.Pipeline.process_many` batch is in
    flight. From a batch callback, defer through
    ``pipeline.quiesce(lambda: snapshot_registers(pipeline))`` — the
    snapshot then runs at the next inter-packet drain boundary.
    """
    if getattr(pipeline, "in_batch", False):
        raise QuiesceError(
            "snapshot_registers called mid-batch; request it via "
            "Pipeline.quiesce() so it runs at a drain point"
        )
    wanted = set(families) if families is not None else None
    snap = RegisterSnapshot(
        packets_processed=getattr(pipeline, "packets_processed", 0)
    )
    for name in pipeline.registers.names():
        if wanted is not None and _family_of(name) not in wanted:
            continue
        array = pipeline.registers.get(name)
        snap.arrays[name] = array.dump()
        snap.widths[name] = array.width
    return snap


def restore_registers(snapshot: RegisterSnapshot, pipeline,
                      families: Iterable[str] | None = None,
                      fold: bool = True,
                      accumulate: bool = False) -> RestoreReport:
    """Map ``snapshot`` onto ``pipeline``'s registers.

    Same-cell-count instances load directly; with ``fold=True`` a
    cell-count mismatch is folded via :func:`fold_counters` (counter
    semantics — safe overestimate), otherwise it is dropped. With
    ``accumulate=True`` restored values are added onto the target's
    existing contents instead of replacing them (masked to the target
    width). Snapshot instances with no same-named target array are
    counted as ``dropped``. Subject to the same quiesce discipline as
    :func:`snapshot_registers`.
    """
    if getattr(pipeline, "in_batch", False):
        raise QuiesceError(
            "restore_registers called mid-batch; request it via "
            "Pipeline.quiesce() so it runs at a drain point"
        )
    wanted = set(families) if families is not None else None
    report = RestoreReport()
    for name, values in snapshot.arrays.items():
        if wanted is not None and _family_of(name) not in wanted:
            continue
        if name not in pipeline.registers:
            report.dropped += 1
            continue
        dst = pipeline.registers.get(name)
        report.mass_in += int(values.astype(np.uint64).sum())
        if len(values) == dst.cells:
            incoming = values.astype(np.uint64) & np.uint64(dst.mask)
            report.loaded += 1
        else:
            if not fold:
                report.dropped += 1
                continue
            incoming, exact = fold_counters(values, dst.cells, dst.mask)
            report.exact = report.exact and exact
            report.folded += 1
        if accumulate:
            incoming = (incoming + dst.dump()) & np.uint64(dst.mask)
        dst.load(incoming)
        report.mass_out += int(incoming.sum())
    return report


def readmit_by_heat(
    entries: Iterable[tuple[int, int]],
    heat: Callable[[int], int],
    install: Callable[[int, int], bool],
) -> tuple[int, int]:
    """Re-admit ``(key, value)`` entries hottest-first through ``install``.

    ``heat(key)`` ranks the entries (e.g. the *source* sketch's
    estimate — the destination hasn't seen the traffic yet);
    ``install(key, value)`` returns False when no candidate slot is
    free, and that entry is dropped. Duplicate keys are installed once.
    Returns ``(migrated, dropped)``.
    """
    ranked = sorted(((heat(key), key, value) for key, value in entries),
                    reverse=True)
    migrated = dropped = 0
    seen: set[int] = set()
    for _heat, key, value in ranked:
        if key in seen:
            continue
        seen.add(key)
        if install(key, value):
            migrated += 1
        else:
            dropped += 1
    return migrated, dropped
