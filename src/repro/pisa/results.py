"""Per-packet results and the lane-ordered batch container.

:class:`PipelineResult` is one packet's outcome. :class:`BatchResults`
is what ``Pipeline.process_many``/``process_columns`` (``collect=True``)
return on every engine:
a read-only sequence of :class:`PipelineResult` rows in lane order.
The scalar engines and the sharded gathers hand it finished rows; the
vector engine hands it the batch's PHV columns and table-hit masks, and
rows are built only if someone indexes or iterates. Controllers that
scan a field across the batch (NetCache's hit/hot-key scan) read
:meth:`BatchResults.column` / :meth:`BatchResults.hit_column` instead
and never pay for the rows.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

__all__ = ["PipelineResult", "BatchResults", "column_rows"]


@dataclass
class PipelineResult:
    """Per-packet outcome: final PHV values and table hit flags."""

    phv: dict[str, int]
    table_hits: dict[str, bool] = field(default_factory=dict)

    def get(self, key: str, default: int = 0) -> int:
        return self.phv.get(key, default)

    def hit(self, table: str) -> bool:
        return self.table_hits.get(table, False)


def column_rows(cols: dict, present: dict, n: int, wide=()) -> list[dict]:
    """Per-lane dicts from struct-of-arrays columns: lane ``i``'s dict
    carries ``key`` only where ``present[key][i]``. Columns named in
    ``wide`` hold 64-bit values as int64 bit patterns and convert back
    to unsigned on the way out."""
    rows: list[dict] = [{} for _ in range(n)]
    for key, col in cols.items():
        if key in wide:
            col = col.view(np.uint64)
        vals = col.tolist()
        pres = present[key]
        if pres.all():
            for row, v in zip(rows, vals):
                row[key] = v
        else:
            for i in np.nonzero(pres)[0].tolist():
                rows[i][key] = vals[i]
    return rows


class BatchResults(Sequence):
    """Lane-ordered results of one ``process_many(collect=True)`` call.

    Indexing, slicing, iteration and ``len`` behave like the row list
    this class replaces. ``column(key)`` and ``hit_column(table)`` give
    the same information one field across all lanes, without building
    rows when the results came from the vector engine.
    """

    def __init__(self, rows: list[PipelineResult] | None = None, wide=()):
        self._rows = rows
        #: (cols, present, n, hits) per vector chunk, in lane order; the
        #: source of truth when non-empty (``_rows`` is then a cache).
        self._chunks: list[tuple] = []
        self._wide = wide
        self._n = 0 if rows is None else len(rows)

    def add_chunk(self, cols: dict, present: dict, n: int, hits: dict) -> None:
        """Append ``n`` lanes held as columns: ``cols``/``present`` as in
        :class:`~repro.pisa.vector.PhvBatch`, ``hits`` mapping table name
        to its ``(hit, ran)`` lane masks. The arrays are kept, not
        copied — the caller must not write to them afterwards."""
        if self._n and not self._chunks:
            raise TypeError("cannot add column chunks to row-backed results")
        self._chunks.append((cols, present, n, hits))
        self._n += n
        self._rows = None

    def extend(self, other: "BatchResults") -> None:
        """Append another columnar result set (the next vector chunk)."""
        if len(other) and not other._chunks:
            raise TypeError("cannot extend with row-backed results")
        for chunk in other._chunks:
            self.add_chunk(*chunk)

    def _built(self) -> list[PipelineResult]:
        if self._rows is None:
            rows: list[PipelineResult] = []
            for cols, present, n, hits in self._chunks:
                phvs = column_rows(cols, present, n, self._wide)
                hit_rows = column_rows(
                    {name: h for name, (h, _r) in hits.items()},
                    {name: r for name, (_h, r) in hits.items()}, n)
                rows.extend(PipelineResult(phv=p, table_hits=t)
                            for p, t in zip(phvs, hit_rows))
            self._rows = rows
        return self._rows

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, index):
        return self._built()[index]

    def __iter__(self):
        return iter(self._built())

    def column(self, key: str) -> np.ndarray:
        """PHV field ``key`` across all lanes as unsigned 64-bit values,
        0 where a lane does not carry the field (``result.get(key)``)."""
        if not self._chunks:
            return np.fromiter((r.phv.get(key, 0) for r in self._rows or ()),
                               dtype=np.uint64, count=self._n)
        return _read_only([
            cols[key].view(np.uint64) if key in cols
            else np.zeros(n, dtype=np.uint64)
            for cols, _present, n, _hits in self._chunks])

    def hit_column(self, table: str) -> np.ndarray:
        """Whether each lane hit ``table``; False where the table never
        ran for the lane (``result.hit(table)``)."""
        if not self._chunks:
            return np.fromiter(
                (r.table_hits.get(table, False) for r in self._rows or ()),
                dtype=np.bool_, count=self._n)
        return _read_only([
            hits[table][0] if table in hits else np.zeros(n, dtype=np.bool_)
            for _cols, _present, n, hits in self._chunks])


def _read_only(parts: list) -> np.ndarray:
    """One array over the chunk parts that callers cannot write through
    (a single part is a view of the kept column, not a copy)."""
    out = parts[0].view() if len(parts) == 1 else np.concatenate(parts)
    out.flags.writeable = False
    return out
