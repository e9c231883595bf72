"""Match-action table memory accounting (§4.4 extension).

The paper's ILP "does not consider the placement of match-action tables"
but notes there is "no fundamental reason" it could not. This
reproduction places table-apply units like actions and always charges
each table's SRAM footprint — entries × (key bits + action-data
overhead) — against the memory of the stage it lands in. The PISA simulator validates the same
accounting at load time.
"""

from __future__ import annotations

from ..analysis.ir import field_key
from ..lang import ast
from ..lang.errors import SemanticError
from ..lang.symbols import ProgramInfo, eval_static

__all__ = ["table_memory_bits", "DEFAULT_TABLE_SIZE", "ACTION_DATA_OVERHEAD_BITS"]

#: Entries assumed when a table declares no ``size``.
DEFAULT_TABLE_SIZE = 1024
#: Per-entry overhead for action id + action data words.
ACTION_DATA_OVERHEAD_BITS = 32


def _key_width(expr: ast.Expr, info: ProgramInfo) -> int:
    """Width of one table key field (metadata/header lookup; 32 default)."""
    key = field_key(expr, info.consts)
    if key.startswith("meta."):
        base = key[len("meta."):].split("[")[0]
        field = info.metadata.get(base)
        if field is not None:
            return field.width
    if key.startswith("hdr."):
        return info.header_fields.get(key[len("hdr."):], 32)
    return 32


def table_memory_bits(table: ast.TableDecl, info: ProgramInfo) -> int:
    """SRAM bits one table occupies in its stage.

    ``entries * (sum of key widths + overhead)``; ternary keys double
    their width (value + mask).
    """
    entries = DEFAULT_TABLE_SIZE
    if table.size is not None:
        try:
            entries = int(eval_static(table.size, info.consts))
        except SemanticError:
            entries = DEFAULT_TABLE_SIZE
    width = ACTION_DATA_OVERHEAD_BITS
    for key in table.keys:
        bits = _key_width(key.expr, info)
        if key.match_kind == "ternary":
            bits *= 2
        width += bits
    return entries * width
