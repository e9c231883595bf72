"""SketchLearn: automated flow inference with a multi-level sketch.

SketchLearn (Figure 1/11) maintains one counter level per key bit plus a
total level; the controller fits per-level Gaussians and extracts large
flows with their identifiers. Here the data plane is the elastic
hierarchical-sketch module. The per-packet runner and its large-flow
extraction (the bit-ratio test, the part the data structure determines)
are the tests' reference, in ``tests/apps/reference.py``.
"""

from __future__ import annotations

from ..structures import compose, hierarchical_module

__all__ = ["sketchlearn_source"]


def sketchlearn_source(key_bits: int = 8, max_cols: int = 65536) -> str:
    """Compose the elastic SketchLearn program (one sketch, fixed levels)."""
    sl = hierarchical_module(
        prefix="sl", key_field="meta.flow_id", key_bits=key_bits,
        max_cols=max_cols, seed_offset=300,
    )
    return compose(
        modules=[sl],
        extra_metadata=["bit<32> flow_id;"],
        utility=sl.utility_term,
    )
