"""Loading target specifications.

The P4All compiler "takes a target specification (that summarizes the
target's capabilities and resources) as input" (§1). Predefined specs
live in :mod:`repro.pisa.resources`; this module adds a JSON interchange
format so users can describe their own targets::

    {
        "name": "my-switch",
        "stages": 12,
        "memory_bits_per_stage": 1048576,
        "stateful_alus_per_stage": 4,
        "stateless_alus_per_stage": 64,
        "phv_bits": 2048,
        "hash_units_per_stage": 6
    }
"""

from __future__ import annotations

import json
from pathlib import Path

from .resources import TargetSpec

__all__ = ["target_from_dict", "load_target"]

_REQUIRED = (
    "name",
    "stages",
    "memory_bits_per_stage",
    "stateful_alus_per_stage",
    "stateless_alus_per_stage",
    "phv_bits",
)
_OPTIONAL = (
    "hash_units_per_stage",
    "stateful_weight",
    "stateless_weight",
    "hash_weight",
    "notes",
)


def target_from_dict(data: dict) -> TargetSpec:
    """Build a :class:`TargetSpec` from a plain dict (validated)."""
    missing = [key for key in _REQUIRED if key not in data]
    if missing:
        raise ValueError(f"target spec missing fields: {', '.join(missing)}")
    unknown = [k for k in data if k not in _REQUIRED + _OPTIONAL]
    if unknown:
        raise ValueError(f"target spec has unknown fields: {', '.join(unknown)}")
    kwargs = {key: data[key] for key in data}
    return TargetSpec(**kwargs)


def load_target(path: str | Path) -> TargetSpec:
    """Read a JSON target specification from disk."""
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict):
        raise ValueError(f"{path}: target spec must be a JSON object")
    return target_from_dict(data)
