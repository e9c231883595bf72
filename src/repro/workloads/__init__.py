"""Synthetic workloads: Zipf key traces, churn, and flow traces."""

from .churn import ChurningZipf
from .trace import FlowTrace, synthesize_trace
from .zipf import ZipfGenerator

__all__ = [
    "ChurningZipf",
    "FlowTrace",
    "synthesize_trace",
    "ZipfGenerator",
]
