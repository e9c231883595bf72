"""Reusable elastic data-structure library (the paper's Figure 1).

Each structure ships as an elastic **P4All module** — prefixed source
fragments composable into applications via :func:`compose` — plus a
standalone ``*_SOURCE`` program under ``p4all_src/`` (the ID-indexed
table ships only the latter). The count-min sketch and the key-value
store also ship a fast Python model, which NetCache's workload-scale
simulation runs; the other structures' reference semantics, which the
tests compare the compiled pipelines against, live under
``tests/structures/reference.py``.

Catalogue (module → papers that use it, per Figure 1):

=====================  =====================================================
count-min sketch       NetCache, SketchLearn, ConQuest, UnivMon, ...
key-value store        NetCache, NetChain, Precision, HashPipe, ...
Bloom filter           NetCache, FlowRadar, SilkRoad, ...
counting hash table    Precision, HashPipe, FlowRadar, ...
hierarchical sketch    SketchLearn
ID-indexed table       Blink
=====================  =====================================================
"""

from .bloom import BLOOM_SOURCE, bloom_module
from .cms import CMS_SOURCE, CountMinSketch, cms_module
from .hashtable import HASHTABLE_SOURCE, hashtable_module
from .hierarchical import SKETCHLEARN_SOURCE, hierarchical_module
from .idtable import IDTABLE_SOURCE
from .kvstore import KV_SOURCE, KeyValueStore, kv_module
from .matrix import MATRIX_SOURCE, matrix_module
from .module import P4AllModule, compose

__all__ = [
    "BLOOM_SOURCE",
    "bloom_module",
    "CMS_SOURCE",
    "CountMinSketch",
    "cms_module",
    "HASHTABLE_SOURCE",
    "hashtable_module",
    "SKETCHLEARN_SOURCE",
    "hierarchical_module",
    "IDTABLE_SOURCE",
    "KV_SOURCE",
    "KeyValueStore",
    "kv_module",
    "MATRIX_SOURCE",
    "matrix_module",
    "P4AllModule",
    "compose",
    "LIBRARY_SOURCES",
]

#: name → standalone program text for every library structure.
LIBRARY_SOURCES = {
    "cms": CMS_SOURCE,
    "bloom": BLOOM_SOURCE,
    "kvstore": KV_SOURCE,
    "hashtable": HASHTABLE_SOURCE,
    "hierarchical": SKETCHLEARN_SOURCE,
    "matrix": MATRIX_SOURCE,
    "idtable": IDTABLE_SOURCE,
}
