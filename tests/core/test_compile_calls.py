"""The fixed cost of one cold compile, as a count of calls.

A cold compile of linked NetCache on the 6-stage, 64 Kb target is what
the elastic runtime pays on every target it has not seen. Its wall time
is mostly HiGHS and the Python around it; the Python part is counted
here — every Python-level and C call under ``sys.setprofile`` — so a
gate on it reads no clock and a change that adds work around the solver
shows. HiGHS's own work is one C call per solve and does not move the
count. CI prints it beside :data:`COMPILE_CALLS` and fails above 1.1×.

Print the count with::

    PYTHONPATH=src python -m tests.core.test_compile_calls
"""

import dataclasses

from repro.apps import netcache_linked
from repro.core import compile_linked
from repro.pisa import tofino

from ..pisa.test_vector_wide import count_calls

#: ``calls_per_compile()`` under Python 3.11 once the IR's trees were
#: shared, the bounds graph grown per K and the solve path's per-model
#: data cached (99 851 before), and the option objects folded into
#: one (50 201 before)
COMPILE_CALLS = 50_196


def t6():
    return dataclasses.replace(tofino(), stages=6, memory_bits_per_stage=65536)


def calls_per_compile() -> int:
    """Calls one cold ``compile_linked(netcache_linked(with_routing=False),
    t6)`` makes in a warm process: the same compile runs once first, so
    imports, the HiGHS binding and module-level caches are loaded, and
    the counted one shares nothing with it but the process."""
    compile_linked(netcache_linked(with_routing=False), t6())
    linked, target = netcache_linked(with_routing=False), t6()
    return count_calls(lambda: compile_linked(linked, target))


def test_calls_per_cold_compile():
    assert calls_per_compile() <= 1.1 * COMPILE_CALLS


if __name__ == "__main__":
    print(calls_per_compile())
