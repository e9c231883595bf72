"""Pool smoke: one pooled 2-worker batch, armed to fail fast.

CI runs this under a 60-second ``timeout`` with ``faulthandler``
enabled (``PYTHONFAULTHANDLER=1``) so a deadlocked worker join dumps
every thread's stack and kills the runner step instead of hanging it
for the job timeout. Belt and braces, the script also arms
``faulthandler.dump_traceback_later`` itself at 45 seconds — inside
the outer timeout — so the stacks land in the log even when the
harness forgets the env var.

Checks, beyond "it returns": the batch really ran on the pool (no
silent degradation), the merged register state is bit-identical to a
single-process run, and ``close()`` leaves no live children.
"""

import faulthandler
import multiprocessing
import sys

faulthandler.enable()
faulthandler.dump_traceback_later(45, exit=True)

from repro.core import compile_source  # noqa: E402
from repro.pisa import Packet, Pipeline, small_target  # noqa: E402
from repro.structures import CMS_SOURCE  # noqa: E402

PACKETS = 20_000
WORKERS = 2


def main() -> int:
    compiled = compile_source(CMS_SOURCE, small_target(stages=6, memory_kb=32))
    packets = [Packet(fields={"flow_id": i % 997}) for i in range(PACKETS)]

    seq = Pipeline(compiled, engine="vector")
    seq.process_many(packets, collect=False)
    expected = {name: list(seq.registers.get(name).dump())
                for name in seq.registers.names()}

    with Pipeline(compiled, engine="vector") as pipe:
        n = pipe.process_many(packets, collect=False, workers=WORKERS)
        report = pipe.last_shard_report
        print(f"pooled batch: {n} packets, mode={report['mode']}, "
              f"counts={report['counts']}")
        if report["mode"] != "pool":
            print(f"FAIL: degraded to {report['mode']}")
            return 1
        merged = {name: list(pipe.registers.get(name).dump())
                  for name in pipe.registers.names()}
        if merged != expected:
            print("FAIL: pooled register state diverges from single-process")
            return 1

    children = multiprocessing.active_children()
    if children:
        print(f"FAIL: live children after close(): {children}")
        return 1
    print("pool smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
