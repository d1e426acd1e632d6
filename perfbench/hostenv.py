"""Pinned process environment and host fingerprint of a benchmark run.

Every run pins the BLAS/OpenMP pools to one thread and clears the
repository's ``REPRO_*`` knobs before NumPy is imported.  On a 2-core host
two pool workers that each start a multi-threaded BLAS oversubscribe the
cores: the 2-worker query engine ran at 1,670-1,740 q/s unpinned against
3,300-3,450 q/s pinned, and serial ``embed_graph`` on R-MAT 2^12 spread
8.3-10.8 s unpinned against 9.8-10.4 s pinned.
"""

from __future__ import annotations

import os
import platform
import sys
from typing import Dict, List, MutableMapping

#: Thread-pool variables read by OpenBLAS, MKL, BLIS, OpenMP, Accelerate
#: and numexpr when the library loads; all are pinned to one thread.
THREAD_PINS: Dict[str, str] = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

#: Prefix of the repository's environment knobs (``REPRO_EXECUTION``,
#: ``REPRO_WORKERS``, ``REPRO_PIPELINE_DEPTH``, ``REPRO_BACKING``,
#: ``REPRO_SPILL_DIR``, ``REPRO_IPC_AUDIT``, ``REPRO_BENCH_*``...).
KNOB_PREFIX = "REPRO_"


def pin_environment(environ: MutableMapping[str, str]) -> List[str]:
    """Pin the thread pools and drop every ``REPRO_*`` knob.

    Must run before NumPy is imported: the BLAS reads its thread count
    once, when the library loads.  Returns the names of the knobs removed.
    """
    environ.update(THREAD_PINS)
    cleared = sorted(name for name in environ if name.startswith(KNOB_PREFIX))
    for name in cleared:
        del environ[name]
    return cleared


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit(root: str) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head_path = os.path.join(root, ".git", "HEAD")
    try:
        with open(head_path, encoding="utf-8") as handle:
            head = handle.read().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            with open(os.path.join(root, ".git", ref),
                      encoding="utf-8") as handle:
                return handle.read().strip()
        return head
    except OSError:
        return "unknown (not a git checkout)"


def _blas() -> Dict[str, str]:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": str(deps.get("name")),
                "version": str(deps.get("version"))}
    except (TypeError, KeyError):
        return {"name": "unknown", "version": "unknown"}


def fingerprint(root: str) -> Dict[str, object]:
    """Cores, CPU model, interpreter/NumPy/BLAS versions, pins, commit."""
    import numpy as np

    return {
        "cores": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": _blas(),
        "thread_pins": {name: os.environ.get(name) for name in THREAD_PINS},
        "repro_knobs_set": sorted(name for name in os.environ
                                  if name.startswith(KNOB_PREFIX)),
        "commit": _commit(root),
    }
