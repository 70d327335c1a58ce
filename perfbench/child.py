"""One benchmark interpreter: set up a workload, optionally run its timed
region, check the outputs, and print one JSON record as the last line.

    python3 perfbench/child.py WORKLOAD SEED CLIENT MODE

``MODE`` is ``setup`` (stop when set-up is done), ``work`` or ``traced``
(the timed region under the span tracer). ``run.py`` starts these with
``src`` on ``PYTHONPATH`` and measures set-up from the moment it spawns
the interpreter to the ``ready`` time (``time.monotonic``, one clock for
every process on the host).
"""

from __future__ import annotations

import json
import resource
import sys
import time


def _openblas_threads() -> int | None:
    """Threads the OpenBLAS bundled with numpy will use (``None`` when the
    library cannot be found)."""
    import ctypes
    import glob
    import os

    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                        "numpy.libs", "libscipy_openblas*.so")
    for path in glob.glob(libs):
        getter = getattr(ctypes.CDLL(path),
                         "scipy_openblas_get_num_threads64_", None)
        if getter is not None:
            return int(getter())
    return None


def main(workload: str, seed: int, client: int, mode: str) -> dict:
    import repro  # noqa: F401  (import time is part of set-up)
    import workloads

    state = workloads.SETUP[workload](seed, client)
    record = {"ready": time.monotonic()}
    if mode == "setup":
        return record
    tracer = None
    if mode == "traced":
        from repro.batch.kernel import kernel_build_count
        from repro.batch.planner import worker_cache_info

        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        builds = kernel_build_count()
        cache = worker_cache_info()
    run = workloads.RUN[workload](state, tracer)
    if tracer is not None:
        after = worker_cache_info()
        layers, self_s = tracing.layer_metrics(
            tracer, wall_s=run.wall_s,
            kernel_builds=kernel_build_count() - builds,
            worker_cache={k: after[k] - cache[k] for k in ("hits", "misses")},
            journal_bytes=run.journal_bytes)
        record.update(layers=layers, self_s=self_s)
    import numpy
    import scipy

    record.update(
        wall_s=run.wall_s, latencies_s=run.latencies_s, solves=run.solves,
        tally=run.tally.as_dict(),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        versions={"python": sys.version.split()[0],
                  "numpy": numpy.__version__, "scipy": scipy.__version__,
                  "openblas_threads": _openblas_threads()})
    return record


if __name__ == "__main__":
    workload, seed, client, mode = sys.argv[1:5]
    print(json.dumps(main(workload, int(seed), int(client), mode)))
