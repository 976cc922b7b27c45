"""Set-up probe: what every ``repro run`` pays before its first point.

Run in a fresh interpreter as ``python setup_probe.py <scenario> <bits>
<executor> <workers>``.  It imports ``repro``, resolves the scenario through
``repro.frontdoor``, resolves the compute kernel and starts the executor (for
``process``, a pool with every worker running), then prints one JSON line
with the time of each step and the host fingerprint, and only then shuts the
pool down.  The caller times the interval from spawn to that line.
"""

from __future__ import annotations

import time

_start = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402


def main(scenario_name: str, bits: int, executor_name: str, workers: int) -> None:
    import repro  # noqa: F401

    imported = time.perf_counter()
    import numpy
    from repro import frontdoor
    from repro.kernels import get_kernel
    from repro.scenarios.executors import resolve_executor, usable_cpu_count

    scenario = frontdoor.resolve_scenario(name=scenario_name, bits=bits)
    resolved = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        kernel = get_kernel(scenario.kernel)
    kernel_loaded = time.perf_counter()
    pool = None
    executor = resolve_executor(executor_name, workers if executor_name == "process" else None)
    if executor_name == "process":
        import concurrent.futures
        import multiprocessing

        pool = concurrent.futures.ProcessPoolExecutor(
            max_workers=workers, mp_context=multiprocessing.get_context(executor.start_method)
        )
        for future in [pool.submit(os.getpid) for _ in range(workers)]:
            future.result()
    started = time.perf_counter()
    compiler = os.environ.get("CC") or shutil.which("cc") or shutil.which("gcc")
    print(
        json.dumps(
            {
                "import_s": imported - _start,
                "resolve_s": resolved - imported,
                "kernel_load_s": kernel_loaded - resolved,
                "pool_start_s": started - kernel_loaded,
                "fingerprint": {
                    "cpu_count": usable_cpu_count(),
                    "python": platform.python_version(),
                    "numpy": numpy.__version__,
                    "compiler": compiler,
                    "kernel": kernel.name,
                    "fallback_warnings": [str(warning.message) for warning in caught],
                },
            }
        ),
        flush=True,
    )
    if pool is not None:
        pool.shutdown(wait=True)


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]), sys.argv[3], int(sys.argv[4]))
