"""One verdict in a fresh interpreter: the child process of ``run.py``.

    python3 perfbench/verdict.py JOB RESULT TRACE [SPANS]

JOB is a pickle written by ``run.py`` holding the workload name, its inputs
and their expected outputs; TRACE is 1 to wrap the library's public
functions (``tracing.py``) and 0 not to.  The child imports realityvote
from ``src/``, loads the job, runs the workload's verdict once (timed here,
from the first library call to the last), checks every output and writes a
JSON result to RESULT.  A traced child also writes its spans to SPANS when
that path is given.  The child runs the host-speed probe (``calibrate.py``)
just before and just after the verdict, and during an untraced one, and
returns those times too; the verdict's times leave out the probes' time.
Because every verdict has an interpreter of its own, no cache or memo of the
library carries over from one verdict to the next, and the peak resident
memory is that of the import, the verdict's inputs and the library's calls.
"""

from __future__ import annotations

import os

# Pin numpy/BLAS to one thread before anything imports numpy.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import pickle  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main(argv) -> int:
    job_path, result_path, trace = argv[0], argv[1], argv[2] == "1"
    spans_path = argv[3] if len(argv) > 3 else None
    sys.path.insert(0, HERE)
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import realityvote  # noqa: F401

    import_s = time.perf_counter() - start
    import workloads as wl
    from calibrate import Sampler, probes
    from tracing import Tracer

    with open(job_path, "rb") as handle:
        job = pickle.load(handle)
    workload = wl.WORKLOADS[job["workload"]]
    inputs, expected = job["inputs"], job["expected"]
    # The inputs and references stay alive for the whole verdict; keep them
    # out of the collector's scans of the library's objects.
    gc.collect()
    gc.freeze()

    probe_s = probes()
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    # The probes sample the host during untraced verdicts only, so that no
    # span of a traced one holds probe time.
    sampler = None if trace else Sampler()
    runner = wl.Runner(tracer, sampler)
    verdict_start = time.perf_counter()
    with sampler or contextlib.nullcontext():
        outputs = workload.verdict(inputs, runner)
    verdict_s = time.perf_counter() - verdict_start - runner.probe_overhead()
    if tracer is not None:
        tracer.uninstall()
    probe_s += probes() + ([] if sampler is None else sampler.samples)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failed, disagreements = workload.check(inputs, outputs, expected)
    result = {
        "import_s": import_s,
        "verdict_s": verdict_s,
        "latencies": runner.latencies,
        "attempted": len(outputs),
        "failed": failed,
        "formula_disagreements": disagreements,
        "units": workload.units(inputs),
        "errors": runner.errors[:20],
        "peak_rss_mb": peak_rss_mb,
        "probe_s": probe_s,
        "trace": None if tracer is None else tracer.summary(),
    }
    if tracer is not None and spans_path is not None:
        tracer.write_spans(spans_path)
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
