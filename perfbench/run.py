"""realityvote benchmark: one workload, one seed, one closed loop.

    python3 perfbench/run.py --workload oracle_sweep --seed 1 --seconds 25 --trace 0

Run from the repository root (any directory works; paths are resolved from
this file).  The library is imported from ``src/`` next to this directory.
This process times the set-up (import and input generation), computes the
expected outputs, and then runs verdicts (the workload's fixed set of calls)
one after another, each in a fresh interpreter of its own (``verdict.py``)
that times and checks it, while the next one fits in ``--seconds``.  One
process and one thread make the library calls at any time.  The last line of
standard output is the JSON result.

``--trace 0`` reports the end-to-end metrics, every time in it at the
reference host speed (``calibrate.py``).  ``--trace 1`` alternates an
untraced verdict with one in which every public library function is wrapped
(``tracing.py``), and reports per-verdict layer metrics plus the tracing
overhead.  Each run also writes a result file with its provenance to
``perfbench/out/``, and a traced run writes the spans of its first traced
verdict next to it.
"""

from __future__ import annotations

import os

# Pin numpy/BLAS to one thread before anything imports numpy.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import pickle  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402

from calibrate import at_reference, probes  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
VERDICT = os.path.join(HERE, "verdict.py")
CHILD_TIMEOUT = 120  # seconds one verdict may take before the run fails

WORKLOAD_NAMES = ("oracle_sweep", "whp_binary", "proxy_mc", "cli_eval")
IMPORT_SAMPLES = 7  # fresh interpreters timing `import realityvote` before the loop
INPUT_SAMPLES = 3  # repetitions of input generation
# Imports what verdict.py has imported when it times `import realityvote`,
# then runs the host-speed probes, as verdict.py does next.
CHILD_IMPORT = (
    "import gc, json, os, pickle, resource, sys, time; sys.path.insert(0, sys.argv[1]); "
    "start = time.perf_counter(); import realityvote; "
    "elapsed = time.perf_counter() - start; sys.path.insert(0, sys.argv[2]); "
    "from calibrate import probes; print(json.dumps([elapsed, probes()]))"
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--scale", default="full", choices=("full", "tiny"),
                        help="input sizes; 'tiny' is for the smoke self-test")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_library() -> float:
    """Import realityvote from src/ and return the time it took."""
    if not os.path.isfile(os.path.join(SRC, "realityvote", "__init__.py")):
        raise SystemExit(f"error: no realityvote sources under {SRC}")
    sys.path.insert(0, HERE)
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import realityvote

    elapsed = time.perf_counter() - start
    if os.path.dirname(os.path.dirname(os.path.abspath(realityvote.__file__))) != SRC:
        raise SystemExit(f"error: realityvote imported from {realityvote.__file__}")
    return elapsed


def child_import_seconds():
    """The time of `import realityvote` in a fresh interpreter, and the
    interpreter's host-speed probe times."""
    done = subprocess.run(
        [sys.executable, "-c", CHILD_IMPORT, SRC, HERE],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def percentile(values, q):
    """Linear-interpolated percentile (q in [0, 100])."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    return statistics.quantiles(ordered, n=100, method="inclusive")[q - 1]


def run_verdict(job_path, stem, trace, spans_path=None):
    """Run one verdict in a fresh interpreter (``verdict.py``); its result,
    plus ``child_s``, the child's whole life as this process saw it."""
    result_path = f"{stem}_verdict.json"
    argv = [sys.executable, VERDICT, job_path, result_path, str(trace)]
    if spans_path is not None:
        argv.append(spans_path)
    start = time.perf_counter()
    try:
        done = subprocess.run(argv, capture_output=True, text=True, timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"error: a verdict took over {CHILD_TIMEOUT} s") from None
    child_s = time.perf_counter() - start
    if done.returncode != 0:
        raise SystemExit(f"error: verdict exited {done.returncode}:\n{done.stderr[-2000:]}")
    with open(result_path, "r", encoding="utf-8") as handle:
        result = json.load(handle)
    os.remove(result_path)
    result["child_s"] = child_s
    return result


def run_loop(job_path, stem, seconds, traces):
    """Run verdicts, one child each with the given trace flags in turn, while
    the next round still fits in ``seconds``; at least one round runs.
    Returns the children's results by trace flag."""
    results = {trace: [] for trace in traces}
    rounds = []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for trace in traces:
            first_traced = trace == 1 and not results[1]
            spans_path = f"{stem}_spans.jsonl" if first_traced else None
            results[trace].append(run_verdict(job_path, stem, trace, spans_path))
        rounds.append(time.perf_counter() - round_start)
        if time.perf_counter() - start + statistics.median(rounds) > seconds:
            return results


def summarize(children):
    """The children's results of one trace flag, summed where they add."""
    return {
        "verdicts": len(children),
        "verdict_s": [c["verdict_s"] for c in children],
        "child_s": [c["child_s"] for c in children],
        "import_s": [c["import_s"] for c in children],
        "peak_rss_mb": [c["peak_rss_mb"] for c in children],
        "operations": len(children[0]["latencies"]),
        "call_samples": sum(len(c["latencies"]) for c in children),
        "probe_s": [c["probe_s"] for c in children],
        "units": sum(c["units"] for c in children),
        "attempted": sum(c["attempted"] for c in children),
        "failed": sum(c["failed"] for c in children),
        "formula_disagreements": children[-1]["formula_disagreements"],
        "errors": [e for c in children for e in c["errors"]][:20],
    }


def operation_latencies(children):
    """Each operation's mean latency over the run's verdicts, at the reference
    speed.  A verdict makes the same calls with the same inputs in the same
    order every time, so the i-th latency of every verdict belongs to the
    same operation."""
    per_verdict = [[at_reference(x, c["probe_s"]) for x in c["latencies"]] for c in children]
    if len({len(latencies) for latencies in per_verdict}) != 1:
        raise SystemExit("error: the verdicts of one run made different numbers of calls")
    return [statistics.mean(column) for column in zip(*per_verdict)]


def end_to_end_metrics(children, setup_s):
    """The end-to-end metrics; each time of a verdict is put at the reference
    speed with the probes of its own child (``calibrate.py``).

    Means over the run's verdicts, not medians or percentiles of calls
    pooled over them: the host's speed jumps by tens of percent from one
    second to the next, and a median of a few verdicts, or of pooled calls,
    jumps between its fast and slow phases where a mean averages them.
    """
    operations = operation_latencies(children)
    verdict_s = [at_reference(c["verdict_s"], c["probe_s"]) for c in children]
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.mean(verdict_s), "s"),
        "ops_per_s": (sum(c["units"] for c in children) / sum(verdict_s), "1/s"),
        "call_p50_ms": (1000 * percentile(operations, 50), "ms"),
        "call_p90_ms": (1000 * percentile(operations, 90), "ms"),
        "peak_rss_mb": (max(c["peak_rss_mb"] for c in children), "MB"),
    }


def merge_traces(children):
    """Sum the tracer totals of the traced verdicts."""
    merged = {"calls": {}, "self_s": {}, "total_s": {}, "counts": {}, "units_reached": {}}
    scalars = ("root_s", "started", "spans_dropped", "attribution_error_s")
    merged.update(dict.fromkeys(scalars, 0))
    for child in children:
        trace = child["trace"]
        for key in scalars:
            merged[key] += trace[key]
        for key in ("calls", "self_s", "total_s", "counts", "units_reached"):
            for name, value in trace[key].items():
                merged[key][name] = merged[key].get(name, 0) + value
    for key in ("calls", "self_s", "total_s", "counts"):
        merged[key] = defaultdict(int, merged[key])
    return merged


def per_layer_metrics(untraced, traced):
    """Per-verdict layer metrics of the traced verdicts; the tracing overhead
    pairs each traced verdict with the untraced one run just before it."""
    from tracing import LAYERS, PER_OP

    trace = merge_traces(traced)
    verdicts = len(traced)
    traced_s = sum(c["verdict_s"] for c in traced)
    calls, self_s, counts = trace["calls"], trace["self_s"], trace["counts"]
    metrics = {}

    def per_verdict(name, value, unit):
        metrics[name] = (value / verdicts, unit)

    for fn in ("verifier.outcome_range", "verifier.is_safe", "verifier.min_alpha",
               "verifier.smallest_live_beta", "verifier.min_alpha_for_profile",
               "population.build_profile", "proxy.sample_and_run", "proxy.delegate",
               "proxy.analyze", "proxy.md_proxy", "rules.apply", "rules.evaluate_tally",
               "formats.profile_from_json", "formats.write_frontier_csv",
               "betweenness.between_union"):
        per_verdict(f"{fn}.calls", calls[fn], "count")
        per_verdict(f"{fn}.self_s", self_s[fn], "s")
    per_verdict("verifier.is_live.calls", calls["verifier.is_live"], "count")
    # Inclusive time where the self time hides the work a call causes.
    for fn in ("verifier.outcome_range", "verifier.is_safe", "proxy.sample_and_run",
               "formats.profile_from_json"):
        per_verdict(f"{fn}.total_s", trace["total_s"][fn], "s")
    for fn in ("montecarlo.run_safety_whp", "montecarlo.run_proxy_whp",
               "montecarlo.hoeffding_diagnostic", "guarantees.safety_threshold",
               "guarantees.liveness_threshold", "guarantees.report", "cli.main"):
        per_verdict(f"{fn}.self_s", self_s[fn], "s")
    for fn in PER_OP:
        units = trace["units_reached"][fn]
        metrics[f"{fn}.per_op"] = (calls[fn] / units if units else 0.0, "ratio")

    cache_calls = counts["verifier.range_cache.calls"]
    misses = counts["verifier.range_cache.misses"]
    per_verdict("verifier.range_cache.hits", cache_calls - misses, "count")
    per_verdict("verifier.range_cache.misses", misses, "count")
    per_verdict("verifier.range_cache.clears", counts["verifier.range_cache.clears"], "count")
    metrics["verifier.range_cache.hit_ratio"] = (
        (cache_calls - misses) / cache_calls if cache_calls else 0.0, "ratio"
    )
    for name in ("verifier.evaluations", "formats.bytes_read", "formats.bytes_written",
                 "montecarlo.trials"):
        per_verdict(name, counts[name], "B" if name.startswith("formats.") else "count")
    metrics["guarantees.formula_disagreements"] = (
        traced[-1]["formula_disagreements"], "count"
    )

    layer_s = dict.fromkeys(LAYERS, 0.0)
    for name, value in self_s.items():
        layer_s[name.split(".", 1)[0]] += value
    for layer in LAYERS:
        per_verdict(f"layer.{layer}.self_s", layer_s[layer], "s")
        metrics[f"layer.{layer}.share"] = (layer_s[layer] / traced_s, "ratio")
    metrics["layer.unwrapped.share"] = ((traced_s - trace["root_s"]) / traced_s, "ratio")

    traced_wall = statistics.mean(c["verdict_s"] for c in traced)
    untraced_wall = statistics.mean(c["verdict_s"] for c in untraced)
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.untraced_wall_s"] = (untraced_wall, "s")
    metrics["trace.overhead_s"] = (statistics.mean(
        t["verdict_s"] - u["verdict_s"] for u, t in zip(untraced, traced)
    ), "s")
    metrics["trace.spans"] = (trace["started"] / verdicts, "count")
    return metrics, trace


def provenance(args, scale_name):
    digest = hashlib.sha256()
    package = os.path.join(SRC, "realityvote")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    commit = "unknown"  # a checkout without .git has only the source digest
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30,
            ).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            pass
    import numpy

    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": scale_name,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "started_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def main(argv=None):
    args = parse_args(argv)
    import_main_s = import_library()
    import workloads as wl

    workload = wl.WORKLOADS[args.workload]
    scale = wl.SCALES[args.scale]
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}")
    if args.scale != "full":
        stem += f"_{args.scale}"

    import_s = [child_import_seconds() for _ in range(IMPORT_SAMPLES)]
    input_s = []
    for _ in range(INPUT_SAMPLES):
        probe_s = probes()
        start = time.perf_counter()
        inputs = workload.setup(args.seed, scale, OUT)
        input_s.append([time.perf_counter() - start, probe_s + probes()])

    start = time.perf_counter()
    expected = workload.expected(inputs)
    reference_s = time.perf_counter() - start
    job_path = f"{stem}_job.pickle"
    with open(job_path, "wb") as handle:
        verdict_inputs = {k: v for k, v in inputs.items() if k not in workload.reference_only}
        pickle.dump({"workload": args.workload, "inputs": verdict_inputs,
                     "expected": expected}, handle)

    if args.trace:
        if os.path.exists(f"{stem}_spans.jsonl"):
            os.remove(f"{stem}_spans.jsonl")
        children = run_loop(job_path, stem, args.seconds, (0, 1))
        metrics, trace = per_layer_metrics(children[0], children[1])
    else:
        children = run_loop(job_path, stem, args.seconds, (0,))
        # Each verdict child times `import realityvote` as the import
        # samples do, so its import is one more set-up sample, and these
        # span the whole run.
        import_s += [[c["import_s"], c["probe_s"]] for c in children[0]]
        setup_s = (statistics.median(at_reference(*sample) for sample in import_s)
                   + statistics.median(at_reference(*sample) for sample in input_s))
        metrics = end_to_end_metrics(children[0], setup_s)
    os.remove(job_path)
    phases = {("traced" if flag else "untraced"): summarize(c) for flag, c in children.items()}

    attempted = sum(p["attempted"] for p in phases.values())
    failed = sum(p["failed"] for p in phases.values())
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {
        "provenance": provenance(args, args.scale),
        "result": result,
        "failed_ratio": failed / attempted,
        "unit": workload.unit,
        "setup": {"import_main_s": import_main_s, "import_s": import_s, "input_s": input_s},
        "reference_s": reference_s,
        "phases": phases,
    }
    if args.trace:
        record["trace"] = {
            "spans_file": f"{os.path.basename(stem)}_spans.jsonl (first traced verdict)",
            "spans_dropped": trace["spans_dropped"],
            "attribution_error_s": trace["attribution_error_s"],
        }
    with open(stem + ".json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    for error in phases["untraced"]["errors"][:5]:
        print(f"operation failed: {error}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
