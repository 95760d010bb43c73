"""Benchmark for sparca: one command per workload, metrics on the last line.

Usage, from the repository root:

    python3 perfbench/run.py --workload tall_auto --seed 0 --seconds 25 --trace 0

Each workload (see ``workloads.py``) is a closed loop of one caller that
repeats the workload's job for ``--seconds`` seconds on inputs generated from
``--seed``. Every job's outputs are checked (``checks.py``). With
``--trace 0`` the last line holds the end-to-end metrics; with ``--trace 1``
untraced and traced jobs alternate and the last line holds the per-layer
metrics (``spans.py``). The full record, with the environment, per-job
times and the spans, goes to ``.perfbench/`` in the repository root.

``python3 perfbench/record_references.py`` rewrites ``references.json``,
the outputs each input seed must reproduce.
"""

import os

# Pin BLAS to one thread before numpy is imported; the library's own thread
# pool is the only parallelism measured.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCES = HERE / "references.json"
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60


def import_sparca():
    """Import sparca from this checkout's sources, never an installed copy."""
    if not (SRC / "sparca" / "__init__.py").is_file():
        raise SystemExit(f"error: no sparca sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import sparca
    import sparca.evalkit  # noqa: F401

    if Path(sparca.__file__).resolve().parent != SRC / "sparca":
        raise SystemExit(f"error: imported sparca from {sparca.__file__}")
    return sparca


def blas_threads():
    """OpenBLAS's own thread count, or the pinned setting if unavailable."""
    import ctypes
    import glob

    import numpy

    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return os.environ["OPENBLAS_NUM_THREADS"]


def environment(seed, n_threads, nproc):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": nproc,
        "blas_threads": blas_threads(),
        "n_threads": n_threads,
        "seed": seed,
    }


def measure_setup(csv_path, labels):
    """Median over fresh processes of importing sparca and reading the CSV."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(csv_path)]
    if labels:
        cmd.append("--labels")
    samples = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            cmd, capture_output=True, text=True, check=True,
            timeout=PROBE_TIMEOUT_S,
        )
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(samples), samples


def job_peak_mb(job, *args):
    """Run ``job(*args)`` and return its result and the process's peak resident
    memory while it ran, in MB.

    Memory the allocator holds but no longer uses is first handed back to
    the system, and the kernel's high-water mark is reset to the resident
    memory at the start, so the peak is that of this job alone: the
    interpreter, the libraries and the job's inputs, plus what the job
    allocates. Linux only.
    """
    ctypes.CDLL("libc.so.6").malloc_trim(0)
    with open("/proc/self/clear_refs", "w") as fh:
        fh.write("5")
    result = job(*args)
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return result, int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def load_references():
    with open(REFERENCES, encoding="utf-8") as fh:
        return json.load(fh)


def reference_key(workload):
    return repr(workload)


def check_job(sparca, checks, result, inputs, ref, scratch):
    out = checks.check_reference(result, ref)
    out += checks.check_evr_contract(result.model, result.x_fit)
    out += checks.check_transform(result, inputs.heldout)
    out += checks.check_round_trip(sparca, result, scratch / "resaved.json")
    return out


def traced_job(sparca, spans, workloads, tracer, job_args, csv_path):
    """One job with every entry point wrapped, after a traced read of the
    run's input CSV; returns (result, layer record, accounting ok, spans)."""
    tracer.reset()
    inputs = job_args[1]
    with spans.installed(tracer):
        workloads.read_input_csv(sparca, inputs, csv_path)
        result = workloads.run_job(sparca, *job_args)
    w0, w1 = result.window
    load_span = next(s for s in tracer.spans if s.layer == "data.load_csv")
    job_spans = [s for s in tracer.spans if s.start >= w0]
    times, uncovered = spans.layer_times(job_spans, w0, w1)
    record = {name: 0.0 for name in spans.TIME_METRICS.values()}
    for layer, seconds in times.items():
        record[spans.TIME_METRICS[layer]] += seconds
    # A set-up layer: the CSV read comes before the job window, so
    # data.load_csv_s is not part of trace.job_s and of the sum below.
    record["data.load_csv_s"] = load_span.end - load_span.start
    calls = {name: 0 for name in spans.CALL_METRICS.values()}
    for span in job_spans:
        if span.layer in spans.CALL_METRICS:
            calls[spans.CALL_METRICS[span.layer]] += 1
    record.update(calls)
    for name in spans.COUNT_METRICS:
        record[name] = tracer.counters.get(name, 0)
    repeats = record.pop("horn.repeats")
    record["horn.repeat_ratio"] = repeats / calls["horn.calls"] if calls["horn.calls"] else 0.0
    record["trace.uncovered_s"] = uncovered
    record["trace.job_s"] = w1 - w0
    covered = sum(times.values()) + uncovered
    identity_ok = abs(covered - (w1 - w0)) <= 1e-9 * max(1.0, w1 - w0)
    span_log = [
        [s.layer, s.tid, s.start - w0, s.end - w0] for s in tracer.spans
    ]
    return result, record, identity_ok, span_log


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--toy", action="store_true", help="tiny inputs, for the tests"
    )
    args = parser.parse_args(argv)

    sparca = import_sparca()
    sys.path.insert(0, str(HERE))
    import numpy as np

    import checks
    import spans
    import workloads

    table = workloads.TOY_WORKLOADS if args.toy else workloads.WORKLOADS
    if args.workload not in table:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(table)}")
    workload = table[args.workload]
    order = workloads.input_order(args.seed)
    nproc = len(os.sched_getaffinity(0))
    n_threads = workloads.N_THREADS
    env = environment(args.seed, n_threads, nproc)
    references = load_references().get(reference_key(workload), {})

    out_dir = ROOT / ".perfbench"
    scratch = out_dir / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    csv_path = scratch / "input.csv"
    model_path = scratch / "model.json"

    def prepare(i):
        """The run's i-th input and the arguments of its job."""
        input_seed = order[i % len(order)]
        inputs = workloads.make_inputs(workload, input_seed)
        return input_seed, inputs, (workload, inputs, model_path, input_seed, n_threads)

    try:
        input_seed, inputs, job_args = prepare(0)
        # The first input also goes through the CSV file every CLI command
        # starts from: set-up reads it, and so does the traced load_csv span.
        workloads.write_input_csv(sparca, inputs, csv_path)
        X_read, y_read = workloads.read_input_csv(sparca, inputs, csv_path)
        outcomes = [
            (
                "csv_round_trip",
                np.array_equal(X_read, inputs.X)
                and (y_read is None or np.array_equal(y_read, inputs.y)),
            )
        ]
        setup_s, setup_samples = measure_setup(csv_path, inputs.y is not None)
        # One unmeasured job first: the first job in a process runs about a
        # third slower while allocations warm up.
        warmup = workloads.run_job(sparca, *job_args)
        outcomes += check_job(
            sparca, checks, warmup, inputs, references.get(str(input_seed)), scratch
        )
        warmup_times = warmup.times
        del warmup

        # Closed loop: each round takes the next input; with --trace 1 the
        # round runs the job untraced and traced on the same input.
        tracer = spans.Tracer()
        untraced_jobs, accuracies, traced_records, span_logs = [], [], [], []
        peaks_mb = []

        def run_traced(job_args, inputs, ref):
            traced, record, identity_ok, span_log = traced_job(
                sparca, spans, workloads, tracer, job_args, csv_path
            )
            traced_records.append(record)
            span_logs.append(span_log)
            outcomes.append(("span_accounting", identity_ok))
            outcomes.extend(check_job(sparca, checks, traced, inputs, ref, scratch))
            return traced

        used_seeds, round_times = [], []
        deadline = time.perf_counter() + args.seconds
        while True:
            round_start = time.perf_counter()
            # The last round's outputs would count in this round's peak.
            result = traced = None
            input_seed, inputs, job_args = prepare(len(used_seeds) + 1)
            used_seeds.append(input_seed)
            ref = references.get(str(input_seed))
            # With --trace 1 the traced job runs first in every other round,
            # so the second run's warm start does not bias the overhead.
            traced_first = args.trace and len(used_seeds) % 2 == 0
            if traced_first:
                traced = run_traced(job_args, inputs, ref)
            result, peak_mb = job_peak_mb(workloads.run_job, sparca, *job_args)
            peaks_mb.append(peak_mb)
            untraced_jobs.append(result.times)
            accuracies.append(result.accuracy)
            outcomes += check_job(sparca, checks, result, inputs, ref, scratch)
            if args.trace and not traced_first:
                traced = run_traced(job_args, inputs, ref)
            if args.trace:
                outcomes += checks.check_same_as(traced, result)
            round_times.append(time.perf_counter() - round_start)
            typical = statistics.median(round_times)
            if time.perf_counter() + typical > deadline:
                break
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = len(outcomes)
    failed = sum(1 for _, ok in outcomes if not ok)
    failed_names = sorted({name for name, ok in outcomes if not ok})

    def med(key):
        return statistics.median(t[key] for t in untraced_jobs)

    end_to_end = {
        "setup_s": (setup_s, "s"),
        "job_s": (med("job"), "s"),
        "fit_s": (med("fit"), "s"),
        "transform_rows_per_s": (
            statistics.median(workload.n_heldout / t["serve"] for t in untraced_jobs),
            "1/s",
        ),
        "peak_rss_mb": (statistics.median(peaks_mb), "MB"),
    }
    # Metrics of single workloads are reported beside the gated ones.
    workload_only = {"error_rate": (failed / attempted, "ratio")}
    if "select" in warmup_times:
        workload_only["select_s"] = (med("select"), "s")
    if "classify" in warmup_times:
        workload_only["classify_s"] = (med("classify"), "s")
        for i, name in enumerate(("sparca_test_acc", "pca_test_acc")):
            workload_only[name] = (
                statistics.median(acc[i] for acc in accuracies), "ratio"
            )

    per_layer = {}
    if traced_records:
        units = {}
        for name in traced_records[0]:
            per_layer[name] = statistics.fmean(r[name] for r in traced_records)
            units[name] = spans.metric_unit(name)
        traced_mean = statistics.fmean(r["trace.job_s"] for r in traced_records)
        untraced_mean = statistics.fmean(t["job"] for t in untraced_jobs)
        per_layer["trace.overhead_s"] = traced_mean - untraced_mean
        units["trace.overhead_s"] = spans.metric_unit("trace.overhead_s")

    report = {
        "workload": args.workload,
        "env": env,
        "input_seeds": used_seeds,
        "jobs": {"untraced": len(untraced_jobs), "traced": len(traced_records)},
        "setup_samples_s": setup_samples,
        "job_times": untraced_jobs,
        "job_peaks_mb": peaks_mb,
        "failed_checks": failed_names,
        "end_to_end": {k: v for k, (v, _) in end_to_end.items()},
        "workload_metrics": {k: v for k, (v, _) in workload_only.items()},
        "per_layer": per_layer,
        "spans": span_logs,
    }
    trace_tag = f"trace{args.trace}" + ("-toy" if args.toy else "")
    with open(out_dir / f"{args.workload}-seed{args.seed}-{trace_tag}.json", "w") as fh:
        json.dump(report, fh, indent=1)

    print("env " + json.dumps(env))
    print(f"jobs: {len(untraced_jobs)} untraced, {len(traced_records)} traced")
    for name, (value, unit) in {**end_to_end, **workload_only}.items():
        print(f"{name} {value!r} {unit}")
    for name, value in per_layer.items():
        print(f"{name} {value!r} {units[name]}")
    if failed_names:
        print("failed checks: " + ", ".join(failed_names))
    if args.trace:
        metrics = {k: {"value": v, "unit": units[k]} for k, v in per_layer.items()}
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()}
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
