"""Digest of the outputs of every benchmark input, to compare two checkouts.

Usage, from the repository root:

    python3 tools/output_digest.py OUT.json

Input seeds 0-31 of each workload in ``perfbench/workloads.py`` go through
``workloads.run_job`` with ``n_threads=1`` and one BLAS thread, as the
benchmark runs them, and again with ``n_threads=2``. The tool exits
non-zero, naming the first input, if an input's two records differ; the file
holds the ``n_threads=1`` records. Per input it holds the SHA-256 of the
model file and of the served values, and the ``image_eval`` test accuracies.
For the inputs whose cluster count comes from the cf-curve it adds the
curve's points, its derivative (as ``float.hex``) and the selected k; for
the ``image_eval`` inputs, the digest of the ``stratified_split`` indices
and each ``select_lambda`` call's best lambda and CV means (as
``float.hex``).
The file holds no timing or environment, so two checkouts produce the same
outputs exactly when ``diff`` of their files prints nothing. Nothing under
``perfbench/`` is written. The second pass about doubles the run time: 95 s
against 46 s for the first pass alone, on 2 vCPUs.
"""

import os

# One BLAS thread, as the benchmark pins it, before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import run  # noqa: E402
import workloads  # noqa: E402


def _sha256(*arrays):
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(repr(array.shape).encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def _hex(values):
    return [float(v).hex() for v in values]


def _record_calls(module, name, log):
    """Wrap ``module.name`` so each call's result is appended to ``log``;
    returns the function it replaced."""
    real = getattr(module, name)

    def recorded(*args, **kwargs):
        result = real(*args, **kwargs)
        log.append(result)
        return result

    setattr(module, name, recorded)
    return real


def digest_input(sparca, workload, input_seed, model_path, n_threads):
    curves, splits, lambdas = [], [], []
    recorded = [
        (sparca, "cf_curve", curves),
        (sparca.evalkit, "stratified_split", splits),
        (sparca.evalkit, "select_lambda", lambdas),
    ]
    reals = [_record_calls(*entry) for entry in recorded]
    try:
        inputs = workloads.make_inputs(workload, input_seed)
        job = workloads.run_job(
            sparca, workload, inputs, model_path, input_seed, n_threads
        )
    finally:
        for (module, name, _), real in zip(recorded, reals):
            setattr(module, name, real)
    record = {
        "n_clusters": job.n_clusters,
        "model_sha256": hashlib.sha256(job.model_bytes).hexdigest(),
        "served_sha256": _sha256(job.reduced),
    }
    if job.accuracy is not None:
        record["accuracy"] = _hex(job.accuracy)
    record["cf_curve"] = [
        {
            "points": curve.points,
            "derivative": _hex(curve.derivative),
            "selected": curve.selected,
        }
        for curve in curves
    ]
    record["stratified_split"] = [_sha256(*split) for split in splits]
    record["select_lambda"] = [
        {"best": float(best).hex(), "cv_means": _hex(means)}
        for best, means in lambdas
    ]
    return record


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        raise SystemExit("usage: python3 tools/output_digest.py OUT.json")
    sparca = run.import_sparca()
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        model_path = os.path.join(tmp, "model.json")
        for name, workload in workloads.WORKLOADS.items():
            out[name] = {}
            for seed in range(workloads.N_INPUT_SEEDS):
                record = digest_input(sparca, workload, seed, model_path, 1)
                if digest_input(sparca, workload, seed, model_path, 2) != record:
                    raise SystemExit(
                        f"{name} input {seed}: outputs at n_threads=2 "
                        f"differ from n_threads=1"
                    )
                out[name][str(seed)] = record
            print(f"{name}: {workloads.N_INPUT_SEEDS} inputs", flush=True)
    with open(args[0], "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
