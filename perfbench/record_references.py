"""Rewrite references.json: the outputs each input seed must reproduce.

Usage, from the repository root: python3 perfbench/record_references.py

For every workload, full size and toy size, and every input seed, one job
runs and its selected cluster count, partition, per-cluster component
counts and (for image_eval) sparca test accuracy are recorded. A seed whose
job fails any other output check is not recorded, and the script exits 1.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run

sparca = run.import_sparca()
import checks  # noqa: E402
import workloads  # noqa: E402


def main():
    references = {}
    ok = True
    (run.ROOT / ".perfbench").mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=run.ROOT / ".perfbench"))
    try:
        for table in (workloads.TOY_WORKLOADS, workloads.WORKLOADS):
            for workload in table.values():
                entry = references.setdefault(run.reference_key(workload), {})
                for seed in range(workloads.N_INPUT_SEEDS):
                    inputs = workloads.make_inputs(workload, seed)
                    result = workloads.run_job(
                        sparca, workload, inputs, scratch / "model.json", seed,
                        workloads.N_THREADS,
                    )
                    ref = checks.reference_of(result)
                    outcomes = run.check_job(
                        sparca, checks, result, inputs, ref, scratch
                    )
                    bad = [name for name, passed in outcomes if not passed]
                    job_s = round(result.times["job"], 3)
                    print(workload.name, seed, ref["n_clusters"], job_s, bad or "ok")
                    if bad:
                        ok = False
                    else:
                        entry[str(seed)] = ref
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    with open(run.REFERENCES, "w", encoding="utf-8") as fh:
        json.dump(references, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
