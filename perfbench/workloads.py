"""Workload definitions: seeded inputs and the job each closed loop repeats.

A job drives only the public API, with the calls ``sparca fit`` and
``sparca eval`` make, and looks every function up through its module at call
time so that the traced run can wrap it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

import gen

# Each job of a run takes a new input, so a run's medians cover several
# inputs rather than one; input seeds come from 0..N_INPUT_SEEDS-1, the seeds
# references.json covers.
N_INPUT_SEEDS = 32

# Worker threads passed to cf_curve and fit. On a 2-vCPU virtual machine a
# second thread made the run-to-run spread of job_s two to four times wider,
# because the host often slows one of the two vCPUs for tens of seconds.
N_THREADS = 1

# The protocol's 5-fold CV over the default 9-point lambda grid takes about
# 30 s per job at this size, most of it in the two weakest penalties. Two
# folds over the upper seven points of that grid keep the classifier the
# dominant cost of a job of about 2 s, so one run covers many inputs.
IMAGE_LAMBDAS = np.logspace(-2, 1, 7)
IMAGE_FOLDS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "blocks" or "images"
    n_rows: int  # rows of the input matrix (the input CSV's rows)
    n_cols: int
    n_heldout: int  # rows of the serving batch
    n_clusters: int | None = None  # None selects it with the cf-curve
    splits: tuple = ()  # embed/train/test sizes for "images"


WORKLOADS = {
    # 1000 samples make Horn's permutation null the dominant cost;
    # distances and Ward over 96 features are negligible.
    "tall_auto": Workload("tall_auto", "blocks", 1000, 96, 40000),
    # Ward over thousands of features makes the m^2 layers dominant; no
    # cf-curve runs, so cf-curve changes must not move it.
    "wide_fixed": Workload("wide_fixed", "blocks", 64, 3000, 1000, n_clusters=100),
    # The lambda-CV classifier dominates; the only workload using evalkit.
    "image_eval": Workload(
        "image_eval", "images", 1000, 144, 36000, splits=(300, 400, 300)
    ),
}

TOY_WORKLOADS = {
    "tall_auto": Workload("tall_auto", "blocks", 120, 24, 50),
    "wide_fixed": Workload("wide_fixed", "blocks", 12, 80, 20, n_clusters=6),
    "image_eval": Workload(
        "image_eval", "images", 150, 64, 30, splits=(60, 60, 30)
    ),
}


def input_order(seed):
    """The input seeds a run with this seed uses, in order (deterministic)."""
    return [int(s) for s in np.random.default_rng(seed).permutation(N_INPUT_SEEDS)]


@dataclass(frozen=True)
class Inputs:
    X: np.ndarray  # the matrix the input CSV holds
    heldout: np.ndarray  # rows served by transform
    y: np.ndarray | None = None  # class labels for "images"


def make_inputs(workload, input_seed):
    """The workload's matrices for one input seed (deterministic)."""
    n = workload.n_rows + workload.n_heldout
    if workload.kind == "blocks":
        X, _ = gen.latent_blocks(n, workload.n_cols, input_seed)
        return Inputs(X=X[: workload.n_rows], heldout=X[workload.n_rows :])
    side = int(round(np.sqrt(workload.n_cols)))
    X, y = gen.stroke_images(n, input_seed, side=side)
    rows = workload.n_rows
    return Inputs(X=X[:rows], heldout=X[rows:], y=y[:rows])


def write_input_csv(sparca, inputs, path):
    """The input file a CLI command would read; labels go in the last column."""
    if inputs.y is None:
        sparca.write_csv(inputs.X, path)
    else:
        sparca.write_csv(np.column_stack([inputs.X, inputs.y]), path)


def read_input_csv(sparca, inputs, path):
    """Read the input file back the way the CLI does."""
    if inputs.y is None:
        return sparca.load_csv(path), None
    return sparca.load_csv(path, label_col=-1)


@dataclass
class JobResult:
    times: dict  # stage -> seconds, plus "job"
    model: object
    loaded: object
    reduced: np.ndarray
    model_bytes: bytes
    n_clusters: int
    x_fit: np.ndarray
    window: tuple  # (start, end) of the job on the perf_counter clock
    accuracy: list | None = None  # test accuracy of [sparca, pca]


def run_job(sparca, workload, inputs, model_path, input_seed, n_threads):
    """One closed-loop job; returns its stage times and outputs."""
    horn = sparca.HornParams(seed=input_seed)
    times = {}
    clock = time.perf_counter
    accuracy = None
    job_start = clock()
    if workload.kind == "images":
        embed, train, test = sparca.evalkit.stratified_split(
            inputs.y, workload.splits, seed=input_seed
        )
        X_fit = inputs.X[embed]
    else:
        X_fit = inputs.X
    if workload.n_clusters is None:
        t = clock()
        curve = sparca.cf_curve(X_fit, horn_params=horn, n_threads=n_threads)
        times["select"] = clock() - t
        n_clusters = curve.selected
    else:
        n_clusters = workload.n_clusters
    t = clock()
    model = sparca.fit(
        X_fit, n_clusters=n_clusters, horn_params=horn, n_threads=n_threads
    )
    times["fit"] = clock() - t
    if workload.kind == "images":
        evalkit = sparca.evalkit
        t = clock()
        baseline = evalkit.PcaBaseline.fit(X_fit, horn_params=horn)
        times["pca_baseline"] = clock() - t
        t = clock()
        X, y = inputs.X, inputs.y
        accuracy = [
            evalkit.downstream_eval(
                reducer, X[train], y[train], X[test], y[test],
                lambdas=IMAGE_LAMBDAS, n_folds=IMAGE_FOLDS, seed=input_seed,
            )[0]
            for reducer in (model, baseline)
        ]
        times["classify"] = clock() - t
    t = clock()
    sparca.save_model(model, model_path)
    times["save"] = clock() - t
    t = clock()
    loaded = sparca.load_model(model_path)
    reduced = sparca.transform(loaded, inputs.heldout).values
    times["serve"] = clock() - t
    job_end = clock()
    times["job"] = job_end - job_start
    with open(model_path, "rb") as fh:
        model_bytes = fh.read()
    return JobResult(
        times=times,
        model=model,
        loaded=loaded,
        reduced=reduced,
        model_bytes=model_bytes,
        n_clusters=n_clusters,
        x_fit=X_fit,
        window=(job_start, job_end),
        accuracy=accuracy,
    )
