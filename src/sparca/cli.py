"""Batch command-line interface.

Subcommands: fit, transform, cf-curve, profile, eval, synth. Numeric outputs
are CSV files; models are versioned JSON. Every command is deterministic.
``fit``, ``cf-curve``, ``profile``, ``eval`` and ``synth`` draw from
``--seed`` (env default ``SPARCA_SEED``). ``fit``, ``cf-curve`` and ``eval``
take ``--threads``, the cap on the worker threads that run the Horn counts
of the Ward tree's new nodes, one task per width class (env default
``SPARCA_THREADS``, else the CPUs the process may run on); it does not
change their results. ``transform`` takes neither. A variable is read after
the arguments are parsed, only by a command that takes its flag and only
when the flag is not given, so a bad value stops only such a command.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from ._version import __version__
from . import evalkit
from .cfcurve import cf_curve
from .data import load_csv, load_idx, write_csv
from .horn import HornParams
from .pipeline import fit, load_model, save_model, transform


class _Parser(argparse.ArgumentParser):
    """An ``ArgumentParser`` that also rejects each ``exclusive`` pair of
    flags given together, as a usage error. A mutually exclusive group
    forbids every pair of its members, while ``eval`` forbids only the flags
    of one input source beside the other source. Subcommand parsers share
    the class."""

    exclusive = ()

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)

        def given(flag):
            value = getattr(namespace, flag.lstrip("-").replace("-", "_"))
            return value is not None and value is not False

        for flag, other in self.exclusive:
            if given(flag) and given(other):
                self.error(f"argument {flag}: not allowed with argument {other}")
        return namespace, extras


def _thread_count(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _fraction(text):
    value = float(text)
    if not 0.0 < value <= 1.0:
        raise argparse.ArgumentTypeError(f"must be in (0, 1], got {value}")
    return value


def _apply_env_defaults(parser, args):
    """Set each flag the command takes but was not given from its variable,
    if that is set; a bad value is a usage error. A ``threads`` of None
    leaves the worker count to ``cfcurve.FeatureTree``: the CPUs the process
    may run on."""
    for attr, name, convert, fallback in (
        ("seed", "SPARCA_SEED", int, 0),
        ("threads", "SPARCA_THREADS", _thread_count, None),
    ):
        if attr not in vars(args) or getattr(args, attr) is not None:
            continue
        text = os.environ.get(name)
        try:
            setattr(args, attr, convert(text) if text else fallback)
        except (ValueError, argparse.ArgumentTypeError) as exc:
            parser.error(f"invalid ${name}={text!r}: {exc}")


def _add_seed(parser):
    parser.add_argument("--seed", type=int,
                        help="base random seed (default: $SPARCA_SEED or 0)")


def _add_threads(parser):
    parser.add_argument("--threads", type=_thread_count,
                        help="worker thread cap for the Horn counts "
                             "(default: $SPARCA_THREADS or the usable CPUs)")


def _add_input(parser):
    parser.add_argument("--input", required=True, help="input CSV path")
    parser.add_argument(
        "--has-header", action="store_true", help="skip one header row"
    )


def _int_list(text):
    return [int(v) for v in text.split(",") if v]


def _noise_levels(text):
    values = [float(v) for v in text.split(",") if v]
    if not all(0.0 <= v < np.inf for v in values):
        raise argparse.ArgumentTypeError(
            f"must be finite numbers >= 0, got {text!r}"
        )
    return values


def cmd_fit(args) -> int:
    horn = HornParams(seed=args.seed)
    X = load_csv(args.input, has_header=args.has_header)
    model = fit(
        X,
        n_clusters=args.clusters,
        variance_threshold=args.variance,
        horn_params=horn,
        n_threads=args.threads,
    )
    if args.clusters is None:
        # The selected cut's component count is its point on the curve.
        print(f"auto-selected {model.n_clusters} clusters "
              f"({model.n_reduced} features on the curve)")
    save_model(model, args.out)
    supports = [c.support_size for c in model.components]
    evrs = [c.achieved_evr for c in model.components]
    print(
        f"fitted {model.n_clusters} clusters -> {model.n_reduced} features; "
        f"mean support {np.mean(supports):.2f}, min EVR {min(evrs):.4f}"
    )
    print(f"model written to {args.out}")
    return 0


def cmd_transform(args) -> int:
    model = load_model(args.model)
    X = load_csv(args.input, has_header=args.has_header)
    reduced = transform(model, X)
    comments = [
        f"reduced with {args.model}: {model.n_clusters} clusters, "
        f"{model.n_reduced} features",
    ]
    for j, (cluster, rank, support) in enumerate(reduced.column_provenance):
        comments.append(
            f"column {j}: cluster {cluster} rank {rank} "
            f"support {list(support)}"
        )
    write_csv(reduced.values, args.out, comments=comments)
    print(f"wrote {reduced.values.shape[0]}x{reduced.values.shape[1]} "
          f"reduced matrix to {args.out}")
    return 0


def cmd_cf_curve(args) -> int:
    horn = HornParams(seed=args.seed)
    X = load_csv(args.input, has_header=args.has_header)
    curve = cf_curve(
        X,
        grid=args.grid or None,
        horn_params=horn,
        n_threads=args.threads,
    )
    rows = np.column_stack(
        [curve.n_clusters, curve.n_features, curve.derivative]
    )
    write_csv(
        rows,
        args.out,
        comments=[f"selected = {curve.selected}"],
        header=["n_clusters", "n_features", "derivative"],
    )
    print(f"selected {curve.selected} clusters; curve written to {args.out}")
    return 0


def cmd_profile(args) -> int:
    report = evalkit.profile_runtime(
        args.samples,
        args.features,
        repeats=args.repeats,
        seed=args.seed,
    )
    rows = [
        ["samples", size, seconds] for size, seconds in report.sample_points
    ] + [
        ["features", size, seconds] for size, seconds in report.feature_points
    ]
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(f"# sample_slope = {report.sample_slope!r}\n")
        fh.write(f"# feature_slope = {report.feature_slope!r}\n")
        fh.write("axis,size,seconds\n")
        for axis, size, seconds in rows:
            fh.write(f"{axis},{size},{seconds!r}\n")
    print(
        f"sample-axis slope {report.sample_slope:.3f}, "
        f"feature-axis slope {report.feature_slope:.3f}; "
        f"table written to {args.out}"
    )
    return 0


def cmd_eval(args) -> int:
    if args.idx_images and not args.idx_labels:
        raise ValueError("--idx-labels is required with --idx-images")
    fracs = (args.embed_frac, args.train_frac, args.test_frac)
    if sum(fracs) > 1.0 + 1e-9:
        raise ValueError("split fractions must sum to at most 1")
    horn = HornParams(seed=args.seed)
    if args.idx_images:
        X, y = load_idx(args.idx_images, args.idx_labels)
    else:
        label_col = -1 if args.label_col is None else args.label_col
        X, y = load_csv(
            args.input, has_header=args.has_header, label_col=label_col
        )
    # Both loaders return integer ids >= 0; each of 0..K-1 must occur.
    evalkit._class_counts(y, 1)
    sizes = [max(1, int(round(frac * y.size))) for frac in fracs]
    embed_idx, train_idx, test_idx = evalkit.stratified_split(
        y, sizes, seed=args.seed
    )
    evalkit._class_counts(y[train_idx], 2)
    try:  # past the class check, only the fold count can fail
        evalkit._check_folds(y[train_idx], args.cv_folds)
    except ValueError as exc:
        raise ValueError(f"{exc} (--cv-folds)") from None
    sparca_model = fit(
        X[embed_idx],
        n_clusters=args.clusters,
        variance_threshold=args.variance,
        horn_params=horn,
        n_threads=args.threads,
    )
    pca_model = evalkit.PcaBaseline.fit(X[embed_idx], horn_params=horn)

    rows = []
    classifiers = []
    for name, dr, extent in (
        ("sparca", sparca_model, sparca_model.n_reduced),
        ("pca", pca_model, pca_model.n_reduced),
    ):
        accuracy, clf, best_lambda = evalkit.downstream_eval(
            dr, X[train_idx], y[train_idx], X[test_idx], y[test_idx],
            n_folds=args.cv_folds, seed=args.seed,
        )
        classifiers.append(clf)
        rows.append((name, extent, best_lambda, accuracy))
        print(
            f"{name}: {extent} features, lambda {best_lambda:g}, "
            f"test accuracy {accuracy:.4f}"
        )
    with open(f"{args.out_prefix}_accuracy.csv", "w", encoding="utf-8") as fh:
        fh.write("model,n_features,lambda,test_accuracy\n")
        for name, extent, best_lambda, accuracy in rows:
            fh.write(f"{name},{extent},{best_lambda!r},{accuracy!r}\n")

    table = evalkit.noise_robustness(
        [sparca_model, pca_model],
        classifiers,
        X[test_idx],
        y[test_idx],
        args.sigmas,
        seed=args.seed,
    )
    write_csv(np.column_stack([args.sigmas, table]),
              f"{args.out_prefix}_noise.csv",
              header=["sigma", "sparca_accuracy", "pca_accuracy"])
    print(
        f"wrote {args.out_prefix}_accuracy.csv and {args.out_prefix}_noise.csv"
    )
    return 0


def cmd_synth(args) -> int:
    X = evalkit.gen_synthetic(
        args.samples, args.features, args.rank, seed=args.seed
    )
    write_csv(X, args.out)
    print(f"wrote {args.samples}x{args.features} synthetic matrix to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sparca",
        description="Sparse dimensionality reduction via feature "
        "agglomeration, per-cluster PCA, and orthogonal matching pursuit.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit a model from a CSV matrix")
    _add_input(p)
    p.add_argument("--clusters", type=int, default=None,
                   help="cluster count; omit it to select the count from the "
                        "cluster-feature curve over the default grid, on the "
                        "Ward tree the fit itself uses")
    p.add_argument("--variance", type=float, default=0.95,
                   help="minimum recovered variance per component")
    p.add_argument("--out", required=True, help="model JSON output path")
    _add_seed(p)
    _add_threads(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("transform", help="apply a fitted model to a CSV matrix")
    _add_input(p)
    p.add_argument("--model", required=True, help="model JSON path")
    p.add_argument("--out", required=True, help="reduced CSV output path")
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("cf-curve", help="trace the cluster-feature curve")
    _add_input(p)
    p.add_argument("--grid", type=_int_list, default=None,
                   help="comma-separated cluster counts (default: geometric)")
    p.add_argument("--out", required=True, help="curve CSV output path")
    _add_seed(p)
    _add_threads(p)
    p.set_defaults(func=cmd_cf_curve)

    p = sub.add_parser("profile", help="measure fit runtime scaling")
    p.add_argument("--samples", type=_int_list,
                   default="500,1000,2000,4000,8000",
                   help="sample-axis grid (features fixed at 100)")
    p.add_argument("--features", type=_int_list,
                   default="100,200,400,800,1600",
                   help="feature-axis grid (samples fixed at 50)")
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--out", required=True, help="timing CSV output path")
    _add_seed(p)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser(
        "eval",
        help="split, reduce, train and score classifiers, sweep noise",
    )
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--input", help="labeled CSV path")
    source.add_argument("--idx-images",
                        help="IDX image file (needs --idx-labels)")
    p.add_argument("--has-header", action="store_true")
    p.add_argument("--label-col", type=int,
                   help="label column index in the CSV (default: last)")
    p.add_argument("--idx-labels", help="IDX label file")
    p.exclusive = (
        ("--input", "--idx-labels"),
        ("--idx-images", "--has-header"),
        ("--idx-images", "--label-col"),
    )
    p.add_argument("--embed-frac", type=_fraction, default=0.3)
    p.add_argument("--train-frac", type=_fraction, default=0.5)
    p.add_argument("--test-frac", type=_fraction, default=0.2)
    p.add_argument("--clusters", type=int, default=None,
                   help="cluster count (default: automatic selection)")
    p.add_argument("--variance", type=float, default=0.95)
    p.add_argument("--cv-folds", type=int, default=5)
    p.add_argument("--sigmas", type=_noise_levels,
                   default="0,0.25,0.5,1,2,4",
                   help="noise levels in standardized units")
    p.add_argument("--out-prefix", required=True,
                   help="prefix for the emitted CSV artifacts")
    _add_seed(p)
    _add_threads(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("synth", help="generate a synthetic low-rank matrix")
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--features", type=int, required=True)
    p.add_argument("--rank", type=int, required=True,
                   help="target effective rank")
    p.add_argument("--out", required=True, help="CSV output path")
    _add_seed(p)
    p.set_defaults(func=cmd_synth)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _apply_env_defaults(parser, args)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
