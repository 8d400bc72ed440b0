"""Command-line front end.

Subcommands cover the whole workflow: feature preprocessing (pca), the
two-phase trainer (train), checkpoint evaluation (eval), the analytic-
vs-numeric derivative table (gradcheck), the 2D point-shifting demo
(demo2d), wall-clock scaling (bench), and synthetic data generation
(synth).  Every run echoes its fully resolved configuration and is
deterministic given --seed.

Exit codes: 0 success, 1 runtime or numeric failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .bench import BATCH_IMAGES, batch_speedup, format_csv, scaling_in_t
from .data_io import (
    FileFormatError,
    make_synthetic_2d,
    pca_apply,
    pca_fit,
    read_checkpoint,
    read_features,
    load_dataset,
    save_dataset,
    write_checkpoint,
    write_features,
    write_pca,
)
from .gradcheck import run_battery
from .pipeline import (
    TrainConfig,
    TrainMode,
    evaluate_checkpoint,
    shift_demo,
    train,
)

_FLOAT_FMT = "%.17g"


class UsageError(Exception):
    """Bad flags or unusable inputs; mapped to exit code 2."""


def _echo_config(args: argparse.Namespace) -> None:
    shown = {k: v for k, v in vars(args).items() if k != "func"}
    print("config: " + json.dumps(shown, sort_keys=True, default=str))


def _require_dir(path: str, flag: str) -> None:
    if not os.path.isdir(path):
        raise UsageError(f"{flag}: not a directory: {path}")


def _require_file(path: str, flag: str) -> None:
    if not os.path.isfile(path):
        raise UsageError(f"{flag}: no such file: {path}")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not an int: {text!r}") from exc
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _float_cell(value: float) -> str:
    return _FLOAT_FMT % value


# ---------------------------------------------------------------- pca


def cmd_pca(args: argparse.Namespace) -> int:
    _require_dir(args.input, "--input")
    names = sorted(n for n in os.listdir(args.input) if n.endswith(".fvfs"))
    if not names:
        raise UsageError(f"--input: no .fvfs files in {args.input}")
    blocks = [read_features(os.path.join(args.input, n)) for n in names]
    stacked = np.concatenate(blocks, axis=0)
    if args.dim > stacked.shape[1]:
        raise UsageError(
            f"--dim {args.dim} exceeds input dimension {stacked.shape[1]}")
    model = pca_fit(stacked, args.dim)
    write_pca(args.out, model)
    print(f"pca: fitted {stacked.shape[1]} -> {args.dim} on "
          f"{stacked.shape[0]} rows, wrote {args.out}")
    if args.apply_out:
        os.makedirs(args.apply_out, exist_ok=True)
        for name, block in zip(names, blocks):
            write_features(os.path.join(args.apply_out, name),
                           pca_apply(model, block))
        print(f"pca: projected {len(names)} files into {args.apply_out}")
    return 0


# -------------------------------------------------------------- train


def cmd_train(args: argparse.Namespace) -> int:
    _require_dir(args.train, "--train")
    _require_file(args.labels, "--labels")
    dataset = load_dataset(args.train, args.labels)
    config = TrainConfig(
        n_components=args.k,
        batch_size=args.batch,
        eta=args.eta,
        svm_init_epochs=args.init_epochs,
        svm_epochs=args.svm_epochs,
        gap_tol=args.gap_tol,
        joint_epochs=args.epochs,
        mode=TrainMode(args.mode),
        seed=args.seed,
        subsample=args.subsample,
    )
    state = train(dataset, config, workers=args.threads, metrics_path=args.metrics)
    write_checkpoint(args.checkpoint, state.to_checkpoint())
    last = state.metrics[-1]
    print(f"train: {state.epoch} joint epochs, {state.batches_done} batches, "
          f"{state.starved_events} starved components")
    print(f"train: final mean loss {_float_cell(last[6])}, "
          f"wrote {args.checkpoint} and {args.metrics}")
    return 0


# --------------------------------------------------------------- eval


def cmd_eval(args: argparse.Namespace) -> int:
    _require_dir(args.test, "--test")
    _require_file(args.labels, "--labels")
    _require_file(args.checkpoint, "--checkpoint")
    dataset = load_dataset(args.test, args.labels)
    checkpoint = read_checkpoint(args.checkpoint)
    expected = checkpoint.thetas.shape[0]
    if dataset.n_classes != expected:
        raise UsageError(
            f"label file has {dataset.n_classes} classes, "
            f"checkpoint expects {expected}")
    reports = evaluate_checkpoint(checkpoint, dataset)
    for rep in reports:
        print(f"class {rep.class_index}: ap={rep.ap:.6f} "
              f"accuracy={rep.accuracy:.6f}")
    mean_ap = float(np.mean([rep.ap for rep in reports]))
    print(f"mean ap: {mean_ap:.6f}")
    return 0


# ---------------------------------------------------------- gradcheck


def cmd_gradcheck(args: argparse.Namespace) -> int:
    worst = run_battery(seed=args.seed)
    width = max(len(name) for name in worst)
    failed = []
    for name in sorted(worst):
        err = worst[name]
        status = "pass" if err <= args.tol else "FAIL"
        print(f"{name:<{width}}  {err:12.3e}  {status}")
        if err > args.tol:
            failed.append(name)
    if failed:
        print(f"gradcheck: {len(failed)} block(s) above {args.tol:g}")
        return 1
    print(f"gradcheck: all {len(worst)} blocks within {args.tol:g}")
    return 0


# ------------------------------------------------------------- demo2d


def cmd_demo2d(args: argparse.Namespace) -> int:
    dataset = make_synthetic_2d(args.images, seed=args.seed)
    result = shift_demo(dataset, steps=args.steps, eta=args.eta,
                        n_components=args.k, seed=args.seed)
    with open(args.out, "w") as fh:
        fh.write("step,image_id,point,label,x,y\n")
        for step, cloud in enumerate(result.positions):
            for i, image_id in enumerate(result.image_ids):
                label = int(result.labels[i])
                for j in range(cloud.shape[1]):
                    fh.write(f"{step},{image_id},{j},{label},"
                             f"{_float_cell(cloud[i, j, 0])},"
                             f"{_float_cell(cloud[i, j, 1])}\n")
    print(f"demo2d: accuracy {result.accuracies[0]:.4f} -> "
          f"{result.accuracies[-1]:.4f} over {args.steps} steps")
    print(f"demo2d: separation {result.separations[0]:.4f} -> "
          f"{result.separations[-1]:.4f}, wrote {args.out}")
    return 0


# -------------------------------------------------------------- bench


def _int_list(text: str) -> list[int]:
    values = [_positive_int(tok) for tok in text.split(",") if tok]
    if not values:
        raise argparse.ArgumentTypeError(f"need positive ints: {text!r}")
    return values


def cmd_bench(args: argparse.Namespace) -> int:
    # rows are timed in this process; only --speedup uses the workers
    rows = [row for k in args.k for d in args.d
            for row in scaling_in_t(args.t, k=k, d=d, seed=args.seed,
                                    repeats=args.repeats)]
    text = format_csv(rows)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"bench: wrote {len(rows)} rows to {args.out}")
    else:
        sys.stdout.write(text)
    if args.speedup:
        ms1, msn, ratio = batch_speedup(workers=args.threads, seed=args.seed)
        print(f"bench: batch of {BATCH_IMAGES} images, 1 worker {ms1:.1f} ms, "
              f"{args.threads} workers {msn:.1f} ms, speedup {ratio:.2f}x")
    return 0


# -------------------------------------------------------------- synth


def cmd_synth(args: argparse.Namespace) -> int:
    dataset = make_synthetic_2d(args.images, seed=args.seed,
                                n_points=args.points)
    os.makedirs(args.out, exist_ok=True)
    save_dataset(dataset, args.out, args.labels)
    print(f"synth: wrote {len(dataset.items)} images to {args.out}, "
          f"labels to {args.labels}")
    return 0


# ------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fvlayer",
        description="Fisher-vector encoding layer: fit, train, check, bench.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("pca", help="fit a PCA projection on feature files")
    p.add_argument("--input", required=True, help="directory of .fvfs files")
    p.add_argument("--dim", type=_positive_int, default=64)
    p.add_argument("--out", required=True, help="output model path")
    p.add_argument("--apply-out", default=None,
                   help="also write projected copies of the inputs here")
    p.set_defaults(func=cmd_pca)

    p = sub.add_parser("train", help="run the two-phase trainer")
    p.add_argument("--train", required=True, help="directory of .fvfs files")
    p.add_argument("--labels", required=True)
    p.add_argument("--mode", choices=[m.value for m in TrainMode],
                   default=TrainConfig.mode.value)
    p.add_argument("--k", type=_positive_int, default=TrainConfig.n_components)
    p.add_argument("--batch", type=_positive_int, default=TrainConfig.batch_size)
    p.add_argument("--eta", type=float, default=TrainConfig.eta)
    p.add_argument("--epochs", type=int, default=TrainConfig.joint_epochs,
                   help="joint training epochs")
    p.add_argument("--init-epochs", type=int, default=TrainConfig.svm_init_epochs,
                   help="SDCA epoch cap for the initial SVM fit")
    p.add_argument("--svm-epochs", type=int, default=TrainConfig.svm_epochs,
                   help="SDCA epoch cap for per-epoch refits")
    p.add_argument("--gap-tol", type=float, default=TrainConfig.gap_tol)
    p.add_argument("--subsample", type=_positive_int, default=TrainConfig.subsample,
                   help="max points per image for GMM fitting")
    p.add_argument("--seed", type=int, default=TrainConfig.seed)
    p.add_argument("--threads", type=_positive_int, default=1,
                   help="worker processes for encoding and gradients")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--metrics", default="metrics.csv")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a checkpoint on a labeled set")
    p.add_argument("--test", required=True, help="directory of .fvfs files")
    p.add_argument("--labels", required=True)
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck",
                       help="analytic vs numeric derivative table")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-6)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("demo2d", help="2D point-shifting demonstration")
    p.add_argument("--steps", type=_positive_int, default=40)
    p.add_argument("--eta", type=float, default=0.4)
    p.add_argument("--k", type=_positive_int, default=2)
    p.add_argument("--images", type=_positive_int, default=60,
                   help="images per class")
    p.add_argument("--seed", type=int, default=23)
    p.add_argument("--out", required=True, help="positions CSV path")
    p.set_defaults(func=cmd_demo2d)

    p = sub.add_parser("bench", help="wall-clock scaling benchmark")
    p.add_argument("--t", type=_int_list, default=[1024, 2048, 4096])
    p.add_argument("--k", type=_int_list, default=[16])
    p.add_argument("--d", type=_int_list, default=[32])
    p.add_argument("--repeats", type=_positive_int, default=5)
    p.add_argument("--threads", type=_positive_int, default=1,
                   help="workers for --speedup; CSV rows are timed in one process")
    p.add_argument("--speedup", action="store_true",
                   help=f"also time a {BATCH_IMAGES}-image batch at 1 vs "
                        "--threads workers")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="CSV path (default: stdout)")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("synth", help="generate the synthetic 2D dataset")
    p.add_argument("--images", type=_positive_int, default=60, help="images per class")
    p.add_argument("--points", type=_positive_int, default=32)
    p.add_argument("--seed", type=int, default=21)
    p.add_argument("--out", required=True, help="feature directory")
    p.add_argument("--labels", required=True, help="label file path")
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _echo_config(args)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FileFormatError, ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
