"""Command-line interface: data generation, training, evaluation, bound
tables, and the full synthetic comparison."""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import harness
from .bounds import BOUND_TABLE_HEADER, bound_table
from .losses import LOSS_CSV_HEADER, exact_crf_loss, hamming_loss
from .spaces import space
from .trainer import TRACE_CSV_HEADER, Method, beta_schedule, trace_csv_rows


def _add_gen_data(sub):
    p = sub.add_parser("gen-data", help="generate a synthetic dataset")
    p.add_argument("--family", required=True, help="tree[:v] | dag[:v,p] | set[:k,u]")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--m", type=int, default=100)
    p.add_argument("--out", required=True)
    p.add_argument("--weights-out", help="also write the sampled ground-truth weights")


def _cmd_gen_data(args) -> int:
    if args.m < 1:
        raise ValueError(f"--m must be >= 1, got {args.m}")
    family = harness.parse_family(args.family)
    # the streams of repetition 0 of `reproduce --seed`
    w_star = harness.generate_ground_truth(family, harness.stream(args.seed, 0, "ground_truth"))
    S = harness.generate_dataset(family, w_star, args.m, harness.stream(args.seed, 0, "train_x"))
    harness.save_dataset(args.out, S)
    if args.weights_out:
        harness.save_weights(args.weights_out, w_star)
    print(f"wrote {S.m} samples to {args.out}")
    return 0


#: ExperimentConfig keys that only ``reproduce`` reads: ``train`` takes m from
#: its data file and trains the one ``--method``.
_PROTOCOL_KEYS = ("m_train", "m_test", "repetitions", "methods")


def _add_train(sub):
    p = sub.add_parser("train", help="train one method on a dataset")
    p.add_argument("--method", required=True, choices=[m.value for m in Method])
    p.add_argument("--config", required=True,
                   help="JSON file of ExperimentConfig keys other than " + ", ".join(_PROTOCOL_KEYS))
    p.add_argument("--data", required=True)
    p.add_argument("--out-weights", required=True)
    p.add_argument("--trace", help="per-iteration CSV")
    p.add_argument("--run-id", default="train")


def _cmd_train(args) -> int:
    with open(args.config) as fh:
        try:
            raw = json.load(fh)
            cfg = harness.ExperimentConfig.from_dict(raw)
            protocol = [key for key in _PROTOCOL_KEYS if key in raw]
            if protocol:
                raise ValueError(f"train takes m from --data and the method from --method; "
                                 f"drop {', '.join(protocol)}")
        except ValueError as exc:
            raise ValueError(f"{args.config}: {exc}") from None
    method = Method(args.method)
    S = harness.load_dataset(args.data, cfg.family)
    w_hat, trace = harness._train_method(
        method, S, cfg, harness.stream_seed(cfg.master_seed, 0, "proposal", method))
    harness.save_weights(args.out_weights, w_hat)
    if args.trace:
        harness.write_csv(args.trace, TRACE_CSV_HEADER, trace_csv_rows(trace, args.run_id, method))
    print(f"trained {method.value}: final objective {trace.rows[-1].objective:.6f}, "
          f"support {int(np.count_nonzero(w_hat))}")
    return 0


def _add_eval(sub):
    p = sub.add_parser("eval", help="evaluate saved weights on a dataset")
    p.add_argument("--weights", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--family", required=True)
    p.add_argument("--metrics", required=True, help="output CSV of loss rows")
    p.add_argument("--beta", type=float,
                   help="Gumbel scale; default is beta_schedule(m, r) with m the number of "
                        "samples in --data (reproduce scores its test sets at "
                        "beta_schedule(m_train, r) instead)")
    p.add_argument("--run-id", default="eval")
    p.add_argument("--method", default="eval")


def _cmd_eval(args) -> int:
    family = harness.parse_family(args.family)
    S = harness.load_dataset(args.data, family)
    w = harness.load_weights(args.weights)
    if w.size != family.feature_dim:
        raise ValueError(f"{args.weights}: {w.size} weights, but "
                         f"{args.family} has {family.feature_dim} features")
    beta = args.beta if args.beta is not None else beta_schedule(S.m, space(family).size)
    reports = [exact_crf_loss(w, S, beta), hamming_loss(w, S)]
    harness.write_csv(args.metrics, LOSS_CSV_HEADER,
                      [rep.csv_row(args.run_id, args.method) for rep in reports])
    for rep in reports:
        print(f"{rep.kind.value}: {rep.value:.6f}")
    return 0


def _add_bounds(sub):
    p = sub.add_parser("bounds", help="print bound values over a parameter grid")
    p.add_argument("--grid", required=True,
                   help="semicolon-separated lists, e.g. 'd=105;s=11;m=25,100,400;n=10;r=1365;delta=0.05'")
    p.add_argument("--out", help="optional CSV destination")


def _parse_grid(spec: str) -> dict[str, list]:
    grid: dict[str, list] = {}
    for part in spec.split(";"):
        if not part.strip():
            continue
        key, _, vals = part.partition("=")
        key = key.strip()
        conv = float if key in ("delta", "l1") else int
        try:
            grid[key] = [conv(v) for v in vals.split(",")]
        except ValueError:
            raise ValueError(f"grid key '{key}' needs {conv.__name__} values, "
                             f"got '{vals}'") from None
    return grid


def _cmd_bounds(args) -> int:
    rows = bound_table(_parse_grid(args.grid))
    header = BOUND_TABLE_HEADER
    widths = [max(len(h), 12) for h in header]
    print("  ".join(h.rjust(w) for h, w in zip(header, widths)))
    for row in rows:
        cells = [f"{v:.6g}" if isinstance(v, float) else str(v) for v in row]
        print("  ".join(c.rjust(w) for c, w in zip(cells, widths)))
    if args.out:
        harness.write_csv(args.out, header, rows)
    return 0


def _add_reproduce(sub):
    p = sub.add_parser("reproduce", help="run the full four-method comparison")
    p.add_argument("--families", default="tree,dag,set",
                   help="comma-separated family labels")
    p.add_argument("--reps", type=int, default=30)
    p.add_argument("--out", required=True, help="metrics CSV")
    p.add_argument("--summary", help="summary CSV (means and 95%% CIs)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--m-train", type=int, default=100)
    p.add_argument("--m-test", type=int, default=100)
    p.add_argument("--iterations", type=int, default=20)
    p.add_argument("--l1", type=float, default=0.01)
    p.add_argument("--methods", default=",".join(m.value for m in Method))


def _cmd_reproduce(args) -> int:
    methods = tuple(Method(m) for m in args.methods.split(","))
    all_records, missing = [], []
    for family in harness.parse_family_list(args.families):
        cfg = harness.ExperimentConfig(
            family=family, m_train=args.m_train, m_test=args.m_test,
            repetitions=args.reps, methods=methods, l1_lambda=args.l1,
            iterations=args.iterations, master_seed=args.seed)
        records = harness.run_experiment(cfg)
        all_records.extend(records)
        label = harness.family_label(family)
        print(f"{label}: {len(records)} records", file=sys.stderr)
        # run_repetition logs a failed method and drops its record
        present = {(r.repetition, r.method) for r in records}
        missing += [(label, rep, m.value) for rep in range(args.reps) for m in methods
                    if (rep, m.value) not in present]
    harness.write_csv(args.out, harness.METRICS_CSV_HEADER, map(dataclasses.astuple, all_records))
    for label, rep, method in missing:
        print(f"failed: family {label}, repetition {rep}, method {method}", file=sys.stderr)
    if args.summary:
        harness.write_csv(args.summary, harness.SUMMARY_CSV_HEADER,
                          map(dataclasses.astuple, harness.summarize(all_records)))
    print(f"wrote {len(all_records)} records to {args.out}")
    return 1 if missing else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="randcrf",
        description="Perturb-and-MAP structured prediction: exact and randomized CRF training")
    sub = parser.add_subparsers(dest="command", required=True)
    _add_gen_data(sub)
    _add_train(sub)
    _add_eval(sub)
    _add_bounds(sub)
    _add_reproduce(sub)
    return parser


_COMMANDS = {
    "gen-data": _cmd_gen_data,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "bounds": _cmd_bounds,
    "reproduce": _cmd_reproduce,
}


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand; an input error (ValueError, OSError) prints one
    line to stderr and returns 2."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "reproduce" and args.summary and args.reps < 2:
        parser.error("reproduce --summary needs --reps 2 or more for confidence intervals")
    try:
        if getattr(args, "seed", 0) < 0:  # gen-data and reproduce
            raise ValueError(f"--seed must be >= 0, got {args.seed}")
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"randcrf: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
