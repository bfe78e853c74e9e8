#!/usr/bin/env python3
"""randcrf benchmark: one workload of the ``reproduce`` comparison protocol.

    python3 perfbench/run.py --workload dag --seed 7 --seconds 40 --trace 0

It imports ``randcrf`` from ``src/`` of the checkout that holds this
directory. The run starts the workload's measuring processes (worker.py) one
after another, splits ``--seconds`` and the repetitions between them and
pools their samples. When a measuring process fails or does not end in
time, for instance because the checkout has no package source, the run
exits with status 2 and prints no result.

``--trace 0`` times whole repetitions with nothing installed in the package
and reports the end-to-end metrics. ``--trace 1`` alternates plain and
span-wrapped repetitions and reports the per-layer metrics, including the
tracing overhead. Both modes check the outputs. Metric names, units,
directions and bounds are declared in BENCHMARK.json at the checkout root;
perfbench/README.md explains the choices.

Standard output holds the environment stamp, a readable table, the Hamming
means, with ``--trace 0`` the output digest, and as its last line one JSON
object with the keys correct, attempted, failed and metrics. A failed output
check, a (repetition, method) pair without record among them, prints CHECK
FAILED lines to standard error and exits with status 1.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import statistics
import subprocess
import sys
from pathlib import Path

import env
from measure import (ITERATIONS, M_TEST, M_TRAIN, METHODS, PROCESSES, SPAN_TARGETS,
                     WORKLOADS)

HERE = Path(__file__).resolve().parent

# The acceptance suite trains on master seed 2026; the benchmark defaults to
# another seed so that one stays held out.
DEFAULT_SEED = 7

# name -> unit, in report order; BENCHMARK.json lists the same names
END_TO_END = {
    "setup_s": "s",
    "rep_s": "s",
    "rep_cpu_s": "s",
    **{f"{m}_train_s": "s" for m in METHODS},
    "crf_speedup": "ratio",
    "svm_speedup": "ratio",
    "peak_rss_mb": "MB",
}

SETUP_STAGES = ("space_s", "neighbor_csr_s", "feature_indices_s")

PER_LAYER = {
    **{f"spaces.{stage}": "s" for stage in SETUP_STAGES},
    "spaces.r": "count",
    "spaces.nb_mean": "count",
    "spaces.nb_entries": "count",
    "proposal.build_candidate_sets_s": "s",
    "proposal.set_size_mean": "count",
    "proposal.set_size_max": "count",
    "proposal.unique_frac": "ratio",
    "proposal.nb_evals": "count",
    "trainer.crf_full_grad_s": "s",
    "trainer.hinge_full_s": "s",
    "trainer.crf_sets_grad_s": "s",
    "trainer.hinge_sets_s": "s",
    **{f"trainer.{m}.iter_s": "s" for m in METHODS},
    **{f"trainer.{m}.set_size_mean": "count" for m in METHODS},
    **{f"{name}_s": "s" for _, _, name in SPAN_TARGETS},
    "losses.loss_gap_s": "s",
    "harness.eval_s": "s",
    "trace.overhead_s": "s",
}

# Counts reported as means over the probed repetitions, not medians.
MEAN_COUNTS = ("proposal.set_size_mean", "proposal.unique_frac", "proposal.nb_evals",
               *(f"trainer.{m}.set_size_mean" for m in METHODS))

# A trainer that stops learning would look fast: every method's mean test
# Hamming must be at most this share of the untrained (all-zero) decoder's on
# the same repetitions. Trained methods stayed below 0.5 of it in every
# window of four dag repetitions seen; all-zero weights give exactly 1.
QUALITY_SHARE = 0.75

# Time a measuring process may take beyond its share of --seconds: import,
# cold set-up, the workload's fixed repetitions and the untimed replays. On a
# 2-core machine a process took 5-9 s beyond its share.
PART_SLACK_S = 45.0


class PartError(RuntimeError):
    """A measuring process failed or ran out of time; the run has no result."""


def median(values) -> float:
    return float(statistics.median(values))


def run_parts(args, wl) -> list[dict]:
    results = []
    share = args.seconds / PROCESSES
    for part in range(PROCESSES):
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
                 "--seed", str(args.seed), "--seconds", str(share),
                 "--trace", str(args.trace), "--part", str(part)],
                cwd=env.ROOT, stdout=subprocess.PIPE, text=True,
                timeout=share + PART_SLACK_S)
        except subprocess.TimeoutExpired:
            raise PartError(f"measuring process {part} did not end within "
                            f"{share + PART_SLACK_S:.0f} s and was stopped") from None
        if proc.returncode != 0:
            raise PartError(f"measuring process {part} exited with status {proc.returncode}")
        results.append(json.loads(proc.stdout.splitlines()[-1]))
    return results


def pooled(results: list[dict], name: str) -> list:
    values = [v for res in results for v in res["samples"].get(name, ())]
    if not values:
        raise RuntimeError(f"no samples of {name}")
    return values


def end_to_end_metrics(results: list[dict]) -> tuple[dict, dict]:
    """Metric values and, for timings, the pooled samples they are medians of."""
    samples = {"setup_s": [sum(res["setup"].values()) for res in results]}
    for name in ("rep_s", "rep_cpu_s", *(f"{m}_train_s" for m in METHODS)):
        samples[name] = pooled(results, name)
    values = {name: median(vals) for name, vals in samples.items()}
    values["crf_speedup"] = values["crf_all_train_s"] / values["crf_rand_train_s"]
    values["svm_speedup"] = values["svm_all_train_s"] / values["svm_rand_train_s"]
    values["peak_rss_mb"] = max(res["peak_rss_mb"] for res in results)
    return values, samples


def per_layer_metrics(results: list[dict]) -> tuple[dict, dict]:
    samples = {f"spaces.{stage}": [res["setup"][stage] for res in results]
               for stage in SETUP_STAGES}
    for name, unit in PER_LAYER.items():
        if unit == "s" and name not in samples and name != "trace.overhead_s":
            samples[name] = pooled(results, name)
    values = {name: median(vals) for name, vals in samples.items()}
    counts = results[0]["counts"]
    values.update(counts)
    values["spaces.nb_mean"] = counts["spaces.nb_entries"] / counts["spaces.r"]
    values.update({name: statistics.fmean(pooled(results, name)) for name in MEAN_COUNTS})
    values["proposal.set_size_max"] = max(pooled(results, "proposal.set_size_max"))
    values["trace.overhead_s"] = (median(pooled(results, "trace.traced_rep_s"))
                                  - median(pooled(results, "trace.plain_rep_s")))
    return values, samples


def csv_digest(columns: list[str], records: list[dict]) -> str:
    """sha256 of the metrics CSV of these records with the timing columns
    dropped: equal digests mean byte-identical outputs."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(columns)
    for r in sorted(records, key=lambda r: (r["repetition"], r["method"])):
        writer.writerow([r[c] for c in columns])
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


def upper_percentile(values) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return "-"
    return f"p{100.0 * (n - 10) / n:.0f}={sorted(values)[n - 11]:.6g}"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"master seed of the workload's data (default {DEFAULT_SEED})")
    p.add_argument("--seconds", type=float, default=40.0,
                   help="measuring time, split between the measuring processes; the "
                        "workload's fixed repetitions always run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    wl = WORKLOADS[args.workload]
    try:
        results = run_parts(args, wl)
    except PartError as exc:
        print(f"perfbench: {exc}; no result", file=sys.stderr)
        return 2
    records = [r for res in results for r in res["records"]]
    if args.trace:
        values, samples = per_layer_metrics(results)
        units, fixed = PER_LAYER, records
    else:
        values, samples = end_to_end_metrics(results)
        units, fixed = END_TO_END, [r for r in records if r["repetition"] < wl.reps]
    attempted = sum(res["attempted"] for res in results)
    failed = attempted - sum(res["returned"] for res in results)
    failures = [f for res in results for f in res["failures"]]
    if failed:
        failures.append(f"{failed} of {attempted} (repetition, method) pairs returned no record")
    hamming = {m: statistics.fmean(r["test_hamming"] for r in fixed if r["method"] == m)
               for m in METHODS}
    untrained = statistics.fmean(h for res in results for h in res["untrained_hamming"])
    failures += [f"{m}: mean test Hamming {h:.4f} is above {QUALITY_SHARE} x the untrained "
                 f"decoder's {untrained:.4f}" for m, h in hamming.items()
                 if not h <= QUALITY_SHARE * untrained]

    print("env", json.dumps(results[0]["stamp"], sort_keys=True))
    print(f"workload {args.workload}: {wl.family}, k={results[0]['k']}, m={M_TRAIN}/{M_TEST}, "
          f"{ITERATIONS} iterations, seed {args.seed}, trace {args.trace}, "
          f"{PROCESSES} measuring processes")
    print(f"{'metric':34s} {'median':>12s} {'upper':>16s} {'n':>4s}  unit")
    for name, unit in units.items():
        vals = samples.get(name, ())
        print(f"{name:34s} {values[name]:12.6g} {upper_percentile(vals):>16s} "
              f"{len(vals) if vals else '':>4}  {unit}")
    print(f"{'failed_frac':34s} {failed / attempted:12.6g} {'':>16s} {'':>4}  ratio")
    if not args.trace:
        print(f"crf_speedup = {values['crf_all_train_s']:.6g} s / "
              f"{values['crf_rand_train_s']:.6g} s; svm_speedup = "
              f"{values['svm_all_train_s']:.6g} s / {values['svm_rand_train_s']:.6g} s")
    reps = sorted({r["repetition"] for r in fixed})
    print("test_hamming " + " ".join(f"{m}={v:.6g}" for m, v in hamming.items())
          + f" untrained={untrained:.6g} over {len(reps)} repetitions")
    if not args.trace:
        # the traced run's repetitions depend on the time budget, so only the
        # fixed repetitions of a plain run give a comparable digest
        print(f"digest sha256:{csv_digest(results[0]['csv_columns'], fixed)} "
              f"(metrics CSV without train_seconds, repetitions {reps[0]}-{reps[-1]})")
    print(f"(repetition, method) pairs attempted {attempted}, without record {failed}")
    for message in (m for res in results for m in res["harness_errors"]):
        print(f"harness error: {message}")
    for failure in failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    correct = not failures
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {n: {"value": values[n], "unit": u} for n, u in units.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
