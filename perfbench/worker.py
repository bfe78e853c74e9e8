"""One measuring process of a benchmark run; run.py starts several in turn.

    python3 perfbench/worker.py --workload dag --seed 7 --seconds 8 --trace 0 --part 0

The process first times a cold set-up of its family, then runs repetitions
part, part + PROCESSES, part + 2 * PROCESSES, ... of the ``reproduce`` protocol:
all of those below the workload's fixed count, then more until ``--seconds``
have passed. It prints one JSON object of raw samples, records and check
failures as its last line; run.py pools the parts into metrics.
"""

from __future__ import annotations

import argparse
import json
import logging
import resource
import sys
from dataclasses import asdict

import env
from measure import (ITERATIONS, L1_LAMBDA, M_TEST, M_TRAIN, PROCESSES, WORKLOADS, Checks,
                     ErrorLog, measure_setup, plain_run, traced_run)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--part", type=int, required=True)
    args = p.parse_args(argv)

    try:
        randcrf = env.import_randcrf()
    except env.SourceMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import randcrf.harness
    import randcrf.losses  # noqa: F401  (span targets)

    wl = WORKLOADS[args.workload]
    family = randcrf.parse_family(wl.family)
    cfg = randcrf.ExperimentConfig(family=family, m_train=M_TRAIN, m_test=M_TEST,
                                   repetitions=wl.reps, l1_lambda=L1_LAMBDA,
                                   iterations=ITERATIONS, master_seed=args.seed)
    k = cfg.resolved_k()
    setup = measure_setup(randcrf, family, k)
    errors = ErrorLog()
    logging.getLogger("randcrf.harness").addHandler(errors)
    checks = Checks()
    indices = range(args.part, 1 << 30, PROCESSES)
    if args.trace:
        plain, traced, samples, untrained = traced_run(randcrf, cfg, indices, args.seconds, checks)
    else:
        plain, traced, samples, untrained = plain_run(randcrf, cfg, indices, wl.reps,
                                                      args.seconds, checks)
    for rep in plain + traced:
        checks.records(rep.records)
    indptr, _ = randcrf.space(family).neighbor_csr(k)
    print(json.dumps({
        "stamp": env.stamp(args.seed),
        "k": k,
        "setup": setup,
        "counts": {"spaces.r": int(indptr.size - 1), "spaces.nb_entries": int(indptr[-1])},
        "samples": samples,
        "records": [asdict(r) for rep in plain for r in rep.records],
        "csv_columns": [c for c in randcrf.harness.METRICS_CSV_HEADER
                        if c not in randcrf.harness.TIMING_COLUMNS],
        "attempted": len(plain + traced) * len(cfg.methods),
        "returned": sum(len(rep.records) for rep in plain + traced),
        "untrained_hamming": untrained,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "harness_errors": errors.messages,
        "failures": checks.failures,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
