"""What ``import randcrf`` loads: scipy.stats costs a process 0.6-1.0 s and
about 70 MB, so only ``summarize`` imports it, on first use."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import json, sys
import randcrf
after_import = sorted(m for m in ("scipy", "scipy.stats") if m in sys.modules)
from randcrf.harness import METRIC_COLUMNS, MetricsRecord, summarize
records = [MetricsRecord(run_id="probe", repetition=i, method="crf_all", family="set:3,6",
                         beta=1.0, train_loss_support="full",
                         **{c: float(i) for c in METRIC_COLUMNS})
           for i in range(2)]
rows = summarize(records)
print(json.dumps({"after_import": after_import,
                  "intervals": [[r.ci_low, r.mean, r.ci_high] for r in rows]}))
"""


def test_import_leaves_scipy_to_summarize():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    probe = json.loads(done.stdout)
    assert probe["after_import"] == []
    # tests/test_harness.py pins the interval values
    assert probe["intervals"]
    for low, mean, high in probe["intervals"]:
        assert math.isfinite(low) and math.isfinite(high) and low < mean < high
