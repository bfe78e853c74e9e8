"""What ``import randcrf`` loads and exports.  scipy.stats costs a process
0.6-1.0 s and about 70 MB, so only ``summarize`` imports it, on first use.
Each exported name is one that the package's own modules or the benchmark
use, or one kept on purpose below."""

import ast
import json
import math
import os
import subprocess
import sys
import types
from pathlib import Path

import randcrf

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: Exports that no code in src/ or perfbench/ uses, each kept for a reason.
KEEP = {
    # the paper's decoders, proposal, noise transform, feature map and
    # gain, which the acceptance suite checks against their definitions
    "crf_pmf", "perturbed_decode", "map_decode", "propose", "gumbel_from_uniform",
    "feature_map", "log_gain", "log_gain_gradient", "make_input",
    # the paper's diagnostics, which a run log is to report
    "proposal_quality_frequency", "beta_condition", "sample_size_condition",
    # the layout of the feature grid that inputs and weights are indexed by
    "unordered_pair_index", "ordered_pair_index",
}

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


def _names_used(paths) -> set[str]:
    """Identifiers read as names or attributes anywhere in the files (not
    the names that ``def``, ``class`` or ``import`` bind)."""
    used = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_every_export_is_used_or_kept():
    exports = {name for name, value in vars(randcrf).items()
               if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    code = [p for p in (SRC / "randcrf").glob("*.py") if p.name != "__init__.py"]
    used = _names_used(code + sorted((ROOT / "perfbench").glob("*.py")))
    assert sorted(exports - used - KEEP) == [], "exported, but used only by tests"
    assert sorted(KEEP - exports) == [], "kept, but not exported"
    assert sorted(KEEP & used) == [], "kept, but now used: drop it from KEEP"


def test_only_spaces_reads_the_feature_layout():
    # the padded feature table, the packed masks and the distance's
    # normalizer have one owner: every other module scores, sums, builds
    # feature rows and measures normalized distances through the space's methods
    layout = {"feature_indices", "incidence", "masks", "hamming_normalizer"}
    readers = {path.name: sorted(layout & _names_used([path]))
               for path in (SRC / "randcrf").glob("*.py") if path.name != "spaces.py"}
    assert {name: read for name, read in readers.items() if read} == {}
