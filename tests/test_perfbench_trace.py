"""The benchmark's traced mode runs against the package's current names."""

import json
import subprocess
import sys

from conftest import REPO_ROOT


def test_traced_benchmark_run_completes():
    """``--trace 1`` wraps module attributes by name (``metrics.forward_batch``,
    ``learning.read_class_batch``, ...), so renaming or dropping one of those
    imports makes every traced run fail."""
    done = subprocess.run(
        [sys.executable, str(REPO_ROOT / "perfbench" / "run.py"),
         "--workload", "srm_fidelity", "--seed", "0", "--seconds", "0.3", "--trace", "1"],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert json.loads(done.stdout.splitlines()[-1])["correct"] is True
