import subprocess
import sys
from pathlib import Path

SMOKE = Path(__file__).resolve().parent.parent / "bench" / "smoke.py"


def test_bench_smoke():
    # Runs every benchmark workload at toy size, traced and untraced; the
    # traced runs fail when a layer the tracer wraps no longer exists or
    # when sampled retrieval calls disagree with the benchmark's own scan.
    # A RuntimeWarning is an error, as in tier-1, so a warning in a timed
    # operation counts as a failed operation.
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(SMOKE)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-4000:]
