import importlib.util
import subprocess
import sys
import time
from pathlib import Path

from cpc.controller import SIGMA_BOOT
from cpc.experiments import NOISE_MULT, ExperimentConfig, generate_falls, run_balance_trial, trial_seed

BENCH = Path(__file__).resolve().parent.parent / "bench"
SMOKE = BENCH / "smoke.py"

# Layers a balance trial must reach: a hook whose name still resolves but
# that the cycle no longer calls would show in the benchmark only as a
# per-layer 0.
BALANCE_LAYERS = (
    "controller.step",
    "dynamics.step",
    "target_store.query",
    "control_law.estimate_B",
    "value.candidate_costs",
    "control_law.cpc_tau",
    "target_store.index_build",
)


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


def _bench_tracing():
    """The benchmark's tracing module, loaded from its file."""
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_reaches_every_balance_layer():
    # One short acrobot trial under the benchmark's tracer records a span
    # in every balance layer, and tracing leaves its record unchanged.
    tracing = _bench_tracing()
    cfg = ExperimentConfig(t_max=0.3)
    seed = trial_seed(0, "tracer", 0)
    store = generate_falls(cfg, 3, seed=trial_seed(seed, "falls", 0))
    noise_amp = NOISE_MULT * SIGMA_BOOT
    want = run_balance_trial(store, cfg, noise_amp, seed, 0, 3)
    with tracing.Tracer(time.perf_counter) as tracer:
        got = run_balance_trial(store, cfg, noise_amp, seed, 0, 3)
    assert not tracer.missing
    counts = {name: len(tracer.spans[name]) for name in BALANCE_LAYERS}
    assert all(counts.values()), counts
    assert got == want
