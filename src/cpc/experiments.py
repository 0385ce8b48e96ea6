"""Experiment harness: fall-data generation, balance trials and sample-count
sweeps.

The balance experiment records short uncontrolled falls of the chain from
upright rest under small torque noise, builds a target store from them, and
runs the controller with the reversed time-scale goal so retrieved fall
segments are tracked backwards, toward the equilibrium. A trial ends when a
link tips past horizontal or the observation window runs out.

Every random draw derives from the master seed through a hash chain, so
datasets and result tables reproduce byte for byte.
"""

import csv
import hashlib
import math
from dataclasses import InitVar, dataclass
from typing import ClassVar

import numpy as np

from . import dynamics
from .controller import DT, SIGMA_BOOT, ControllerConfig, controller_step, make_controller
from .dynamics import ChainParams, State, _as_int, acrobot_params
from .errors import DatasetSchemaMismatch
from .target_store import NonEmptyStore as BallTree  # hook: bench/tracing.py target_store.index_build
from .target_store import TargetStore

# Absolute link angle from vertical past which the balance task is lost.
FALL_ANGLE = math.pi / 2
# Length (s) of one recorded fall; its torque noise has scale SIGMA_BOOT.
FALL_DURATION = 1.0
# The balance disturbance: torque noise of scale NOISE_MULT * SIGMA_BOOT.
NOISE_MULT = 6.0


@dataclass(frozen=True)
class ExperimentConfig:
    """What a sample-count sweep takes in: the trial horizon, the trials per
    n_f, the n_f list and the master seed (defaults reproduce the standard
    runs). The step, fall length and noise scales are the protocol's
    constants DT, FALL_DURATION, SIGMA_BOOT and NOISE_MULT. The benchmark
    reads them as ``dt``, ``sigma0`` and ``noise_mult`` and passes
    ``workers=1``, so those names stay; a sweep runs its trials serially."""

    t_max: float = 30.0
    trials: int = 100
    n_f_list: tuple[int, ...] = (3, 10, 30, 100)
    master_seed: int = 0
    workers: InitVar[int] = 1

    dt: ClassVar[float] = DT
    sigma0: ClassVar[float] = SIGMA_BOOT
    noise_mult: ClassVar[float] = NOISE_MULT

    def __post_init__(self, workers):
        # A trial runs round(t_max / DT) cycles; zero would be reported as
        # a survival to t_max. Rounding half to even, round(x) >= 1 exactly
        # when x > 0.5.
        if not (math.isfinite(self.t_max) and self.t_max / DT > 0.5):
            raise ValueError("t_max must be finite and span at least one step DT")
        try:
            counts = [_as_int(n) for n in (self.trials, workers, *self.n_f_list)]
        except TypeError as e:
            raise ValueError(f"trials, workers and every n_f must be integers: {e}") from e
        trials, workers, *n_f_list = counts
        if workers != 1 or min(counts) < 1 or not n_f_list:
            raise ValueError("need workers == 1 (trials run serially), trials >= 1 and n_f >= 1")
        object.__setattr__(self, "trials", trials)
        object.__setattr__(self, "n_f_list", tuple(n_f_list))


@dataclass(frozen=True)
class TrialRecord:
    """One balance trial: identity, seed and outcome."""

    trial_id: int
    n_f: int
    seed: int
    t_f: float
    fell: bool


def trial_seed(master_seed: int, experiment_id: str, index: int) -> int:
    """Stable per-trial seed derived by hashing (master, experiment, index)."""
    digest = hashlib.sha256(f"{master_seed}:{experiment_id}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def generate_falls(
    cfg: ExperimentConfig,
    n_f: int,
    seed: int,
    params: ChainParams | None = None,
) -> TargetStore:
    """Record n_f uncontrolled fall trajectories from upright rest.

    Each trajectory applies zero-mean torque noise of scale SIGMA_BOOT for
    FALL_DURATION; every recorded point carries zero return. Raises
    ValueError unless n_f is an integer >= 1 (see ``dynamics._as_int``).
    Nothing is read from ``cfg``; it stays for the benchmark's call.
    """
    try:
        n_f = _as_int(n_f)
    except TypeError as e:
        raise ValueError(f"n_f must be an integer: {e}") from e
    if n_f < 1:
        raise ValueError("n_f must be >= 1")
    params = params or acrobot_params()
    rng = np.random.default_rng(seed)
    n_steps = round(FALL_DURATION / DT)
    n, m = params.n_links, params.n_controls
    rows = n_f * n_steps
    # One draw in (fall, step, control) order is the same stream as drawing
    # each step's noise in turn, fall after fall.
    tau = rng.normal(0.0, SIGMA_BOOT, size=(n_f, n_steps, m))
    t = np.empty(n_steps)
    # As (N, rows), rows in (fall, step) order, the transposes of these
    # buffers are the column-major arrays the store keeps.
    q = np.empty((n, n_f, n_steps))
    qdot = np.empty((n, n_f, n_steps))
    # The falls are independent, so one batch ``step`` per time step
    # advances them all: row after row for a few falls, as whole arrays for
    # many (see ``dynamics.step``).
    st = State(np.zeros((n_f, n)), np.zeros((n_f, n)), 0.0)
    for i in range(n_steps):
        t[i], q[:, :, i], qdot[:, :, i] = st.t, st.q.T, st.qdot.T
        st = dynamics.step(params, st, tau[:, i], DT)
    t, G = np.concatenate([t] * n_f), np.zeros(rows)
    # Handed over read-only, the arrays are kept by the store without a
    # copy; tau is row-major at M >= 2, so there the store copies it once.
    for a in (t, q, qdot, tau, G):
        a.flags.writeable = False
    q, qdot = (a.reshape(n, rows).T for a in (q, qdot))
    return TargetStore(t, q, qdot, tau.reshape(rows, m), G, n, params.actuated_joints)


def has_fallen(q: np.ndarray) -> bool:
    """True when any link's absolute angle from vertical exceeds FALL_ANGLE
    (unrecoverable for the balance task). The angles are the running sums
    of the relative angles ``q`` (N,), added in order on Python floats."""
    phi = 0.0
    for qi in np.asarray(q, dtype=float).tolist():
        phi = phi + qi
        if abs(phi) > FALL_ANGLE:
            return True
    return False


def run_balance_trial(
    store: TargetStore,
    cfg: ExperimentConfig,
    noise_amp: float,
    seed: int,
    trial_id: int = 0,
    n_f: int = 0,
    params: ChainParams | None = None,
) -> TrialRecord:
    """Balance from upright rest under controller torque plus disturbance
    noise on the actuated joint; returns the fall time (capped).

    Raises ValueError unless noise_amp is finite and non-negative, and
    DatasetSchemaMismatch when the store was recorded on a chain with
    another link count or actuated joints than ``params``.
    """
    # Written so that NaN fails too.
    if not 0 <= noise_amp < math.inf:
        raise ValueError(f"noise_amp must be finite and non-negative, got {noise_amp!r}")
    params = params or acrobot_params()
    if (store.n_links, store.actuated_joints) != (params.n_links, params.actuated_joints):
        raise DatasetSchemaMismatch(
            f"store recorded on n_links={store.n_links}, actuated_joints="
            f"{store.actuated_joints}; trial chain has n_links={params.n_links}, "
            f"actuated_joints={params.actuated_joints}"
        )
    targets = BallTree(store)
    # Fall data is tracked backwards, toward upright (reversed time-scale
    # goal), and its recorded torques are noise, not a reference.
    ctrl_cfg = ControllerConfig(s_g=-1.0, use_stored_tau_d=False)
    ctrl = make_controller(params.n_controls, seed=np.random.SeedSequence([seed, 0]))
    noise_rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    st = State(np.zeros(params.n_links), np.zeros(params.n_links), 0.0)
    n_steps = round(cfg.t_max / DT)
    t_f = cfg.t_max
    fell = False
    for _ in range(n_steps):
        tau = controller_step(ctrl, st, targets, ctrl_cfg)
        disturbed = tau + noise_rng.normal(0.0, noise_amp, size=params.n_controls)
        st = dynamics.step(params, st, disturbed, DT)
        if has_fallen(st.q):
            t_f = st.t
            fell = True
            break
    return TrialRecord(trial_id, n_f, seed, t_f, fell)


def sweep_sample_counts(cfg: ExperimentConfig) -> dict[int, list[TrialRecord]]:
    """Mean fall time versus number of recorded falls: cfg.trials independent
    balance trials per sample count (a repeated n_f runs once), each on
    freshly recorded fall data, under the disturbance NOISE_MULT *
    SIGMA_BOOT."""
    results = {n_f: [] for n_f in cfg.n_f_list}
    for n_f, records in results.items():
        for i in range(cfg.trials):
            seed = trial_seed(cfg.master_seed, f"sweep-nf{n_f}", i)
            store = generate_falls(cfg, n_f, seed=trial_seed(seed, "falls", 0))
            records.append(run_balance_trial(store, cfg, NOISE_MULT * SIGMA_BOOT, seed, i, n_f))
    return results


def write_sweep_csv(results: dict[int, list[TrialRecord]], cfg: ExperimentConfig, path) -> None:
    """Trial rows plus one summary row per sample count.

    Summary rows carry trial_id = "summary", the mean fall time, and the
    unstable-controller fraction (t_max - mean) / t_max.
    """
    def fmt(x: float) -> str:
        return format(float(x), ".17g")

    n_fs, means = mean_fall_times(results)
    with open(path, "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f)
        w.writerow(["n_f", "trial_id", "seed", "t_f", "unstable_fraction"])
        for n_f, mean_tf in zip(n_fs.tolist(), means.tolist()):
            for r in results[n_f]:
                w.writerow([n_f, r.trial_id, r.seed, fmt(r.t_f), ""])
            w.writerow([n_f, "summary", "", fmt(mean_tf), fmt((cfg.t_max - mean_tf) / cfg.t_max)])


def mean_fall_times(results: dict[int, list[TrialRecord]]) -> tuple[np.ndarray, np.ndarray]:
    """Sample counts in ascending order and the mean fall time at each."""
    n_fs = np.array(sorted(results))
    means = np.array([np.mean([r.t_f for r in results[n]]) for n in n_fs])
    return n_fs, means

