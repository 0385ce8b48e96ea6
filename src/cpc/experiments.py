"""Experiment harness: fall-data generation, balance trials and sample-count
sweeps.

The balance experiment records short uncontrolled falls of the two-link
chain from upright rest under small torque noise, builds a target store from
them, and runs the controller with the reversed time-scale goal so retrieved
fall segments are tracked backwards, toward the equilibrium. A trial ends
when a link tips past horizontal or the observation window runs out.

Every random draw derives from the master seed through a hash chain, so
datasets and result tables reproduce byte for byte.
"""

import csv
import hashlib
import math
from dataclasses import dataclass

import numpy as np

from . import dynamics
from .controller import ControllerConfig, controller_step, make_controller
from .dynamics import ChainParams, State, _as_int, acrobot_params
from .errors import DatasetSchemaMismatch
from .target_store import NonEmptyStore as BallTree  # hook: bench/tracing.py target_store.index_build
from .target_store import TargetStore
from .value import RewardSpec

# Absolute link angle from vertical past which the balance task is lost.
FALL_ANGLE = math.pi / 2


@dataclass(frozen=True)
class ExperimentConfig:
    """Balance-experiment parameters (defaults reproduce the standard runs)."""

    sigma0: float = 0.02
    fall_duration: float = 1.0
    t_max: float = 30.0
    trials: int = 100
    noise_mult: float = 6.0
    n_f_list: tuple[int, ...] = (3, 10, 30, 100)
    master_seed: int = 0
    dt: float = 0.01
    workers: int = 1

    def __post_init__(self):
        if not all(math.isfinite(d) and d > 0 for d in (self.fall_duration, self.t_max, self.dt)):
            raise ValueError("durations must be positive and finite")
        # A trial runs round(t_max / dt) cycles and a fall records
        # round(fall_duration / dt) points; zero of either would give a
        # trial that never ran or a store with nothing to retrieve. Rounding
        # half to even, round(x) >= 1 exactly when x > 0.5.
        if not (self.t_max / self.dt > 0.5 and self.fall_duration / self.dt > 0.5):
            raise ValueError("t_max and fall_duration must each span at least one step dt")
        try:
            counts = [_as_int(n) for n in (self.trials, self.workers, *self.n_f_list)]
        except TypeError as e:
            raise ValueError(f"trials, workers and every n_f must be integers: {e}") from e
        if min(counts) < 1 or not self.n_f_list:
            raise ValueError("need trials, workers and at least one n_f, each >= 1")
        trials, workers, *n_f_list = counts
        object.__setattr__(self, "trials", trials)
        object.__setattr__(self, "workers", workers)
        object.__setattr__(self, "n_f_list", tuple(n_f_list))
        # Written so that NaN fails too; an infinite scale would make the
        # first step of every fall or trial non-finite.
        if not (0 < self.sigma0 < math.inf and 0 <= self.noise_mult < math.inf):
            raise ValueError("sigma0 must be positive and noise_mult non-negative, both finite")


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

    Each trajectory applies zero-mean torque noise of scale sigma0 for the
    fall duration; every recorded point carries zero return. Raises
    ValueError unless n_f is an integer >= 1 (see ``dynamics._as_int``).
    """
    try:
        n_f = _as_int(n_f)
    except TypeError as e:
        raise ValueError(f"n_f must be an integer: {e}") from e
    if n_f < 1:
        raise ValueError("n_f must be >= 1")
    params = params or acrobot_params()
    rng = np.random.default_rng(seed)
    n_steps = round(cfg.fall_duration / cfg.dt)
    n, m = params.n_links, params.n_controls
    rows = n_f * n_steps
    # One draw in (fall, step, control) order is the same stream as drawing
    # each step's noise in turn, fall after fall.
    tau = rng.normal(0.0, cfg.sigma0, size=(n_f, n_steps, m))
    t = np.empty(n_steps)
    # As (N, rows), rows in (fall, step) order, the transposes of these
    # buffers are the column-major arrays the store keeps.
    q = np.empty((n, n_f, n_steps))
    qdot = np.empty((n, n_f, n_steps))
    # The falls are independent, so they advance together as one batch.
    st = State(np.zeros((n_f, n)), np.zeros((n_f, n)), 0.0)
    for i in range(n_steps):
        t[i], q[:, :, i], qdot[:, :, i] = st.t, st.q.T, st.qdot.T
        st = dynamics.step(params, st, tau[:, i], cfg.dt)
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
    ctrl_cfg = ControllerConfig(s_g=-1.0, dt=cfg.dt, sigma_boot=cfg.sigma0, use_stored_tau_d=False)
    ctrl = make_controller(params.n_controls, seed=np.random.SeedSequence([seed, 0]))
    noise_rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    spec = RewardSpec(C_tau=-np.eye(params.n_controls))
    st = State(np.zeros(params.n_links), np.zeros(params.n_links), 0.0)
    n_steps = round(cfg.t_max / cfg.dt)
    t_f = cfg.t_max
    fell = False
    for _ in range(n_steps):
        tau = controller_step(ctrl, st, targets, ctrl_cfg, spec)
        disturbed = tau + noise_rng.normal(0.0, noise_amp, size=params.n_controls)
        st = dynamics.step(params, st, disturbed, cfg.dt)
        if has_fallen(st.q):
            t_f = st.t
            fell = True
            break
    return TrialRecord(trial_id, n_f, seed, t_f, fell)


def _one_sweep_trial(args):
    cfg, n_f, noise_amp, seed, trial_id = args
    store = generate_falls(cfg, n_f, seed=trial_seed(seed, "falls", 0))
    return run_balance_trial(store, cfg, noise_amp, seed, trial_id=trial_id, n_f=n_f)


def sweep_sample_counts(cfg: ExperimentConfig) -> dict[int, list[TrialRecord]]:
    """Mean fall time versus number of recorded falls: cfg.trials independent
    balance trials per sample count, each on freshly recorded fall data."""
    n_f_list = list(dict.fromkeys(cfg.n_f_list))
    noise_amp = cfg.noise_mult * cfg.sigma0
    jobs = [
        (cfg, n_f, noise_amp, trial_seed(cfg.master_seed, f"sweep-nf{n_f}", i), i)
        for n_f in n_f_list
        for i in range(cfg.trials)
    ]
    if cfg.workers > 1:
        # Imported here: it loads multiprocessing, which serial sweeps never use.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            records = list(pool.map(_one_sweep_trial, jobs))
    else:
        records = [_one_sweep_trial(j) for j in jobs]
    results = {n_f: [] for n_f in n_f_list}
    for r in records:
        results[r.n_f].append(r)
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

