"""Experiment harness: fall-data generation, balance trials, sample-count
sweeps and a fully-actuated tracking demo.

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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import dynamics
from .control_law import feedforward_tau
from .controller import ControllerConfig, controller_step, make_controller
from .dynamics import ChainParams, State, acrobot_params, exact_control_matrix
from .errors import DatasetSchemaMismatch
from .target_store import NonEmptyStore as BallTree  # hook: bench/tracing.py target_store.index_build
from .target_store import TargetStore
from .value import RewardSpec


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
        if self.fall_duration <= 0 or self.t_max <= 0 or self.dt <= 0:
            raise ValueError("durations must be positive")
        if self.trials < 1 or self.workers < 1:
            raise ValueError("trials and workers must be >= 1")


@dataclass(frozen=True)
class TrialRecord:
    """One balance trial: identity, seed and outcome."""

    trial_id: int
    n_f: int
    seed: int
    noise_multiplier: float
    t_f: float
    fell: bool


def trial_seed(master_seed: int, experiment_id: str, index: int) -> int:
    """Stable per-trial seed derived by hashing (master, experiment, index)."""
    digest = hashlib.sha256(f"{master_seed}:{experiment_id}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def controller_config_for_balance(cfg: ExperimentConfig) -> ControllerConfig:
    """Controller defaults for balancing from fall data: reversed time-scale
    goal and no trusted reference torque."""
    return ControllerConfig(
        s_g=-1.0,
        dt=cfg.dt,
        history_n=7,
        sigma_boot=cfg.sigma0,
        use_stored_tau_d=False,
    )


def generate_falls(
    cfg: ExperimentConfig,
    n_f: int,
    seed: int,
    params: ChainParams | None = None,
    out=None,
) -> TargetStore:
    """Record n_f uncontrolled fall trajectories from upright rest.

    Each trajectory applies zero-mean torque noise of scale sigma0 for the
    fall duration; every recorded point carries zero return. Optionally
    writes the JSON Lines dataset to ``out``.
    """
    if n_f < 1:
        raise ValueError("n_f must be >= 1")
    params = params or acrobot_params()
    rng = np.random.default_rng(seed)
    n_steps = round(cfg.fall_duration / cfg.dt)
    n, m = params.n_links, params.n_controls
    # One draw in (fall, step, control) order is the same stream as drawing
    # each step's noise in turn, fall after fall.
    tau = rng.normal(0.0, cfg.sigma0, size=(n_f, n_steps, m))
    t = np.empty(n_steps)
    q = np.empty((n_f, n_steps, n))
    qdot = np.empty((n_f, n_steps, n))
    # The falls are independent, so they advance together as one batch.
    st = State(np.zeros((n_f, n)), np.zeros((n_f, n)), 0.0)
    for i in range(n_steps):
        t[i], q[:, i], qdot[:, i] = st.t, st.q, st.qdot
        st = dynamics.step(params, st, tau[:, i], cfg.dt)
    store = TargetStore(
        np.tile(t, n_f),
        q.reshape(-1, n),
        qdot.reshape(-1, n),
        tau.reshape(-1, m),
        np.zeros(n_f * n_steps),
        n,
        params.actuated_joints,
    )
    if out is not None:
        store.save_jsonl(out)
    return store


def has_fallen(q: np.ndarray, threshold: float = math.pi / 2) -> bool:
    """True when any link's absolute angle from vertical exceeds the
    threshold (unrecoverable for the balance task)."""
    return bool(np.any(np.abs(np.cumsum(q)) > threshold))


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

    Raises DatasetSchemaMismatch when the store was recorded on a chain
    with another link count or actuated joints than ``params``.
    """
    params = params or acrobot_params()
    if (store.n_links, store.actuated_joints) != (params.n_links, params.actuated_joints):
        raise DatasetSchemaMismatch(
            f"store recorded on n_links={store.n_links}, actuated_joints="
            f"{store.actuated_joints}; trial chain has n_links={params.n_links}, "
            f"actuated_joints={params.actuated_joints}"
        )
    targets = BallTree(store)
    ctrl_cfg = controller_config_for_balance(cfg)
    ctrl = make_controller(ctrl_cfg, params.n_controls, seed=np.random.SeedSequence([seed, 0]))
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
    return TrialRecord(trial_id, n_f, seed, noise_amp / cfg.sigma0, t_f, fell)


def _one_sweep_trial(args):
    cfg, n_f, noise_amp, seed, trial_id = args
    store = generate_falls(cfg, n_f, seed=trial_seed(seed, "falls", 0))
    return run_balance_trial(store, cfg, noise_amp, seed, trial_id=trial_id, n_f=n_f)


def balance_trials(
    cfg: ExperimentConfig,
    n_f: int,
    noise_amp: float,
    experiment_id: str,
) -> list[TrialRecord]:
    """Run cfg.trials independent balance trials at one sample count, each
    on its own freshly recorded fall data."""
    jobs = []
    for i in range(cfg.trials):
        seed = trial_seed(cfg.master_seed, experiment_id, i)
        jobs.append((cfg, n_f, noise_amp, seed, i))
    if cfg.workers > 1:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            records = list(pool.map(_one_sweep_trial, jobs))
    else:
        records = [_one_sweep_trial(j) for j in jobs]
    return sorted(records, key=lambda r: r.trial_id)


def sweep_sample_counts(cfg: ExperimentConfig, out_csv=None) -> dict[int, list[TrialRecord]]:
    """Mean fall time versus number of recorded falls, with fresh fall data
    resampled for every trial. Optionally writes the trial table as CSV."""
    if not cfg.n_f_list:
        raise ValueError("n_f list must be non-empty")
    results = {}
    for n_f in cfg.n_f_list:
        results[n_f] = balance_trials(
            cfg, n_f, cfg.noise_mult * cfg.sigma0, experiment_id=f"sweep-nf{n_f}"
        )
    if out_csv is not None:
        write_sweep_csv(results, cfg, out_csv)
    return results


def write_sweep_csv(results: dict[int, list[TrialRecord]], cfg: ExperimentConfig, path) -> None:
    """Trial rows plus one summary row per sample count.

    Summary rows carry trial_id = "summary", the mean fall time, and the
    unstable-controller fraction (t_max - mean) / t_max.
    """
    def fmt(x: float) -> str:
        return format(float(x), ".17g")

    with open(path, "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f)
        w.writerow(["n_f", "trial_id", "seed", "t_f", "unstable_fraction"])
        for n_f in sorted(results):
            for r in results[n_f]:
                w.writerow([n_f, r.trial_id, r.seed, fmt(r.t_f), ""])
            mean_tf = float(np.mean([r.t_f for r in results[n_f]]))
            w.writerow([n_f, "summary", "", fmt(mean_tf), fmt((cfg.t_max - mean_tf) / cfg.t_max)])


def mean_fall_times(results: dict[int, list[TrialRecord]]) -> tuple[np.ndarray, np.ndarray]:
    n_fs = np.array(sorted(results))
    means = np.array([np.mean([r.t_f for r in results[n]]) for n in n_fs])
    return n_fs, means


# ---------------------------------------------------------------------------
# Fully actuated tracking demo
# ---------------------------------------------------------------------------


def track_demo(
    kappa: float = 20.0,
    dt: float = 1e-3,
    duration: float = 10.0,
    amplitude: float = 0.3,
    perturbation: float = 0.1,
) -> dict:
    """Computed-torque tracking of a smooth reference on the fully actuated
    two-link chain.

    Reports the on-reference tracking error, how closely a perturbed start
    decays along the critically damped envelope, and the drift of the
    zero-gain (pure feedforward) negative control.
    """
    params = ChainParams(n_links=2, actuated_joints=(0, 1))
    omega = np.array([1.0, 1.3])
    phase = np.array([0.0, 0.7])

    def ref(t):
        qd = amplitude * np.sin(omega * t + phase)
        qdotd = amplitude * omega * np.cos(omega * t + phase)
        qddd = -amplitude * omega * omega * np.sin(omega * t + phase)
        return qd, qdotd, qddd

    def law(gain_on):
        def tau_fn(t, q, qdot):
            qd, qdotd, qddd = ref(t)
            tau = feedforward_tau(params, q, qdot, qddd)
            if gain_on:
                B = exact_control_matrix(params, q)
                fb = kappa * kappa * (q - qd) + 2.0 * kappa * (qdot - qdotd)
                tau = tau - np.linalg.solve(B, fb)
            return tau

        return tau_fn

    n_steps = round(duration / dt)

    # On-reference start: the closed loop should hold the reference to
    # integrator precision.
    q0, qdot0, _ = ref(0.0)
    traj = dynamics.simulate(params, State(q0, qdot0, 0.0), law(True), dt, n_steps)
    max_err = max(np.linalg.norm(s.q - ref(s.t)[0]) for s in traj)

    # Perturbed start: compare the error norm against the critically damped
    # envelope while it is resolvable.
    dq0 = perturbation * np.ones(2)
    traj_p = dynamics.simulate(params, State(q0 + dq0, qdot0, 0.0), law(True), dt, n_steps)
    env_dev = 0.0
    e0 = np.linalg.norm(dq0)
    for s in traj_p:
        envelope = (1.0 + kappa * s.t) * math.exp(-kappa * s.t) * e0
        if envelope < 1e-4 * e0:
            break
        err = np.linalg.norm(s.q - ref(s.t)[0])
        env_dev = max(env_dev, abs(err - envelope) / envelope)

    # Negative control: without feedback the perturbed error does not decay.
    traj_ff = dynamics.simulate(
        params, State(q0 + dq0, qdot0, 0.0), law(False), dt, min(n_steps, 2000)
    )
    ff_final_err = np.linalg.norm(traj_ff[-1].q - ref(traj_ff[-1].t)[0])

    return {
        "max_tracking_error": float(max_err),
        "envelope_max_rel_dev": float(env_dev),
        "feedforward_only_final_error": float(ff_final_err),
        "kappa": kappa,
        "dt": dt,
        "duration": duration,
    }
