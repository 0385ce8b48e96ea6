import csv
import functools
import gc
import math
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import oracles
import cpc
from cpc import controller, experiments
from cpc.controller import SIGMA_BOOT
from cpc.dynamics import ChainParams
from cpc.errors import DatasetSchemaMismatch
from cpc.experiments import (
    FALL_ANGLE,
    NOISE_MULT,
    ExperimentConfig,
    generate_falls,
    has_fallen,
    mean_fall_times,
    run_balance_trial,
    sweep_sample_counts,
    trial_seed,
    write_sweep_csv,
)
from cpc.target_store import NonEmptyStore


def test_balance_trial_leaves_no_reference_cycles():
    # Whatever a trial builds must be freed by reference counting alone:
    # objects that only the cyclic collector can free pile up between
    # collections and raise the peak memory of long sweeps.
    cfg = ExperimentConfig(t_max=0.3)
    store = generate_falls(cfg, 3, seed=trial_seed(0, "gc", 0))
    gc.collect()
    gc.disable()
    try:
        run_balance_trial(store, cfg, NOISE_MULT * SIGMA_BOOT, seed=trial_seed(0, "gc", 1), n_f=3)
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert unreachable == 0


@pytest.mark.parametrize(
    "params",
    [
        ChainParams(n_links=3, actuated_joints=(2,)),
        ChainParams(n_links=5, actuated_joints=(1, 2, 3, 4)),
        ChainParams(n_links=2, actuated_joints=(0,)),
    ],
    ids=["n3", "n5", "n2_shoulder"],
)
def test_balance_trial_rejects_store_of_other_chain(params):
    # The trial balances the acrobot; a store recorded on any other chain
    # layout must be refused before the first cycle.
    cfg = ExperimentConfig(t_max=0.5)
    store = generate_falls(cfg, 1, seed=trial_seed(0, "chain", 0), params=params)
    with pytest.raises(DatasetSchemaMismatch):
        run_balance_trial(store, cfg, NOISE_MULT * SIGMA_BOOT, seed=trial_seed(0, "chain", 1))


@pytest.mark.parametrize(
    "params",
    [
        ChainParams(n_links=3, actuated_joints=(2,)),
        ChainParams(n_links=2, actuated_joints=(0, 1)),
        ChainParams(n_links=1, actuated_joints=()),
    ],
    ids=["two_free", "fully_actuated", "no_actuator"],
)
def test_unsupported_chain_rejected_before_first_cycle(params, monkeypatch):
    # Retrieval matches on one unactuated direction with at least one
    # actuator. A store on any other chain is refused when the retrieval
    # handle is built, so a trial on that chain fails before running a
    # single cycle.
    cfg = ExperimentConfig(t_max=0.5)
    store = generate_falls(cfg, 1, seed=trial_seed(0, "unsupported", 0), params=params)
    with pytest.raises(ValueError, match="one unactuated direction"):
        NonEmptyStore(store)

    def no_cycle(*args, **kwargs):
        raise AssertionError("a control cycle ran on an unsupported chain")

    monkeypatch.setattr(experiments, "controller_step", no_cycle)
    with pytest.raises(ValueError, match="one unactuated direction"):
        run_balance_trial(
            store, cfg, NOISE_MULT * SIGMA_BOOT, seed=trial_seed(0, "unsupported", 1),
            params=params,
        )


@pytest.mark.parametrize(
    "params", [ChainParams(density=1.25), ChainParams(gravity=12.5)], ids=["density", "gravity"]
)
def test_balance_trial_runs_on_chain_it_was_not_recorded_on(params):
    # The method uses only the recorded data and its own estimate of B, so a
    # store recorded on the nominal acrobot balances a chain with the same
    # layout but other masses or gravity, and a seed reproduces the trial.
    cfg = ExperimentConfig(t_max=1.0)
    store = generate_falls(cfg, 3, seed=trial_seed(0, "mismatch", 0))
    noise_amp = NOISE_MULT * SIGMA_BOOT
    seed = trial_seed(0, "mismatch", 1)
    record = run_balance_trial(store, cfg, noise_amp, seed, params=params)
    assert 0 < record.t_f <= cfg.t_max
    assert run_balance_trial(store, cfg, noise_amp, seed, params=params) == record


@pytest.mark.parametrize(
    "noise_amp", [-0.1, float("nan"), float("inf")], ids=["negative", "nan", "inf"]
)
def test_balance_trial_rejects_bad_noise_amp(noise_amp, monkeypatch):
    # The disturbance scales a normal draw each cycle; a bad amplitude must
    # fail before the first cycle, not as numpy's "scale < 0" after it or as
    # a non-finite torque blamed on the dynamics.
    cfg = ExperimentConfig(t_max=0.5)
    store = generate_falls(cfg, 1, seed=trial_seed(0, "noise_amp", 0))

    def no_cycle(*args, **kwargs):
        raise AssertionError("a control cycle ran with a bad noise amplitude")

    monkeypatch.setattr(experiments, "controller_step", no_cycle)
    with pytest.raises(ValueError, match="noise_amp must be finite and non-negative"):
        run_balance_trial(store, cfg, noise_amp, seed=trial_seed(0, "noise_amp", 1))


@pytest.mark.parametrize(
    "kwargs",
    [
        {"trials": 2.5},
        {"trials": True},
        {"workers": 1.5},
        {"workers": 2},
        {"n_f_list": (3, 0)},
        {"n_f_list": (-2,)},
        {"n_f_list": (2.5,)},
        {"n_f_list": (True,)},
        {"n_f_list": ()},
        {"t_max": 0.004},
        {"t_max": 0.005},
        {"t_max": float("inf")},
    ],
    ids=[
        "trials_float", "trials_bool", "workers_float", "workers_two", "n_f_zero",
        "n_f_negative", "n_f_float", "n_f_bool", "n_f_empty", "t_max_under_half_step",
        "t_max_half_step", "t_max_inf",
    ],
)
def test_config_rejects_configs_that_run_nothing(kwargs):
    # Each of these used to fail only mid-sweep, with a raw TypeError or an
    # error from an empty store, or to run a trial of zero cycles reported
    # as a survival to t_max.
    with pytest.raises(ValueError):
        ExperimentConfig(**kwargs)


@pytest.mark.parametrize("n_f", [True, 2.5, "2", 0], ids=["bool", "float", "str", "zero"])
def test_generate_falls_rejects_bad_n_f(n_f):
    # The first three used to fail inside numpy or on the comparison, with a
    # TypeError that did not name n_f.
    with pytest.raises(ValueError, match="n_f must be"):
        generate_falls(ExperimentConfig(), n_f, seed=0)


def test_generate_falls_accepts_numpy_integer():
    cfg = ExperimentConfig()
    want, got = generate_falls(cfg, 2, seed=0), generate_falls(cfg, np.int64(2), seed=0)
    for name in ("t", "q", "qdot", "tau", "G"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


def test_base_actuated_acrobot_controls_its_actuated_joint(monkeypatch):
    # With the motor at the base, every split the controller builds controls
    # joint 0 and leaves joint 1 free, although the exact B's row 1 is the
    # larger one near upright.
    params = ChainParams(n_links=2, actuated_joints=(0,))
    cfg = ExperimentConfig(t_max=1.0)
    free_rows = []
    coord_split = controller.CoordSplit

    def recording_split(B, controlled):
        split = coord_split(B, controlled)
        free_rows.append(split.free)
        return split

    monkeypatch.setattr(controller, "CoordSplit", recording_split)
    store = generate_falls(cfg, 3, seed=trial_seed(0, "base-actuated", 0), params=params)
    run_balance_trial(
        store, cfg, NOISE_MULT * SIGMA_BOOT, seed=trial_seed(0, "base-actuated", 1),
        n_f=3, params=params,
    )
    assert len(free_rows) > 20 and set(free_rows) == {1}


def test_config_normalizes_integer_counts():
    cfg = ExperimentConfig(trials=np.int64(2), n_f_list=[np.int64(3), 10], t_max=0.006)
    assert (cfg.trials, cfg.n_f_list) == (2, (3, 10))
    assert type(cfg.trials) is int and all(type(n) is int for n in cfg.n_f_list)


@pytest.mark.parametrize(
    "q, fell",
    [
        ([1.0, 1.0], True),
        ([1.2, -1.0], False),
        ([FALL_ANGLE, 0.0], False),
        ([-FALL_ANGLE, 0.0], False),
        ([0.0, FALL_ANGLE], False),
        ([0.3, 0.3, 0.3, 0.3, 0.3], False),
        ([0.3, 0.3, 0.3, 0.3, 0.5], True),
    ],
    ids=[
        "phi1_is_2", "phi1_is_0.2", "phi0_exactly_pi_2", "phi0_exactly_minus_pi_2",
        "phi1_exactly_pi_2", "five_links_upright", "five_links_last_past",
    ],
)
def test_has_fallen(q, fell):
    # Absolute angles are running sums of the relative ones; only an angle
    # strictly past pi/2 from vertical is a fall.
    assert has_fallen(np.array(q)) is fell


def test_has_fallen_matches_cumsum(rng):
    for _ in range(3000):
        q = rng.normal(0.0, 1.0, int(rng.integers(1, 6)))
        if rng.random() < 0.1:
            q[int(rng.integers(len(q)))] = rng.choice([np.nan, np.inf, -np.inf])
        with np.errstate(invalid="ignore"):
            want = oracles.has_fallen_cumsum(q)
        assert has_fallen(q) is want


def test_balance_trials_match_numpy_forms(monkeypatch):
    # On each chain, three trials give the same records and the same applied
    # torques, bit for bit, with every float-path step of the cycle swapped
    # for its numpy form: the 1 x 1 solves, the target errors, the torque
    # norm, the deque-built regression window and the fall test, and the
    # ranking swapped for the general-penalty one at C = -I, T = 1. The
    # two-actuator chain runs the M = 2 regression and split through whole
    # trials. Its 2 x 2 path law eliminates on Python floats, so it keeps
    # its own there (test_path_law_matches_lapack bounds it against LAPACK).
    # Every swapped form is counted, so a swap of a name the cycle no
    # longer calls fails instead of comparing the cycle with itself.
    cfg = ExperimentConfig(t_max=1.0)

    def counted(fn, calls, name):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def run(params):
        torques = []
        step = experiments.controller_step

        def recording_step(*args):
            tau = step(*args)
            torques.append((tau.shape, tau.tobytes()))
            return tau

        records = []
        with monkeypatch.context() as m:
            m.setattr(experiments, "controller_step", recording_step)
            for i in range(3):
                seed = trial_seed(0, "numpy-forms", i)
                store = generate_falls(cfg, 3, seed=trial_seed(seed, "falls", 0), params=params)
                noise_amp = NOISE_MULT * SIGMA_BOOT
                records.append(run_balance_trial(store, cfg, noise_amp, seed, i, 3, params))
        return records, torques

    for params in (ChainParams(), ChainParams(n_links=3, actuated_joints=(1, 2))):
        want = run(params)
        swaps = [
            (controller, "target_errors", oracles.target_errors_full_width),
            (controller, "_norm", lambda tau: float(np.linalg.norm(tau))),
            (experiments, "make_controller", oracles.make_deque_controller),
            (experiments, "controller_step", oracles.deque_controller_step),
            (experiments, "has_fallen", oracles.has_fallen_cumsum),
            (controller, "candidate_costs", functools.partial(
                oracles.candidate_costs_shaped, C_tau=-np.eye(params.n_controls), T_gamma=1.0
            )),
        ]
        if params.n_controls == 1:
            swaps.append((controller, "cpc_tau", oracles.cpc_tau_lapack))
        calls = dict.fromkeys((name for _, name, _ in swaps), 0)
        with monkeypatch.context() as m:
            for owner, name, form in swaps:
                m.setattr(owner, name, counted(form, calls, name))
            got = run(params)
        assert all(calls.values()), calls
        assert got[0] == want[0]
        assert len(got[1]) == len(want[1]) and got[1] == want[1]
        assert any(r.fell for r in want[0]) and len(want[1]) > 100


def test_sweep_csv_byte_identical_across_runs(tmp_path):
    cfg = ExperimentConfig(n_f_list=(1, 3), trials=3, t_max=1.5)
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    results = [sweep_sample_counts(cfg) for _ in paths]
    for res, p in zip(results, paths):
        write_sweep_csv(res, cfg, p)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    n_fs, means = mean_fall_times(results[0])
    with open(paths[0], newline="") as f:
        summary = [row for row in csv.DictReader(f) if row["trial_id"] == "summary"]
    assert [int(row["n_f"]) for row in summary] == list(n_fs)
    assert [float(row["t_f"]) for row in summary] == list(means)


@pytest.mark.parametrize("master_seed", [0, 5])
def test_sweep_equals_its_trials_run_one_by_one(master_seed):
    # A repeated n_f runs once, and each record is the trial run directly
    # with the documented seeds: the n_f's own trial seed, and the falls'
    # seed derived from it.
    cfg = ExperimentConfig(t_max=0.3, trials=2, n_f_list=(1, 3, 1), master_seed=master_seed)
    results = sweep_sample_counts(cfg)
    assert list(results) == [1, 3]
    for n_f, records in results.items():
        want = []
        for i in range(cfg.trials):
            seed = trial_seed(master_seed, f"sweep-nf{n_f}", i)
            store = generate_falls(cfg, n_f, seed=trial_seed(seed, "falls", 0))
            want.append(run_balance_trial(store, cfg, NOISE_MULT * SIGMA_BOOT, seed, i, n_f))
        assert records == want


def test_config_surface_the_benchmark_uses():
    # The benchmark builds its config with workers=1, replaces t_max, and
    # reads the step and the disturbance from the config; the protocol's
    # constants are not constructor arguments.
    cfg = ExperimentConfig(t_max=2.0, workers=1)
    assert replace(cfg, t_max=0.12).t_max == 0.12
    assert cfg.dt == controller.DT == 0.01
    assert cfg.noise_mult * cfg.sigma0 == 6.0 * 0.02
    for name in ("dt", "sigma0", "noise_mult", "fall_duration"):
        with pytest.raises(TypeError):
            ExperimentConfig(**{name: 0.01})
    with pytest.raises(ValueError):
        ExperimentConfig(workers=2)
    assert [f.name for f in fields(ExperimentConfig)] == ["t_max", "trials", "n_f_list", "master_seed"]
    assert [f.name for f in fields(controller.ControllerConfig)] == [
        "s_g", "use_stored_tau_d", "state_reward"
    ]


def test_import_leaves_process_pool_unloaded():
    # Importing the harness, as sweeps and the benchmark do, loads no
    # process pool: every sweep runs its trials in this process.
    env = dict(os.environ)
    src = str(Path(cpc.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    script = (
        "import sys, cpc.experiments\n"
        "print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))"
    )
    run = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert run.stdout.strip() == "[]"
