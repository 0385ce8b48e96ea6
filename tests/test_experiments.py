import csv
import gc

import pytest

from cpc.dynamics import ChainParams
from cpc.errors import DatasetSchemaMismatch
from cpc.target_store import NonEmptyStore
from cpc import experiments
from cpc.experiments import (
    ExperimentConfig,
    generate_falls,
    mean_fall_times,
    run_balance_trial,
    sweep_sample_counts,
    trial_seed,
    write_sweep_csv,
)


def test_balance_trial_leaves_no_reference_cycles():
    # Whatever a trial builds must be freed by reference counting alone:
    # objects that only the cyclic collector can free pile up between
    # collections and raise the peak memory of long sweeps.
    cfg = ExperimentConfig(t_max=0.3)
    store = generate_falls(cfg, 3, seed=trial_seed(0, "gc", 0))
    gc.collect()
    gc.disable()
    try:
        run_balance_trial(store, cfg, cfg.noise_mult * cfg.sigma0, seed=trial_seed(0, "gc", 1), n_f=3)
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
        run_balance_trial(store, cfg, cfg.noise_mult * cfg.sigma0, seed=trial_seed(0, "chain", 1))


@pytest.mark.parametrize(
    "params",
    [ChainParams(n_links=3, actuated_joints=(2,)), ChainParams(n_links=2, actuated_joints=(0, 1))],
    ids=["two_free", "fully_actuated"],
)
def test_unsupported_chain_rejected_before_first_cycle(params, monkeypatch):
    # Retrieval matches on one unactuated direction. A store on a chain with
    # any other number is refused when the retrieval handle is built, so a
    # trial on that chain fails before running a single cycle.
    cfg = ExperimentConfig(t_max=0.5)
    store = generate_falls(cfg, 1, seed=trial_seed(0, "unsupported", 0), params=params)
    with pytest.raises(ValueError, match="one unactuated direction"):
        NonEmptyStore(store)

    def no_cycle(*args, **kwargs):
        raise AssertionError("a control cycle ran on an unsupported chain")

    monkeypatch.setattr(experiments, "controller_step", no_cycle)
    with pytest.raises(ValueError, match="one unactuated direction"):
        run_balance_trial(
            store, cfg, cfg.noise_mult * cfg.sigma0, seed=trial_seed(0, "unsupported", 1),
            params=params,
        )


@pytest.mark.parametrize(
    "kwargs",
    [
        {"sigma0": 0.0},
        {"sigma0": -0.02},
        {"sigma0": float("nan")},
        {"noise_mult": -1.0},
        {"noise_mult": float("nan")},
    ],
    ids=["sigma0_zero", "sigma0_negative", "sigma0_nan", "noise_mult_negative", "noise_mult_nan"],
)
def test_config_rejects_bad_noise(kwargs):
    # sigma0 divides every trial's recorded noise multiplier and both scale
    # a normal draw, so a bad value must fail when the config is built, not
    # after a whole trial has run.
    with pytest.raises(ValueError, match="sigma0 must be positive"):
        ExperimentConfig(**kwargs)


def test_config_accepts_noise_free_trials():
    assert ExperimentConfig(noise_mult=0.0).noise_mult == 0.0


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


def test_sweep_workers_match_serial(tmp_path):
    # Trials run in a process pool give the same table, byte for byte.
    paths = [tmp_path / "serial.csv", tmp_path / "pool.csv"]
    for workers, path in zip((1, 2), paths):
        cfg = ExperimentConfig(t_max=0.3, trials=3, n_f_list=(3,), workers=workers)
        write_sweep_csv(sweep_sample_counts(cfg), cfg, path)
    assert paths[0].read_bytes() == paths[1].read_bytes()
