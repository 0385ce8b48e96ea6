import csv
import gc

import pytest

from cpc.dynamics import ChainParams
from cpc.errors import DatasetSchemaMismatch
from cpc.experiments import (
    ExperimentConfig,
    generate_falls,
    mean_fall_times,
    run_balance_trial,
    sweep_sample_counts,
    track_demo,
    trial_seed,
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


def test_track_demo_holds_reference_and_decays_on_envelope():
    out = track_demo(duration=2.0)
    assert out["max_tracking_error"] <= 1e-10
    assert out["envelope_max_rel_dev"] <= 1e-5
    # Negative control: feed-forward alone leaves the perturbation in place.
    assert out["feedforward_only_final_error"] > 0.1


def test_sweep_csv_byte_identical_across_runs(tmp_path):
    cfg = ExperimentConfig(n_f_list=(1, 3), trials=3, t_max=1.5)
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    results = [sweep_sample_counts(cfg, out_csv=p) for p in paths]
    assert paths[0].read_bytes() == paths[1].read_bytes()
    n_fs, means = mean_fall_times(results[0])
    with open(paths[0], newline="") as f:
        summary = [row for row in csv.DictReader(f) if row["trial_id"] == "summary"]
    assert [int(row["n_f"]) for row in summary] == list(n_fs)
    assert [float(row["t_f"]) for row in summary] == list(means)
