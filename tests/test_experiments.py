import gc

from cpc.experiments import ExperimentConfig, generate_falls, run_balance_trial, trial_seed


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
