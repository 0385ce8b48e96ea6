"""Checks of the closed-form matrix exponential that the value oracle in
oracles.py builds on."""

import numpy as np

from oracles import expm_crit_damped


def _expm_taylor(kappa, t, terms=30):
    F = np.array([[0.0, 1.0], [-kappa * kappa, -2.0 * kappa]])
    out = np.eye(2)
    term = np.eye(2)
    for k in range(1, terms):
        term = term @ F * (t / k)
        out = out + term
    return out


def test_expm_t0_identity():
    assert np.allclose(expm_crit_damped(7.0, 0.0), np.eye(2))


def test_expm_k1_t1():
    assert np.allclose(expm_crit_damped(1.0, 1.0), np.exp(-1.0) * np.array([[2.0, 1.0], [-1.0, 0.0]]))


def test_expm_vs_taylor():
    E = expm_crit_damped(3.0, 0.2)
    assert np.abs(E - _expm_taylor(3.0, 0.2)).max() < 1e-10


def test_expm_semigroup(rng):
    for _ in range(50):
        kappa = rng.uniform(0.5, 20.0)
        t1, t2 = rng.uniform(0.0, 0.3, size=2)
        lhs = expm_crit_damped(kappa, t1 + t2)
        rhs = expm_crit_damped(kappa, t1) @ expm_crit_damped(kappa, t2)
        assert np.abs(lhs - rhs).max() < 1e-9
