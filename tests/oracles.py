"""Per-candidate reference implementations of retrieval and ranking.

The package retrieves and ranks stored points on arrays, a whole batch at a
time. The functions here redo the same quantities one candidate at a time,
from independent derivations, for the tests to check the array code
against: retrieval as a plain linear scan with ``q @ b`` projections, and
the transition value through the (z kron I_M) B_chi^-1 matrices of the
critically damped error dynamics, whose state-transition matrix
``expm_crit_damped`` gives in closed form. ``save_jsonl_per_value`` writes
a store's JSON Lines one row and one value at a time, for the byte-identity
check of the block writer. ``one_target`` and
``one_target_tau`` are not oracles: they pass a single target state to the
package's batched renormalization as a batch of one row.
"""

import json
import math
from typing import NamedTuple

import numpy as np

from cpc.control_law import CoordSplit, GainSpec, cpc_tau, renormalized_target, target_errors
from cpc.dynamics import State
from cpc.errors import SingularMatrix, VelocityBarDegenerate
from cpc.target_store import DATASET_FORMAT, DEFAULT_GUARD_TOL, TargetStore
from cpc.value import RewardSpec


class Candidate(NamedTuple):
    """A stored point (state, torque, recorded return) with its index in
    the store, its reparameterization and its proximity loss."""

    index: int
    t0: float
    s: float
    loss: float
    x: State
    tau: np.ndarray
    G: float


class Value(NamedTuple):
    """Total value estimate and its transition/recorded components."""

    v_total: float
    v_I: float
    v_II: float


def one_target(xd: State, t0: float, s: float) -> tuple[np.ndarray, np.ndarray]:
    """(q_r0, qdot_r) of the renormalized target for one target state."""
    q_r0, qdot_r = renormalized_target(xd.q[None], xd.qdot[None], np.array([t0]), np.array([s]))
    return q_r0[0], qdot_r[0]


def one_target_tau(x0, xd, split, t0, s, gain, tau_d) -> np.ndarray:
    """Path feedback torque steering x0 onto one target state's
    renormalized target."""
    dchi, dchidot = target_errors(
        x0, xd.q[None], xd.qdot[None], np.array([t0]), np.array([s]), split
    )
    return cpc_tau(dchi[0], dchidot[0], split, gain, tau_d)


def proximity_loss(t0, s, omega, s_g):
    """Candidate quality score; zero only for t0 = 0 and s = s_g."""
    return (omega * t0) ** 2 + (s - s_g) ** 2


def query_candidates(
    store: TargetStore,
    x0: State,
    b: np.ndarray,
    omega: float,
    s_g: float,
    n_d: int,
    guard_tol: float = DEFAULT_GUARD_TOL,
) -> list[Candidate]:
    """The n_d lowest-loss guard-passing stored points, by linear scan, in
    ascending (loss, index) order."""
    b = np.asarray(b, dtype=float)
    if b.ndim == 2:
        b = b[:, 0]
    qdbar0 = float(b @ x0.qdot)
    if abs(qdbar0) <= guard_tol:
        raise VelocityBarDegenerate("unactuated velocity projection too small")
    qbar0 = float(b @ x0.q)
    qdb = store.qdot @ b
    t0 = (store.q @ b - qbar0) / qdbar0
    s = qdb / qdbar0
    loss = proximity_loss(t0, s, omega, s_g)
    idx = np.flatnonzero(np.abs(qdb) > guard_tol)
    sel = idx[np.lexsort((idx, loss[idx]))[:n_d]]
    return [
        Candidate(
            int(i), float(t0[i]), float(s[i]), float(loss[i]),
            State(store.q[i].copy(), store.qdot[i].copy()), store.tau[i].copy(), float(store.G[i]),
        )
        for i in sel
    ]


def expm_crit_damped(kappa: float, t: float) -> np.ndarray:
    """Matrix exponential e^{F t} for F = [[0, 1], [-kappa^2, -2 kappa]].

    F is the companion matrix of a critically damped unit oscillator with
    rate ``kappa``; the exponential has the closed form
    e^{-kappa t} [[1 + kappa t, t], [-kappa^2 t, 1 - kappa t]].
    """
    kt = kappa * t
    return math.exp(-kt) * np.array([[1.0 + kt, t], [-kappa * kappa * t, 1.0 - kt]])


def _transition_matrices(b_chi: np.ndarray, kappa: float) -> tuple[np.ndarray, np.ndarray]:
    """Z_i = (z_i kron I_M) (B_chi^-1)' for z_1 = [0; 1], z_2 = [kappa; 2]."""
    m = b_chi.shape[0]
    try:
        binv_t = np.linalg.inv(b_chi).T
    except np.linalg.LinAlgError as e:
        raise SingularMatrix("controlled block of B is singular") from e
    z1 = np.kron(np.array([[0.0], [1.0]]), np.eye(m)) @ binv_t
    z2 = np.kron(np.array([[kappa], [2.0]]), np.eye(m)) @ binv_t
    return z1, z2


def value_estimate(
    x0: State,
    cand: Candidate,
    B: np.ndarray,
    split: CoordSplit,
    gain: GainSpec,
    spec: RewardSpec,
    tau_d=None,
) -> Value:
    """Two-stage value estimate of steering from x0 onto the candidate's
    renormalized target and following it. ``tau_d`` overrides the
    candidate's stored torque."""
    tau_d = np.asarray(cand.tau if tau_d is None else tau_d, dtype=float)
    ci = list(split.controlled)
    q_r0, qdot_r = one_target(cand.x, cand.t0, cand.s)
    dx = np.concatenate([x0.q[ci] - q_r0[ci], x0.qdot[ci] - qdot_r[ci]])
    kappa = gain.kappa
    z1, z2 = _transition_matrices(np.atleast_2d(np.asarray(B, dtype=float))[ci, :], kappa)
    C = spec.C_tau
    tg = spec.T_gamma
    v1 = float(
        -(2.0 / tg) * tau_d @ C @ (z1.T @ dx)
        + (kappa / (4.0 * tg)) * dx @ (z1 @ C @ z1.T + z2 @ C @ z2.T) @ dx
    )
    r_d = spec.reward_at(cand.x)
    v2 = float(cand.G + (cand.t0 / tg) * (tau_d @ C @ tau_d + r_d - cand.G))
    return Value(v1 + v2, v1, v2)


def cost(x0, cand, B, split, gain, spec, tau_d=None) -> float:
    """Negated value estimate; candidate selection minimizes this."""
    return -value_estimate(x0, cand, B, split, gain, spec, tau_d).v_total


def save_jsonl_per_value(store: TargetStore, path) -> None:
    """Write ``store`` as JSON Lines with one format() call per value and one
    write() per row: the header as sorted-key JSON, then one object per
    point with every float in ``format(float(x), ".17g")``."""

    def fmt(x) -> str:
        return format(float(x), ".17g")

    def arr(a) -> str:
        return "[" + ", ".join(fmt(v) for v in a) + "]"

    with open(path, "w", encoding="utf-8") as f:
        header = {
            "format": DATASET_FORMAT,
            "n_links": store.n_links,
            "actuated_joints": list(store.actuated_joints),
        }
        f.write(json.dumps(header, sort_keys=True) + "\n")
        for i in range(len(store)):
            f.write(
                '{"t": %s, "q": %s, "qdot": %s, "tau": %s, "G": %s}\n'
                % (fmt(store.t[i]), arr(store.q[i]), arr(store.qdot[i]), arr(store.tau[i]), fmt(store.G[i]))
            )
