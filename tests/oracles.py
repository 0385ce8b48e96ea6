"""Per-candidate reference implementations of retrieval and ranking.

The package retrieves and ranks stored points on arrays, a whole batch at a
time. The functions here redo the same quantities one candidate at a time,
from independent derivations, for the tests to check the array code
against: retrieval as a plain linear scan with ``q @ b`` projections, and
the transition value through the (z kron I_M) B_chi^-1 matrices of the
critically damped error dynamics, whose state-transition matrix
``expm_crit_damped`` gives in closed form. ``save_jsonl_per_value`` writes
a store's JSON Lines one row and one value at a time, for the byte-identity
check of the block writer. ``energy`` is the chain's total mechanical
energy, for the integrator's conservation and work checks, and
``correspondence_gap`` the distance between the path feedback and a
virtual-constraint feedback, for the zero-dynamics reading of the law.
``one_target``, ``one_target_tau``, ``retrieve_one``, ``targets_of`` and
``row_errors`` are not oracles: they pass target states given as rows to
the package's renormalization, errors and retrieval scan, through a batch
or a retrieval handle over those rows. ``renormalized_target`` is the
renormalization of whole rows, which the package does only on the
controlled columns it gathers.

The control cycle runs its small-array work on Python floats, keeps its
regression window as lists of floats and gathers only the controlled
columns of the retrieved points. The numpy forms of the same steps are
kept here, for the tests to require the same bits from the cycle (at
M >= 2, where the cycle eliminates on Python floats, a relative tolerance):
the split's general N x (N-M) blocks through an SVD condition check and a
LAPACK solve at every M (``split_blocks_lapack``), the path law through a
LAPACK solve at every M (``cpc_tau_lapack``), the renormalization of every
column of the retrieved points' whole rows (``target_errors_full_width``),
the fall test on ``np.cumsum`` (``has_fallen_cumsum``), and a controller
whose regression window is a deque of (torque, acceleration) pairs rebuilt
into arrays with ``np.array`` each cycle (``DequeController`` and
``deque_controller_step``).

The dynamics kernel forms each pair of links once. ``lane_terms_full``
forms the manipulator terms from all N^2 ordered pairs, the self pairs
included, for the tests to require the same bits from the traced kernel.
Likewise the B regression forms each Gram entry once and factors once;
``estimate_per_column`` forms the whole Gram matrix and factors it again
for each acceleration column.
"""

import json
import math
from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from cpc import controller
from cpc.control_law import (
    DEFAULT_COND_CAP,
    RIDGE,
    CoordSplit,
    GainSpec,
    cpc_tau,
    target_errors,
)
from cpc.dynamics import ChainParams, State, _chain_consts, exact_control_matrix, manipulator_terms
from cpc.errors import (
    NoValidCandidates,
    RankDeficient,
    SingularMatrix,
    VelocityBarDegenerate,
)
from cpc.experiments import FALL_ANGLE
from cpc.target_store import (
    DATASET_FORMAT,
    DEFAULT_GUARD_TOL,
    NonEmptyStore,
    TargetStore,
    _query_arrays,
)
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


def renormalized_target(
    q_d: np.ndarray, qdot_d: np.ndarray, t0: np.ndarray, s: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Start q_r0 and velocity qdot_r (n, N) of the linear targets q_r0 + qdot_r t
    reparameterizing target states (n, N) by time offsets and scales (n,):
    ``target_errors``' arithmetic on whole rows."""
    if not np.all(s):
        raise ValueError("time scale s must be nonzero")
    return q_d - qdot_d * (t0 / s)[:, None], qdot_d / s[:, None]


def one_target(xd: State, t0: float, s: float) -> tuple[np.ndarray, np.ndarray]:
    """(q_r0, qdot_r) of the renormalized target for one target state."""
    q_r0, qdot_r = renormalized_target(xd.q[None], xd.qdot[None], np.array([t0]), np.array([s]))
    return q_r0[0], qdot_r[0]


def targets_of(q_d, qdot_d) -> NonEmptyStore:
    """Retrieval handle over target states given as rows (n, N), with zero
    times, torques and returns, on the chain whose joints 1 .. N-1 are
    actuated. Point i is row i."""
    n, dim = np.shape(q_d)
    store = TargetStore(
        np.zeros(n), q_d, qdot_d, np.zeros((n, dim - 1)), np.zeros(n), dim, tuple(range(1, dim))
    )
    return NonEmptyStore(store)


def row_errors(x0, q_d, qdot_d, t0, s, split):
    """``target_errors`` against target states given as rows (n, N): the
    package's function on a handle over those states, every row selected."""
    return target_errors(x0, targets_of(q_d, qdot_d), np.arange(len(q_d)), t0, s, split)


def one_target_tau(x0, xd, split, t0, s, gain, tau_d) -> np.ndarray:
    """Path feedback torque steering x0 onto one target state's
    renormalized target."""
    dchi, dchidot = row_errors(
        x0, xd.q[None], xd.qdot[None], np.array([t0]), np.array([s]), split
    )
    return cpc_tau(dchi[0], dchidot[0], split, gain, tau_d)


def retrieve_one(x0: State, xd: State, b: np.ndarray) -> tuple[float, float]:
    """(t0, s) of the target state xd for the query x0 and the (N,)
    covector b, as retrieval gives them for a one-point store holding xd.
    Raises VelocityBarDegenerate when the guard rejects the query or the
    point."""
    b = np.asarray(b, dtype=float)
    targets = targets_of([xd.q], [xd.qdot])
    idx, t0, s, _ = _query_arrays(targets, x0, b, 10.0, 1.0, 1, DEFAULT_GUARD_TOL)
    if not len(idx):
        raise VelocityBarDegenerate("the velocity guard rejects the target state")
    return float(t0[0]), float(s[0])


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


def energy(params: ChainParams, state: State) -> float:
    """Total mechanical energy of one state; conserved on passive swings."""
    c = _chain_consts(params)
    terms = manipulator_terms(params, state.q, state.qdot)
    phi = np.cumsum(state.q)
    return 0.5 * state.qdot @ terms.D @ state.qdot + float(np.array(c.grav_w) @ np.cos(phi))


def correspondence_gap(params: ChainParams, x: State, xd: State, epsilon: float) -> float:
    """Norm of the difference between the path feedback and the constraint
    feedback at the given state, both at gain 1/epsilon^2.

    A virtual constraint pins the controlled coordinates to an affine
    function of a scalar phasing variable theta = c' q; driving its output
    to zero with exact dynamics is the classical output-linearization
    route. With c proportional to the unactuated covector and the
    constraint built from the renormalized target, its feedback agrees with
    the path feedback in the high-gain regime.

    The path side uses the exact control matrix at ``x`` with the covector
    computed there, and the (t0, s) retrieval gives xd against ``x``. The
    constraint side phases by the target configuration's unactuated
    covector c and is built from the renormalized target, then evaluated at
    ``x``; c has -1 on the unactuated joint, so it is never zero. Both
    sides control the chain's actuated joints. Raises ValueError unless
    epsilon is positive and finite with a finite gain 1/epsilon^2, or when
    c is orthogonal to the target velocity.
    """
    # Both sides damp with 2/epsilon, the path side as 2 sqrt(k): they agree
    # only for epsilon > 0.
    if not 0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon!r}")
    kappa = 1.0 / epsilon
    gain = GainSpec(kappa * kappa)  # ValueError when 1/epsilon^2 overflows
    B = exact_control_matrix(params, x.q)
    split = CoordSplit(B, params.actuated_joints)
    t0, s = retrieve_one(x, xd, split.b)
    q_d, qdot_d, t0, s = xd.q[None], xd.qdot[None], np.array([t0]), np.array([s])
    dchi, dchidot = row_errors(x, q_d, qdot_d, t0, s, split)
    dtau_cpc = cpc_tau(dchi[0], dchidot[0], split, gain, np.zeros(len(split.controlled)))

    c = CoordSplit(exact_control_matrix(params, xd.q), params.actuated_joints).b
    # Unit length: the feedback is invariant to c's scale, as the slope rescales.
    c = c / np.linalg.norm(c)
    (q_r0,), (qdot_r,) = renormalized_target(q_d, qdot_d, t0, s)
    dtheta = float(c @ qdot_r)
    if abs(dtheta) < 1e-12:
        raise ValueError("phasing covector orthogonal to the target velocity")
    # Constraint chi = chi(q_r0) + slope (theta - c' q_r0) through the
    # renormalized start: output y, constant Jacobian dh = S_chi - slope c'.
    ci = list(split.controlled)
    slope = qdot_r[ci] / dtheta
    dh = -np.outer(slope, c)
    dh[range(len(ci)), ci] += 1.0
    y = x.q[ci] - (q_r0[ci] + slope * (float(c @ x.q) - float(c @ q_r0)))
    ydot = dh @ x.qdot
    dtau_vc = -np.linalg.solve(dh @ B, gain.k * y + 2.0 * kappa * ydot)
    return float(np.linalg.norm(dtau_cpc - dtau_vc))


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


# ---------------------------------------------------------------------------
# numpy forms of the control cycle's small-array steps
# ---------------------------------------------------------------------------


def estimate_per_column(taus: np.ndarray, us: np.ndarray) -> np.ndarray:
    """``estimate_control_matrix`` forming every entry of the Gram matrix
    T'T + RIDGE I on its own and refactoring it for each column of U, by a
    Cholesky solve on Python floats written out here."""
    t_cols, u_cols = np.asarray(taus, float).T.tolist(), np.asarray(us, float).T.tolist()

    def dot(x, y):
        s = 0.0
        for a, b in zip(x, y):
            s = s + a * b
        return s

    m = len(t_cols)
    B = []
    for u in u_cols:
        A = [[dot(a, b) for b in t_cols] for a in t_cols]
        for i in range(m):
            A[i][i] = A[i][i] + RIDGE
        L = [[0.0] * m for _ in range(m)]
        for i in range(m):
            for j in range(i + 1):
                s = A[i][j]
                for k in range(j):
                    s = s - L[i][k] * L[j][k]
                L[i][j] = math.sqrt(s) if i == j else s / L[j][j]
        x = [dot(t, u) for t in t_cols]
        for i in range(m):
            for k in range(i):
                x[i] = x[i] - L[i][k] * x[k]
            x[i] = x[i] / L[i][i]
        for i in reversed(range(m)):
            for k in range(i + 1, m):
                x[i] = x[i] - L[k][i] * x[k]
            x[i] = x[i] / L[i][i]
        B.append(x)
    return np.array(B)


def split_blocks_lapack(B: np.ndarray, controlled) -> tuple[np.ndarray, np.ndarray]:
    """(b_chi, b) of the general split of a finite N x M matrix B, with the
    N x (N-M) covector block b, the condition check on the SVD of B_chi at
    every M, W from a LAPACK solve and b filled by index assignment. With
    one free row, ``CoordSplit(B, controlled)`` holds this b_chi and
    b[:, 0]. Raises SingularMatrix as the split does, a covector that
    overflows included."""
    B = np.atleast_2d(np.asarray(B, dtype=float))
    n, m = B.shape
    controlled = sorted(controlled)
    free = [i for i in range(n) if i not in controlled]
    b_chi = B[controlled, :]
    s = np.linalg.svd(b_chi, compute_uv=False)
    if s[-1] == 0.0 or (s[0] / s[-1]) ** 2 > DEFAULT_COND_CAP:
        raise SingularMatrix("controlled block of B is numerically singular")
    W = np.linalg.solve(b_chi.T, B[free, :].T).T
    if not np.all(np.isfinite(W)):
        raise SingularMatrix("covector of B is not finite")
    b = np.zeros((n, n - m))
    b[controlled, :] = W.T
    b[free, :] = -np.eye(n - m)
    return b_chi, b


def cpc_tau_lapack(dchi, dchidot, split: CoordSplit, gain: GainSpec, tau_d) -> np.ndarray:
    """``cpc_tau`` through np.linalg.solve at every M, with kappa from
    np.sqrt."""
    fb = gain.k * dchi + 2.0 * float(np.sqrt(gain.k)) * dchidot
    return np.asarray(tau_d, dtype=float) - np.linalg.solve(split.b_chi, fb)


def target_errors_full_width(x0, targets, idx, t0, s, split: CoordSplit):
    """``target_errors`` gathering whole rows of the handle's store,
    renormalizing every column and then keeping the controlled ones."""
    q_r0, qdot_r = renormalized_target(targets.store.q[idx], targets.store.qdot[idx], t0, s)
    ci = list(split.controlled)
    return x0.q[ci] - q_r0[:, ci], x0.qdot[ci] - qdot_r[:, ci]


def lane_terms_full(ops, c, q, qdot):
    """Inertia matrix D (N lists of N lanes) and bias H (N lanes) of the
    chain constants ``c``, every entry formed on its own: all N² angle
    differences with their sin and cos, the self pairs k == j included."""
    n = len(q)
    phi = []
    phidot = []
    acc_q = 0.0
    acc_qd = 0.0
    for i in range(n):
        acc_q = acc_q + q[i]
        acc_qd = acc_qd + qdot[i]
        phi.append(acc_q)
        phidot.append(acc_qd)
    D = []
    h_phi = []
    for j in range(n):
        pj = phi[j]
        coef = c.coef[j]
        row = []
        s = 0.0
        for k in range(n):
            djk = pj - phi[k]
            row.append(coef[k] * ops.cos(djk))
            s = s + coef[k] * ops.sin(djk) * phidot[k] * phidot[k]
        row[j] = row[j] + c.i_cap
        D.append(row)
        h_phi.append(s - c.grav_w[j] * ops.sin(pj))
    # Suffix sums implement the congruence with the lower-ones matrix; each
    # entry is read as D_phi before it is overwritten.
    for j in range(n - 1, -1, -1):
        for k in range(n - 1, -1, -1):
            v = D[j][k]
            if j + 1 < n:
                v = v + D[j + 1][k]
            if k + 1 < n:
                v = v + D[j][k + 1]
            if j + 1 < n and k + 1 < n:
                v = v - D[j + 1][k + 1]
            D[j][k] = v
    H = [0.0] * n
    acc = 0.0
    for j in range(n - 1, -1, -1):
        acc = acc + h_phi[j]
        H[j] = acc
    return D, H


def has_fallen_cumsum(q) -> bool:
    """``experiments.has_fallen`` on np.cumsum of the relative angles."""
    return bool(np.any(np.abs(np.cumsum(q)) > FALL_ANGLE))


@dataclass
class DequeController:
    """Controller state whose regression window is a deque of (torque,
    acceleration) pairs, at most HISTORY_N long."""

    n_controls: int
    rng: np.random.Generator
    history: deque = field(default_factory=lambda: deque(maxlen=controller.HISTORY_N))
    prev_tau: Optional[np.ndarray] = None
    prev_qdot: Optional[np.ndarray] = None
    last_B: Optional[np.ndarray] = None
    fallback_count: int = 0
    unclamped_exits: int = 0


def make_deque_controller(n_controls: int, seed) -> DequeController:
    return DequeController(n_controls, np.random.default_rng(seed))


def deque_controller_step(ctrl: DequeController, x0, targets, cfg, spec) -> np.ndarray:
    """``controller.controller_step`` on a ``DequeController``: the finite
    difference is taken on arrays, the window is rebuilt into arrays with
    np.array every cycle and split into the regression's columns, and the
    torque norm and finiteness are checked with np.linalg.norm and
    np.isfinite. The cycle itself is ``controller.cpc_loop``, looked up at
    call time."""
    if ctrl.prev_tau is not None:
        u = (x0.qdot - ctrl.prev_qdot) / cfg.dt
        ctrl.history.append((ctrl.prev_tau, u))
    if len(ctrl.history) < controller.HISTORY_N:
        tau = ctrl.rng.normal(0.0, cfg.sigma_boot, size=ctrl.n_controls)
    else:
        taus = np.array([h[0] for h in ctrl.history])
        us = np.array([h[1] for h in ctrl.history])
        try:
            B = controller.estimate_control_matrix(taus.T.tolist(), us.T.tolist())
            ctrl.last_B = B
            tau = controller.cpc_loop(x0, B, targets, cfg, spec)
            if float(np.linalg.norm(tau)) >= controller.TAU_C:
                ctrl.unclamped_exits += 1
        except (NoValidCandidates, VelocityBarDegenerate, RankDeficient, SingularMatrix):
            ctrl.fallback_count += 1
            tau = np.zeros(ctrl.n_controls)
    if not np.all(np.isfinite(tau)):
        ctrl.fallback_count += 1
        tau = np.zeros(ctrl.n_controls)
    ctrl.prev_tau = tau
    ctrl.prev_qdot = x0.qdot.copy()
    return tau
