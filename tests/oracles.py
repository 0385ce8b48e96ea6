"""Per-candidate reference implementations of retrieval and ranking.

The package retrieves and ranks stored points on arrays, a whole batch at a
time. The functions here redo the same quantities one candidate at a time,
from independent derivations, for the tests to check the array code
against: retrieval as a plain linear scan with ``q @ b`` projections, and
the transition value through the (z kron I_M) B_chi^-1 matrices of the
critically damped error dynamics, whose state-transition matrix
``expm_crit_damped`` gives in closed form. ``candidate_costs_shaped`` is the
batch ranking under a general control penalty C_tau and discount time scale
T_gamma, of which the package's ranking is the case C_tau = -I, T_gamma = 1;
the tests require the same bits from the two there. ``save_jsonl_per_value``
writes a store's JSON Lines one row and one value at a time, for the
byte-identity check of the block writer. ``b_tau`` is the 0/1 matrix that
places the torques on their joints, for the matmul the package leaves out.
``energy`` is the chain's total mechanical energy, for the integrator's
conservation and work checks, and ``correspondence_gap`` the distance
between the path feedback and a virtual-constraint feedback, for the
zero-dynamics reading of the law.
``upright_linearization`` and ``zd_rate`` give the zero-dynamics (ZD) rate
of a straight path through upright, and ``path_store`` records stores that
follow such a path, for the tests of the ZD mechanism.
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
for each acceleration column. ``step`` integrates one first-order state
(q, qdot); ``step_axpy`` integrates q and qdot as two vectors, each RK4
stage formed by axpy (x + a*y) and add on lists or arrays.
"""

import json
import math
import operator
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
    _solve,
    cpc_tau,
)
from cpc.dynamics import (
    ChainParams,
    State,
    _chain_consts,
    _dot,
    _generalized_forces,
    exact_control_matrix,
    manipulator_terms,
    step,
)
from cpc.errors import (
    NoValidCandidates,
    RankDeficient,
    SingularMatrix,
    VelocityBarDegenerate,
)
from cpc.experiments import FALL_ANGLE, FALL_DURATION
from cpc.target_store import (
    DATASET_FORMAT,
    DEFAULT_GUARD_TOL,
    NonEmptyStore,
    TargetStore,
    _query_arrays,
    target_errors,
)


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
    state_reward=None,
    tau_d=None,
) -> Value:
    """Two-stage value estimate of steering from x0 onto the candidate's
    renormalized target and following it, under the control penalty
    -|tau|^2, a discount time scale of 1 s and the state reward
    ``state_reward`` of the candidate's state (zero if None). ``tau_d``
    overrides the candidate's stored torque."""
    tau_d = np.asarray(cand.tau if tau_d is None else tau_d, dtype=float)
    ci = list(split.controlled)
    q_r0, qdot_r = one_target(cand.x, cand.t0, cand.s)
    dx = np.concatenate([x0.q[ci] - q_r0[ci], x0.qdot[ci] - qdot_r[ci]])
    kappa = gain.kappa
    z1, z2 = _transition_matrices(np.atleast_2d(np.asarray(B, dtype=float))[ci, :], kappa)
    C = -np.eye(len(ci))
    v1 = float(
        -2.0 * tau_d @ C @ (z1.T @ dx)
        + (kappa / 4.0) * dx @ (z1 @ C @ z1.T + z2 @ C @ z2.T) @ dx
    )
    r_d = 0.0 if state_reward is None else float(state_reward(cand.x))
    v2 = float(cand.G + cand.t0 * (tau_d @ C @ tau_d + r_d - cand.G))
    return Value(v1 + v2, v1, v2)


def cost(x0, cand, B, split, gain, state_reward=None, tau_d=None) -> float:
    """Negated value estimate; candidate selection minimizes this."""
    return -value_estimate(x0, cand, B, split, gain, state_reward, tau_d).v_total


def candidate_costs_shaped(dchi, dchidot, tau_d, g_d, r_d, t0, split, gain, C_tau, T_gamma):
    """``value.candidate_costs`` under the control penalty tau' C_tau tau
    (C_tau M x M) and discount time scale T_gamma: the transition value
    v_I = -(2/T) tau_d' C W + kappa/(4T) (W' C W + Z' C Z) and the recorded
    value v_II = G + (t0/T) (tau_d' C tau_d + r_d - G), in the same
    arithmetic order, with each quadratic form summed through the columns
    of C_tau."""
    m = len(split.controlled)
    C_tau = np.asarray(C_tau, dtype=float)
    assert C_tau.shape == (m, m)
    kappa = gain.kappa
    tg = T_gamma
    if m == 1:
        beta = float(split.b_chi[0, 0])
        c = float(C_tau[0, 0])
        td = tau_d[:, 0]
        dchi, dchidot = dchi[:, 0], dchidot[:, 0]
        v1 = -(2.0 / tg) * td * c * (dchidot / beta) + (kappa * c / (4.0 * tg * beta * beta)) * (
            kappa * kappa * dchi * dchi + 4.0 * kappa * dchi * dchidot + 5.0 * dchidot * dchidot
        )
        v2 = g_d + (t0 / tg) * (c * td * td + r_d - g_d)
        return -(v1 + v2)
    td = tau_d.T
    U, W = _solve(split.b_chi.tolist(), [dchi.T, dchidot.T])
    Z = [kappa * u + 2.0 * w for u, w in zip(U, W)]
    c_cols = C_tau.T.tolist()
    td_c, w_c, z_c = ([_dot(a, col) for col in c_cols] for a in (td, W, Z))
    v1 = -(2.0 / tg) * _dot(td_c, W) + (kappa / (4.0 * tg)) * (_dot(w_c, W) + _dot(z_c, Z))
    v2 = g_d + (t0 / tg) * (_dot(td_c, td) + r_d - g_d)
    return -(v1 + v2)


def b_tau(params: ChainParams) -> np.ndarray:
    """The (N, M) 0/1 torque distribution matrix B_tau: column i selects
    actuated joint i, so D qddot + H = B_tau tau."""
    b = np.zeros((params.n_links, params.n_controls))
    b[list(params.actuated_joints), range(params.n_controls)] = 1.0
    return b


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


def upright_linearization(params: ChainParams) -> np.ndarray:
    """A of the linearization qddot = A q + B_tau tau at upright rest, in
    closed form. There only the gravity term of H is first order in q: with
    phi = T q (T the lower-ones matrix) it is -T' diag(grav_w) T q, so
    A = D(0)^-1 T' diag(grav_w) T."""
    n = params.n_links
    T = np.tril(np.ones((n, n)))
    D = manipulator_terms(params, np.zeros(n), np.zeros(n)).D
    return np.linalg.solve(D, T.T @ np.diag(_chain_consts(params).grav_w) @ T)


def zd_rate(params: ChainParams, v) -> float:
    """The ZD rate lambda = (b' A v) / (b' v) of the straight path q = v theta
    through upright: with the actuated joints pinned to the path, the
    unactuated row of the linearization gives theta'' = lambda theta, where
    b is the covector of the exact control matrix at upright. The path's
    zero dynamics are stable exactly when lambda < 0."""
    n = params.n_links
    b = CoordSplit(exact_control_matrix(params, np.zeros(n)), params.actuated_joints).b
    v = np.asarray(v, dtype=float)
    return float(b @ upright_linearization(params) @ v) / float(b @ v)


# Gains of the computed-torque recorder of ``path_store``: the path error
# obeys e'' = -400 e - 40 e', a critically damped rate of 20/s, several
# times the fastest open-loop rate of the acrobot (sqrt(43.8) = 6.6/s).
PATH_KP, PATH_KD = 400.0, 40.0


def path_store(params: ChainParams, a: float, n_f: int, seed) -> TargetStore:
    """``n_f`` recordings of ``FALL_DURATION`` each on the straight path
    q[1] = a q[0] of a two-link chain with its elbow actuated.

    Each recording starts at rest at q = (1, a) theta0, theta0 ~ N(0, 0.01),
    and computed torque drives the path error e = q[1] - a q[0] by
    e'' = -PATH_KP e - PATH_KD e', from the exact D, H and control matrix B
    at each step, with N(0, SIGMA_BOOT) torque noise on top; the recorded torque
    includes the noise. Along the path q[0] follows the path's zero
    dynamics, which ``zd_rate`` gives at upright. Every point has zero
    return, as in ``experiments.generate_falls``.
    """
    if (params.n_links, params.actuated_joints) != (2, (1,)):
        raise ValueError("path stores are recorded on the (2, (1,)) chain")
    rng = np.random.default_rng(seed)
    c = np.array([-a, 1.0])
    rows = []
    for _ in range(n_f):
        st = State(np.array([1.0, a]) * rng.normal(0.0, 0.01), np.zeros(2))
        for _ in range(round(FALL_DURATION / controller.DT)):
            terms = manipulator_terms(params, st.q, st.qdot)
            e, edot = float(c @ st.q), float(c @ st.qdot)
            # e'' = c' B tau - c' D^-1 H.
            drift = float(c @ np.linalg.solve(terms.D, terms.H))
            cb = float(c @ exact_control_matrix(params, st.q)[:, 0])
            tau = (-PATH_KP * e - PATH_KD * edot + drift) / cb + rng.normal(0.0, controller.SIGMA_BOOT)
            rows.append((st.t, *st.q, *st.qdot, tau))
            st = step(params, st, np.array([tau]), controller.DT)
    t, q0, q1, qd0, qd1, tau = np.array(rows).T
    return TargetStore(
        t, np.column_stack((q0, q1)), np.column_stack((qd0, qd1)), tau[:, None],
        np.zeros(len(t)), 2, (1,),
    )


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


def _float_axpy(x, a, y):
    return [xi + a * yi for xi, yi in zip(x, y)]


def _float_add(x, y):
    return [xi + yi for xi, yi in zip(x, y)]


def _array_axpy(x, a, y):
    return x + a * y


def _rk4_axpy(axpy, add, deriv, q, qdot, dt):
    """The next (q, qdot) after one classical RK4 step of the system whose
    ``deriv(q, qdot)`` returns the joint accelerations, every stage formed
    by ``axpy`` and ``add`` on the two vectors."""
    h = 0.5 * dt
    k1v = deriv(q, qdot)
    q2 = axpy(q, h, qdot)
    v2 = axpy(qdot, h, k1v)
    k2v = deriv(q2, v2)
    q3 = axpy(q, h, v2)
    v3 = axpy(qdot, h, k2v)
    k3v = deriv(q3, v3)
    q4 = axpy(q, dt, v3)
    v4 = axpy(qdot, dt, k3v)
    k4v = deriv(q4, v4)
    w = dt / 6.0
    qn = axpy(q, w, add(axpy(axpy(qdot, 2.0, v2), 2.0, v3), v4))
    vn = axpy(qdot, w, add(axpy(axpy(k1v, 2.0, k2v), 2.0, k3v), k4v))
    return qn, vn


def step_axpy(params: ChainParams, state: State, tau, dt: float) -> State:
    """``dynamics.step`` of a finite state, on the lanes ``step`` picks, with
    q and qdot integrated as two vectors by ``_rk4_axpy``: lists of floats
    for one state or a one-row batch, (N, K) arrays for K > 1 rows."""
    kernel = _chain_consts(params).accel
    tau = np.asarray(tau, dtype=float)
    q, qdot = state.q, state.qdot
    if q.ndim == 2 and len(q) > 1:
        gen = _generalized_forces(params, tau.T)

        def deriv(q, qdot):
            return np.array(kernel(np.sin, np.cos, np.sqrt, q, qdot, gen))

        qn, vn = _rk4_axpy(_array_axpy, operator.add, deriv, q.T, qdot.T, dt)
        return State(qn.T, vn.T, state.t + dt)
    gen = _generalized_forces(params, tau.reshape(-1).tolist())

    def deriv(q, qdot):
        return kernel(math.sin, math.cos, math.sqrt, q, qdot, gen)

    q_l, qdot_l = q.reshape(-1).tolist(), qdot.reshape(-1).tolist()
    qn, vn = _rk4_axpy(_float_axpy, _float_add, deriv, q_l, qdot_l, dt)
    return State(np.array(qn, ndmin=q.ndim), np.array(vn, ndmin=q.ndim), state.t + dt)


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


def deque_controller_step(ctrl: DequeController, x0, targets, cfg) -> np.ndarray:
    """``controller.controller_step`` on a ``DequeController``: the finite
    difference is taken on arrays, the window is rebuilt into arrays with
    np.array every cycle and split into the regression's columns, and the
    torque norm and finiteness are checked with np.linalg.norm and
    np.isfinite. The cycle itself is ``controller.cpc_loop``, looked up at
    call time."""
    if ctrl.prev_tau is not None:
        u = (x0.qdot - ctrl.prev_qdot) / controller.DT
        ctrl.history.append((ctrl.prev_tau, u))
    if len(ctrl.history) < controller.HISTORY_N:
        tau = ctrl.rng.normal(0.0, controller.SIGMA_BOOT, size=ctrl.n_controls)
    else:
        taus = np.array([h[0] for h in ctrl.history])
        us = np.array([h[1] for h in ctrl.history])
        try:
            B = controller.estimate_control_matrix(taus.T.tolist(), us.T.tolist())
            ctrl.last_B = B
            tau = controller.cpc_loop(x0, B, targets, cfg)
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
