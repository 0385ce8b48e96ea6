"""Planar N-link chain rigid-body dynamics about a frictionless pivot.

Conventions:

- ``q`` holds relative joint angles in radians: ``q[0]`` is link 0 measured
  from vertical-up, ``q[i]`` is link i relative to link i-1. A link at
  absolute angle ``phi`` points along ``(sin phi, cos phi)``, so ``phi = 0``
  is straight up and positive angles tip toward +x.
- Gravity acts along -y with magnitude ``gravity``.
- Joints sit ``segment_length`` apart; each link is a capsule (cylinder plus
  hemispherical end caps) centered on its joint-to-joint segment.
- A motor at joint ``j`` applies a generalized force on the relative angle
  ``q[j]``, so the torque distribution matrix is a 0/1 column selection.

There are no joint limits and no friction.

A state is one chain, with ``q`` and ``qdot`` of shape (N,), or, for
``step``, a batch of K independent chains advanced in lockstep, with ``q``
and ``qdot`` of shape (K, N). Each row of a batch evolves bit for bit as it
would alone.
"""

import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .errors import NonFiniteState, SingularMatrix


def _as_int(value) -> int:
    """``value`` as a Python int. Raises TypeError for a bool or a
    non-integral number: sizes, counts and indices of this package are
    integers, and neither is one here."""
    if isinstance(value, bool):
        raise TypeError(f"a bool is not an integer here: {value!r}")
    return operator.index(value)


def _chain_layout(n_links, actuated_joints, error) -> tuple[int, tuple[int, ...]]:
    """The layout rule of chains and stored datasets: (n_links,
    actuated_joints) as Python ints. Raises ``error`` unless n_links is a
    positive integer and the joints are distinct integers in range(n_links)
    (see ``_as_int``)."""
    try:
        n = _as_int(n_links)
        joints = tuple(_as_int(j) for j in actuated_joints)
    except TypeError as e:
        raise error(f"bad chain layout: {e}") from e
    if n < 1 or len(set(joints)) != len(joints) or not all(0 <= j < n for j in joints):
        raise error(f"bad chain layout: n_links={n}, actuated_joints={joints}")
    return n, joints


@dataclass(frozen=True)
class ChainParams:
    """Geometry, inertia and actuation layout of the chain."""

    n_links: int = 2
    segment_length: float = 1.0
    capsule_radius: float = 0.1
    density: float = 1.0
    gravity: float = 10.0
    actuated_joints: tuple[int, ...] = (1,)

    def __post_init__(self):
        n, joints = _chain_layout(self.n_links, self.actuated_joints, ValueError)
        if self.segment_length <= 0 or self.capsule_radius <= 0 or self.density <= 0:
            raise ValueError("segment_length, capsule_radius, density must be positive")
        object.__setattr__(self, "n_links", n)
        object.__setattr__(self, "actuated_joints", joints)

    @property
    def n_controls(self) -> int:
        return len(self.actuated_joints)


def acrobot_params() -> ChainParams:
    """Two-link chain with only the elbow joint actuated."""
    return ChainParams(n_links=2, actuated_joints=(1,))


@dataclass
class State:
    """Configuration, velocity and time of the chain: q and qdot are (N,),
    or (K, N) for a batch of K chains sharing the time t."""

    q: np.ndarray
    qdot: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        self.q = np.asarray(self.q, dtype=float)
        self.qdot = np.asarray(self.qdot, dtype=float)

    @property
    def x(self) -> np.ndarray:
        """Stacked state vector [q; qdot], (2N,) or (K, 2N) for a batch."""
        return np.concatenate([self.q, self.qdot], axis=-1)


@dataclass
class DynamicsTerms:
    """Inertia matrix and bias forces of D(q) qddot + H(q, qdot) = B_tau tau."""

    D: np.ndarray
    H: np.ndarray


def capsule_mass_props(length: float, radius: float, density: float) -> tuple[float, float, float]:
    """Mass, center-of-mass offset from the base joint, and planar inertia
    about the center of mass, for a capsule on a segment of given length.

    The capsule is a cylinder of the segment length with a hemispherical cap
    on each end; the center of mass sits at the segment midpoint.
    """
    if length <= 0 or radius <= 0 or density <= 0:
        raise ValueError("capsule dimensions and density must be positive")
    m_cyl = density * math.pi * radius * radius * length
    m_hemi = density * (2.0 / 3.0) * math.pi * radius**3
    mass = m_cyl + 2.0 * m_hemi
    # Transverse inertia: cylinder about its center plus two caps shifted to
    # the ends. A hemisphere about a diameter through its flat face has
    # I = (2/5) m r^2; about its own center of mass (3r/8 away) this is
    # (83/320) m r^2.
    i_cyl = m_cyl * (length * length / 12.0 + radius * radius / 4.0)
    d = 0.5 * length + 0.375 * radius
    i_caps = 2.0 * (m_hemi * radius * radius * 83.0 / 320.0 + m_hemi * d * d)
    return mass, 0.5 * length, i_cyl + i_caps


class _ChainConsts(NamedTuple):
    # coef and grav_w hold Python floats: the kernel's float lanes must not
    # mix in numpy scalars.
    coef: tuple  # N rows of N cos/sin coupling coefficients
    grav_w: tuple  # N gravity weights m g (l_com + links above * L)
    i_cap: float  # per-link capsule inertia about its com
    b_tau: np.ndarray  # (N, M) torque distribution selection


@lru_cache(maxsize=32)
def _chain_consts(params: ChainParams) -> _ChainConsts:
    n = params.n_links
    L = params.segment_length
    mass, l_com, i_com = capsule_mass_props(L, params.capsule_radius, params.density)
    coef = tuple(
        tuple(
            mass * ((l_com * l_com if j == k else l_com * L) + (n - 1 - max(j, k)) * L * L)
            for k in range(n)
        )
        for j in range(n)
    )
    grav_w = tuple(mass * params.gravity * (l_com + (n - 1 - j) * L) for j in range(n))
    b_tau = np.zeros((n, params.n_controls))
    for col, j in enumerate(params.actuated_joints):
        b_tau[j, col] = 1.0
    return _ChainConsts(coef, grav_w, i_com, b_tau)


# ---------------------------------------------------------------------------
# Kernel. The manipulator terms are formed in absolute link angles (where
# the planar-chain closed form is a plain cos/sin coupling) and then
# transformed to relative coordinates with the constant lower-triangular map
# phi = T q, giving D_q = T' D_phi T and H_q = T' (h_phi + g_phi).
#
# The kernel runs over lanes. A lane list holds the N per-coordinate values
# of a state: Python floats for one state, or (K,) arrays for K states in
# lockstep. Both lane types execute the same statements in the same order,
# so a row of a batch comes out bit-equal to the same state run alone,
# provided numpy's float64 sin/cos return the same bits as math.sin/cos
# (they do with numpy 2.4 on x86-64; the batched-step tests check it). No
# statement updates a lane in place (no +=), because an array lane may be a
# view of the caller's state.
#
# The RK4 step takes its vector arithmetic from the same ``_LaneOps`` as
# the kernel takes sin/cos/sqrt. On float lanes a state vector is a list
# of N Python floats, so one state stays on float lanes from the first RK4
# stage to the last: ``step`` converts it from numpy once on the way in and
# once on the way out. On array lanes a state vector is one (N, K) array,
# and the step runs whole-array expressions. Both do the same operations in
# the same order (``q + (0.5*dt)*qdot``, then
# ``q + (dt/6)*(((k1 + 2k2) + 2k3) + k4)``), so the two agree bit for bit.
#
# NaN or infinite input must come out as NaN terms, never as an exception or
# a numpy warning. math.sin/cos raise ValueError on +-inf, so float lanes
# catch it and return all-NaN terms; np.sin/cos return NaN, and ``step`` runs
# array lanes under np.errstate. The callers (accel, step) turn NaN outputs
# into NonFiniteState.
# ---------------------------------------------------------------------------


def _pivot_root(s):
    # math.sqrt raises on a negative pivot; a non-positive pivot (a failed
    # Cholesky test) gives NaN instead.
    return math.sqrt(s) if s > 0.0 else math.nan


def _float_axpy(x, a, y):
    return [xi + a * yi for xi, yi in zip(x, y)]


def _float_add(x, y):
    return [xi + yi for xi, yi in zip(x, y)]


def _float_finite(x):
    return all(map(math.isfinite, x))


def _array_axpy(x, a, y):
    return x + a * y


def _array_finite(x):
    return bool(np.all(np.isfinite(x)))


class _LaneOps(NamedTuple):
    sin: Callable
    cos: Callable
    sqrt: Callable
    axpy: Callable  # (x, a, y) -> x + a*y, elementwise
    add: Callable
    finite: Callable  # true if every entry of a vector is finite


_FLOAT_LANES = _LaneOps(math.sin, math.cos, _pivot_root, _float_axpy, _float_add, _float_finite)
_ARRAY_LANES = _LaneOps(np.sin, np.cos, np.sqrt, _array_axpy, operator.add, _array_finite)


def _lane_terms(ops, c, q, qdot):
    """Inertia matrix D (N lists of N lanes) and bias H (N lanes)."""
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
    try:
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
    except ValueError:
        # Float lanes only, from math.sin/cos of +-inf: an infinite angle,
        # or a difference of finite angles that overflows.
        return [[math.nan] * n for _ in range(n)], [math.nan] * n
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


def _lane_solve(ops, D, rhs):
    """Cholesky solve of the small SPD inertia matrix over lanes.

    Returns (x, singular); ``singular`` is true (per lane) where a pivot is
    not positive, which makes x NaN or infinite there. A NaN pivot passes
    the test (NaN <= 0 is false), so NaN terms are not reported singular.
    """
    n = len(rhs)
    L = [[0.0] * n for _ in range(n)]
    singular = False
    for i in range(n):
        for j in range(i + 1):
            s = D[i][j]
            for k in range(j):
                s = s - L[i][k] * L[j][k]
            if i == j:
                singular = singular | (s <= 0.0)
                L[i][i] = ops.sqrt(s)
            else:
                L[i][j] = s / L[j][j]
    x = [0.0] * n
    for i in range(n):
        s = rhs[i]
        for k in range(i):
            s = s - L[i][k] * x[k]
        x[i] = s / L[i][i]
    for i in range(n - 1, -1, -1):
        s = x[i]
        for k in range(i + 1, n):
            s = s - L[k][i] * x[k]
        x[i] = s / L[i][i]
    return x, singular


def _lane_accel(ops, c, q, qdot, gen):
    """Accelerations under generalized forces ``gen`` (lanes), plus the
    singular flag of the solve."""
    D, H = _lane_terms(ops, c, q, qdot)
    return _lane_solve(ops, D, [g - h for g, h in zip(gen, H)])


def _rk4_step(ops, deriv, q, qdot, dt):
    """The next (q, qdot) after one classical RK4 step of the autonomous
    system whose ``deriv(q, qdot)`` returns the joint accelerations as a
    vector of ``ops``."""
    axpy = ops.axpy
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
    qn = axpy(q, w, ops.add(axpy(axpy(qdot, 2.0, v2), 2.0, v3), v4))
    vn = axpy(qdot, w, ops.add(axpy(axpy(k1v, 2.0, k2v), 2.0, k3v), k4v))
    return qn, vn


def _one_state(params: ChainParams, q, qdot) -> tuple[list, list]:
    """Float lanes of one state; a batch or a wrong size raises ValueError."""
    q = np.asarray(q, dtype=float)
    qdot = np.asarray(qdot, dtype=float)
    n = params.n_links
    if q.shape != (n,) or qdot.shape != (n,):
        raise ValueError(
            f"takes one state, with q and qdot of shape ({n},); "
            f"got {q.shape} and {qdot.shape}"
        )
    return q.tolist(), qdot.tolist()


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


def manipulator_terms(params: ChainParams, q: np.ndarray, qdot: np.ndarray) -> DynamicsTerms:
    """Inertia matrix D(q) and bias vector H(q, qdot) in relative coordinates.

    H collects Coriolis, centrifugal and gravity terms, so the equation of
    motion reads D qddot + H = B_tau tau. An angle that is NaN or infinite
    gives NaN in every entry of D and H.
    """
    D, H = _lane_terms(_FLOAT_LANES, _chain_consts(params), *_one_state(params, q, qdot))
    return DynamicsTerms(np.array(D), np.array(H))


def accel(params: ChainParams, state: State, tau: np.ndarray) -> np.ndarray:
    """Joint accelerations for motor torques tau (length = number of actuators).

    Raises NonFiniteState when the accelerations are NaN or infinite, as
    they are for a state holding NaN or inf, and SingularMatrix when the
    inertia matrix of a finite state is not positive definite.
    """
    c = _chain_consts(params)
    tau = np.asarray(tau, dtype=float)
    if tau.shape != (params.n_controls,):
        raise ValueError(f"tau must have shape ({params.n_controls},)")
    q, qdot = _one_state(params, state.q, state.qdot)
    x, singular = _lane_accel(_FLOAT_LANES, c, q, qdot, (c.b_tau @ tau).tolist())
    if singular:
        raise SingularMatrix("inertia matrix lost positive definiteness")
    out = np.array(x)
    if not np.all(np.isfinite(out)):
        raise NonFiniteState(f"non-finite acceleration at t={state.t:.6g}")
    return out


def exact_control_matrix(params: ChainParams, q: np.ndarray) -> np.ndarray:
    """Torque-to-acceleration map D(q)^-1 B_tau (N x M)."""
    c = _chain_consts(params)
    terms = manipulator_terms(params, q, np.zeros(params.n_links))
    try:
        return np.linalg.solve(terms.D, c.b_tau)
    except np.linalg.LinAlgError as e:  # pragma: no cover - D is SPD by construction
        raise SingularMatrix(str(e)) from e


def step(params: ChainParams, state: State, tau: np.ndarray, dt: float) -> State:
    """Advance one fixed RK4 step with tau held constant (zero-order hold).

    ``state`` is one state, with q and qdot of shape (N,) and tau of shape
    (M,), or a batch of K states advanced in lockstep, with q and qdot of
    shape (K, N) and tau of shape (K, M). Each row of a batch comes out
    bit-equal to stepping it alone. Raises ValueError on any other shape
    and NonFiniteState if any row diverges.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    c = _chain_consts(params)
    tau = np.asarray(tau, dtype=float)
    q, qdot = state.q, state.qdot
    n = params.n_links
    if q.shape != qdot.shape or q.shape[-1:] != (n,) or q.ndim > 2 or not len(q):
        raise ValueError(
            f"q and qdot must share a shape ({n},) or (K, {n}); got {q.shape} and {qdot.shape}"
        )
    if q.ndim == 2 and len(q) > 1:
        if tau.shape != (len(q), params.n_controls):
            raise ValueError(f"tau must have shape ({len(q)}, {params.n_controls})")
        # Array lanes: integrate the (N, K) transposes, whose rows are lanes.
        ops = _ARRAY_LANES
        gen = list(c.b_tau @ tau.T)

        def deriv(q, qdot):
            return np.array(_lane_accel(ops, c, q, qdot, gen)[0])

        with np.errstate(all="ignore"):
            qn, vn = _rk4_step(ops, deriv, q.T, qdot.T, dt)
        qn, vn = qn.T, vn.T
    else:
        # Float lanes, also for a one-row batch; the solve returns a fresh
        # list, which is already a state vector of float lanes.
        ops = _FLOAT_LANES
        gen = (c.b_tau @ tau.reshape(-1)).tolist()

        def deriv(q, qdot):
            return _lane_accel(ops, c, q, qdot, gen)[0]

        qn, vn = _rk4_step(ops, deriv, q.reshape(-1).tolist(), qdot.reshape(-1).tolist(), dt)
    if not (ops.finite(qn) and ops.finite(vn)):
        raise NonFiniteState(f"integration diverged at t={state.t:.6g}")
    shape = state.q.shape
    return State(np.reshape(qn, shape), np.reshape(vn, shape), state.t + dt)


def energy(params: ChainParams, state: State) -> float:
    """Total mechanical energy; conserved on passive swings."""
    c = _chain_consts(params)
    terms = manipulator_terms(params, state.q, state.qdot)
    phi = np.cumsum(state.q)
    return 0.5 * state.qdot @ terms.D @ state.qdot + float(np.array(c.grav_w) @ np.cos(phi))
