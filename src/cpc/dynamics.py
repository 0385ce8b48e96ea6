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

import contextlib
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .errors import NonFiniteState, SingularMatrix


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
        if self.n_links < 1:
            raise ValueError("n_links must be >= 1")
        if self.segment_length <= 0 or self.capsule_radius <= 0 or self.density <= 0:
            raise ValueError("segment_length, capsule_radius, density must be positive")
        joints = tuple(int(j) for j in self.actuated_joints)
        if len(set(joints)) != len(joints):
            raise ValueError("actuated_joints must be distinct")
        if any(j < 0 or j >= self.n_links for j in joints):
            raise ValueError("actuated joint index out of range")
        object.__setattr__(self, "actuated_joints", joints)

    @property
    def n_controls(self) -> int:
        return len(self.actuated_joints)


def acrobot_params(gravity: float = 10.0) -> ChainParams:
    """Two-link chain with only the elbow joint actuated."""
    return ChainParams(n_links=2, actuated_joints=(1,), gravity=gravity)


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
    mass: float
    l_com: float


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
    return _ChainConsts(coef, grav_w, i_com, b_tau, mass, l_com)


def torque_distribution(params: ChainParams) -> np.ndarray:
    """The 0/1 selection matrix mapping motor torques to joint coordinates."""
    return _chain_consts(params).b_tau.copy()


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
# NaN or infinite input must come out as NaN terms, never as an exception or
# a numpy warning. math.sin/cos raise ValueError on +-inf, so float lanes
# catch it and return all-NaN terms; np.sin/cos return NaN, and ``step`` runs
# array lanes under np.errstate. The callers (accel, step, simulate) turn
# NaN outputs into NonFiniteState.
# ---------------------------------------------------------------------------


def _pivot_root(s):
    # math.sqrt raises on a negative pivot; a non-positive pivot (a failed
    # Cholesky test) gives NaN instead.
    return math.sqrt(s) if s > 0.0 else math.nan


class _LaneOps(NamedTuple):
    sin: Callable
    cos: Callable
    sqrt: Callable


_FLOAT_LANES = _LaneOps(math.sin, math.cos, _pivot_root)
_ARRAY_LANES = _LaneOps(np.sin, np.cos, np.sqrt)


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


# Integrators. ``deriv(t, q, qdot)`` returns the joint accelerations; each
# scheme returns the next (q, qdot).


def _rk4_step(deriv, t, q, qdot, dt):
    k1v = deriv(t, q, qdot)
    q2 = q + 0.5 * dt * qdot
    v2 = qdot + 0.5 * dt * k1v
    k2v = deriv(t + 0.5 * dt, q2, v2)
    q3 = q + 0.5 * dt * v2
    v3 = qdot + 0.5 * dt * k2v
    k3v = deriv(t + 0.5 * dt, q3, v3)
    q4 = q + dt * v3
    v4 = qdot + dt * k3v
    k4v = deriv(t + dt, q4, v4)
    qn = q + dt / 6.0 * (qdot + 2.0 * v2 + 2.0 * v3 + v4)
    vn = qdot + dt / 6.0 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
    return qn, vn


def _semi_euler_step(deriv, t, q, qdot, dt):
    vn = qdot + dt * deriv(t, q, qdot)
    qn = q + dt * vn
    return qn, vn


_INTEGRATORS = {"rk4": _rk4_step, "semi_euler": _semi_euler_step}


def _integrator(method: str):
    try:
        return _INTEGRATORS[method]
    except KeyError:
        raise ValueError(f"unknown method {method!r}") from None


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


def manipulator_terms(params: ChainParams, q: np.ndarray, qdot: np.ndarray) -> DynamicsTerms:
    """Inertia matrix D(q) and bias vector H(q, qdot) in relative coordinates.

    H collects Coriolis, centrifugal and gravity terms, so the equation of
    motion reads D qddot + H = B_tau tau. An angle that is NaN or infinite
    gives NaN in every entry of D and H.
    """
    c = _chain_consts(params)
    q = np.asarray(q, dtype=float)
    qdot = np.asarray(qdot, dtype=float)
    D, H = _lane_terms(_FLOAT_LANES, c, q.tolist(), qdot.tolist())
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
    x, singular = _lane_accel(
        _FLOAT_LANES, c, state.q.tolist(), state.qdot.tolist(), (c.b_tau @ tau).tolist()
    )
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


def step(params: ChainParams, state: State, tau: np.ndarray, dt: float, method: str = "rk4") -> State:
    """Advance one fixed step with tau held constant (zero-order hold).

    ``state`` is one state, with q and qdot of shape (N,) and tau of shape
    (M,), or a batch of K states advanced in lockstep, with q and qdot of
    shape (K, N) and tau of shape (K, M). Each row of a batch comes out
    bit-equal to stepping it alone. Raises NonFiniteState if any row
    diverges.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    integrate = _integrator(method)
    c = _chain_consts(params)
    tau = np.asarray(tau, dtype=float)
    q, qdot = state.q, state.qdot
    if q.ndim == 2 and len(q) > 1:
        if tau.shape != (len(q), params.n_controls):
            raise ValueError(f"tau must have shape ({len(q)}, {params.n_controls})")
        # Array lanes: integrate the (N, K) transposes, whose rows are lanes.
        ops, lanes, quiet = _ARRAY_LANES, list, np.errstate(all="ignore")
        q, qdot, gen = q.T, qdot.T, c.b_tau @ tau.T
    else:
        # Float lanes, also for a one-row batch.
        ops, lanes, quiet = _FLOAT_LANES, np.ndarray.tolist, contextlib.nullcontext()
        q, qdot, gen = q.reshape(-1), qdot.reshape(-1), c.b_tau @ tau.reshape(-1)
    gen = lanes(gen)

    def deriv(t, q, qdot):
        return np.array(_lane_accel(ops, c, lanes(q), lanes(qdot), gen)[0])

    with quiet:
        qn, vn = integrate(deriv, state.t, q, qdot, dt)
    if not (np.all(np.isfinite(qn)) and np.all(np.isfinite(vn))):
        raise NonFiniteState(f"integration diverged at t={state.t:.6g}")
    shape = state.q.shape
    return State(qn.T.reshape(shape), vn.T.reshape(shape), state.t + dt)


def simulate(
    params: ChainParams,
    state: State,
    tau_fn: Callable[[float, np.ndarray, np.ndarray], np.ndarray],
    dt: float,
    n_steps: int,
    method: str = "rk4",
) -> list[State]:
    """Closed-loop rollout of one state with ``tau_fn(t, q, qdot)`` sampled
    continuously.

    Unlike ``step``, the feedback law is re-evaluated at every integrator
    stage, so smooth feedback laws integrate at full RK4 order. Returns the
    trajectory including the initial state.
    """
    integrate = _integrator(method)
    c = _chain_consts(params)

    def deriv(t, q, qdot):
        gen = c.b_tau @ np.asarray(tau_fn(t, q, qdot), dtype=float)
        return np.array(_lane_accel(_FLOAT_LANES, c, q.tolist(), qdot.tolist(), gen.tolist())[0])

    out = [state]
    q, qdot, t = state.q.copy(), state.qdot.copy(), state.t
    for _ in range(n_steps):
        q, qdot = integrate(deriv, t, q, qdot, dt)
        t += dt
        if not (np.all(np.isfinite(q)) and np.all(np.isfinite(qdot))):
            raise NonFiniteState(f"integration diverged at t={t:.6g}")
        out.append(State(q.copy(), qdot.copy(), t))
    return out


def energy(params: ChainParams, state: State) -> float:
    """Total mechanical energy; conserved on passive swings."""
    c = _chain_consts(params)
    terms = manipulator_terms(params, state.q, state.qdot)
    phi = np.cumsum(state.q)
    return 0.5 * state.qdot @ terms.D @ state.qdot + float(np.array(c.grav_w) @ np.cos(phi))


def link_angles(q: np.ndarray) -> np.ndarray:
    """Absolute link angles from vertical-up (cumulative sum of q)."""
    return np.cumsum(np.asarray(q, dtype=float))
