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
"""

import math
from dataclasses import dataclass, field
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
    """Configuration, velocity and time of the chain."""

    q: np.ndarray
    qdot: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        self.q = np.asarray(self.q, dtype=float)
        self.qdot = np.asarray(self.qdot, dtype=float)

    @property
    def x(self) -> np.ndarray:
        """Stacked state vector [q; qdot]."""
        return np.concatenate([self.q, self.qdot])


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
    coef: np.ndarray  # (N, N) cos/sin coupling coefficients
    grav_w: np.ndarray  # (N,) gravity weights m g (l_com + links above * L)
    i_cap: float  # per-link capsule inertia about its com
    b_tau: np.ndarray  # (N, M) torque distribution selection
    mass: float
    l_com: float


@lru_cache(maxsize=32)
def _chain_consts(params: ChainParams) -> _ChainConsts:
    n = params.n_links
    L = params.segment_length
    mass, l_com, i_com = capsule_mass_props(L, params.capsule_radius, params.density)
    coef = np.empty((n, n))
    for j in range(n):
        for k in range(n):
            hi = max(j, k)
            if j == k:
                coef[j, k] = mass * (l_com * l_com + (n - 1 - hi) * L * L)
            else:
                coef[j, k] = mass * (l_com * L + (n - 1 - hi) * L * L)
    grav_w = np.array([mass * params.gravity * (l_com + (n - 1 - j) * L) for j in range(n)])
    b_tau = np.zeros((n, params.n_controls))
    for col, j in enumerate(params.actuated_joints):
        b_tau[j, col] = 1.0
    return _ChainConsts(coef, grav_w, i_com, b_tau, mass, l_com)


def torque_distribution(params: ChainParams) -> np.ndarray:
    """The 0/1 selection matrix mapping motor torques to joint coordinates."""
    return _chain_consts(params).b_tau.copy()


# ---------------------------------------------------------------------------
# Kernels. The manipulator terms are formed in absolute link angles (where
# the planar-chain closed form is a plain cos/sin coupling) and then
# transformed to relative coordinates with the constant lower-triangular map
# phi = T q, giving D_q = T' D_phi T and H_q = T' (h_phi + g_phi).
# ---------------------------------------------------------------------------


def _terms_rel(q, qdot, coef, grav_w, i_cap, D_out, H_out):
    n = q.shape[0]
    phi = np.empty(n)
    phidot = np.empty(n)
    acc_q = 0.0
    acc_qd = 0.0
    for i in range(n):
        acc_q += q[i]
        acc_qd += qdot[i]
        phi[i] = acc_q
        phidot[i] = acc_qd
    d_phi = np.empty((n, n))
    h_phi = np.empty(n)
    for j in range(n):
        pj = phi[j]
        s = 0.0
        for k in range(n):
            djk = pj - phi[k]
            # NaN or infinite input must come out as NaN terms, never as an
            # exception: math.sin/cos raise ValueError on +-inf, so the
            # argument is checked first and NaN written instead. The callers
            # (accel, step, simulate) turn NaN outputs into NonFiniteState.
            # At k == j, djk is NaN unless phi[j] is finite, so this also
            # guards sin(phi[j]) below.
            if not math.isfinite(djk):
                D_out[:] = np.nan
                H_out[:] = np.nan
                return
            d_phi[j, k] = coef[j, k] * math.cos(djk)
            s += coef[j, k] * math.sin(djk) * phidot[k] * phidot[k]
        d_phi[j, j] += i_cap
        h_phi[j] = s - grav_w[j] * math.sin(pj)
    # Suffix sums implement the congruence with the lower-ones matrix.
    for j in range(n - 1, -1, -1):
        for k in range(n - 1, -1, -1):
            v = d_phi[j, k]
            if j + 1 < n:
                v += D_out[j + 1, k]
            if k + 1 < n:
                v += D_out[j, k + 1]
            if j + 1 < n and k + 1 < n:
                v -= D_out[j + 1, k + 1]
            D_out[j, k] = v
    acc = 0.0
    for j in range(n - 1, -1, -1):
        acc += h_phi[j]
        H_out[j] = acc


def _spd_solve(D, rhs):
    """Cholesky solve for the small SPD inertia matrix; returns (x, ok)."""
    n = D.shape[0]
    L = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1):
            s = D[i, j]
            for k in range(j):
                s -= L[i, k] * L[j, k]
            if i == j:
                if s <= 0.0:
                    return np.zeros(n), False
                L[i, i] = math.sqrt(s)
            else:
                L[i, j] = s / L[j, j]
    x = np.empty(n)
    for i in range(n):
        s = rhs[i]
        for k in range(i):
            s -= L[i, k] * x[k]
        x[i] = s / L[i, i]
    for i in range(n - 1, -1, -1):
        s = x[i]
        for k in range(i + 1, n):
            s -= L[k, i] * x[k]
        x[i] = s / L[i, i]
    return x, True


def _accel_gen(q, qdot, gen_force, coef, grav_w, i_cap):
    """Acceleration under a generalized force already mapped to joint space."""
    n = q.shape[0]
    D = np.empty((n, n))
    H = np.empty(n)
    _terms_rel(q, qdot, coef, grav_w, i_cap, D, H)
    x, ok = _spd_solve(D, gen_force - H)
    if not ok:
        x = np.full(n, np.nan)
    return x


def _rk4_step(q, qdot, gen_force, dt, coef, grav_w, i_cap):
    k1v = _accel_gen(q, qdot, gen_force, coef, grav_w, i_cap)
    q2 = q + 0.5 * dt * qdot
    v2 = qdot + 0.5 * dt * k1v
    k2v = _accel_gen(q2, v2, gen_force, coef, grav_w, i_cap)
    q3 = q + 0.5 * dt * v2
    v3 = qdot + 0.5 * dt * k2v
    k3v = _accel_gen(q3, v3, gen_force, coef, grav_w, i_cap)
    q4 = q + dt * v3
    v4 = qdot + dt * k3v
    k4v = _accel_gen(q4, v4, gen_force, coef, grav_w, i_cap)
    qn = q + dt / 6.0 * (qdot + 2.0 * v2 + 2.0 * v3 + v4)
    vn = qdot + dt / 6.0 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
    return qn, vn


def _semi_euler_step(q, qdot, gen_force, dt, coef, grav_w, i_cap):
    a = _accel_gen(q, qdot, gen_force, coef, grav_w, i_cap)
    vn = qdot + dt * a
    qn = q + dt * vn
    return qn, vn


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
    n = params.n_links
    q = np.asarray(q, dtype=float)
    qdot = np.asarray(qdot, dtype=float)
    D = np.empty((n, n))
    H = np.empty(n)
    _terms_rel(q, qdot, c.coef, c.grav_w, c.i_cap, D, H)
    return DynamicsTerms(D, H)


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
    terms = manipulator_terms(params, state.q, state.qdot)
    # NaN terms pass the Cholesky test (NaN <= 0 is false), so ok is false
    # only when a finite inertia matrix fails it.
    out, ok = _spd_solve(terms.D, c.b_tau @ tau - terms.H)
    if not ok:
        raise SingularMatrix("inertia matrix lost positive definiteness")
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
    """Advance one fixed step with tau held constant (zero-order hold)."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    c = _chain_consts(params)
    tau = np.asarray(tau, dtype=float)
    gen = c.b_tau @ tau
    if method == "rk4":
        qn, vn = _rk4_step(state.q, state.qdot, gen, dt, c.coef, c.grav_w, c.i_cap)
    elif method == "semi_euler":
        qn, vn = _semi_euler_step(state.q, state.qdot, gen, dt, c.coef, c.grav_w, c.i_cap)
    else:
        raise ValueError(f"unknown method {method!r}")
    if not (np.all(np.isfinite(qn)) and np.all(np.isfinite(vn))):
        raise NonFiniteState(f"integration diverged at t={state.t:.6g}")
    return State(qn, vn, state.t + dt)


def simulate(
    params: ChainParams,
    state: State,
    tau_fn: Callable[[float, np.ndarray, np.ndarray], np.ndarray],
    dt: float,
    n_steps: int,
    method: str = "rk4",
) -> list[State]:
    """Closed-loop rollout with ``tau_fn(t, q, qdot)`` sampled continuously.

    Unlike ``step``, the feedback law is re-evaluated at every integrator
    stage, so smooth feedback laws integrate at full RK4 order. Returns the
    trajectory including the initial state.
    """
    c = _chain_consts(params)

    def deriv(t, q, qdot):
        gen = c.b_tau @ np.asarray(tau_fn(t, q, qdot), dtype=float)
        return _accel_gen(q, qdot, gen, c.coef, c.grav_w, c.i_cap)

    out = [state]
    q, qdot, t = state.q.copy(), state.qdot.copy(), state.t
    for _ in range(n_steps):
        if method == "rk4":
            k1v = deriv(t, q, qdot)
            v2 = qdot + 0.5 * dt * k1v
            k2v = deriv(t + 0.5 * dt, q + 0.5 * dt * qdot, v2)
            v3 = qdot + 0.5 * dt * k2v
            k3v = deriv(t + 0.5 * dt, q + 0.5 * dt * v2, v3)
            v4 = qdot + dt * k3v
            k4v = deriv(t + dt, q + dt * v3, v4)
            q = q + dt / 6.0 * (qdot + 2.0 * v2 + 2.0 * v3 + v4)
            qdot = qdot + dt / 6.0 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        elif method == "semi_euler":
            qdot = qdot + dt * deriv(t, q, qdot)
            q = q + dt * qdot
        else:
            raise ValueError(f"unknown method {method!r}")
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
    return 0.5 * state.qdot @ terms.D @ state.qdot + float(c.grav_w @ np.cos(phi))


def link_angles(q: np.ndarray) -> np.ndarray:
    """Absolute link angles from vertical-up (cumulative sum of q)."""
    return np.cumsum(np.asarray(q, dtype=float))
