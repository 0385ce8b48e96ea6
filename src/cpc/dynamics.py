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

from .errors import NonFiniteState


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
    """Geometry, inertia and actuation layout of the chain. Raises
    ValueError for a bad layout or value, and for a chain whose constants
    overflow (see the kernel comment)."""

    n_links: int = 2
    segment_length: float = 1.0
    capsule_radius: float = 0.1
    density: float = 1.0
    gravity: float = 10.0
    actuated_joints: tuple[int, ...] = (1,)

    def __post_init__(self):
        n, joints = _chain_layout(self.n_links, self.actuated_joints, ValueError)
        if not all(
            math.isfinite(v)
            for v in (self.segment_length, self.capsule_radius, self.density, self.gravity)
        ):
            raise ValueError("segment_length, capsule_radius, density and gravity must be finite")
        if self.segment_length <= 0 or self.capsule_radius <= 0 or self.density <= 0:
            raise ValueError("segment_length, capsule_radius, density must be positive")
        object.__setattr__(self, "n_links", n)
        object.__setattr__(self, "actuated_joints", joints)
        _chain_consts(self)  # raises if the chain's constants overflow

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
    # mix in numpy scalars, and the tracer writes them into its source.
    coef: tuple  # N rows of N cos/sin coupling coefficients
    grav_w: tuple  # N gravity weights m g (l_com + links above * L)
    i_cap: float  # per-link capsule inertia about its com
    # The traced kernel of this chain, accel(sin, cos, sqrt, q, qdot, gen)
    # -> the N lanes of the joint accelerations; see _trace_accel.
    accel: Callable


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
    diag = [coef[j][j] + i_com for j in range(n)]
    if not all(map(math.isfinite, [i_com, *grav_w, *diag, *(x for row in coef for x in row)])):
        raise ValueError("the chain's masses, inertias and gravity weights must be finite")
    c = _ChainConsts(coef, grav_w, i_com, None)
    return c._replace(accel=_trace_accel(c))


# ---------------------------------------------------------------------------
# Kernel. The manipulator terms are formed in absolute link angles (where
# the planar-chain closed form is a plain cos/sin coupling) and then
# transformed to relative coordinates with the constant lower-triangular map
# phi = T q, giving D_q = T' D_phi T and H_q = T' (h_phi + g_phi).
#
# ``_lane_terms`` and ``_lane_solve`` are the one statement of the dynamics.
# They run over lanes: a lane list holds the N per-coordinate values of a
# state, Python floats for one state or (K,) arrays for K states in
# lockstep. Both lane types execute the same statements in the same order,
# so a row of a batch comes out bit-equal to the same state run alone,
# provided numpy's float64 sin/cos return the same bits as math.sin/cos
# (they do with numpy 2.4 on x86-64; the batched-step tests check it). No
# statement updates a lane in place (no +=), because an array lane may be a
# view of the caller's state.
#
# ``_lane_terms`` forms each pair of links once. Against forming all N^2
# ordered pairs it makes two rewrites, both exact on finite lanes:
#
# - A self pair (k == j) has the angle difference +0. Since cos(+0) = 1 and
#   sin(+0) = +0, its D term is the chain constant coef[j][j] (added to
#   i_cap once, when the chain is traced) and its h term adds +0 to an
#   accumulator that starts at +0.0, which a sum never turns into -0.0.
# - A mirrored pair (k < j) has the difference phi_j - phi_k, which is
#   exactly -(phi_k - phi_j). Since cos is even and sin odd, bit for bit in
#   libm and in numpy (a test pins both), D[j][k] is D[k][j], and its h term
#   subtracts the product of the pair's stored coef sin(phi_k - phi_j)
#   instead of adding a new one (in IEEE arithmetic x - y is x + (-y)).
#
# ``step`` does not run the kernel itself, whose cost at small N is mostly
# the interpreter walking its loops. Once per chain, ``_chain_consts`` runs
# it on symbolic lanes (``_Sym``): every arithmetic operation and
# sin/cos/sqrt records one assignment line, and the lines are compiled into
# one straight-line function. That function then runs on float or array
# lanes. It performs the kernel's IEEE operations on the same operands in
# the same order, and each chain constant is written as ``repr(float)``,
# which reads back as the same double, so every output bit equals the
# kernel's. Only the pair rewrites above leave operations out, and the tape
# records each expression once: a repeat of an operation on the same
# operands reuses the first symbol, which holds the same bits. The tracer
# folds and reorders nothing (``0.0 + q0`` stays, since it turns a -0.0
# angle into +0.0).
# ``manipulator_terms`` still runs the kernel, and the tests compare the
# trace against it and against the all-pairs form.
#
# The RK4 step integrates the first-order state y = (q, qdot), whose
# derivative is (qdot, qddot), with one pair of state operations for both
# lane types: ``_stage`` forms y + h*f and ``_combine`` forms
# y + (dt/6)*(((f1 + 2f2) + 2f3) + f4), entry by entry of y. On float
# lanes y is one list of 2N Python floats, the N angles and then the N
# velocities, and a derivative is the velocity half of y joined to the
# kernel's fresh list; one state stays on float lanes from the first stage
# to the last, as ``step`` converts it from numpy once on the way in and
# once on the way out. On array lanes y is the pair of (N, K) arrays, so
# each entry is a whole array and the same expressions run as whole-array
# ufuncs. Either way each value of y gets the operations, in the same
# order, that integrating q and qdot as two vectors gives it
# (``q + (0.5*dt)*qdot``, ``qdot + (0.5*dt)*k1``, and so on), so the lane
# types agree bit for bit. A lane type is its numeric namespace: ``math``
# for float lanes, ``numpy`` for array lanes and ``_Tape`` for symbolic ones
# each give ``_lane_terms``, ``_lane_solve`` and the traced kernel their
# sin/cos/sqrt. ``_dot`` is the one dot product of lanes, for the control
# cycle's regression, norms, costs and projections.
#
# Bad values are checked in ``ChainParams`` and ``step`` only; the kernel
# and its trace are straight-line arithmetic. ``ChainParams`` rejects a
# chain whose coef, grav_w, i_cap or coef[j][j] + i_cap is not finite, so
# the tracer writes only finite literals. ``step`` raises NonFiniteState for
# a NaN or infinite torque, and for a state that does not stay finite. On
# array lanes (under np.errstate) a bad value comes out as NaN or inf. On
# float lanes NaN does too, but math.sin/cos of +-inf and math.sqrt of a
# negative pivot raise ValueError, and a zero pivot ZeroDivisionError, which
# ``step`` turns into the same NonFiniteState. The pair rewrites leave the
# last diagonal entry of D a constant and a single link's velocity out of
# its terms (it reaches ``step``'s new state through ``q + h*qdot``), so
# ``manipulator_terms`` gives all-NaN terms itself for a NaN or infinite
# angle or a ValueError. ``_generalized_forces`` is the one statement of
# which joints the torques act on: ``step`` and ``exact_control_matrix``
# both take it, and only the tests form the 0/1 matrix B_tau.
# ---------------------------------------------------------------------------


def _stage(y, h, f):
    return [yi + h * fi for yi, fi in zip(y, f)]


def _combine(y, w, f1, f2, f3, f4):
    return [
        yi + w * (((a + 2.0 * b) + 2.0 * c) + d) for yi, a, b, c, d in zip(y, f1, f2, f3, f4)
    ]


def _dot(x, y):
    """Dot product of two sequences of lanes, floats or arrays, summed left
    to right from the first product; 0.0 for empty sequences. Builtin sum
    compensates its rounding from Python 3.12 on, and starting from 0.0
    would only turn an all-zero sum of -0.0 products into +0.0, at the cost
    of one more add."""
    products = map(operator.mul, x, y)
    s = next(products, 0.0)
    for p in products:
        s = s + p
    return s


def _lane_terms(ops, c, q, qdot):
    """Inertia matrix D (N lists of N lanes) and bias H (N lanes); ``ops``
    is the lanes' namespace (``math``, ``numpy`` or a ``_Tape``)."""
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
    # coef[j][k] sin(phi_j - phi_k) of each pair j < k, for row k.
    pair_sin = {}
    for j in range(n):
        pj = phi[j]
        coef = c.coef[j]
        row = []
        s = 0.0
        for k in range(n):
            if k < j:
                # The mirrored pair: coef is symmetric, cos even, sin odd.
                row.append(D[k][j])
                s = s - pair_sin[k, j] * phidot[k] * phidot[k]
            elif k == j:
                # cos(+0) = 1; the h term, +0 times a square, is dropped.
                row.append(coef[j] + c.i_cap)
            else:
                djk = pj - phi[k]
                row.append(coef[k] * ops.cos(djk))
                pair_sin[j, k] = coef[k] * ops.sin(djk)
                s = s + pair_sin[j, k] * phidot[k] * phidot[k]
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


def _lane_solve(ops, D, rhss):
    """Cholesky solves of a small SPD matrix over lanes, reading only its
    lower triangle: D is factored once, and a list holds the N lanes of x
    with D x = rhs for each rhs in ``rhss``. On float lanes a negative pivot
    raises ValueError and a zero one ZeroDivisionError; on array lanes
    either gives NaN or inf."""
    n = len(D)
    L = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            s = D[i][j]
            for k in range(j):
                s = s - L[i][k] * L[j][k]
            if i == j:
                L[i][i] = ops.sqrt(s)
            else:
                L[i][j] = s / L[j][j]
    xs = []
    for rhs in rhss:
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
        xs.append(x)
    return xs


class _Sym:
    """A symbolic lane: the name of one value of the traced program. Each
    operator records one assignment on the tape and returns its symbol; the
    operand order is kept, so a reflected operation is written reflected."""

    __slots__ = ("tape", "name")

    def __init__(self, tape, name):
        self.tape = tape
        self.name = name

    def __bool__(self):
        raise TypeError("the traced kernel cannot branch on a lane value")

    def __add__(self, other):
        return self.tape.binary(self, "+", other)

    def __radd__(self, other):
        return self.tape.binary(other, "+", self)

    def __sub__(self, other):
        return self.tape.binary(self, "-", other)

    def __rsub__(self, other):
        return self.tape.binary(other, "-", self)

    def __mul__(self, other):
        return self.tape.binary(self, "*", other)

    def __rmul__(self, other):
        return self.tape.binary(other, "*", self)

    def __truediv__(self, other):
        return self.tape.binary(self, "/", other)


class _Tape:
    """The lane operations of symbolic lanes: the assignment lines that
    ``_Sym`` operators and ``sin``/``cos``/``sqrt`` record, in program
    order, each right-hand side once."""

    def __init__(self):
        self.lines = []
        self.symbols = {}  # right-hand side -> the symbol assigned it

    def operand(self, x) -> str:
        if isinstance(x, _Sym):
            return x.name
        if type(x) is float and math.isfinite(x):
            return repr(x)
        raise TypeError(f"the traced kernel takes finite Python floats, not {x!r}")

    def assign(self, expr: str) -> _Sym:
        if expr not in self.symbols:
            name = f"t{len(self.lines)}"
            self.lines.append(f"{name} = {expr}")
            self.symbols[expr] = _Sym(self, name)
        return self.symbols[expr]

    def binary(self, a, op: str, b) -> _Sym:
        return self.assign(f"{self.operand(a)} {op} {self.operand(b)}")

    def sin(self, a):
        return self.assign(f"sin({self.operand(a)})")

    def cos(self, a):
        return self.assign(f"cos({self.operand(a)})")

    def sqrt(self, a):
        return self.assign(f"sqrt({self.operand(a)})")


def _trace_accel(c: _ChainConsts) -> Callable:
    """``_lane_terms`` and ``_lane_solve`` of the chain ``c``, traced into
    ``accel(sin, cos, sqrt, q, qdot, gen) -> x``: the N lanes of the joint
    accelerations under generalized forces ``gen``, in a fresh list. q,
    qdot and gen are N lanes each, float or array, and sin, cos, sqrt the
    lane type's (``math`` or ``numpy``). On float lanes it raises where the
    kernel raises."""
    n = len(c.coef)
    tape = _Tape()
    q, qdot, gen = ([_Sym(tape, f"{v}{i}") for i in range(n)] for v in ("q", "qd", "g"))
    D, H = _lane_terms(tape, c, q, qdot)
    (x,) = _lane_solve(tape, D, [[g - h for g, h in zip(gen, H)]])

    def names(lanes):
        return ", ".join(tape.operand(v) for v in lanes)

    src = "\n".join(
        [
            "def accel(sin, cos, sqrt, q, qdot, gen):",
            f"    {names(q)}, = q",
            f"    {names(qdot)}, = qdot",
            f"    {names(gen)}, = gen",
            *(f"    {line}" for line in tape.lines),
            f"    return [{names(x)}]",
        ]
    )
    namespace = {}
    exec(compile(src, f"<traced accel, N={n}>", "exec"), namespace)
    return namespace["accel"]


def _rk4_step(deriv, y, dt):
    """The state after one classical RK4 step of the autonomous first-order
    system y' = deriv(y), on float or array lanes (see the kernel comment)."""
    h = 0.5 * dt
    f1 = deriv(y)
    f2 = deriv(_stage(y, h, f1))
    f3 = deriv(_stage(y, h, f2))
    f4 = deriv(_stage(y, dt, f3))
    return _combine(y, dt / 6.0, f1, f2, f3, f4)


def _generalized_forces(params: ChainParams, tau) -> list:
    """The N lanes of B_tau tau from the M lanes of tau: 0.0 on an
    unactuated joint and 0.0 + tau on an actuated one, the bits of the 0/1
    selection matmul (it turns a -0.0 torque into 0.0)."""
    gen = [0.0] * params.n_links
    for j, t in zip(params.actuated_joints, tau):
        gen[j] = 0.0 + t
    return gen


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


def manipulator_terms(params: ChainParams, q: np.ndarray, qdot: np.ndarray) -> DynamicsTerms:
    """Inertia matrix D(q) and bias vector H(q, qdot) in relative coordinates.

    H collects Coriolis, centrifugal and gravity terms, so the equation of
    motion reads D qddot + H = B_tau tau. An angle that is NaN or infinite,
    or angles whose sums or differences overflow, give NaN in every entry
    of D and H. A batch or a wrong size raises ValueError.
    """
    q = np.asarray(q, dtype=float)
    qdot = np.asarray(qdot, dtype=float)
    n = params.n_links
    if q.shape != (n,) or qdot.shape != (n,):
        raise ValueError(
            f"takes one state, with q and qdot of shape ({n},); "
            f"got {q.shape} and {qdot.shape}"
        )
    q, qdot = q.tolist(), qdot.tolist()
    if all(map(math.isfinite, q)):
        try:
            D, H = _lane_terms(math, _chain_consts(params), q, qdot)
        except ValueError:
            pass
        else:
            return DynamicsTerms(np.array(D), np.array(H))
    return DynamicsTerms(np.full((n, n), np.nan), np.full(n, np.nan))


def exact_control_matrix(params: ChainParams, q: np.ndarray) -> np.ndarray:
    """Torque-to-acceleration map D(q)^-1 B_tau (N x M), one Cholesky solve
    per actuator on the generalized forces of its unit torque; NaN in every
    entry for a NaN or infinite angle."""
    D = manipulator_terms(params, q, np.zeros(params.n_links)).D.tolist()
    units = np.eye(params.n_controls).tolist()
    return np.array(_lane_solve(math, D, [_generalized_forces(params, e) for e in units])).T


def step(params: ChainParams, state: State, tau: np.ndarray, dt: float) -> State:
    """Advance one fixed RK4 step with tau held constant (zero-order hold).

    ``state`` is one state, with q and qdot of shape (N,) and tau of shape
    (M,), or a batch of K states advanced in lockstep, with q and qdot of
    shape (K, N) and tau of shape (K, M). Each row of a batch comes out
    bit-equal to stepping it alone. Raises ValueError on any other shape
    or unless dt is positive and finite, and NonFiniteState if a torque is
    not finite or any row does not stay finite (see the kernel comment).
    """
    if not 0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    c = _chain_consts(params)
    tau = np.asarray(tau, dtype=float)
    q, qdot = state.q, state.qdot
    n = params.n_links
    if q.shape != qdot.shape or q.shape[-1:] != (n,) or q.ndim > 2 or not len(q):
        raise ValueError(
            f"q and qdot must share a shape ({n},) or (K, {n}); got {q.shape} and {qdot.shape}"
        )
    tau_shape = q.shape[:-1] + (params.n_controls,)
    if tau.shape != tau_shape:
        raise ValueError(f"tau must have shape {tau_shape}")
    if not all(map(math.isfinite, tau.ravel().tolist())):
        raise NonFiniteState(f"non-finite torque at t={state.t:.6g}")
    kernel = c.accel
    if q.ndim == 2 and len(q) > 1:
        # Array lanes: a state is the pair of (N, K) transposes, whose rows
        # are lanes.
        sin, cos, sqrt = np.sin, np.cos, np.sqrt
        gen = _generalized_forces(params, tau.T)

        def deriv(y):
            return y[1], np.array(kernel(sin, cos, sqrt, y[0], y[1], gen))

        with np.errstate(all="ignore"):
            q, qdot = _rk4_step(deriv, (q.T, qdot.T), dt)
        if not (np.isfinite(q).all() and np.isfinite(qdot).all()):
            raise NonFiniteState(f"integration diverged at t={state.t:.6g}")
        return State(q.T, qdot.T, state.t + dt)
    # Float lanes, also for a one-row batch: a state is one list of the N
    # angles and then the N velocities, and the traced kernel returns a
    # fresh list, which the velocities are joined to.
    sin, cos, sqrt = math.sin, math.cos, math.sqrt
    gen = _generalized_forces(params, tau.reshape(-1).tolist())

    def deriv(y):
        v = y[n:]
        return v + kernel(sin, cos, sqrt, y[:n], v, gen)

    try:
        y = _rk4_step(deriv, q.reshape(-1).tolist() + qdot.reshape(-1).tolist(), dt)
    except (ValueError, ZeroDivisionError) as e:
        raise NonFiniteState(f"integration diverged at t={state.t:.6g}") from e
    if not all(map(math.isfinite, y)):
        raise NonFiniteState(f"integration diverged at t={state.t:.6g}")
    # One array per vector; ndmin keeps the (1, N) shape of a one-row batch.
    return State(np.array(y[:n], ndmin=q.ndim), np.array(y[n:], ndmin=q.ndim), state.t + dt)
