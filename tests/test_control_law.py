import numpy as np
import pytest

from cpc.control_law import (
    CoordSplit,
    GainSpec,
    cpc_tau,
    estimate_control_matrix,
    renormalized_target,
    reparam_params,
    split_coordinates,
    target_errors,
)
from cpc.dynamics import (
    ChainParams,
    State,
    acrobot_params,
    exact_control_matrix,
    step,
)
from cpc.errors import (
    RankDeficient,
    SingularMatrix,
    VelocityBarDegenerate,
)
from cpc.target_store import NonEmptyStore, TargetStore, _query_arrays
from oracles import (
    cpc_tau_lapack,
    one_target,
    one_target_tau,
    split_blocks_lapack,
    split_coordinates_numpy,
    target_errors_full_width,
)


# ---------------------------------------------------------------------------
# split_coordinates / CoordSplit
# ---------------------------------------------------------------------------


def test_split_prefers_larger_row():
    assert split_coordinates(np.array([[1.0], [0.5]])).controlled == (0,)
    assert split_coordinates(np.array([[0.0], [1.0]])).controlled == (1,)


def test_split_rank_deficient():
    with pytest.raises(RankDeficient):
        split_coordinates(np.zeros((3, 1)))
    with pytest.raises(RankDeficient):
        split_coordinates(np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]]))


def test_split_hand_rows_checked():
    # Near-singular block: a 3-link chain's row 1 replaced by a rounded copy
    # of row 0. LAPACK solves it without complaint (the path law gives
    # torques near 1e15), so the split must refuse it. The zero-row case is
    # test_candidate_costs_singular_block_raises.
    params = ChainParams(n_links=3, actuated_joints=(1, 2))
    B = exact_control_matrix(params, np.array([0.1, -0.2, 0.3]))
    B[1] = B[0] * 0.1 * 10
    with pytest.raises((SingularMatrix, RankDeficient)):
        CoordSplit(B, (0, 1))


def test_split_hand_rows_validated():
    B = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    split = CoordSplit(B, (2, 0))
    assert (split.controlled, split.free) == ((0, 2), (1,))
    assert CoordSplit(B, (1, 0)) == split_coordinates(B)
    for rows in ((0,), (0, 0), (0, 3)):
        with pytest.raises(ValueError):
            CoordSplit(B, rows)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("row", [0, 1])
def test_split_non_finite_raises_singular(bad, row):
    B = np.array([[1.0], [0.5]])
    B[row, 0] = bad
    with pytest.raises(SingularMatrix):
        split_coordinates(B)
    # A non-finite entry in the controlled row or in a free row alike.
    for controlled in ((0,), (1,)):
        with pytest.raises(SingularMatrix):
            CoordSplit(B, controlled)


def _outcome(fn, *args):
    """The bytes and shapes a split or torque function returns, or the type
    of the exception it raises."""
    try:
        with np.errstate(all="ignore"):
            out = fn(*args)
    except (ValueError, RankDeficient, SingularMatrix) as e:
        return type(e)
    if isinstance(out, CoordSplit):
        out = (out.controlled, out.b_chi, out.b)
    elif not isinstance(out, tuple):
        out = (out,)
    return tuple((a.shape, a.tobytes()) if isinstance(a, np.ndarray) else a for a in out)


def _control_matrices(rng):
    """Random B of every shape N <= 5, M <= N, with magnitudes from 1e-300
    to 1e300, entries near 1e308 mixed with O(1) ones (the elimination
    overflows to inf and then NaN, which np.argmax picks first), integer
    entries (exact ties and cancellations), duplicated and negated rows,
    zero, NaN and inf entries, and three malformed shapes."""
    for n in range(1, 6):
        for m in range(1, n + 1):
            for _ in range(60):
                B = rng.normal(size=(n, m)) * 10.0 ** float(rng.choice([0, 0, -300, -150, 150, 300]))
                yield B
                yield rng.uniform(-1.7, 1.7, size=(n, m)) * 10.0 ** rng.choice([0.0, 308.0], (n, m))
                yield rng.integers(-2, 3, size=(n, m)).astype(float)
                if n > 1:
                    i, j = rng.choice(n, size=2, replace=False)
                    C = B.copy()
                    C[j] = C[i] * rng.choice([1.0, -1.0])
                    yield C
            bad = rng.normal(size=(n, m))
            bad.flat[int(rng.integers(bad.size))] = rng.choice([np.nan, np.inf, -np.inf])
            yield bad
            yield np.zeros((n, m))
    # The first elimination overflows rows 2 and 3 to inf in column 1; row 2
    # becomes the pivot, which turns row 3 into NaN and leaves row 1 at 5 in
    # column 2. np.argmax then picks the NaN row over the larger finite one.
    h = 1.5e308
    yield np.array([[h, -h, -h], [0.0, 2.0, 5.0], [h, h, 0.0], [h, h, 0.0]])
    yield np.ones((2, 3))
    yield np.ones((2, 0))
    yield np.ones((1, 1, 1))


def test_split_matches_numpy_pivot(rng):
    # The elimination on Python floats picks the same rows and gives the
    # same blocks, to the byte, as the same elimination on numpy rows, or
    # raises the same exception.
    raised = set()
    for B in _control_matrices(rng):
        want = _outcome(split_coordinates_numpy, B)
        assert _outcome(split_coordinates, B) == want, B
        if isinstance(want, type):
            raised.add(want)
    assert raised == {ValueError, RankDeficient, SingularMatrix}


@pytest.mark.parametrize("n", [2, 3], ids=["one_free_row", "two_free_rows"])
def test_one_actuator_forms_match_lapack(rng, n):
    # At M = 1 the split checks the 1 x 1 block without an SVD and the path
    # law divides instead of solving; both must give LAPACK's bits.
    for _ in range(2000):
        B = rng.normal(size=(n, 1)) * 10.0 ** float(rng.integers(-300, 301))
        row = int(rng.integers(n))
        if rng.random() < 0.05:
            B[row, 0] = 0.0
        want = _outcome(split_blocks_lapack, B, (row,))
        got = _outcome(CoordSplit, B, (row,))
        assert got == (want if isinstance(want, type) else ((row,),) + want), B
        if isinstance(want, type):
            continue
        split = CoordSplit(B, (row,))
        dchi, dchidot = rng.normal(size=(2, 1)) * 10.0 ** rng.integers(-8, 9, size=(2, 1))
        gain = GainSpec(10.0 ** float(rng.uniform(-2, 7)))
        tau_d = rng.normal(size=1)
        assert _outcome(cpc_tau, dchi, dchidot, split, gain, tau_d) == _outcome(
            cpc_tau_lapack, dchi, dchidot, split, gain, tau_d
        )


def test_split_deterministic(rng):
    B = rng.normal(size=(4, 2))
    assert split_coordinates(B) == split_coordinates(B.copy())


def test_null_covector_hand_case():
    B = np.array([[1.0], [0.5]])
    split = split_coordinates(B)
    b = split.b
    assert np.allclose(b, [[0.5], [-1.0]])
    assert abs(b.T @ B).max() < 1e-12


def test_null_covector_fully_actuated_empty():
    B = np.array([[2.0, 0.1], [0.3, 1.5]])
    b = split_coordinates(B).b
    assert b.shape == (2, 0)


def test_null_identity_random(rng):
    for _ in range(200):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(1, n))
        B = rng.normal(size=(n, m))
        split = split_coordinates(B)
        b = split.b
        assert np.abs(b.T @ B).max() < 1e-9
        # Free rows carry minus identity.
        assert np.allclose(b[list(split.free), :], -np.eye(n - m))
        tau = rng.normal(size=m)
        assert np.abs(b.T @ (B @ tau)).max() < 1e-9


# ---------------------------------------------------------------------------
# reparam_params / renormalized_target
# ---------------------------------------------------------------------------


def _acrobot_split_b(q):
    p = acrobot_params()
    B = exact_control_matrix(p, q)
    split = split_coordinates(B)
    return B, split, split.b


def test_reparam_identity_state(rng):
    q = rng.uniform(-1, 1, size=2)
    qdot = rng.uniform(0.5, 1.5, size=2)
    _, _, b = _acrobot_split_b(q)
    t0, s = reparam_params(State(q, qdot), State(q, qdot), b)
    assert t0 == pytest.approx(0.0, abs=1e-14)
    assert s == pytest.approx(1.0)


def test_reparam_scalar_formula():
    # One free coordinate, constructed so qbar_d - qbar = 0.1, qdbar = 1,
    # qdbar_d = 2 in the projected variables.
    b = np.array([[1.0], [0.0]])  # stand-in covector; only projections matter
    x0 = State(np.array([0.0, 0.0]), np.array([1.0, 0.0]))
    xd = State(np.array([0.1, 0.0]), np.array([2.0, 0.0]))
    t0, s = reparam_params(x0, xd, b)
    assert t0 == pytest.approx(0.1)
    assert s == pytest.approx(2.0)


def test_reparam_guard():
    b = np.array([[1.0], [0.0]])
    x0 = State(np.zeros(2), np.array([1e-9, 0.0]))
    xd = State(np.ones(2), np.array([1.0, 0.0]))
    with pytest.raises(VelocityBarDegenerate):
        reparam_params(x0, xd, b)


def test_reparam_rejects_two_free_directions():
    b = np.zeros((3, 2))
    b[0, 0] = b[1, 1] = 1.0
    x = State(np.zeros(3), np.ones(3))
    with pytest.raises(ValueError, match="one unactuated direction"):
        reparam_params(x, x, b)


def _retrieve_one(x0, xd, b, guard_tol):
    """(t0, s) of a one-point store holding xd, or None when the guard
    rejects the query or the point."""
    store = TargetStore(np.zeros(1), [xd.q], [xd.qdot], np.zeros((1, 1)), [0.0], len(xd.q), (1,))
    try:
        idx, t0, s, _ = _query_arrays(NonEmptyStore(store), x0, b, 10.0, 1.0, 1, guard_tol)
    except VelocityBarDegenerate:
        return None
    return (float(t0[0]), float(s[0])) if len(idx) else None


def _reparam_or_none(x0, xd, b, guard_tol):
    try:
        return reparam_params(x0, xd, b, guard_tol)
    except VelocityBarDegenerate:
        return None


def test_reparam_guard_matches_retrieval(rng):
    # Small velocities whose product is under the guard but each of which
    # passes it: retrieval accepts the point, so reparam_params must too.
    b = np.array([[1.0], [0.0]])
    x0 = State(np.zeros(2), np.array([1e-3, 0.0]))
    xd = State(np.array([2e-4, 0.0]), np.array([1e-3, 0.0]))
    assert _retrieve_one(x0, xd, b, 1e-6) == pytest.approx((0.2, 1.0), rel=1e-12)
    assert _reparam_or_none(x0, xd, b, 1e-6) == pytest.approx((0.2, 1.0), rel=1e-12)
    # Random one-point stores, with the guard tolerance near the projected
    # velocities so that both accepted and rejected cases occur.
    decisions = set()
    for _ in range(300):
        b = rng.normal(size=(2, 1))
        x0 = State(rng.normal(size=2), rng.normal(size=2))
        xd = State(rng.normal(size=2), rng.normal(size=2))
        tol = float(rng.choice([1e-6, 0.3, 1.0]))
        got, want = _reparam_or_none(x0, xd, b, tol), _retrieve_one(x0, xd, b, tol)
        decisions.add(want is None)
        assert (got is None) == (want is None)
        if want is not None:
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)
    assert decisions == {True, False}


def test_reparam_reduction_bitlevel(rng):
    # General formula with one free coordinate agrees with the scalar one.
    for _ in range(100):
        q0, qd0 = rng.normal(size=2), rng.normal(size=2)
        q1, qd1 = rng.normal(size=2), rng.normal(size=2)
        b = rng.normal(size=(2, 1))
        x0, xd = State(q0, qd0), State(q1, qd1)
        try:
            t0, s = reparam_params(x0, xd, b)
        except VelocityBarDegenerate:
            continue
        qbar0, qdbar0 = float(b[:, 0] @ q0), float(b[:, 0] @ qd0)
        qbard, qdbard = float(b[:, 0] @ q1), float(b[:, 0] @ qd1)
        assert t0 == pytest.approx((qbard - qbar0) / qdbar0, abs=1e-12, rel=1e-12)
        assert s == pytest.approx(qdbard / qdbar0, abs=1e-12, rel=1e-12)


def test_renormalized_identity_reparam(rng):
    xd = State(rng.normal(size=2), rng.normal(size=2))
    q_r0, qdot_r = one_target(xd, 0.0, 1.0)
    assert np.allclose(q_r0, xd.q)
    assert np.allclose(qdot_r, xd.qdot)


def test_renormalized_time_reversal(rng):
    xd = State(rng.normal(size=2), rng.normal(size=2))
    q_r0, qdot_r = one_target(xd, 0.0, -1.0)
    assert np.allclose(q_r0, xd.q)
    assert np.allclose(qdot_r, -xd.qdot)


def test_renormalized_projection_identity(rng):
    # The covector projection of the renormalized start equals that of the
    # current state, exactly, for one free coordinate.
    for _ in range(100):
        q = rng.uniform(-1.5, 1.5, size=2)
        x0 = State(q, rng.normal(size=2))
        xd = State(rng.uniform(-1.5, 1.5, size=2), rng.normal(size=2))
        _, _, b = _acrobot_split_b(q)
        try:
            t0, s = reparam_params(x0, xd, b)
        except VelocityBarDegenerate:
            continue
        q_r0, qdot_r = one_target(xd, t0, s)
        assert abs(b[:, 0] @ q_r0 - b[:, 0] @ x0.q) < 1e-10
        assert abs(b[:, 0] @ qdot_r - b[:, 0] @ x0.qdot) < 1e-10


def test_renormalized_zero_scale_raises():
    with pytest.raises(ValueError, match="nonzero"):
        renormalized_target(np.zeros((2, 2)), np.ones((2, 2)), np.zeros(2), np.array([1.0, 0.0]))


def test_target_errors_rows_follow_formula(rng):
    # Each row is the current state minus its own renormalized target,
    # q_d - qdot_d (t0 / s) and qdot_d / s, on the controlled columns, bit
    # for bit.
    B = rng.normal(size=(3, 2))
    split = split_coordinates(B)
    ci = list(split.controlled)
    x0 = State(rng.normal(size=3), rng.normal(size=3))
    n = 7
    q_d, qdot_d = rng.normal(size=(n, 3)), rng.normal(size=(n, 3))
    t0 = rng.normal(0.0, 0.1, n)
    s = rng.choice([-1.0, 1.0], n) * rng.uniform(0.5, 2.0, n)
    dchi, dchidot = target_errors(x0, q_d, qdot_d, t0, s, split)
    assert dchi.shape == dchidot.shape == (n, 2)
    for i in range(n):
        q_r0 = q_d[i] - qdot_d[i] * (float(t0[i]) / float(s[i]))
        assert np.array_equal(dchi[i], x0.q[ci] - q_r0[ci])
        assert np.array_equal(dchidot[i], x0.qdot[ci] - qdot_d[i, ci] / float(s[i]))


def test_target_errors_match_full_width(rng):
    # Renormalizing only the controlled columns gives the bytes of
    # renormalizing every column and keeping the controlled ones.
    for n in range(2, 6):
        for m in range(1, n + 1):
            split = split_coordinates(rng.normal(size=(n, m)))
            x0 = State(rng.normal(size=n), rng.normal(size=n))
            k = int(rng.integers(1, 30))
            q_d, qdot_d = rng.normal(size=(k, n)), rng.normal(size=(k, n))
            t0 = rng.normal(0.0, 0.1, k)
            s = rng.choice([-1.0, 1.0], k) * rng.uniform(1e-3, 2.0, k)
            got = target_errors(x0, q_d, qdot_d, t0, s, split)
            want = target_errors_full_width(x0, q_d, qdot_d, t0, s, split)
            for a, b in zip(got, want):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# cpc_tau
# ---------------------------------------------------------------------------


def test_cpc_tau_on_target_returns_tau_d(rng):
    q = rng.uniform(-1, 1, size=2)
    qdot = rng.uniform(0.5, 1.0, size=2)
    B, split, b = _acrobot_split_b(q)
    x0 = State(q, qdot)
    t0, s = reparam_params(x0, x0, b)
    tau_d = rng.normal(size=1)
    tau = one_target_tau(x0, x0, split, t0, s, GainSpec(100.0), tau_d)
    assert np.abs(tau - tau_d).max() < 1e-9


def test_cpc_tau_scalar_hand_case():
    B = np.array([[1.0], [0.5]])
    split = CoordSplit(B, (0,))
    x0 = State(np.array([0.1, 0.0]), np.zeros(2))
    xd = State(np.zeros(2), np.zeros(2))
    tau = one_target_tau(x0, xd, split, 0.0, 1.0, GainSpec(4.0), np.zeros(1))
    assert tau[0] == pytest.approx(-0.4)


def test_cpc_tau_fully_actuated_reduces_to_linear_feedback(rng):
    # With M = N and the identity reparameterization, the law is the plain
    # linear state feedback tau_d - B^-1 (k dq + 2 sqrt(k) dqdot).
    B = rng.normal(size=(2, 2)) + 3 * np.eye(2)
    split = split_coordinates(B)
    assert split.controlled == (0, 1)
    x0 = State(rng.normal(size=2), rng.normal(size=2))
    xd = State(rng.normal(size=2), rng.normal(size=2))
    gain = GainSpec(25.0)
    tau_d = rng.normal(size=2)
    tau = one_target_tau(x0, xd, split, 0.0, 1.0, gain, tau_d)
    expected = tau_d - np.linalg.solve(B, 25.0 * (x0.q - xd.q) + 10.0 * (x0.qdot - xd.qdot))
    assert np.abs(tau - expected).max() < 1e-12


def test_cpc_tau_invariant_under_coordinate_maps(rng):
    # With one free coordinate the law is exactly invariant under invertible
    # linear coordinate changes, because the reparameterized target carries
    # identical unactuated projections.
    for _ in range(50):
        q = rng.uniform(-1, 1, size=2)
        qdot = rng.uniform(-2, 2, size=2)
        qd = rng.uniform(-1, 1, size=2)
        qdd = rng.uniform(-2, 2, size=2)
        B = exact_control_matrix(acrobot_params(), q)
        x0, xd = State(q, qdot), State(qd, qdd)
        split = split_coordinates(B)
        try:
            t0, s = reparam_params(x0, xd, split.b)
        except VelocityBarDegenerate:
            continue
        gain = GainSpec(400.0)
        tau = one_target_tau(x0, xd, split, t0, s, gain, np.zeros(1))

        C = rng.normal(size=(2, 2))
        while abs(np.linalg.det(C)) < 0.3:
            C = rng.normal(size=(2, 2))
        Bt = C @ B
        x0t = State(C @ q, C @ qdot)
        xdt = State(C @ qd, C @ qdd)
        splitt = split_coordinates(Bt)
        t0t, st = reparam_params(x0t, xdt, splitt.b)
        taut = one_target_tau(x0t, xdt, splitt, t0t, st, gain, np.zeros(1))
        scale = max(1.0, np.abs(tau).max())
        assert np.abs(taut - tau).max() / scale < 1e-7


# ---------------------------------------------------------------------------
# estimate_control_matrix
# ---------------------------------------------------------------------------


def test_estimate_recovers_exact_linear_map(rng):
    B0 = rng.normal(size=(2, 1))
    taus = rng.normal(size=(7, 1))
    us = taus @ B0.T
    B = estimate_control_matrix(taus, us, ridge=0.0)
    assert np.abs(B - B0).max() < 1e-9


def test_estimate_zero_torques_rank_deficient():
    with pytest.raises(RankDeficient):
        estimate_control_matrix(np.zeros((7, 1)), np.ones((7, 2)), ridge=0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("ridge", [0.0, 1e-8])
def test_estimate_non_finite_torque_rank_deficient(rng, bad, ridge):
    taus = rng.normal(size=(7, 1))
    taus[3, 0] = bad
    with pytest.raises(RankDeficient):
        estimate_control_matrix(taus, rng.normal(size=(7, 2)), ridge=ridge)


def test_estimate_on_acrobot_rollout(rng):
    # Small noisy motions near upright: the regressed matrix lands within
    # 25% of the true torque-to-acceleration map, which is all the runtime
    # loop needs.
    p = acrobot_params()
    dt = 0.01
    st = State(np.array([0.01, -0.02]), np.array([0.02, 0.01]))
    taus, us = [], []
    for _ in range(7):
        tau = rng.normal(0.0, 0.02, size=1)
        nxt = step(p, st, tau, dt)
        taus.append(tau)
        us.append((nxt.qdot - st.qdot) / dt)
        st = nxt
    B = estimate_control_matrix(np.array(taus), np.array(us))
    B_true = exact_control_matrix(p, st.q)
    assert np.abs((B - B_true) / B_true).max() < 0.25


# ---------------------------------------------------------------------------
# estimate_control_matrix as a least-squares solver (called with y as
# columns, so the regressed matrix is the transposed solution)
# ---------------------------------------------------------------------------


def test_lsq_square_exact(rng):
    A = rng.normal(size=(3, 3)) + 3 * np.eye(3)
    X0 = rng.normal(size=(3, 2))
    assert np.abs(estimate_control_matrix(A, A @ X0, ridge=0.0).T - X0).max() < 1e-10


def test_lsq_overdetermined_recovery(rng):
    A = rng.normal(size=(10, 2))
    X0 = rng.normal(size=(2, 1))
    X = estimate_control_matrix(A, A @ X0, ridge=0.0).T
    assert np.abs(X - X0).max() < 1e-10
    # Normal-equations oracle.
    Xn = np.linalg.solve(A.T @ A, A.T @ (A @ X0))
    assert np.abs(X - Xn).max() < 1e-10


def test_lsq_zero_matrix_raises():
    with pytest.raises(RankDeficient):
        estimate_control_matrix(np.zeros((4, 2)), np.ones((4, 1)), ridge=0.0)


def test_lsq_residual_orthogonal(rng):
    for _ in range(50):
        A = rng.normal(size=(12, 3))
        y = rng.normal(size=(12, 1))
        x = estimate_control_matrix(A, y, ridge=0.0).T
        resid = A @ x - y
        # Zero residual gradient: A' r = 0.
        assert np.abs(A.T @ resid).max() < 1e-9


def test_lsq_ridge_shrinks(rng):
    A = rng.normal(size=(8, 2))
    y = rng.normal(size=(8, 1))
    x0 = estimate_control_matrix(A, y, ridge=0.0).T
    x1 = estimate_control_matrix(A, y, ridge=10.0).T
    assert np.linalg.norm(x1) < np.linalg.norm(x0)
    # Ridge normal equations oracle.
    xn = np.linalg.solve(A.T @ A + 10.0 * np.eye(2), A.T @ y)
    assert np.abs(x1 - xn).max() < 1e-10


def test_lsq_underdetermined_raises(rng):
    with pytest.raises(RankDeficient):
        estimate_control_matrix(rng.normal(size=(2, 4)), np.ones((2, 1)), ridge=0.0)
