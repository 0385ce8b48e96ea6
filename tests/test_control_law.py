import numpy as np
import pytest

from cpc.control_law import (
    RIDGE,
    CoordSplit,
    GainSpec,
    cpc_tau,
    estimate_control_matrix,
    renormalized_target,
    reparam_params,
    target_errors,
)
from cpc.controller import HISTORY_N
from cpc.dynamics import (
    ChainParams,
    State,
    acrobot_params,
    exact_control_matrix,
    step,
)
from cpc.experiments import ExperimentConfig, generate_falls
from cpc.errors import (
    RankDeficient,
    SingularMatrix,
    VelocityBarDegenerate,
)
from cpc.target_store import DEFAULT_GUARD_TOL, NonEmptyStore, TargetStore, _query_arrays
from oracles import (
    cpc_tau_lapack,
    one_target,
    one_target_tau,
    split_blocks_lapack,
    target_errors_full_width,
)


# ---------------------------------------------------------------------------
# CoordSplit
# ---------------------------------------------------------------------------


def test_split_hand_rows_checked():
    # Near-singular block: a 3-link chain's row 1 replaced by a rounded copy
    # of row 0. LAPACK solves it without complaint (the path law gives
    # torques near 1e15), so the split must refuse it. The zero-row case is
    # test_candidate_costs_singular_block_raises.
    params = ChainParams(n_links=3, actuated_joints=(1, 2))
    B = exact_control_matrix(params, np.array([0.1, -0.2, 0.3]))
    B[1] = B[0] * 0.1 * 10
    with pytest.raises(SingularMatrix):
        CoordSplit(B, (0, 1))


def test_split_hand_rows_validated():
    B = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    split = CoordSplit(B, (2, 0))
    assert (split.controlled, split.free) == ((0, 2), 1)
    assert CoordSplit(B, (1, 0)) == CoordSplit(B, (0, 1))
    for rows in ((0,), (0, 0), (0, 3)):
        with pytest.raises(ValueError):
            CoordSplit(B, rows)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("row", [0, 1])
def test_split_non_finite_raises_singular(bad, row):
    B = np.array([[1.0], [0.5]])
    B[row, 0] = bad
    # A non-finite entry in the controlled row or in a free row alike.
    for controlled in ((0,), (1,)):
        with pytest.raises(SingularMatrix):
            CoordSplit(B, controlled)


def _outcome(fn, *args):
    """The bytes and shape of the torque a function returns, or the type of
    the exception it raises."""
    try:
        with np.errstate(all="ignore"):
            out = fn(*args)
    except (ValueError, SingularMatrix) as e:
        return type(e)
    return out.shape, out.tobytes()


def test_split_matches_lapack_blocks(rng):
    # With one free row the split solves for one right-hand side: at M = 1
    # a division, at M >= 2 one LAPACK solve. Its b_chi and b must be the
    # bytes of the general N x (N-M) split's b_chi and b[:, 0], at
    # magnitudes up to 1e+-300 with free rows scaled apart from the block,
    # or it must raise as that split does.
    raised = 0
    for n in range(2, 6):
        for _ in range(600):
            B = rng.normal(size=(n, n - 1)) * 10.0 ** float(rng.integers(-300, 301))
            controlled = tuple(sorted(rng.choice(n, size=n - 1, replace=False).tolist()))
            (free,) = set(range(n)).difference(controlled)
            B[free] = rng.normal(size=n - 1) * 10.0 ** float(rng.integers(-300, 301))
            if rng.random() < 0.05:
                B[controlled[0]] = 0.0
            with np.errstate(all="ignore"):
                try:
                    b_chi, b = split_blocks_lapack(B, controlled)
                except SingularMatrix:
                    raised += 1
                    with pytest.raises(SingularMatrix):
                        CoordSplit(B, controlled)
                    continue
                split = CoordSplit(B, controlled)
            assert (split.controlled, split.free) == (controlled, free)
            assert split.b_chi.tobytes() == b_chi.tobytes(), B
            assert split.b.shape == (n,) and split.b.tobytes() == b[:, 0].tobytes(), B
    assert raised > 0


@pytest.mark.parametrize(
    "n_links, actuated",
    [(2, (1,)), (2, (0,)), (3, (1, 2)), (3, (0, 2)), (4, (1, 2, 3)), (5, (1, 2, 3, 4)), (5, (0, 1, 3, 4))],
)
def test_split_on_actuated_joints_builds_for_exact_model(rng, n_links, actuated):
    # B = D^-1 B_tau, so its actuated rows are a principal block of the SPD
    # matrix D^-1: symmetric positive definite in every state, and the split
    # the controller builds on the actuated joints never refuses the exact B.
    params = ChainParams(n_links=n_links, actuated_joints=actuated)
    (unactuated,) = set(range(n_links)).difference(actuated)
    for _ in range(500):
        B = exact_control_matrix(params, rng.uniform(-np.pi, np.pi, n_links))
        block = B[list(actuated)]
        assert np.abs(block - block.T).max() <= 1e-12 * np.abs(block).max()
        assert np.linalg.eigvalsh(block).min() > 0.0
        split = CoordSplit(B, actuated)
        assert (split.controlled, split.free) == (actuated, unactuated)


def test_one_actuator_forms_match_lapack(rng):
    # At M = 1 the path law divides instead of solving; it must give
    # LAPACK's bits.
    for _ in range(2000):
        B = rng.normal(size=(2, 1)) * 10.0 ** float(rng.integers(-300, 301))
        row = int(rng.integers(2))
        split = CoordSplit(B, (row,))
        dchi, dchidot = rng.normal(size=(2, 1)) * 10.0 ** rng.integers(-8, 9, size=(2, 1))
        gain = GainSpec(10.0 ** float(rng.uniform(-2, 7)))
        tau_d = rng.normal(size=1)
        assert _outcome(cpc_tau, dchi, dchidot, split, gain, tau_d) == _outcome(
            cpc_tau_lapack, dchi, dchidot, split, gain, tau_d
        )


def test_null_covector_hand_case():
    B = np.array([[1.0], [0.5]])
    split = CoordSplit(B, (0,))
    b = split.b
    assert np.allclose(b, [0.5, -1.0])
    assert abs(b @ B).max() < 1e-12


def test_split_fully_actuated_raises():
    B = np.array([[2.0, 0.1], [0.3, 1.5]])
    with pytest.raises(ValueError, match="one unactuated direction"):
        CoordSplit(B, (0, 1))
    # Two free rows, more columns than rows, and no columns alike.
    for B in (np.ones((3, 1)), np.ones((2, 3)), np.ones((2, 0))):
        with pytest.raises(ValueError, match="one unactuated direction"):
            CoordSplit(B, (0,))


def test_null_identity_random(rng):
    for _ in range(200):
        n = int(rng.integers(2, 6))
        B = rng.normal(size=(n, n - 1))
        split = CoordSplit(B, tuple(range(1, n)))
        b = split.b
        assert np.abs(b @ B).max() < 1e-9
        # The free row carries minus one.
        assert b[split.free] == -1.0
        tau = rng.normal(size=n - 1)
        assert np.abs(b @ (B @ tau)).max() < 1e-9


# ---------------------------------------------------------------------------
# reparam_params / renormalized_target
# ---------------------------------------------------------------------------


def _acrobot_split_b(q):
    p = acrobot_params()
    B = exact_control_matrix(p, q)
    split = CoordSplit(B, p.actuated_joints)
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
    b = np.array([1.0, 0.0])  # stand-in covector; only projections matter
    x0 = State(np.array([0.0, 0.0]), np.array([1.0, 0.0]))
    xd = State(np.array([0.1, 0.0]), np.array([2.0, 0.0]))
    t0, s = reparam_params(x0, xd, b)
    assert t0 == pytest.approx(0.1)
    assert s == pytest.approx(2.0)


def test_reparam_guard():
    b = np.array([1.0, 0.0])
    x0 = State(np.zeros(2), np.array([1e-9, 0.0]))
    xd = State(np.ones(2), np.array([1.0, 0.0]))
    with pytest.raises(VelocityBarDegenerate):
        reparam_params(x0, xd, b)


def _retrieve_one(x0, xd, b):
    """(t0, s) of a one-point store holding xd, or None when the guard
    rejects the query or the point."""
    store = TargetStore(np.zeros(1), [xd.q], [xd.qdot], np.zeros((1, 1)), [0.0], len(xd.q), (1,))
    targets = NonEmptyStore(store)
    try:
        idx, t0, s, _ = _query_arrays(targets, x0, b, 10.0, 1.0, 1, DEFAULT_GUARD_TOL)
    except VelocityBarDegenerate:
        return None
    return (float(t0[0]), float(s[0])) if len(idx) else None


def _reparam_or_none(x0, xd, b):
    try:
        return reparam_params(x0, xd, b)
    except VelocityBarDegenerate:
        return None


def test_reparam_guard_matches_retrieval(rng):
    # Small velocities whose product is under the guard but each of which
    # passes it: retrieval accepts the point, so reparam_params must too.
    b = np.array([1.0, 0.0])
    x0 = State(np.zeros(2), np.array([1e-3, 0.0]))
    xd = State(np.array([2e-4, 0.0]), np.array([1e-3, 0.0]))
    assert _retrieve_one(x0, xd, b) == pytest.approx((0.2, 1.0), rel=1e-12)
    assert _reparam_or_none(x0, xd, b) == pytest.approx((0.2, 1.0), rel=1e-12)
    # Random one-point stores, with velocities spread over two decades on
    # either side of the guard so that both accepted and rejected cases occur.
    decisions = set()
    for _ in range(300):
        b = rng.normal(size=2)
        x0 = State(rng.normal(size=2), rng.normal(size=2) * 10.0 ** rng.uniform(-8.0, -4.0))
        xd = State(rng.normal(size=2), rng.normal(size=2) * 10.0 ** rng.uniform(-8.0, -4.0))
        got, want = _reparam_or_none(x0, xd, b), _retrieve_one(x0, xd, b)
        decisions.add(want is None)
        assert (got is None) == (want is None)
        if want is not None:
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)
    assert decisions == {True, False}


@pytest.mark.parametrize("n", [2, 3, 5])
def test_reparam_matches_retrieval_bits(rng, n):
    # The query state and the stored points are projected onto b by one
    # rule, so for every point the scan returns, reparam_params gives the
    # scan's (t0, s) bit for bit.
    params = ChainParams(n_links=n, actuated_joints=tuple(range(1, n)))
    store = generate_falls(ExperimentConfig(), 3, seed=n, params=params)
    targets = NonEmptyStore(store)
    checked = 0
    for _ in range(40):
        x0 = State(rng.uniform(-0.5, 0.5, size=n), rng.uniform(-2.0, 2.0, size=n))
        b = CoordSplit(exact_control_matrix(params, x0.q), params.actuated_joints).b
        try:
            idx, t0, s, _ = _query_arrays(targets, x0, b, 10.0, -1.0, 20, DEFAULT_GUARD_TOL)
        except VelocityBarDegenerate:
            continue
        for i, t0_i, s_i in zip(idx.tolist(), t0.tolist(), s.tolist()):
            assert reparam_params(x0, State(store.q[i], store.qdot[i]), b) == (t0_i, s_i)
            checked += 1
    assert checked >= 400


def test_reparam_reduction_bitlevel(rng):
    # General formula with one free coordinate agrees with the scalar one.
    for _ in range(100):
        q0, qd0 = rng.normal(size=2), rng.normal(size=2)
        q1, qd1 = rng.normal(size=2), rng.normal(size=2)
        b = rng.normal(size=2)
        x0, xd = State(q0, qd0), State(q1, qd1)
        try:
            t0, s = reparam_params(x0, xd, b)
        except VelocityBarDegenerate:
            continue
        qbar0, qdbar0 = float(b @ q0), float(b @ qd0)
        qbard, qdbard = float(b @ q1), float(b @ qd1)
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
        assert abs(b @ q_r0 - b @ x0.q) < 1e-10
        assert abs(b @ qdot_r - b @ x0.qdot) < 1e-10


def test_renormalized_zero_scale_raises():
    with pytest.raises(ValueError, match="nonzero"):
        renormalized_target(np.zeros((2, 2)), np.ones((2, 2)), np.zeros(2), np.array([1.0, 0.0]))


def test_target_errors_rows_follow_formula(rng):
    # Each row is the current state minus its own renormalized target,
    # q_d - qdot_d (t0 / s) and qdot_d / s, on the controlled columns, bit
    # for bit.
    B = rng.normal(size=(3, 2))
    split = CoordSplit(B, (1, 2))
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
        for _ in range(n):
            split = CoordSplit(rng.normal(size=(n, n - 1)), tuple(range(1, n)))
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


def test_cpc_tau_identity_reparam_is_linear_feedback(rng):
    # With the identity reparameterization, the law is the plain linear
    # state feedback tau_d - B_chi^-1 (k dchi + 2 sqrt(k) dchidot) on the
    # controlled coordinates.
    B = rng.normal(size=(3, 2)) + 3 * np.eye(3, 2)
    split = CoordSplit(B, (0, 1))
    x0 = State(rng.normal(size=3), rng.normal(size=3))
    xd = State(rng.normal(size=3), rng.normal(size=3))
    gain = GainSpec(25.0)
    tau_d = rng.normal(size=2)
    tau = one_target_tau(x0, xd, split, 0.0, 1.0, gain, tau_d)
    dq, dqdot = (x0.q - xd.q)[:2], (x0.qdot - xd.qdot)[:2]
    expected = tau_d - np.linalg.solve(B[:2], 25.0 * dq + 10.0 * dqdot)
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
        split = CoordSplit(B, (1,))
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
        # The transformed chain has no actuated joint, so the law may
        # control either row of Bt; each gives the same torque.
        for row in (0, 1):
            splitt = CoordSplit(Bt, (row,))
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
    B = estimate_control_matrix(taus, us)
    assert np.abs(B - B0).max() < 1e-9


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("scale", [0.0, 1e-8, 1.0])
def test_estimate_non_finite_torque_rank_deficient(rng, bad, scale):
    # The finite torques are all zero (the window the ridge maps to B = 0),
    # at the ridge's own scale, or of unit scale; one bad entry must raise
    # in each case.
    taus = rng.normal(size=(7, 1)) * scale
    taus[3, 0] = bad
    with pytest.raises(RankDeficient):
        estimate_control_matrix(taus, rng.normal(size=(7, 2)))


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


def _ridge_bias_bound(A, X0):
    """Bound on ||X - X0|| (spectral norm) for the ridge solution X of
    A X = A X0: RIDGE / s_min(A)^2 times ||X0||, plus rounding."""
    s_min = np.linalg.svd(A, compute_uv=False)[-1]
    return RIDGE / s_min**2 * np.linalg.norm(X0, 2) + 1e-12


def test_lsq_square_exact(rng):
    A = rng.normal(size=(3, 3)) + 3 * np.eye(3)
    X0 = rng.normal(size=(3, 2))
    X = estimate_control_matrix(A, A @ X0).T
    assert np.linalg.norm(X - X0, 2) <= _ridge_bias_bound(A, X0)


def test_lsq_overdetermined_recovery(rng):
    A = rng.normal(size=(10, 2))
    X0 = rng.normal(size=(2, 1))
    X = estimate_control_matrix(A, A @ X0).T
    assert np.linalg.norm(X - X0, 2) <= _ridge_bias_bound(A, X0)


def test_lsq_residual_orthogonal(rng):
    for _ in range(50):
        A = rng.normal(size=(12, 3))
        y = rng.normal(size=(12, 1))
        x = estimate_control_matrix(A, y).T
        resid = A @ x - y
        # Residual gradient of the ridge objective: A' r + RIDGE x = 0.
        assert np.abs(A.T @ resid + RIDGE * x).max() < 1e-9


def test_estimate_matches_ridge_normal_equations(rng):
    # Full-column-rank windows of the controller's shape and of the
    # least-squares shapes above, at three torque scales: there the normal
    # equations are well conditioned enough to serve as the oracle.
    for rows, cols in [(7, 1), (7, 2), (8, 2), (10, 2), (12, 3)]:
        for scale in (1e-2, 1.0, 1e2):
            for _ in range(20):
                A = rng.normal(0.0, scale, (rows, cols))
                y = rng.normal(size=(rows, 3))
                want = np.linalg.solve(A.T @ A + RIDGE * np.eye(cols), A.T @ y)
                got = estimate_control_matrix(A, y).T
                assert np.abs(got - want).max() <= 1e-10 * max(1.0, np.abs(want).max())


def test_estimate_zero_window_gives_zero_matrix():
    # The ridge keeps an all-zero torque window solvable: B comes out zero,
    # and the coordinate split then rejects it.
    B = estimate_control_matrix(np.zeros((HISTORY_N, 1)), np.ones((HISTORY_N, 2)))
    assert np.array_equal(B, np.zeros((2, 1)))
    with pytest.raises(SingularMatrix):
        CoordSplit(B, (1,))
