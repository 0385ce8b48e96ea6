import math

import numpy as np
import pytest

from cpc.control_law import (
    DEFAULT_COND_CAP,
    RIDGE,
    CoordSplit,
    GainSpec,
    _solve,
    cpc_tau,
    estimate_control_matrix,
)
from cpc.controller import HISTORY_N
from cpc.dynamics import (
    ChainParams,
    State,
    _dot,
    _lane_solve,
    acrobot_params,
    exact_control_matrix,
    step,
)
from cpc.errors import (
    RankDeficient,
    SingularMatrix,
    VelocityBarDegenerate,
)
from cpc.target_store import target_errors
from oracles import (
    cpc_tau_lapack,
    estimate_per_column,
    one_target,
    one_target_tau,
    retrieve_one,
    split_blocks_lapack,
    target_errors_full_width,
    targets_of,
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
    # Finite matrices with a well-conditioned block whose free row dwarfs
    # it: W = B_free B_chi^-1 overflows, to inf at M = 1 and to inf and NaN
    # at M = 2, and the covector would poison every retrieval projection.
    for B, rows in (
        (np.array([[1e300], [1e-10]]), (1,)),
        (np.array([[1e300, 1e300], [1e-10, 0.0], [0.0, 1e-10]]), (1, 2)),
    ):
        with pytest.raises(SingularMatrix, match="covector"):
            CoordSplit(B, rows)


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
    # a division, whose b_chi and b must be the bytes of the general
    # N x (N-M) split's b_chi and b[:, 0]. At M >= 2 it eliminates on Python
    # floats, so b must be within 1e-12 of LAPACK's relative to max|b|, at
    # magnitudes up to 1e+-300 with free rows scaled apart from the block.
    # It must raise as the general split does, except that its Frobenius
    # condition rule may reject a block that the SVD rule accepts (never
    # the reverse); such rejections are counted.
    raised = frobenius_only = 0
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
                try:
                    split = CoordSplit(B, controlled)
                except SingularMatrix as e:
                    assert n > 2 and "block" in str(e), B
                    frobenius_only += 1
                    continue
            assert (split.controlled, split.free) == (controlled, free)
            assert split.b_chi.tobytes() == b_chi.tobytes(), B
            assert split.b.shape == (n,)
            if n == 2:
                assert split.b.tobytes() == b[:, 0].tobytes(), B
            else:
                scale = np.abs(b[:, 0]).max()
                assert np.abs(split.b - b[:, 0]).max() <= 1e-12 * scale, B
    assert raised > 0
    assert frobenius_only <= raised // 10, (frobenius_only, raised)


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


@pytest.mark.parametrize("n_links, actuated", [(3, (1, 2)), (5, (1, 2, 3, 4))], ids=["M2", "M4"])
def test_path_law_matches_lapack(rng, n_links, actuated):
    # At M >= 2 the path law eliminates on Python floats; on the exact
    # model's blocks it must agree with LAPACK's solve to 1e-12 relative.
    params = ChainParams(n_links=n_links, actuated_joints=actuated)
    m = len(actuated)
    for _ in range(500):
        split = CoordSplit(exact_control_matrix(params, rng.uniform(-np.pi, np.pi, n_links)), actuated)
        dchi, dchidot = rng.normal(size=(2, m)) * 10.0 ** rng.integers(-8, 9, size=(2, m))
        gain = GainSpec(10.0 ** float(rng.uniform(-2, 7)))
        tau_d = rng.normal(size=m)
        got = cpc_tau(dchi, dchidot, split, gain, tau_d)
        want = cpc_tau_lapack(dchi, dchidot, split, gain, tau_d)
        assert got.shape == (m,)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


# ---------------------------------------------------------------------------
# _solve and the Frobenius condition rule
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("m", [2, 3, 4])
def test_solve_matches_lapack(rng, m):
    # Permutation blocks have a zero leading entry, so elimination must swap
    # rows; random blocks are kept when well conditioned (cond < 1e3).
    blocks = [np.eye(m)[::-1], np.roll(np.eye(m), 1, axis=0)]
    while len(blocks) < 300:
        A = rng.normal(size=(m, m))
        if np.linalg.cond(A) < 1e3:
            blocks.append(A)
    for A in blocks:
        rhss = rng.normal(size=(3, m))
        got = np.array(_solve(A.tolist(), rhss.tolist()))
        want = np.linalg.solve(A, rhss.T).T
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), A
    assert _solve([[0.0, 1.0], [1.0, 0.0]], [[2.0, 3.0]]) == [[3.0, 2.0]]


@pytest.mark.parametrize(
    "A",
    [[[0.0, 0.0], [0.0, 1.0]], [[1.0, 2.0], [2.0, 4.0]], [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [0.0, 0.0, 0.0]]],
    ids=["zero_column", "dependent_rows", "zero_row"],
)
def test_solve_zero_pivot_raises(A):
    with pytest.raises(SingularMatrix):
        _solve(A, [[1.0] * len(A)])


def test_solve_array_lanes_match_float_lanes(rng):
    # One rhs of (K,) array lanes gives, in each element, the bits of that
    # element solved alone on float lanes, and leaves the caller's arrays
    # (here views of one matrix) as they were.
    for m in (2, 3, 4):
        A = rng.normal(size=(m, m)).tolist()
        rhs = rng.normal(size=(20, m)) * 10.0 ** rng.integers(-5, 6, size=(20, m))
        before = rhs.copy()
        (x,) = _solve(A, [list(rhs.T)])
        for k in range(len(rhs)):
            (want,) = _solve(A, [rhs[k].tolist()])
            assert np.array([lane[k] for lane in x]).tobytes() == np.array(want).tobytes()
        assert rhs.tobytes() == before.tobytes()


def test_split_frobenius_rule_is_stricter_than_svd(rng):
    # The split accepts a block when (|B_chi|_F |B_chi^-1|_F)^2 is at most
    # DEFAULT_COND_CAP. The Frobenius condition number is never below the
    # 2-norm one and at most M times it: a 4 x 4 block with singular values
    # (1, 1, 1, d) and cond_2^2 = 1/d^2 = 5e11 passes the SVD rule, but its
    # Frobenius cond^2 is (3 + d^2)(3 + 1/d^2), about 1.5e12.
    Q1, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    Q2, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    for d, accepted in ((1.0 / np.sqrt(5e11), False), (1.0 / np.sqrt(1e11), True)):
        block = Q1 @ np.diag([1.0, 1.0, 1.0, d]) @ Q2
        s = np.linalg.svd(block, compute_uv=False)
        assert (s[0] / s[-1]) ** 2 < DEFAULT_COND_CAP
        B = np.vstack([rng.normal(size=(1, 4)), block])
        if accepted:
            assert np.abs(CoordSplit(B, (1, 2, 3, 4)).b[1:] @ block - B[0]).max() < 1e-6
        else:
            with pytest.raises(SingularMatrix, match="block"):
                CoordSplit(B, (1, 2, 3, 4))


@pytest.mark.parametrize("scale", [1e300, 1e-300])
def test_split_judges_extreme_magnitudes(scale):
    # Squared entries of 1e+-300 would overflow to inf or underflow to 0;
    # math.hypot does neither, so a scaled block gets the unscaled verdict
    # and covector.
    good = np.array([[0.5, -1.5], [2.0, 1.0], [1.0, 3.0]])
    bad = np.array([[0.5, -1.5], [1.0, 1.0], [1.0, 1.0 + 1e-9]])
    want = CoordSplit(good, (1, 2)).b
    assert np.abs(CoordSplit(good * scale, (1, 2)).b - want).max() <= 1e-15 * np.abs(want).max()
    for B in (bad, bad * scale):
        with pytest.raises(SingularMatrix, match="block"):
            CoordSplit(B, (1, 2))


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
# (t0, s) from a one-point retrieval / renormalized_target
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
    t0, s = retrieve_one(State(q, qdot), State(q, qdot), b)
    assert t0 == pytest.approx(0.0, abs=1e-14)
    assert s == pytest.approx(1.0)


def test_reparam_scalar_formula():
    # One free coordinate, constructed so qbar_d - qbar = 0.1, qdbar = 1,
    # qdbar_d = 2 in the projected variables.
    b = np.array([1.0, 0.0])  # stand-in covector; only projections matter
    x0 = State(np.array([0.0, 0.0]), np.array([1.0, 0.0]))
    xd = State(np.array([0.1, 0.0]), np.array([2.0, 0.0]))
    t0, s = retrieve_one(x0, xd, b)
    assert t0 == pytest.approx(0.1)
    assert s == pytest.approx(2.0)


def test_reparam_guard():
    b = np.array([1.0, 0.0])
    x0 = State(np.zeros(2), np.array([1e-9, 0.0]))
    xd = State(np.ones(2), np.array([1.0, 0.0]))
    with pytest.raises(VelocityBarDegenerate):
        retrieve_one(x0, xd, b)
    # Each projected velocity meets the guard on its own, not their product:
    # two of 1e-3 both pass it.
    x0 = State(np.zeros(2), np.array([1e-3, 0.0]))
    xd = State(np.array([2e-4, 0.0]), np.array([1e-3, 0.0]))
    assert retrieve_one(x0, xd, b) == pytest.approx((0.2, 1.0), rel=1e-12)


def test_reparam_reduction_bitlevel(rng):
    # General formula with one free coordinate agrees with the scalar one.
    for _ in range(100):
        q0, qd0 = rng.normal(size=2), rng.normal(size=2)
        q1, qd1 = rng.normal(size=2), rng.normal(size=2)
        b = rng.normal(size=2)
        x0, xd = State(q0, qd0), State(q1, qd1)
        try:
            t0, s = retrieve_one(x0, xd, b)
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
            t0, s = retrieve_one(x0, xd, b)
        except VelocityBarDegenerate:
            continue
        q_r0, qdot_r = one_target(xd, t0, s)
        assert abs(b @ q_r0 - b @ x0.q) < 1e-10
        assert abs(b @ qdot_r - b @ x0.qdot) < 1e-10


def test_renormalized_zero_scale_raises():
    split = CoordSplit(np.array([[1.0], [0.5]]), (1,))
    targets = targets_of(np.zeros((2, 2)), np.ones((2, 2)))
    x0 = State(np.zeros(2), np.ones(2))
    with pytest.raises(ValueError, match="nonzero"):
        target_errors(x0, targets, np.arange(2), np.zeros(2), np.array([1.0, 0.0]), split)


def test_target_errors_rows_follow_formula(rng):
    # Each row is the current state minus the renormalized target of its
    # own retrieved point, q_d - qdot_d (t0 / s) and qdot_d / s, on the
    # controlled columns, bit for bit.
    B = rng.normal(size=(3, 2))
    split = CoordSplit(B, (1, 2))
    ci = list(split.controlled)
    x0 = State(rng.normal(size=3), rng.normal(size=3))
    q_d, qdot_d = rng.normal(size=(12, 3)), rng.normal(size=(12, 3))
    n = 7
    idx = rng.permutation(12)[:n]
    t0 = rng.normal(0.0, 0.1, n)
    s = rng.choice([-1.0, 1.0], n) * rng.uniform(0.5, 2.0, n)
    dchi, dchidot = target_errors(x0, targets_of(q_d, qdot_d), idx, t0, s, split)
    assert dchi.shape == dchidot.shape == (n, 2)
    for i, p in enumerate(idx):
        q_r0 = q_d[p] - qdot_d[p] * (float(t0[i]) / float(s[i]))
        assert np.array_equal(dchi[i], x0.q[ci] - q_r0[ci])
        assert np.array_equal(dchidot[i], x0.qdot[ci] - qdot_d[p, ci] / float(s[i]))


def test_target_errors_match_full_width(rng):
    # Gathering the controlled columns of the retrieved points from the
    # handle's column copies and renormalizing them gives the bytes of
    # gathering whole rows of the store, renormalizing every column and
    # keeping the controlled ones.
    for n in range(2, 6):
        for _ in range(n):
            split = CoordSplit(rng.normal(size=(n, n - 1)), tuple(range(1, n)))
            x0 = State(rng.normal(size=n), rng.normal(size=n))
            size = int(rng.integers(1, 40))
            targets = targets_of(rng.normal(size=(size, n)), rng.normal(size=(size, n)))
            k = int(rng.integers(1, size + 1))
            idx = rng.permutation(size)[:k]
            t0 = rng.normal(0.0, 0.1, k)
            s = rng.choice([-1.0, 1.0], k) * rng.uniform(1e-3, 2.0, k)
            got = target_errors(x0, targets, idx, t0, s, split)
            want = target_errors_full_width(x0, targets, idx, t0, s, split)
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
    t0, s = retrieve_one(x0, x0, b)
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
            t0, s = retrieve_one(x0, xd, split.b)
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
            t0t, st = retrieve_one(x0t, xdt, splitt.b)
            taut = one_target_tau(x0t, xdt, splitt, t0t, st, gain, np.zeros(1))
            scale = max(1.0, np.abs(tau).max())
            assert np.abs(taut - tau).max() / scale < 1e-7


# ---------------------------------------------------------------------------
# estimate_control_matrix
# ---------------------------------------------------------------------------


def _estimate(taus, us):
    """``estimate_control_matrix`` on a window given as arrays of pairs,
    (pairs, M) torques and (pairs, N) accelerations."""
    return estimate_control_matrix(np.asarray(taus).T.tolist(), np.asarray(us).T.tolist())


def test_estimate_recovers_exact_linear_map(rng):
    B0 = rng.normal(size=(2, 1))
    taus = rng.normal(size=(7, 1))
    us = taus @ B0.T
    B = _estimate(taus, us)
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
        _estimate(taus, rng.normal(size=(7, 2)))


def test_estimate_unequal_columns_raise():
    # Every torque and acceleration column must hold one entry per pair.
    for t_cols, u_cols in (([[1.0, 2.0]], [[1.0], [2.0]]), ([[1.0], [1.0, 2.0]], [[1.0]] * 3)):
        with pytest.raises(ValueError, match="differ in length"):
            estimate_control_matrix(t_cols, u_cols)


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
    B = _estimate(np.array(taus), np.array(us))
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
    X = _estimate(A, A @ X0).T
    assert np.linalg.norm(X - X0, 2) <= _ridge_bias_bound(A, X0)


def test_lsq_overdetermined_recovery(rng):
    A = rng.normal(size=(10, 2))
    X0 = rng.normal(size=(2, 1))
    X = _estimate(A, A @ X0).T
    assert np.linalg.norm(X - X0, 2) <= _ridge_bias_bound(A, X0)


def test_lsq_residual_orthogonal(rng):
    for _ in range(50):
        A = rng.normal(size=(12, 3))
        y = rng.normal(size=(12, 1))
        x = _estimate(A, y).T
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
                got = _estimate(A, y).T
                assert np.abs(got - want).max() <= 1e-10 * max(1.0, np.abs(want).max())


@pytest.mark.parametrize("m", [1, 2, 4])
def test_estimate_matches_per_column_solve_bits(rng, m):
    # One Cholesky factor for every column, and each Gram entry formed once,
    # give the bits of refactoring the full Gram matrix per column: the
    # solve is the same sequence of operations on the same operands.
    for _ in range(200):
        scale = 10.0 ** rng.uniform(-3.0, 2.0)
        taus = rng.normal(0.0, scale, (HISTORY_N, m))
        us = rng.normal(size=(HISTORY_N, m + 1)) * 10.0 ** rng.uniform(-2.0, 3.0)
        got, want = _estimate(taus, us), estimate_per_column(taus, us)
        assert got.shape == want.shape == (m + 1, m)
        assert got.tobytes() == want.tobytes()


def _estimate_lane_solve(t_cols, u_cols):
    """The regression at M = 1 through the general solve: the 1 x 1 Gram
    matrix factored and solved by ``dynamics._lane_solve``."""
    (t,) = t_cols
    gram = [[_dot(t, t)]]
    gram[0][0] = gram[0][0] + RIDGE
    return np.array(_lane_solve(math, gram, [[_dot(t, u)] for u in u_cols]))


def test_estimate_one_actuator_matches_lane_solve(rng):
    # At M = 1 the regression runs the Cholesky solve in closed form; it
    # must give the general solve's bits on windows of every scale and
    # length with -0.0 entries, on all-zero windows, on a NaN acceleration,
    # and on a torque window whose Gram sum overflows, so that B = 0. The
    # RankDeficient and ValueError checks that come first are run at M = 1
    # by test_estimate_non_finite_torque_rank_deficient and
    # test_estimate_unequal_columns_raise.
    windows = []
    for _ in range(2000):
        pairs, n = int(rng.choice([1, HISTORY_N, 50])), int(rng.integers(1, 6))
        t = rng.normal(0.0, 10.0 ** rng.uniform(-6.0, 3.0), pairs)
        u = rng.normal(0.0, 10.0 ** rng.uniform(-3.0, 4.0), (n, pairs))
        t[rng.random(pairs) < 0.2] = -0.0
        u[rng.random(u.shape) < 0.2] = -0.0
        windows.append(([t.tolist()], u.tolist()))
    zeros = [[0.0] * HISTORY_N], [[-0.0] * HISTORY_N]
    windows += [(z, [[1.0] * HISTORY_N, [-0.0] * HISTORY_N]) for z in zeros]
    windows.append(([[0.5] * HISTORY_N], [[np.nan] + [1.0] * (HISTORY_N - 1), [2.0] * HISTORY_N]))
    overflow = ([[1e200] * HISTORY_N], [[1e-200] * HISTORY_N, [-3e-201] * HISTORY_N])
    windows.append(overflow)
    for t_cols, u_cols in windows:
        got, want = estimate_control_matrix(t_cols, u_cols), _estimate_lane_solve(t_cols, u_cols)
        assert got.shape == want.shape == (len(u_cols), 1)
        assert got.tobytes() == want.tobytes()
    assert np.array_equal(estimate_control_matrix(*overflow), np.zeros((2, 1)))


def test_estimate_zero_window_gives_zero_matrix():
    # The ridge keeps an all-zero torque window solvable: B comes out zero,
    # and the coordinate split then rejects it.
    B = _estimate(np.zeros((HISTORY_N, 1)), np.ones((HISTORY_N, 2)))
    assert np.array_equal(B, np.zeros((2, 1)))
    with pytest.raises(SingularMatrix):
        CoordSplit(B, (1,))
    # So does an empty window, at every M.
    assert np.array_equal(estimate_control_matrix([[]], [[], []]), np.zeros((2, 1)))
    assert np.array_equal(estimate_control_matrix([[], []], [[], [], []]), np.zeros((3, 2)))
