import numpy as np
import pytest

from cpc.control_law import null_covector, split_coordinates
from cpc.dynamics import State, acrobot_params, exact_control_matrix, step
from cpc.errors import DatasetSchemaMismatch, EmptyDataset, VelocityBarDegenerate
from cpc.target_store import (
    DEFAULT_GUARD_TOL,
    DataPoint,
    NonEmptyStore,
    TargetCandidate,
    TargetStore,
    build,
    proximity_loss,
    query_candidates,
)


def brute_force_candidates(
    store: TargetStore,
    x0: State,
    b: np.ndarray,
    omega: float,
    s_g: float,
    n_d: int,
    guard_tol: float = DEFAULT_GUARD_TOL,
) -> list[TargetCandidate]:
    """Linear-scan oracle with the same guards and tie-breaking."""
    b = np.asarray(b, dtype=float)
    if b.ndim == 2:
        b = b[:, 0]
    qdbar0 = float(b @ x0.qdot)
    if abs(qdbar0) <= guard_tol:
        raise VelocityBarDegenerate("unactuated velocity projection too small")
    qbar0 = float(b @ x0.q)
    qb = store.q @ b
    qdb = store.qdot @ b
    ok = np.abs(qdb) > guard_tol
    t0 = (qb - qbar0) / qdbar0
    s = qdb / qdbar0
    loss = (omega * t0) ** 2 + (s - s_g) ** 2
    idx = np.nonzero(ok)[0]
    order = np.lexsort((idx, loss[idx]))[: min(n_d, len(idx))]
    sel = idx[order]
    return [
        TargetCandidate(store.point(int(i)), int(i), float(t0[i]), float(s[i]), float(loss[i]))
        for i in sel
    ]


def _fall_like_store(n_traj=100, n_pts=100, seed=5, sigma=0.02):
    """Noisy passive trajectories from upright rest: clustered, fall-shaped data."""
    p = acrobot_params()
    rng = np.random.default_rng(seed)
    t, q, qdot, tau, G = [], [], [], [], []
    for _ in range(n_traj):
        st = State(np.zeros(2), np.zeros(2))
        for _ in range(n_pts):
            u = rng.normal(0.0, sigma, size=1)
            t.append(st.t)
            q.append(st.q.copy())
            qdot.append(st.qdot.copy())
            tau.append(u.copy())
            G.append(0.0)
            st = step(p, st, u, 0.01)
    return TargetStore(t, q, qdot, tau, G, 2, (1,))


@pytest.fixture(scope="module")
def fall_store():
    return _fall_like_store()


@pytest.fixture(scope="module")
def fall_targets(fall_store):
    return NonEmptyStore(fall_store)


def _acrobot_b(q):
    B = exact_control_matrix(acrobot_params(), q)
    return null_covector(B, split_coordinates(B))


def _random_query_state(rng, min_proj=0.05):
    while True:
        q = rng.uniform(-0.8, 0.8, size=2)
        qdot = rng.uniform(-2.0, 2.0, size=2)
        b = _acrobot_b(q)
        if abs(b[:, 0] @ qdot) > min_proj:
            return State(q, qdot), b


# ---------------------------------------------------------------------------
# proximity loss
# ---------------------------------------------------------------------------


def test_loss_perfect_match():
    assert proximity_loss(0.0, 1.0, 10.0, 1.0) == 0.0


def test_loss_direct_value():
    assert proximity_loss(0.1, 1.2, 10.0, 1.0) == pytest.approx(1.04)


def test_loss_reversed_goal():
    assert proximity_loss(0.0, -1.0, 10.0, -1.0) == 0.0


# ---------------------------------------------------------------------------
# retrieval handle
# ---------------------------------------------------------------------------


def test_empty_dataset_raises():
    with pytest.raises(EmptyDataset):
        build([], 2, (1,))
    empty = TargetStore(
        np.empty(0), np.empty((0, 2)), np.empty((0, 2)), np.empty((0, 1)), np.empty(0), 2, (1,)
    )
    with pytest.raises(EmptyDataset):
        NonEmptyStore(empty)


def test_duplicates_returned_as_distinct(rng):
    st = State(np.array([0.1, 0.2]), np.array([0.5, 0.4]))
    pts = [DataPoint(0.0, st, np.zeros(1), 0.0) for _ in range(5)]
    targets = build(pts, 2, (1,))
    x0, b = _random_query_state(rng)
    cands = query_candidates(targets, x0, b, 10.0, 1.0, 3)
    assert [c.index for c in cands] == [0, 1, 2]
    assert len({c.loss for c in cands}) == 1

    # 200 copies of one point scattered among 300 distinct ones, with n_d
    # ending inside the tie group: the lowest dataset indices of the group
    # must be the ones returned.
    n_tie, n_distinct = 200, 300
    slots = rng.permutation(n_tie + n_distinct)
    tie_idx = np.sort(slots[:n_tie])
    pts = [
        DataPoint(0.0, State(rng.uniform(-0.5, 0.5, 2), rng.uniform(-2.0, 2.0, 2)), np.zeros(1), 0.0)
        for _ in range(n_tie + n_distinct)
    ]
    for i in tie_idx:
        pts[i] = DataPoint(0.0, st, np.zeros(1), 0.0)
    targets = build(pts, 2, (1,))
    ranked = [c.index for c in brute_force_candidates(targets.store, x0, b, 10.0, 1.0, len(pts))]
    n_d = ranked.index(tie_idx[0]) + n_tie // 2
    cands = query_candidates(targets, x0, b, 10.0, 1.0, n_d)
    assert [c.index for c in cands] == ranked[:n_d]
    tie_set = set(tie_idx.tolist())
    assert [c.index for c in cands if c.index in tie_set] == tie_idx[: n_tie // 2].tolist()


# ---------------------------------------------------------------------------
# query
# ---------------------------------------------------------------------------


def test_query_exhaustive_returns_all_sorted(rng):
    store = _fall_like_store(n_traj=2, n_pts=30, seed=9)
    targets = NonEmptyStore(store)
    x0, b = _random_query_state(rng)
    cands = query_candidates(targets, x0, b, 10.0, 1.0, n_d=1000)
    assert len(cands) == len([c for c in brute_force_candidates(store, x0, b, 10.0, 1.0, 1000)])
    losses = [c.loss for c in cands]
    assert losses == sorted(losses)


def test_query_matches_brute_force(rng, fall_targets):
    for _ in range(50):
        x0, b = _random_query_state(rng)
        cands = query_candidates(fall_targets, x0, b, 10.0, 1.0, 20)
        oracle = brute_force_candidates(fall_targets.store, x0, b, 10.0, 1.0, 20)
        assert [c.index for c in cands] == [c.index for c in oracle]
        assert np.allclose([c.loss for c in cands], [c.loss for c in oracle], rtol=1e-12)
        assert np.allclose([c.t0 for c in cands], [c.t0 for c in oracle], rtol=1e-12)
        assert np.allclose([c.s for c in cands], [c.s for c in oracle], rtol=1e-12)


def test_query_matches_brute_force_reversed_goal(rng, fall_targets):
    for _ in range(25):
        x0, b = _random_query_state(rng)
        cands = query_candidates(fall_targets, x0, b, 10.0, -1.0, 20)
        oracle = brute_force_candidates(fall_targets.store, x0, b, 10.0, -1.0, 20)
        assert [c.index for c in cands] == [c.index for c in oracle]


def test_query_guard_rejects_degenerate_state(fall_targets):
    x0 = State(np.array([0.1, 0.2]), np.zeros(2))
    b = _acrobot_b(x0.q)
    with pytest.raises(VelocityBarDegenerate):
        query_candidates(fall_targets, x0, b, 10.0, 1.0, 20)


def test_query_excludes_guarded_targets(rng):
    # Points with essentially zero projected target velocity must not be
    # returned no matter how close their configuration is.
    x0, b = _random_query_state(rng)
    bb = b[:, 0]
    v_perp = np.array([-bb[1], bb[0]])  # b . v_perp = 0 up to rounding
    v_perp -= bb * (bb @ v_perp) / (bb @ bb)
    pts = [
        DataPoint(0.0, State(x0.q.copy(), v_perp * 1e-9), np.zeros(1), 0.0),
        DataPoint(0.0, State(x0.q + 0.5, x0.qdot.copy()), np.zeros(1), 0.0),
    ]
    targets = build(pts, 2, (1,))
    cands = query_candidates(targets, x0, b, 10.0, 1.0, 2)
    assert [c.index for c in cands] == [1]


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_jsonl_roundtrip_and_determinism(tmp_path, fall_store):
    p1 = tmp_path / "a.jsonl"
    p2 = tmp_path / "b.jsonl"
    fall_store.save_jsonl(p1)
    loaded = TargetStore.load_jsonl(p1)
    assert np.array_equal(loaded.q, fall_store.q)
    assert np.array_equal(loaded.qdot, fall_store.qdot)
    assert np.array_equal(loaded.tau, fall_store.tau)
    assert np.array_equal(loaded.G, fall_store.G)
    assert loaded.n_links == 2 and loaded.actuated_joints == (1,)
    loaded.save_jsonl(p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_jsonl_bad_header(tmp_path):
    f = tmp_path / "bad.jsonl"
    f.write_text('{"format": "nonsense"}\n')
    with pytest.raises(DatasetSchemaMismatch):
        TargetStore.load_jsonl(f)


def test_jsonl_bad_row(tmp_path):
    f = tmp_path / "bad.jsonl"
    f.write_text(
        '{"format": "chain-targets-v1", "n_links": 2, "actuated_joints": [1]}\n'
        '{"t": 0.0, "q": [0.0], "qdot": [0.0, 0.0], "tau": [0.0], "G": 0.0}\n'
    )
    with pytest.raises(DatasetSchemaMismatch):
        TargetStore.load_jsonl(f)
