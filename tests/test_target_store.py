import os
import platform
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import cpc
from cpc.control_law import CoordSplit
from cpc.dynamics import ChainParams, State, acrobot_params, exact_control_matrix, step
from cpc.errors import DatasetSchemaMismatch, EmptyDataset, VelocityBarDegenerate
from cpc.controller import DT
from cpc.experiments import FALL_DURATION, ExperimentConfig, generate_falls
from cpc.target_store import (
    _BLOCK,
    DEFAULT_GUARD_TOL,
    NonEmptyStore,
    TargetStore,
    _query_arrays,
)
from oracles import proximity_loss, query_candidates, save_jsonl_per_value


def reference_query_arrays(targets, x0, b, omega, s_g, n_d, guard_tol):
    """Bit-for-bit reference for ``_query_arrays``: the same scan written
    with fresh temporaries, projecting the query state as a one-row store,
    gathering the guard-passing points before the loss and partitioning a
    copy of it."""
    b = np.asarray(b, dtype=float)

    def project(a):
        out = a[:, 0] * b[0]
        for d in range(1, len(b)):
            out += a[:, d] * b[d]
        return out

    qdbar0 = float(project(x0.qdot[None])[0])
    if abs(qdbar0) <= guard_tol:
        raise VelocityBarDegenerate("unactuated velocity projection too small")
    qbar0 = float(project(x0.q[None])[0])
    qb = project(targets.store.q)
    qdb = project(targets.store.qdot)
    idx = np.flatnonzero(np.abs(qdb) > guard_tol)
    t0 = (qb[idx] - qbar0) / qdbar0
    s = qdb[idx] / qdbar0
    loss = (omega * t0) ** 2 + (s - s_g) ** 2
    if len(idx) > n_d:
        kth = np.partition(loss, n_d - 1)[n_d - 1]
        near = np.flatnonzero(loss <= kth)
        idx, t0, s, loss = idx[near], t0[near], s[near], loss[near]
    order = np.lexsort((idx, loss))[:n_d]
    return idx[order], t0[order], s[order], loss[order]


def _same_bytes(got, want):
    return all(
        g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()
        for g, w in zip(got, want, strict=True)
    )


def _fall_like_store(n_traj=100, n_pts=100, seed=5, sigma=0.02, p=None):
    """Noisy passive trajectories from upright rest, recorded one state and
    one step at a time: clustered, fall-shaped data."""
    p = p or acrobot_params()
    rng = np.random.default_rng(seed)
    t, q, qdot, tau, G = [], [], [], [], []
    for _ in range(n_traj):
        st = State(np.zeros(p.n_links), np.zeros(p.n_links))
        for _ in range(n_pts):
            u = rng.normal(0.0, sigma, size=p.n_controls)
            t.append(st.t)
            q.append(st.q.copy())
            qdot.append(st.qdot.copy())
            tau.append(u.copy())
            G.append(0.0)
            st = step(p, st, u, 0.01)
    return TargetStore(t, q, qdot, tau, G, p.n_links, p.actuated_joints)


@pytest.fixture(scope="module")
def fall_store():
    return _fall_like_store()


_N5 = ChainParams(n_links=5, actuated_joints=(1, 2, 3, 4))


@pytest.mark.parametrize(
    "n_f, seed, params",
    [(100, 5, None), (1, 6, None), (2, 7, _N5), (1, 8, _N5),
     (6, 9, None), (7, 10, None), (6, 11, _N5), (7, 12, _N5)],
    ids=["n2_nf100", "n2_nf1", "n5_nf2", "n5_nf1", "n2_nf6", "n2_nf7", "n5_nf6", "n5_nf7"],
)
def test_generate_falls_matches_per_fall_recorder(fall_store, n_f, seed, params):
    # generate_falls advances all falls in one batch, on float lanes up to
    # 6 falls and on array lanes from 7; the store must hold the bytes of
    # recording each fall alone with single-state steps.
    store = generate_falls(ExperimentConfig(), n_f, seed=seed, params=params)
    ref = fall_store if n_f == 100 else _fall_like_store(n_f, seed=seed, p=params)
    assert (store.n_links, store.actuated_joints) == (ref.n_links, ref.actuated_joints)
    for name in ("t", "q", "qdot", "tau", "G"):
        assert getattr(store, name).tobytes() == getattr(ref, name).tobytes(), name


@pytest.fixture(scope="module")
def fall_targets(fall_store):
    return NonEmptyStore(fall_store)


def _acrobot_b(q):
    B = exact_control_matrix(acrobot_params(), q)
    return CoordSplit(B, (1,)).b


def _random_query_state(rng, min_proj=0.05):
    while True:
        q = rng.uniform(-0.8, 0.8, size=2)
        qdot = rng.uniform(-2.0, 2.0, size=2)
        b = _acrobot_b(q)
        if abs(b @ qdot) > min_proj:
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
    empty = TargetStore(
        np.empty(0), np.empty((0, 2)), np.empty((0, 2)), np.empty((0, 1)), np.empty(0), 2, (1,)
    )
    with pytest.raises(EmptyDataset):
        NonEmptyStore(empty)


def test_store_arrays_read_only_caller_arrays_writeable():
    # The store's arrays are read-only, and it copies every writeable array
    # the caller passed in, so writing into those arrays, which keep their
    # flags, changes neither the store nor the columns a live handle views
    # in it. A read-only column-major input, with a read-only base, is kept
    # as it is; a read-only row-major one is copied once into column order.
    t, q, qdot = np.zeros(3), np.ones((3, 2)), np.ones((3, 2))
    tau, G = np.zeros((3, 1)), np.zeros(3)
    store = TargetStore(t, q, qdot, tau, G, 2, (1,))
    handle = NonEmptyStore(store)
    for name in ("t", "q", "qdot", "tau", "G"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(store, name)[0] = 2.0
    for a in (t, q, qdot, tau, G):
        assert a.flags.writeable
        assert not np.shares_memory(a, store.q)
        a[0] = 2.0
    assert np.array_equal(store.q, np.ones((3, 2)))
    assert np.array_equal(store.q, np.column_stack(handle._q_cols))
    # A read-only view of a writeable array can still change under the
    # store, so it is copied too.
    base = np.ones((3, 2))
    view = base[:]
    view.flags.writeable = False
    assert not np.shares_memory(TargetStore(t, view, qdot, tau, G, 2, (1,)).q, base)
    row_major = [np.array(a) for a in (t, q, qdot, tau, G)]
    column_major = [np.asfortranarray(a) for a in row_major]
    for a in row_major + column_major:
        a.flags.writeable = False
    kept = TargetStore(*column_major, 2, (1,))
    copied = TargetStore(*row_major, 2, (1,))
    for name, c_order, f_order in zip(("t", "q", "qdot", "tau", "G"), row_major, column_major):
        assert np.shares_memory(getattr(kept, name), f_order)
        got = getattr(copied, name)
        assert got.flags.f_contiguous and np.array_equal(got, c_order)
        # 1-D arrays and the one-column torques are column-major as well.
        assert np.shares_memory(got, c_order) == (name in ("t", "tau", "G"))


def test_recorded_and_loaded_stores_keep_their_arrays(tmp_path):
    # The recorder and the reader hand their arrays over read-only and
    # column-major, so the store keeps its (n, N) state arrays as views of
    # the arrays they were built in; a copy would own its data.
    store = generate_falls(ExperimentConfig(), 3, seed=1)
    store.save_jsonl(tmp_path / "a.jsonl")
    for s in (store, TargetStore.load_jsonl(tmp_path / "a.jsonl")):
        for a in (s.q, s.qdot, s.tau):
            assert not a.flags.owndata and not a.base.flags.writeable


def test_stores_are_column_major_and_handles_view_them(tmp_path, fall_store):
    # Recorded (M = 1, and M = 4, whose row-major torques are copied),
    # loaded and user-built stores keep q, qdot and tau column-major, so a
    # handle's columns are contiguous views of the store's arrays.
    recorded = generate_falls(ExperimentConfig(), 3, seed=1)
    recorded.save_jsonl(tmp_path / "a.jsonl")
    loaded = TargetStore.load_jsonl(tmp_path / "a.jsonl")
    recorded_n5 = generate_falls(ExperimentConfig(), 2, seed=2, params=_N5)
    for store in (recorded, loaded, fall_store, recorded_n5):
        for a in (store.q, store.qdot, store.tau):
            assert a.flags.f_contiguous
    for store in (recorded, loaded, fall_store):
        handle = NonEmptyStore(store)
        for cols, a in ((handle._q_cols, store.q), (handle._qdot_cols, store.qdot)):
            for d, col in enumerate(cols):
                assert col.flags.c_contiguous and np.shares_memory(col, a)
                assert np.array_equal(col, a[:, d])


def test_handle_build_allocates_only_its_scratch(fall_store):
    # Building a handle copies no stored value: at 10^4 points its traced
    # peak is its scratch block (about 340 kB) plus a fixed 16 kB for the
    # handle's own objects. Copying q and qdot into column order peaked
    # about 660 kB.
    assert len(fall_store) == 10_000
    NonEmptyStore(fall_store)
    tracemalloc.start()
    try:
        handle = NonEmptyStore(fall_store)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < handle._rows.nbytes + handle._masks.nbytes + 16_000


def _acrobot_targets(q, qdot):
    """Retrieval handle over acrobot states with zero torque and return."""
    n = len(q)
    return NonEmptyStore(TargetStore(np.zeros(n), q, qdot, np.zeros((n, 1)), np.zeros(n), 2, (1,)))


def _tie_heavy_store(rng, st, n_tie=200, n_distinct=300):
    """``n_tie`` copies of the state ``st`` scattered among ``n_distinct``
    random states; returns the handle and the sorted indices of the copies."""
    slots = rng.permutation(n_tie + n_distinct)
    tie_idx = np.sort(slots[:n_tie])
    n = n_tie + n_distinct
    q = np.empty((n, 2))
    qdot = np.empty((n, 2))
    for i in range(n):
        q[i], qdot[i] = rng.uniform(-0.5, 0.5, 2), rng.uniform(-2.0, 2.0, 2)
    q[tie_idx], qdot[tie_idx] = st.q, st.qdot
    return _acrobot_targets(q, qdot), tie_idx


def test_duplicates_returned_as_distinct(rng):
    st = State(np.array([0.1, 0.2]), np.array([0.5, 0.4]))
    targets = _acrobot_targets(np.tile(st.q, (5, 1)), np.tile(st.qdot, (5, 1)))
    x0, b = _random_query_state(rng)
    idx, _, _, loss = _query_arrays(targets, x0, b, 10.0, 1.0, 3, DEFAULT_GUARD_TOL)
    assert idx.tolist() == [0, 1, 2]
    assert len(set(loss.tolist())) == 1

    # 200 copies of one point scattered among 300 distinct ones, with n_d
    # ending inside the tie group: the lowest dataset indices of the group
    # must be the ones returned.
    n_tie = 200
    targets, tie_idx = _tie_heavy_store(rng, st, n_tie)
    n = len(targets.store)
    ranked = [c.index for c in query_candidates(targets.store, x0, b, 10.0, 1.0, n)]
    n_d = ranked.index(tie_idx[0]) + n_tie // 2
    idx = _query_arrays(targets, x0, b, 10.0, 1.0, n_d, DEFAULT_GUARD_TOL)[0].tolist()
    assert idx == ranked[:n_d]
    tie_set = set(tie_idx.tolist())
    assert [i for i in idx if i in tie_set] == tie_idx[: n_tie // 2].tolist()


# ---------------------------------------------------------------------------
# query
# ---------------------------------------------------------------------------


def test_query_exhaustive_returns_all_sorted(rng):
    store = _fall_like_store(n_traj=2, n_pts=30, seed=9)
    targets = NonEmptyStore(store)
    x0, b = _random_query_state(rng)
    idx, _, _, loss = _query_arrays(targets, x0, b, 10.0, 1.0, 1000, DEFAULT_GUARD_TOL)
    assert len(idx) == len(query_candidates(store, x0, b, 10.0, 1.0, 1000))
    assert loss.tolist() == sorted(loss.tolist())


def test_query_matches_brute_force(rng, fall_targets):
    for _ in range(50):
        x0, b = _random_query_state(rng)
        idx, t0, s, loss = _query_arrays(fall_targets, x0, b, 10.0, 1.0, 20, DEFAULT_GUARD_TOL)
        oracle = query_candidates(fall_targets.store, x0, b, 10.0, 1.0, 20)
        assert idx.tolist() == [c.index for c in oracle]
        assert np.allclose(loss, [c.loss for c in oracle], rtol=1e-12)
        assert np.allclose(t0, [c.t0 for c in oracle], rtol=1e-12)
        assert np.allclose(s, [c.s for c in oracle], rtol=1e-12)


def test_query_matches_brute_force_reversed_goal(rng, fall_targets):
    for _ in range(25):
        x0, b = _random_query_state(rng)
        idx = _query_arrays(fall_targets, x0, b, 10.0, -1.0, 20, DEFAULT_GUARD_TOL)[0]
        oracle = query_candidates(fall_targets.store, x0, b, 10.0, -1.0, 20)
        assert idx.tolist() == [c.index for c in oracle]


def test_query_guard_rejects_degenerate_state(fall_targets):
    x0 = State(np.array([0.1, 0.2]), np.zeros(2))
    b = _acrobot_b(x0.q)
    with pytest.raises(VelocityBarDegenerate):
        _query_arrays(fall_targets, x0, b, 10.0, 1.0, 20, DEFAULT_GUARD_TOL)


def test_query_excludes_guarded_targets(rng):
    # Points with essentially zero projected target velocity must not be
    # returned no matter how close their configuration is.
    x0, b = _random_query_state(rng)
    v_perp = np.array([-b[1], b[0]])  # b . v_perp = 0 up to rounding
    v_perp -= b * (b @ v_perp) / (b @ b)
    targets = _acrobot_targets(np.stack([x0.q, x0.q + 0.5]), np.stack([v_perp * 1e-9, x0.qdot]))
    idx = _query_arrays(targets, x0, b, 10.0, 1.0, 2, DEFAULT_GUARD_TOL)[0]
    assert idx.tolist() == [1]


@pytest.mark.parametrize("kind", ["nf1", "nf3", "nf100", "ties"])
def test_query_arrays_bit_identical_to_reference(rng, fall_store, kind):
    st = State(np.array([0.1, 0.2]), np.array([0.5, 0.4]))
    if kind == "ties":
        targets, _ = _tie_heavy_store(rng, st)
    elif kind == "nf100":
        targets = NonEmptyStore(fall_store)
    else:
        targets = NonEmptyStore(generate_falls(ExperimentConfig(), int(kind[2:]), seed=3))
    n = len(targets.store)
    for _ in range(15):
        x0, b = _random_query_state(rng)
        other, b_other = _random_query_state(rng)
        proj = np.abs(targets.store.qdot @ b)
        # The default guard, and one that rejects 95% of the points.
        for guard_tol in (DEFAULT_GUARD_TOL, float(np.quantile(proj, 0.95))):
            qdbar0 = abs(float(b @ x0.qdot))
            x = State(x0.q, x0.qdot * max(1.0, 2.0 * guard_tol / qdbar0))
            # One point, a partition, and more than the guard lets through.
            for n_d in (1, 20, n + 1):
                for s_g in (1.0, -1.0):
                    args = (b, 10.0, s_g, n_d, guard_tol)
                    got = _query_arrays(targets, x, *args)
                    assert _same_bytes(got, reference_query_arrays(targets, x, *args))
                    kept = [a.copy() for a in got]
                    _query_arrays(targets, other, b_other, 1.0, -s_g, 5, DEFAULT_GUARD_TOL)
                    assert _same_bytes(got, kept)
    if kind == "ties":
        # n_d ending inside the tie group, as in test_duplicates_returned_as_distinct.
        ranked = reference_query_arrays(targets, x0, b, 10.0, 1.0, n, DEFAULT_GUARD_TOL)[0]
        n_d = int(np.flatnonzero(targets.store.q[ranked, 0] == st.q[0])[0]) + 100
        args = (x0, b, 10.0, 1.0, n_d, DEFAULT_GUARD_TOL)
        assert _same_bytes(_query_arrays(targets, *args), reference_query_arrays(targets, *args))


# Retrieval on random stores and fixed covector floats at N = 2, 3 and 5,
# the free row at every position: prints the SHA-256 of every result.
_QUERY_DIGEST = """
import hashlib
import numpy as np
from cpc.dynamics import State
from cpc.errors import VelocityBarDegenerate
from cpc.target_store import DEFAULT_GUARD_TOL, NonEmptyStore, TargetStore, _query_arrays

rng = np.random.default_rng(18)
h = hashlib.sha256()
for n in (2, 3, 5):
    q, qdot = rng.normal(size=(2, 300, n))
    store = TargetStore(np.zeros(300), q, qdot, np.zeros((300, n - 1)), np.zeros(300), n,
                        tuple(range(1, n)))
    targets = NonEmptyStore(store)
    for k in range(300):
        b = rng.normal(size=n)
        b[k % n] = -1.0
        x0 = State(rng.normal(size=n), rng.normal(size=n))
        try:
            out = _query_arrays(targets, x0, b, 10.0, -1.0, 20, DEFAULT_GUARD_TOL)
        except VelocityBarDegenerate:
            h.update(b"degenerate")
            continue
        for a in out:
            h.update(a.tobytes())
print(h.hexdigest())
"""


# Short balance trials on fresh n_f = 3 stores of one chain, whose
# ``ChainParams`` keyword arguments replace ``%s``: prints the SHA-256 of
# every torque the controller returned.
_TRIAL_DIGEST = """
import hashlib
from cpc import experiments
from cpc.controller import SIGMA_BOOT
from cpc.dynamics import ChainParams
from cpc.experiments import NOISE_MULT, ExperimentConfig, generate_falls, run_balance_trial, trial_seed

h = hashlib.sha256()
controller_step = experiments.controller_step


def recorded(*args):
    tau = controller_step(*args)
    h.update(tau.tobytes())
    return tau


experiments.controller_step = recorded
params = ChainParams(%s)
cfg = ExperimentConfig(t_max=2.0)
for i in range(10):
    seed = trial_seed(0, "blas", i)
    store = generate_falls(cfg, 3, seed=trial_seed(seed, "falls", 0), params=params)
    run_balance_trial(store, cfg, NOISE_MULT * SIGMA_BOOT, seed, i, 3, params)
print(h.hexdigest())
"""

_ON_X86_64 = pytest.mark.skipif(
    platform.machine() not in ("x86_64", "AMD64"), reason="Prescott is an x86-64 OpenBLAS kernel"
)


def _blas_kernel_outputs(script):
    """The output of ``script``, run on this package on one OpenBLAS thread
    under the host's default kernel and under the SSE3 one (Prescott),
    which every x86-64 machine runs; a numpy without OpenBLAS ignores the
    variable."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    src = str(Path(cpc.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    env["OPENBLAS_NUM_THREADS"] = "1"

    def output(extra):
        run = subprocess.run(
            [sys.executable, "-c", script], env={**env, **extra},
            capture_output=True, text=True, check=True,
        )
        return run.stdout

    return output({}), output({"OPENBLAS_CORETYPE": "Prescott"})


@_ON_X86_64
def test_query_bytes_independent_of_blas_kernel():
    # The host's SIMD level picks OpenBLAS's kernel. Retrieval must give the
    # same bytes under either kernel.
    default, prescott = _blas_kernel_outputs(_QUERY_DIGEST)
    assert default == prescott


@_ON_X86_64
@pytest.mark.parametrize("chain", ["", "n_links=3, actuated_joints=(1, 2)"], ids=["N2", "N3"])
def test_trial_torques_independent_of_blas_kernel(chain):
    # The B regression, the split, the ranking and the torque of a cycle run
    # on Python floats at every M, so a trial applies the same torques under
    # either kernel. Ten 2 s trials are enough for the N = 3 torques to
    # differ between kernels when the M = 2 solves go through LAPACK.
    default, prescott = _blas_kernel_outputs(_TRIAL_DIGEST % chain)
    assert default == prescott


def test_warm_query_allocates_no_store_length_array(rng, fall_store):
    # Every store-length intermediate lives in the handle's scratch, so one
    # query allocates less than one float64 column of the store.
    targets = NonEmptyStore(fall_store)
    x0, b = _random_query_state(rng)
    _query_arrays(targets, x0, b, 10.0, -1.0, 20, DEFAULT_GUARD_TOL)
    tracemalloc.start()
    try:
        _query_arrays(targets, x0, b, 10.0, -1.0, 20, DEFAULT_GUARD_TOL)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * len(fall_store)


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


def test_jsonl_save_replaces_the_file(tmp_path, fall_store):
    # A save over an existing file writes a new file: a hard link to the
    # old one keeps the first store's bytes, and the path holds what a save
    # to a fresh path holds. Truncating in place rewrote the shared file.
    path, link, fresh = tmp_path / "store.jsonl", tmp_path / "link.jsonl", tmp_path / "fresh.jsonl"
    fall_store.save_jsonl(path)
    first = path.read_bytes()
    os.link(path, link)
    other = _special_value_store()
    other.save_jsonl(path)
    other.save_jsonl(fresh)
    assert link.read_bytes() == first
    assert path.read_bytes() == fresh.read_bytes() != first


def _special_value_store():
    # Signed zero, the smallest subnormal, tiny and huge magnitudes, values
    # without a short decimal form, and integer-valued floats.
    v = np.array([-0.0, 5e-324, 1e-300, 0.1, 1 / 3, 1e16, 123456789.0, 0.0, 1.0, -2.0, 3e5])
    return TargetStore(
        v, np.column_stack([v, -v[::-1]]), np.column_stack([v[::-1], -v]), v[:, None], -v, 2, (1,)
    )


def _assert_stores_bit_equal(got, want):
    assert (got.n_links, got.actuated_joints) == (want.n_links, want.actuated_joints)
    for name in ("t", "q", "qdot", "tau", "G"):
        g, w = getattr(got, name), getattr(want, name)
        assert g.shape == w.shape and g.tobytes() == w.tobytes(), name


@pytest.mark.parametrize("which", ["special_values", "n5_nf20", "n2_nf100"])
def test_jsonl_writer_matches_per_value_oracle(tmp_path, fall_store, which):
    store = {
        "special_values": _special_value_store,
        "n5_nf20": lambda: generate_falls(ExperimentConfig(), 20, seed=3, params=_N5),
        "n2_nf100": lambda: fall_store,
    }[which]()
    got, want = tmp_path / "got.jsonl", tmp_path / "want.jsonl"
    store.save_jsonl(got)
    save_jsonl_per_value(store, want)
    assert got.read_bytes() == want.read_bytes()
    _assert_stores_bit_equal(TargetStore.load_jsonl(got), store)


def test_jsonl_save_memory_bounded(tmp_path, fall_store):
    # The writer formats a block of rows at a time, so its transient strings
    # do not grow with the store. Formatting all 10^4 points into one string
    # peaks above 5 MB.
    assert len(fall_store) == 10_000
    path = tmp_path / "a.jsonl"
    fall_store.save_jsonl(path)
    tracemalloc.start()
    try:
        fall_store.save_jsonl(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def test_jsonl_load_memory_bounded(tmp_path, fall_store):
    # The reader converts a block of rows at a time to arrays, so its
    # transient lists do not grow with the store, and it joins the blocks
    # one field at a time, so the join holds at most one field twice: about
    # 0.17 MB above the 0.56 MB of arrays it returns. Collecting all 10^4
    # points as Python floats before converting them peaks about 2.3 MB
    # above them, and joining every field at once about 0.59 MB.
    assert len(fall_store) == 10_000
    path = tmp_path / "a.jsonl"
    fall_store.save_jsonl(path)
    TargetStore.load_jsonl(path)
    tracemalloc.start()
    try:
        loaded = TargetStore.load_jsonl(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arrays = sum(getattr(loaded, name).nbytes for name in ("t", "q", "qdot", "tau", "G"))
    assert peak - arrays < 300_000


def _head(store, n):
    return TargetStore(
        store.t[:n], store.q[:n], store.qdot[:n], store.tau[:n], store.G[:n],
        store.n_links, store.actuated_joints,
    )


@pytest.mark.parametrize("n_links", [1, 3])
def test_unactuated_chain_falls_record_and_roundtrip(tmp_path, n_links):
    # With no actuated joint the torques are (rows, 0); recording must not
    # infer the row count from them.
    params = ChainParams(n_links=n_links, actuated_joints=())
    store = generate_falls(ExperimentConfig(), 2, 0, params=params)
    rows = 2 * round(FALL_DURATION / DT)
    assert (store.q.shape, store.tau.shape) == ((rows, n_links), (rows, 0))
    store.save_jsonl(tmp_path / "a.jsonl")
    _assert_stores_bit_equal(TargetStore.load_jsonl(tmp_path / "a.jsonl"), store)


def test_jsonl_header_only_loads_empty_store(tmp_path):
    f = tmp_path / "empty.jsonl"
    f.write_text(_HEADER)
    store = TargetStore.load_jsonl(f)
    assert len(store) == 0
    assert (store.t.shape, store.q.shape, store.qdot.shape) == ((0,), (0, 2), (0, 2))
    assert (store.tau.shape, store.G.shape) == ((0, 1), (0,))


@pytest.mark.parametrize("n", [_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1])
def test_jsonl_roundtrip_across_block_edges(tmp_path, fall_store, n):
    store = _head(fall_store, n)
    path = tmp_path / "a.jsonl"
    store.save_jsonl(path)
    _assert_stores_bit_equal(TargetStore.load_jsonl(path), store)


def test_jsonl_string_in_second_block_raises(tmp_path, fall_store):
    # The last row of the second block holds a string torque and one more
    # row follows it, so the check runs when that block is converted.
    path = tmp_path / "a.jsonl"
    _head(fall_store, 2 * _BLOCK + 1).save_jsonl(path)
    lines = path.read_text().splitlines(keepends=True)
    row = 2 * _BLOCK  # lines[0] is the header
    tau = '"tau": [%.17g]' % fall_store.tau[row - 1, 0]
    assert tau in lines[row]
    lines[row] = lines[row].replace(tau, '"tau": ["0.5"]')
    path.write_text("".join(lines))
    with pytest.raises(DatasetSchemaMismatch, match="tau holds a non-number"):
        TargetStore.load_jsonl(path)


def test_jsonl_whitespace_and_blank_lines_load_same_arrays(tmp_path):
    store = _special_value_store()
    clean = tmp_path / "clean.jsonl"
    store.save_jsonl(clean)
    header, *rows = clean.read_text().splitlines(keepends=True)
    padded = tmp_path / "padded.jsonl"
    padded.write_text(
        header
        + "\n \t\n"
        + "".join(f" \t{row.rstrip()}\t  \n\n" for row in rows)
        + "   \n"
    )
    _assert_stores_bit_equal(TargetStore.load_jsonl(padded), TargetStore.load_jsonl(clean))


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


_HEADER = '{"actuated_joints": [1], "format": "chain-targets-v1", "n_links": 2}\n'
_ROW = '{"t": 0.0, "q": [0.0, 0.0], "qdot": [0.0, 0.0], "tau": [0.0], "G": 0.0}\n'


@pytest.mark.parametrize(
    "text",
    [
        '{"actuated_joints": [1], "format": "chain-targets-v1"}\n' + _ROW,
        "[1, 2]\n" + _ROW,
        _HEADER + "[0.0, [0.0, 0.0]]\n",
        _HEADER + _ROW.replace('"q": [0.0, 0.0]', '"q": 5'),
        _HEADER + _ROW.replace('"q": [0.0, 0.0]', '"q": ["a", "b"]'),
        _HEADER + _ROW.replace('"t": 0.0', '"t": [0.0, 1.0]'),
        _HEADER + _ROW.replace('"q": [0.0, 0.0]', '"q": [[0.0], [0.0]]'),
        _HEADER + _ROW.replace('"q": [0.0, 0.0]', '"q": [1%s, 0.0]' % ("0" * 400)),
        _HEADER + _ROW.rstrip() + " x\n",
        _HEADER + _ROW.rstrip() + " " + _ROW,
        _HEADER + "\f" + _ROW,
        _HEADER + "\f\n" + _ROW,
        _HEADER + "\u00a0\n" + _ROW,
        _HEADER.replace("[1]", "[5]") + _ROW,
        _HEADER.replace("[1]", "[1, 1]") + _ROW.replace('"tau": [0.0]', '"tau": [0.0, 0.0]'),
        _HEADER.replace("[1]", "[1.7]") + _ROW,
        _HEADER.replace("[1]", '"1"') + _ROW,
        _HEADER.replace("[1]", '{"1": 0}') + _ROW,
        _HEADER.replace("[1]", "[0]").replace('"n_links": 2', '"n_links": true')
        + _ROW.replace("[0.0, 0.0]", "[0.0]"),
        # Strings and booleans that numpy would read as numbers.
        _HEADER + _ROW.replace('"t": 0.0', '"t": "0"'),
        _HEADER + _ROW.replace('"t": 0.0', '"t": true'),
        _HEADER + _ROW.replace('"q": [0.0, 0.0]', '"q": ["1", "2"]'),
        _HEADER + _ROW.replace('"q": [0.0, 0.0]', '"q": [true, 0.0]'),
        _HEADER + _ROW.replace('"tau": [0.0]', '"tau": ["0.5"]'),
        _HEADER + _ROW.replace('"tau": [0.0]', '"tau": [false]'),
        _HEADER + _ROW.replace('"G": 0.0', '"G": "1e3"'),
        _HEADER + _ROW.replace('"G": 0.0', '"G": true'),
    ],
    ids=[
        "header_without_n_links", "header_list", "row_list", "q_scalar", "q_strings", "t_list",
        "q_nested", "q_int_beyond_float_range", "trailing_data", "two_objects", "form_feed_start",
        "form_feed_line", "nbsp_line",
        "joint_out_of_range", "joints_repeated", "joint_not_integer", "joints_string",
        "joints_object", "n_links_bool", "t_string", "t_bool", "q_numeric_strings", "q_bool",
        "tau_string", "tau_bool", "G_string", "G_bool",
    ],
)
def test_jsonl_malformed_raises_schema_mismatch(tmp_path, text):
    f = tmp_path / "bad.jsonl"
    f.write_text(text)
    with pytest.raises(DatasetSchemaMismatch):
        TargetStore.load_jsonl(f)


_NEG_HEADER = _HEADER.replace('"n_links": 2', '"n_links": -1')


@pytest.mark.parametrize(
    "text",
    [
        _NEG_HEADER + _ROW,
        _NEG_HEADER,
        _HEADER.replace("[1]", "[5]") + _ROW,
        _HEADER.replace("[1]", "[1, 1]") + _ROW.replace('"tau": [0.0]', '"tau": [0.0, 0.0]'),
        _HEADER.replace("[1]", "[1.7]") + _ROW,
        _HEADER.replace("[1]", "[0]").replace('"n_links": 2', '"n_links": true')
        + _ROW.replace("[0.0, 0.0]", "[0.0]"),
    ],
    ids=[
        "n_links_negative", "n_links_negative_no_rows", "joint_out_of_range", "joints_repeated",
        "joint_not_integer", "n_links_bool",
    ],
)
def test_jsonl_bad_layout_blamed_on_header(tmp_path, text):
    # A header with an invalid chain layout is reported as such before any
    # row is read, not as a size mismatch of its first row or a reshape
    # failure of an empty file.
    f = tmp_path / "bad.jsonl"
    f.write_text(text)
    with pytest.raises(DatasetSchemaMismatch, match="bad chain layout"):
        TargetStore.load_jsonl(f)
