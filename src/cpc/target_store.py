"""Store of recorded trajectory points and the candidate retrieval over it.

The store keeps (state, torque, return) triples. For a query state ``x0``
and the unactuated direction ``b``, each stored point gets a time offset
``t0`` and time scale ``s`` from the projections onto ``b``: with
``qdbar0 = b . qdot0``, ``t0 = (b . q - b . q0) / qdbar0`` and
``s = (b . qdot) / qdbar0``. A point is scored by the proximity loss
``(omega * t0)^2 + (s - s_g)^2``, and the ``n_d`` lowest losses are
retrieved, ties broken by dataset order. Points whose own projected
velocity ``|b . qdot|`` is at most the guard tolerance cannot be
reparameterized and are never returned; a query whose ``|qdbar0|`` is at
most the tolerance raises ``VelocityBarDegenerate``.

``b`` changes every control cycle with the regressed control matrix, so no
static spatial index over the store can prune; retrieval is one vectorized
scan over all points.

Only a single unactuated direction is supported (the covector ``b`` must
have one column); datasets are serialized as JSON Lines with a header row
carrying the chain layout.
"""

import json
from dataclasses import dataclass

import numpy as np

from .dynamics import State
from .errors import (
    DatasetSchemaMismatch,
    EmptyDataset,
    VelocityBarDegenerate,
)

DATASET_FORMAT = "chain-targets-v1"
DEFAULT_GUARD_TOL = 1e-6


@dataclass
class DataPoint:
    """One recorded sample: time, state, applied torques and return."""

    t: float
    x: State
    tau: np.ndarray
    G: float


@dataclass
class TargetCandidate:
    """A stored point paired with its reparameterization and loss."""

    point: DataPoint
    index: int
    t0: float
    s: float
    loss: float


def proximity_loss(t0: float, s: float, omega: float, s_g: float) -> float:
    """Candidate quality score; zero only for t0 = 0 and s = s_g."""
    return (omega * t0) ** 2 + (s - s_g) ** 2


class TargetStore:
    """Immutable arrays of recorded data points plus chain layout metadata."""

    def __init__(self, t, q, qdot, tau, G, n_links: int, actuated_joints: tuple[int, ...]):
        self.t = np.asarray(t, dtype=float)
        self.q = np.atleast_2d(np.asarray(q, dtype=float))
        self.qdot = np.atleast_2d(np.asarray(qdot, dtype=float))
        self.tau = np.atleast_2d(np.asarray(tau, dtype=float))
        self.G = np.asarray(G, dtype=float)
        self.n_links = int(n_links)
        self.actuated_joints = tuple(int(j) for j in actuated_joints)
        n = len(self.t)
        if not (
            self.q.shape == (n, self.n_links)
            and self.qdot.shape == (n, self.n_links)
            and self.tau.shape == (n, len(self.actuated_joints))
            and self.G.shape == (n,)
        ):
            raise DatasetSchemaMismatch("array shapes inconsistent with chain layout")
        arrays = (self.t, self.q, self.qdot, self.tau, self.G)
        if any(not np.all(np.isfinite(a)) for a in arrays):
            raise DatasetSchemaMismatch("dataset contains non-finite values")

    def __len__(self) -> int:
        return len(self.t)

    def point(self, i: int) -> DataPoint:
        return DataPoint(
            float(self.t[i]),
            State(self.q[i].copy(), self.qdot[i].copy(), float(self.t[i])),
            self.tau[i].copy(),
            float(self.G[i]),
        )

    @classmethod
    def from_points(
        cls, points: list[DataPoint], n_links: int, actuated_joints: tuple[int, ...]
    ) -> "TargetStore":
        return cls(
            [p.t for p in points],
            [p.x.q for p in points],
            [p.x.qdot for p in points],
            [p.tau for p in points],
            [p.G for p in points],
            n_links,
            actuated_joints,
        )

    # -- serialization ------------------------------------------------------

    def save_jsonl(self, path) -> None:
        def fmt(x: float) -> str:
            return format(float(x), ".17g")

        def arr(a) -> str:
            return "[" + ", ".join(fmt(v) for v in a) + "]"

        with open(path, "w", encoding="utf-8") as f:
            header = {
                "format": DATASET_FORMAT,
                "n_links": self.n_links,
                "actuated_joints": list(self.actuated_joints),
            }
            f.write(json.dumps(header, sort_keys=True) + "\n")
            for i in range(len(self)):
                f.write(
                    '{"t": %s, "q": %s, "qdot": %s, "tau": %s, "G": %s}\n'
                    % (fmt(self.t[i]), arr(self.q[i]), arr(self.qdot[i]), arr(self.tau[i]), fmt(self.G[i]))
                )

    @classmethod
    def load_jsonl(cls, path) -> "TargetStore":
        with open(path, "r", encoding="utf-8") as f:
            header_line = f.readline()
            if not header_line:
                raise DatasetSchemaMismatch("empty dataset file")
            try:
                header = json.loads(header_line)
            except json.JSONDecodeError as e:
                raise DatasetSchemaMismatch(f"bad header: {e}") from e
            if header.get("format") != DATASET_FORMAT:
                raise DatasetSchemaMismatch(f"unknown dataset format {header.get('format')!r}")
            n_links = header["n_links"]
            joints = tuple(header["actuated_joints"])
            t, q, qdot, tau, G = [], [], [], [], []
            for lineno, line in enumerate(f, start=2):
                if not line.strip():
                    continue
                try:
                    row = json.loads(line)
                except json.JSONDecodeError as e:
                    raise DatasetSchemaMismatch(f"line {lineno}: {e}") from e
                try:
                    if len(row["q"]) != n_links or len(row["qdot"]) != n_links:
                        raise DatasetSchemaMismatch(f"line {lineno}: wrong state size")
                    if len(row["tau"]) != len(joints):
                        raise DatasetSchemaMismatch(f"line {lineno}: wrong torque size")
                    t.append(row["t"])
                    q.append(row["q"])
                    qdot.append(row["qdot"])
                    tau.append(row["tau"])
                    G.append(row["G"])
                except KeyError as e:
                    raise DatasetSchemaMismatch(f"line {lineno}: missing field {e}") from e
        if not t:
            return cls(
                np.empty(0), np.empty((0, n_links)), np.empty((0, n_links)),
                np.empty((0, len(joints))), np.empty(0), n_links, joints,
            )
        return cls(t, q, qdot, tau, G, n_links, joints)


@dataclass(frozen=True)
class NonEmptyStore:
    """A target store that retrieval may run on: it holds at least one point,
    so a query that passes the guard always has a store to scan."""

    store: TargetStore

    def __post_init__(self):
        if len(self.store) == 0:
            raise EmptyDataset("cannot retrieve from zero points")


def build(points: list[DataPoint], n_links: int, actuated_joints: tuple[int, ...]) -> NonEmptyStore:
    """Retrieval handle over a list of data points."""
    if not points:
        raise EmptyDataset("cannot retrieve from zero points")
    return NonEmptyStore(TargetStore.from_points(points, n_links, actuated_joints))


def query_candidates(
    targets: NonEmptyStore,
    x0: State,
    b: np.ndarray,
    omega: float,
    s_g: float,
    n_d: int,
    guard_tol: float = DEFAULT_GUARD_TOL,
) -> list[TargetCandidate]:
    """The n_d lowest-loss stored points for the query state, each with its
    time reparameterization; ties break on dataset order."""
    if n_d < 1:
        raise ValueError("n_d must be >= 1")
    idx, t0, s, loss = _query_arrays(targets, x0, b, omega, s_g, n_d, guard_tol)
    return [
        TargetCandidate(targets.store.point(int(i)), int(i), float(a), float(c), float(l))
        for i, a, c, l in zip(idx, t0, s, loss)
    ]


def _query_arrays(targets, x0, b, omega, s_g, n_d, guard_tol):
    """Array-level query used by the runtime control loop: (indices, t0, s,
    loss) of the selected points in ascending (loss, index) order."""
    b = np.asarray(b, dtype=float)
    if b.ndim == 2:
        if b.shape[1] != 1:
            raise ValueError("candidate search supports one unactuated direction")
        b = b[:, 0]
    qdbar0 = float(b @ x0.qdot)
    if abs(qdbar0) <= guard_tol:
        raise VelocityBarDegenerate(
            f"|unactuated velocity projection| = {abs(qdbar0):.3g} <= {guard_tol:g}"
        )
    qbar0 = float(b @ x0.q)
    qb = _project(targets.store.q, b)
    qdb = _project(targets.store.qdot, b)
    idx = np.flatnonzero(np.abs(qdb) > guard_tol)
    t0 = (qb[idx] - qbar0) / qdbar0
    s = qdb[idx] / qdbar0
    loss = (omega * t0) ** 2 + (s - s_g) ** 2
    if len(idx) > n_d:
        # Only points at or below the n_d-th smallest loss can be selected;
        # keeping every point that ties it leaves the index tie-break intact.
        kth = np.partition(loss, n_d - 1)[n_d - 1]
        near = np.flatnonzero(loss <= kth)
        idx, t0, s, loss = idx[near], t0[near], s[near], loss[near]
    order = np.lexsort((idx, loss))[:n_d]
    return idx[order], t0[order], s[order], loss[order]


def _project(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products a @ b, added column by column in a fixed order
    without fused multiply-adds, so the result does not depend on the BLAS
    build and retrieval reproduces bit for bit across hosts."""
    out = a[:, 0] * b[0]
    for d in range(1, len(b)):
        out += a[:, d] * b[d]
    return out
