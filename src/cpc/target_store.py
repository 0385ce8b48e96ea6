"""Store of recorded trajectory points and the retrieval scan over it.

The store keeps (state, torque, return) triples. Retrieval, like the
control law, handles chains with one unactuated direction: ``b`` is an (N,)
covector, and a retrieval handle refuses a store recorded on a chain with
any other number. For a query state ``x0``, each stored point gets a time
offset ``t0`` and time scale ``s`` from the projections onto ``b``: with
``qdbar0 = b . qdot0``, ``t0 = (b . q - b . q0) / qdbar0`` and
``s = (b . qdot) / qdbar0``. A point is scored by the proximity loss
``(omega * t0)^2 + (s - s_g)^2``, and the ``n_d`` lowest losses are
retrieved as arrays of indices, ``t0``, ``s`` and losses, ties broken by
dataset order. Points whose own projected velocity ``|b . qdot|`` is at
most the guard tolerance cannot be reparameterized and are never returned;
a query whose ``|qdbar0|`` is at most the tolerance raises
``VelocityBarDegenerate``.

``b`` changes every control cycle with the regressed control matrix, so no
static spatial index over the store can prune; retrieval is one vectorized
scan over all points. The scan runs on a retrieval handle,
``NonEmptyStore``, built once per trial: it holds column-major copies of the
store's ``q`` and ``qdot`` and a fixed scratch block, so a warm query writes
every store-length intermediate into that block and allocates only arrays
the size of its result. A handle serves one query at a time.

Datasets are serialized as JSON Lines with a header row carrying the chain
layout. The writer builds one ``%.17g`` row template per
chain layout and formats and writes blocks of rows at a time, so its
transient strings stay bounded at any store size. The reader runs one
decoder call per line and converts each block of rows to float64 arrays
before it reads on, so its transient lists stay bounded too. Every float64
round-trips bit for bit, the sign of zero included.
"""

import json

import numpy as np

from .dynamics import _chain_layout
from .errors import (
    DatasetSchemaMismatch,
    EmptyDataset,
    VelocityBarDegenerate,
)

DATASET_FORMAT = "chain-targets-v1"
DEFAULT_GUARD_TOL = 1e-6
_ONE_DIRECTION = "the control law and candidate search support one unactuated direction (N - M = 1)"
_JSON_WHITESPACE = " \t\n\r"
# Rows a save formats and writes per call, and rows a load collects before
# converting them to arrays: bounds the transient strings and lists of both
# independently of the store size.
_BLOCK = 1024


class TargetStore:
    """Read-only arrays of recorded points plus chain layout metadata."""

    def __init__(self, t, q, qdot, tau, G, n_links: int, actuated_joints: tuple[int, ...]):
        layout = _chain_layout(n_links, actuated_joints, DatasetSchemaMismatch)
        self.n_links, self.actuated_joints = layout
        self.t = np.asarray(t, dtype=float)
        self.q = np.atleast_2d(np.asarray(q, dtype=float))
        self.qdot = np.atleast_2d(np.asarray(qdot, dtype=float))
        self.tau = np.atleast_2d(np.asarray(tau, dtype=float))
        self.G = np.asarray(G, dtype=float)
        n = len(self.t)
        if not (
            self.t.shape == (n,)
            and self.q.shape == (n, self.n_links)
            and self.qdot.shape == (n, self.n_links)
            and self.tau.shape == (n, len(self.actuated_joints))
            and self.G.shape == (n,)
        ):
            raise DatasetSchemaMismatch("array shapes inconsistent with chain layout")
        arrays = (self.t, self.q, self.qdot, self.tau, self.G)
        if any(not np.all(np.isfinite(a)) for a in arrays):
            raise DatasetSchemaMismatch("dataset contains non-finite values")
        # Read-only views: an array the caller passed in keeps its own flags.
        for name, a in zip(("t", "q", "qdot", "tau", "G"), arrays):
            view = a.view()
            view.flags.writeable = False
            setattr(self, name, view)

    def __len__(self) -> int:
        return len(self.t)

    # -- serialization ------------------------------------------------------

    def save_jsonl(self, path) -> None:
        n, m = self.n_links, len(self.actuated_joints)
        # '%.17g' on a Python float is format(x, ".17g"), which round-trips
        # every float64, so a loaded store is bit-equal to the saved one.
        template = '{"t": %%.17g, "q": %s, "qdot": %s, "tau": %s, "G": %%.17g}\n' % (
            _list_template(n), _list_template(n), _list_template(m)
        )
        with open(path, "w", encoding="utf-8") as f:
            header = {
                "format": DATASET_FORMAT,
                "n_links": self.n_links,
                "actuated_joints": list(self.actuated_joints),
            }
            f.write(json.dumps(header, sort_keys=True) + "\n")
            for start in range(0, len(self), _BLOCK):
                rows = slice(start, start + _BLOCK)
                block = np.column_stack(
                    (self.t[rows], self.q[rows], self.qdot[rows], self.tau[rows], self.G[rows])
                )
                f.write((template * len(block)) % tuple(block.ravel().tolist()))

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
            if not isinstance(header, dict):
                raise DatasetSchemaMismatch("header is not a JSON object")
            if header.get("format") != DATASET_FORMAT:
                raise DatasetSchemaMismatch(f"unknown dataset format {header.get('format')!r}")
            # The layout is checked before any row is read, so a bad header
            # is reported as such and not as a mismatch of its first row.
            try:
                n_links, joints = _chain_layout(
                    header["n_links"], header["actuated_joints"], DatasetSchemaMismatch
                )
            except KeyError as e:
                raise DatasetSchemaMismatch(f"bad header: {e!r}") from e
            # Row values are floats: an integer literal is one that '%.17g'
            # wrote without a fraction, and reading it as a float keeps the
            # sign of "-0".
            decode = json.JSONDecoder(parse_int=float).raw_decode
            t, q, qdot, tau, G = lists = ([], [], [], [], [])
            blocks = ([], [], [], [], [])
            for lineno, line in enumerate(f, start=2):
                # json.loads(line) without its per-call set-up: strip JSON
                # whitespace, decode, and reject anything after the value.
                text = line.strip(_JSON_WHITESPACE)
                if not text:
                    continue
                try:
                    row, end = decode(text)
                    if end != len(text):
                        raise json.JSONDecodeError("Extra data", text, end)
                except json.JSONDecodeError as e:
                    raise DatasetSchemaMismatch(f"line {lineno}: {e}") from e
                try:
                    if len(row["q"]) != n_links or len(row["qdot"]) != n_links:
                        raise DatasetSchemaMismatch(f"line {lineno}: wrong state size")
                    if len(row["tau"]) != len(joints):
                        raise DatasetSchemaMismatch(f"line {lineno}: wrong torque size")
                    t.append(row["t"])
                    q.extend(row["q"])
                    qdot.extend(row["qdot"])
                    tau.extend(row["tau"])
                    G.append(row["G"])
                except (KeyError, TypeError) as e:
                    # A missing field, a row that is not an object, or a
                    # field without a length.
                    raise DatasetSchemaMismatch(f"line {lineno}: bad row: {e!r}") from e
                if len(t) == _BLOCK:
                    _convert_block(lists, blocks)
            _convert_block(lists, blocks)
        # q, qdot and tau hold every row's values in one flat array each.
        t, q, qdot, tau, G = map(np.concatenate, blocks)
        n = len(t)
        return cls(
            t,
            q.reshape(n, n_links),
            qdot.reshape(n, n_links),
            tau.reshape(n, len(joints)),
            G,
            n_links,
            joints,
        )


def _convert_block(lists, blocks) -> None:
    """Append each field's collected values to its blocks as one float64
    array, then empty the lists."""
    # Every JSON number decodes to a float; one type pass per field rejects
    # the rest, which numpy would convert ("1" and true to 1.0).
    for name, values, field_blocks in zip(("t", "q", "qdot", "tau", "G"), lists, blocks):
        if not all(map(float.__instancecheck__, values)):
            raise DatasetSchemaMismatch(f"malformed values: {name} holds a non-number")
        field_blocks.append(np.fromiter(values, float, len(values)))
        values.clear()


def _list_template(k: int) -> str:
    """Template of a JSON list of k floats, written as the JSON encoder's
    default separators would."""
    return "[" + ", ".join(["%.17g"] * k) + "]"


class NonEmptyStore:
    """Retrieval handle over a target store holding at least one point.

    Built once per trial, it holds column-major copies of the store's ``q``
    and ``qdot`` (one contiguous array per coordinate) and a fixed scratch
    block that every query writes its store-length intermediates into, so a
    warm query allocates nothing the length of the store. It therefore
    serves one query at a time: do not share a handle between threads.
    Arrays a query returns are fresh copies, never views of the scratch.
    ``control_law.target_errors`` gathers retrieved points from the columns
    too. The store must not change while the handle exists: its arrays are
    read-only views, and those it was built from must not be written.
    Raises ValueError unless the store's chain has one unactuated direction.
    """

    def __init__(self, store: TargetStore):
        if len(store) == 0:
            raise EmptyDataset("cannot retrieve from zero points")
        if store.n_links - len(store.actuated_joints) != 1:
            raise ValueError(_ONE_DIRECTION)
        self.store = store
        q = np.asfortranarray(store.q)
        qdot = np.asfortranarray(store.qdot)
        self._q_cols = tuple(q[:, d] for d in range(store.n_links))
        self._qdot_cols = tuple(qdot[:, d] for d in range(store.n_links))
        self._rows = np.empty((4, len(store)))
        self._masks = np.empty((2, len(store)), dtype=bool)


def _query_arrays(targets, x0, b, omega, s_g, n_d, guard_tol):
    """The n_d lowest-loss stored points for the query state: (indices, t0,
    s, loss) of the selected points in ascending (loss, index) order."""
    b = b.tolist()
    qbar0, qdbar0 = _project_state(b, x0, guard_tol)
    # Every store-length intermediate lives in the handle's scratch rows;
    # guard-failing points stay in place and are masked out by ``ok``.
    t0, s, loss, tmp = targets._rows
    ok, near = targets._masks
    _project(targets._q_cols, b, t0, tmp)
    _project(targets._qdot_cols, b, s, tmp)
    np.greater(np.absolute(s, out=tmp), guard_tol, out=ok)
    np.divide(np.subtract(t0, qbar0, out=t0), qdbar0, out=t0)
    np.divide(s, qdbar0, out=s)
    np.square(np.multiply(t0, omega, out=loss), out=loss)
    np.add(loss, np.square(np.subtract(s, s_g, out=tmp), out=tmp), out=loss)
    # Only points at or below the n_d-th smallest loss can be selected;
    # keeping every point that ties it leaves the index tie-break intact.
    # With at most n_d points passing the guard, that entry of the
    # +inf-filled row is +inf or their largest loss, so every one is kept.
    kth = min(n_d, len(loss)) - 1
    tmp.fill(np.inf)
    np.copyto(tmp, loss, where=ok)
    tmp.partition(kth)
    np.logical_and(np.less_equal(loss, tmp[kth], out=near), ok, out=near)
    idx = np.flatnonzero(near)
    loss = loss[idx]
    order = np.lexsort((idx, loss))[:n_d]
    idx = idx[order]
    return idx, t0[idx], s[idx], loss[order]


def _project_state(b, x, guard_tol):
    """(b . q, b . qdot) of one state for the covector ``b``, a list of N
    floats, by ``_project``'s arithmetic, so a stored copy of the state gets
    the same bits. Raises VelocityBarDegenerate when |b . qdot| is at most
    ``guard_tol``, the rule that keeps a stored point out of retrieval."""
    q, qdot = x.q.tolist(), x.qdot.tolist()
    qbar, qdbar = q[0] * b[0], qdot[0] * b[0]
    for d in range(1, len(b)):
        qbar = qbar + q[d] * b[d]
        qdbar = qdbar + qdot[d] * b[d]
    if abs(qdbar) <= guard_tol:
        raise VelocityBarDegenerate(
            f"|unactuated velocity projection| = {abs(qdbar):.3g} <= {guard_tol:g}"
        )
    return qbar, qdbar


def _project(cols, b, out, tmp):
    """Row-wise dot products of the store columns ``cols`` with b, written
    into ``out`` (``tmp`` is scratch of the same length). The products are
    added column by column in a fixed order without fused multiply-adds, so
    the result does not depend on the BLAS build, and ``_project_state``
    projects the query state by the same rule. The B regression and the
    split that give b run on Python floats too."""
    np.multiply(cols[0], b[0], out=out)
    for d in range(1, len(b)):
        np.add(out, np.multiply(cols[d], b[d], out=tmp), out=out)
