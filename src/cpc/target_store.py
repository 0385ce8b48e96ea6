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
scan over all points that reads one contiguous column per coordinate, so
the store keeps its arrays column-major. The scan runs on a retrieval
handle, ``NonEmptyStore``: views of the store's columns, which copy
nothing, and a fixed scratch block, so a warm query writes every
store-length intermediate into that block and allocates only arrays the
size of its result. A handle serves one query at a time. Besides ``t0``
and ``s``, the retrieved targets' errors (``target_errors``) are gathered
here from the same columns, so no other module reads the handle's layout.

Datasets are serialized as JSON Lines with a header row carrying the chain
layout. The writer builds one ``%.17g`` row template per
chain layout and formats and writes blocks of rows at a time, so its
transient strings stay bounded at any store size. The reader runs one
decoder call per line and converts each block of rows to float64 arrays
before it reads on, so its transient lists stay bounded too, and it joins
the blocks one field at a time into the column-major layout. Every float64
round-trips bit for bit, the sign of zero included.
"""

import json
import os

import numpy as np

from .dynamics import State, _chain_layout, _dot
from .errors import (
    DatasetSchemaMismatch,
    EmptyDataset,
    VelocityBarDegenerate,
)

DATASET_FORMAT = "chain-targets-v1"
DEFAULT_GUARD_TOL = 1e-6
_ONE_DIRECTION = (
    "the control law and candidate search support one unactuated direction"
    " and at least one actuator (N - M = 1, M >= 1)"
)
_JSON_WHITESPACE = " \t\n\r"
# Rows a save formats and writes per call, and rows a load collects before
# converting them to arrays: bounds the transient strings and lists of both
# independently of the store size.
_BLOCK = 1024


class TargetStore:
    """Read-only column-major arrays of recorded points and chain layout.

    ``q``, ``qdot`` and ``tau`` are F-contiguous (n, width) float64 arrays,
    so each coordinate is one contiguous column (see ``_read_only``). The
    flags of an array the caller passed in are unchanged.
    """

    def __init__(self, t, q, qdot, tau, G, n_links: int, actuated_joints: tuple[int, ...]):
        layout = _chain_layout(n_links, actuated_joints, DatasetSchemaMismatch)
        self.n_links, self.actuated_joints = layout
        self.t, self.G = _read_only(t), _read_only(G)
        self.q, self.qdot, self.tau = map(_read_only, (q, qdot, tau))
        n = len(self.t)
        if not (
            self.t.shape == (n,)
            and self.q.shape == (n, self.n_links)
            and self.qdot.shape == (n, self.n_links)
            and self.tau.shape == (n, len(self.actuated_joints))
            and self.G.shape == (n,)
        ):
            raise DatasetSchemaMismatch("array shapes inconsistent with chain layout")
        if any(not np.all(np.isfinite(a)) for a in (self.t, self.q, self.qdot, self.tau, self.G)):
            raise DatasetSchemaMismatch("dataset contains non-finite values")

    def __len__(self) -> int:
        return len(self.t)

    # -- serialization ------------------------------------------------------

    def save_jsonl(self, path) -> None:
        """Write the store to ``path`` as JSON Lines in a new file that
        replaces any file there: a hard link to the old file keeps the old
        bytes, and a symlink at ``path`` is replaced. (Truncating the old
        file makes ext4's ``auto_da_alloc`` flush it on close, which stalls
        repeated saves to one path.)"""
        n, m = self.n_links, len(self.actuated_joints)
        # '%.17g' on a Python float is format(x, ".17g"), which round-trips
        # every float64, so a loaded store is bit-equal to the saved one.
        template = '{"t": %%.17g, "q": %s, "qdot": %s, "tau": %s, "G": %%.17g}\n' % (
            _list_template(n), _list_template(n), _list_template(m)
        )
        try:
            os.unlink(path)
        except FileNotFoundError:
            pass
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
            widths = (1, n_links, n_links, len(joints), 1)
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
                    _convert_block(lists, blocks, widths)
            _convert_block(lists, blocks, widths)
        # Each field's (width, rows) blocks are joined into one C-ordered
        # (width, n) array and freed, so the join holds at most one field's
        # values twice. The transposes are column-major and handed over
        # read-only, so the store keeps them without a copy.
        n = sum(block.shape[1] for block in blocks[0])
        joined = []
        for width, field_blocks in zip(widths, blocks):
            joined.append(np.concatenate(field_blocks, axis=1, out=np.empty((width, n))))
            joined[-1].flags.writeable = False
            field_blocks.clear()
        t, q, qdot, tau, G = joined
        return cls(t[0], q.T, qdot.T, tau.T, G[0], n_links, joints)


def _read_only(x) -> np.ndarray:
    """``x`` as a read-only column-major float64 array: ``x`` itself when it
    is an F-contiguous array that neither it nor any array it views lets
    anyone write into (converted if it is not float64), else one
    column-major copy of it. 1-D arrays are F-contiguous when contiguous."""
    owner = x
    while isinstance(owner, np.ndarray) and not owner.flags.writeable:
        owner = owner.base
    keep = isinstance(x, np.ndarray) and x.flags.f_contiguous and not isinstance(owner, np.ndarray)
    a = np.asarray(x, dtype=float) if keep else np.array(x, dtype=float, order="F")
    a.flags.writeable = False
    return a


def _convert_block(lists, blocks, widths) -> None:
    """Append each field's collected values to its blocks as one
    (width, rows) float64 view of the rows' values, then empty the lists."""
    # Every JSON number decodes to a float; one type pass per field rejects
    # the rest, which numpy would convert ("1" and true to 1.0).
    rows = len(lists[0])
    names = ("t", "q", "qdot", "tau", "G")
    for name, values, width, field_blocks in zip(names, lists, widths, blocks):
        if not all(map(float.__instancecheck__, values)):
            raise DatasetSchemaMismatch(f"malformed values: {name} holds a non-number")
        field_blocks.append(np.fromiter(values, float, len(values)).reshape(rows, width).T)
        values.clear()


def _list_template(k: int) -> str:
    """Template of a JSON list of k floats, written as the JSON encoder's
    default separators would."""
    return "[" + ", ".join(["%.17g"] * k) + "]"


class NonEmptyStore:
    """Retrieval handle over a target store holding at least one point.

    It holds views of the store's ``q`` and ``qdot`` columns (one contiguous
    array per coordinate, as the store is column-major), so building it
    copies no stored value, and a fixed scratch block that every query
    writes its store-length intermediates into, so a warm query allocates
    nothing the length of the store. It therefore serves one query at a
    time: do not share a handle between threads. Arrays a query returns are
    fresh copies, never views of the scratch. The scan and ``target_errors``
    are the only readers of the columns, and the store's arrays cannot
    change under them (see ``_read_only``). Raises ValueError unless the
    store's chain has one unactuated direction and an actuator, as the
    control law's split requires.
    """

    def __init__(self, store: TargetStore):
        if len(store) == 0:
            raise EmptyDataset("cannot retrieve from zero points")
        if not 0 < len(store.actuated_joints) == store.n_links - 1:
            raise ValueError(_ONE_DIRECTION)
        self.store = store
        self._q_cols = tuple(store.q.T)
        self._qdot_cols = tuple(store.qdot.T)
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


def target_errors(
    x0: State, targets: NonEmptyStore, idx: np.ndarray, t0: np.ndarray, s: np.ndarray, split
) -> tuple[np.ndarray, np.ndarray]:
    """Errors (dchi, dchidot), each (n, M), of the current state against the
    renormalized targets q - qdot (t0 / s) + (qdot / s) t of the stored points
    ``idx`` (n,), in the controlled coordinates of ``split`` (a CoordSplit),
    which alone are gathered from the handle's columns. Raises ValueError
    for a zero s."""
    if np.count_nonzero(s) != len(s):
        raise ValueError("time scale s must be nonzero")
    r = t0 / s
    q0, qdot0 = x0.q.tolist(), x0.qdot.tolist()
    dchi, dchidot = np.empty((2, len(idx), len(split.controlled)))
    for j, c in enumerate(split.controlled):
        qdot_c = targets._qdot_cols[c][idx]
        np.subtract(q0[c], targets._q_cols[c][idx] - qdot_c * r, out=dchi[:, j])
        np.subtract(qdot0[c], qdot_c / s, out=dchidot[:, j])
    return dchi, dchidot


def _project_state(b, x, guard_tol):
    """(b . q, b . qdot) of one state for the covector ``b``, a list of N
    floats, by ``_project``'s arithmetic (``dynamics._dot``), so a stored
    copy of the state gets the same bits. Raises VelocityBarDegenerate when
    |b . qdot| is at most ``guard_tol``, the rule that keeps a stored point
    out of retrieval."""
    qbar, qdbar = _dot(x.q.tolist(), b), _dot(x.qdot.tolist(), b)
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
