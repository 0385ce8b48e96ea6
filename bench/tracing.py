"""Opt-in call tracing for the benchmark, done from outside the package.

``Tracer`` replaces named attributes of the ``cpc`` modules (the names each
caller looks up at call time) with timing wrappers, records one span per
call, and restores the originals on exit. A name that no longer exists is
reported as missing instead of failing the run, so the package's internals
can be refactored without breaking the benchmark.

``check_queries`` compares sampled retrieval results against the
benchmark's own numpy scan; the package's own oracles are not used, so the
check stays valid when they move into the tests.
"""

import functools
import inspect
from collections import defaultdict

import numpy as np

from cpc import controller, dynamics, experiments
from cpc.errors import CpcError, VelocityBarDegenerate
from cpc.target_store import TargetStore

# (layer name, owner, attribute): the attribute is what the caller resolves
# on each call, so wrapping it intercepts exactly that caller's calls.
LAYERS = (
    ("controller.step", experiments, "controller_step"),
    ("dynamics.step", dynamics, "step"),
    ("target_store.query", controller, "_query_arrays"),
    ("control_law.estimate_B", controller, "estimate_control_matrix"),
    ("value.candidate_costs", controller, "candidate_costs"),
    ("control_law.cpc_tau", controller, "cpc_tau"),
    ("target_store.index_build", experiments, "BallTree"),
    ("target_store.save_jsonl", TargetStore, "save_jsonl"),
    ("target_store.load_jsonl", TargetStore, "load_jsonl"),
    ("experiments.generate_falls", experiments, "generate_falls"),
)

# Every QUERY_SAMPLE_EVERY-th retrieval call is kept for check_queries.
QUERY_SAMPLE_EVERY = 5

# Relative tolerance to which check_queries compares losses.
LOSS_RTOL = 1e-9

# Children of one controller cycle whose package errors mean the cycle fell
# back instead of applying a selected target.
_CYCLE_CHILDREN = (
    "target_store.query",
    "control_law.estimate_B",
    "value.candidate_costs",
    "control_law.cpc_tau",
)


class _Frame:
    __slots__ = ("child_s", "child_calls", "child_error")

    def __init__(self):
        self.child_s = 0.0
        self.child_calls = defaultdict(int)
        self.child_error = False


class Tracer:
    """Context manager that wraps ``LAYERS`` and collects spans.

    ``spans[name]`` holds call durations in seconds; ``cycles`` holds one
    ``(self_s, reached_estimation, fell_back, cost_calls)`` tuple per
    controller cycle. Durations are measured with ``clock``.
    """

    def __init__(self, clock):
        self.clock = clock
        self.spans = defaultdict(list)
        self.errors = defaultdict(int)
        self.cycles = []
        self.query_samples = []
        self.missing = []
        self._stack = []
        self._saved = []

    def __enter__(self):
        for name, owner, attr in LAYERS:
            static = inspect.getattr_static(owner, attr, None)
            if static is None:
                self.missing.append(name)
                continue
            if isinstance(static, classmethod):
                replacement = classmethod(self._wrap(name, static.__func__))
            else:
                replacement = self._wrap(name, static)
            self._saved.append((owner, attr, static))
            setattr(owner, attr, replacement)
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, static = self._saved.pop()
            setattr(owner, attr, static)
        return False

    def mark(self):
        """Position to pass to ``rescale`` once the following work is done."""
        return {k: len(v) for k, v in self.spans.items()}, len(self.cycles)

    def rescale(self, mark, factor: float) -> None:
        """Multiply every duration recorded since ``mark`` by ``factor``."""
        lengths, n_cycles = mark
        for name, durations in self.spans.items():
            start = lengths.get(name, 0)
            durations[start:] = [d * factor for d in durations[start:]]
        self.cycles[n_cycles:] = [(c[0] * factor,) + c[1:] for c in self.cycles[n_cycles:]]

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = _Frame()
            self._stack.append(frame)
            error = None
            t0 = self.clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as e:
                error = e
                raise
            finally:
                dt = self.clock() - t0
                self._stack.pop()
                self._record(name, args, dt, frame, error, None if error else result)
            return result

        return traced

    def _record(self, name, args, dt, frame, error, result):
        span = name
        if name == "dynamics.step":
            n_links = getattr(args[0], "n_links", 2) if args else 2
            if n_links != 2:
                span = f"dynamics.step_n{n_links}"
        self.spans[span].append(dt)
        if error is not None:
            self.errors[(name, type(error).__name__)] += 1
        if self._stack:
            parent = self._stack[-1]
            parent.child_s += dt
            parent.child_calls[name] += 1
            if isinstance(error, CpcError) and name in _CYCLE_CHILDREN:
                parent.child_error = True
        if name == "controller.step":
            reached = frame.child_calls["control_law.estimate_B"] > 0
            self.cycles.append(
                (dt - frame.child_s, reached, reached and frame.child_error,
                 frame.child_calls["value.candidate_costs"])
            )
        elif name == "target_store.query":
            calls = len(self.spans[span])
            if (calls - 1) % QUERY_SAMPLE_EVERY == 0:
                self.query_samples.append(_query_sample(args, error, result))


def _query_sample(args, error, result):
    """Copy what the oracle needs from one retrieval call, or None when the
    call's arguments are not in the expected shape."""
    try:
        tree, x0, b, omega, s_g, n_d, guard_tol = args
        store = tree.store
        sample = {
            "q": store.q, "qdot": store.qdot,
            "q0": np.array(x0.q, dtype=float), "qdot0": np.array(x0.qdot, dtype=float),
            "b": np.array(b, dtype=float), "omega": float(omega), "s_g": float(s_g),
            "n_d": int(n_d), "guard_tol": float(guard_tol),
            "degenerate": isinstance(error, VelocityBarDegenerate),
        }
        if result is not None:
            sample["idx"] = np.array(result[0], dtype=np.int64)
            sample["loss"] = np.array(result[3], dtype=float)
        return sample
    except (TypeError, ValueError, AttributeError, IndexError):
        return None


def scan_candidates(q, qdot, q0, qdot0, b, omega, s_g, n_d, guard_tol):
    """Brute-force retrieval: the n_d lowest proximity losses among stored
    points that pass the velocity guard, ordered by (loss, index).

    Returns (selected indices, all losses, guard mask), or None when the
    query itself fails the guard."""
    if b.ndim == 2:
        b = b[:, 0]
    qdbar0 = float(b @ qdot0)
    if abs(qdbar0) <= guard_tol:
        return None
    qbar0 = float(b @ q0)
    qb = q @ b
    qdb = qdot @ b
    t0 = (qb - qbar0) / qdbar0
    s = qdb / qdbar0
    loss = (omega * t0) ** 2 + (s - s_g) ** 2
    valid = np.abs(qdb) > guard_tol
    idx = np.flatnonzero(valid)
    order = np.lexsort((idx, loss[idx]))[:n_d]
    return idx[order], loss, valid


def check_queries(samples) -> tuple[int, int, int]:
    """(checked, mismatched, uninterpretable) over sampled retrieval calls.

    Reported losses must match the scan's to ``LOSS_RTOL``. Reported indices
    must match too, except that a guard-valid point whose loss ties the
    scan's within that tolerance may take its place."""
    checked = mismatched = unreadable = 0
    for smp in samples:
        if smp is None:
            unreadable += 1
            continue
        checked += 1
        ref = scan_candidates(
            smp["q"], smp["qdot"], smp["q0"], smp["qdot0"], smp["b"],
            smp["omega"], smp["s_g"], smp["n_d"], smp["guard_tol"],
        )
        if ref is None or smp["degenerate"]:
            mismatched += (ref is None) != smp["degenerate"]
            continue
        if "idx" not in smp:
            mismatched += 1
            continue
        ref_idx, loss_all, valid = ref
        idx, loss = smp["idx"], smp["loss"]
        if idx.shape != ref_idx.shape or len(np.unique(idx)) != len(idx):
            mismatched += 1
            continue
        if np.any((idx < 0) | (idx >= len(valid))) or not np.all(valid[idx]):
            mismatched += 1
            continue
        ref_loss = loss_all[ref_idx]
        tol = LOSS_RTOL * np.maximum(1.0, np.abs(ref_loss))
        ok = np.all(np.abs(loss - ref_loss) <= tol) and np.all(
            (idx == ref_idx) | (np.abs(loss_all[idx] - ref_loss) <= tol)
        )
        mismatched += not ok
    return checked, mismatched, unreadable
