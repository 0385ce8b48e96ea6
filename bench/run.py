"""Benchmark of the cpc balance-from-falls pipeline.

    python3 bench/run.py --workload balance_small --seed 1 --seconds 20 --trace 0

Workloads (bench/README.md says why each exists):

- ``balance_small``: closed-loop balance trials at n_f = 3, each recording
  its own fresh falls, as in the paper's sweep protocol.
- ``balance_large``: closed-loop balance trials at n_f = 100, all sharing
  one store recorded during set-up.
- ``record_falls``: no controller; records acrobot and 5-link chain falls.

Every recorded store is saved as JSON Lines and loaded back, and the loaded
copy is what the controller uses. Load is a single closed loop in one
process: a cycle starts only after the previous cycle and its simulation
step have finished.

With ``--trace 0`` the end-to-end metrics are measured with tracing off.
With ``--trace 1`` the same units of work run twice, untraced and then
traced (see tracing.py), and the per-layer metrics come from the traced
pass. Human-readable lines and a full JSON report precede the last line of
standard output, which is the result object
``{"correct", "attempted", "failed", "metrics"}``.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(ROOT / "src"))

import cpc  # noqa: E402

if Path(cpc.__file__).resolve().parent != (ROOT / "src" / "cpc").resolve():
    raise ImportError(f"cpc must be imported from {ROOT / 'src'}, got {cpc.__file__}")

from cpc import experiments  # noqa: E402
from cpc.dynamics import ChainParams  # noqa: E402
from cpc.target_store import TargetStore  # noqa: E402

import tracing  # noqa: E402
from calibration import Calibrator  # noqa: E402

WORKLOADS = ("balance_small", "balance_large", "record_falls")
CHAIN_N5 = ChainParams(n_links=5, actuated_joints=(1, 2, 3, 4))


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; the defaults define the benchmark."""

    n_f_small: int = 3
    n_f_large: int = 100
    n_f_record: int = 100
    n_f_record_n5: int = 20
    # Trial horizons. balance_large stops each attempt early: at ~100 ms
    # per cycle a full trial would give one or two units per run.
    t_max_small: float = 2.0
    t_max_large: float = 0.5
    warmup_t_max: float = 0.12
    setup_reps: int = 5
    # Every run completes at least this many trials, whatever the host
    # speed, and the mean fall time is taken over exactly these trial seeds.
    tf_trials_small: int = 40
    tf_trials_large: int = 5


TINY = Sizes(n_f_small=2, n_f_large=4, n_f_record=3, n_f_record_n5=1,
             t_max_small=0.3, t_max_large=0.2, setup_reps=2,
             tf_trials_small=2, tf_trials_large=1)


@dataclass
class Tally:
    """Samples, outcomes and gate results of one pass over the workload.

    ``samples[kind]`` holds ``(host_s, factor, amount, unit)`` per
    operation, where ``factor`` converts the operation's host seconds into
    uncontended host seconds (see calibration.py). ``factors`` holds the
    same factor for each whole unit.
    """

    samples: dict = field(default_factory=lambda: defaultdict(list))
    factors: list = field(default_factory=list)
    records: list = field(default_factory=list)
    digests: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    roundtrip_mismatches: int = 0
    invalid_records: int = 0

    def add(self, kind: str, host_s: float, factor: float, amount: float = 1.0) -> None:
        self.samples[kind].append((host_s, factor, amount, len(self.factors)))

    def attempt(self, fn, *args, **kwargs):
        """Run one operation, counting it; returns None if it raised."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None

    def rate(self, kind: str, normalised: bool = True) -> float:
        """Median over units of seconds per unit of amount; NaN when the
        kind was never sampled."""
        per_unit = defaultdict(lambda: [0.0, 0.0])
        for host_s, factor, n, unit in self.samples[kind]:
            per_unit[unit][0] += host_s * (factor if normalised else 1.0)
            per_unit[unit][1] += n
        rates = [s / n for s, n in per_unit.values()]
        return statistics.median(rates) if rates else math.nan


def store_digest(store) -> str:
    h = hashlib.sha256()
    h.update(repr((store.n_links, store.actuated_joints)).encode())
    for a in (store.t, store.q, store.qdot, store.tau, store.G):
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def tally_digest(tally) -> str:
    """Digest of a pass's outputs: each TrialRecord's (seed, t_f, fell) and
    each recorded store's arrays."""
    lines = "".join(f"{r.seed}:{float(r.t_f).hex()}:{bool(r.fell)}\n" for r in tally.records)
    return hashlib.sha256((lines + "".join(tally.digests)).encode()).hexdigest()


class Workload:
    """One benchmark workload: a repeatable set-up and numbered units of
    timed work, all seeded from the workload seed.

    Each timed operation, set-up repetition and unit gets its own
    normalisation factor from ``cal``, so co-tenant load on the host cancels
    out of the reported figures. All timings use ``cal.now``, which excludes
    calibration. The balance workloads run at least ``fixed_trials`` units,
    so that every run has the same first trial seeds.
    """

    def __init__(self, name: str, seed: int, sizes: Sizes, tmpdir: Path, cal: Calibrator):
        self.name = name
        self.seed = seed
        self.sizes = sizes
        self.tmpdir = tmpdir
        self.cal = cal
        self.fixed_trials = {"balance_small": sizes.tf_trials_small,
                             "balance_large": sizes.tf_trials_large}.get(name, 0)
        t_max = sizes.t_max_large if name == "balance_large" else sizes.t_max_small
        self.cfg = experiments.ExperimentConfig(t_max=t_max, workers=1)
        self.noise_amp = self.cfg.noise_mult * self.cfg.sigma0
        self.store = None
        self.tracer = None

    def seed_for(self, tag: str, index: int) -> int:
        return experiments.trial_seed(self.seed, f"{self.name}-{tag}", index)

    # -- operations ---------------------------------------------------------

    def timed(self, tally: Tally, fn, *args, **kwargs):
        """Attempt one operation; returns (result or None, host seconds,
        normalisation factor)."""
        mark = self.cal.mark()
        t0 = self.cal.now()
        result = tally.attempt(fn, *args, **kwargs)
        dt = self.cal.now() - t0
        return result, dt, self.cal.factor(mark)

    def record(self, tally: Tally, n_f: int, seed: int, params=None):
        """Record falls and persist them; returns the loaded copy or None."""
        store, dt, factor = self.timed(
            tally, experiments.generate_falls, self.cfg, n_f, seed, params=params
        )
        if store is None:
            return None
        n_links = 2 if params is None else params.n_links
        tally.add(f"record_n{n_links}", dt, factor, len(store))
        return self.persist(tally, store)

    def round_trip(self, store):
        path = self.tmpdir / "store.jsonl"
        store.save_jsonl(path)
        return TargetStore.load_jsonl(path)

    def persist(self, tally: Tally, store):
        """Save and reload a store, checking that nothing changed."""
        loaded, dt, factor = self.timed(tally, self.round_trip, store)
        if loaded is None:
            return None
        tally.add(f"jsonl_n{store.n_links}", dt, factor, len(store))
        same = (
            loaded.n_links == store.n_links
            and loaded.actuated_joints == store.actuated_joints
            and all(
                np.array_equal(getattr(loaded, k), getattr(store, k))
                for k in ("t", "q", "qdot", "tau", "G")
            )
        )
        tally.roundtrip_mismatches += not same
        tally.digests.append(store_digest(loaded))
        return loaded

    def trial(self, tally: Tally, store, seed: int, trial_id: int, n_f: int, cfg=None):
        cfg = cfg or self.cfg
        rec, dt, factor = self.timed(
            tally, experiments.run_balance_trial, store, cfg, self.noise_amp, seed,
            trial_id=trial_id, n_f=n_f,
        )
        if rec is None:
            return
        # t_f is dt summed step by step, so compare whole steps.
        steps, max_steps = round(rec.t_f / cfg.dt), round(cfg.t_max / cfg.dt)
        valid = 0 < steps <= max_steps and (rec.fell or steps == max_steps)
        tally.invalid_records += not valid
        if cfg is self.cfg:
            tally.add("trial", dt, factor, steps)
            tally.records.append(rec)

    # -- phases -------------------------------------------------------------

    def setup(self, tally: Tally) -> None:
        """Prepare shared inputs and run one short pass of the timed
        operations on them, so caches are warm before timing."""
        warm = replace(self.cfg, t_max=self.sizes.warmup_t_max)
        if self.name == "balance_small":
            store = self.record(tally, self.sizes.n_f_small, self.seed_for("warmup", 0))
            if store is not None:
                self.trial(tally, store, self.seed_for("warmup", 1), 0, self.sizes.n_f_small, warm)
        elif self.name == "balance_large":
            self.store = self.record(tally, self.sizes.n_f_large, self.seed_for("falls", 0))
            if self.store is not None:
                self.trial(tally, self.store, self.seed_for("warmup", 1), 0, self.sizes.n_f_large, warm)
        else:
            self.record(tally, 1, self.seed_for("warmup", 0))
            self.record(tally, 1, self.seed_for("warmup", 1), params=CHAIN_N5)

    def unit(self, tally: Tally, i: int) -> None:
        """Unit i of timed work: one trial, or one recording of either chain
        (kept apart so each unit's normalisation spans a short interval)."""
        if self.name == "balance_small":
            seed = self.seed_for("trial", i)
            store = self.record(tally, self.sizes.n_f_small, experiments.trial_seed(seed, "falls", 0))
            if store is not None:
                self.trial(tally, store, seed, i, self.sizes.n_f_small)
        elif self.name == "balance_large":
            if self.store is not None:
                self.trial(tally, self.store, self.seed_for("trial", i), i, self.sizes.n_f_large)
        elif i % 2 == 0:
            self.record(tally, self.sizes.n_f_record, self.seed_for("n2", i // 2))
        else:
            self.record(tally, self.sizes.n_f_record_n5, self.seed_for("n5", i // 2), params=CHAIN_N5)

    def measured(self, tally: Tally, body, *args, wall_kind: str = None) -> None:
        """Run ``body(tally, *args)`` as one unit and close it with its
        normalisation factor."""
        cal_mark = self.cal.mark()
        mark = self.tracer.mark() if self.tracer else None
        t0 = self.cal.now()
        body(tally, *args)
        dt = self.cal.now() - t0
        factor = self.cal.factor(cal_mark)
        if wall_kind:
            tally.add(wall_kind, dt, factor)
        if self.tracer:
            self.tracer.rescale(mark, factor)
        tally.factors.append(factor)

    def run_setups(self, tally: Tally, reps: int) -> None:
        for _ in range(reps):
            self.measured(tally, self.setup, wall_kind="setup")

    def run_units(self, tally: Tally, seconds: float = None, count: int = None) -> int:
        """Run units until ``seconds`` have passed and at least
        ``fixed_trials`` units (or one recording of each chain) have run or,
        given ``count``, exactly that many; returns the number run."""
        t_end = time.perf_counter() + (seconds or 0.0)
        min_units = 2 if self.name == "record_falls" else self.fixed_trials
        i = 0
        while (i < count) if count is not None else (i < min_units or time.perf_counter() < t_end):
            self.measured(tally, self.unit, i)
            i += 1
        return i


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def cycle_ms(tally: Tally, normalised: bool = True) -> float:
    """Host ms per simulated control period dt of the timed phase: a
    closed-loop cycle in the balance workloads; in record_falls, a recording
    step of either chain, weighted by the steps each chain records."""
    if tally.samples["trial"]:
        return 1e3 * tally.rate("trial", normalised=normalised)
    steps = {k: tally.samples[k][0][2] for k in ("record_n2", "record_n5")}
    total = sum(steps[k] * tally.rate(k, normalised=normalised) for k in steps)
    return 1e3 * total / sum(steps.values())


def mean_tf_s(tally: Tally, trials: int) -> float:
    """Mean fall time over the trials of the first ``trials`` units, the
    same seeds in every run; NaN unless all of them finished."""
    t_f = [r.t_f for r in tally.records if r.trial_id < trials]
    return float(np.mean(t_f)) if trials and len(t_f) == trials else math.nan


def end_to_end(setup: Tally, timed: Tally) -> dict:
    # balance_large records only during set-up, so its recording and JSONL
    # figures come from the set-up repetitions.
    rec = timed if timed.samples["record_n2"] else setup
    return {
        "setup_s": (setup.rate("setup"), "s"),
        "cycle_ms": (cycle_ms(timed), "ms"),
        "record_us_per_step": (1e6 * rec.rate("record_n2"), "us"),
        "jsonl_ms_per_kpt": (1e6 * rec.rate("jsonl_n2"), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def _pct(values, q, scale):
    return float(np.percentile(values, q)) * scale if values else 0.0


def per_layer(tracer: tracing.Tracer, traced: Tally, untraced: Tally, trials: int) -> dict:
    sp = tracer.spans
    cycles = tracer.cycles
    queries = sp["target_store.query"]
    rejects = tracer.errors[("target_store.query", "VelocityBarDegenerate")]
    reached = [c for c in cycles if c[1]]
    ranked = [c for c in cycles if c[3] > 0]
    return {
        "target_store.query_us.p50": (_pct(queries, 50, 1e6), "us"),
        "target_store.query_us.p90": (_pct(queries, 90, 1e6), "us"),
        "target_store.query_calls": (len(queries), "count"),
        "target_store.query_reject_frac": (rejects / len(queries) if queries else 0.0, "fraction"),
        "target_store.index_build_ms": (_pct(sp["target_store.index_build"], 50, 1e3), "ms"),
        "target_store.save_jsonl_ms": (_pct(sp["target_store.save_jsonl"], 50, 1e3), "ms"),
        "target_store.load_jsonl_ms": (_pct(sp["target_store.load_jsonl"], 50, 1e3), "ms"),
        "dynamics.step_us.p50": (_pct(sp["dynamics.step"], 50, 1e6), "us"),
        "dynamics.step_us.p90": (_pct(sp["dynamics.step"], 90, 1e6), "us"),
        "dynamics.step_n5_us.p50": (_pct(sp["dynamics.step_n5"], 50, 1e6), "us"),
        "dynamics.step_calls": (
            sum(len(v) for k, v in sp.items() if k.startswith("dynamics.step")), "count"),
        "control_law.estimate_B_us.p50": (_pct(sp["control_law.estimate_B"], 50, 1e6), "us"),
        "control_law.cpc_tau_us.p50": (_pct(sp["control_law.cpc_tau"], 50, 1e6), "us"),
        "value.candidate_costs_us.p50": (_pct(sp["value.candidate_costs"], 50, 1e6), "us"),
        "value.costs_calls_per_cycle": (
            sum(c[3] for c in ranked) / len(ranked) if ranked else 0.0, "count"),
        "controller.step_us.p50": (_pct(sp["controller.step"], 50, 1e6), "us"),
        "controller.step_us.p90": (_pct(sp["controller.step"], 90, 1e6), "us"),
        "controller.step_us.p99": (_pct(sp["controller.step"], 99, 1e6), "us"),
        "controller.step_self_us.p50": (_pct([c[0] for c in cycles], 50, 1e6), "us"),
        "controller.fallback_frac": (
            sum(c[2] for c in reached) / len(reached) if reached else 0.0, "fraction"),
        "experiments.generate_falls_ms": (_pct(sp["experiments.generate_falls"], 50, 1e3), "ms"),
        "experiments.mean_tf_s": (np.nan_to_num(mean_tf_s(traced, trials)), "sim_s"),
        "trace_overhead_frac": (cycle_ms(traced) / cycle_ms(untraced) - 1.0, "fraction"),
    }


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def environment() -> dict:
    try:
        import numba  # noqa: F401

        have_numba = True
    except ImportError:
        have_numba = False
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numba": have_numba,
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
    }


def git_sha() -> str:
    """Commit of the checkout, read from .git without running git; the
    benchmark may run from a plain export with no .git at all."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run(workload_name: str, seed: int, seconds: float, trace: bool, sizes: Sizes = Sizes()) -> dict:
    """Run one workload; returns the full report, result object included."""
    with tempfile.TemporaryDirectory(dir=BENCH_DIR, prefix=".tmp-") as tmp, Calibrator() as cal:
        wl = Workload(workload_name, seed, sizes, Path(tmp), cal)
        setup, timed = Tally(), Tally()
        reps = 1 if trace else sizes.setup_reps
        wl.run_setups(setup, reps)
        n_units = wl.run_units(timed, seconds=seconds / 2 if trace else seconds)
        tallies = [setup, timed]
        # Repeated set-ups must record identical stores.
        per_rep = setup.digests[: len(setup.digests) // reps]
        gates = {"setup_nondeterministic": int(setup.digests != per_rep * reps)}
        report = {"workload": workload_name, "seed": seed, "trace": int(trace), "units": n_units,
                  "digest": tally_digest(timed),
                  "mean_contention": statistics.mean(1 / f for f in timed.factors)}
        if trace:
            traced_setup, traced = Tally(), Tally()
            with tracing.Tracer(cal.now) as tracer:
                wl.tracer = tracer
                wl.run_setups(traced_setup, 1)
                wl.run_units(traced, count=n_units)
                wl.tracer = None
            tallies += [traced_setup, traced]
            gates["setup_nondeterministic"] |= int(traced_setup.digests != per_rep)
            gates["trace_digest_mismatch"] = int(tally_digest(traced) != report["digest"])
            checked, mismatched, unreadable = tracing.check_queries(tracer.query_samples)
            gates["retrieval_oracle_mismatches"] = mismatched
            # Samples the oracle cannot read, or a balance run with nothing
            # checked (retrieval renamed or re-signatured), fail the run.
            balance = workload_name != "record_falls"
            gates["retrieval_oracle_unchecked"] = unreadable + int(balance and checked == 0)
            report["retrieval_oracle"] = {"checked": checked, "uninterpretable": unreadable}
            report["missing_layers"] = tracer.missing
            metrics = per_layer(tracer, traced, timed, wl.fixed_trials)
        else:
            metrics = end_to_end(setup, timed)
            report["host_cycle_ms"] = cycle_ms(timed, normalised=False)
            if timed.records:
                tf = mean_tf_s(timed, wl.fixed_trials)
                report["trials"] = len(timed.records)
                report["mean_tf_trials"] = wl.fixed_trials
                report["mean_tf_s"] = None if math.isnan(tf) else tf
            if timed.samples["record_n5"]:
                report["record_us_per_step_n5"] = 1e6 * timed.rate("record_n5")
                report["jsonl_ms_per_kpt_n5"] = 1e6 * timed.rate("jsonl_n5")
        # Only after peak_rss_mb has been read: this imports scipy, which the
        # package does not.
        report["environment"] = environment()
        gates["jsonl_roundtrip_mismatches"] = sum(t.roundtrip_mismatches for t in tallies)
        gates["invalid_trial_records"] = sum(t.invalid_records for t in tallies)
        report["gates"] = gates
        attempted = sum(t.attempted for t in tallies)
        failed = sum(t.failed for t in tallies)
        report["error_frac"] = failed / attempted
        report["result"] = {
            "correct": not any(gates.values()),
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
        }
    return report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    result = report.pop("result")
    for name, m in result["metrics"].items():
        print(f"{name:32s} {m['value']:.6g} {m['unit']}")
    print(f"gates: {report['gates']}  attempted={result['attempted']} failed={result['failed']}")
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
