"""Tiny-size smoke test of the benchmark.

    python3 bench/smoke.py

Runs every workload untraced and traced at toy sizes (a few seconds in all)
and checks that the result object has exactly the metric names and units
that BENCHMARK.json declares, that every gate passes and that no operation
failed. Timings are not checked.
"""

import json
import math
import sys

import run


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert tuple(w["name"] for w in spec["workloads"]) == run.WORKLOADS
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for name in run.WORKLOADS:
        for trace in (0, 1):
            report = run.run(name, seed=7, seconds=0.05, trace=bool(trace), sizes=run.TINY)
            result = report["result"]
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"], report["gates"]
            assert result["attempted"] >= 1 and result["failed"] == 0, result
            units = {k: m["unit"] for k, m in result["metrics"].items()}
            assert units == expected[trace], (name, trace, units)
            values = [m["value"] for m in result["metrics"].values()]
            assert all(math.isfinite(v) for v in values), values
            if trace:
                assert report["gates"]["trace_digest_mismatch"] == 0
                assert not report["missing_layers"], report["missing_layers"]
            else:
                assert all(v > 0 for v in values), result["metrics"]
            print(f"ok  {name:14s} trace={trace}  units={report['units']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
