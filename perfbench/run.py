"""Benchmark entry point: one π_ba workload, measured from outside.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload schnorr-n16 --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it is a ``perfbench`` report with host facts, sample counts, the
failure share and any known defect the run observed.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, List, Tuple  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {
    metric["name"]: metric["unit"]
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]
}


def _parse(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def end_to_end(wl: Any, record: Any) -> Dict[str, float]:
    walls = record.walls
    primary = [
        value for key, value in record.exact.items()
        if not isinstance(key, tuple) or key[0] == wl.scheme
    ]
    return {
        "setup_s": record.import_s + statistics.median(record.setup_walls),
        "decision_s_p50": statistics.median(walls),
        "decisions_per_s": len(walls) / record.window_s,
        "cpu_s_per_decision": record.window_cpu_s / len(walls),
        "max_bits_per_party": statistics.fmean(v[0] for v in primary),
        "certificate_bytes": statistics.fmean(v[1] for v in primary),
        "bits_budget_ratio": statistics.fmean(v[0] / v[2] for v in primary),
        "peak_rss_mb": record.peak_rss_mb,
    }


def per_layer(record: Any) -> Dict[str, float]:
    layer = {
        metric["name"]: 0.0 for metric in SPEC["per_layer"]
    }
    layer.update(record.layer)
    traced = statistics.median(record.traced_walls)
    layer["trace.decision_s_p50"] = traced
    layer["trace.overhead_s"] = traced - statistics.median(record.walls)
    return layer


def report(wl: Any, seed: int, seconds: float, trace: bool, record: Any,
           checker: Any, metrics: Dict[str, float]) -> Dict[str, Any]:
    import harness

    walls = record.walls
    budget = metrics["bits_budget_ratio"]
    out: Dict[str, Any] = {
        "workload": wl.name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "n": wl.n, "scheme": wl.scheme,
        **harness.host_facts(),
        "decisions": len(walls),
        "failed_share": checker.failed_share,
        "window_wall_s": record.window_s,
        "window_cpu_s": record.window_cpu_s,
        "import_s": record.import_s,
        "setup_walls_s": record.setup_walls,
        "key_domains": len(record.exact),
        "harness_errors": record.harness_errors,
        "failure_reasons": checker.reasons,
        **record.notes,
    }
    if len(walls) >= 100:
        out["decision_s_p90"] = harness.quantile(walls, 90)
    if budget > 1:
        out["known_defect"] = (
            f"max_bits_per_party is {budget:.3f}x pi_ba_per_party_budget "
            "(snark schemes exceed the polylog ceiling at n >= 32); "
            "reported, not counted as a failed decision"
        )
    return out


def measure(wl: Any, seed: int, seconds: float, trace: bool,
            import_s: float, scratch: Path, tamper: bool = False
            ) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Run one workload; return the result object and the report."""
    import harness
    import workloads

    record = workloads.RunRecord(import_s=import_s)
    checker = harness.Checker(tamper=tamper)
    workloads.DRIVERS[wl.driver](
        wl, seed, seconds, trace, checker, record, scratch
    )
    e2e = end_to_end(wl, record)
    metrics = per_layer(record) if trace else e2e
    finite = all(math.isfinite(value) for value in metrics.values())
    result = {
        "correct": checker.failed == 0 and not record.harness_errors
        and finite,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {
            name: {"value": value, "unit": UNITS[name]}
            for name, value in metrics.items()
        },
    }
    return result, report(wl, seed, seconds, trace, record, checker, e2e)


def main(argv: List[str]) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    scratch = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True)
    os.environ["TMPDIR"] = str(scratch)
    try:
        import harness
        import workloads

        harness.import_targets()
        if args.workload not in workloads.WORKLOADS:
            print(f"unknown workload {args.workload!r} (expected one of "
                  f"{sorted(workloads.WORKLOADS)})", file=sys.stderr)
            return 2
        result, summary = measure(
            workloads.WORKLOADS[args.workload], args.seed, args.seconds,
            bool(args.trace), time.perf_counter() - _T0, scratch,
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:  # another run still uses it
            pass
    print(json.dumps({"perfbench": summary}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
