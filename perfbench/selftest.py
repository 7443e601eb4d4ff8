"""Seconds-long self-test of the benchmark harness.

Usage (from the root of a checkout)::

    python3 perfbench/selftest.py

At n=8 with ``snark-hash`` it runs each driver path (in-process
sessions, cluster, gateway) untraced and traced, and checks that every
metric ``BENCHMARK.json`` names is emitted with its unit.  It then shows
that the correctness check can fail (a tampered tally must give
``failed_share > 0``), that the traced call counts equal cProfile's call
counts for the same work, and that two traced runs of the same work
count exactly the same.  Exit 0 iff every check holds.
"""

from __future__ import annotations

import cProfile
import os
import pstats
import shutil
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

import run

sys.path.insert(0, str(run.ROOT / "src"))

import harness  # noqa: E402
import workloads  # noqa: E402
from workloads import Workload  # noqa: E402

N = 8
SELFTEST = {
    driver: Workload(f"selftest-{driver}", driver, "snark-hash", N,
                     domains=1, parallel=2)
    for driver in ("session", "cluster", "gateway")
}

failures: List[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def check_emission(scratch: Path) -> None:
    gated = [workload["name"] for workload in run.SPEC["workloads"]]
    expect(all(name in workloads.WORKLOADS for name in gated),
           "every BENCHMARK.json workload is defined")
    for driver, wl in SELFTEST.items():
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            result, summary = run.measure(wl, 1, 0.3, trace, 0.0, scratch)
            names = {metric["name"]: metric["unit"]
                     for metric in run.SPEC[section]}
            emitted = {name: body["unit"]
                       for name, body in result["metrics"].items()}
            expect(emitted == names,
                   f"{driver} trace={int(trace)}: every {section} metric "
                   "emitted with its unit")
            expect(result["correct"] and result["failed"] == 0
                   and summary["failed_share"] == 0,
                   f"{driver} trace={int(trace)}: all decisions correct")


def check_tamper(scratch: Path) -> None:
    result, summary = run.measure(SELFTEST["session"], 1, 0.3, False, 0.0,
                                  scratch, tamper=True)
    expect(not result["correct"] and result["failed"] > 0
           and summary["failed_share"] > 0,
           "a tampered tally is caught (failed_share "
           f"{summary['failed_share']:.2f})")


def _decision_work(scheme: str) -> Callable[[], None]:
    """One fresh key domain, its set-up and one decision."""
    from repro.serve.sessions import SessionSpec, run_decision
    from repro.serve.setup_cache import SetupCache
    from repro.utils.randomness import Randomness

    def work() -> None:
        lease = SetupCache(max_entries=1).lease(scheme, N, 7)
        lease.provider(lease.scheme, workloads.num_virtual(N),
                       Randomness(7).fork("session"))
        run_decision(SessionSpec(n=N, scheme=scheme, seed=7), lease)
    return work


def _cluster_work(scratch: Path) -> Callable[[], None]:
    wl = SELFTEST["cluster"]
    record = workloads.RunRecord(import_s=0.0)

    def work() -> None:
        workloads.run_cluster(wl, 3, 0.0, False, harness.Checker(), record,
                              scratch)
    return work


def _code_key(fn: Any) -> Tuple[str, int, str]:
    code = fn.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


def _profiled_calls(work: Callable[[], None]) -> Dict[str, int]:
    """Total call counts per metric stem, as cProfile sees them."""
    profile = cProfile.Profile()
    profile.runcall(work)
    stats = pstats.Stats(profile).stats  # type: ignore[attr-defined]
    targets: List[Tuple[str, Any]] = [
        (stem, getattr(sys.modules[module], attr))
        for stem, module, attr, _ in harness.FUNCTION_TARGETS
    ] + [
        (stem, getattr(sys.modules[module], cls).__dict__[method])
        for stem, module, cls, method in harness.METHOD_TARGETS
    ]
    calls: Dict[str, int] = {}
    for stem, fn in targets:
        entry = stats.get(_code_key(fn))
        calls[stem] = calls.get(stem, 0) + (entry[1] if entry else 0)
    return calls


def _traced_calls(work: Callable[[], None]) -> Dict[str, int]:
    tracer = harness.Tracer()
    tracer.install()
    try:
        work()
    finally:
        uncounted = tracer.uninstall()
    expect(uncounted == 0, "no binding of a traced function escaped")
    return tracer.counters.snapshot()["calls"]


def check_counts(scratch: Path) -> None:
    works = {
        "snark (Schnorr) decision": _decision_work("snark"),
        "owf decision": _decision_work("owf"),
        "cluster decision": _cluster_work(scratch),
    }
    for label, work in works.items():
        first = _traced_calls(work)
        second = _traced_calls(work)
        expect(first == second,
               f"{label}: two traced runs count exactly the same")
        profiled = _profiled_calls(work)
        counted = {stem: first.get(stem, 0) for stem in profiled}
        expect(counted == profiled,
               f"{label}: traced counts equal cProfile call counts")
        if counted != profiled:
            print(f"     traced   {counted}\n     cProfile {profiled}")
        print("     " + ", ".join(
            f"{stem}={count}" for stem, count in sorted(counted.items())
            if count
        ))
    snark = _traced_calls(works["snark (Schnorr) decision"])
    expect(snark.get("crypto.scalar_mult", 0) > 0,
           "real Schnorr work makes scalar multiplications")


def main() -> int:
    start = time.perf_counter()
    scratch = run.ROOT / ".perfbench_tmp" / f"selftest-{os.getpid()}"
    scratch.mkdir(parents=True)
    os.environ["TMPDIR"] = str(scratch)
    harness.import_targets()
    try:
        check_emission(scratch)
        check_tamper(scratch)
        check_counts(scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(f"{len(failures)} failed checks in "
          f"{time.perf_counter() - start:.1f}s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
