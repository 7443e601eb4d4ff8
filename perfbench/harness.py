"""Shared machinery of the benchmark: counters, spans, checks, statistics.

Nothing here edits the program under test.  Tracing wraps the public
functions of each layer by rebinding module and class attributes for
the duration of a traced window, and restores every binding afterwards.
"""

from __future__ import annotations

import functools
import importlib
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: π_ba phases of Fig. 3, as the protocol names its spans.
PHASES = (
    "kssv-ae-establish", "srds-setup", "committee-ba", "committee-coin-toss",
    "ae-send-down", "base-sign", "srds-aggregate", "certified-send-down",
    "prf-boost",
)

#: (metric stem, module, attribute, timed).  Module-level functions:
#: every ``repro`` module that binds the same function object is patched.
FUNCTION_TARGETS: Tuple[Tuple[str, str, str, bool], ...] = (
    ("crypto.scalar_mult", "repro.crypto.ec", "scalar_mult", True),
    ("crypto.point_add", "repro.crypto.ec", "point_add", False),
    ("crypto.schnorr_keygen", "repro.crypto.schnorr", "keygen", True),
    ("crypto.schnorr_sign", "repro.crypto.schnorr", "sign", True),
    ("crypto.schnorr_verify", "repro.crypto.schnorr", "verify", True),
    ("crypto.hash", "repro.crypto.hashing", "hash_bytes", True),
    ("cluster.record", "repro.cluster.drivers",
     "record_balanced_ba_script", True),
)

#: (metric stem, module, class, method).  Methods are patched on the
#: class that defines them; subclasses that call ``super()`` count once.
METHOD_TARGETS: Tuple[Tuple[str, str, str, str], ...] = tuple(
    (f"srds.{stem}", module, cls, method)
    for module, cls in (
        ("repro.srds.owf", "OwfSRDS"),
        ("repro.srds.snark_based", "SnarkSRDS"),
    )
    for stem, method in (
        ("keygen", "keygen"), ("sign", "sign"), ("aggregate", "aggregate1"),
        ("aggregate", "aggregate2"), ("verify", "verify"),
    )
) + tuple(
    ("srds.encode", module, cls, "encode")
    for module, cls in (
        ("repro.srds.owf", "OwfBaseSignature"),
        ("repro.srds.owf", "OwfAggregateSignature"),
        ("repro.srds.snark_based", "SnarkBaseSignature"),
        ("repro.srds.snark_based", "CertifiedBaseSignature"),
        ("repro.srds.snark_based", "SnarkAggregateSignature"),
    )
) + (
    ("net.record_message", "repro.net.metrics", "CommunicationMetrics",
     "record_message"),
    ("cluster.supervisor", "repro.cluster.supervisor", "ClusterSupervisor",
     "run"),
)

#: Counters the benchmark reports per decision; ``.s`` is inclusive time.
COUNTED = (
    "crypto.scalar_mult", "crypto.point_add", "crypto.schnorr_keygen",
    "crypto.schnorr_sign", "crypto.schnorr_verify", "crypto.hash",
    "srds.keygen", "srds.sign", "srds.aggregate", "srds.verify",
    "srds.encode", "net.record_message",
)

#: Pseudo-stem counting SRDS verifications that accepted.
ACCEPTED = "srds.verify.accepted"

#: Counted stems whose wrapper takes no time (too hot to time cheaply).
UNTIMED = frozenset(
    stem for stem, _, _, timed in FUNCTION_TARGETS if not timed
)

#: Set-up counters (the work a key domain pays before its decisions).
SETUP_COUNTED = (
    "crypto.scalar_mult", "crypto.schnorr_keygen", "crypto.hash",
    "srds.keygen",
)


def import_targets() -> None:
    """Import every module a target lives in, before anything is patched."""
    for _, module, *_ in FUNCTION_TARGETS + METHOD_TARGETS:
        importlib.import_module(module)


class _Cell:
    """One thread's counters (no lock on the hot path)."""

    __slots__ = ("calls", "seconds", "depth")

    def __init__(self) -> None:
        self.calls: Dict[str, int] = {}
        self.seconds: Dict[str, float] = {}
        self.depth: Dict[str, int] = {}


class Counters:
    """Call counts and busy seconds per metric stem, summed over threads.

    Each thread updates its own cell, so the gateway's executor threads
    never lose an increment; :meth:`snapshot` adds the cells up.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._cells: List[_Cell] = []

    def cell(self) -> _Cell:
        try:
            return self._local.cell
        except AttributeError:
            cell = self._local.cell = _Cell()
            with self._lock:
                self._cells.append(cell)
            return cell

    def snapshot(self) -> Dict[str, Any]:
        calls: Dict[str, int] = {}
        seconds: Dict[str, float] = {}
        with self._lock:
            cells = list(self._cells)
        for cell in cells:
            for key, value in dict(cell.calls).items():
                calls[key] = calls.get(key, 0) + value
            for key, value in dict(cell.seconds).items():
                seconds[key] = seconds.get(key, 0.0) + value
        return {"calls": calls, "seconds": seconds}


def diff_snapshots(after: Dict[str, Any],
                   before: Dict[str, Any]) -> Dict[str, Any]:
    """Counter activity between two :meth:`Counters.snapshot` calls."""
    return {
        "calls": {
            key: value - before["calls"].get(key, 0)
            for key, value in after["calls"].items()
        },
        "seconds": {
            key: value - before["seconds"].get(key, 0.0)
            for key, value in after["seconds"].items()
        },
    }


def _counting(stem: str, fn: Callable, counters: Counters,
              timed: bool) -> Callable:
    """Wrap ``fn``: count every call, time only the outermost one.

    Timing only the outermost call of a stem keeps ``.s`` a share of the
    wall clock when the target recurses (an aggregate signature's
    ``encode`` encodes its base signatures).
    """
    clock = time.perf_counter
    accepted = ACCEPTED if stem == "srds.verify" else None

    if not timed:
        @functools.wraps(fn)
        def count_wrapper(*args, **kwargs):
            calls = counters.cell().calls
            calls[stem] = calls.get(stem, 0) + 1
            return fn(*args, **kwargs)
        return count_wrapper

    @functools.wraps(fn)
    def timed_wrapper(*args, **kwargs):
        cell = counters.cell()
        cell.calls[stem] = cell.calls.get(stem, 0) + 1
        level = cell.depth.get(stem, 0)
        if level:
            cell.depth[stem] = level + 1
            try:
                return fn(*args, **kwargs)
            finally:
                cell.depth[stem] = level
        cell.depth[stem] = 1
        start = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            cell.seconds[stem] = cell.seconds.get(stem, 0.0) + clock() - start
            cell.depth[stem] = 0
        if accepted is not None and result:
            cell.calls[accepted] = cell.calls.get(accepted, 0) + 1
        return result
    return timed_wrapper


def _repro_modules() -> List[Any]:
    return [
        module for name, module in list(sys.modules.items())
        if module is not None
        and (name == "repro" or name.startswith("repro."))
    ]


class Tracer:
    """Installs counting wrappers, a timed span log and a ledger capture.

    ``install`` rebinds every module attribute that holds a target
    function (``from repro.crypto.hashing import hash_bytes`` style
    imports included) and every target method; ``uninstall`` puts the
    originals back and returns how many bindings of an original were
    created while installed and therefore went uncounted.  Counts add up
    over every installed stretch of one tracer.
    """

    def __init__(self) -> None:
        import repro.serve.sessions as sessions
        from repro.net.metrics import CommunicationMetrics

        self.counters = Counters()
        self.ledgers: List[Any] = []
        self._restore: List[Tuple[Any, str, Any]] = []
        self._originals: List[Any] = []
        self._sessions = sessions
        ledgers = self.ledgers

        class CapturedMetrics(CommunicationMetrics):
            """The session ledger, remembered for its phase breakdown."""

            def __init__(self, *args: Any, **kwargs: Any) -> None:
                super().__init__(*args, **kwargs)
                ledgers.append(self)

        self._captured_cls = CapturedMetrics
        self.span_log = None
        self._recording = None

    def install(self) -> None:
        from repro.obs.spans import SpanLog, recording

        import_targets()
        modules = _repro_modules()
        for stem, module_name, attr, timed in FUNCTION_TARGETS:
            original = getattr(sys.modules[module_name], attr)
            wrapped = _counting(stem, original, self.counters, timed)
            self._originals.append(original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, key, wrapped)
        for stem, module_name, cls_name, method in METHOD_TARGETS:
            cls = getattr(sys.modules[module_name], cls_name)
            original = cls.__dict__[method]
            self._originals.append(original)
            self._rebind(
                cls, method, _counting(stem, original, self.counters, True)
            )
        self._rebind(self._sessions, "CommunicationMetrics",
                     self._captured_cls)
        # The supervisor's own round spans carry wall times only when
        # its log has a clock.
        self._rebind(sys.modules["repro.cluster.supervisor"], "SpanLog",
                     functools.partial(SpanLog, clock=time.perf_counter))
        self.span_log = SpanLog(clock=time.perf_counter)
        self._recording = recording(self.span_log)
        self._recording.__enter__()

    def _rebind(self, owner: Any, key: str, value: Any) -> None:
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> int:
        """Restore every binding; return the count of uncounted ones."""
        if self._recording is not None:
            self._recording.__exit__(None, None, None)
            self._recording = None
        # Every binding still holding an original was made after install
        # (a late ``from ... import``): its calls were not counted.
        originals = {id(fn) for fn in self._originals}
        uncounted = sum(
            1 for module in _repro_modules()
            for value in list(vars(module).values())
            if id(value) in originals
        )
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()
        self._originals.clear()
        return uncounted

    def phase_seconds(self) -> Dict[str, float]:
        """Wall seconds per π_ba phase summed over the span log."""
        totals = {phase: 0.0 for phase in PHASES}
        if self.span_log is None:
            return totals
        for record in self.span_log.records:
            if (
                record.name in totals
                and record.end_wall is not None
                and record.start_wall is not None
            ):
                totals[record.name] += record.end_wall - record.start_wall
        return totals

    def reset_spans(self) -> None:
        if self.span_log is not None:
            self.span_log.records.clear()


#: The ledger's row for charges made outside any span (a replayed
#: cluster run charges every wire frame there).
UNATTRIBUTED = "(unattributed)"


def phase_max_bits(ledger: Any) -> Dict[str, int]:
    """``max_bits_per_party`` of each π_ba phase in one ledger."""
    breakdown = ledger.phase_breakdown()
    return {
        phase: breakdown[phase].max_bits_per_party if phase in breakdown
        else 0
        for phase in PHASES + (UNATTRIBUTED,)
    }


class Checker:
    """Per-decision correctness: agreement, validity and tally parity.

    Every decision must agree, be valid, and carry per-party tallies
    identical to the first decision of its key domain (and to an
    optional external reference).  ``tamper`` corrupts one tally of
    every checked decision after the first, so a harness self-test can
    show that the check fails.
    """

    def __init__(self, tamper: bool = False) -> None:
        self.tamper = tamper
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []
        self._first: Dict[Any, Dict[str, int]] = {}

    def set_reference(self, domain: Any, tallies: Dict[str, int]) -> None:
        self._first[domain] = dict(tallies)

    def error(self, reason: str) -> None:
        self.attempted += 1
        self._fail(reason)

    def _fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.reasons) < 8:
            self.reasons.append(reason)

    def check(self, domain: Any, agreement: bool, validity: bool,
              tallies: Dict[str, int]) -> bool:
        self.attempted += 1
        if self.tamper and domain in self._first and tallies:
            tallies = dict(tallies)
            key = next(iter(tallies))
            tallies[key] += 1
        if not (agreement and validity):
            self._fail(f"{domain}: agreement={agreement} validity={validity}")
            return False
        reference = self._first.setdefault(domain, dict(tallies))
        if reference != tallies:
            self._fail(f"{domain}: per-party tallies differ")
            return False
        return True

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def quantile(values: List[float], q: int) -> float:
    """The q-th percentile (inclusive method) of at least two values."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def cpu_seconds() -> float:
    """CPU time of this process and its reaped children."""
    import resource

    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb(extra_kb: float = 0.0, children: int = 1) -> float:
    """Peak RSS of this process plus ``children`` times the largest child."""
    import resource

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children * kids + extra_kb) / 1024.0


def proc_cpu_seconds(pid: int) -> float:
    """utime + stime of a live process, from ``/proc/<pid>/stat``."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    ticks = os.sysconf("SC_CLK_TCK")
    return (int(fields[11]) + int(fields[12])) / ticks


def proc_peak_rss_kb(pid: int) -> float:
    """VmHWM (peak resident set) of a live process, in KiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return float(line.split()[1])
    return 0.0


def host_facts() -> Dict[str, Any]:
    commit: Optional[str] = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "cpus_available": len(os.sched_getaffinity(0)),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_commit": commit,
    }


def child_env() -> Dict[str, str]:
    """Environment for benchmark subprocesses: the checkout's ``src``."""
    env = dict(os.environ)
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + existing if existing else "")
    return env


def worker_import_seconds(runs: int = 1) -> List[float]:
    """Spawn-to-exit wall of a fresh interpreter importing the worker."""
    walls = []
    for _ in range(runs):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import repro.cluster.worker"],
            env=child_env(), check=True, timeout=60,
        )
        walls.append(time.perf_counter() - start)
    return walls


def mean(values: Iterable[float]) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0
