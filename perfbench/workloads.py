"""The benchmark's workloads and the three drivers that run them.

Every workload is a closed loop driven from this process: the next
decision starts only when the previous one has returned.  A run sets up
one fresh key domain (or gateway) per repetition, so ``setup_s`` is a
median, and gives each repetition a slice of the timed window right
after its set-up.  A traced run halves those slices and adds one traced
window, so the tracing overhead is measured in the same run as the
per-layer numbers.
"""

from __future__ import annotations

import json
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import harness
from harness import COUNTED, PHASES, SETUP_COUNTED, Checker, Tracer

from repro.cluster.drivers import run_balanced_ba_cluster
from repro.cluster.supervisor import ClusterConfig
from repro.errors import GatewayError
from repro.net.adversary import random_corruption
from repro.obs.registry import MetricsRegistry
from repro.params import ProtocolParameters, ceil_log2
from repro.serve.client import GatewayClient
from repro.serve.sessions import (
    SessionSpec,
    make_inputs,
    one_shot_reference,
    run_decision,
)
from repro.serve.setup_cache import SetupCache, scheme_for
from repro.utils.randomness import Randomness


@dataclass(frozen=True)
class Workload:
    name: str
    driver: str
    scheme: str
    n: int
    #: Key domains per run; each one is set up once, in the set-up part.
    domains: int = 3
    #: Client threads / connections (gateway) or workers (cluster).
    parallel: int = 1


#: Every workload ``run.py`` accepts.  ``BENCHMARK.json`` lists the ones
#: steady enough to gate on; ``schnorr-n16`` and ``owf-n64`` run by hand
#: (``NOTES.md`` has their measured spread).
WORKLOADS: Dict[str, Workload] = {
    wl.name: wl for wl in (
        Workload("schnorr-n16", "session", "snark", 16),
        Workload("owf-n64", "session", "owf", 64),
        Workload("cluster-n64", "cluster", "snark-hash", 64, parallel=2),
        Workload("gateway-n16", "gateway", "snark-hash", 16, parallel=2),
    )
}

#: Gateway traffic mix: every OWF_EVERY-th session is an ``owf`` session
#: on one of OWF_DOMAINS key domains, more than the gateway's 8-entry
#: setup cache holds, so those sessions miss while the snark-hash ones hit.
OWF_EVERY = 5
OWF_DOMAINS = 12
SNARK_DOMAINS = 4
GATEWAY_CACHE_ENTRIES = 8


@dataclass
class RunRecord:
    """Everything one run measured, before it is turned into metrics."""

    import_s: float
    setup_walls: List[float] = field(default_factory=list)
    walls: List[float] = field(default_factory=list)
    window_s: float = 0.0
    window_cpu_s: float = 0.0
    traced_walls: List[float] = field(default_factory=list)
    #: Per key domain: max bits per party, certificate bytes, budget bits.
    exact: Dict[Any, Tuple[int, int, int]] = field(default_factory=dict)
    peak_rss_mb: float = 0.0
    layer: Dict[str, float] = field(default_factory=dict)
    harness_errors: List[str] = field(default_factory=list)
    notes: Dict[str, Any] = field(default_factory=dict)


def domain_seeds(seed: int, count: int, salt: str) -> List[int]:
    """``count`` distinct key-domain seeds derived from the run seed."""
    rng = random.Random(f"{salt}:{seed}")
    seeds: List[int] = []
    while len(seeds) < count:
        candidate = rng.randrange(1, 2**31)
        if candidate not in seeds:
            seeds.append(candidate)
    return seeds


def closed_loop(decide: Callable[[Any], float], domains: List[Any],
                seconds: float) -> Tuple[List[float], float, float]:
    """Run decisions round-robin over ``domains`` for ``seconds``.

    Every domain gets at least one decision.  Returns the decision walls,
    the window's wall seconds and its CPU seconds (children included).
    """
    walls: List[float] = []
    cpu0 = harness.cpu_seconds()
    start = time.perf_counter()
    index = 0
    while index < len(domains) or time.perf_counter() - start < seconds:
        walls.append(decide(domains[index % len(domains)]))
        index += 1
    return walls, time.perf_counter() - start, harness.cpu_seconds() - cpu0


def num_virtual(n: int) -> int:
    """Virtual identities of a π_ba tree at ``n`` (n · z, z = c·⌈log n⌉)."""
    return n * ProtocolParameters().virtual_factor * ceil_log2(n)


# -- trace bookkeeping -------------------------------------------------------


class TraceBook:
    """Per-decision counter deltas and span times of a traced window."""

    def __init__(self) -> None:
        self.first_by_domain: Dict[Any, Dict[str, Any]] = {}
        self.all_deltas: List[Dict[str, Any]] = []
        self.drift = 0
        self.phase_bits: Dict[Any, Dict[str, int]] = {}
        self.decisions = 0

    def add(self, domain: Any, delta: Dict[str, Any]) -> None:
        self.decisions += 1
        self.all_deltas.append(delta)
        first = self.first_by_domain.setdefault(domain, delta)
        if first is not delta and first["calls"] != delta["calls"]:
            self.drift += 1

    def counts(self) -> Dict[str, float]:
        """Per-decision counts (first traced decision of each domain,
        averaged over domains) and mean inclusive seconds per decision."""
        out: Dict[str, float] = {}
        firsts = list(self.first_by_domain.values())
        for stem in COUNTED:
            out[f"{stem}.count"] = harness.mean(
                d["calls"].get(stem, 0) for d in firsts
            )
            if stem not in harness.UNTIMED:
                out[f"{stem}.s"] = harness.mean(
                    d["seconds"].get(stem, 0.0) for d in self.all_deltas
                )
        verifies = sum(d["calls"].get("srds.verify", 0) for d in firsts)
        accepted = sum(d["calls"].get(harness.ACCEPTED, 0) for d in firsts)
        out["srds.verify.accept_ratio"] = (
            accepted / verifies if verifies else 0.0
        )
        for stem in ("cluster.record", "cluster.supervisor"):
            out[f"{stem}.s"] = harness.mean(
                d["seconds"].get(stem, 0.0) for d in self.all_deltas
            )
        return out


def setup_layer(snapshot: Dict[str, Any], reps: int) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for stem in SETUP_COUNTED:
        out[f"setup.{stem}.count"] = snapshot["calls"].get(stem, 0) / reps
        out[f"setup.{stem}.s"] = snapshot["seconds"].get(stem, 0.0) / reps
    return out


def phase_layer(phase_s: Dict[str, float], decisions: int,
                bits: List[Dict[str, int]]) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for phase in PHASES:
        out[f"pi_ba.{phase}.s"] = phase_s.get(phase, 0.0) / max(decisions, 1)
        out[f"pi_ba.{phase}.max_bits"] = harness.mean(
            row.get(phase, 0) for row in bits
        )
    out["pi_ba.unattributed.max_bits"] = harness.mean(
        row.get(harness.UNATTRIBUTED, 0) for row in bits
    )
    return out


def drive(record: RunRecord, seeds: List[int], seconds: float,
          trace: bool, set_up: Callable[[int], float],
          decide: Callable[[int], float],
          observe: Callable[[int, Tracer, "TraceBook"], None]) -> None:
    """The in-process run: set up each key domain, then the window.

    ``set_up(domain)`` returns the domain's set-up wall seconds;
    ``decide(domain)`` runs and checks one decision and returns its wall
    seconds; ``observe`` records a traced decision's phase bits and any
    driver-specific per-layer numbers.  The untraced window is cut into
    one slice per key domain, run right after that domain's set-up (see
    :func:`sliced`).
    """
    tracer = Tracer() if trace else None
    window = seconds / 2 if trace else seconds

    def traced_set_up(dseed: int) -> float:
        if tracer is None:
            return set_up(dseed)
        tracer.install()
        try:
            return set_up(dseed)
        finally:
            _uncounted(record, tracer.uninstall())

    sliced(record, seeds, window, traced_set_up,
           lambda dseed, share: closed_loop(decide, [dseed], share))
    if tracer is None:
        return
    record.layer.update(setup_layer(tracer.counters.snapshot(), len(seeds)))
    book = TraceBook()
    tracer.install()

    def traced(dseed: int) -> float:
        before = tracer.counters.snapshot()
        tracer.ledgers.clear()
        wall = decide(dseed)
        book.add(dseed, harness.diff_snapshots(
            tracer.counters.snapshot(), before))
        observe(dseed, tracer, book)
        return wall

    record.traced_walls, _, _ = closed_loop(traced, seeds, window)
    phase_s = tracer.phase_seconds()
    _uncounted(record, tracer.uninstall())
    record.layer.update(book.counts())
    record.layer.update(phase_layer(
        phase_s, book.decisions, list(book.phase_bits.values())
    ))
    record.notes["count_drift_decisions"] = book.drift


def sliced(record: RunRecord, domains: List[Any], window: float,
           set_up: Callable[[Any], float],
           measure: Callable[[Any, float], Tuple[List[float], float, float]]
           ) -> None:
    """Set up each domain and give it an equal slice of the window.

    On a shared machine the CPU speed can swing by ±15% over seconds, so
    the measured decisions are spread over the whole run (between
    set-ups) instead of one contiguous stretch; that evens out the swings
    between runs.
    """
    for domain in domains:
        record.setup_walls.append(set_up(domain))
        walls, wall_s, cpu_s = measure(domain, window / len(domains))
        record.walls.extend(walls)
        record.window_s += wall_s
        record.window_cpu_s += cpu_s


def _uncounted(record: RunRecord, uncounted: int) -> None:
    if uncounted:
        record.harness_errors.append(
            f"{uncounted} bindings of traced functions were made while "
            "tracing and went uncounted"
        )


# -- the in-process session driver (schnorr-n16, owf-n64) -----------------


def run_session(wl: Workload, seed: int, seconds: float, trace: bool,
                checker: Checker, record: RunRecord, scratch: Path) -> None:
    """π_ba decisions through ``run_decision`` over one setup lease per
    key domain, as the gateway runs them, but in this process."""
    leases: Dict[int, Tuple[SessionSpec, Any]] = {}

    def set_up(dseed: int) -> float:
        start = time.perf_counter()
        lease = SetupCache(max_entries=1).lease(wl.scheme, wl.n, dseed)
        lease.provider(lease.scheme, num_virtual(wl.n),
                       Randomness(dseed).fork("session"))
        spec = SessionSpec(n=wl.n, scheme=wl.scheme, seed=dseed)
        result = run_decision(spec, lease)
        wall = time.perf_counter() - start
        if (lease.misses, lease.hits) != (1, 1):
            record.harness_errors.append(
                f"domain {dseed}: set-up did not fill the lease "
                f"(misses={lease.misses}, hits={lease.hits})"
            )
        checker.check(dseed, result["agreement"], result["validity"],
                      result["per_party_bits"])
        record.exact[dseed] = (
            result["max_bits_per_party"], result["certificate_bytes"],
            result["budget_bits"],
        )
        leases[dseed] = (spec, lease)
        return wall

    def decide(dseed: int) -> float:
        spec, lease = leases[dseed]
        start = time.perf_counter()
        try:
            result = run_decision(spec, lease)
        except Exception as exc:  # a failed decision is counted, not fatal
            checker.error(f"{dseed}: {type(exc).__name__}: {exc}")
            return time.perf_counter() - start
        wall = time.perf_counter() - start
        checker.check(dseed, result["agreement"], result["validity"],
                      result["per_party_bits"])
        return wall

    def observe(dseed: int, tracer: Tracer, book: TraceBook) -> None:
        if dseed not in book.phase_bits and tracer.ledgers:
            book.phase_bits[dseed] = harness.phase_max_bits(tracer.ledgers[-1])

    drive(record, domain_seeds(seed, wl.domains, wl.name), seconds, trace,
          set_up, decide, observe)
    record.peak_rss_mb = harness.peak_rss_mb()


# -- the cluster driver (cluster-n64) ----------------------------------------


def run_cluster(wl: Workload, seed: int, seconds: float, trace: bool,
                checker: Checker, record: RunRecord,
                scratch: Path) -> None:
    """π_ba through ``run_balanced_ba_cluster`` on the mesh plane.

    Each decision is checked against the synchronous one-shot reference
    of its key domain (same inputs, corruption plan and seed forks).  The
    set-up of a domain is its first cluster decision (worker spawn and
    the scheme's verify memo); the reference run is not timed.
    """
    params = ProtocolParameters()
    seeds = domain_seeds(seed, wl.domains, wl.name)
    jobs: Dict[int, Dict[str, Any]] = {}
    for dseed in seeds:
        spec = SessionSpec(n=wl.n, scheme=wl.scheme, seed=dseed)
        reference = one_shot_reference(spec)
        checker.set_reference(dseed, reference["per_party_bits"])
        rng = Randomness(dseed)
        jobs[dseed] = {
            "inputs": make_inputs(spec),
            "plan": random_corruption(
                wl.n, params.max_corruptions(wl.n), rng.fork("c")
            ),
            "scheme": scheme_for(wl.scheme),
            "budget_bits": reference["budget_bits"],
        }
    runs = [0]
    last: Dict[str, Any] = {}

    def decide(dseed: int) -> float:
        job = jobs[dseed]
        last.clear()
        # Traced runs count routed frames through the cluster's registry.
        registry = MetricsRegistry() if trace else None
        runs[0] += 1
        run_dir = scratch / f"cluster-{runs[0]}"
        start = time.perf_counter()
        try:
            result, cluster = run_balanced_ba_cluster(
                job["inputs"], job["plan"], job["scheme"], params,
                Randomness(dseed).fork("session"),
                config=ClusterConfig(
                    num_workers=wl.parallel, data_plane="mesh",
                    registry=registry,
                ),
                run_dir=run_dir,
            )
        except Exception as exc:  # a failed decision is counted, not fatal
            checker.error(f"{dseed}: {type(exc).__name__}: {exc}")
            return time.perf_counter() - start
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
        wall = time.perf_counter() - start
        metrics = cluster.metrics
        tallies = {
            str(party): metrics.tally_of(party).bits_total
            for party in sorted(metrics.party_ids)
        }
        if checker.check(dseed, result.agreement, result.validity, tallies):
            record.exact.setdefault(dseed, (
                metrics.max_bits_per_party, result.certificate_bytes,
                job["budget_bits"],
            ))
        last.update(cluster=cluster, registry=registry)
        return wall

    rounds: List[float] = []
    restarts = [0]
    #: Per key domain, its first traced decision's rounds and frames.
    per_domain: Dict[int, Tuple[int, float]] = {}

    def observe(dseed: int, tracer: Tracer, book: TraceBook) -> None:
        cluster = last.get("cluster")
        if cluster is None:
            return
        rounds.extend(
            span.end_wall - span.start_wall
            for span in cluster.supervisor_spans
            if span.start_wall is not None and span.end_wall is not None
        )
        frames = last["registry"].get("repro_cluster_frames_routed_total")
        per_domain.setdefault(
            dseed, (cluster.rounds, frames.value() if frames else 0.0)
        )
        restarts[0] += cluster.restarts
        if dseed not in book.phase_bits:
            book.phase_bits[dseed] = harness.phase_max_bits(cluster.metrics)

    drive(record, seeds, seconds, trace, decide, decide, observe)
    # Peak RSS: this process plus the concurrent workers.
    record.peak_rss_mb = harness.peak_rss_mb(children=wl.parallel)
    if not trace:
        return
    record.layer.update({
        "cluster.round.s_p50": statistics.median(rounds) if rounds else 0.0,
        "cluster.rounds": harness.mean(r for r, _ in per_domain.values()),
        "cluster.frames": harness.mean(f for _, f in per_domain.values()),
        "cluster.restarts": float(restarts[0]),
        "cluster.worker_import_s": statistics.median(
            harness.worker_import_seconds(3)
        ),
    })


# -- the gateway driver (gateway-n16) ----------------------------------------


class Gateway:
    """One ``repro serve run`` subprocess, booted through the wrapper."""

    def __init__(self, scratch: Path, name: str, trace: bool) -> None:
        self.dir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=scratch))
        self.port_file = self.dir / "port"
        self.dump = self.dir / "trace.json"
        command = [
            sys.executable, str(Path(__file__).with_name("gateway_server.py")),
            "--trace-out", str(self.dump) if trace else "",
            "--", "serve", "run", "--max-sessions", "2",
            "--cache-entries", str(GATEWAY_CACHE_ENTRIES),
            "--port-file", str(self.port_file),
        ]
        self.log = (self.dir / "server.log").open("wb")
        self.process = subprocess.Popen(
            command, env=harness.child_env(), stdout=self.log,
            stderr=subprocess.STDOUT,
        )
        self.port = 0

    def wait_ready(self, timeout: float = 60.0) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"gateway exited with {self.process.returncode}"
                )
            if self.port_file.exists():
                text = self.port_file.read_text().strip()
                if text:
                    self.port = int(text)
                    with GatewayClient(port=self.port) as client:
                        if client.ping().get("ok"):
                            return
            time.sleep(0.01)
        raise RuntimeError("gateway did not become ready")

    def snapshot_trace(self) -> None:
        """Ask the traced server to mark the end of its set-up."""
        marker = self.dump.with_suffix(".setup.json")
        self.process.send_signal(signal.SIGUSR1)
        deadline = time.monotonic() + 30
        while not marker.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        if not marker.exists():
            raise RuntimeError("traced gateway did not snapshot its set-up")

    def stop(self) -> None:
        """Shut the gateway down (idempotent) and wait for its exit."""
        if self.log.closed:
            return
        if self.process.poll() is None and self.port:
            try:
                with GatewayClient(port=self.port, timeout=30) as client:
                    client.shutdown()
            except (OSError, GatewayError):  # the wait below kills it
                pass
        try:
            self.process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait(timeout=30)
        self.log.close()


def _session_spec(index: int, snark_seeds: List[int],
                  owf_seeds: List[int]) -> Dict[str, Any]:
    if index % OWF_EVERY == OWF_EVERY - 1:
        return {"scheme": "owf",
                "seed": owf_seeds[(index // OWF_EVERY) % len(owf_seeds)]}
    return {"scheme": "snark-hash",
            "seed": snark_seeds[index % len(snark_seeds)]}


@dataclass
class _Outcome:
    latency: float
    submit: float
    session: float
    busy: int


def _run_session(client: GatewayClient, spec: Dict[str, Any], n: int,
                  checker: Checker, lock: threading.Lock,
                 exact: Dict[Any, Tuple[int, int, int]]) -> _Outcome:
    busy = 0
    start = time.perf_counter()
    for _ in range(50):
        submitted = client.submit(n=n, repeat=1, **spec)
        if submitted.get("ok") or submitted.get("code") != "busy":
            break
        busy += 1
        time.sleep(float(submitted.get("retry_after", 0.05)))
    admitted = time.perf_counter()
    domain = (spec["scheme"], spec["seed"])
    if not submitted.get("ok"):
        with lock:
            checker.error(f"{domain}: refused: {submitted.get('error')}")
        return _Outcome(admitted - start, admitted - start, 0.0, busy)
    answer = client.await_result(str(submitted["session"]))
    latency = time.perf_counter() - start
    result = answer.get("result") if answer.get("ok") else None
    with lock:
        if result is None:
            checker.error(f"{domain}: {answer.get('error')}")
            return _Outcome(latency, admitted - start, 0.0, busy)
        if checker.check(domain, result["agreement"], result["validity"],
                         result["per_party_bits"]):
            exact.setdefault(domain, (
                result["max_bits_per_party"], result["certificate_bytes"],
                result["budget_bits"],
            ))
    return _Outcome(latency, admitted - start,
                    float(result["wall"]["session_s"]), busy)


def _gateway_window(gateway: Gateway, wl: Workload, seconds: float,
                    snark_seeds: List[int], owf_seeds: List[int],
                    checker: Checker,
                    exact: Dict[Any, Tuple[int, int, int]],
                    sessions: Optional[int] = None,
                    ) -> Tuple[List[_Outcome], float, float]:
    """``wl.parallel`` closed-loop clients for ``seconds``, or for
    exactly ``sessions`` sessions when that is given."""
    lock = threading.Lock()
    outcomes: List[_Outcome] = []
    counter = [0]
    errors: List[BaseException] = []
    start = time.perf_counter()

    def client_loop() -> None:
        try:
            with GatewayClient(port=gateway.port) as client:
                while True:
                    with lock:
                        index = counter[0]
                        counter[0] += 1
                    if (index >= sessions if sessions is not None else
                            time.perf_counter() - start >= seconds):
                        break
                    spec = _session_spec(index, snark_seeds, owf_seeds)
                    outcome = _run_session(client, spec, wl.n, checker,
                                           lock, exact)
                    with lock:
                        outcomes.append(outcome)
        except BaseException as exc:  # re-raised on the main thread
            errors.append(exc)

    cpu0 = harness.cpu_seconds() + harness.proc_cpu_seconds(gateway.process.pid)
    threads = [threading.Thread(target=client_loop)
               for _ in range(wl.parallel)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    cpu = (harness.cpu_seconds() + harness.proc_cpu_seconds(
        gateway.process.pid)) - cpu0
    if errors:
        raise errors[0]
    return outcomes, elapsed, cpu


def _boot(scratch: Path, name: str, trace: bool, wl: Workload,
          snark_seeds: List[int], checker: Checker,
          exact: Dict[Any, Tuple[int, int, int]]) -> Tuple[Gateway, float]:
    """Boot a gateway and warm the snark-hash key domains; timed."""
    start = time.perf_counter()
    gateway = Gateway(scratch, name, trace)
    try:
        gateway.wait_ready()
        lock = threading.Lock()
        with GatewayClient(port=gateway.port) as client:
            for dseed in snark_seeds:
                _run_session(client, {"scheme": "snark-hash", "seed": dseed},
                             wl.n, checker, lock, exact)
    except BaseException:
        gateway.stop()
        raise
    return gateway, time.perf_counter() - start


def _prom_value(text: str, series: str) -> float:
    for line in text.splitlines():
        if line.startswith(series + " ") or line.startswith(series + "{"):
            return float(line.rsplit(" ", 1)[1])
    return 0.0


def run_gateway(wl: Workload, seed: int, seconds: float, trace: bool,
                checker: Checker, record: RunRecord, scratch: Path) -> None:
    """``GatewayClient`` connections against a ``serve run`` subprocess.

    Each set-up repetition boots a gateway and warms its snark-hash key
    domains; that gateway then serves its slice of the window.
    """
    snark_seeds = domain_seeds(seed, SNARK_DOMAINS, wl.name + ":snark-hash")
    owf_seeds = domain_seeds(seed, OWF_DOMAINS, wl.name + ":owf")
    window = seconds / 2 if trace else seconds
    servers: List[Gateway] = []
    peak_kb = [0.0]
    busy = [0]

    def set_up(rep: int) -> float:
        gateway, wall = _boot(scratch, f"gateway-{rep}", False, wl,
                              snark_seeds, checker, record.exact)
        servers.append(gateway)
        return wall

    def measure(rep: int, share: float
                ) -> Tuple[List[float], float, float]:
        gateway = servers[-1]
        outcomes, wall_s, cpu_s = _gateway_window(
            gateway, wl, share, snark_seeds, owf_seeds, checker,
            record.exact,
        )
        peak_kb[0] = max(
            peak_kb[0], harness.proc_peak_rss_kb(gateway.process.pid)
        )
        gateway.stop()
        busy[0] += sum(o.busy for o in outcomes)
        return [o.latency for o in outcomes], wall_s, cpu_s

    try:
        sliced(record, list(range(wl.domains)), window, set_up, measure)
        record.peak_rss_mb = harness.peak_rss_mb(extra_kb=peak_kb[0],
                                                 children=0)
        record.notes["busy_rejects"] = busy[0]
        if not trace:
            return
        gateway, _ = _boot(scratch, "gateway-traced", True, wl, snark_seeds,
                           checker, record.exact)
        servers.append(gateway)
        gateway.snapshot_trace()
        with GatewayClient(port=gateway.port) as client:
            status0 = client.status()["setup_cache"]
            prom0 = client.metrics_text()
        # One whole cycle of the traffic mix, so the server-side counts
        # cover the same sessions on every run of a seed.
        outcomes, _, _ = _gateway_window(
            gateway, wl, window, snark_seeds, owf_seeds, checker,
            record.exact, sessions=OWF_EVERY * OWF_DOMAINS,
        )
        with GatewayClient(port=gateway.port) as client:
            status1 = client.status()["setup_cache"]
            prom1 = client.metrics_text()
        gateway.stop()
        record.traced_walls = [o.latency for o in outcomes]
        _gateway_layer(record, outcomes, status0, status1, prom0, prom1,
                       gateway.dump)
    finally:
        for server in servers:
            server.stop()


def _gateway_layer(record: RunRecord, outcomes: List[_Outcome],
                   status0: Dict[str, int], status1: Dict[str, int],
                   prom0: str, prom1: str, dump: Path) -> None:
    setup = json.loads(dump.with_suffix(".setup.json").read_text())
    final = json.loads(dump.read_text())
    decisions = len(outcomes)
    window = harness.diff_snapshots(final["counters"], setup["counters"])
    # Server-side counts cover a window of concurrent sessions, so they
    # are window totals per decision rather than first-decision counts.
    per_decision = {
        "calls": {k: v / decisions for k, v in window["calls"].items()},
        "seconds": {k: v / decisions for k, v in window["seconds"].items()},
    }
    book = TraceBook()
    book.add("window", per_decision)
    record.layer.update(book.counts())
    record.layer.update(setup_layer(setup["counters"], 1))
    record.layer.update(phase_layer(final["phase_s"], final["decisions"],
                                    final["phase_bits"]))
    _uncounted(record, final["uncounted"])
    hits = status1["hits"] - status0["hits"]
    misses = status1["misses"] - status0["misses"]
    session_sum = (
        _prom_value(prom1, "repro_gateway_session_seconds_sum")
        - _prom_value(prom0, "repro_gateway_session_seconds_sum")
    )
    session_count = (
        _prom_value(prom1, "repro_gateway_session_seconds_count")
        - _prom_value(prom0, "repro_gateway_session_seconds_count")
    )
    session_s = session_sum / session_count if session_count else 0.0
    record.layer.update({
        "serve.submit.s": statistics.median(o.submit for o in outcomes),
        "serve.session.s": session_s,
        "serve.client_overhead.s": (
            harness.mean(o.latency for o in outcomes) - session_s
        ),
        "serve.busy_rejects": float(sum(o.busy for o in outcomes)),
        "serve.setup_cache.hit_ratio": (
            hits / (hits + misses) if hits + misses else 0.0
        ),
        "serve.setup_cache.misses": float(misses),
    })


DRIVERS = {"session": run_session, "cluster": run_cluster,
           "gateway": run_gateway}
