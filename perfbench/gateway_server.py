"""Run ``python -m repro serve ...`` with optional per-layer tracing.

Usage::

    python3 perfbench/gateway_server.py --trace-out FILE -- serve run ...

With an empty ``--trace-out`` this is exactly ``python -m repro``.  With
a file, the counting wrappers of :class:`harness.Tracer` are installed
before the gateway boots; ``SIGUSR1`` writes the set-up counters to
``FILE`` with suffix ``.setup.json`` and starts a fresh span window, and
on exit the window's counters, phase times and phase bits go to ``FILE``.
"""

from __future__ import annotations

import json
import os
import signal
import sys
from pathlib import Path
from typing import Any, Dict, List

import harness


def _write(path: Path, payload: Dict[str, Any]) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(payload))
    os.replace(tmp, path)


def main(argv: List[str]) -> int:
    split = argv.index("--")
    options, command = argv[:split], argv[split + 1:]
    trace_out = options[options.index("--trace-out") + 1]
    from repro.__main__ import main as repro_main

    if not trace_out:
        return repro_main(command)
    dump = Path(trace_out)
    tracer = harness.Tracer()
    tracer.install()

    def snapshot(signum: int, frame: Any) -> None:
        counters = tracer.counters.snapshot()
        tracer.reset_spans()
        tracer.ledgers.clear()
        _write(dump.with_suffix(".setup.json"), {"counters": counters})

    signal.signal(signal.SIGUSR1, snapshot)
    try:
        return repro_main(command)
    finally:
        payload = {
            "counters": tracer.counters.snapshot(),
            "phase_s": tracer.phase_seconds(),
            "phase_bits": [
                harness.phase_max_bits(ledger) for ledger in tracer.ledgers
            ],
            "decisions": len(tracer.ledgers),
        }
        payload["uncounted"] = tracer.uninstall()
        _write(dump, payload)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
