"""The ledger's two wire charge paths agree bit for bit.

In-process executors charge one message at a time through
``record_message``; the cluster supervisor charges a worker's round
digest in one batch through ``replay_digest``, which is documented to
charge every row exactly as ``record_message`` under
``flow_tags(phase=row_phase, kind=kind)`` would.  This property pins
that contract over random rows, rounds and span contexts, with and
without an attached flow ledger.
"""

from contextlib import ExitStack

from hypothesis import given, strategies as st

from repro.net.metrics import CommunicationMetrics
from repro.obs.flow import FlowLedger, flow_tags
from repro.obs.spans import span

#: One digest row: (sender, recipient, bits, recorded protocol phase).
rows = st.tuples(
    st.integers(min_value=0, max_value=7),
    st.integers(min_value=0, max_value=7),
    st.integers(min_value=0, max_value=1 << 20),
    st.sampled_from(["", "base-sign", "srds-aggregate", "prf-boost"]),
)

#: Rounds of rows; each round is closed with ``end_round``.
rounds = st.lists(st.lists(rows, max_size=12), min_size=1, max_size=4)


def _ledger(with_flow):
    metrics = CommunicationMetrics()
    if with_flow:
        metrics.attach_flow(FlowLedger())
    return metrics


def _charge(metrics, batches, span_name, one_by_one):
    with ExitStack() as stack:
        if span_name is not None:
            stack.enter_context(span(span_name))
        for batch in batches:
            if one_by_one:
                for sender, recipient, bits, phase in batch:
                    with flow_tags(phase=phase, kind="frame"):
                        metrics.record_message(sender, recipient, bits)
            else:
                metrics.replay_digest(batch, kind="frame")
            metrics.end_round()


def _view(metrics):
    parties = metrics.party_ids
    view = {
        "tallies": {p: metrics.tally_of(p) for p in parties},
        "bits_by_phase": {p: metrics.bits_by_phase(p) for p in parties},
        "phase_breakdown": metrics.phase_breakdown(),
        "round_bits": metrics.round_bits,
        "snapshot": metrics.snapshot(),
    }
    if metrics.flow is not None:
        view["flow_cells"] = metrics.flow.cells()
        view["flow_by_phase"] = metrics.flow.by_phase()
        view["flow_party_bits"] = metrics.flow.party_bits()
        view["flow_parity"] = metrics.flow.verify_against(metrics)
    return view


@given(
    batches=rounds,
    span_name=st.sampled_from([None, "cluster-round"]),
    with_flow=st.booleans(),
)
def test_record_message_and_replay_digest_charge_identically(
    batches, span_name, with_flow
):
    single = _ledger(with_flow)
    batched = _ledger(with_flow)
    _charge(single, batches, span_name, one_by_one=True)
    _charge(batched, batches, span_name, one_by_one=False)
    assert _view(single) == _view(batched)
    if with_flow:
        assert single.flow.verify_against(single) == []
