"""Property: the three streaming sinks agree with the post-hoc rollup.

``StreamingPhaseSink``, ``SignatureRecorder`` and ``FlopsLedger`` all
fold per-span self time live, on the tracer's children-before-parents
stream.  ``PhaseAggregator`` computes the same attribution post hoc
from the retained event list.  On random span trees whose every span
has an explicit or name-mapped phase (so the aggregator's ancestor
inheritance never applies), the streaming answers must match it:

* the phase sink's running totals equal the aggregator's wall totals;
* each signature's shares x ``wall_us`` equal that blockstep's
  aggregator split;
* each ledger record's loss categories are that blockstep's split
  priced at the hardware rate, and with the real flops they tile the
  span's peak.
"""

import itertools
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.telemetry import (
    DEFAULT_SPAN_PHASES,
    PHASES,
    T_BARRIER,
    T_COMM,
    T_HOST,
    T_OTHER,
    T_PIPE,
    FlopsLedger,
    HardwareProfile,
    PhaseAggregator,
    SignatureRecorder,
    SpanEvent,
    StreamingPhaseSink,
)

#: Names the default map resolves, plus one it does not.
NAMES = sorted(DEFAULT_SPAN_PHASES) + ["custom"]

#: 1 flop per us keeps the priced buckets equal to the times.
HARDWARE = HardwareProfile(n_chips=1, lanes_per_chip=48, flops_per_s=1.0e6)

#: Ledger loss bucket of each aggregator phase when the blockstep
#: retires nothing (all pipe time is then idle pipeline); ``jmem`` is
#: the relabelled ``grape.jmem_load`` spans.
LEDGER_BUCKET = {T_PIPE: "pipeline_idle", T_HOST: "host", T_OTHER: "host",
                 T_COMM: "comm", T_BARRIER: "barrier", "jmem": "jmem"}

durations = st.floats(min_value=0.0, max_value=1.0e4, allow_nan=False)


@st.composite
def spans(draw, depth=0):
    """One span subtree: ``(name, phase, self_wall, self_virt, children,
    attrs)``; a name outside the default map always carries an explicit
    phase."""
    name = draw(st.sampled_from(NAMES))
    phase = draw(st.sampled_from(PHASES) if name == "custom"
                 else st.none() | st.sampled_from(PHASES))
    children = draw(st.lists(spans(depth + 1), max_size=3)) if depth < 3 else []
    return name, phase, draw(durations), draw(durations), children, {}


def blockstep(children):
    """A blockstep root, with or without a block to retire."""
    block = st.fixed_dictionaries(
        {"n_block": st.integers(1, 64), "n": st.just(64)})
    return st.tuples(
        st.just("blockstep"), st.sampled_from(PHASES), durations, durations,
        children, st.just({}) | block,
    )


@st.composite
def streams(draw):
    """A children-before-parents event stream: top-level blocksteps,
    blocksteps nested under a wrapper span, and top-level spans outside
    any blockstep; with or without virtual timestamps."""
    roots = draw(st.lists(
        st.one_of(
            blockstep(st.lists(spans(1), max_size=4)),
            spans(),
            st.tuples(st.just("run"), st.just(T_HOST), durations, durations,
                      st.lists(blockstep(st.lists(spans(2), max_size=3)),
                               min_size=1, max_size=3), st.just({})),
        ),
        min_size=1, max_size=5,
    ))
    virtual = draw(st.booleans())
    ids = itertools.count(1)
    events = []

    def emit(node, parent_id, depth, t0):
        name, phase, self_wall, self_virt, children, attrs = node
        span_id = next(ids)
        wall = virt = 0.0
        for child in children:
            w, v = emit(child, span_id, depth + 1, t0 + wall)
            wall += w
            virt += v
        wall += self_wall
        virt += self_virt
        events.append(SpanEvent(
            name=name, span_id=span_id, parent_id=parent_id, depth=depth,
            t_start_us=t0, dur_us=wall, phase=phase,
            v_start_us=t0 if virtual else None,
            v_dur_us=virt if virtual else None, attrs=attrs,
        ))
        return wall, virt

    t = 0.0
    for root in roots:
        t += emit(root, None, 0, t)[0]
    return events


def subtree_events(events, root):
    """The root span and all of its descendants."""
    inside = {root.span_id}
    for e in reversed(events[:events.index(root)]):
        if e.parent_id in inside:
            inside.add(e.span_id)
    return [e for e in events if e.span_id in inside]


def replay(events, sink):
    for e in events:
        sink.emit(e)
    return sink


@settings(max_examples=150, deadline=None)
@given(streams())
def test_phase_sink_totals_equal_aggregator(events):
    totals = replay(events, StreamingPhaseSink()).snapshot()["wall_us"]
    expected = PhaseAggregator().consume(events).breakdown().wall.totals
    for phase in PHASES:
        assert totals.get(phase, 0.0) == expected[phase], phase


@settings(max_examples=150, deadline=None)
@given(streams())
def test_signature_shares_match_blockstep_split(events):
    roots = [e for e in events if e.name == "blockstep"]
    signatures = replay(events, SignatureRecorder()).signatures
    assert len(signatures) == len(roots)
    for sig, root in zip(signatures, roots):
        assert sig.wall_us == root.dur_us
        split = PhaseAggregator().consume(
            subtree_events(events, root)).breakdown().wall.totals
        for phase in PHASES:
            assert sig.shares[phase] * sig.wall_us == pytest.approx(
                split[phase], rel=1e-9, abs=1e-6), phase


@settings(max_examples=150, deadline=None)
@given(streams())
def test_ledger_categories_tile_blockstep(events):
    roots = [e for e in events if e.name == "blockstep"]
    records = replay(events, FlopsLedger(hardware=HARDWARE)).records
    assert len(records) == len(roots)
    for rec, root in zip(records, roots):
        # the ledger splits j-memory loads out of pipe by name
        relabelled = [
            replace(e, phase="jmem") if e.name == "grape.jmem_load" else e
            for e in subtree_events(events, root)
        ]
        breakdown = PhaseAggregator().consume(relabelled).breakdown()
        virtual = root.v_dur_us is not None
        assert rec.clock == ("virtual" if virtual else "wall")
        split = (breakdown.virtual if virtual else breakdown.wall).totals
        expected = dict.fromkeys(LEDGER_BUCKET.values(), 0.0)
        for phase, us in split.items():
            expected[LEDGER_BUCKET[phase]] += us
        if "n_block" not in root.attrs:
            # nothing retired: every category is priced as it is
            assert rec.real_flops == 0.0
            for bucket, flops in expected.items():
                assert rec.buckets[bucket] == pytest.approx(
                    flops, rel=1e-9, abs=1e-6), bucket
        tiled = rec.real_flops + sum(rec.buckets.values())
        assert tiled == pytest.approx(rec.peak_flops, rel=1e-12, abs=1e-9)
