"""The traffic plane's value classes, pinned field by field.

``LookupRequest``, ``LookupReply`` and ``IssuedOp`` are slotted named
tuples built once per hop or per op.  Their identity is part of the
simulation: ``canonical()`` feeds every configuration fingerprint, and
equality/hash must ignore the causal ``trace`` so a traced run stays
byte-identical to an untraced one.  The literal tuples and the campaign
digest below were recorded with the frozen-dataclass classes these
replaced.
"""

from __future__ import annotations

import copy
import hashlib
import pickle

import pytest

from repro.dht.lookup import ReChordRouter
from repro.dht.storage import KeyValueStore
from repro.experiments.scaling import build_ideal_network
from repro.telemetry.tracing import TraceContext
from repro.traffic import TrafficPlane, WorkloadGenerator
from repro.traffic.messages import LookupReply, LookupRequest
from repro.traffic.slo import IssuedOp

TRACE = TraceContext(op_id=7, hops=((3, 1, "issue"),))


def request(**changes):
    fields = dict(op="get", op_id=7, origin=3, kid=41, ttl=12, hops=2, path=(3, 9, 17), value="v")
    fields.update(changes)
    return LookupRequest(**fields)


def reply(**changes):
    fields = dict(
        op="get", op_id=7, origin=3, kid=41, status="notfound", owner=44, hops=4, value=None
    )
    fields.update(changes)
    return LookupReply(**fields)


def issued(**changes):
    fields = dict(op_id=7, op="get", origin=3, kid=41, issue_round=5, deadline=53)
    fields.update(changes)
    return IssuedOp(**fields)


class TestCanonical:
    def test_request_with_default_resilience_fields(self):
        assert request().canonical() == (
            "traffic-req", "get", 7, 3, 41, 12, 2, (3, 9, 17), "'v'",
        )

    def test_request_with_resilience_fields(self):
        assert request(attempt=2, hedge=True).canonical() == (
            "traffic-req", "get", 7, 3, 41, 12, 2, (3, 9, 17), "'v'", 2, True,
        )
        assert request(hedge=True).canonical()[-2:] == (1, True)

    def test_reply_with_default_resilience_fields(self):
        assert reply().canonical() == (
            "traffic-rep", "get", 7, 3, 41, "notfound", 44, 4, "None",
        )

    def test_reply_with_resilience_fields(self):
        assert reply(attempt=3).canonical() == (
            "traffic-rep", "get", 7, 3, 41, "notfound", 44, 4, "None", 3, False,
        )

    def test_defaults(self):
        bare = LookupRequest("lookup", 1, 2, 3, 8)
        assert (bare.hops, bare.path, bare.value, bare.attempt, bare.hedge, bare.trace) == (
            0, (), None, 1, False, None,
        )
        assert (issued().attempt, issued().deadline_span) == (1, 0)


class TestIdentity:
    @pytest.mark.parametrize("make", [request, reply])
    def test_equality_and_hash_ignore_the_trace(self, make):
        bare, traced = make(), make(trace=TRACE)
        assert bare == traced and not bare != traced
        assert hash(bare) == hash(traced)
        assert bare.canonical() == traced.canonical()
        assert bare != make(hops=9) and hash(bare) != hash(make(hops=9))

    @pytest.mark.parametrize("make", [request, reply, issued])
    def test_equal_only_to_the_same_class(self, make):
        record = make()
        assert record != tuple(record) and tuple(record) != record
        assert not record == tuple(record)

    def test_issued_op_compares_every_field(self):
        assert issued() == issued() and hash(issued()) == hash(issued())
        assert issued() != issued(attempt=2)
        assert issued() != issued(deadline_span=48)

    @pytest.mark.parametrize("make", [request, reply, issued])
    def test_assigning_an_attribute_raises(self, make):
        record = make()
        with pytest.raises(AttributeError):
            record.op_id = 8
        with pytest.raises(AttributeError):
            record.extra = 1
        assert record.op_id == 7

    @pytest.mark.parametrize("make", [request, reply, issued])
    def test_pickle_and_deepcopy_round_trip(self, make):
        record = make() if make is issued else make(trace=TRACE)
        for clone in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
            assert type(clone) is type(record) and clone == record
            assert repr(clone) == repr(record)  # the trace survives too


def campaign_records(resilient: bool):
    """A seeded churny KV campaign; the records its collector keeps."""
    net = build_ideal_network(24, 5)
    kw = dict(max_attempts=3, hedge_after=3, route_redundancy=2) if resilient else {}
    plane = TrafficPlane(
        net, store=KeyValueStore(ReChordRouter(net)), reservoir_size=24,
        default_deadline=10, **kw,
    )
    plane.attempt_log = []
    gen = WorkloadGenerator(
        plane, rate=6, op_mix=(("lookup", 0.5), ("get", 0.25), ("put", 0.25)),
        key_universe=6, seed=3,
    )
    for r in range(40):
        if r in (8, 20):
            net.crash(net.peer_ids[5 + r % 7])
        if r == 14:
            net.join(net.peer_ids[3] + 17, net.peer_ids[0])
        plane.run_round()
    gen.active = False
    plane.drain()
    coll = plane.collector

    def rows(records):
        return [
            (c.op_id, c.op, c.origin, c.kid, c.issue_round, c.complete_round, c.outcome,
             c.hops, c.value, c.attempt, c.hedged)
            for c in records
        ]

    return rows(coll.completed), rows(coll.violations), list(plane.attempt_log)


@pytest.mark.parametrize(
    "resilient,sizes,digest",
    [(False, (24, 2, 0), "b051d354100c092c"), (True, (24, 2, 222), "627c643a2300f5b2")],
)
def test_kept_records_match_the_dataclass_era(resilient, sizes, digest):
    """Reservoir (240 completions into 24 slots), violation list and
    attempt log of a seeded campaign, as the frozen-dataclass classes
    recorded them."""
    completed, violations, log = campaign_records(resilient)
    assert (len(completed), len(violations), len(log)) == sizes
    blob = repr((completed, violations, log)).encode()
    assert hashlib.sha256(blob).hexdigest()[:16] == digest
