"""The scenario engine: specs, events, executor, and the two-kernel
equivalence of every named campaign.

Three layers of guarantees:

* **spec layer** — specs are values: JSON round-trips are lossless and
  invalid specs fail loudly at construction;
* **determinism** — the same ``(spec, kernel)`` pair produces the
  byte-identical :class:`ScenarioReport`, including the configuration
  digest, on repeated runs;
* **engine equivalence** — every named scenario produces the *same*
  report on the columnar kernel (as shipped, and with every round on
  its general delivery point) and on the full-scan kernel (the
  ``tests/test_engine_equivalence.py`` discipline extended to the whole
  adversity vocabulary, partitions and corruption included).
"""

from __future__ import annotations

import functools
import json
import random
import re

import pytest

from repro.core.network import ConfigSnapshot, ReChordNetwork
from repro.scenarios import (
    EVENT_KINDS,
    EventContext,
    EventSpec,
    ScenarioSpec,
    TrafficSpec,
    apply_event_spec,
    make_scenario,
    run_scenario,
    scenario_names,
)
from repro.scenarios.executor import _build_start
from repro.netsim.rng import SeedSequence
from repro.traffic import TrafficPlane, WorkloadGenerator
from repro.workloads.initial import build_random_network
from tests.conftest import ENGINES, KERNELS, build, leg

#: small campaign size used throughout (keeps the suite fast)
N = 12


def tiny(name: str, n: int = N, seed: int = 5) -> ScenarioSpec:
    return make_scenario(name, n=n, seed=seed)


@functools.lru_cache(maxsize=None)
def _spec_report(name: str):
    """``tiny(name)`` on the full-scan spec, run once for both legs."""
    return run_scenario(tiny(name), engine="full")


class TestSpec:
    @pytest.mark.parametrize("name", scenario_names())
    def test_json_round_trip_is_lossless(self, name):
        spec = tiny(name)
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_library_has_at_least_eight_scenarios(self):
        assert len(scenario_names()) >= 8

    def test_unknown_start_rejected(self):
        with pytest.raises(ValueError, match="unknown start"):
            ScenarioSpec(name="x", n=8, seed=1, rounds=4, start="moebius")

    def test_event_outside_window_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            ScenarioSpec(
                name="x", n=8, seed=1, rounds=4,
                events=(EventSpec(at=9, kind="crash_wave", params={"count": 1}),),
            )

    def test_event_at_window_end_rejected(self):
        """Offsets run 0..rounds-1; an event at `rounds` would silently
        never fire (regression: validation used to admit it)."""
        with pytest.raises(ValueError, match="outside"):
            ScenarioSpec(
                name="x", n=8, seed=1, rounds=4,
                events=(EventSpec(at=4, kind="crash_wave", params={"count": 1}),),
            )

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("n", "8", "n must be an integer, got '8' (str)"),
            ("n", 0, "n must be >= 1, got 0"),
            ("seed", True, "seed must be an integer, got True (bool)"),
            ("seed", 1.0, "seed must be an integer, got 1.0 (float)"),
            ("rounds", 4.5, "rounds must be an integer, got 4.5 (float)"),
            ("rounds", -1, "rounds must be >= 0, got -1"),
            ("sample_every", None, "sample_every must be an integer, got None (NoneType)"),
            ("sample_every", 0, "sample_every must be >= 1, got 0"),
            ("max_recovery_rounds", "9", "max_recovery_rounds must be an integer, got '9' (str)"),
            ("max_recovery_rounds", -3, "max_recovery_rounds must be >= 1, got -3"),
            ("max_recovery_rounds", 0, "max_recovery_rounds must be >= 1, got 0"),
        ],
    )
    def test_integer_field_rejected(self, field, value, message):
        """Each integer field is an int (never a bool or a numeric
        string from a JSON spec) in range, and the error names it
        (regression: a negative recovery budget ran to ``stable=False``
        and a float round count reached the executor as a TypeError)."""
        data = {"name": "x", "n": 8, "seed": 1, "rounds": 4, field: value}
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ScenarioSpec.from_json(json.dumps(data))

    def test_negative_seed_accepted(self):
        """The seed only keys SHA-256 derivations: any int is in range."""
        assert ScenarioSpec(name="x", n=8, seed=-7, rounds=4).seed == -7

    @staticmethod
    def _event_error(event: dict) -> str:
        """The error a one-event spec's JSON raises, the event second."""
        quiet = {"at": 0, "kind": "heal", "params": {}}
        data = {"name": "x", "n": 8, "seed": 1, "rounds": 4, "events": [quiet, event]}
        with pytest.raises(ValueError) as info:
            ScenarioSpec.from_json(json.dumps(data))
        return str(info.value)

    def test_fractional_offset_rejected(self):
        """Regression: ``"at": 2.5`` was truncated to round 2."""
        got = self._event_error({"at": 2.5, "kind": "crash_wave", "params": {"count": 1}})
        assert got == "event 1: at must be an integer, got 2.5 (float)"

    def test_negative_count_rejected(self):
        """Regression: ``count: -2`` crashed nobody and said nothing."""
        got = self._event_error({"at": 1, "kind": "crash_wave", "params": {"count": -2}})
        assert got == "event 1: params.count must be an integer >= 0, got -2"

    def test_count_and_fraction_together_rejected(self):
        """Regression: ``count`` silently won over ``fraction``."""
        got = self._event_error(
            {"at": 1, "kind": "leave_wave", "params": {"count": 2, "fraction": 0.5}}
        )
        assert got == "event 1: params: leave_wave takes count or fraction, not both"

    def test_non_numeric_count_rejected(self):
        """Regression: ``count: "many"`` raised a ValueError traceback
        after the run had started."""
        got = self._event_error({"at": 1, "kind": "flash_crowd", "params": {"count": "many"}})
        assert got == "event 1: params.count must be an integer >= 0, got 'many'"

    def test_unknown_parameter_rejected(self):
        """Regression: ``{"bogus": 1}`` raised a TypeError traceback
        after the run had started."""
        got = self._event_error(
            {"at": 1, "kind": "crash_wave", "params": {"count": 1, "bogus": 1}}
        )
        assert got.startswith("event 1: params: unknown parameter 'bogus' for crash_wave")

    def test_unknown_targeting_rejected(self):
        """Regression: an unknown targeting failed only when it fired."""
        got = self._event_error(
            {"at": 1, "kind": "crash_wave", "params": {"count": 1, "targeting": "nearest"}}
        )
        assert got == (
            "event 1: params.targeting must be one of "
            "['random', 'clustered', 'extremes'], got 'nearest'"
        )

    def test_misspelled_gateway_rejected(self):
        """Regression: ``gateway="Single"`` silently meant ``"random"``."""
        got = self._event_error(
            {"at": 1, "kind": "flash_crowd", "params": {"count": 2, "gateway": "Single"}}
        )
        assert got == "event 1: params.gateway must be one of ['random', 'single'], got 'Single'"

    def test_every_library_scenario_loads_unchanged(self):
        """The checks reject nothing the library or the docs ship."""
        for name in scenario_names():
            spec = tiny(name)
            assert ScenarioSpec.from_json(spec.to_json()) == spec
        assert EventSpec(at=3, kind="set_latency", params={"kind": "constant", "delay": 2})

    def test_overrides_produce_new_spec(self):
        spec = tiny("flash-crowd")
        bigger = spec.with_overrides(n=2 * spec.n)
        assert bigger.n == 2 * spec.n and spec.n == N

    def test_traffic_spec_detects_kv_mix(self):
        assert not TrafficSpec().needs_store()
        assert TrafficSpec(op_mix=(("lookup", 0.5), ("put", 0.5))).needs_store()


class TestDeterminism:
    @pytest.mark.parametrize("name", ["flash-crowd", "partition-sever", "ring-split"])
    def test_same_seed_same_report(self, name):
        spec = tiny(name)
        assert run_scenario(spec) == run_scenario(spec)

    def test_different_seed_different_digest(self):
        a = run_scenario(tiny("churn-storm", seed=5))
        b = run_scenario(tiny("churn-storm", seed=6))
        assert a.config_digest != b.config_digest

    def test_report_is_json_serializable(self):
        report = run_scenario(tiny("seam-crash"))
        parsed = json.loads(json.dumps(report.to_dict(), sort_keys=True))
        assert parsed["name"] == "seam-crash"
        assert parsed["stable"] is True


class TestEngineEquivalence:
    """Columnar-vs-full-scan equality for the whole adversity
    vocabulary (the tests/test_engine_equivalence.py discipline)."""

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("name", scenario_names())
    def test_named_scenario_equivalent_across_kernels(self, name, kernel):
        with leg(kernel) as engine:
            report = run_scenario(tiny(name), engine=engine)
        # dataclass equality covers recovery metrics, repair curve,
        # SLO ledger, rule firings and the configuration digest
        assert report == _spec_report(name), f"{kernel} diverged under scenario {name!r}"

    def test_partition_lockstep_fingerprints(self):
        """Round-for-round equality while a drop filter is installed,
        not only at campaign end."""

        def build(engine):
            net = build_random_network(n=10, seed=9, engine=engine)
            net.run_until_stable(max_rounds=4000)
            ids = net.peer_ids
            side = frozenset(ids[: len(ids) // 2])
            net.scheduler.set_drop_filter(
                lambda env: (env.sender in side) != (env.target in side)
            )
            return net

        a, b = build("columnar"), build("full")
        for r in range(30):
            a.run_round()
            b.run_round()
            assert a.fingerprint() == b.fingerprint(), f"diverged at round {r}"
        a.scheduler.set_drop_filter(None)
        b.scheduler.set_drop_filter(None)
        ra = a.run_until_stable(max_rounds=4000)
        rb = b.run_until_stable(max_rounds=4000)
        assert ra == rb
        assert a.fingerprint() == b.fingerprint()


class TestRecoveryUnderEveryDaemon:
    """``seam-crash`` under each activation daemon, with unit and
    constant delivery: recovery reports stable exactly on an ideal
    overlay, and the two kernels report the same campaign."""

    @pytest.mark.parametrize(
        "latency", [None, {"kind": "constant", "delay": 2}], ids=["unit", "constant"]
    )
    @pytest.mark.parametrize("daemon", ["full", "partial", "round_robin", "unfair"])
    @pytest.mark.parametrize("n", [6, 12])
    def test_recovery_is_stable_and_ideal(self, n, daemon, latency):
        for seed in range(1, 4):
            spec = make_scenario("seam-crash", n=n, seed=seed).with_overrides(
                daemon={"kind": daemon}, latency=latency
            )
            report = run_scenario(spec, engine="columnar")
            assert report.stable and report.ideal, (seed, report.recovery_rounds)
            assert report == run_scenario(spec, engine="full"), f"seed {seed}"


class TestEvents:
    def make_net(self, n=10, seed=3) -> ReChordNetwork:
        net = build_random_network(n=n, seed=seed)
        net.run_until_stable(max_rounds=4000)
        return net

    def test_unknown_event_kind_raises(self):
        ctx = EventContext(self.make_net())
        with pytest.raises(ValueError, match="unknown event kind"):
            apply_event_spec(ctx, random.Random(0), "meteor", {})

    def test_event_registry_covers_spec_vocabulary(self):
        assert {
            "crash_wave", "leave_wave", "flash_crowd", "churn_burst",
            "partition", "heal", "poison_fingers", "phantom_refs",
            "ring_split", "set_rate",
        } <= set(EVENT_KINDS)

    def test_crash_wave_clustered_picks_consecutive_ids(self):
        net = self.make_net()
        before = net.peer_ids
        ctx = EventContext(net)
        apply_event_spec(ctx, random.Random(1), "crash_wave",
                         {"count": 3, "targeting": "clustered"})
        gone = sorted(set(before) - set(net.peer_ids))
        positions = sorted(before.index(v) for v in gone)
        span = [(positions[0] + i) % len(before) for i in range(3)]
        assert positions == sorted(span)
        assert ctx.census == {"crash": 3}

    def test_waves_never_empty_the_network(self):
        net = self.make_net(n=4)
        ctx = EventContext(net)
        apply_event_spec(ctx, random.Random(1), "crash_wave", {"count": 10})
        assert len(net.peers) >= 2

    def test_flash_crowd_single_gateway_grows_network(self):
        net = self.make_net()
        before = set(net.peer_ids)
        ctx = EventContext(net)
        apply_event_spec(ctx, random.Random(2), "flash_crowd",
                         {"count": 3, "gateway": "single"})
        assert len(net.peers) == len(before) + 3
        net.run_until_stable(max_rounds=4000)
        assert net.matches_ideal()

    def test_partition_drops_cross_traffic_and_heal_restores(self):
        net = self.make_net()
        ctx = EventContext(net)
        apply_event_spec(ctx, random.Random(3), "partition",
                         {"mode": "id_split", "fraction": 0.5})
        assert net.scheduler.has_drop_filter()
        net.run(3)
        assert net.scheduler.dropped_last_round > 0  # steady flows cut
        apply_event_spec(ctx, random.Random(4), "heal", {})
        assert not net.scheduler.has_drop_filter()
        net.run_until_stable(max_rounds=4000)
        assert net.matches_ideal()

    def test_severed_partition_needs_heal_bridge_to_merge(self):
        net = self.make_net()
        ctx = EventContext(net)
        apply_event_spec(ctx, random.Random(5), "partition",
                         {"mode": "id_split", "fraction": 0.5, "sever": True})
        assert ctx.census.get("sever", 0) > 0
        net.run(20)
        apply_event_spec(ctx, random.Random(6), "heal", {"bridges": 2})
        assert ctx.census.get("bridge") == 2
        net.run_until_stable(max_rounds=4000)
        assert net.matches_ideal()

    def test_ring_split_mid_run_recovers_to_ideal(self):
        net = self.make_net()
        ctx = EventContext(net)
        apply_event_spec(ctx, random.Random(7), "ring_split", {})
        # the reset leaves only the two interleaved cycles + bridge
        for pid in net.peer_ids:
            assert list(net.peers[pid].state.nodes) == [0]
        net.run_until_stable(max_rounds=4000)
        assert net.matches_ideal()

    def test_poison_and_phantom_recover_to_ideal(self):
        net = self.make_net()
        ctx = EventContext(net)
        apply_event_spec(ctx, random.Random(8), "poison_fingers",
                         {"fraction": 1.0, "edges_per_peer": 4})
        apply_event_spec(ctx, random.Random(9), "phantom_refs",
                         {"fraction": 1.0, "levels_per_peer": 2})
        assert ctx.census.get("poison_edge", 0) > 0
        assert ctx.census.get("virtual_level", 0) > 0
        net.run_until_stable(max_rounds=4000)
        assert net.matches_ideal()

    def test_set_rate_requires_traffic(self):
        ctx = EventContext(self.make_net())
        with pytest.raises(ValueError, match="traffic"):
            apply_event_spec(ctx, random.Random(0), "set_rate", {"rate": 1.0})


class TestExecutor:
    def test_two_rings_start_builds_split(self):
        spec = ScenarioSpec(name="x", n=10, seed=4, rounds=0,
                            start="two_rings", traffic=None)
        net = _build_start(spec, SeedSequence(4).child("t"))
        assert len(net.peers) == 10

    def test_repair_curve_shows_damage_and_healing(self):
        report = run_scenario(tiny("finger-poison"))
        peak = max(s.check_violations for s in report.samples)
        assert peak > 0, "corruption never registered on the local checker"
        assert report.samples[-1].check_violations == 0
        assert report.samples[-1].outstanding_ops == 0
        assert report.stable and report.ideal

    def test_partition_scenario_degrades_then_recovers_slo(self):
        report = run_scenario(tiny("partition-heal", n=16))
        assert report.slo is not None
        assert report.slo["outcomes"].get("timeout", 0) > 0, (
            "a half/half partition should strand cross-cut operations"
        )
        assert report.stable and report.ideal

    def test_no_traffic_scenario_runs(self):
        spec = tiny("crash-wave").with_overrides(traffic=None)
        report = run_scenario(spec)
        assert report.slo is None
        assert report.stable and report.ideal

    def test_rounds_total_consistent_with_samples(self):
        report = run_scenario(tiny("seam-crash"))
        assert report.samples[-1].round == report.rounds_total
        assert report.rounds_adversity <= report.rounds_total

    def test_sample_rounds_strictly_increase_in_recovery(self):
        """Regression: the final sample must not duplicate a periodic
        recovery sample taken at the same boundary."""
        for name in ("seam-crash", "flash-crowd"):
            report = run_scenario(tiny(name))
            recovery = [s.round for s in report.samples
                        if s.round > report.rounds_adversity]
            assert recovery == sorted(set(recovery))

    def test_event_streams_survive_unrelated_insertions(self):
        """Regression: an event's RNG stream is keyed on (round, kind,
        occurrence) — not its position in spec.events — so *prepending*
        an unrelated event must not re-roll the victims of existing
        events."""
        base = tiny("crash-wave")
        # a no-op workload event before the crash: shifts every event's
        # position, changes nothing else (the rate is already 2.0)
        noop = EventSpec(at=2, kind="set_rate", params={"rate": base.traffic.rate})
        extended = base.with_overrides(events=(noop,) + base.events)
        a = run_scenario(base)
        b = run_scenario(extended)
        assert b.event_census["crash"] == a.event_census["crash"]
        # same victims -> same final membership -> identical final
        # configuration digest (position-keyed seeding would re-roll
        # the crash wave and diverge here)
        assert b.config_digest == a.config_digest


class TestBoundarySnapshot:
    """The recovery loop's stability check: a boundary snapshot that is
    canonicalized only when a drained round lets the comparison decide."""

    LOGNORMAL = {"kind": "lognormal", "cap": 6}

    @pytest.mark.parametrize("latency", [LOGNORMAL, None], ids=["lognormal", "unit"])
    @pytest.mark.parametrize("engine", ENGINES)
    def test_snapshot_does_not_alias_live_state(self, engine, latency):
        """A snapshot keeps describing its own boundary while traffic,
        delayed deliveries and a crash wave move the network on."""
        net = build(build_random_network, engine, n=12, seed=4)
        net.run_until_stable(max_rounds=4000)
        if latency is not None:
            net.set_delivery_model(dict(latency))
        plane = TrafficPlane(net, max_attempts=3, hedge_after=2)
        WorkloadGenerator(plane, rate=3.0, seed=8)
        for _ in range(3):
            plane.run_round()
        rng = SeedSequence(4).child("crash").rng()
        apply_event_spec(EventContext(net, plane), rng, "crash_wave", {"count": 3})
        plane.run_round()
        snap, before = net.config_snapshot(), net.fingerprint()
        pending = before[1]
        assert any(entry[1][0] == "traffic-req" for entry in pending)
        if latency is not None:
            assert any(len(entry) == 3 for entry in pending)  # scheduled deliveries
        for _ in range(4):
            plane.run_round()
        assert net.fingerprint() != before
        assert snap.canonical() == before

    @pytest.mark.parametrize(
        "spec, drained_relaunches",
        [
            (tiny("gray-failure"), 2),
            (tiny("mass-failure", seed=2).with_overrides(latency=LOGNORMAL), 1),
        ],
        ids=["gray-failure", "mass-failure-lognormal"],
    )
    def test_only_drained_relaunch_rounds_are_canonicalized(
        self, spec, drained_relaunches, monkeypatch
    ):
        """On the columnar kernel a campaign canonicalizes one snapshot
        for the configuration digest and one pair per relaunch round that
        ends with a drained ledger, however many relaunch rounds it runs;
        the report still equals the full-scan spec's."""
        expected = run_scenario(spec, engine="full")
        canonicalized = []
        relaunch_drained = []
        canonical = ConfigSnapshot.canonical
        run_round = TrafficPlane.run_round

        def counting_canonical(self):
            canonicalized.append(self)
            return canonical(self)

        def watched_run_round(self, *args, **kwargs):
            recovering = self.generator is not None and not self.generator.active
            due = recovering and self.launches_due()
            out = run_round(self, *args, **kwargs)
            if due:
                relaunch_drained.append(not self.collector.outstanding)
            return out

        monkeypatch.setattr(ConfigSnapshot, "canonical", counting_canonical)
        monkeypatch.setattr(TrafficPlane, "run_round", watched_run_round)
        report = run_scenario(spec, engine="columnar")
        assert report == expected
        assert sum(relaunch_drained) == drained_relaunches
        assert len(relaunch_drained) > drained_relaunches  # undrained ones cost nothing
        assert len(canonicalized) == 1 + 2 * drained_relaunches
