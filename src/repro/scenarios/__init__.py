"""Declarative fault/churn campaigns over the live overlay.

Re-Chord's claim is self-stabilization from *arbitrary* initial states;
this package makes "arbitrary" executable.  A scenario is a seeded,
JSON-loadable value (:class:`ScenarioSpec`) composing timed adversity
events — correlated crash waves, flash-crowd joins, silent or severed
network partitions, targeted state corruption (finger poisoning,
phantom refs, mid-run ring splits) and workload phases — over the
activity-tracked scheduler with the traffic plane active.  The executor
(:func:`run_scenario`) drives the campaign on either simulation kernel
and produces a :class:`ScenarioReport` joining recovery metrics
(rounds-to-stable, the local-checker repair curve) with the traffic
plane's SLO ledger.

Entry points:

* :func:`make_scenario` / :func:`scenario_names` — the named library
  (documented scenario-by-scenario in ``docs/SCENARIOS.md``);
* ``rechord scenario`` — the CLI (``--list``, ``--json``, size/seed
  overrides);
* :mod:`repro.experiments.scenarios` — the all-scenarios sweep.
"""

from repro.scenarios.events import EVENT_KINDS, EventContext, apply_event_spec
from repro.scenarios.executor import RecoverySample, ScenarioReport, run_scenario
from repro.scenarios.library import (
    DEFAULT_N,
    default_suite,
    make_scenario,
    scenario_description,
    scenario_names,
)
from repro.scenarios.spec import EventSpec, ScenarioSpec, TrafficSpec

__all__ = [
    "DEFAULT_N",
    "EVENT_KINDS",
    "EventContext",
    "EventSpec",
    "RecoverySample",
    "ScenarioReport",
    "ScenarioSpec",
    "TrafficSpec",
    "apply_event_spec",
    "default_suite",
    "make_scenario",
    "run_scenario",
    "scenario_description",
    "scenario_names",
]
