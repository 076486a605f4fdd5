"""The batched engine's memo and carry accounting, pinned on one run.

``BatchedRuleEngine.memo_counts()`` reports, per phase, how many level
runs hit the per-level memo, missed it, or were carried without a
lookup.  The ``restabilize_*`` gate cases only check floors on the hit
shares; this pins the exact counts of one small seeded post-churn run,
so a change to how the engine schedules its levels that moves any
count fails here.

A deliberate change to the carry or memo policy re-records the values
below and names the reason in CHANGES.md.
"""

from __future__ import annotations

import random

from repro.experiments.scaling import build_ideal_network

#: phase -> (hits, misses, carried) over the run below, set-up included
PINNED = {
    "rule3": (1214, 615, 3860),
    "rule4": (1218, 611, 3860),
    "rule5": (1475, 375, 3839),
    "rule6": (837, 941, 3839),
    "apply_inbox": (0, 1589, 3860),
}


def test_memo_counts_of_a_join_and_a_crash():
    """An n=32 ideal network, one join and one crash, each run to stable."""
    net = build_ideal_network(32, 7)
    rng = random.Random(7)
    new = next(c for c in iter(lambda: rng.randrange(net.space.size), None) if c not in net.peers)
    net.join(new, rng.choice(net.peer_ids))
    net.run_until_stable()
    net.crash(rng.choice([p for p in net.peer_ids if p != new]))
    net.run_until_stable()
    assert net.scheduler._batch_stepper.memo_counts() == PINNED
