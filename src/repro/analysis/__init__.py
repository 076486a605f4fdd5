"""Analysis instrumentation: the proof's five phases, made measurable.

The correctness proof of Theorem 1.1 decomposes stabilization into five
phases (Section 3.1): connection, linearization, ring, closest-real, and
cleanup.  :mod:`repro.analysis.phases` turns each phase's postcondition
into an executable predicate and tracks when each is reached during a
run — reproducing the *structure* of the proof empirically, not just its
endpoint.
"""

from repro.analysis.phases import PhaseReport, PhaseTracker, phase_predicates

__all__ = ["PhaseReport", "PhaseTracker", "phase_predicates"]
