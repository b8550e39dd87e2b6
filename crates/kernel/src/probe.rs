//! The observability probe seam: a zero-cost sink for kernel events.
//!
//! A [`Probe`] receives every [`TraceEvent`] the engine simulates —
//! including the per-segment energy events — at the instant it happens.
//! It is the kernel's only event stream: a [`Trace`](crate::trace::Trace)
//! is itself a probe that records it. Probes never influence scheduling:
//! they observe the event stream and nothing else, so a simulation run
//! with any probe attached produces a byte-identical
//! [`SimReport`](crate::report::SimReport) to the same run with
//! [`NoProbe`] (the obs-free property suite and the probes-on golden
//! fingerprint gate assert exactly this).
//!
//! # Zero-cost contract
//!
//! The engine is monomorphized over the probe type, and every tap site is
//! guarded by the associated constant [`Probe::ACTIVE`]. For [`NoProbe`]
//! (`ACTIVE = false`) the guard is a compile-time `false`, so the probe
//! branch — including the construction of the event — folds away
//! entirely. "Observability is free" is enforced,
//! not hoped for: the golden fingerprint matrix and the oracle
//! differential matrix both re-run with a recording probe attached.
//!
//! # What a probe sees
//!
//! The full decision-point event stream of the run *as simulated*. The
//! steady-state fast-forward (DESIGN.md §12) skips simulated events, so a
//! probe attached to an eligible run observes only the events that were
//! actually simulated. Fast-forward eligibility never depends on the
//! probe (the report stays bit-identical either way); callers that need
//! *every* event — traces, per-job histograms, exports — set
//! [`SimConfig::force_full_simulation`](crate::engine::SimConfig), as the
//! sweep runner's histogram mode does.

use crate::trace::TraceEvent;
use lpfps_tasks::time::Time;

/// A sink for the kernel's event stream. See the module docs for the
/// zero-cost contract and delivery semantics.
pub trait Probe {
    /// Whether this probe observes anything. Tap sites are guarded by
    /// `if P::ACTIVE { ... }`, so a `false` here removes the probe from
    /// the compiled engine entirely. Defaults to `true`; only no-op
    /// probes ([`NoProbe`]) should override it.
    const ACTIVE: bool = true;

    /// Called once per kernel event, at simulation instant `at`, in
    /// non-decreasing time order.
    fn on_event(&mut self, at: Time, event: &TraceEvent);
}

/// The default probe: observes nothing, costs nothing. `ACTIVE = false`
/// compiles every tap site out of the engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoProbe;

impl Probe for NoProbe {
    const ACTIVE: bool = false;

    #[inline(always)]
    fn on_event(&mut self, _at: Time, _event: &TraceEvent) {}
}

/// Any `FnMut(Time, &TraceEvent)` closure is a probe — the ergonomic path
/// for ad-hoc event counting in tests and tools.
impl<F: FnMut(Time, &TraceEvent)> Probe for F {
    fn on_event(&mut self, at: Time, event: &TraceEvent) {
        self(at, event)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn active_of<P: Probe>(_p: &P) -> bool {
        P::ACTIVE
    }

    #[test]
    fn no_probe_is_inactive() {
        assert!(!active_of(&NoProbe));
        // Calling it anyway is harmless.
        NoProbe.on_event(Time::ZERO, &TraceEvent::IdleStart);
    }

    #[test]
    fn closures_are_active_probes() {
        let mut count = 0usize;
        {
            let mut probe = |_at: Time, _e: &TraceEvent| count += 1;
            assert!(active_of(&probe));
            probe.on_event(Time::ZERO, &TraceEvent::IdleStart);
            probe.on_event(Time::from_us(1), &TraceEvent::TimingViolation);
        }
        assert_eq!(count, 2);
    }
}
