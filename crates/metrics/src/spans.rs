//! Causal spans in simulation time.
//!
//! A *span* is an interval in an entity's lifecycle — a job sitting in a
//! wait queue, a job held suspended — opened by one observed transition
//! and closed by a later one. [`SpanCollector`] matches the open/close
//! pairs per `(entity, phase)` and aggregates closed span lengths into
//! per-phase [`LogHistogram`]s, which is exactly the per-phase latency
//! signal (time-in-queue, time-suspended, restart-wasted-work) the
//! paper's tables summarize.
//!
//! Everything is keyed through `BTreeMap`s, so iteration order — and any
//! rendering built on it — is deterministic.

use std::collections::BTreeMap;

use netbatch_sim_engine::time::{SimDuration, SimTime};

use crate::histogram::LogHistogram;

/// Matches begin/end lifecycle transitions into spans and aggregates
/// span lengths (in minutes) into one decade [`LogHistogram`] per phase.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanCollector {
    open: BTreeMap<(u64, &'static str), SimTime>,
    hists: BTreeMap<&'static str, LogHistogram>,
    unmatched_ends: u64,
}

impl SpanCollector {
    /// An empty collector.
    pub fn new() -> Self {
        SpanCollector::default()
    }

    /// Opens a span for `(entity, phase)` at `at`. Returns `false` (and
    /// restarts the span) if one was already open — a sign the caller's
    /// event stream skipped a close transition.
    pub fn begin(&mut self, entity: u64, phase: &'static str, at: SimTime) -> bool {
        self.open.insert((entity, phase), at).is_none()
    }

    /// Closes the open span for `(entity, phase)`, recording its length
    /// into the phase histogram and returning it. Returns `None` — and
    /// counts an unmatched end — when no span was open.
    pub fn end(&mut self, entity: u64, phase: &'static str, at: SimTime) -> Option<SimDuration> {
        match self.open.remove(&(entity, phase)) {
            Some(opened) => {
                let len = at.since(opened);
                self.observe(phase, len);
                Some(len)
            }
            None => {
                self.unmatched_ends += 1;
                None
            }
        }
    }

    /// Records a duration directly into a phase histogram — for spans
    /// both of whose ends arrive in a single event (e.g. the discarded
    /// progress carried by a reschedule transition).
    pub fn observe(&mut self, phase: &'static str, len: SimDuration) {
        self.hists
            .entry(phase)
            .or_insert_with(LogHistogram::decades)
            .record(len.as_minutes() as f64);
    }

    /// Spans currently open.
    pub fn open_count(&self) -> usize {
        self.open.len()
    }

    /// Ends that arrived with no matching open span.
    pub fn unmatched_ends(&self) -> u64 {
        self.unmatched_ends
    }

    /// Per-phase histograms of closed span lengths, in phase-name order.
    pub fn phases(&self) -> &BTreeMap<&'static str, LogHistogram> {
        &self.hists
    }

    /// The histogram for one phase, if any span of it closed.
    pub fn phase(&self, phase: &'static str) -> Option<&LogHistogram> {
        self.hists.get(phase)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(m: u64) -> SimTime {
        SimTime::from_minutes(m)
    }

    #[test]
    fn matched_spans_feed_phase_histograms() {
        let mut c = SpanCollector::new();
        assert!(c.begin(1, "queue_wait", t(0)));
        assert!(c.begin(2, "queue_wait", t(5)));
        assert_eq!(c.open_count(), 2);
        assert_eq!(
            c.end(1, "queue_wait", t(30)),
            Some(SimDuration::from_minutes(30))
        );
        assert_eq!(
            c.end(2, "queue_wait", t(10)),
            Some(SimDuration::from_minutes(5))
        );
        let h = c.phase("queue_wait").unwrap();
        assert_eq!(h.count(), 2);
        assert!((h.mean() - 17.5).abs() < 1e-12);
        assert_eq!(c.open_count(), 0);
        assert_eq!(c.unmatched_ends(), 0);
    }

    #[test]
    fn same_entity_different_phases_do_not_collide() {
        let mut c = SpanCollector::new();
        c.begin(7, "queue_wait", t(0));
        c.begin(7, "suspended", t(2));
        assert_eq!(
            c.end(7, "suspended", t(4)),
            Some(SimDuration::from_minutes(2))
        );
        assert_eq!(
            c.end(7, "queue_wait", t(9)),
            Some(SimDuration::from_minutes(9))
        );
    }

    #[test]
    fn reopening_restarts_and_reports() {
        let mut c = SpanCollector::new();
        assert!(c.begin(1, "suspended", t(0)));
        assert!(!c.begin(1, "suspended", t(10)));
        // The restart wins: the span measures from the second begin.
        assert_eq!(
            c.end(1, "suspended", t(12)),
            Some(SimDuration::from_minutes(2))
        );
    }

    #[test]
    fn unmatched_end_is_counted() {
        let mut c = SpanCollector::new();
        assert_eq!(c.end(3, "queue_wait", t(1)), None);
        assert_eq!(c.unmatched_ends(), 1);
        // An unmatched end records nothing.
        assert!(c.phase("queue_wait").is_none());
    }

    #[test]
    fn direct_observations_share_the_phase_histogram() {
        let mut c = SpanCollector::new();
        c.observe("restart_waste", SimDuration::from_minutes(40));
        c.begin(1, "restart_waste", t(0));
        c.end(1, "restart_waste", t(60));
        let h = c.phase("restart_waste").unwrap();
        assert_eq!(h.count(), 2);
        assert!((h.mean() - 50.0).abs() < 1e-12);
    }
}
