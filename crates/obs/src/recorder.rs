//! The [`Recorder`] trait and the standard [`Recording`] implementation.

use crate::{Metrics, ObsEvent, TimedObsEvent};

/// A sink for structured observability events.
///
/// The kernel calls [`Recorder::record`] once per event with the machine
/// clock at which it occurred. Events arrive in nondecreasing clock order.
pub trait Recorder {
    /// Consumes one event.
    fn record(&mut self, clock: u64, event: &ObsEvent);
}

/// The standard recorder: always aggregates [`Metrics`], and optionally
/// keeps the full event stream for the timeline exporters.
///
/// `Clone` and `Debug` are deliberate: the kernel is cloneable (the model
/// checker snapshots it per decision point), so anything it owns must be
/// too.
#[derive(Debug, Clone)]
pub struct Recording {
    capture_events: bool,
    events: Vec<TimedObsEvent>,
    metrics: Metrics,
}

impl Recording {
    /// Creates a recorder. With `capture_events` false only the aggregate
    /// metrics are kept — constant memory, suitable for long runs; with it
    /// true every event is retained for export.
    pub fn new(capture_events: bool) -> Recording {
        Recording {
            capture_events,
            events: Vec::new(),
            metrics: Metrics::default(),
        }
    }

    /// The captured event stream (empty unless constructed with
    /// `capture_events`).
    pub fn events(&self) -> &[TimedObsEvent] {
        &self.events
    }

    /// The aggregated counters.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Consumes the recording, returning the event stream.
    pub fn into_events(self) -> Vec<TimedObsEvent> {
        self.events
    }
}

impl Recorder for Recording {
    fn record(&mut self, clock: u64, event: &ObsEvent) {
        self.metrics.apply(clock, event);
        if self.capture_events {
            self.events.push(TimedObsEvent {
                clock,
                event: *event,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SwitchReason;

    #[test]
    fn metrics_only_mode_keeps_no_events() {
        let mut r = Recording::new(false);
        r.record(10, &ObsEvent::Dispatch { thread: 0 });
        r.record(20, &ObsEvent::Syscall { thread: 0, num: 3 });
        assert!(r.events().is_empty());
        assert_eq!(r.metrics().dispatches, 1);
        assert_eq!(r.metrics().syscalls, 1);
    }

    #[test]
    fn capture_mode_keeps_the_stream_in_order() {
        let mut r = Recording::new(true);
        r.record(10, &ObsEvent::Dispatch { thread: 1 });
        r.record(
            25,
            &ObsEvent::SwitchOut {
                thread: 1,
                reason: SwitchReason::Quantum,
                inside_sequence: false,
            },
        );
        let events = r.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].clock, 10);
        assert_eq!(events[1].clock, 25);
        assert_eq!(r.metrics().quantum_expiries, 1);
        assert_eq!(r.clone().into_events().len(), 2);
    }
}
