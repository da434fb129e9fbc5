//! Structured per-event run traces: wall-clock *and* modeled time.
//!
//! Every backend emits the same three event kinds per transfer —
//! request, grant (transfer start), completion — each stamped twice:
//! with the modeled clock (the paper's `T_ij + m/B_ij` virtual time the
//! schedulers reason in) and with the wall clock (microseconds since the
//! run began). [`RunTrace`] is the runtime's own event log: `run
//! --trace` prints it, the benchmark reads its wall stamps, and
//! `obs_bridge::record_transfers` projects it into an obs capture in one
//! linear pass.

use adaptcomm_model::units::{Bytes, Millis};

/// What happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// The sender asked the receiver for a grant (control message).
    Request,
    /// The receiver granted the transfer; data started moving.
    Grant,
    /// The transfer completed and the payload was delivered.
    Complete,
}

/// One trace event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RuntimeEvent {
    /// Event kind.
    pub kind: EventKind,
    /// Sending processor.
    pub src: usize,
    /// Receiving processor.
    pub dst: usize,
    /// Payload size.
    pub bytes: Bytes,
    /// Modeled (virtual) time of the event.
    pub modeled: Millis,
    /// Wall-clock time of the event, microseconds since the run epoch.
    pub wall_us: u64,
}

/// The full trace of one run.
#[derive(Debug, Clone, Default)]
pub struct RunTrace {
    /// Events in the order the runtime committed them.
    pub events: Vec<RuntimeEvent>,
}

impl RunTrace {
    /// Wall-clock duration of the traced activity, in microseconds.
    pub fn wall_elapsed_us(&self) -> u64 {
        self.events.iter().map(|e| e.wall_us).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_elapsed_is_the_latest_stamp() {
        let ev = |kind, wall_us| RuntimeEvent {
            kind,
            src: 0,
            dst: 1,
            bytes: Bytes::KB,
            modeled: Millis::ZERO,
            wall_us,
        };
        let trace = RunTrace {
            events: vec![
                ev(EventKind::Request, 1),
                ev(EventKind::Complete, 6),
                ev(EventKind::Grant, 2),
            ],
        };
        assert_eq!(trace.wall_elapsed_us(), 6);
        assert_eq!(RunTrace::default().wall_elapsed_us(), 0);
    }
}
