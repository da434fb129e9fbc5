//! Bridging [`RunTrace`] events into the observability layer.
//!
//! The runtime's own trace ([`crate::trace`]) is the source of truth
//! for what a live run did; this module projects it into an
//! [`adaptcomm_obs::Registry`] so one Chrome-trace file shows the
//! schedule/replan spans *and* every transfer on its sender's track:
//!
//! * each `Grant` → `Complete` pair becomes a `transfer` span on track
//!   `src + 1` (track 0 belongs to the driver), spanning the wall-clock
//!   interval and carrying `src`/`dst`/`bytes`/`modeled_ms` attributes;
//! * each `Request` becomes a `request` instant on the same track.
//!
//! The projection is one linear pass over the trace; the JSONL capture
//! it ends up in is what `obs-summary`, `obs-diff`, `explain` and
//! `report` read back.

use crate::trace::{EventKind, RunTrace};
use adaptcomm_obs::{InstantRecord, Registry, SpanRecord};
use std::collections::HashMap;

/// The obs track a sender's transfers land on (track 0 is the driver).
fn track(src: usize) -> u64 {
    src as u64 + 1
}

/// Projects `trace` into `registry` as `transfer` spans (one per
/// completed grant/complete pair, on the sender's track) plus `request`
/// instants. Returns the number of spans recorded.
pub fn record_transfers(trace: &RunTrace, registry: &Registry) -> usize {
    if !registry.is_enabled() {
        return 0;
    }
    let mut spans = 0usize;
    // The first grant of each link: a completion pairs with it. The
    // fabric commits a transfer's grant before its completion, so the
    // first grant is always seen by the time its completion arrives.
    let mut first_grant: HashMap<(usize, usize), u64> = HashMap::new();
    for e in &trace.events {
        match e.kind {
            EventKind::Request => registry.record_instant(InstantRecord {
                name: "request".to_string(),
                tid: track(e.src),
                ts_us: e.wall_us,
                attrs: vec![
                    ("src".to_string(), e.src.into()),
                    ("dst".to_string(), e.dst.into()),
                ],
            }),
            EventKind::Grant => {
                first_grant.entry((e.src, e.dst)).or_insert(e.wall_us);
            }
            EventKind::Complete => {
                let start_us = first_grant
                    .get(&(e.src, e.dst))
                    .copied()
                    .unwrap_or(e.wall_us);
                registry.record_span(SpanRecord {
                    name: "transfer".to_string(),
                    tid: track(e.src),
                    start_us,
                    dur_us: e.wall_us.saturating_sub(start_us),
                    attrs: vec![
                        ("src".to_string(), e.src.into()),
                        ("dst".to_string(), e.dst.into()),
                        ("bytes".to_string(), e.bytes.as_u64().into()),
                        ("modeled_ms".to_string(), e.modeled.as_ms().into()),
                    ],
                    trace: None,
                });
                spans += 1;
            }
        }
    }
    spans
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::RuntimeEvent;
    use adaptcomm_model::units::{Bytes, Millis};

    fn sample_trace() -> RunTrace {
        let ev = |kind, src, dst, modeled: f64, wall_us| RuntimeEvent {
            kind,
            src,
            dst,
            bytes: Bytes::from_kb(20),
            modeled: Millis::new(modeled),
            wall_us,
        };
        RunTrace {
            events: vec![
                ev(EventKind::Request, 0, 1, 0.0, 10),
                ev(EventKind::Grant, 0, 1, 0.0, 20),
                ev(EventKind::Request, 2, 1, 0.0, 15),
                ev(EventKind::Complete, 0, 1, 5.25, 520),
                ev(EventKind::Grant, 2, 1, 5.25, 530),
                ev(EventKind::Complete, 2, 1, 11.5, 1_030),
            ],
        }
    }

    #[test]
    fn transfers_become_spans_on_sender_tracks() {
        let reg = Registry::new();
        let spans = record_transfers(&sample_trace(), &reg);
        assert_eq!(spans, 2);
        let snap = reg.snapshot();
        let spans: Vec<&SpanRecord> = snap.spans().collect();
        assert_eq!(spans.len(), 2);
        // 0 -> 1 transfer: track 1, wall 20..520.
        assert_eq!(spans[0].tid, 1);
        assert_eq!(spans[0].start_us, 20);
        assert_eq!(spans[0].dur_us, 500);
        // 2 -> 1 transfer: track 3.
        assert_eq!(spans[1].tid, 3);
        assert_eq!(spans[1].dur_us, 500);
        // Requests arrive as instants on the same tracks.
        assert_eq!(snap.instants().count(), 2);
        // The trace exports as a valid Chrome document.
        let doc = adaptcomm_obs::json::Value::parse(&snap.to_chrome_trace()).unwrap();
        assert!(doc.get("traceEvents").is_some());
    }

    /// Retried links (a failed attempt's grant, then a fresh grant and
    /// completion) pair every completion with the link's first grant,
    /// exactly as a scan of the whole trace would.
    #[test]
    fn completions_pair_with_the_first_grant_of_their_link() {
        let mut trace = sample_trace();
        let ev = |kind, src, dst, wall_us| RuntimeEvent {
            kind,
            src,
            dst,
            bytes: Bytes::from_kb(1),
            modeled: Millis::ZERO,
            wall_us,
        };
        trace.events.extend([
            ev(EventKind::Grant, 3, 0, 40),
            ev(EventKind::Grant, 3, 0, 70),
            ev(EventKind::Complete, 3, 0, 90),
            ev(EventKind::Grant, 1, 2, 95),
        ]);
        let reg = Registry::new();
        assert_eq!(record_transfers(&trace, &reg), 3);
        let scan: Vec<(u64, u64)> = trace
            .events
            .iter()
            .filter(|e| e.kind == EventKind::Complete)
            .map(|e| {
                let start = trace
                    .events
                    .iter()
                    .find(|g| g.kind == EventKind::Grant && (g.src, g.dst) == (e.src, e.dst))
                    .map_or(e.wall_us, |g| g.wall_us);
                (start, e.wall_us - start)
            })
            .collect();
        let snap = reg.snapshot();
        let spans: Vec<(u64, u64)> = snap.spans().map(|s| (s.start_us, s.dur_us)).collect();
        assert_eq!(spans, scan);
        assert_eq!(spans[2], (40, 50));
    }

    #[test]
    fn disabled_registry_receives_nothing() {
        let reg = Registry::disabled();
        assert_eq!(record_transfers(&sample_trace(), &reg), 0);
        assert!(reg.snapshot().events.is_empty());
    }
}
