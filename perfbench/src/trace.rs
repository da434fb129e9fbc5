//! In-memory spans around the benchmark's calls into each crate.
//!
//! Every span carries the op it belongs to, its parent and its wall
//! interval. Spans stay in memory while the workload runs and are
//! written once, at the end, in the obs JSONL format (`type: span`
//! lines with a `trace` context whose id is the op), so that
//! `adaptcomm obs-summary` and `adaptcomm obs-diff` read a capture of
//! one run and compare two captures layer by layer.

use crate::stats::union_len;
use adaptcomm_obs::trace::TraceContext;
use adaptcomm_obs::{AttrValue, Registry, SpanRecord};
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub id: u64,
    pub parent: Option<u64>,
    pub tid: u64,
    pub start_us: u64,
    pub end_us: u64,
}

/// Collects spans for one traced run. Span ids are global to the run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    tid: u64,
    next_id: u64,
    open: Vec<(u64, u64)>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer stamping times against `epoch` on track `tid`; several
    /// tracers (one per client thread) can share an epoch and be merged.
    pub fn new(epoch: Instant, tid: u64) -> Self {
        Tracer {
            epoch,
            tid,
            next_id: tid << 48,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Microseconds since the epoch.
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Runs `f` inside a span named `name` of op `op`, nested under the
    /// innermost open span of the same op.
    pub fn span<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        let id = self.open_span(op);
        let start_us = self.now_us();
        let out = f();
        let end_us = self.now_us();
        self.close_span(name, op, id, start_us, end_us);
        out
    }

    /// Like [`Tracer::span`] for an `f` that opens child spans itself.
    pub fn scope<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.open_span(op);
        let start_us = self.now_us();
        let out = f(self);
        let end_us = self.now_us();
        self.close_span(name, op, id, start_us, end_us);
        out
    }

    /// Records a span whose duration the program reported rather than
    /// the benchmark timed (a server's service time, the fabric's wall
    /// clock), under the innermost open span of `op`, ending at `end_us`
    /// (or now).
    pub fn reported(&mut self, name: &'static str, op: u64, dur_us: u64, end_us: Option<u64>) {
        let id = self.open_span(op);
        let end_us = end_us.unwrap_or_else(|| self.now_us());
        self.close_span(name, op, id, end_us.saturating_sub(dur_us), end_us);
    }

    fn open_span(&mut self, op: u64) -> u64 {
        self.next_id += 1;
        let id = self.next_id;
        self.open.push((op, id));
        id
    }

    fn close_span(&mut self, name: &'static str, op: u64, id: u64, start_us: u64, end_us: u64) {
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some((op, id)), "spans must close innermost first");
        let parent = self
            .open
            .iter()
            .rev()
            .find(|&&(o, _)| o == op)
            .map(|&(_, p)| p);
        self.spans.push(Span {
            name,
            op,
            id,
            parent,
            tid: self.tid,
            start_us,
            end_us,
        });
    }

    /// Moves another tracer's spans into this one.
    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's self time: its duration minus the union of its
    /// children's intervals, in microseconds, keyed by span id.
    pub fn self_times(&self) -> BTreeMap<u64, u64> {
        let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.start_us, s.end_us));
            }
        }
        self.spans
            .iter()
            .map(|s| {
                let covered = children
                    .get(&s.id)
                    .map_or(0, |c| union_len(c, s.start_us, s.end_us));
                (s.id, (s.end_us - s.start_us) - covered)
            })
            .collect()
    }

    /// Per op, the summed duration (ms) of every span name in it.
    pub fn per_op_ms(&self) -> BTreeMap<u64, BTreeMap<&'static str, f64>> {
        let mut out: BTreeMap<u64, BTreeMap<&'static str, f64>> = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.op).or_default().entry(s.name).or_default() +=
                (s.end_us - s.start_us) as f64 / 1000.0;
        }
        out
    }

    /// Per span name, the summed self time (ms) over the run.
    pub fn self_ms_by_name(&self) -> BTreeMap<&'static str, f64> {
        let selfs = self.self_times();
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.name).or_default() += selfs[&s.id] as f64 / 1000.0;
        }
        out
    }

    /// The spans as an obs JSONL document. Each span's `trace` context
    /// carries the op as its trace id, and a `self_us` attribute carries
    /// its self time.
    pub fn to_jsonl(&self) -> String {
        let registry = Registry::new();
        let selfs = self.self_times();
        for s in &self.spans {
            registry.record_span(SpanRecord {
                name: s.name.to_string(),
                tid: s.tid,
                start_us: s.start_us,
                dur_us: s.end_us - s.start_us,
                attrs: vec![
                    ("op".to_string(), AttrValue::U64(s.op)),
                    ("self_us".to_string(), AttrValue::U64(selfs[&s.id])),
                ],
                trace: Some(TraceContext {
                    trace_id: s.op + 1,
                    span_id: s.id,
                    parent_id: s.parent,
                }),
            });
        }
        registry.snapshot().to_jsonl()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_parents_and_self_time() {
        let mut t = Tracer::new(Instant::now(), 0);
        t.scope("op", 7, |t| {
            t.span("a", 7, || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.span("b", 7, || ());
            t.reported("c", 7, 500, None);
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        let root = spans.iter().find(|s| s.name == "op").unwrap();
        assert_eq!(root.parent, None);
        for s in spans.iter().filter(|s| s.name != "op") {
            assert_eq!(s.parent, Some(root.id), "{} nests under the op", s.name);
            assert_eq!(s.op, 7);
        }
        let selfs = t.self_times();
        let a = spans.iter().find(|s| s.name == "a").unwrap();
        assert_eq!(
            selfs[&a.id],
            a.end_us - a.start_us,
            "a leaf is all self time"
        );
        assert!(selfs[&root.id] < root.end_us - root.start_us);
        let jsonl = t.to_jsonl();
        assert_eq!(jsonl.lines().count(), 4);
        assert!(jsonl.contains("\"self_us\""));
        assert!(adaptcomm_obs::Snapshot::from_jsonl(&jsonl).is_ok());
    }
}
