//! Scheduler-construction performance tracking (the perf gate).
//!
//! The §6.2 motivation — "the overhead for repeatedly calculating the
//! communication schedule at run-time can be expensive" — makes
//! scheduler construction cost a first-class deliverable, not a
//! side-effect. This module holds the measurement plumbing for the
//! `perfgate` binary: wall-clock statistics over repeated runs, a
//! hand-rolled JSON report (`BENCH_sched.json`, schema
//! `scheduler → P → {median_ms, p90_ms, reps}`; the workspace has no
//! serde_json, so the writers live here and reading goes through
//! `adaptcomm_obs::json`), and the regression gate comparing a fresh
//! quick run against the committed baseline.

use adaptcomm_obs::json::Value;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Wall-clock statistics for one `(scheduler, P)` cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerfStats {
    /// Median wall time over the repetitions, in milliseconds.
    pub median_ms: f64,
    /// 90th-percentile wall time (nearest-rank), in milliseconds.
    pub p90_ms: f64,
    /// Number of repetitions measured.
    pub reps: usize,
}

impl PerfStats {
    /// Folds raw per-repetition wall times (ms) into summary statistics.
    ///
    /// The percentile uses the nearest-rank method (`⌈q·n⌉`-th smallest),
    /// so with a single repetition median = p90 = that sample.
    pub fn from_samples(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "need at least one sample");
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let rank = |q: f64| -> f64 {
            let n = sorted.len();
            let k = ((q * n as f64).ceil() as usize).clamp(1, n);
            sorted[k - 1]
        };
        PerfStats {
            median_ms: rank(0.50),
            p90_ms: rank(0.90),
            reps: sorted.len(),
        }
    }
}

/// A full perf report: `scheduler → P → stats`, ordered for stable
/// serialization (schedulers in insertion order, P ascending).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PerfReport {
    /// Scheduler names in first-seen order (BTreeMap would alphabetize
    /// and lose the canonical baseline→…→openshop presentation order).
    order: Vec<String>,
    cells: BTreeMap<String, BTreeMap<usize, PerfStats>>,
    /// Committed absolute budgets: `scheduler → P → max median ms`.
    /// Unlike the relative trend gate, a target is an improvement
    /// ratchet — once sub-second matching lands, the `"targets"` block
    /// keeps `--check-history` failing if the median ever climbs back,
    /// even across rebaselines (full runs carry targets forward).
    targets: BTreeMap<String, BTreeMap<usize, f64>>,
}

impl PerfReport {
    /// An empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the stats for one `(scheduler, P)` cell.
    pub fn insert(&mut self, scheduler: &str, p: usize, stats: PerfStats) {
        if !self.cells.contains_key(scheduler) {
            self.order.push(scheduler.to_string());
        }
        self.cells
            .entry(scheduler.to_string())
            .or_default()
            .insert(p, stats);
    }

    /// Looks up one cell.
    pub fn get(&self, scheduler: &str, p: usize) -> Option<PerfStats> {
        self.cells.get(scheduler).and_then(|m| m.get(&p)).copied()
    }

    /// Scheduler names in presentation order.
    pub fn schedulers(&self) -> &[String] {
        &self.order
    }

    /// The `(P, stats)` cells for one scheduler, P ascending.
    pub fn cells(&self, scheduler: &str) -> Vec<(usize, PerfStats)> {
        self.cells
            .get(scheduler)
            .map(|m| m.iter().map(|(&p, &s)| (p, s)).collect())
            .unwrap_or_default()
    }

    /// Commits an absolute budget for one `(scheduler, P)` cell: the
    /// median must never exceed `max_median_ms`.
    pub fn set_target(&mut self, scheduler: &str, p: usize, max_median_ms: f64) {
        self.targets
            .entry(scheduler.to_string())
            .or_default()
            .insert(p, max_median_ms);
    }

    /// All committed `(scheduler, P, max median ms)` targets.
    pub fn targets(&self) -> Vec<(String, usize, f64)> {
        self.targets
            .iter()
            .flat_map(|(name, cells)| cells.iter().map(move |(&p, &ms)| (name.clone(), p, ms)))
            .collect()
    }

    /// Copies `other`'s targets into `self` (used by full-mode perfgate
    /// runs so rebaselining `BENCH_sched.json` never drops the ratchet).
    pub fn adopt_targets(&mut self, other: &PerfReport) {
        for (name, cells) in &other.targets {
            for (&p, &ms) in cells {
                self.set_target(name, p, ms);
            }
        }
    }

    /// Checks `report`'s measured cells against `self`'s committed
    /// targets. Returns the violations (empty = all budgets met);
    /// target cells the report did not measure are skipped — a quick
    /// run that never reaches P=1024 cannot vacuously pass or fail a
    /// P=1024 budget.
    pub fn check_targets(&self, report: &PerfReport) -> Vec<String> {
        let mut violations = Vec::new();
        for (name, cells) in &self.targets {
            for (&p, &budget) in cells {
                if let Some(stats) = report.get(name, p) {
                    if stats.median_ms > budget {
                        violations.push(format!(
                            "{name} P={p}: {:.3} ms exceeds committed target {budget:.3} ms",
                            stats.median_ms
                        ));
                    }
                }
            }
        }
        violations
    }

    /// Serializes to the committed `BENCH_sched.json` schema.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        for (si, name) in self.order.iter().enumerate() {
            let _ = writeln!(out, "  {}: {{", json_string(name));
            let cells = &self.cells[name];
            for (pi, (p, s)) in cells.iter().enumerate() {
                let _ = writeln!(
                    out,
                    "    \"{}\": {{\"median_ms\": {}, \"p90_ms\": {}, \"reps\": {}}}{}",
                    p,
                    json_number(s.median_ms),
                    json_number(s.p90_ms),
                    s.reps,
                    if pi + 1 < cells.len() { "," } else { "" }
                );
            }
            let _ = writeln!(
                out,
                "  }}{}",
                if si + 1 < self.order.len() || !self.targets.is_empty() {
                    ","
                } else {
                    ""
                }
            );
        }
        if !self.targets.is_empty() {
            out.push_str("  \"targets\": {\n");
            for (ti, (name, cells)) in self.targets.iter().enumerate() {
                let _ = write!(out, "    {}: {{", json_string(name));
                for (pi, (p, ms)) in cells.iter().enumerate() {
                    let _ = write!(
                        out,
                        "{}\"{}\": {}",
                        if pi > 0 { ", " } else { "" },
                        p,
                        json_number(*ms)
                    );
                }
                let _ = writeln!(
                    out,
                    "}}{}",
                    if ti + 1 < self.targets.len() { "," } else { "" }
                );
            }
            out.push_str("  }\n");
        }
        out.push_str("}\n");
        out
    }

    /// Serializes to the same schema as [`PerfReport::to_json`] but on
    /// one line with no whitespace — the form embedded in
    /// `BENCH_history.jsonl` records. [`PerfReport::from_json`] parses
    /// both forms.
    pub fn to_json_line(&self) -> String {
        let mut out = String::from("{");
        for (si, name) in self.order.iter().enumerate() {
            if si > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{{", json_string(name));
            let cells = &self.cells[name];
            for (pi, (p, s)) in cells.iter().enumerate() {
                let _ = write!(
                    out,
                    "\"{}\":{{\"median_ms\":{},\"p90_ms\":{},\"reps\":{}}}{}",
                    p,
                    json_number(s.median_ms),
                    json_number(s.p90_ms),
                    s.reps,
                    if pi + 1 < cells.len() { "," } else { "" }
                );
            }
            out.push('}');
        }
        if !self.targets.is_empty() {
            if !self.order.is_empty() {
                out.push(',');
            }
            out.push_str("\"targets\":{");
            for (ti, (name, cells)) in self.targets.iter().enumerate() {
                if ti > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{}:{{", json_string(name));
                for (pi, (p, ms)) in cells.iter().enumerate() {
                    let _ = write!(
                        out,
                        "{}\"{}\":{}",
                        if pi > 0 { "," } else { "" },
                        p,
                        json_number(*ms)
                    );
                }
                out.push('}');
            }
            out.push('}');
        }
        out.push('}');
        out
    }

    /// Parses a report previously produced by [`PerfReport::to_json`] or
    /// [`PerfReport::to_json_line`].
    ///
    /// Accepts the exact schema (object of objects of
    /// `{median_ms, p90_ms, reps}`, plus the reserved `"targets"` block);
    /// anything else is an error string naming what was wrong.
    pub fn from_json(text: &str) -> Result<Self, String> {
        Self::from_value(&Value::parse(text)?)
    }

    /// Reads one parsed report object — the shared body behind
    /// [`PerfReport::from_json`] and the `"report"` value inside
    /// `BENCH_history.jsonl` envelopes.
    fn from_value(doc: &Value) -> Result<Self, String> {
        let mut report = PerfReport::new();
        for (scheduler, cells) in object(doc, "report")? {
            if scheduler == "targets" {
                // The reserved targets block: scheduler → P → ms.
                for (name, row) in object(cells, "targets")? {
                    for (p_key, ms) in object(row, name)? {
                        let ms = ms
                            .as_f64()
                            .ok_or_else(|| format!("target {name} {p_key:?} is not a number"))?;
                        report.set_target(name, p_key_of(p_key)?, ms);
                    }
                }
            } else {
                for (p_key, stats) in object(cells, scheduler)? {
                    report.insert(scheduler, p_key_of(p_key)?, stats_of(stats)?);
                }
            }
        }
        Ok(report)
    }

    /// The regression gate: every cell of `current` must stay within
    /// `factor ×` the committed baseline's median. Returns the list of
    /// violations (empty = gate passes); cells missing from the baseline
    /// are violations too — a new scheduler must re-baseline.
    pub fn gate(&self, baseline: &PerfReport, factor: f64) -> Vec<String> {
        let mut violations = Vec::new();
        for name in &self.order {
            for (p, stats) in self.cells(name) {
                match baseline.get(name, p) {
                    None => violations.push(format!(
                        "{name} P={p}: no committed baseline cell — re-run perfgate and commit BENCH_sched.json"
                    )),
                    Some(base) => {
                        let budget = base.median_ms * factor;
                        if stats.median_ms > budget {
                            violations.push(format!(
                                "{name} P={p}: {:.2} ms exceeds {factor}x budget {:.2} ms (baseline median {:.2} ms)",
                                stats.median_ms, budget, base.median_ms
                            ));
                        }
                    }
                }
            }
        }
        violations
    }
}

/// One dated `BENCH_history.jsonl` record: the full report embedded in
/// an envelope carrying the Unix timestamp and the perfgate mode that
/// produced it. Single line, no trailing newline — ready to append.
pub fn history_record(ts_unix: u64, mode: &str, report: &PerfReport) -> String {
    format!(
        "{{\"ts_unix\":{ts_unix},\"mode\":{},\"report\":{}}}",
        json_string(mode),
        report.to_json_line()
    )
}

/// Appends `record` (one history line) to the JSONL file at `path`,
/// creating it on first use.
pub fn append_history(path: &str, record: &str) -> std::io::Result<()> {
    use std::io::Write as _;
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(file, "{record}")
}

/// One parsed `BENCH_history.jsonl` line.
#[derive(Debug, Clone, PartialEq)]
pub struct HistoryRecord {
    /// Unix timestamp at which the record was appended.
    pub ts_unix: u64,
    /// The perfgate mode that produced it (only `"full"` records carry
    /// stable 5-rep medians, so only those participate in the trend).
    pub mode: String,
    /// The embedded report.
    pub report: PerfReport,
}

/// Parses a whole history file: one envelope per line, blank lines
/// skipped. Errors name the offending line, so a truncated append is
/// diagnosable.
pub fn parse_history(text: &str) -> Result<Vec<HistoryRecord>, String> {
    let mut out = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        out.push(parse_history_line(line).map_err(|e| format!("history line {}: {e}", idx + 1))?);
    }
    Ok(out)
}

fn parse_history_line(line: &str) -> Result<HistoryRecord, String> {
    let (mut ts_unix, mut mode, mut report) = (None, None, None);
    for (key, value) in object(&Value::parse(line)?, "history record")? {
        match key.as_str() {
            "ts_unix" => ts_unix = value.as_f64().map(|x| x as u64),
            "mode" => mode = value.as_str().map(str::to_string),
            "report" => report = Some(PerfReport::from_value(value)?),
            other => return Err(format!("unknown history key {other:?}")),
        }
    }
    Ok(HistoryRecord {
        ts_unix: ts_unix.ok_or("missing ts_unix")?,
        mode: mode.ok_or("missing mode")?,
        report: report.ok_or("missing report")?,
    })
}

/// The outcome of the history trend gate.
#[derive(Debug, Clone, PartialEq)]
pub enum HistoryCheck {
    /// Fewer than two full-mode records: there is no trend to gate
    /// against yet, which is not a failure.
    NotEnoughHistory {
        /// How many full-mode records the file holds (0 or 1).
        full_records: usize,
    },
    /// The latest full-mode record was compared cell by cell.
    Compared {
        /// How many earlier full-mode records formed the trend.
        priors: usize,
        /// Violations (empty = gate passes).
        violations: Vec<String>,
    },
}

/// The trend gate behind `perfgate --check-history`: each
/// `(scheduler, P)` median of the *latest* full-mode record must stay
/// within `factor ×` the median-of-medians of the same cell across all
/// prior full-mode records. Quick-mode records are ignored (1 rep on a
/// possibly loaded CI machine), and cells with no prior observation
/// pass — a new scheduler or P has no trend to regress against.
pub fn check_history(records: &[HistoryRecord], factor: f64) -> HistoryCheck {
    let full: Vec<&HistoryRecord> = records.iter().filter(|r| r.mode == "full").collect();
    let Some((latest, priors)) = full.split_last() else {
        return HistoryCheck::NotEnoughHistory { full_records: 0 };
    };
    if priors.is_empty() {
        return HistoryCheck::NotEnoughHistory { full_records: 1 };
    }
    let mut violations = Vec::new();
    for name in latest.report.schedulers() {
        for (p, stats) in latest.report.cells(name) {
            let mut medians: Vec<f64> = priors
                .iter()
                .filter_map(|r| r.report.get(name, p))
                .map(|s| s.median_ms)
                .collect();
            if medians.is_empty() {
                continue;
            }
            medians.sort_by(f64::total_cmp);
            // Nearest-rank median, consistent with `PerfStats`.
            let k = ((0.5 * medians.len() as f64).ceil() as usize).clamp(1, medians.len());
            let trend = medians[k - 1];
            let budget = trend * factor;
            if stats.median_ms > budget {
                violations.push(format!(
                    "{name} P={p}: {:.3} ms exceeds {factor}x trend budget {budget:.3} ms \
                     (median of {} prior full run(s): {trend:.3} ms)",
                    stats.median_ms,
                    medians.len(),
                ));
            }
        }
    }
    HistoryCheck::Compared {
        priors: priors.len(),
        violations,
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Formats a finite f64 so it round-trips through `str::parse::<f64>`.
fn json_number(x: f64) -> String {
    assert!(x.is_finite(), "JSON has no NaN/Inf");
    // `{:?}` on f64 is the shortest representation that round-trips.
    format!("{x:?}")
}

/// The pairs of a JSON object, or an error naming what was expected.
fn object<'a>(v: &'a Value, what: &str) -> Result<&'a [(String, Value)], String> {
    v.as_obj()
        .ok_or_else(|| format!("{what:?} must be a JSON object"))
}

/// A `"<P>"` cell key as a processor count.
fn p_key_of(key: &str) -> Result<usize, String> {
    key.parse()
        .map_err(|_| format!("non-numeric P key {key:?}"))
}

/// One `{median_ms, p90_ms, reps}` cell.
fn stats_of(cell: &Value) -> Result<PerfStats, String> {
    let (mut median, mut p90, mut reps) = (None, None, None);
    for (key, value) in object(cell, "stats")? {
        let value = value
            .as_f64()
            .ok_or_else(|| format!("stats key {key:?} is not a number"))?;
        match key.as_str() {
            "median_ms" => median = Some(value),
            "p90_ms" => p90 = Some(value),
            "reps" => reps = Some(value as usize),
            other => return Err(format!("unknown stats key {other:?}")),
        }
    }
    Ok(PerfStats {
        median_ms: median.ok_or("missing median_ms")?,
        p90_ms: p90.ok_or("missing p90_ms")?,
        reps: reps.ok_or("missing reps")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_from_samples() {
        let s = PerfStats::from_samples(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!(s.median_ms, 3.0);
        assert_eq!(s.p90_ms, 5.0);
        assert_eq!(s.reps, 5);
        let one = PerfStats::from_samples(&[7.5]);
        assert_eq!(one.median_ms, 7.5);
        assert_eq!(one.p90_ms, 7.5);
        assert_eq!(one.reps, 1);
    }

    #[test]
    fn json_round_trips() {
        let mut r = PerfReport::new();
        r.insert(
            "openshop",
            64,
            PerfStats {
                median_ms: 1.25,
                p90_ms: 2.5,
                reps: 5,
            },
        );
        r.insert(
            "openshop",
            1024,
            PerfStats {
                median_ms: 480.062_5,
                p90_ms: 512.0,
                reps: 5,
            },
        );
        r.insert(
            "matching-max",
            64,
            PerfStats {
                median_ms: 0.015_625,
                p90_ms: 0.031_25,
                reps: 7,
            },
        );
        let parsed = PerfReport::from_json(&r.to_json()).unwrap();
        assert_eq!(parsed, r);
        // Scheduler presentation order survives the round trip.
        assert_eq!(parsed.schedulers(), ["openshop", "matching-max"]);
        assert_eq!(parsed.cells("openshop").len(), 2);
    }

    #[test]
    fn compact_json_round_trips_and_fits_one_line() {
        let mut r = PerfReport::new();
        r.insert(
            "openshop",
            64,
            PerfStats {
                median_ms: 1.25,
                p90_ms: 2.5,
                reps: 5,
            },
        );
        r.insert(
            "greedy",
            128,
            PerfStats {
                median_ms: 0.5,
                p90_ms: 0.75,
                reps: 3,
            },
        );
        let line = r.to_json_line();
        assert!(!line.contains('\n'));
        assert_eq!(PerfReport::from_json(&line).unwrap(), r);
    }

    #[test]
    fn history_record_embeds_a_parseable_report() {
        let mut r = PerfReport::new();
        r.insert(
            "baseline",
            64,
            PerfStats {
                median_ms: 2.0,
                p90_ms: 2.0,
                reps: 1,
            },
        );
        let line = history_record(1_754_000_000, "full", &r);
        assert!(!line.contains('\n'));
        assert!(line.starts_with("{\"ts_unix\":1754000000,\"mode\":\"full\",\"report\":"));
        // The embedded report is exactly the compact serialization and
        // parses back to the original.
        let report_json = line
            .strip_prefix("{\"ts_unix\":1754000000,\"mode\":\"full\",\"report\":")
            .and_then(|s| s.strip_suffix('}'))
            .unwrap();
        assert_eq!(PerfReport::from_json(report_json).unwrap(), r);
    }

    #[test]
    fn history_parses_and_rejects_bad_lines() {
        let cell = |m: f64| PerfStats {
            median_ms: m,
            p90_ms: m,
            reps: 5,
        };
        let mut a = PerfReport::new();
        a.insert("greedy", 64, cell(2.0));
        let mut b = PerfReport::new();
        b.insert("greedy", 64, cell(2.1));
        let text = format!(
            "{}\n\n{}\n",
            history_record(100, "full", &a),
            history_record(200, "quick", &b)
        );
        let records = parse_history(&text).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].ts_unix, 100);
        assert_eq!(records[0].mode, "full");
        assert_eq!(records[0].report, a);
        assert_eq!(records[1].mode, "quick");

        let err = parse_history("{\"ts_unix\":1}\n").unwrap_err();
        assert!(err.contains("line 1"), "{err}");
        assert!(parse_history("{\"nope\":1}").is_err());
        // The error names the line, not just the record.
        let two = format!("{}\n{{broken", history_record(1, "full", &a));
        assert!(parse_history(&two).unwrap_err().contains("line 2"));
    }

    #[test]
    fn history_gate_needs_two_full_records() {
        let mut r = PerfReport::new();
        r.insert(
            "greedy",
            64,
            PerfStats {
                median_ms: 1.0,
                p90_ms: 1.0,
                reps: 5,
            },
        );
        assert_eq!(
            check_history(&[], 1.25),
            HistoryCheck::NotEnoughHistory { full_records: 0 }
        );
        let one = HistoryRecord {
            ts_unix: 1,
            mode: "full".into(),
            report: r.clone(),
        };
        assert_eq!(
            check_history(std::slice::from_ref(&one), 1.25),
            HistoryCheck::NotEnoughHistory { full_records: 1 }
        );
        // Quick records never count toward the trend.
        let quick = HistoryRecord {
            ts_unix: 2,
            mode: "quick".into(),
            report: r,
        };
        assert_eq!(
            check_history(&[one, quick], 1.25),
            HistoryCheck::NotEnoughHistory { full_records: 1 }
        );
    }

    #[test]
    fn history_gate_flags_regressions_against_the_prior_median() {
        let cell = |m: f64| PerfStats {
            median_ms: m,
            p90_ms: m,
            reps: 5,
        };
        let record = |ts: u64, m: f64| {
            let mut r = PerfReport::new();
            r.insert("greedy", 64, cell(m));
            HistoryRecord {
                ts_unix: ts,
                mode: "full".into(),
                report: r,
            }
        };
        // Priors 10, 12, 11 → nearest-rank median 11, budget 13.75.
        let mut records = vec![record(1, 10.0), record(2, 12.0), record(3, 11.0)];

        records.push(record(4, 13.0));
        match check_history(&records, 1.25) {
            HistoryCheck::Compared { priors, violations } => {
                assert_eq!(priors, 3);
                assert!(violations.is_empty(), "{violations:?}");
            }
            other => panic!("{other:?}"),
        }

        *records.last_mut().unwrap() = record(4, 14.0);
        match check_history(&records, 1.25) {
            HistoryCheck::Compared { violations, .. } => {
                assert_eq!(violations.len(), 1);
                assert!(violations[0].contains("greedy P=64"), "{}", violations[0]);
            }
            other => panic!("{other:?}"),
        }

        // A brand-new cell in the latest record has no trend: passes.
        let mut latest = record(5, 1.0);
        latest.report.insert("newcomer", 1024, cell(500.0));
        records.push(latest);
        match check_history(&records, 1.25) {
            HistoryCheck::Compared { violations, .. } => {
                assert!(violations.is_empty(), "{violations:?}")
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn targets_round_trip_and_gate() {
        let mut r = PerfReport::new();
        r.insert(
            "matching-max",
            1024,
            PerfStats {
                median_ms: 40.0,
                p90_ms: 55.0,
                reps: 5,
            },
        );
        r.set_target("matching-max", 1024, 60.0);
        r.set_target("matching-min", 1024, 75.5);

        // Both serializations carry the block and parse back equal.
        let parsed = PerfReport::from_json(&r.to_json()).unwrap();
        assert_eq!(parsed, r);
        let parsed_line = PerfReport::from_json(&r.to_json_line()).unwrap();
        assert_eq!(parsed_line, r);
        assert_eq!(parsed.targets().len(), 2);

        // Within budget: passes. A target with no measured cell is
        // skipped (matching-min was never measured here).
        assert!(r.check_targets(&r).is_empty());

        // Over budget: named violation.
        let mut slow = PerfReport::new();
        slow.insert(
            "matching-max",
            1024,
            PerfStats {
                median_ms: 61.0,
                p90_ms: 61.0,
                reps: 5,
            },
        );
        let violations = r.check_targets(&slow);
        assert_eq!(violations.len(), 1);
        assert!(
            violations[0].contains("matching-max P=1024"),
            "{}",
            violations[0]
        );
        assert!(violations[0].contains("target 60.000"), "{}", violations[0]);

        // Rebaselining carries the ratchet forward.
        let mut fresh = PerfReport::new();
        fresh.insert(
            "matching-max",
            1024,
            PerfStats {
                median_ms: 39.0,
                p90_ms: 41.0,
                reps: 5,
            },
        );
        fresh.adopt_targets(&r);
        assert_eq!(fresh.targets(), r.targets());
    }

    #[test]
    fn targets_only_report_serializes() {
        // A report with nothing but targets (degenerate but legal).
        let mut r = PerfReport::new();
        r.set_target("matching-max", 1024, 100.0);
        assert_eq!(PerfReport::from_json(&r.to_json()).unwrap(), r);
        assert_eq!(PerfReport::from_json(&r.to_json_line()).unwrap(), r);
    }

    /// The committed perf files re-serialize to their exact bytes: the
    /// reader loses nothing the writers put there.
    #[test]
    fn committed_files_round_trip_byte_for_byte() {
        let history = include_str!("../../../BENCH_history.jsonl");
        let rewritten: String = parse_history(history)
            .unwrap()
            .iter()
            .map(|r| history_record(r.ts_unix, &r.mode, &r.report) + "\n")
            .collect();
        assert_eq!(rewritten, history);

        let sched = include_str!("../../../BENCH_sched.json");
        assert_eq!(PerfReport::from_json(sched).unwrap().to_json(), sched);
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(PerfReport::from_json("").is_err());
        assert!(PerfReport::from_json("{").is_err());
        assert!(PerfReport::from_json("{} trailing").is_err());
        assert!(PerfReport::from_json(r#"{"a": {"64": {"median_ms": 1}}}"#).is_err());
        assert!(
            PerfReport::from_json(r#"{"a": {"x": {"median_ms": 1, "p90_ms": 1, "reps": 1}}}"#)
                .is_err()
        );
    }

    #[test]
    fn gate_flags_regressions_and_missing_cells() {
        let cell = |m: f64| PerfStats {
            median_ms: m,
            p90_ms: m,
            reps: 1,
        };
        let mut baseline = PerfReport::new();
        baseline.insert("greedy", 64, cell(10.0));
        let mut ok = PerfReport::new();
        ok.insert("greedy", 64, cell(99.0));
        assert!(ok.gate(&baseline, 10.0).is_empty());
        let mut slow = PerfReport::new();
        slow.insert("greedy", 64, cell(101.0));
        assert_eq!(slow.gate(&baseline, 10.0).len(), 1);
        let mut unknown = PerfReport::new();
        unknown.insert("greedy", 128, cell(1.0));
        assert_eq!(unknown.gate(&baseline, 10.0).len(), 1);
    }
}
