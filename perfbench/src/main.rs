//! The adaptcomm benchmark: four workloads over the paper's two jobs,
//! planning a total exchange and running it.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <plan|exchange|adapt|serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the last line of standard output is one JSON object
//! holding the end-to-end metrics of `BENCHMARK.json`; with `--trace 1`
//! it holds the per-layer metrics of a separate traced run, and the
//! spans go to `perfbench/traces/<workload>-seed<n>.jsonl`. The lines
//! before it are a readable report. The exit code is nonzero when an
//! output check fails. See `perfbench/README.md`.

mod ops;
mod serve;
mod stats;
mod trace;

use ops::{AdaptWorkload, ExchangeWorkload, OpRecord, OpWorkload, PlanWorkload};
use stats::{median, min_samples_for, quantile, supports};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use trace::Tracer;

/// Set-up repetitions; `setup_s` is their median.
const SETUPS: usize = 5;
/// Ops of a traced run whose counts are reported (every other one is
/// traced); every traced run completes at least these, so the counts
/// repeat exactly.
const TRACED_FIXED_OPS: u64 = 8;
/// The stage medians of a traced op must add up to the op median
/// within this share of it. A median of sums is not the sum of
/// medians: the plan workload's replan alone spans 5–60 ms depending on
/// the round its edit dirties, which moves the sum by up to ~9 %.
const STAGE_TOLERANCE: f64 = 0.15;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0u64, 10.0f64, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => trace = value == "1",
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["plan", "exchange", "adapt", "serve"].contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (plan|exchange|adapt|serve)"
        ));
    }
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// The metrics of one run, in print order, with units.
#[derive(Default)]
struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    attempted: usize,
    failures: Vec<String>,
}

impl Report {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| format!("\"{n}\":{{\"value\":{},\"unit\":\"{u}\"}}", num(*v)))
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.failures.is_empty(),
            self.attempted,
            self.failures.len(),
            metrics.join(",")
        )
    }
}

/// JSON has no NaN or infinity; a value that is not finite reads as 0.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

/// VmHWM of this process, in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn p50(v: &[f64]) -> f64 {
    median(v).unwrap_or(0.0)
}

fn p90(v: &[f64]) -> f64 {
    quantile(v, 0.9).unwrap_or(0.0)
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// How a timing's sample count stands against the ten-beyond rule.
fn tail_note(n: usize) -> String {
    if supports(n, 0.9) {
        format!("n={n}")
    } else {
        format!(
            "n={n}, fewer than ten samples beyond p90 (needs {})",
            min_samples_for(0.9)
        )
    }
}

fn main() {
    let started = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let report = match args.workload.as_str() {
        "plan" => run_ops(&args, started, PlanWorkload::new),
        "exchange" => run_ops(&args, started, ExchangeWorkload::new),
        "adapt" => run_ops(&args, started, AdaptWorkload::new),
        _ => run_serve(&args, started),
    };
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    for f in &report.failures {
        println!("FAILED: {f}");
    }
    println!("{}", report.json());
    if !report.failures.is_empty() {
        std::process::exit(1);
    }
}

/// Sets the workload up `SETUPS` times (inputs plus one untimed op) and
/// keeps the last; returns it with the median set-up time.
fn set_up<W: OpWorkload>(
    seed: u64,
    make: impl Fn(u64) -> W,
    started: Instant,
) -> Result<(W, f64), String> {
    let mut times = Vec::new();
    let mut last = None;
    for k in 0..SETUPS {
        // The first set-up also pays process start.
        let t0 = if k == 0 { started } else { Instant::now() };
        let mut w = make(seed);
        w.op(u64::MAX - k as u64, None)?;
        times.push(t0.elapsed().as_secs_f64());
        last = Some(w);
    }
    Ok((last.expect("at least one set-up"), p50(&times)))
}

fn run_ops<W: OpWorkload>(
    args: &Args,
    started: Instant,
    make: impl Fn(u64) -> W,
) -> Result<Report, String> {
    let (mut w, setup_s) = set_up(args.seed, make, started)?;
    let mut report = Report::default();
    let epoch = Instant::now();
    let mut tracer = Tracer::new(epoch, 0);
    let deadline = epoch + Duration::from_secs_f64(args.seconds);
    // (op index, traced, record)
    let mut done: Vec<(u64, bool, OpRecord)> = Vec::new();
    let mut i = 0u64;
    let fixed_ops = if args.trace {
        TRACED_FIXED_OPS
    } else {
        W::FIXED_OPS
    };
    while Instant::now() < deadline || i < fixed_ops {
        let traced = args.trace && i % 2 == 1;
        report.attempted += 1;
        match w.op(i, traced.then_some(&mut tracer)) {
            Ok(r) => done.push((i, traced, r)),
            Err(e) => report.failures.push(format!("op {i}: {e}")),
        }
        i += 1;
    }
    let loop_s = epoch.elapsed().as_secs_f64();
    let rss = peak_rss_mb();
    if let Err(e) = w.finish() {
        report.failures.push(e);
    }

    let untraced: Vec<&OpRecord> = done.iter().filter(|d| !d.1).map(|d| &d.2).collect();
    let traced: Vec<&OpRecord> = done.iter().filter(|d| d.1).map(|d| &d.2).collect();
    let wall: Vec<f64> = untraced.iter().map(|r| r.wall_ms).collect();
    let plan: Vec<f64> = untraced.iter().map(|r| r.plan_ms).collect();
    let replan: Vec<f64> = untraced.iter().filter_map(|r| r.replan_ms).collect();
    let fixed: Vec<&OpRecord> = done
        .iter()
        .filter(|d| d.0 < fixed_ops)
        .map(|d| &d.2)
        .collect();
    let lb_ratio = mean(&fixed.iter().map(|r| r.lb_ratio).collect::<Vec<_>>());
    let bytes: u64 = untraced.iter().map(|r| r.bytes).sum();
    let busy_s: f64 = wall.iter().sum::<f64>() / 1000.0;
    println!(
        "workload {} | seed {} | {} ops in {:.2} s ({} traced) | {} failed",
        args.workload,
        args.seed,
        report.attempted,
        loop_s,
        traced.len(),
        report.failures.len()
    );
    if !args.trace {
        let mut report_only = Vec::new();
        if !replan.is_empty() {
            report_only.push(("replan_ms_p50", p50(&replan), "ms"));
            report_only.push(("replan_ms_p90", p90(&replan), "ms"));
        }
        if bytes > 0 {
            report_only.push(("exchange_ms_p50", p50(&wall), "ms"));
            report_only.push(("goodput_mb_s", bytes as f64 / 1e6 / busy_s, "MB/s"));
        }
        let e2e = EndToEnd {
            setup_s,
            rss,
            lb_ratio,
            lb_note: format!("mean over the first {fixed_ops} ops"),
            plan: &plan,
            request: &wall,
            per_s: untraced.len() as f64 / busy_s,
        };
        put_end_to_end(&mut report, e2e, &report_only);
        return Ok(report);
    }

    // The traced run: per-layer medians over the traced ops.
    let per_op = tracer.per_op_ms();
    let traced_ids: Vec<u64> = done.iter().filter(|d| d.1).map(|d| d.0).collect();
    let layer = |name: &str| -> f64 {
        let v: Vec<f64> = traced_ids
            .iter()
            .map(|id| {
                per_op
                    .get(id)
                    .and_then(|m| m.get(name))
                    .copied()
                    .unwrap_or(0.0)
            })
            .collect();
        p50(&v)
    };
    // Counts repeat exactly only over a fixed set of ops, so they come
    // from the traced ops among the first ones; durations from all.
    let mut samples: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for d in done.iter().filter(|d| d.1) {
        for &(k, v) in &d.2.counts {
            if d.0 < fixed_ops || !is_count(k) {
                samples.entry(k).or_default().push(v);
            }
        }
    }
    let traced_wall: Vec<f64> = traced.iter().map(|r| r.wall_ms).collect();
    let op_ms = p50(&traced_wall);
    let stage_sum: f64 = W::STAGES.iter().map(|s| layer(s)).sum();
    let mut values: BTreeMap<String, f64> = SPAN_METRICS
        .iter()
        .map(|(span, metric)| (metric.to_string(), layer(span)))
        .collect();
    values.extend(samples.iter().map(|(k, v)| (k.to_string(), p50(v))));
    values.insert(
        format!("{}.unattributed_ms", args.workload),
        op_ms - stage_sum,
    );
    values.insert(
        "bench.trace_overhead_pct".into(),
        (op_ms / p50(&wall) - 1.0) * 100.0,
    );
    check_stages(
        &mut report,
        &args.workload,
        op_ms,
        stage_sum,
        W::STAGES,
        &layer,
    );
    write_trace(&tracer, args)?;
    put_layers(&mut report, &values, &args.workload);
    Ok(report)
}

/// Whether a per-layer metric is a count (or byte count) rather than a
/// duration.
fn is_count(name: &str) -> bool {
    PER_LAYER
        .iter()
        .any(|l| l.0 == name && matches!(l.1, "count" | "B"))
}

/// The end-to-end figures of an untraced run. `plan` and `request` are
/// per-op samples.
struct EndToEnd<'a> {
    setup_s: f64,
    rss: f64,
    lb_ratio: f64,
    lb_note: String,
    plan: &'a [f64],
    request: &'a [f64],
    per_s: f64,
}

/// Prints the end-to-end metrics and puts them in the report, after the
/// figures that are printed only (`report_only`).
fn put_end_to_end(report: &mut Report, e: EndToEnd, report_only: &[(&str, f64, &'static str)]) {
    let failed = report.failures.len() as f64 / report.attempted.max(1) as f64;
    println!(
        "  {:<16} {failed:>14.4} {:<5} report only",
        "failed_ratio", ""
    );
    for (name, v, unit) in report_only {
        println!("  {name:<16} {v:>14.4} {unit:<5} report only");
    }
    let n = e.request.len();
    let metrics = [
        (
            "setup_s",
            e.setup_s,
            "s",
            format!("median of {SETUPS} set-ups"),
        ),
        ("peak_rss_mb", e.rss, "MB", String::new()),
        ("lb_ratio", e.lb_ratio, "ratio", e.lb_note),
        ("plan_ms_p50", p50(e.plan), "ms", tail_note(n)),
        ("plan_ms_p90", p90(e.plan), "ms", String::new()),
        ("request_ms_p50", p50(e.request), "ms", tail_note(n)),
        ("request_ms_p90", p90(e.request), "ms", String::new()),
        ("requests_per_s", e.per_s, "1/s", String::new()),
    ];
    for (name, v, unit, note) in metrics {
        println!("  {name:<16} {v:>14.4} {unit:<5} {note}");
        report.put(name, v, unit);
    }
}

/// The completeness check: the stage medians of an op add up to the op
/// median within `STAGE_TOLERANCE`.
fn check_stages(
    report: &mut Report,
    workload: &str,
    op_ms: f64,
    stage_sum: f64,
    stages: &[&str],
    layer: &dyn Fn(&str) -> f64,
) {
    println!("  stages of one {workload} op (medians over traced ops):");
    for s in stages {
        println!("    {s:<32} {:>12.3} ms", layer(s));
    }
    let rest = op_ms - stage_sum;
    println!(
        "    {:<32} {:>12.3} ms   of an op median of {op_ms:.3} ms (tolerance {:.0}%)",
        format!("{workload}.unattributed_ms"),
        rest,
        STAGE_TOLERANCE * 100.0
    );
    if rest.abs() > STAGE_TOLERANCE * op_ms {
        report.failures.push(format!(
            "stage completeness: stages add up to {stage_sum:.3} ms of a {op_ms:.3} ms op"
        ));
    }
}

fn write_trace(tracer: &Tracer, args: &Args) -> Result<(), String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("traces");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("{}-seed{}.jsonl", args.workload, args.seed));
    std::fs::write(&path, tracer.to_jsonl()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("  spans: {} in {}", tracer.spans().len(), path.display());
    println!("  self time by span (total over the run):");
    for (name, ms) in tracer.self_ms_by_name() {
        println!("    {name:<32} {ms:>12.3} ms");
    }
    Ok(())
}

/// Puts every per-layer metric into the report (0 where this workload
/// does not exercise the layer) and prints the ones it does exercise,
/// each with the end-to-end metric and workload it should move.
fn put_layers(report: &mut Report, values: &BTreeMap<String, f64>, workload: &str) {
    debug_assert!(
        values.keys().all(|k| PER_LAYER.iter().any(|l| l.0 == k)),
        "every value is a per-layer metric"
    );
    println!("  per-layer metrics (layer metric, value, what it moves):");
    for &(name, unit, moves) in PER_LAYER {
        let v = values.get(name).copied().unwrap_or(0.0);
        if v != 0.0 || moves.contains(workload) {
            println!("    {name:<34} {v:>14.4} {unit:<6} {moves}");
        }
        report.put(name, v, unit);
    }
}

/// Spans whose per-op median is a per-layer metric.
const SPAN_METRICS: &[(&str, &str)] = &[
    ("workloads.instance", "workloads.instance_ms"),
    ("lap.matching_max.cold", "lap.matching_max.cold_ms"),
    ("lap.matching_min.cold", "lap.matching_min.cold_ms"),
    ("core.openshop", "core.openshop_ms"),
    ("core.greedy", "core.greedy_ms"),
    ("core.baseline", "core.baseline_ms"),
    ("core.execute_listed", "core.execute_listed_ms"),
    ("core.replan", "core.replan_ms"),
    ("runtime.price", "runtime.price_ms"),
    ("runtime.verify", "runtime.verify_ms"),
    ("runtime.adapt", "runtime.adapt_ms"),
    (
        "plansrv.codec.encode_request",
        "plansrv.codec.encode_request_ms",
    ),
    (
        "plansrv.codec.parse_response",
        "plansrv.codec.parse_response_ms",
    ),
];

/// Every per-layer metric: name, unit, and the end-to-end metric and
/// workload it should move.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("workloads.instance_ms", "ms", "setup_s, all"),
    ("lap.matching_max.cold_ms", "ms", "plan_ms_* on plan"),
    ("lap.matching_min.cold_ms", "ms", "plan_ms_* on plan"),
    ("lap.col_scans", "count", "plan_ms_* on plan"),
    (
        "core.openshop_ms",
        "ms",
        "plan_ms_* on plan, exchange, adapt",
    ),
    ("core.greedy_ms", "ms", "plan_ms_* on plan"),
    ("core.baseline_ms", "ms", "plan_ms_* on plan"),
    ("core.execute_listed_ms", "ms", "plan_ms_* on plan"),
    ("core.replan_ms", "ms", "request_ms_* on plan"),
    (
        "core.replan.spliced_rounds",
        "count",
        "request_ms_* on plan",
    ),
    ("core.replan.col_scans", "count", "request_ms_* on plan"),
    ("runtime.fabric_ms", "ms", "request_ms_p50 on exchange"),
    ("runtime.price_ms", "ms", "request_ms_p50 on exchange"),
    (
        "runtime.grant_wait_us_p50",
        "us",
        "request_ms_p50 on exchange",
    ),
    (
        "runtime.verify_ms",
        "ms",
        "request_ms_p50 on exchange, adapt",
    ),
    ("transport.fill_ms", "ms", "request_ms_p50 on adapt"),
    ("transport.deliver_ms", "ms", "request_ms_p50 on adapt"),
    ("runtime.transfer_us_p50", "us", "request_ms_p50 on adapt"),
    (
        "transport.messages",
        "count",
        "request_ms_p50 on exchange, adapt",
    ),
    ("transport.bytes", "B", "request_ms_p50 on adapt"),
    ("runtime.adapt_ms", "ms", "request_ms_p50 on adapt"),
    ("runtime.adapt.overhead_ms", "ms", "request_ms_p50 on adapt"),
    (
        "runtime.adapt.checkpoints",
        "count",
        "request_ms_p50 on adapt",
    ),
    (
        "runtime.adapt.replans",
        "count",
        "request_ms_p50, lb_ratio on adapt",
    ),
    (
        "runtime.adapt.incremental_replans",
        "count",
        "request_ms_p50 on adapt",
    ),
    ("directory.published", "count", "request_ms_p50 on adapt"),
    (
        "plansrv.service_ms_p50.hit",
        "ms",
        "request_ms_p50 on serve",
    ),
    (
        "plansrv.service_ms_p50.warm",
        "ms",
        "request_ms_p90, requests_per_s on serve",
    ),
    (
        "plansrv.service_ms_p50.cold",
        "ms",
        "request_ms_p90, requests_per_s on serve",
    ),
    (
        "plansrv.codec.encode_request_ms",
        "ms",
        "request_ms_p50 on serve",
    ),
    (
        "plansrv.codec.parse_response_ms",
        "ms",
        "request_ms_p50 on serve",
    ),
    ("plansrv.wire_ms_p50", "ms", "request_ms_p50 on serve"),
    ("plansrv.request_bytes", "B", "request_ms_p50 on serve"),
    ("plansrv.response_bytes", "B", "request_ms_p50 on serve"),
    (
        "plansrv.cache.hit_ratio",
        "ratio",
        "request_ms_p50 on serve",
    ),
    (
        "plansrv.cache.warm_ratio",
        "ratio",
        "request_ms_p90 on serve",
    ),
    (
        "plansrv.admission.rejects",
        "count",
        "requests_per_s on serve",
    ),
    ("lap.col_scans.warm", "count", "request_ms_p90 on serve"),
    ("lap.col_scans.cold", "count", "request_ms_p90 on serve"),
    (
        "plansrv.p1024_failures",
        "count",
        "failed requests at P=1024 on serve",
    ),
    ("plan.unattributed_ms", "ms", "stage completeness on plan"),
    (
        "exchange.unattributed_ms",
        "ms",
        "stage completeness on exchange",
    ),
    ("adapt.unattributed_ms", "ms", "stage completeness on adapt"),
    ("serve.unattributed_ms", "ms", "stage completeness on serve"),
    (
        "bench.trace_overhead_pct",
        "%",
        "traced vs untraced op median",
    ),
];

fn run_serve(args: &Args, started: Instant) -> Result<Report, String> {
    use adaptcomm_plansrv::CacheDisposition as D;
    use serve::{Kind, ServeSetup, FIXED_REQUESTS};
    let mut times = Vec::new();
    let mut setup = None;
    for k in 0..SETUPS {
        let t0 = if k == 0 { started } else { Instant::now() };
        if let Some(previous) = setup.take() {
            ServeSetup::shutdown(previous)?;
        }
        setup = Some(ServeSetup::new(args.seed)?);
        times.push(t0.elapsed().as_secs_f64());
    }
    let setup_s = p50(&times);
    let mut setup = setup.expect("at least one set-up");
    let epoch = Instant::now();
    let (answers, failures, wall_s, tracers) = setup.run(args.seconds, args.trace, epoch);
    let rss = peak_rss_mb();
    let p1024_failures = setup.frame_probe() as usize as f64;
    setup.shutdown()?;

    let mut report = Report {
        attempted: answers.len() + failures.len(),
        failures,
        ..Default::default()
    };
    let fixed = |a: &&serve::Answer| a.seq < FIXED_REQUESTS;
    let untraced: Vec<&serve::Answer> = answers
        .iter()
        .filter(|a| !args.trace || a.encode_ms.is_none())
        .collect();
    let rt: Vec<f64> = untraced.iter().map(|a| a.round_trip_ms).collect();
    let service: Vec<f64> = untraced.iter().map(|a| a.service_ms).collect();
    // Answers to repeats and unseen instances do not depend on arrival
    // order; a perturbation's does (which cached plan seeds it).
    let lb: Vec<f64> = answers
        .iter()
        .filter(fixed)
        .filter(|a| a.kind != Kind::Perturbed)
        .map(|a| a.lb_ratio)
        .collect();
    let count = |d: D| answers.iter().filter(|a| a.cache == d).count();
    println!(
        "workload serve | seed {} | {} requests in {wall_s:.2} s | hit {} warm {} incremental {} cold {} | {} failed",
        args.seed,
        report.attempted,
        count(D::Hit),
        count(D::Warm),
        count(D::Incremental),
        count(D::Cold),
        report.failures.len()
    );
    println!("  plansrv.p1024_failures {p1024_failures}");
    if !args.trace {
        let e2e = EndToEnd {
            setup_s,
            rss,
            lb_ratio: mean(&lb),
            lb_note: format!("mean over {} fixed answers", lb.len()),
            plan: &service,
            request: &rt,
            per_s: rt.len() as f64 / wall_s,
        };
        put_end_to_end(&mut report, e2e, &[]);
        return Ok(report);
    }

    let traced: Vec<&serve::Answer> = answers.iter().filter(|a| a.encode_ms.is_some()).collect();
    let by = |d: &[D]| -> f64 {
        p50(&traced
            .iter()
            .filter(|a| d.contains(&a.cache))
            .map(|a| a.service_ms)
            .collect::<Vec<_>>())
    };
    let t_rt: Vec<f64> = traced.iter().map(|a| a.round_trip_ms).collect();
    let enc = |a: &serve::Answer| a.encode_ms.unwrap_or(0.0);
    let parse = |a: &serve::Answer| a.parse_ms.unwrap_or(0.0);
    let service = |a: &serve::Answer| a.service_ms;
    let wire = |a: &serve::Answer| a.round_trip_ms - a.service_ms - enc(a) - parse(a);
    let over = |set: &[&serve::Answer], f: &dyn Fn(&serve::Answer) -> f64| {
        p50(&set.iter().map(|a| f(a)).collect::<Vec<_>>())
    };
    let fixed_answers: Vec<&serve::Answer> = answers.iter().filter(fixed).collect();
    let share = |d: &[D]| {
        fixed_answers
            .iter()
            .filter(|a| d.contains(&a.cache))
            .count() as f64
            / fixed_answers.len().max(1) as f64
    };
    let scans = |kind: Kind| {
        p50(&fixed_answers
            .iter()
            .filter(|a| a.kind == kind && a.cache != D::Hit)
            .map(|a| a.col_scans as f64)
            .collect::<Vec<_>>())
    };
    let traced_bytes = |f: fn(&serve::Answer) -> usize| {
        p50(&traced.iter().map(|a| f(a) as f64).collect::<Vec<_>>())
    };
    let mut tracer = Tracer::new(epoch, 0);
    for t in tracers {
        tracer.absorb(t);
    }
    // Hits set the median, and the two paths have different stage
    // shapes, so the stages partition the traced hits' round trip.
    let hits: Vec<&serve::Answer> = traced
        .iter()
        .copied()
        .filter(|a| a.cache == D::Hit)
        .collect();
    let op_ms = over(&hits, &|a| a.round_trip_ms);
    let stages = [
        ("plansrv.codec.encode_request", over(&hits, &enc)),
        ("plansrv.wire", over(&hits, &wire)),
        ("plansrv.service", over(&hits, &service)),
        ("plansrv.codec.parse_response", over(&hits, &parse)),
    ];
    let stage_sum: f64 = stages.iter().map(|s| s.1).sum();
    let layer = |name: &str| stages.iter().find(|s| s.0 == name).map_or(0.0, |s| s.1);
    let names: Vec<&str> = stages.iter().map(|s| s.0).collect();
    check_stages(&mut report, "serve", op_ms, stage_sum, &names, &layer);
    let values: BTreeMap<String, f64> = [
        ("plansrv.service_ms_p50.hit", by(&[D::Hit])),
        (
            "plansrv.service_ms_p50.warm",
            by(&[D::Warm, D::Incremental]),
        ),
        ("plansrv.service_ms_p50.cold", by(&[D::Cold])),
        ("plansrv.codec.encode_request_ms", over(&traced, &enc)),
        ("plansrv.codec.parse_response_ms", over(&traced, &parse)),
        ("plansrv.wire_ms_p50", over(&traced, &wire)),
        ("plansrv.request_bytes", traced_bytes(|a| a.request_bytes)),
        ("plansrv.response_bytes", traced_bytes(|a| a.response_bytes)),
        ("plansrv.cache.hit_ratio", share(&[D::Hit])),
        (
            "plansrv.cache.warm_ratio",
            share(&[D::Warm, D::Incremental]),
        ),
        ("lap.col_scans.warm", scans(Kind::Perturbed)),
        ("lap.col_scans.cold", scans(Kind::Unseen)),
        ("plansrv.p1024_failures", p1024_failures),
        ("serve.unattributed_ms", op_ms - stage_sum),
        (
            "bench.trace_overhead_pct",
            (p50(&t_rt) / p50(&rt) - 1.0) * 100.0,
        ),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect();
    write_trace(&tracer, args)?;
    put_layers(&mut report, &values, &args.workload);
    Ok(report)
}
