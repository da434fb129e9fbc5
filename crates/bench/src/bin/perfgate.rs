//! The scheduler-construction perf gate.
//!
//! ```text
//! perfgate [--quick | --check-history] [--baseline <path>] [--out <path>]
//!          [--factor <F>] [--history <path>] [--threads <N>] [--obs <dir>]
//! ```
//!
//! Times the construction cost (`Scheduler::send_order`) of all five
//! paper schedulers on GUSTO-guided Figure-10 instances, plus the
//! plan-server round trip at `P = 64` split by cache disposition
//! (`plansrv-cold` / `plansrv-hit` / `plansrv-warm`), plus an
//! `obs-overhead` cell (the `P = 256` matching-max replay with the
//! observability registry and flight recorder recording — the
//! enabled-path tax, gated like any other cell), plus an
//! `explain-overhead` cell (the causal analyzer — DAG, critical path,
//! blame, top-5 what-ifs — over a realized `P = 256` run), and reports
//! median/p90 wall milliseconds per `(scheduler, P)` cell:
//!
//! * **Full mode** (default): `P ∈ {64, 128, 256, 512, 1024}`, 5 timed
//!   repetitions after one warm-up, written to `BENCH_sched.json`
//!   (schema `scheduler → P → {median_ms, p90_ms, reps}`). Also times
//!   the retained cold-per-round reference for matching-max at `P = 512`
//!   and prints the warm-start speedup.
//! * **Quick mode** (`--quick`, the CI smoke step): `P ∈ {64, 128,
//!   256}`, 1 repetition after the same untimed warm-up (so matching
//!   cells time the retained-plan replay, like the committed baseline),
//!   no file output. Each measured median must stay
//!   within `--factor` (default 10×) of the committed baseline's median;
//!   any violation fails the process. The wide factor absorbs CI machine
//!   jitter while still catching accidental big-O regressions (the
//!   linear-scan open shop it guards against was ~40× slower at
//!   `P = 256`).
//!
//! Full mode also appends a dated record (`{"ts_unix", "mode",
//! "report"}`) to `--history` (default `BENCH_history.jsonl`), so
//! `BENCH_sched.json` stays "latest" while the JSONL keeps the trend.
//!
//! **History mode** (`--check-history`): runs no benchmarks at all.
//! Parses the `--history` file and compares the latest full-mode
//! record against the median of all prior full-mode records, failing
//! on any `(scheduler, P)` cell whose median regressed by more than
//! `--factor` (default 1.25×, i.e. 25 %). With fewer than two full
//! records it reports "nothing to compare yet" and passes — the gate
//! arms itself as the trend file grows. It then checks the latest full
//! record against the committed `"targets"` block in `--baseline`
//! (absolute ms budgets per `(scheduler, P)`) — the improvement
//! ratchet that keeps sub-second matching at `P = 1024` from rotting
//! back toward the pre-parallel cost, which a purely relative trend
//! gate would let creep through. Full runs carry targets forward into
//! the rewritten baseline, so rebaselining never drops the ratchet.
//!
//! `--threads <N>` (default 1) runs the matching schedulers' LAP
//! solves on N workers. Plans are bit-identical at any thread count,
//! so this only moves construction latency; CI runs `--quick
//! --threads 2` so the parallel path is exercised on every push.
//!
//! `--obs <dir>` adds an untimed instrumentation pass after the
//! measurements: each `(scheduler, P)` cell runs once with the global
//! observability registry enabled and dumps a JSONL capture to
//! `<dir>/trace_<scheduler>_P<p>.jsonl`, which `adaptcomm obs-summary`
//! and `adaptcomm obs-diff` read back. The pass is separate from the
//! timing loops — and quick mode asserts the registry is disabled
//! before timing — so the gate always measures the uninstrumented cost.
//!
//! Seeds are fixed per `P`, so every run times the same instances.

use adaptcomm_bench::perf::{check_history, parse_history, HistoryCheck, PerfReport, PerfStats};
use adaptcomm_core::algorithms::{all_schedulers_threaded, reference, MatchingKind};
use adaptcomm_workloads::Scenario;
use std::time::Instant;

const FULL_P: [usize; 5] = [64, 128, 256, 512, 1024];
const QUICK_P: [usize; 3] = [64, 128, 256];
const FULL_REPS: usize = 5;

struct Options {
    quick: bool,
    check_history: bool,
    baseline: String,
    out: String,
    /// `None` = the mode's default: 10× for `--quick` (absorbs CI
    /// jitter), 1.25× for `--check-history` (full-mode medians are
    /// stable enough to gate tightly).
    factor: Option<f64>,
    history: String,
    obs_dir: Option<String>,
    /// Worker threads for the matching schedulers' LAP solves. Plans
    /// are bit-identical at any count, so this is purely a latency
    /// knob — CI runs `--quick --threads 2` to keep the parallel path
    /// exercised.
    threads: usize,
}

fn parse_args() -> Options {
    let mut opts = Options {
        quick: false,
        check_history: false,
        baseline: "BENCH_sched.json".to_string(),
        out: "BENCH_sched.json".to_string(),
        factor: None,
        history: "BENCH_history.jsonl".to_string(),
        obs_dir: None,
        threads: 1,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut take = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--quick" => opts.quick = true,
            "--check-history" => opts.check_history = true,
            "--baseline" => opts.baseline = take("--baseline"),
            "--out" => opts.out = take("--out"),
            "--history" => opts.history = take("--history"),
            "--obs" => opts.obs_dir = Some(take("--obs")),
            "--factor" => {
                opts.factor = Some(take("--factor").parse().unwrap_or_else(|_| {
                    eprintln!("--factor needs a number");
                    std::process::exit(2);
                }))
            }
            "--threads" => {
                opts.threads = take("--threads").parse().unwrap_or_else(|_| {
                    eprintln!("--threads needs a number");
                    std::process::exit(2);
                });
                if opts.threads == 0 {
                    eprintln!("--threads must be at least 1");
                    std::process::exit(2);
                }
            }
            other => {
                eprintln!("unrecognized argument: {other}");
                std::process::exit(2);
            }
        }
    }
    opts
}

/// The benchmark instance for processor count `p`: the Figure-10
/// workload (uniform 1 MB messages — every pair matters) on a
/// GUSTO-guided random network with a `P`-derived fixed seed.
fn instance_matrix(p: usize) -> adaptcomm_core::matrix::CommMatrix {
    Scenario::Large.instance(p, 42 + p as u64).matrix
}

/// Times one closure, returning (wall ms, an anti-DCE token).
fn time_one<F: FnMut() -> usize>(mut f: F) -> (f64, usize) {
    let clock = Instant::now();
    let token = f();
    (clock.elapsed().as_secs_f64() * 1e3, token)
}

/// The untimed `--obs` pass: one instrumented construction per
/// `(scheduler, P)` cell, each dumped as its own JSONL capture.
fn obs_pass(dir: &str, p_values: &[usize], threads: usize) {
    std::fs::create_dir_all(dir).unwrap_or_else(|e| {
        eprintln!("cannot create {dir}: {e}");
        std::process::exit(2);
    });
    let obs = adaptcomm_obs::global();
    for &p in p_values {
        let matrix = instance_matrix(p);
        for scheduler in all_schedulers_threaded(threads) {
            obs.clear();
            obs.set_enabled(true);
            let span = obs
                .span("schedule")
                .attr("algorithm", scheduler.name())
                .attr("p", p);
            let steps = scheduler.send_order(&matrix).order.len();
            span.attr("steps", steps).end();
            let snap = obs.snapshot();
            obs.set_enabled(false);
            let path = format!("{dir}/trace_{}_P{p}.jsonl", scheduler.name());
            std::fs::write(&path, snap.to_jsonl()).unwrap_or_else(|e| {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(2);
            });
            println!("obs: wrote {path}");
        }
    }
    obs.clear();
}

/// The `--check-history` entry point: a pure file check, no timing.
fn run_history_check(opts: &Options) {
    let factor = opts.factor.unwrap_or(1.25);
    let text = std::fs::read_to_string(&opts.history).unwrap_or_else(|e| {
        eprintln!("cannot read history {}: {e}", opts.history);
        std::process::exit(2);
    });
    let records = parse_history(&text).unwrap_or_else(|e| {
        eprintln!("cannot parse {}: {e}", opts.history);
        std::process::exit(2);
    });
    match check_history(&records, factor) {
        HistoryCheck::NotEnoughHistory { full_records } => {
            println!(
                "history gate: {} holds {full_records} full-mode record(s); \
                 nothing to compare yet",
                opts.history
            );
        }
        HistoryCheck::Compared { priors, violations } => {
            if violations.is_empty() {
                println!(
                    "history gate OK: latest full run within {factor}x of the \
                     median of {priors} prior full run(s)"
                );
            } else {
                for v in &violations {
                    eprintln!("history gate FAIL: {v}");
                }
                std::process::exit(1);
            }
        }
    }
    // The absolute ratchet: the latest full-mode record must also meet
    // every committed target in the baseline file (the trend gate above
    // only catches *relative* drift; a slow creep back toward the
    // pre-optimization cost would pass it run over run).
    let Some(latest) = records.iter().rev().find(|r| r.mode == "full") else {
        return;
    };
    let Ok(text) = std::fs::read_to_string(&opts.baseline) else {
        return; // no baseline file, no targets to enforce
    };
    let baseline = PerfReport::from_json(&text).unwrap_or_else(|e| {
        eprintln!("cannot parse baseline {}: {e}", opts.baseline);
        std::process::exit(2);
    });
    let target_violations = baseline.check_targets(&latest.report);
    if target_violations.is_empty() {
        let n = baseline.targets().len();
        if n > 0 {
            println!("target gate OK: latest full run meets all {n} committed target(s)");
        }
    } else {
        for v in &target_violations {
            eprintln!("target gate FAIL: {v}");
        }
        std::process::exit(1);
    }
}

fn main() {
    let opts = parse_args();
    if opts.check_history {
        run_history_check(&opts);
        return;
    }
    let p_values: &[usize] = if opts.quick { &QUICK_P } else { &FULL_P };
    let reps = if opts.quick { 1 } else { FULL_REPS };

    // The gate times the *uninstrumented* cost: recording must be off.
    // A relaxed load is all the disabled path ever pays.
    assert!(
        !adaptcomm_obs::global().is_enabled(),
        "observability registry must stay disabled during timing"
    );

    let mut report = PerfReport::new();
    let mut sink = 0usize; // keeps the timed work observable
    for &p in p_values {
        let matrix = instance_matrix(p);
        for scheduler in all_schedulers_threaded(opts.threads) {
            // One untimed warm-up to page in code and allocator state.
            // For the matching schedulers this is also the cold build:
            // the timed repetitions then measure the retained-plan
            // replay, the cost a steady-state caller actually pays —
            // in both modes, so quick runs gate against like-for-like
            // baseline cells.
            sink ^= scheduler.send_order(&matrix).order.len();
            let mut samples = Vec::with_capacity(reps);
            for _ in 0..reps {
                let (ms, token) = time_one(|| scheduler.send_order(&matrix).order.len());
                sink ^= token;
                samples.push(ms);
            }
            let stats = PerfStats::from_samples(&samples);
            println!(
                "{:<14} P={:<5} median {:>10.3} ms   p90 {:>10.3} ms   ({} reps)",
                scheduler.name(),
                p,
                stats.median_ms,
                stats.p90_ms,
                reps
            );
            report.insert(scheduler.name(), p, stats);
        }
    }

    // Scheduling-as-a-service round trips at P = 64, one cell per
    // cache disposition. These time the whole client path — frame
    // codec, TCP, admission, solve or replay — so a protocol or
    // cache regression shows up here even when the raw schedulers
    // above are unchanged.
    let srv = adaptcomm_bench::plansrv_bench::measure_plan_server(64, reps);
    for (name, samples) in [
        ("plansrv-cold", &srv.cold_ms),
        ("plansrv-hit", &srv.hit_ms),
        ("plansrv-warm", &srv.warm_ms),
    ] {
        let stats = PerfStats::from_samples(samples);
        println!(
            "{:<14} P={:<5} median {:>10.3} ms   p90 {:>10.3} ms   ({} reps)",
            name, 64, stats.median_ms, stats.p90_ms, reps
        );
        report.insert(name, 64, stats);
    }

    // The observability tax: the same matching-max replay as the
    // P = 256 cell above, but with the global registry recording a span
    // and the flight recorder taking a note per construction — the full
    // enabled-path cost. Gated like every other cell, so instrumentation
    // creeping from "a span and a ring write" into real work fails CI
    // the same way a scheduler regression would.
    {
        let p = 256;
        let matrix = instance_matrix(p);
        let scheduler = all_schedulers_threaded(opts.threads)
            .into_iter()
            .find(|s| s.name() == "matching-max")
            .expect("matching-max is always registered");
        let obs = adaptcomm_obs::global();
        obs.clear();
        obs.set_enabled(true);
        sink ^= scheduler.send_order(&matrix).order.len(); // instrumented warm-up
        let mut samples = Vec::with_capacity(reps);
        for _ in 0..reps {
            let (ms, token) = time_one(|| {
                let span = obs.span("schedule").attr("algorithm", "matching-max");
                let steps = scheduler.send_order(&matrix).order.len();
                adaptcomm_obs::flight()
                    .note("perfgate.cell")
                    .attr("steps", steps)
                    .emit();
                span.attr("steps", steps).end();
                steps
            });
            sink ^= token;
            samples.push(ms);
        }
        obs.set_enabled(false);
        obs.clear();
        let stats = PerfStats::from_samples(&samples);
        println!(
            "{:<14} P={:<5} median {:>10.3} ms   p90 {:>10.3} ms   ({} reps)",
            "obs-overhead", p, stats.median_ms, stats.p90_ms, reps
        );
        report.insert("obs-overhead", p, stats);
    }

    // The explain-plane tax: the causal analyzer over a realized
    // P = 256 run (~65k transfers) — DAG construction, the critical
    // path, the blame table, and the top-5 what-if projections, i.e.
    // exactly what `adaptcomm explain` does to a capture. Gated like
    // every other cell, so "interactive on real captures" stays an
    // enforced property rather than an aspiration.
    {
        let p = 256;
        let matrix = instance_matrix(p);
        let scheduler = all_schedulers_threaded(opts.threads)
            .into_iter()
            .find(|s| s.name() == "matching-max")
            .expect("matching-max is always registered");
        let order = scheduler.send_order(&matrix);
        let schedule = adaptcomm_core::execution::execute_listed(&order, &matrix);
        let transfers: Vec<adaptcomm_obs::causal::Transfer> = schedule
            .events()
            .iter()
            .map(|e| adaptcomm_obs::causal::Transfer {
                src: e.src,
                dst: e.dst,
                start_ms: e.start.as_ms(),
                dur_ms: e.duration().as_ms(),
            })
            .collect();
        let analyze = |transfers: &[adaptcomm_obs::causal::Transfer]| {
            let dag = adaptcomm_obs::causal::CausalDag::new(transfers.to_vec());
            dag.critical_path().len() ^ dag.blame().links.len() ^ dag.interventions(2.0, 5).len()
        };
        sink ^= analyze(&transfers); // untimed warm-up
        let mut samples = Vec::with_capacity(reps);
        for _ in 0..reps {
            let (ms, token) = time_one(|| analyze(&transfers));
            sink ^= token;
            samples.push(ms);
        }
        let stats = PerfStats::from_samples(&samples);
        println!(
            "{:<14} P={:<5} median {:>10.3} ms   p90 {:>10.3} ms   ({} reps)",
            "explain-overhead", p, stats.median_ms, stats.p90_ms, reps
        );
        report.insert("explain-overhead", p, stats);
    }

    if opts.quick {
        let text = std::fs::read_to_string(&opts.baseline).unwrap_or_else(|e| {
            eprintln!("cannot read baseline {}: {e}", opts.baseline);
            std::process::exit(2);
        });
        let baseline = PerfReport::from_json(&text).unwrap_or_else(|e| {
            eprintln!("cannot parse baseline {}: {e}", opts.baseline);
            std::process::exit(2);
        });
        let factor = opts.factor.unwrap_or(10.0);
        let violations = report.gate(&baseline, factor);
        if violations.is_empty() {
            println!(
                "perf gate OK: all cells within {factor}x of {}",
                opts.baseline
            );
        } else {
            for v in &violations {
                eprintln!("perf gate FAIL: {v}");
            }
            std::process::exit(1);
        }
    } else {
        // The headline comparison behind this gate: warm-started rounds
        // vs the retained cold-per-round reference at P = 512.
        let p = 512;
        let matrix = instance_matrix(p);
        let (cold_ms, token) =
            time_one(|| reference::matching_steps(MatchingKind::Max, &matrix).len());
        sink ^= token;
        let warm_ms = report
            .get("matching-max", p)
            .expect("P=512 was just measured")
            .median_ms;
        println!(
            "matching-max P={p}: cold reference {cold_ms:.1} ms vs warm {warm_ms:.1} ms -> {:.1}x",
            cold_ms / warm_ms
        );
        // Rebaselining must not drop the committed improvement targets:
        // carry them forward from the existing baseline file.
        if let Ok(text) = std::fs::read_to_string(&opts.baseline) {
            if let Ok(prior) = PerfReport::from_json(&text) {
                report.adopt_targets(&prior);
            }
        }
        for (name, tp, budget) in report.targets() {
            if let Some(stats) = report.get(&name, tp) {
                println!(
                    "target {name} P={tp}: measured {:.3} ms vs budget {budget:.3} ms{}",
                    stats.median_ms,
                    if stats.median_ms > budget {
                        "  ** OVER BUDGET **"
                    } else {
                        ""
                    }
                );
            }
        }
        std::fs::write(&opts.out, report.to_json()).unwrap_or_else(|e| {
            eprintln!("cannot write {}: {e}", opts.out);
            std::process::exit(2);
        });
        println!("wrote {}", opts.out);
        // The committed JSON is always "latest"; the JSONL keeps every
        // dated run so regressions can be traced back in time.
        let ts_unix = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        let record = adaptcomm_bench::perf::history_record(ts_unix, "full", &report);
        adaptcomm_bench::perf::append_history(&opts.history, &record).unwrap_or_else(|e| {
            eprintln!("cannot append {}: {e}", opts.history);
            std::process::exit(2);
        });
        println!("appended {}", opts.history);
    }
    if let Some(dir) = &opts.obs_dir {
        obs_pass(dir, p_values, opts.threads);
    }
    // Defeat dead-code elimination of the timed closures.
    assert!(sink != usize::MAX);
}
