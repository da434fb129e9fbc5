//! The op-based workloads: `plan`, `exchange` and `adapt`.

use crate::trace::Tracer;
use adaptcomm_core::algorithms::{
    Baseline, Greedy, MatchingKind, MatchingPlan, MatchingScheduler, OpenShop, Scheduler,
};
use adaptcomm_core::checkpointed::{CheckpointPolicy, RescheduleRule};
use adaptcomm_core::execution::execute_listed;
use adaptcomm_core::matrix::CommMatrix;
use adaptcomm_core::schedule::{Schedule, SendOrder};
use adaptcomm_directory::DirectoryService;
use adaptcomm_model::units::{Bytes, Millis};
use adaptcomm_runtime::channel::{run_shaped, CheckpointAction, FrozenNetwork, ShapedConfig};
use adaptcomm_runtime::transport::{expected_receipts, fill_payload, physical_len};
use adaptcomm_runtime::{
    execute, execute_adaptive, AdaptSettings, BackendKind, ChannelTransport, CheckpointedRun,
    ReceiptSummary, ReplanTrigger, Replanner, RunTrace, RuntimeError, Transport,
};
use adaptcomm_sim::{run_static, Fault, NetworkEvolution, ScriptedFaults, SimMetrics};
use adaptcomm_workloads::{Scenario, ScenarioInstance};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// splitmix64: the benchmark's only source of randomness, so every
/// input is a function of `--seed`.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The instance seed of op `i` of a run seeded `seed`.
pub fn op_seed(seed: u64, i: u64) -> u64 {
    mix(mix(seed) ^ i)
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1000.0
}

/// What one op measured and produced.
#[derive(Debug, Clone, Default)]
pub struct OpRecord {
    /// Wall time of the whole op.
    pub wall_ms: f64,
    /// Wall time of the cold schedule constructions in it.
    pub plan_ms: f64,
    /// Wall time of the §6 incremental replan (plan workload only).
    pub replan_ms: Option<f64>,
    /// Payload bytes delivered.
    pub bytes: u64,
    /// Mean modeled completion over `t_lb` of the op's plans.
    pub lb_ratio: f64,
    /// Per-layer counts and reported durations (traced ops only).
    pub counts: Vec<(&'static str, f64)>,
}

/// One of the op-based workloads.
pub trait OpWorkload {
    /// The spans that partition a traced op, for the completeness check.
    const STAGES: &'static [&'static str];

    /// The first ops of an untraced run, whose plans `lb_ratio` averages;
    /// every run completes at least these, so it repeats exactly.
    const FIXED_OPS: u64;

    /// Generates op `i`'s inputs (outside the timed region) and runs it,
    /// inside spans when `tracer` is given. `Err` is an output mismatch.
    fn op(&mut self, i: u64, tracer: Option<&mut Tracer>) -> Result<OpRecord, String>;

    /// Checks made after the timed loop, over the first ops.
    fn finish(&mut self) -> Result<(), String> {
        Ok(())
    }
}

// ---------------------------------------------------------------------
// plan: five cold builds and one incremental replan at P = 128.

pub struct PlanWorkload {
    seed: u64,
    /// `(op, edited matrix, replanned plan)` of the first ops, re-solved
    /// cold after the loop.
    replans: Vec<(u64, CommMatrix, MatchingPlan)>,
}

pub const PLAN_P: usize = 128;
/// Ops whose replan is checked against a cold solve after the loop.
const REPLAN_CHECKS: usize = 8;

impl PlanWorkload {
    pub fn new(seed: u64) -> Self {
        PlanWorkload {
            seed,
            replans: Vec::new(),
        }
    }
}

/// Scales one link's cost by 1.3, choosing (from `salt`) a link that
/// stays below the matrix maximum, so the replan diffs against the
/// retained plan instead of falling back to a full build.
pub fn one_link_edit(m: &CommMatrix, salt: u64) -> Result<CommMatrix, String> {
    let p = m.len() as u64;
    let hi = m.max_cost().as_ms();
    for k in 0..64 * p * p {
        let r = mix(salt ^ k);
        let (s, d) = ((r % p) as usize, ((r >> 32) % p) as usize);
        let c = m.cost(s, d).as_ms();
        if s != d && c * 1.3 < hi {
            let mut edited = m.clone();
            edited.set_cost(s, d, Millis::new(c * 1.3));
            return Ok(edited);
        }
    }
    Err("no link stays below the matrix maximum when scaled by 1.3".into())
}

/// `order` holds a permutation of the other processors for every
/// sender.
fn check_permutations(name: &str, order: &[Vec<usize>]) -> Result<(), String> {
    let p = order.len();
    for (src, list) in order.iter().enumerate() {
        let mut seen = vec![false; p];
        for &d in list {
            if d >= p || d == src || std::mem::replace(&mut seen[d], true) {
                return Err(format!("{name}: sender {src} order is not a permutation"));
            }
        }
        if list.len() + 1 != p {
            return Err(format!(
                "{name}: sender {src} sends {} messages",
                list.len()
            ));
        }
    }
    Ok(())
}

/// Each sender's destinations in start order.
fn order_of(schedule: &Schedule) -> SendOrder {
    let p = schedule.processors();
    let mut events: Vec<_> = schedule.events().to_vec();
    events.sort_by(|a, b| a.start.as_ms().total_cmp(&b.start.as_ms()));
    let mut order = vec![Vec::new(); p];
    for e in events {
        order[e.src].push(e.dst);
    }
    SendOrder { order }
}

fn same_ms(a: Millis, b: Millis) -> bool {
    (a.as_ms() - b.as_ms()).abs() <= 1e-9 * a.as_ms().abs().max(1.0)
}

impl OpWorkload for PlanWorkload {
    const STAGES: &'static [&'static str] = &[
        "core.baseline",
        "lap.matching_max.cold",
        "lap.matching_min.cold",
        "core.greedy",
        "core.openshop",
        "core.execute_listed",
        "core.replan",
    ];
    const FIXED_OPS: u64 = 20;

    fn op(&mut self, i: u64, mut tracer: Option<&mut Tracer>) -> Result<OpRecord, String> {
        let s = op_seed(self.seed, i);
        let inst = match tracer.as_deref_mut() {
            Some(t) => t.span("workloads.instance", i, || {
                Scenario::Mixed.instance(PLAN_P, s)
            }),
            None => Scenario::Mixed.instance(PLAN_P, s),
        };
        let m = &inst.matrix;
        let edited = one_link_edit(m, mix(s))?;
        let p = m.len();

        // The five §5 schedulers, built cold from new values in the order
        // of `all_schedulers`; each call is what `Scheduler::schedule`
        // does, split so a traced op can time the LAP build apart from
        // the ASAP pass. The matching-max plan is kept for the replan.
        let mm = MatchingScheduler::new(MatchingKind::Max);
        let mn = MatchingScheduler::new(MatchingKind::Min);
        let body = |t: &mut Timer| {
            let t0 = Instant::now();
            let baseline = t.run("core.baseline", i, || Baseline.schedule(m));
            let max_plan = t.run("lap.matching_max.cold", i, || mm.plan(m));
            let max_order = SendOrder::from_steps(p, &max_plan.steps);
            let max_s = t.run("core.execute_listed", i, || execute_listed(&max_order, m));
            let min_plan = t.run("lap.matching_min.cold", i, || mn.plan(m));
            let min_order = SendOrder::from_steps(p, &min_plan.steps);
            let min_s = t.run("core.execute_listed", i, || execute_listed(&min_order, m));
            let greedy_order = t.run("core.greedy", i, || Greedy.send_order(m));
            let greedy_s = t.run("core.execute_listed", i, || {
                execute_listed(&greedy_order, m)
            });
            let openshop = t.run("core.openshop", i, || OpenShop.schedule(m));
            let plan_ms = ms_since(t0);
            let t1 = Instant::now();
            let replan = t.run("core.replan", i, || {
                mm.replan_incremental(&max_plan, &edited)
            });
            let replan_ms = ms_since(t1);
            let wall_ms = ms_since(t0);
            let built = [
                ("baseline", baseline, None),
                ("matching-max", max_s, Some(max_order)),
                ("matching-min", min_s, Some(min_order)),
                ("greedy", greedy_s, Some(greedy_order)),
                ("openshop", openshop, None),
            ];
            let col_scans = max_plan.total_col_scans + min_plan.total_col_scans;
            (built, replan, col_scans, plan_ms, replan_ms, wall_ms)
        };
        let (built, replan, col_scans, plan_ms, replan_ms, wall_ms) = match tracer {
            Some(t) => t.scope("op", i, |t| body(&mut Timer(Some(t)))),
            None => body(&mut Timer(None)),
        };

        // Output checks, outside the timed region.
        let lb = m.lower_bound().as_ms();
        let mut ratio = 0.0;
        for (name, schedule, order) in &built {
            let order = order.clone().unwrap_or_else(|| order_of(schedule));
            check_permutations(name, &order.order)?;
            schedule
                .validate()
                .map_err(|e| format!("{name}: invalid schedule: {e}"))?;
            // The baseline executes its steps as blocking send-recv
            // pairs, not as a listed order, so only the others compare.
            if *name != "baseline"
                && !same_ms(
                    execute_listed(&order, m).completion_time(),
                    schedule.completion_time(),
                )
            {
                return Err(format!(
                    "{name}: schedule completion differs from execute_listed of its order"
                ));
            }
            ratio += schedule.completion_time().as_ms() / lb;
        }
        if replan.disposition != "incremental" {
            return Err(format!(
                "replan was {}, not incremental",
                replan.disposition
            ));
        }
        let counts = vec![
            ("lap.col_scans", col_scans as f64),
            ("core.replan.spliced_rounds", replan.spliced_rounds as f64),
            ("core.replan.col_scans", replan.total_col_scans as f64),
        ];
        if self.replans.len() < REPLAN_CHECKS {
            self.replans.push((i, edited, replan));
        }
        Ok(OpRecord {
            wall_ms,
            plan_ms,
            replan_ms: Some(replan_ms),
            bytes: 0,
            lb_ratio: ratio / built.len() as f64,
            counts,
        })
    }

    /// The replan must equal a cold solve of the edited matrix round by
    /// round. Where a round's optimum is not unique (cost ties), the two
    /// may pick different optimal matchings and diverge from there on;
    /// the first differing round must then hold two matchings of equal
    /// weight, which certifies the replan's round as optimal too.
    fn finish(&mut self) -> Result<(), String> {
        let mut ties = 0;
        for (i, edited, replan) in &self.replans {
            let cold = MatchingScheduler::new(MatchingKind::Max).steps(edited);
            let Some(k) = (0..cold.len()).find(|&k| cold[k] != replan.steps[k]) else {
                continue;
            };
            let weight = |step: &[Option<usize>]| -> f64 {
                step.iter()
                    .enumerate()
                    .filter_map(|(s, d)| d.map(|d| edited.cost(s, d).as_ms()))
                    .sum()
            };
            let (a, b) = (weight(&cold[k]), weight(&replan.steps[k]));
            if (a - b).abs() > 1e-9 * a.abs().max(1.0) {
                return Err(format!(
                    "op {i}: incremental replan round {k} weighs {b}, a cold solve {a}"
                ));
            }
            ties += 1;
        }
        println!(
            "  replan check: {} of {} replans match a cold solve; {ties} diverge at an equal-weight tie",
            self.replans.len() - ties,
            self.replans.len()
        );
        Ok(())
    }
}

/// Runs a call inside a span when tracing, bare otherwise.
struct Timer<'a>(Option<&'a mut Tracer>);

impl Timer<'_> {
    fn run<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        match self.0.as_deref_mut() {
            Some(t) => t.span(name, op, f),
            None => f(),
        }
    }
}

// ---------------------------------------------------------------------
// exchange and adapt: live runs on the channel backend.

/// A [`ChannelTransport`] that adds up the wall time its deliveries
/// take, over all sender threads.
pub struct TimedTransport {
    inner: ChannelTransport,
    busy_ns: AtomicU64,
}

impl TimedTransport {
    pub fn new(p: usize) -> Self {
        TimedTransport {
            inner: ChannelTransport::new(p),
            busy_ns: AtomicU64::new(0),
        }
    }

    pub fn busy_ms(&self) -> f64 {
        self.busy_ns.load(Ordering::Relaxed) as f64 / 1e6
    }
}

impl Transport for TimedTransport {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn deliver(&self, src: usize, dst: usize, payload: Vec<u8>) -> Result<(), RuntimeError> {
        let t = Instant::now();
        let out = self.inner.deliver(src, dst, payload);
        self.busy_ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        out
    }

    fn receipts(&self) -> Vec<ReceiptSummary> {
        self.inner.receipts()
    }
}

/// Per-transfer wall waits from a run trace: Request→Grant and
/// Grant→Complete, in microseconds.
fn transfer_waits(trace: &RunTrace) -> (Vec<f64>, Vec<f64>) {
    use adaptcomm_runtime::EventKind;
    use std::collections::HashMap;
    let mut requested: HashMap<(usize, usize), u64> = HashMap::new();
    let mut granted: HashMap<(usize, usize), u64> = HashMap::new();
    let (mut grant_wait, mut transfer) = (Vec::new(), Vec::new());
    for e in &trace.events {
        let key = (e.src, e.dst);
        match e.kind {
            EventKind::Request => {
                requested.insert(key, e.wall_us);
            }
            EventKind::Grant => {
                if let Some(r) = requested.remove(&key) {
                    grant_wait.push(e.wall_us.saturating_sub(r) as f64);
                }
                granted.insert(key, e.wall_us);
            }
            EventKind::Complete => {
                if let Some(g) = granted.remove(&key) {
                    transfer.push(e.wall_us.saturating_sub(g) as f64);
                }
            }
        }
    }
    (grant_wait, transfer)
}

/// Counts and reported durations shared by the live-run workloads.
fn live_counts(
    trace: &RunTrace,
    receipts: &[ReceiptSummary],
    sizes: &[Vec<Bytes>],
    deliver_ms: f64,
) -> Vec<(&'static str, f64)> {
    let (grant_wait, transfer) = transfer_waits(trace);
    // Replay the payload fill the senders did, over the op's sizes.
    let t = Instant::now();
    for (s, row) in sizes.iter().enumerate() {
        for (d, &b) in row.iter().enumerate() {
            if s != d {
                black_box(fill_payload(s, d, physical_len(b, None)));
            }
        }
    }
    let fill_ms = ms_since(t);
    vec![
        ("runtime.fabric_ms", trace.wall_elapsed_us() as f64 / 1000.0),
        (
            "runtime.grant_wait_us_p50",
            crate::stats::median(&grant_wait).unwrap_or(0.0),
        ),
        (
            "runtime.transfer_us_p50",
            crate::stats::median(&transfer).unwrap_or(0.0),
        ),
        ("transport.fill_ms", fill_ms),
        ("transport.deliver_ms", deliver_ms),
        (
            "transport.messages",
            receipts.iter().map(|r| r.messages).sum::<usize>() as f64,
        ),
        (
            "transport.bytes",
            receipts.iter().map(|r| r.bytes).sum::<u64>() as f64,
        ),
    ]
}

pub struct ExchangeWorkload {
    seed: u64,
}

/// P=48 rather than Figure 9's 64: at 64 a 20 s run completes ~70 ops,
/// too few for ten samples beyond the p90, and that p90 did not repeat
/// within its bound across seeds.
pub const EXCHANGE_P: usize = 48;

impl ExchangeWorkload {
    pub fn new(seed: u64) -> Self {
        ExchangeWorkload { seed }
    }
}

/// The realized makespan must match the simulator's prediction within
/// the tolerance the runtime-vs-sim tests enforce.
const SIM_TOLERANCE: f64 = 0.05;

impl OpWorkload for ExchangeWorkload {
    const STAGES: &'static [&'static str] = &[
        "core.openshop",
        "runtime.price",
        "runtime.fabric",
        "runtime.verify",
        "runtime.report",
    ];
    const FIXED_OPS: u64 = 20;

    // The fabric spans pass `run_shaped`'s own result type through.
    #[allow(clippy::result_large_err)]
    fn op(&mut self, i: u64, tracer: Option<&mut Tracer>) -> Result<OpRecord, String> {
        let s = op_seed(self.seed, i);
        let mut tracer = tracer;
        let inst = match tracer.as_deref_mut() {
            Some(t) => t.span("workloads.instance", i, || {
                Scenario::Small.instance(EXCHANGE_P, s)
            }),
            None => Scenario::Small.instance(EXCHANGE_P, s),
        };
        let sizes = inst.sizes.to_rows();
        let mut network = FrozenNetwork(inst.network.clone());

        let (order, plan_ms, makespan, receipts, receipts_ok, wall_ms, counts) = match tracer {
            None => {
                let t0 = Instant::now();
                let order = OpenShop.send_order(&inst.matrix);
                let plan_ms = ms_since(t0);
                let report = execute(
                    &order.order,
                    &sizes,
                    &mut network,
                    BackendKind::Channel,
                    ShapedConfig::default(),
                )
                .map_err(|e| format!("exchange run failed: {e}"))?;
                let wall_ms = ms_since(t0);
                (
                    order,
                    plan_ms,
                    report.makespan,
                    report.receipts,
                    report.receipts_ok,
                    wall_ms,
                    Vec::new(),
                )
            }
            Some(t) => {
                // `runtime::execute`, call by call: the pricing pass over
                // the planning estimates, the fabric run, the receipt
                // check and the metrics fold.
                let t0 = Instant::now();
                let transport = TimedTransport::new(EXCHANGE_P);
                let (order, plan_ms, out, receipts, receipts_ok) = t.scope("op", i, |t| {
                    let order = t.span("core.openshop", i, || OpenShop.send_order(&inst.matrix));
                    let plan_ms = ms_since(t0);
                    let _priced = t.span("runtime.price", i, || {
                        let mut frozen = FrozenNetwork(network.planning_estimates());
                        let config = ShapedConfig {
                            payload_cap: Some(0),
                            ..Default::default()
                        };
                        let sink = ChannelTransport::new(EXCHANGE_P);
                        black_box(
                            run_shaped(&order.order, &sizes, &mut frozen, &sink, config, |_| {
                                CheckpointAction::Continue
                            })
                            .map(|o| o.makespan),
                        )
                    });
                    let out = t.span("runtime.fabric", i, || {
                        run_shaped(
                            &order.order,
                            &sizes,
                            &mut network,
                            &transport,
                            ShapedConfig::default(),
                            |_| CheckpointAction::Continue,
                        )
                    });
                    let receipts = transport.receipts();
                    let receipts_ok = t.span("runtime.verify", i, || {
                        receipts == expected_receipts(&sizes, None)
                    });
                    if let Ok(o) = &out {
                        t.span("runtime.report", i, || {
                            black_box(SimMetrics::from_records(EXCHANGE_P, &o.records))
                        });
                    }
                    (order, plan_ms, out, receipts, receipts_ok)
                });
                let wall_ms = ms_since(t0);
                let out = out.map_err(|f| format!("exchange run failed: {}", f.error))?;
                let counts = t.scope("probe", i, |_| {
                    live_counts(&out.trace, &receipts, &sizes, transport.busy_ms())
                });
                (
                    order,
                    plan_ms,
                    out.makespan,
                    receipts,
                    receipts_ok,
                    wall_ms,
                    counts,
                )
            }
        };

        if !receipts_ok {
            return Err("exchange receipts do not verify".into());
        }
        let sim = run_static(&order, &inst.network, &sizes).makespan.as_ms();
        let dev = (makespan.as_ms() - sim).abs() / sim;
        if dev > SIM_TOLERANCE {
            return Err(format!(
                "exchange makespan {:.3} ms deviates {:.2}% from sim::run_static",
                makespan.as_ms(),
                dev * 100.0
            ));
        }
        Ok(OpRecord {
            wall_ms,
            plan_ms,
            replan_ms: None,
            bytes: receipts.iter().map(|r| r.bytes).sum(),
            lb_ratio: makespan.as_ms() / inst.matrix.lower_bound().as_ms(),
            counts,
        })
    }
}

pub struct AdaptWorkload {
    seed: u64,
}

pub const ADAPT_P: usize = 24;

impl AdaptWorkload {
    pub fn new(seed: u64) -> Self {
        AdaptWorkload { seed }
    }
}

/// The settings of `adaptcomm run --adapt`.
pub fn adapt_settings() -> AdaptSettings {
    AdaptSettings {
        policy: CheckpointPolicy::EveryEvent,
        trigger: ReplanTrigger::Deviation(RescheduleRule {
            deviation_threshold: 0.05,
        }),
        replanner: Replanner::Matching(MatchingKind::Max),
        ..Default::default()
    }
}

/// The CLI's `--adapt` drift: bandwidth ×0.25 on ⌈P/3⌉ links at 10 ms.
pub fn drifting(inst: &ScenarioInstance) -> ScriptedFaults {
    let p = inst.network.len();
    let script = (0..p.div_ceil(3))
        .map(|k| Fault {
            at: Millis::new(10.0),
            src: k,
            dst: (k + 1) % p,
            factor: 0.25,
        })
        .collect();
    ScriptedFaults::new(inst.network.clone(), script)
}

impl OpWorkload for AdaptWorkload {
    const STAGES: &'static [&'static str] = &[
        "core.openshop",
        "runtime.adapt",
        "runtime.verify",
        "runtime.report",
    ];
    const FIXED_OPS: u64 = 12;

    fn op(&mut self, i: u64, tracer: Option<&mut Tracer>) -> Result<OpRecord, String> {
        let s = op_seed(self.seed, i);
        let mut tracer = tracer;
        let inst = match tracer.as_deref_mut() {
            Some(t) => t.span("workloads.instance", i, || {
                Scenario::Mixed.instance(ADAPT_P, s)
            }),
            None => Scenario::Mixed.instance(ADAPT_P, s),
        };
        let sizes = inst.sizes.to_rows();
        let mut evolution = drifting(&inst);
        let directory = DirectoryService::new(inst.network.clone());
        let settings = adapt_settings();

        let (makespan, receipts, receipts_ok, plan_ms, wall_ms, counts) = match tracer {
            None => {
                let t0 = Instant::now();
                let order = OpenShop.send_order(&inst.matrix);
                let plan_ms = ms_since(t0);
                let report = execute_adaptive(
                    &order.order,
                    &sizes,
                    &mut evolution,
                    &directory,
                    BackendKind::Channel,
                    settings,
                )
                .map_err(|e| format!("adaptive run failed: {e}"))?;
                let wall_ms = ms_since(t0);
                (
                    report.makespan,
                    report.receipts,
                    report.receipts_ok,
                    plan_ms,
                    wall_ms,
                    Vec::new(),
                )
            }
            Some(t) => {
                // `runtime::execute_adaptive`, call by call.
                let t0 = Instant::now();
                let transport = TimedTransport::new(ADAPT_P);
                let (order, plan_ms, report, receipts, receipts_ok, adapt_ms) =
                    t.scope("op", i, |t| {
                        let order =
                            t.span("core.openshop", i, || OpenShop.send_order(&inst.matrix));
                        let plan_ms = ms_since(t0);
                        let ta = Instant::now();
                        let report = t.span("runtime.adapt", i, || {
                            CheckpointedRun::new(&directory, &sizes, settings).execute(
                                &order.order,
                                &mut evolution,
                                &transport,
                            )
                        });
                        let receipts = transport.receipts();
                        let receipts_ok = t.span("runtime.verify", i, || {
                            receipts == expected_receipts(&sizes, settings.payload_cap)
                        });
                        if let Ok(r) = &report {
                            t.span("runtime.report", i, || {
                                black_box(SimMetrics::from_records(ADAPT_P, &r.records))
                            });
                        }
                        let adapt_ms = ms_since(ta);
                        (order, plan_ms, report, receipts, receipts_ok, adapt_ms)
                    });
                let wall_ms = ms_since(t0);
                let report = report.map_err(|e| format!("adaptive run failed: {e}"))?;
                let mut counts = t.scope("probe", i, |t| {
                    // The same instance, order and drift, run statically;
                    // the adaptive loop's cost is the difference.
                    let ts = Instant::now();
                    t.span("runtime.static_execute", i, || {
                        black_box(execute(
                            &order.order,
                            &sizes,
                            &mut drifting(&inst),
                            BackendKind::Channel,
                            ShapedConfig::default(),
                        ))
                    })
                    .map_err(|e| format!("static run failed: {e}"))?;
                    let static_ms = ms_since(ts);
                    let mut c = live_counts(&report.trace, &receipts, &sizes, transport.busy_ms());
                    c.push(("runtime.adapt.overhead_ms", adapt_ms - static_ms));
                    Ok::<_, String>(c)
                })?;
                counts.extend([
                    (
                        "runtime.adapt.checkpoints",
                        report.checkpoints_evaluated as f64,
                    ),
                    ("runtime.adapt.replans", report.reschedules as f64),
                    (
                        "runtime.adapt.incremental_replans",
                        report.incremental_reschedules as f64,
                    ),
                    ("directory.published", report.measurements_published as f64),
                ]);
                (
                    report.makespan,
                    receipts,
                    receipts_ok,
                    plan_ms,
                    wall_ms,
                    counts,
                )
            }
        };
        if !receipts_ok {
            return Err("adaptive run receipts do not verify".into());
        }
        Ok(OpRecord {
            wall_ms,
            plan_ms,
            replan_ms: None,
            bytes: receipts.iter().map(|r| r.bytes).sum(),
            lb_ratio: makespan.as_ms() / inst.matrix.lower_bound().as_ms(),
            counts,
        })
    }
}
