//! The shaped engine: real OS threads under the paper's port model.
//!
//! One worker thread per processor executes its send list over a
//! [`Transport`], while a central *fabric* (a monitor: one mutex, one
//! condvar per worker) enforces the model of §3: each node sends at
//! most one message and receives at most one message at a time; a busy
//! receiver queues requests and grants them FCFS, ties to the lower
//! sender id; a granted transfer from `i` to `j` carrying `m` bytes
//! occupies both ports for `T_ij + m/B_ij` of *modeled* time, priced
//! from a live [`NetworkEvolution`] at the grant instant.
//!
//! # Determinism: virtual time over real threads
//!
//! Wall-clock thread scheduling is nondeterministic, so the fabric keeps
//! a virtual clock: the port rule itself is the shared commit engine
//! [`adaptcomm_core::port::PortEngine`], the same one the simulator and
//! `execute_listed` drive. A worker outside the monitor is *running*
//! until the modeled finish of its transfer, because its next request
//! follows that finish. The fabric asks the engine only for steps
//! strictly before the earliest such instant (the engine's *horizon*)
//! and otherwise waits for those threads to re-enter, which they always
//! do. No later request can then precede a committed step, so the
//! committed sequence is the single-threaded engine's whatever the OS
//! scheduling, and the realized timeline is bit-identical to the
//! simulator's over the same network.
//!
//! Checkpoints (§6.3) fire at completion steps, under the fabric lock:
//! the hook sees consistent remaining queues and port availability, and
//! may hand back replanned queues, exactly where
//! `adaptcomm_sim::dynamic::run_adaptive` evaluates its checkpoints.
//!
//! # Wake rule
//!
//! Only a state change of a worker's own can unblock it: a grant of its
//! request, or the run failing. So each commit pass records the senders
//! it granted, and the worker that ran the pass wakes exactly those
//! (after leaving the monitor, so they do not block on the lock it still
//! holds); a failure wakes every worker. A grant at P processors thus
//! costs one wakeup, not P. A link's live estimate is read with
//! [`NetworkEvolution::link_at`], one link per grant rather than a P×P
//! table.
//!
//! # One-thread pricing
//!
//! [`price_shaped`] drives the same commit engine without threads: it
//! parks every sender at `start_at`, commits, then re-parks each granted
//! sender at its modeled finish (or retires it) and commits again. That
//! is the threaded run whose workers move their bytes infinitely fast:
//! every granted worker is back in the monitor before the clock could
//! pass its finish. Batching their re-entries into one commit pass only
//! delays commits, and the argument above makes the committed sequence
//! independent of when commits happen, so over the same network the
//! timeline is the threaded run's, bit for bit. Plans are priced this
//! way, without spawning a thread.

use crate::error::RuntimeError;
use crate::trace::{EventKind, RunTrace, RuntimeEvent};
use crate::transport::{fill_payload, physical_len, Transport};
use adaptcomm_core::checkpointed::CheckpointPolicy;
use adaptcomm_core::port::{At, PortEngine, Step};
use adaptcomm_model::cost::LinkEstimate;
use adaptcomm_model::params::NetParams;
use adaptcomm_model::units::{Bytes, Millis};
use adaptcomm_sim::executor::{SimRun, TransferRecord};
use adaptcomm_sim::NetworkEvolution;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Link-failure detection applied when a transfer is priced at its
/// grant instant (satellite of §6.4: surfacing faults instead of
/// silently waiting out a dead link).
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultPolicy {
    /// A link whose live bandwidth is at or below this many kbit/s is
    /// considered down; granting over it raises
    /// [`RuntimeError::MessageDropped`]. The boundary is deliberately
    /// inclusive: a threshold of `0.0` treats an exactly-zero-rated
    /// estimate as dead, because a zero-bandwidth link can never finish
    /// a transfer — there is no meaningful "legitimately zero" rate to
    /// preserve. Non-finite live estimates are rejected separately with
    /// [`RuntimeError::CorruptEstimate`] before this check runs, so a
    /// NaN bandwidth can no longer slip past the comparison.
    pub drop_below_kbps: Option<f64>,
    /// A transfer whose live duration exceeds `late_factor ×` its
    /// planning-estimate duration raises [`RuntimeError::MessageLate`].
    pub late_factor: Option<f64>,
}

/// Shaped-engine configuration.
#[derive(Debug, Clone, Copy)]
pub struct ShapedConfig {
    /// When to invoke the checkpoint hook.
    pub policy: CheckpointPolicy,
    /// Link-failure detection.
    pub faults: FaultPolicy,
    /// Wall-clock pacing: microseconds of real sleep per modeled
    /// millisecond of transfer time. `None` runs at full speed.
    pub pace_us_per_ms: Option<f64>,
    /// Cap on *physically copied* bytes per message (modeled durations
    /// always use the full size). `None` moves every byte.
    pub payload_cap: Option<u64>,
    /// Modeled time at which the run starts (non-zero when resuming
    /// after a failed attempt).
    pub start_at: Millis,
}

impl Default for ShapedConfig {
    fn default() -> Self {
        ShapedConfig {
            policy: CheckpointPolicy::Never,
            faults: FaultPolicy::default(),
            pace_us_per_ms: None,
            payload_cap: None,
            start_at: Millis::ZERO,
        }
    }
}

/// What the checkpoint hook sees, mid-run, under the fabric lock.
#[derive(Debug)]
pub struct CheckpointView<'a> {
    /// Transfers completed so far.
    pub completed: usize,
    /// Total transfers in the run.
    pub total: usize,
    /// Modeled time of the checkpoint (the completion that triggered it).
    pub now: Millis,
    /// Not-yet-granted destinations per sender.
    pub remaining: &'a [VecDeque<usize>],
    /// Modeled time each send port frees up (includes in-flight sends).
    pub send_busy_until: &'a [f64],
    /// Modeled time each receive port frees up.
    pub recv_busy_until: &'a [f64],
    /// Completed transfers, in completion order.
    pub records: &'a [TransferRecord],
}

/// The hook's verdict.
pub enum CheckpointAction {
    /// Keep executing the current queues.
    Continue,
    /// Replace the remaining queues. Each sender's new queue must hold
    /// exactly the destinations of its old one (in-flight and completed
    /// messages cannot be re-planned).
    Replan(Vec<VecDeque<usize>>),
}

/// A completed shaped run.
#[derive(Debug, Clone)]
pub struct ShapedOutcome {
    /// Full event trace (wall + modeled time).
    pub trace: RunTrace,
    /// Completed transfers sorted by `(finish, src, dst)`, the
    /// simulator's record order.
    pub records: Vec<TransferRecord>,
    /// Modeled completion time.
    pub makespan: Millis,
    /// Checkpoints at which the hook ran.
    pub checkpoints_evaluated: usize,
    /// Checkpoints at which the hook replanned.
    pub reschedules: usize,
}

/// A failed shaped run, with everything a retry driver needs.
#[derive(Debug, Clone)]
pub struct ShapedFailure {
    /// Why the run aborted.
    pub error: RuntimeError,
    /// Partial trace up to the failure.
    pub trace: RunTrace,
    /// Every transfer whose bytes reached the destination: completions
    /// committed before the failure, plus in-flight grants whose
    /// delivery the transport accepted even as the run was aborting
    /// (the ledger is settled after the workers join, so it is
    /// deterministic). A retry must not re-send any of them.
    pub records: Vec<TransferRecord>,
    /// Destinations not yet granted per sender. Grant-time failures
    /// leave the failed message at the front of its sender's queue;
    /// delivery-time failures do not (the message was already popped).
    pub remaining: Vec<Vec<usize>>,
    /// Modeled time each send port frees up.
    pub send_busy_until: Vec<f64>,
    /// Modeled time each receive port frees up.
    pub recv_busy_until: Vec<f64>,
    /// Modeled time at which the failure was detected.
    pub at: Millis,
    /// Every message that had already been popped from its queue when
    /// its bytes failed to reach the destination (the transport refused
    /// the delivery). Such messages are in neither `records` nor
    /// `remaining` and are still owed: the retry driver must re-queue
    /// each exactly once. More than one entry means several workers had
    /// deliveries in flight when the fault window opened — the one with
    /// the earliest modeled finish becomes `error`, but all of them were
    /// lost.
    pub lost: Vec<(usize, usize)>,
}

impl ShapedFailure {
    /// True when `link` was popped from its queue but never delivered.
    pub fn lost_in_flight(&self, link: (usize, usize)) -> bool {
        self.lost.contains(&link)
    }
}

#[derive(Debug, Clone, Copy)]
struct GrantSlip {
    dst: usize,
    start: f64,
    finish: f64,
    physical: usize,
}

/// Removes and returns the transport's refusal of `link`, if any.
fn take_refusal(
    refused: &mut Vec<(usize, usize, RuntimeError)>,
    link: (usize, usize),
) -> Option<RuntimeError> {
    let pos = refused.iter().position(|&(s, d, _)| (s, d) == link)?;
    Some(refused.swap_remove(pos).2)
}

struct Core<'a, E, H> {
    port: PortEngine,
    /// `Some(until)` while worker `src` is out of the monitor: its next
    /// request arrives no earlier than `until` (modeled).
    until: Vec<Option<f64>>,
    /// `(until, src)` of running workers, whose minimum is the engine's
    /// horizon. Entries go stale when their worker rejoins and are
    /// dropped lazily on lookup.
    running: BinaryHeap<Reverse<At<usize>>>,
    /// Senders granted since the caller of `advance` last collected
    /// them: the only workers a commit can unblock.
    granted: Vec<usize>,
    assignment: Vec<Option<GrantSlip>>,
    records: Vec<TransferRecord>,
    trace: RunTrace,
    completed: usize,
    total: usize,
    checkpoints_evaluated: usize,
    reschedules: usize,
    failure: Option<RuntimeError>,
    failed_at: f64,
    lost: Vec<(usize, usize)>,
    /// Deliveries the transport refused, registered by their worker and
    /// settled into the modeled timeline by the commit engine: the
    /// refusal with the earliest modeled finish becomes the run's
    /// failure, regardless of which worker's thread noticed its error
    /// first. That keeps the failure path as deterministic as the
    /// success path.
    refused: Vec<(usize, usize, RuntimeError)>,
    evolution: &'a mut E,
    planning: NetParams,
    sizes: &'a [Vec<Bytes>],
    hook: H,
    config: ShapedConfig,
}

struct Fabric<'a, E, H> {
    core: Mutex<Core<'a, E, H>>,
    /// One condvar per worker, so a grant wakes only its sender.
    wakeups: Vec<Condvar>,
    epoch: Instant,
}

impl<'a, E, H> Fabric<'a, E, H> {
    /// Leaves the monitor, then wakes the workers the last `advance`
    /// unblocked: the granted senders, or every worker once the run has
    /// failed. Waking after the unlock lets a woken worker take the lock
    /// at once instead of blocking on it again. `woken` is scratch space.
    fn release(&self, mut guard: MutexGuard<'_, Core<'a, E, H>>, woken: &mut Vec<usize>) {
        let everyone = guard.failure.is_some();
        woken.append(&mut guard.granted);
        drop(guard);
        if everyone {
            self.wakeups.iter().for_each(Condvar::notify_one);
            woken.clear();
        } else {
            for src in woken.drain(..) {
                self.wakeups[src].notify_one();
            }
        }
    }
}

impl<'a, E, H> Core<'a, E, H>
where
    E: NetworkEvolution,
    H: FnMut(&CheckpointView<'_>) -> CheckpointAction,
{
    fn new(
        lists: &[Vec<usize>],
        sizes: &'a [Vec<Bytes>],
        evolution: &'a mut E,
        config: ShapedConfig,
        hook: H,
    ) -> Self {
        let p = evolution.processors();
        assert_eq!(lists.len(), p, "send lists do not match network size");
        assert_eq!(sizes.len(), p, "sizes do not match network size");
        let total: usize = lists.iter().map(Vec::len).sum();
        let start = config.start_at.as_ms();
        let planning = evolution.planning_estimates();
        Core {
            port: PortEngine::new(lists, start),
            until: vec![Some(start); p],
            running: (0..p).map(|id| Reverse(At(start, id))).collect(),
            granted: Vec::with_capacity(p),
            assignment: vec![None; p],
            records: Vec::with_capacity(total),
            trace: RunTrace {
                events: Vec::with_capacity(3 * total),
            },
            completed: 0,
            total,
            checkpoints_evaluated: 0,
            reschedules: 0,
            failure: None,
            failed_at: start,
            lost: Vec::new(),
            refused: Vec::new(),
            evolution,
            planning,
            sizes,
            hook,
            config,
        }
    }

    /// Worker `src` enters the monitor at modeled `arrival`: it requests
    /// its next message, or retires once its list is drained or the run
    /// has failed. Returns whether it requested.
    fn rejoin(&mut self, src: usize, arrival: f64) -> bool {
        self.until[src] = None;
        self.failure.is_none() && self.port.request(src, arrival)
    }

    fn push_event(
        &mut self,
        kind: EventKind,
        src: usize,
        dst: usize,
        modeled: f64,
        epoch: &Instant,
    ) {
        self.trace.events.push(RuntimeEvent {
            kind,
            src,
            dst,
            bytes: self.sizes[src][dst],
            modeled: Millis::new(modeled),
            wall_us: epoch.elapsed().as_micros() as u64,
        });
    }

    fn fail(&mut self, error: RuntimeError, at: f64) {
        if self.failure.is_none() {
            self.failure = Some(error);
            self.failed_at = at;
        }
    }

    /// The earliest modeled instant at which a worker still out of the
    /// monitor could submit a request.
    fn min_running(&mut self) -> f64 {
        while let Some(&Reverse(At(at, id))) = self.running.peek() {
            if self.until[id].is_some_and(|until| until.to_bits() == at.to_bits()) {
                return at;
            }
            self.running.pop();
        }
        f64::INFINITY
    }

    fn commit_grant(&mut self, src: usize, dst: usize, arrival: f64, start: f64, epoch: &Instant) {
        let bytes = self.sizes[src][dst];
        // A non-finite or negative live estimate is a poisoned model, not
        // a slow link: it must never reach the `<=` comparison below (NaN
        // compares false against any threshold) or the engine (a NaN
        // finish wedges the virtual clock).
        let live = self.evolution.link_at(Millis::new(start), src, dst);
        let kbps = live.bandwidth.as_kbps();
        let dur = live.message_time(bytes).as_ms();
        if !kbps.is_finite() || !dur.is_finite() || dur < 0.0 {
            self.fail(
                RuntimeError::CorruptEstimate {
                    src,
                    dst,
                    at: Millis::new(start),
                    detail: format!(
                        "bandwidth {kbps} kbit/s, startup {}, duration {dur} ms",
                        live.startup
                    ),
                },
                start,
            );
            return;
        }
        if let Some(threshold) = self.config.faults.drop_below_kbps {
            // Inclusive on purpose: at the threshold the link is dead
            // (see `FaultPolicy::drop_below_kbps`).
            if kbps <= threshold {
                self.fail(
                    RuntimeError::MessageDropped {
                        src,
                        dst,
                        at: Millis::new(start),
                    },
                    start,
                );
                return;
            }
        }
        if let Some(factor) = self.config.faults.late_factor {
            let limit = self.planning.time(src, dst, bytes).as_ms() * factor;
            if dur > limit {
                self.fail(
                    RuntimeError::MessageLate {
                        src,
                        dst,
                        observed: Millis::new(dur),
                        limit: Millis::new(limit),
                    },
                    start,
                );
                return;
            }
        }
        let finish = start + dur;
        self.port.start(src, dst, finish);
        self.until[src] = Some(finish);
        self.running.push(Reverse(At(finish, src)));
        self.granted.push(src);
        self.assignment[src] = Some(GrantSlip {
            dst,
            start,
            finish,
            physical: physical_len(bytes, self.config.payload_cap),
        });
        self.push_event(EventKind::Request, src, dst, arrival, epoch);
        self.push_event(EventKind::Grant, src, dst, start, epoch);
    }

    fn commit_completion(
        &mut self,
        src: usize,
        dst: usize,
        start: f64,
        finish: f64,
        epoch: &Instant,
    ) {
        // A completion commits only once its sender has moved past the
        // delivery (the horizon is beyond `finish`), so by now the
        // transport's verdict is registered: a refused delivery becomes
        // the run's failure at its modeled finish — the earliest refusal
        // in modeled order wins, not the first worker thread to notice.
        if let Some(error) = take_refusal(&mut self.refused, (src, dst)) {
            self.lost.push((src, dst));
            self.fail(error, finish);
            return;
        }
        self.completed += 1;
        self.records.push(TransferRecord {
            src,
            dst,
            bytes: self.sizes[src][dst],
            start: Millis::new(start),
            finish: Millis::new(finish),
        });
        self.push_event(EventKind::Complete, src, dst, finish, epoch);

        if !self.config.policy.is_checkpoint(self.completed, self.total) {
            return;
        }
        self.checkpoints_evaluated += 1;
        let view = CheckpointView {
            completed: self.completed,
            total: self.total,
            now: Millis::new(finish),
            remaining: self.port.queues(),
            send_busy_until: self.port.send_free(),
            recv_busy_until: self.port.recv_free(),
            records: &self.records,
        };
        if let CheckpointAction::Replan(queues) = (self.hook)(&view) {
            self.reschedules += 1;
            self.port.replan(queues);
        }
    }

    /// Commits every engine step that no still-running worker can
    /// invalidate: those strictly before the earliest instant at which
    /// a running worker could request again.
    fn advance(&mut self, epoch: &Instant) {
        while self.failure.is_none() {
            let horizon = self.min_running();
            match self.port.next(horizon) {
                None => return,
                Some(Step::Grant {
                    src,
                    dst,
                    arrival,
                    at,
                }) => self.commit_grant(src, dst, arrival, at, epoch),
                Some(Step::Complete {
                    src,
                    dst,
                    start,
                    at,
                }) => self.commit_completion(src, dst, start, at, epoch),
            }
        }
    }

    /// Folds a finished run into its outcome. Every worker has left the
    /// monitor for good, so every committed grant has resolved.
    #[allow(clippy::result_large_err)]
    fn settle(self) -> Result<ShapedOutcome, ShapedFailure> {
        if let Some(error) = self.failure {
            // Settle the grants still in flight — successes into
            // `records`, refusals into `lost` — so delivered bytes are
            // never invisible to a retry and the ledger does not depend
            // on which worker thread hit the fault window first.
            let mut refused = self.refused;
            let mut lost = self.lost;
            let mut records = self.records;
            for (src, dst, start, finish) in self.port.in_flight() {
                if take_refusal(&mut refused, (src, dst)).is_some() {
                    lost.push((src, dst));
                } else {
                    records.push(TransferRecord {
                        src,
                        dst,
                        bytes: self.sizes[src][dst],
                        start: Millis::new(start),
                        finish: Millis::new(finish),
                    });
                }
            }
            return Err(ShapedFailure {
                error,
                trace: self.trace,
                records,
                remaining: self
                    .port
                    .queues()
                    .iter()
                    .map(|q| q.iter().copied().collect())
                    .collect(),
                send_busy_until: self.port.send_free().to_vec(),
                recv_busy_until: self.port.recv_free().to_vec(),
                at: Millis::new(self.failed_at),
                lost,
            });
        }
        debug_assert_eq!(
            self.records.len(),
            self.total,
            "every message must complete"
        );
        let SimRun { records, makespan } = SimRun::from_records(self.records);
        Ok(ShapedOutcome {
            trace: self.trace,
            records,
            makespan,
            checkpoints_evaluated: self.checkpoints_evaluated,
            reschedules: self.reschedules,
        })
    }
}

fn worker<E, T, H>(src: usize, fabric: &Fabric<'_, E, H>, transport: &T)
where
    E: NetworkEvolution,
    T: Transport + ?Sized,
    H: FnMut(&CheckpointView<'_>) -> CheckpointAction,
{
    let wakeup = &fabric.wakeups[src];
    let mut woken = Vec::new();
    let mut guard = fabric.core.lock().expect("fabric mutex poisoned");
    let mut next_arrival = guard.config.start_at.as_ms();
    let pace = guard.config.pace_us_per_ms;
    loop {
        let parked = guard.rejoin(src, next_arrival);
        guard.advance(&fabric.epoch);
        fabric.release(guard, &mut woken);
        if !parked {
            return;
        }
        guard = fabric.core.lock().expect("fabric mutex poisoned");
        while guard.assignment[src].is_none() && guard.failure.is_none() {
            guard = wakeup.wait(guard).expect("fabric mutex poisoned");
        }
        // A grant committed before a failure was flagged is still
        // delivered: its message already left the queues, so unless the
        // transport itself refuses it (recorded in `lost`), a
        // retry will not re-send it.
        if guard.assignment[src].is_none() {
            continue;
        }
        let slip = guard.assignment[src].take().expect("grant present");
        drop(guard);

        // Physical work, outside the monitor: optional pacing so the
        // wall-clock timeline tracks the modeled one, then the real
        // byte movement through the transport.
        if let Some(us_per_ms) = pace {
            let us = (slip.finish - slip.start) * us_per_ms;
            if us >= 1.0 {
                std::thread::sleep(Duration::from_micros(us as u64));
            }
        }
        let payload = fill_payload(src, slip.dst, slip.physical);
        let delivered = transport.deliver_timed(
            src,
            slip.dst,
            payload,
            Millis::new(slip.start),
            Millis::new(slip.finish),
        );

        guard = fabric.core.lock().expect("fabric mutex poisoned");
        if let Err(e) = delivered {
            // Registered, not flagged: the commit engine settles the
            // refusal into the modeled timeline (see `Core::refused`).
            guard.refused.push((src, slip.dst, e));
        }
        next_arrival = slip.finish;
    }
}

/// A network that never changes: wraps a parameter snapshot as a
/// [`NetworkEvolution`], e.g. to price a plan with the engine itself.
#[derive(Debug, Clone)]
pub struct FrozenNetwork(pub NetParams);

impl NetworkEvolution for FrozenNetwork {
    fn processors(&self) -> usize {
        self.0.len()
    }
    fn planning_estimates(&self) -> NetParams {
        self.0.clone()
    }
    fn state_at(&mut self, _t: Millis) -> NetParams {
        self.0.clone()
    }
    fn link_at(&mut self, _t: Millis, src: usize, dst: usize) -> LinkEstimate {
        self.0.estimate(src, dst)
    }
}

/// Executes the per-sender send lists over `transport`, pricing every
/// transfer from `evolution` at its grant instant, invoking `hook` at
/// the checkpoints of `config.policy`.
///
/// `lists[src]` holds `src`'s destinations in send order — pass
/// `&order.order` for a full [`adaptcomm_core::schedule::SendOrder`], or
/// a partial remainder when retrying after a fault (which a `SendOrder`,
/// validating full permutations, cannot represent).
///
/// On success the realized modeled timeline is identical to what
/// `adaptcomm_sim` would predict for the same decisions; on a fault the
/// error names the failing link and the failure state carries what a
/// retry needs.
// The Err variant deliberately carries the full retry state (queues,
// port availability, partial trace); failures are rare and boxing would
// push unwrapping noise into every retry driver.
#[allow(clippy::result_large_err)]
pub fn run_shaped<E, T, H>(
    lists: &[Vec<usize>],
    sizes: &[Vec<Bytes>],
    evolution: &mut E,
    transport: &T,
    config: ShapedConfig,
    hook: H,
) -> Result<ShapedOutcome, ShapedFailure>
where
    E: NetworkEvolution + Send,
    T: Transport + ?Sized,
    H: FnMut(&CheckpointView<'_>) -> CheckpointAction + Send,
{
    let core = Core::new(lists, sizes, evolution, config, hook);
    let fabric = Fabric {
        wakeups: (0..lists.len()).map(|_| Condvar::new()).collect(),
        core: Mutex::new(core),
        epoch: Instant::now(),
    };
    std::thread::scope(|s| {
        for src in 0..fabric.wakeups.len() {
            let fabric = &fabric;
            s.spawn(move || worker(src, fabric, transport));
        }
    });
    fabric
        .core
        .into_inner()
        .expect("fabric mutex poisoned")
        .settle()
}

/// Prices `lists` on the calling thread with the same commit engine as
/// [`run_shaped`]: the timeline of a threaded run whose workers move
/// their bytes instantly. No transport, pacing or checkpoints are
/// involved; a non-finite estimate still fails with
/// [`RuntimeError::CorruptEstimate`], before any thread would start.
///
/// Over a [`FrozenNetwork`] the records and makespan are bit-identical
/// to `run_shaped`'s with the same `start_at` (see the module doc).
#[allow(clippy::result_large_err)]
pub fn price_shaped<E: NetworkEvolution>(
    lists: &[Vec<usize>],
    sizes: &[Vec<Bytes>],
    evolution: &mut E,
    start_at: Millis,
) -> Result<ShapedOutcome, ShapedFailure> {
    let config = ShapedConfig {
        payload_cap: Some(0),
        start_at,
        ..Default::default()
    };
    let mut core = Core::new(lists, sizes, evolution, config, |_: &CheckpointView<'_>| {
        CheckpointAction::Continue
    });
    let epoch = Instant::now();
    for src in 0..lists.len() {
        core.rejoin(src, start_at.as_ms());
    }
    let mut granted = Vec::with_capacity(lists.len());
    loop {
        core.advance(&epoch);
        if core.granted.is_empty() {
            return core.settle();
        }
        std::mem::swap(&mut granted, &mut core.granted);
        for src in granted.drain(..) {
            let slip = core.assignment[src]
                .take()
                .expect("granted sender holds a slip");
            core.rejoin(src, slip.finish);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{expected_receipts, ChannelTransport};
    use adaptcomm_core::algorithms::{OpenShop, Scheduler};
    use adaptcomm_core::matrix::CommMatrix;
    use adaptcomm_model::cost::LinkEstimate;
    use adaptcomm_model::units::Bandwidth;
    use adaptcomm_model::variation::{VariationConfig, VariationTrace};
    use adaptcomm_sim::run_static;
    use adaptcomm_sim::{Fault, ScriptedFaults};

    /// Heterogeneous network: no two links alike, so modeled-time ties
    /// (where simulator and fabric may legitimately order events
    /// differently) cannot occur past the initial instant.
    fn hetero_net(p: usize) -> NetParams {
        NetParams::from_fn(p, |src, dst| {
            LinkEstimate::new(
                Millis::new(1.0 + (src * p + dst) as f64 * 0.37),
                Bandwidth::from_kbps(400.0 + (src * 31 + dst * 17) as f64 * 13.0),
            )
        })
    }

    fn mixed_sizes(p: usize) -> Vec<Vec<Bytes>> {
        (0..p)
            .map(|s| {
                (0..p)
                    .map(|d| {
                        if s == d {
                            Bytes::ZERO
                        } else if (s + d) % 3 == 0 {
                            Bytes::from_kb(120)
                        } else {
                            Bytes::from_kb(3)
                        }
                    })
                    .collect()
            })
            .collect()
    }

    fn still(net: NetParams) -> VariationTrace {
        VariationTrace::new(
            net,
            VariationConfig {
                volatility: 0.0,
                ..Default::default()
            },
            0,
        )
    }

    #[test]
    fn shaped_run_matches_the_simulator_exactly() {
        let p = 6;
        let net = hetero_net(p);
        let sizes = mixed_sizes(p);
        let order = OpenShop.send_order(&CommMatrix::from_model(&net, &sizes));
        let sim = run_static(&order, &net, &sizes);

        let transport = ChannelTransport::new(p);
        let mut evo = still(net);
        let out = run_shaped(
            &order.order,
            &sizes,
            &mut evo,
            &transport,
            ShapedConfig::default(),
            |_| CheckpointAction::Continue,
        )
        .expect("clean network must not fail");

        assert_eq!(out.records.len(), sim.records.len());
        for (a, b) in out.records.iter().zip(&sim.records) {
            assert_eq!((a.src, a.dst, a.bytes), (b.src, b.dst, b.bytes));
            assert!(
                (a.start.as_ms() - b.start.as_ms()).abs() < 1e-6,
                "{a:?} vs {b:?}"
            );
            assert!((a.finish.as_ms() - b.finish.as_ms()).abs() < 1e-6);
        }
        assert!((out.makespan.as_ms() - sim.makespan.as_ms()).abs() < 1e-6);
        // Every payload physically arrived, intact.
        assert_eq!(transport.receipts(), expected_receipts(&sizes, None));
        // Trace is well-formed: one request+grant+complete per message.
        assert_eq!(out.trace.events.len(), 3 * out.records.len());
    }

    #[test]
    fn dropped_links_surface_as_typed_errors() {
        let p = 4;
        let net = hetero_net(p);
        let sizes = mixed_sizes(p);
        let order = OpenShop.send_order(&CommMatrix::from_model(&net, &sizes));
        // Link 1 -> 2 collapses to ~zero bandwidth immediately.
        let mut evo = ScriptedFaults::new(
            net,
            vec![Fault {
                at: Millis::ZERO,
                src: 1,
                dst: 2,
                factor: 1e-9,
            }],
        );
        let transport = ChannelTransport::new(p);
        let config = ShapedConfig {
            faults: FaultPolicy {
                drop_below_kbps: Some(0.01),
                late_factor: None,
            },
            ..Default::default()
        };
        let failure = run_shaped(&order.order, &sizes, &mut evo, &transport, config, |_| {
            CheckpointAction::Continue
        })
        .expect_err("dead link must abort the run");
        assert_eq!(failure.error.link(), Some((1, 2)));
        assert!(matches!(failure.error, RuntimeError::MessageDropped { .. }));
        // The failed message is still owed by its sender.
        assert_eq!(failure.remaining[1].first(), Some(&2));
    }

    #[test]
    fn drop_threshold_boundary_is_inclusive() {
        let p = 4;
        let net = hetero_net(p);
        let sizes = mixed_sizes(p);
        let order = OpenShop.send_order(&CommMatrix::from_model(&net, &sizes));
        // hetero_net's slowest link is 0 -> 1 at exactly 621 kbit/s; a
        // threshold equal to it must count the link as dead (inclusive
        // boundary), while every faster link passes.
        let min_kbps = net.estimate(0, 1).bandwidth.as_kbps();
        assert_eq!(min_kbps, 621.0);
        let transport = ChannelTransport::new(p);
        let mut evo = still(net);
        let config = ShapedConfig {
            faults: FaultPolicy {
                drop_below_kbps: Some(min_kbps),
                late_factor: None,
            },
            ..Default::default()
        };
        let failure = run_shaped(&order.order, &sizes, &mut evo, &transport, config, |_| {
            CheckpointAction::Continue
        })
        .expect_err("a link at the threshold is dead");
        assert_eq!(failure.error.link(), Some((0, 1)));
        assert!(matches!(failure.error, RuntimeError::MessageDropped { .. }));
        assert!(
            failure.lost.is_empty(),
            "grant-time drops keep the message queued"
        );
        assert_eq!(failure.remaining[0].first(), Some(&1));
    }

    /// A network whose live state reports a NaN startup on one link,
    /// which no public `Bandwidth`/`NetParams` constructor guards
    /// against (only `Bandwidth::from_kbps` asserts).
    struct PoisonedEstimate(NetParams);

    impl NetworkEvolution for PoisonedEstimate {
        fn processors(&self) -> usize {
            self.0.len()
        }
        fn planning_estimates(&self) -> NetParams {
            self.0.clone()
        }
        fn state_at(&mut self, _t: Millis) -> NetParams {
            let mut net = self.0.clone();
            let e = net.estimate(0, 1);
            // Struct literal: `LinkEstimate::new` asserts, but its
            // fields are public, so corrupt data can be written directly.
            net.set_estimate(
                0,
                1,
                LinkEstimate {
                    startup: Millis::new(f64::NAN),
                    bandwidth: e.bandwidth,
                },
            );
            net
        }
    }

    #[test]
    fn non_finite_estimates_are_rejected_with_a_typed_error() {
        let p = 3;
        let net = hetero_net(p);
        let sizes = mixed_sizes(p);
        let order = OpenShop.send_order(&CommMatrix::from_model(&net, &sizes));
        let transport = ChannelTransport::new(p);
        let mut evo = PoisonedEstimate(net);
        // Even with a drop threshold configured, the NaN duration must
        // surface as CorruptEstimate, not sneak past the comparison.
        let config = ShapedConfig {
            faults: FaultPolicy {
                drop_below_kbps: Some(0.0),
                late_factor: None,
            },
            ..Default::default()
        };
        let failure = run_shaped(&order.order, &sizes, &mut evo, &transport, config, |_| {
            CheckpointAction::Continue
        })
        .expect_err("a poisoned estimate must abort the run");
        assert!(
            matches!(
                failure.error,
                RuntimeError::CorruptEstimate { src: 0, dst: 1, .. }
            ),
            "got {:?}",
            failure.error
        );
        assert_eq!(failure.error.link(), None, "not retryable by rescheduling");
    }

    /// A transport that refuses delivery on one link, without absorbing
    /// the payload: the message is popped from its queue but its bytes
    /// are genuinely lost.
    struct RefusingTransport {
        inner: ChannelTransport,
        refuse: (usize, usize),
    }

    impl Transport for RefusingTransport {
        fn name(&self) -> &'static str {
            "refusing"
        }
        fn deliver(&self, src: usize, dst: usize, payload: Vec<u8>) -> Result<(), RuntimeError> {
            if (src, dst) == self.refuse {
                return Err(RuntimeError::LinkPartitioned {
                    src,
                    dst,
                    at: Millis::ZERO,
                });
            }
            self.inner.deliver(src, dst, payload)
        }
        fn receipts(&self) -> Vec<crate::transport::ReceiptSummary> {
            self.inner.receipts()
        }
    }

    #[test]
    fn delivery_time_failures_are_flagged_lost_in_flight() {
        let p = 4;
        let net = hetero_net(p);
        let sizes = mixed_sizes(p);
        let order = OpenShop.send_order(&CommMatrix::from_model(&net, &sizes));
        let transport = RefusingTransport {
            inner: ChannelTransport::new(p),
            refuse: (1, 2),
        };
        let mut evo = still(net);
        let failure = run_shaped(
            &order.order,
            &sizes,
            &mut evo,
            &transport,
            ShapedConfig::default(),
            |_| CheckpointAction::Continue,
        )
        .expect_err("refused delivery must abort the run");
        assert_eq!(failure.error.link(), Some((1, 2)));
        assert_eq!(
            failure.lost,
            vec![(1, 2)],
            "a refused delivery left the queue but never arrived"
        );
        assert!(failure.lost_in_flight((1, 2)));
        // The popped message is in neither records nor remaining.
        assert!(!failure.remaining[1].contains(&2));
        assert!(!failure.records.iter().any(|r| r.src == 1 && r.dst == 2));
    }

    /// Runs `f` on its own thread and fails the test if it does not
    /// return within a minute: a worker parked without a wake would
    /// otherwise hang the run (and the suite) forever.
    fn within_watchdog<R: Send + 'static>(f: impl FnOnce() -> R + Send + 'static) -> R {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(f());
        });
        rx.recv_timeout(Duration::from_secs(60))
            .expect("the run hung: a parked worker was never woken")
    }

    #[test]
    fn a_refused_delivery_wakes_and_joins_every_worker() {
        let p = 32;
        let failure = within_watchdog(move || {
            let net = hetero_net(p);
            let sizes = mixed_sizes(p);
            let order = OpenShop.send_order(&CommMatrix::from_model(&net, &sizes));
            let transport = RefusingTransport {
                inner: ChannelTransport::new(p),
                refuse: (1, 2),
            };
            let config = ShapedConfig {
                payload_cap: Some(64),
                ..Default::default()
            };
            // `run_shaped` returns only after its scope joined all P
            // workers, so returning at all proves none was left parked.
            run_shaped(
                &order.order,
                &sizes,
                &mut still(net),
                &transport,
                config,
                |_| CheckpointAction::Continue,
            )
            .map(|_| ())
            .map_err(|f| (f.error.link(), f.lost))
        })
        .expect_err("refused delivery must abort the run");
        assert_eq!(failure, (Some((1, 2)), vec![(1, 2)]));
    }

    #[test]
    fn repeated_runs_commit_identical_timelines() {
        let p = 64;
        let net = hetero_net(p);
        let sizes: Vec<Vec<Bytes>> = (0..p)
            .map(|s| {
                (0..p)
                    .map(|d| {
                        if s == d {
                            Bytes::ZERO
                        } else {
                            Bytes::from_kb(1)
                        }
                    })
                    .collect()
            })
            .collect();
        let order = OpenShop.send_order(&CommMatrix::from_model(&net, &sizes));
        let run = || {
            let transport = ChannelTransport::new(p);
            let out = run_shaped(
                &order.order,
                &sizes,
                &mut FrozenNetwork(net.clone()),
                &transport,
                ShapedConfig::default(),
                |_| CheckpointAction::Continue,
            )
            .expect("a frozen network cannot fault");
            let records: Vec<_> = out
                .records
                .iter()
                .map(|r| {
                    (
                        r.src,
                        r.dst,
                        r.start.as_ms().to_bits(),
                        r.finish.as_ms().to_bits(),
                    )
                })
                .collect();
            let events: Vec<_> = out
                .trace
                .events
                .iter()
                .map(|e| (e.kind, e.src, e.dst, e.modeled.as_ms().to_bits()))
                .collect();
            (records, events)
        };
        let first = run();
        assert_eq!(first.0.len(), p * (p - 1));
        for _ in 1..5 {
            assert_eq!(run(), first, "thread scheduling leaked into the timeline");
        }
    }

    #[test]
    fn late_links_surface_as_typed_errors() {
        let p = 4;
        let net = hetero_net(p);
        let sizes = mixed_sizes(p);
        let order = OpenShop.send_order(&CommMatrix::from_model(&net, &sizes));
        // Link 0 -> 3 drops to 10% speed: 10x late, over the 3x bound,
        // but nowhere near the dead-link threshold.
        let mut evo = ScriptedFaults::new(
            net,
            vec![Fault {
                at: Millis::ZERO,
                src: 0,
                dst: 3,
                factor: 0.1,
            }],
        );
        let transport = ChannelTransport::new(p);
        let config = ShapedConfig {
            faults: FaultPolicy {
                drop_below_kbps: Some(0.01),
                late_factor: Some(3.0),
            },
            ..Default::default()
        };
        let failure = run_shaped(&order.order, &sizes, &mut evo, &transport, config, |_| {
            CheckpointAction::Continue
        })
        .expect_err("flapping link must abort the run");
        assert_eq!(failure.error.link(), Some((0, 3)));
        assert!(matches!(failure.error, RuntimeError::MessageLate { .. }));
    }

    #[test]
    fn checkpoint_hook_sees_consistent_state_and_can_replan() {
        let p = 5;
        let net = hetero_net(p);
        let sizes = mixed_sizes(p);
        let order = OpenShop.send_order(&CommMatrix::from_model(&net, &sizes));
        let transport = ChannelTransport::new(p);
        let mut evo = still(net);
        let config = ShapedConfig {
            policy: CheckpointPolicy::EveryEvent,
            ..Default::default()
        };
        let total = p * (p - 1);
        let out = run_shaped(&order.order, &sizes, &mut evo, &transport, config, |view| {
            assert!(view.completed >= 1 && view.completed < view.total);
            assert_eq!(view.total, total);
            assert_eq!(view.records.len(), view.completed);
            // Reverse every sender's remaining queue: a valid replan
            // (same multiset), deliberately different order.
            let reversed = view
                .remaining
                .iter()
                .map(|q| q.iter().rev().copied().collect())
                .collect();
            CheckpointAction::Replan(reversed)
        })
        .expect("replanning on a clean network must still complete");
        assert_eq!(out.records.len(), total);
        assert_eq!(out.checkpoints_evaluated, total - 1);
        assert_eq!(out.reschedules, total - 1);
        assert_eq!(transport.receipts(), expected_receipts(&sizes, None));
        // Port-model invariant on the realized records.
        for proc in 0..p {
            for port in [true, false] {
                let mut mine: Vec<_> = out
                    .records
                    .iter()
                    .filter(|r| if port { r.src == proc } else { r.dst == proc })
                    .collect();
                mine.sort_by(|a, b| a.start.as_ms().total_cmp(&b.start.as_ms()));
                for w in mine.windows(2) {
                    assert!(w[0].finish.as_ms() <= w[1].start.as_ms() + 1e-9);
                }
            }
        }
    }

    #[test]
    fn pacing_aligns_wall_clock_with_modeled_order() {
        let p = 3;
        let net = hetero_net(p);
        let sizes = mixed_sizes(p);
        let order = OpenShop.send_order(&CommMatrix::from_model(&net, &sizes));
        let transport = ChannelTransport::new(p);
        let mut evo = still(net);
        let config = ShapedConfig {
            // ~1 us per modeled ms: fast, but enough to order deliveries.
            pace_us_per_ms: Some(1.0),
            ..Default::default()
        };
        let out = run_shaped(&order.order, &sizes, &mut evo, &transport, config, |_| {
            CheckpointAction::Continue
        })
        .expect("paced run completes");
        assert_eq!(out.records.len(), p * (p - 1));
        assert!(out.trace.wall_elapsed_us() > 0);
    }
}
