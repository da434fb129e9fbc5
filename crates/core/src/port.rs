//! The §3.2 port model as one commit engine.
//!
//! Every executor of a send order — the analytic [`execute_listed`], the
//! simulator's static and drifting runs and the live threaded fabric —
//! applies the same rule: a node sends one message and receives one
//! message at a time; each sender transmits strictly in list order; a
//! sender requests its next message the instant its previous one
//! finishes, and a busy receiver grants waiting requests first come,
//! first served, ties to the lower sender id. [`PortEngine`] is the one
//! implementation of that rule. Drivers keep what differs between them:
//! pricing a granted transfer, fault checks, traces, checkpoint hooks and
//! failure settlement.
//!
//! # Ordering
//!
//! A request waits at its receiver keyed `(arrival, src)`; the top is the
//! receiver's next grant, due at `max(arrival, receiver free)`. The engine
//! merges two streams: grants by `(start, receiver)` and completions by
//! `(finish, sender, receiver)`. A grant goes first when it starts strictly
//! earlier, or at the same instant on a receiver that was already idle.
//! A grant on a receiver that frees at that very instant waits for the
//! completions, so checkpoints see every transfer that finished then.
//! Processor ids break every remaining tie: insertion order never reaches
//! a timeline.
//!
//! # Driving the engine
//!
//! [`PortEngine::next`] returns the next [`Step`] strictly before a
//! `horizon`:
//!
//! * [`Step::Grant`]: the driver prices the transfer and calls
//!   [`PortEngine::start`] with its finish before asking for another
//!   step (or abandons the run, leaving the message queued);
//! * [`Step::Complete`]: a transfer finished. The driver may
//!   [`PortEngine::replan`] here.
//!
//! A single-threaded driver passes `f64::INFINITY` and requests each
//! granted sender's next message at its finish right away. The live
//! fabric passes the earliest instant at which a worker thread still out
//! of its monitor could request again: no later request can precede a
//! step the engine commits, so the committed sequence is the
//! single-threaded one whatever the OS scheduling. Each step costs
//! O(log P) heap work and allocates nothing once the heaps have grown.
//!
//! [`execute_listed`]: crate::execution::execute_listed

use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, VecDeque};

/// A heap key ordered by time (`f64::total_cmp`), then by `K`.
#[derive(Debug, Clone, Copy)]
pub struct At<K>(pub f64, pub K);

impl<K: Ord> PartialEq for At<K> {
    fn eq(&self, o: &Self) -> bool {
        self.cmp(o).is_eq()
    }
}
impl<K: Ord> Eq for At<K> {}
impl<K: Ord> PartialOrd for At<K> {
    fn partial_cmp(&self, o: &Self) -> Option<Ordering> {
        Some(self.cmp(o))
    }
}
impl<K: Ord> Ord for At<K> {
    fn cmp(&self, o: &Self) -> Ordering {
        self.0.total_cmp(&o.0).then_with(|| self.1.cmp(&o.1))
    }
}

/// A min-heap of `(time, id)` keys.
type MinHeap = BinaryHeap<Reverse<At<usize>>>;

/// What the engine committed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Step {
    /// `src` may begin its next message, to `dst`, at `at`; it requested
    /// it at `arrival`. The driver calls [`PortEngine::start`] next.
    Grant {
        /// Sender.
        src: usize,
        /// Receiver.
        dst: usize,
        /// When the request was made.
        arrival: f64,
        /// When the transfer begins.
        at: f64,
    },
    /// The transfer `src → dst` begun at `start` finished at `at`.
    Complete {
        /// Sender.
        src: usize,
        /// Receiver.
        dst: usize,
        /// When the transfer began.
        start: f64,
        /// When it finished.
        at: f64,
    },
}

/// The port-model commit engine (see the module doc).
#[derive(Debug)]
pub struct PortEngine {
    /// Not-yet-granted destinations per sender, in send order.
    queues: Vec<VecDeque<usize>>,
    send_free: Vec<f64>,
    recv_free: Vec<f64>,
    /// Per receiver, the requests made for it, keyed `(arrival, src)`.
    waiting: Vec<MinHeap>,
    /// Per receiver, when its next grant is due: `max(arrival, receiver
    /// free)` of its first request, infinite while it has none.
    due: Vec<f64>,
    /// `(due, dst)` entries; one goes stale when its receiver's due
    /// moves and is dropped lazily on lookup.
    grants: MinHeap,
    /// `(finish, link)` of the transfers in flight, `link` packing `(src,
    /// dst)` in that order. A sender may hold two: its next grant can
    /// precede the completion of its last. `None` for a grants-only
    /// engine.
    completions: Option<BinaryHeap<Reverse<At<u64>>>>,
    /// Per receiver, the sender and start of the transfer it receives.
    serving: Vec<Option<(usize, f64)>>,
    /// Time of the last committed step.
    now: f64,
}

impl PortEngine {
    /// An engine for the send lists `lists[src]` (destinations in send
    /// order) whose ports are all free at `start`. No request is made
    /// yet: see [`PortEngine::request`].
    ///
    /// # Panics
    /// If a list names its own sender or a processor out of range, or
    /// there are 2^32 processors or more.
    pub fn new(lists: &[Vec<usize>], start: f64) -> Self {
        let p = lists.len();
        assert!(u32::try_from(p).is_ok(), "{p} processors is too many");
        for (src, list) in lists.iter().enumerate() {
            for &dst in list {
                assert!(
                    dst < p && dst != src,
                    "invalid destination {dst} for sender {src}"
                );
            }
        }
        PortEngine {
            queues: lists.iter().map(|l| VecDeque::from(l.clone())).collect(),
            send_free: vec![start; p],
            recv_free: vec![start; p],
            waiting: vec![BinaryHeap::new(); p],
            due: vec![f64::INFINITY; p],
            grants: BinaryHeap::with_capacity(2 * p),
            completions: Some(BinaryHeap::with_capacity(p)),
            serving: vec![None; p],
            now: start,
        }
    }

    /// The same engine reporting no [`Step::Complete`], for drivers that
    /// only price grants. The grants come in the same order: completions
    /// change no grant, they only decide which steps a driver sees
    /// between grants.
    pub fn grants_only(mut self) -> Self {
        self.completions = None;
        self
    }

    /// Sender `src` requests the head of its queue at `at` (no earlier
    /// than the last committed step). Returns `false`, requesting
    /// nothing, once its queue is drained.
    #[inline]
    pub fn request(&mut self, src: usize, at: f64) -> bool {
        debug_assert!(at >= self.now, "request at {at} before {}", self.now);
        let Some(&dst) = self.queues[src].front() else {
            return false;
        };
        // `Reverse` flips the order: the greater key is served first.
        let key = Reverse(At(at, src));
        let first = self.waiting[dst].peek().is_none_or(|top| key > *top);
        self.waiting[dst].push(key);
        if first {
            self.set_due(dst, at.max(self.recv_free[dst]));
        }
        true
    }

    /// Moves receiver `dst`'s next grant to `at`.
    #[inline]
    fn set_due(&mut self, dst: usize, at: f64) {
        if at.to_bits() != self.due[dst].to_bits() {
            self.due[dst] = at;
            self.grants.push(Reverse(At(at, dst)));
        }
    }

    /// The earliest due grant, `(start, dst)`, dropping stale entries.
    #[inline]
    fn next_grant(&mut self) -> Option<(f64, usize)> {
        while let Some(&Reverse(At(at, dst))) = self.grants.peek() {
            if self.due[dst].to_bits() == at.to_bits() {
                return Some((at, dst));
            }
            self.grants.pop();
        }
        None
    }

    /// Commits the next grant or completion strictly before `horizon`,
    /// or returns `None` if there is none.
    #[inline]
    pub fn next(&mut self, horizon: f64) -> Option<Step> {
        let grant = self.next_grant();
        let done = self
            .completions
            .as_ref()
            .and_then(BinaryHeap::peek)
            .map(|&Reverse(At(at, link))| (at, (link >> 32) as usize, link as u32 as usize));
        let grant_first = match (grant, done) {
            (None, None) => return None,
            (Some((start, dst)), Some((finish, ..))) => {
                start < finish || (start == finish && start > self.recv_free[dst])
            }
            (grant, _) => grant.is_some(),
        };
        if grant_first {
            let (at, dst) = grant.expect("a grant was chosen");
            if at >= horizon {
                return None;
            }
            self.grants.pop();
            self.due[dst] = f64::INFINITY;
            let Reverse(At(arrival, src)) = self.waiting[dst].pop().expect("a due grant");
            self.now = at;
            Some(Step::Grant {
                src,
                dst,
                arrival,
                at,
            })
        } else {
            let (at, src, dst) = done.expect("a completion was chosen");
            if at >= horizon {
                return None;
            }
            if let Some(completions) = &mut self.completions {
                completions.pop();
            }
            let (_, start) = self.serving[dst].take().expect("a receiver in flight");
            self.now = at;
            Some(Step::Complete {
                src,
                dst,
                start,
                at,
            })
        }
    }

    /// Begins the granted transfer `src → dst` now; it occupies both
    /// ports until `finish`.
    ///
    /// # Panics
    /// If `finish` is NaN or before the engine's clock.
    #[inline]
    pub fn start(&mut self, src: usize, dst: usize, finish: f64) {
        assert!(
            finish >= self.now,
            "transfer {src} -> {dst} would finish at {finish}, before {}",
            self.now
        );
        let head = self.queues[src].pop_front();
        debug_assert_eq!(head, Some(dst), "grant does not match the queue head");
        self.serving[dst] = Some((src, self.now));
        self.send_free[src] = finish;
        self.recv_free[dst] = finish;
        let link = (src as u64) << 32 | dst as u64;
        if let Some(completions) = &mut self.completions {
            completions.push(Reverse(At(finish, link)));
        }
        if let Some(&Reverse(At(arrival, _))) = self.waiting[dst].peek() {
            self.set_due(dst, arrival.max(finish));
        }
    }

    /// Replaces the remaining queues now (at a [`Step::Complete`]). Every
    /// request is withdrawn and made again for its sender's new head, at
    /// its arrival or now, whichever is later; in-flight transfers are
    /// unaffected.
    ///
    /// # Panics
    /// If a sender's new queue does not hold exactly the destinations of
    /// its old one: started and completed messages cannot be re-planned.
    pub fn replan(&mut self, queues: Vec<VecDeque<usize>>) {
        assert_eq!(
            queues.len(),
            self.queues.len(),
            "replan changed processor count"
        );
        for (src, (old, new)) in self.queues.iter().zip(&queues).enumerate() {
            let mut a: Vec<usize> = old.iter().copied().collect();
            let mut b: Vec<usize> = new.iter().copied().collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "replan changed sender {src}'s remaining messages");
        }
        self.queues = queues;
        let mut requests: Vec<(f64, usize)> = Vec::new();
        for heap in &mut self.waiting {
            requests.extend(heap.drain().map(|Reverse(At(at, src))| (at, src)));
        }
        self.due.fill(f64::INFINITY);
        self.grants.clear();
        for (at, src) in requests {
            self.request(src, at.max(self.now));
        }
    }

    /// Not-yet-granted destinations per sender, in send order.
    pub fn queues(&self) -> &[VecDeque<usize>] {
        &self.queues
    }

    /// When each send port frees up (in-flight transfers included).
    pub fn send_free(&self) -> &[f64] {
        &self.send_free
    }

    /// When each receive port frees up (in-flight transfers included).
    pub fn recv_free(&self) -> &[f64] {
        &self.recv_free
    }

    /// Started transfers not yet completed, as `(src, dst, start,
    /// finish)` in receiver order (completions reported).
    pub fn in_flight(&self) -> impl Iterator<Item = (usize, usize, f64, f64)> + '_ {
        self.serving
            .iter()
            .enumerate()
            .filter_map(|(dst, s)| s.map(|(src, start)| (src, dst, start, self.recv_free[dst])))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives `lists` to completion with fixed per-link durations,
    /// returning every step in commit order.
    fn drive(lists: &[Vec<usize>], dur: impl Fn(usize, usize) -> f64) -> Vec<Step> {
        drive_engine(PortEngine::new(lists, 0.0), dur)
    }

    fn drive_engine(mut port: PortEngine, dur: impl Fn(usize, usize) -> f64) -> Vec<Step> {
        for src in 0..port.queues().len() {
            port.request(src, 0.0);
        }
        let mut steps = Vec::new();
        while let Some(step) = port.next(f64::INFINITY) {
            if let Step::Grant { src, dst, at, .. } = step {
                let finish = at + dur(src, dst);
                port.start(src, dst, finish);
                port.request(src, finish);
            }
            steps.push(step);
        }
        steps
    }

    #[test]
    fn a_receiver_freed_at_t_serves_every_request_made_by_t() {
        // 0 → 2 occupies receiver 2 until 4. Senders 1 and 3 finish their
        // first messages at 4 too and then both want receiver 2, which
        // must go to the lower id, once every transfer ending at 4 has
        // completed.
        let lists = vec![vec![2], vec![3, 2], vec![], vec![0, 2]];
        let steps = drive(&lists, |_, _| 4.0);
        let at_4: Vec<Step> = steps
            .into_iter()
            .filter(|s| {
                matches!(
                    *s,
                    Step::Grant { at: 4.0, .. } | Step::Complete { at: 4.0, .. }
                )
            })
            .collect();
        let done = |src, dst| Step::Complete {
            src,
            dst,
            start: 0.0,
            at: 4.0,
        };
        let granted = Step::Grant {
            src: 1,
            dst: 2,
            arrival: 4.0,
            at: 4.0,
        };
        assert_eq!(at_4, vec![done(0, 2), done(1, 3), done(3, 0), granted]);
    }

    #[test]
    fn a_grant_on_an_idle_receiver_precedes_completions_at_its_instant() {
        // 0 → 1 and 2 → 3 end at 3; sender 0 then wants receiver 2, idle
        // all along: its grant at 3 comes before both completions.
        let lists = vec![vec![1, 2], vec![], vec![3], vec![]];
        let steps = drive(&lists, |_, _| 3.0);
        assert!(matches!(
            steps[2],
            Step::Grant {
                src: 0,
                dst: 2,
                at: 3.0,
                ..
            }
        ));
        assert!(matches!(steps[3], Step::Complete { src: 0, .. }));
    }

    #[test]
    fn a_grants_only_engine_grants_in_the_same_order() {
        // Every sender sends everywhere, in caterpillar order, over links
        // whose durations tie often: `(s + d) % 3` ms.
        let p = 7;
        let lists: Vec<Vec<usize>> = (0..p)
            .map(|s| (1..p).map(|k| (s + k) % p).collect())
            .collect();
        let dur = |s: usize, d: usize| ((s + d) % 3) as f64;
        let full: Vec<Step> = drive(&lists, dur)
            .into_iter()
            .filter(|s| matches!(s, Step::Grant { .. }))
            .collect();
        let grants = drive_engine(PortEngine::new(&lists, 0.0).grants_only(), dur);
        assert_eq!(grants.len(), p * (p - 1));
        assert_eq!(grants, full);
    }

    #[test]
    fn a_horizon_holds_back_steps_at_or_after_it() {
        let lists = vec![vec![1], vec![0]];
        let mut port = PortEngine::new(&lists, 0.0);
        port.request(0, 0.0);
        port.request(1, 0.0);
        assert_eq!(port.next(0.0), None, "nothing strictly before 0");
        let Some(Step::Grant { src: 1, dst: 0, .. }) = port.next(1.0) else {
            panic!("receiver 0 is granted first");
        };
        port.start(1, 0, 3.0);
        assert!(matches!(port.next(1.0), Some(Step::Grant { src: 0, .. })));
        port.start(0, 1, 2.0);
        assert_eq!(port.next(2.0), None, "the completion at 2 waits");
        assert!(matches!(
            port.next(f64::INFINITY),
            Some(Step::Complete { src: 0, dst: 1, .. })
        ));
        assert_eq!(port.in_flight().collect::<Vec<_>>(), vec![(1, 0, 0.0, 3.0)]);
    }

    #[test]
    fn a_replan_reissues_waiting_requests_under_their_new_heads() {
        // Receiver 0 is busy with 1 → 0 until 5; sender 2 waits for it.
        let lists = vec![vec![], vec![0], vec![0, 1]];
        let mut port = PortEngine::new(&lists, 0.0);
        for src in 0..3 {
            port.request(src, 0.0);
        }
        assert!(matches!(
            port.next(f64::INFINITY),
            Some(Step::Grant { src: 1, .. })
        ));
        port.start(1, 0, 5.0);
        assert_eq!(port.next(1.0), None);
        // A replan may only happen at a completion: let 1 → 0 finish.
        assert!(matches!(
            port.next(f64::INFINITY),
            Some(Step::Complete { .. })
        ));
        port.replan(vec![
            VecDeque::new(),
            VecDeque::new(),
            VecDeque::from(vec![1, 0]),
        ]);
        assert_eq!(
            port.next(f64::INFINITY),
            Some(Step::Grant {
                src: 2,
                dst: 1,
                arrival: 5.0,
                at: 5.0
            })
        );
    }

    #[test]
    #[should_panic(expected = "remaining messages")]
    fn a_replan_may_not_change_what_remains() {
        let mut port = PortEngine::new(&[vec![1], vec![0]], 0.0);
        port.replan(vec![VecDeque::new(), VecDeque::from(vec![0])]);
    }

    #[test]
    #[should_panic(expected = "would finish")]
    fn a_nan_finish_is_refused() {
        let mut port = PortEngine::new(&[vec![1], vec![0]], 0.0);
        port.request(0, 0.0);
        port.next(f64::INFINITY);
        port.start(0, 1, f64::NAN);
    }
}
