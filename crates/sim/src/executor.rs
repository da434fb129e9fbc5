//! Message-level execution of a send order on a static network.
//!
//! [`run_static`] drives the shared §3.2 port engine
//! ([`adaptcomm_core::port`]: one send and one receive at a time per
//! node, list order, FCFS receiver grants with ties to the lower sender
//! id) and prices each grant from a [`CostModel`] and per-pair message
//! sizes rather than a pre-baked cost matrix.

use adaptcomm_core::port::{PortEngine, Step};
use adaptcomm_core::schedule::SendOrder;
use adaptcomm_model::cost::CostModel;
use adaptcomm_model::units::{Bytes, Millis};

/// One completed transfer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransferRecord {
    /// Sender.
    pub src: usize,
    /// Receiver.
    pub dst: usize,
    /// Message size.
    pub bytes: Bytes,
    /// Start of the transfer.
    pub start: Millis,
    /// Completion of the transfer.
    pub finish: Millis,
}

/// The outcome of a simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimRun {
    /// All transfers in completion order.
    pub records: Vec<TransferRecord>,
    /// Time the last transfer finished.
    pub makespan: Millis,
}

impl SimRun {
    /// A run of `records`, sorted into completion order `(finish, src,
    /// dst)`; the makespan is the last finish.
    pub fn from_records(mut records: Vec<TransferRecord>) -> SimRun {
        records.sort_by(|a, b| {
            a.finish
                .as_ms()
                .total_cmp(&b.finish.as_ms())
                .then(a.src.cmp(&b.src))
                .then(a.dst.cmp(&b.dst))
        });
        let makespan = records
            .iter()
            .map(|r| r.finish)
            .fold(Millis::ZERO, Millis::max);
        SimRun { records, makespan }
    }

    /// The realized transfers as explain-plane records, ready for
    /// `adaptcomm_obs::causal::CausalDag::new` (critical path, blame,
    /// what-if projections).
    pub fn causal_transfers(&self) -> Vec<adaptcomm_obs::causal::Transfer> {
        self.records
            .iter()
            .map(|r| adaptcomm_obs::causal::Transfer {
                src: r.src,
                dst: r.dst,
                start_ms: r.start.as_ms(),
                dur_ms: (r.finish - r.start).as_ms(),
            })
            .collect()
    }
}

/// Simulates `order` over `network` with message sizes `sizes[src][dst]`.
pub fn run_static<M: CostModel>(order: &SendOrder, network: &M, sizes: &[Vec<Bytes>]) -> SimRun {
    let p = network.len();
    assert_eq!(order.processors(), p, "order and network disagree on P");
    assert_eq!(sizes.len(), p, "size matrix does not match P");

    let mut port = PortEngine::new(&order.order, 0.0).grants_only();
    for src in 0..p {
        port.request(src, 0.0);
    }
    let mut records = Vec::with_capacity(p.saturating_mul(p.saturating_sub(1)));
    // Grants that waited for their receiver, counted in a local and
    // recorded once after the drain so the hot loop stays untouched when
    // obs is disabled.
    let mut queued = 0u64;
    while let Some(Step::Grant {
        src,
        dst,
        arrival,
        at,
    }) = port.next(f64::INFINITY)
    {
        queued += u64::from(arrival < at);
        let bytes = sizes[src][dst];
        let finish = at + network.message_time(src, dst, bytes).as_ms();
        port.start(src, dst, finish);
        port.request(src, finish);
        records.push(TransferRecord {
            src,
            dst,
            bytes,
            start: Millis::new(at),
            finish: Millis::new(finish),
        });
    }

    let obs = adaptcomm_obs::global();
    if obs.is_enabled() {
        obs.add("sim.grants.immediate", records.len() as u64 - queued);
        obs.add("sim.grants.queued", queued);
    }

    SimRun::from_records(records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Calendar;
    use adaptcomm_core::algorithms::{all_schedulers, Scheduler};
    use adaptcomm_core::execution::execute_listed;
    use adaptcomm_core::matrix::CommMatrix;
    use adaptcomm_model::params::NetParams;
    use adaptcomm_model::units::Bandwidth;

    fn network(p: usize) -> NetParams {
        NetParams::from_fn(p, |s, d| {
            adaptcomm_model::cost::LinkEstimate::new(
                Millis::new(((s * 7 + d * 3) % 20) as f64 + 1.0),
                Bandwidth::from_kbps(((s + d * 5) % 900 + 100) as f64),
            )
        })
    }

    fn uniform_sizes(p: usize, b: Bytes) -> Vec<Vec<Bytes>> {
        (0..p)
            .map(|s| {
                (0..p)
                    .map(|d| if s == d { Bytes::ZERO } else { b })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn agrees_with_analytic_execution() {
        // The message-level simulator and the analytic ASAP execution in
        // adaptcomm-core must produce identical event times when the
        // network is static.
        let p = 7;
        let net = network(p);
        let sizes = uniform_sizes(p, Bytes::KB);
        let matrix = CommMatrix::from_model(&net, &sizes);
        for s in all_schedulers() {
            let order = s.send_order(&matrix);
            let analytic = execute_listed(&order, &matrix);
            let simulated = run_static(&order, &net, &sizes);
            assert!(
                (analytic.completion_time().as_ms() - simulated.makespan.as_ms()).abs() < 1e-6,
                "{}: analytic {} vs simulated {}",
                s.name(),
                analytic.completion_time(),
                simulated.makespan
            );
            // Per-event agreement, not just the makespan.
            for r in &simulated.records {
                let a = analytic
                    .events()
                    .iter()
                    .find(|e| e.src == r.src && e.dst == r.dst)
                    .unwrap();
                assert!((a.start.as_ms() - r.start.as_ms()).abs() < 1e-6);
                assert!((a.finish.as_ms() - r.finish.as_ms()).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn all_transfers_complete() {
        let p = 6;
        let net = network(p);
        let sizes = uniform_sizes(p, Bytes::MB);
        let matrix = CommMatrix::from_model(&net, &sizes);
        let order = adaptcomm_core::algorithms::OpenShop.send_order(&matrix);
        let run = run_static(&order, &net, &sizes);
        assert_eq!(run.records.len(), p * (p - 1));
        // Records come back sorted by completion.
        for w in run.records.windows(2) {
            assert!(w[0].finish.as_ms() <= w[1].finish.as_ms());
        }
    }

    /// The pre-optimization pending-grant selection: a linear `min_by`
    /// scan over the waiting senders, retained verbatim as the oracle
    /// for the heap-based grant queue.
    fn run_static_linear_scan<M: CostModel>(
        order: &SendOrder,
        network: &M,
        sizes: &[Vec<Bytes>],
    ) -> SimRun {
        let p = network.len();
        const CLS_SENDER_READY: u8 = 0;
        const CLS_RECEIVER_FREE: u8 = 1;

        #[derive(Clone, Copy)]
        enum Ev {
            SenderReady(usize),
            ReceiverFree(usize),
        }

        let mut cal: Calendar<Ev> = Calendar::new();
        let mut pending: Vec<Vec<(f64, usize)>> = vec![Vec::new(); p];
        let mut busy = vec![false; p];
        let mut next_idx = vec![0usize; p];
        let mut records = Vec::new();

        for src in 0..p {
            cal.schedule_keyed(0.0, CLS_SENDER_READY, src as u64, Ev::SenderReady(src));
        }

        macro_rules! begin {
            ($src:expr, $dst:expr, $now:expr) => {{
                let (src, dst, now) = ($src, $dst, $now);
                let bytes = sizes[src][dst];
                let fin = now + network.message_time(src, dst, bytes).as_ms();
                records.push(TransferRecord {
                    src,
                    dst,
                    bytes,
                    start: Millis::new(now),
                    finish: Millis::new(fin),
                });
                busy[dst] = true;
                next_idx[src] += 1;
                cal.schedule_keyed(fin, CLS_SENDER_READY, src as u64, Ev::SenderReady(src));
                cal.schedule_keyed(fin, CLS_RECEIVER_FREE, dst as u64, Ev::ReceiverFree(dst));
            }};
        }

        while let Some((now, _, ev)) = cal.pop_next() {
            match ev {
                Ev::SenderReady(src) => {
                    let idx = next_idx[src];
                    if idx >= order.order[src].len() {
                        continue;
                    }
                    let dst = order.order[src][idx];
                    if busy[dst] {
                        pending[dst].push((now, src));
                    } else {
                        begin!(src, dst, now);
                    }
                }
                Ev::ReceiverFree(dst) => {
                    busy[dst] = false;
                    if let Some(k) = pending[dst]
                        .iter()
                        .enumerate()
                        .min_by(|(_, a), (_, b)| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
                        .map(|(k, _)| k)
                    {
                        let (_, src) = pending[dst].swap_remove(k);
                        begin!(src, dst, now);
                    }
                }
            }
        }

        SimRun::from_records(records)
    }

    #[test]
    fn grant_heap_matches_linear_scan_reference() {
        // The pipeline integration scenario (GUSTO snapshot, uniform 1 MB
        // messages) through every scheduler: the heap-based grant queue
        // must replay the retained linear-scan selection bit for bit —
        // identical record sequences, not just equal makespans.
        let net = adaptcomm_model::gusto::gusto_params();
        let p = net.len();
        let sizes = uniform_sizes(p, Bytes::MB);
        let matrix = CommMatrix::from_model(&net, &sizes);
        for s in all_schedulers() {
            let order = s.send_order(&matrix);
            let fast = run_static(&order, &net, &sizes);
            let slow = run_static_linear_scan(&order, &net, &sizes);
            assert_eq!(fast, slow, "{} diverged from the reference", s.name());
        }
        // And on a synthetic heterogeneous network that actually queues
        // multiple senders on one receiver (the baseline at P=8 does),
        // then on tie-heavy networks where many requests meet a receiver
        // at the instant it frees: uniform links, startups
        // `((s+d) mod 3)·5` ms, and startups `(3s+d) mod 4` ms over two
        // bandwidths.
        let mut cases = vec![(network(8), uniform_sizes(8, Bytes::KB))];
        let link = |startup: usize, kbps: usize| {
            adaptcomm_model::cost::LinkEstimate::new(
                Millis::new(startup as f64),
                Bandwidth::from_kbps(kbps as f64),
            )
        };
        for p in 2..=16 {
            let sizes = uniform_sizes(p, Bytes::from_kb(8));
            cases.push((NetParams::from_fn(p, |_, _| link(10, 1000)), sizes.clone()));
            cases.push((
                NetParams::from_fn(p, |s, d| link((s + d) % 3 * 5, 1000)),
                sizes.clone(),
            ));
            cases.push((
                NetParams::from_fn(p, |s, d| link((3 * s + d) % 4, 500 * (1 + (s + d) % 2))),
                sizes,
            ));
        }
        for (net, sizes) in cases {
            let matrix = CommMatrix::from_model(&net, &sizes);
            for s in all_schedulers() {
                let order = s.send_order(&matrix);
                assert_eq!(
                    run_static(&order, &net, &sizes),
                    run_static_linear_scan(&order, &net, &sizes),
                    "P={} {} diverged from the reference",
                    net.len(),
                    s.name()
                );
            }
        }
    }

    #[test]
    fn records_carry_sizes() {
        let p = 3;
        let net = network(p);
        let mut sizes = uniform_sizes(p, Bytes::KB);
        sizes[0][1] = Bytes::MB;
        let matrix = CommMatrix::from_model(&net, &sizes);
        let order = adaptcomm_core::algorithms::Baseline.send_order(&matrix);
        let run = run_static(&order, &net, &sizes);
        let r = run
            .records
            .iter()
            .find(|r| r.src == 0 && r.dst == 1)
            .unwrap();
        assert_eq!(r.bytes, Bytes::MB);
    }
}
