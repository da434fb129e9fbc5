//! Property tests: for random communication matrices and every built-in
//! scheduler, the shaped-channel runtime realizes the same completion
//! time as the discrete-event simulator (the bound is 5%; the
//! virtual-time fabric is designed to be bit-compatible, so the observed
//! error is ~1e-6), and one-thread pricing reproduces the threaded run
//! bit for bit. On tie-heavy networks every executor of the port model
//! commits the same timeline, bit for bit.

use adaptcomm_core::algorithms::all_schedulers;
use adaptcomm_core::execution::execute_listed;
use adaptcomm_core::matrix::CommMatrix;
use adaptcomm_model::cost::LinkEstimate;
use adaptcomm_model::params::NetParams;
use adaptcomm_model::units::{Bandwidth, Bytes, Millis};
use adaptcomm_runtime::channel::{
    price_shaped, run_shaped, CheckpointAction, FrozenNetwork, ShapedConfig, ShapedOutcome,
};
use adaptcomm_runtime::transport::{expected_receipts, ChannelTransport, Transport};
use adaptcomm_sim::dynamic::{run_adaptive, AdaptiveConfig};
use adaptcomm_sim::executor::TransferRecord;
use adaptcomm_sim::run_static;
use proptest::prelude::*;

/// Random instance: network and message sizes for `2 <= P <= max_p`.
#[derive(Debug, Clone)]
struct Instance {
    net: NetParams,
    sizes: Vec<Vec<Bytes>>,
}

fn instance(max_p: usize) -> impl Strategy<Value = Instance> {
    (2..=max_p).prop_flat_map(|p| {
        let net_entries = proptest::collection::vec((1.0f64..50.0, 100.0f64..5_000.0), p * p);
        let size_entries = proptest::collection::vec(1u64..200, p * p);
        (net_entries, size_entries).prop_map(move |(nets, szs)| {
            let net = NetParams::from_fn(p, |s, d| {
                let (t, b) = nets[s * p + d];
                LinkEstimate::new(Millis::new(t), Bandwidth::from_kbps(b))
            });
            let sizes: Vec<Vec<Bytes>> = (0..p)
                .map(|s| {
                    (0..p)
                        .map(|d| {
                            if s == d {
                                Bytes::ZERO
                            } else {
                                Bytes::from_kb(szs[s * p + d])
                            }
                        })
                        .collect()
                })
                .collect();
            Instance { net, sizes }
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every scheduler's order, executed over real threads and shaped
    /// channels, completes within 5% of the simulator's prediction, and
    /// every payload physically arrives.
    #[test]
    fn shaped_runtime_tracks_the_simulator_for_every_scheduler(inst in instance(12)) {
        let p = inst.net.len();
        let matrix = CommMatrix::from_model(&inst.net, &inst.sizes);
        // Cap physical copies: the property is about timing, not memory.
        let config = ShapedConfig {
            payload_cap: Some(256),
            ..Default::default()
        };
        for scheduler in all_schedulers() {
            let order = scheduler.send_order(&matrix);
            let sim = run_static(&order, &inst.net, &inst.sizes);
            let transport = ChannelTransport::new(p);
            let mut evo = FrozenNetwork(inst.net.clone());
            let out = run_shaped(
                &order.order,
                &inst.sizes,
                &mut evo,
                &transport,
                config,
                |_| CheckpointAction::Continue,
            )
            .expect("a frozen network cannot fault");

            prop_assert_eq!(out.records.len(), sim.records.len());
            let rel = (out.makespan.as_ms() - sim.makespan.as_ms()).abs()
                / sim.makespan.as_ms().max(1e-12);
            prop_assert!(
                rel < 0.05,
                "{}: shaped {} vs sim {} ({}% off)",
                scheduler.name(),
                out.makespan.as_ms(),
                sim.makespan.as_ms(),
                rel * 100.0
            );
            prop_assert_eq!(
                transport.receipts(),
                expected_receipts(&inst.sizes, config.payload_cap),
                "{}: physical delivery mismatch",
                scheduler.name()
            );
        }
    }

    /// One-thread pricing (`price_shaped`) and the threaded run commit
    /// the same timeline: for every scheduler's order from time zero,
    /// the same order resumed at a non-zero instant, and a retry
    /// remainder (each sender's list minus a random prefix) resumed
    /// there.
    #[test]
    fn one_thread_pricing_matches_the_threaded_run_bit_for_bit(
        inst in instance(16),
        resume_at in 1.0f64..2_000.0,
        sent in proptest::collection::vec(0usize..16, 16),
    ) {
        let p = inst.net.len();
        let matrix = CommMatrix::from_model(&inst.net, &inst.sizes);
        let at = Millis::new(resume_at);
        for scheduler in all_schedulers() {
            let full = scheduler.send_order(&matrix).order;
            let remainder: Vec<Vec<usize>> = full
                .iter()
                .zip(&sent)
                .map(|(list, &k)| list[k % (list.len() + 1)..].to_vec())
                .collect();
            for (lists, start_at) in [(&full, Millis::ZERO), (&full, at), (&remainder, at)] {
                let priced = price_shaped(
                    lists,
                    &inst.sizes,
                    &mut FrozenNetwork(inst.net.clone()),
                    start_at,
                )
                .expect("a frozen network cannot fault");
                let config = ShapedConfig {
                    payload_cap: Some(0),
                    start_at,
                    ..Default::default()
                };
                let ran = run_shaped(
                    lists,
                    &inst.sizes,
                    &mut FrozenNetwork(inst.net.clone()),
                    &ChannelTransport::new(p),
                    config,
                    |_| CheckpointAction::Continue,
                )
                .expect("a frozen network cannot fault");
                prop_assert_eq!(bits(&priced), bits(&ran), "{}", scheduler.name());
            }
        }
    }
}

/// A run's records and makespan, with every instant as its bit pattern.
#[allow(clippy::type_complexity)]
fn bits(out: &ShapedOutcome) -> (Vec<(usize, usize, u64, u64)>, u64) {
    (record_bits(&out.records), out.makespan.as_ms().to_bits())
}

/// Records as `(src, dst, start, finish)`, instants as bit patterns.
fn record_bits(records: &[TransferRecord]) -> Vec<(usize, usize, u64, u64)> {
    records
        .iter()
        .map(|r| {
            (
                r.src,
                r.dst,
                r.start.as_ms().to_bits(),
                r.finish.as_ms().to_bits(),
            )
        })
        .collect()
}

/// Networks on which many transfers start and finish at the same
/// instant, with their message sizes: uniform links; startups
/// `((s+d) mod 3)·5` ms; startups `(3s+d) mod 4` ms over two bandwidths
/// (8 kB messages each); and zero-cost transfers.
fn tie_heavy_networks(p: usize) -> Vec<(NetParams, Vec<Vec<Bytes>>)> {
    let link = |startup: usize, kbps: usize| {
        LinkEstimate::new(
            Millis::new(startup as f64),
            Bandwidth::from_kbps(kbps as f64),
        )
    };
    let sized = |b: Bytes| -> Vec<Vec<Bytes>> {
        (0..p)
            .map(|s| {
                (0..p)
                    .map(|d| if s == d { Bytes::ZERO } else { b })
                    .collect()
            })
            .collect()
    };
    let kb8 = Bytes::from_kb(8);
    vec![
        (NetParams::from_fn(p, |_, _| link(10, 1000)), sized(kb8)),
        (
            NetParams::from_fn(p, |s, d| link((s + d) % 3 * 5, 1000)),
            sized(kb8),
        ),
        (
            NetParams::from_fn(p, |s, d| link((3 * s + d) % 4, 500 * (1 + (s + d) % 2))),
            sized(kb8),
        ),
        (
            NetParams::from_fn(p, |_, _| link(0, 1000)),
            sized(Bytes::ZERO),
        ),
    ]
}

/// Where simultaneous events abound, the order in which an executor
/// processes them decides the timeline: the analytic execution, the
/// static and drifting simulators, one-thread pricing and the threaded
/// fabric must all commit the same one.
#[test]
fn every_executor_commits_the_same_timeline_on_tie_heavy_networks() {
    for p in 2..=16 {
        for (net, sizes) in tie_heavy_networks(p) {
            let matrix = CommMatrix::from_model(&net, &sizes);
            for scheduler in all_schedulers() {
                let order = scheduler.send_order(&matrix);
                let mut analytic: Vec<(usize, usize, u64, u64)> = execute_listed(&order, &matrix)
                    .events()
                    .iter()
                    .map(|e| {
                        (
                            e.src,
                            e.dst,
                            e.start.as_ms().to_bits(),
                            e.finish.as_ms().to_bits(),
                        )
                    })
                    .collect();
                analytic.sort_by(|a, b| {
                    f64::from_bits(a.3)
                        .total_cmp(&f64::from_bits(b.3))
                        .then((a.0, a.1).cmp(&(b.0, b.1)))
                });
                let frozen = || FrozenNetwork(net.clone());
                let priced = price_shaped(&order.order, &sizes, &mut frozen(), Millis::ZERO)
                    .expect("a frozen network cannot fault");
                let config = ShapedConfig {
                    payload_cap: Some(0),
                    ..Default::default()
                };
                let ran = run_shaped(
                    &order.order,
                    &sizes,
                    &mut frozen(),
                    &ChannelTransport::new(p),
                    config,
                    |_| CheckpointAction::Continue,
                )
                .expect("a frozen network cannot fault");
                let adaptive =
                    run_adaptive(&order, &sizes, &mut frozen(), &AdaptiveConfig::oblivious());
                let runs = [
                    (
                        "run_static",
                        record_bits(&run_static(&order, &net, &sizes).records),
                    ),
                    ("price_shaped", record_bits(&priced.records)),
                    ("run_shaped", record_bits(&ran.records)),
                    ("run_adaptive", record_bits(&adaptive.records)),
                ];
                for (name, records) in runs {
                    assert_eq!(
                        records,
                        analytic,
                        "P={p} {}: {name} diverged from execute_listed",
                        scheduler.name()
                    );
                }
            }
        }
    }
}
