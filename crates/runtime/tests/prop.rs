//! Property tests: for random communication matrices and every built-in
//! scheduler, the shaped-channel runtime realizes the same completion
//! time as the discrete-event simulator (the bound is 5%; the
//! virtual-time fabric is designed to be bit-compatible, so the observed
//! error is ~1e-6), and one-thread pricing reproduces the threaded run
//! bit for bit.

use adaptcomm_core::algorithms::all_schedulers;
use adaptcomm_core::matrix::CommMatrix;
use adaptcomm_model::cost::LinkEstimate;
use adaptcomm_model::params::NetParams;
use adaptcomm_model::units::{Bandwidth, Bytes, Millis};
use adaptcomm_runtime::channel::{
    price_shaped, run_shaped, CheckpointAction, FrozenNetwork, ShapedConfig, ShapedOutcome,
};
use adaptcomm_runtime::transport::{expected_receipts, ChannelTransport, Transport};
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
    let records = out
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
    (records, out.makespan.as_ms().to_bits())
}
