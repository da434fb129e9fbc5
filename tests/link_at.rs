//! `NetworkEvolution::link_at` is the one-link view of `state_at`: for
//! every evolution the runtime can be driven by, a time sweep reads the
//! same estimate bit for bit through either call, including across drift
//! steps and scripted faults that fire mid-sweep.

use adaptcomm::chaos::{ChaosEvolution, ChaosPlan};
use adaptcomm::model::cost::LinkEstimate;
use adaptcomm::model::trace_io::TraceRecorder;
use adaptcomm::model::variation::{VariationConfig, VariationTrace};
use adaptcomm::model::NetParams;
use adaptcomm::prelude::{Bandwidth, FrozenNetwork, Millis};
use adaptcomm::sim::{Fault, NetworkEvolution, ScriptedFaults};

const P: usize = 5;

fn hetero(scale: f64) -> NetParams {
    NetParams::from_fn(P, |src, dst| {
        LinkEstimate::new(
            Millis::new(0.5 + (src * P + dst) as f64 * 0.29),
            Bandwidth::from_kbps(scale * (700.0 + (src * 37 + dst * 11) as f64 * 17.0)),
        )
    })
}

fn bits(e: LinkEstimate) -> (u64, u64) {
    (e.startup.as_ms().to_bits(), e.bandwidth.as_kbps().to_bits())
}

/// Sweeps `t` upward over 5.5 s; at each instant `table` answers through
/// `state_at` and `links` through `link_at`. Both advance state, hence
/// two equal evolutions.
fn assert_link_at_matches_state_at<E: NetworkEvolution>(name: &str, mut table: E, mut links: E) {
    for step in 0..=40 {
        let t = Millis::new(step as f64 * 137.5);
        let state = table.state_at(t);
        for src in 0..P {
            for dst in 0..P {
                assert_eq!(
                    bits(links.link_at(t, src, dst)),
                    bits(state.estimate(src, dst)),
                    "{name}: link {src}->{dst} at {} ms",
                    t.as_ms()
                );
            }
        }
    }
}

#[test]
fn link_at_reads_what_state_at_reports_for_every_evolution() {
    assert_link_at_matches_state_at(
        "frozen",
        FrozenNetwork(hetero(1.0)),
        FrozenNetwork(hetero(1.0)),
    );

    let drifting = || {
        let config = VariationConfig {
            volatility: 0.3,
            ..Default::default()
        };
        VariationTrace::new(hetero(1.0), config, 17)
    };
    assert_link_at_matches_state_at("variation", drifting(), drifting());

    let faults = ScriptedFaults::new(
        hetero(1.0),
        vec![
            Fault {
                at: Millis::new(900.0),
                src: 1,
                dst: 3,
                factor: 1e-3,
            },
            Fault {
                at: Millis::new(2_750.0),
                src: 4,
                dst: 0,
                factor: 2.5,
            },
            Fault {
                at: Millis::new(3_100.0),
                src: 1,
                dst: 3,
                factor: 1.0,
            },
        ],
    );
    assert_link_at_matches_state_at("scripted", faults.clone(), faults);

    let mut recorder = TraceRecorder::new();
    recorder
        .record(Millis::ZERO, hetero(1.0))
        .record(Millis::new(1_200.0), hetero(0.5))
        .record(Millis::new(4_000.0), hetero(2.0));
    let recorded = recorder.finish();
    assert_link_at_matches_state_at("recorded", recorded.clone(), recorded);

    let plan = ChaosPlan::parse(
        P,
        "crash:2@1000..3000;partition:0,1@2500..4500;liar:3-4@500x4",
    )
    .expect("valid chaos spec");
    let chaos = ChaosEvolution::new(hetero(1.0), plan);
    assert_link_at_matches_state_at("chaos", chaos.clone(), chaos);
}
