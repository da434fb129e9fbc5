//! Cross-crate integration for the §2 data-staging substrate over a
//! directory-derived WAN.

use adaptcomm::prelude::*;
use adaptcomm::staging::{schedule_staging, DataItem, LinkGraph, NodeId, Request, StagingProblem};

#[test]
fn staging_over_a_gusto_shaped_wan() {
    // Build the staging WAN from the GUSTO tables themselves: sites are
    // nodes, table entries are links.
    let mut wan = LinkGraph::new(5);
    for a in 0..5usize {
        for b in (a + 1)..5 {
            wan.add_bidi(
                NodeId(a),
                NodeId(b),
                adaptcomm::model::cost::LinkEstimate::new(
                    Millis::new(adaptcomm::model::gusto::latency_ms(a, b)),
                    Bandwidth::from_kbps(adaptcomm::model::gusto::bandwidth_kbps(a, b)),
                ),
            );
        }
    }
    let mut problem = StagingProblem::new();
    problem.add_item(DataItem {
        id: 0,
        size: Bytes::MB,
        sources: vec![NodeId(0)],
    });
    for dst in 1..5 {
        problem.add_request(Request {
            item: 0,
            destination: NodeId(dst),
            deadline: Millis::from_secs(120.0),
            priority: dst as u8,
        });
    }
    let outcome = schedule_staging(&mut wan, &problem);
    assert_eq!(
        outcome.satisfied(),
        4,
        "a 2-minute budget is ample on GUSTO"
    );
    // With a fully connected WAN, direct routes dominate but staging may
    // still relay through fast pairs (USC-ISI ↔ NCSA at ~5 Mbit/s).
    assert!(outcome.weighted_satisfaction() > 0.99);
}
