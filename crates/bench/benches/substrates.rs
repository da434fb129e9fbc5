//! Substrate throughput: data staging at scale.

use adaptcomm_model::cost::LinkEstimate;
use adaptcomm_model::units::{Bandwidth, Bytes, Millis};
use adaptcomm_staging::{schedule_staging, DataItem, LinkGraph, NodeId, Request, StagingProblem};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn staging_instance(nodes: usize, requests: usize) -> (LinkGraph, StagingProblem) {
    let mut g = LinkGraph::new(nodes);
    for i in 0..nodes {
        let e = LinkEstimate::new(
            Millis::new(((i * 7) % 50 + 10) as f64),
            Bandwidth::from_kbps(((i * 13) % 2_000 + 500) as f64),
        );
        g.add_bidi(NodeId(i), NodeId((i + 1) % nodes), e);
        if i % 3 == 0 {
            g.add_bidi(
                NodeId(i),
                NodeId((i + nodes / 2) % nodes),
                LinkEstimate::new(Millis::new(40.0), Bandwidth::from_kbps(3_000.0)),
            );
        }
    }
    let mut p = StagingProblem::new();
    for id in 0..4 {
        p.add_item(DataItem {
            id,
            size: Bytes::from_kb(((id as u64 + 1) * 64) % 512 + 32),
            sources: vec![NodeId(id % nodes)],
        });
    }
    for r in 0..requests as u64 {
        p.add_request(Request {
            item: (r % 4) as usize,
            destination: NodeId(((r * 5 + 1) % nodes as u64) as usize),
            deadline: Millis::new(((r * 37) % 40_000 + 10_000) as f64),
            priority: (r % 10) as u8,
        });
    }
    (g, p)
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrates");
    group.sample_size(10);

    for (nodes, requests) in [(10usize, 20usize), (30, 80)] {
        group.bench_with_input(
            BenchmarkId::new("staging", format!("{nodes}n{requests}r")),
            &(nodes, requests),
            |b, &(n, r)| {
                b.iter(|| {
                    let (mut g, p) = staging_instance(n, r);
                    black_box(schedule_staging(&mut g, &p).satisfied())
                })
            },
        );
    }

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
