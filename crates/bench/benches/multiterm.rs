//! E6: multi-terminal tree growth — segment connections vs pin-only.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gcr_bench::experiments::grid_layout;
use gcr_core::{RouterConfig, RoutingSession};
use gcr_workload::{netlists, rng_for};

fn bench_multiterm(c: &mut Criterion) {
    let mut group = c.benchmark_group("multiterm");
    for k in [3, 5, 8] {
        let mut layout = grid_layout(3, 3, 600 + k as u64);
        let ids = netlists::add_multi_terminal_nets(
            &mut layout,
            6,
            k,
            &mut rng_for("bench-e6", k as u64),
        );
        let mut session = RoutingSession::gridless(layout, RouterConfig::default());
        group.bench_with_input(BenchmarkId::new("segment_tree", k), &ids, |b, ids| {
            b.iter(|| {
                for &id in ids {
                    let _ = session.route_net(id);
                }
            })
        });
        group.bench_with_input(BenchmarkId::new("pin_tree", k), &ids, |b, ids| {
            b.iter(|| {
                for &id in ids {
                    let _ = session.route_net_pin_tree(id);
                }
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_millis(1500))
        .warm_up_time(std::time::Duration::from_millis(400));
    targets = bench_multiterm
}
criterion_main!(benches);
