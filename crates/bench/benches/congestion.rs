//! E8: cost of the two-pass congestion flow relative to a single pass.

use criterion::{criterion_group, criterion_main, Criterion};
use gcr_bench::experiments::congestion_layout;
use gcr_core::{RouterConfig, RoutingSession};

fn bench_congestion(c: &mut Criterion) {
    let (layout, _) = congestion_layout(4);
    let mut config = RouterConfig::default();
    config.wire_pitch(5).congestion_weight(6);
    let mut session = RoutingSession::gridless(layout, config);

    let mut group = c.benchmark_group("congestion");
    group.bench_function("single_pass", |b| b.iter(|| session.route_all()));
    group.bench_function("two_pass", |b| b.iter(|| session.route_two_pass()));
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_millis(1500))
        .warm_up_time(std::time::Duration::from_millis(400));
    targets = bench_congestion
}
criterion_main!(benches);
