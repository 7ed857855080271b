//! E7: the complete chip-assembly flow — global routing vs the detailed
//! routing substrate.

use criterion::{criterion_group, criterion_main, Criterion};
use gcr_bench::experiments::grid_layout;
use gcr_core::{RouterConfig, RoutingSession};
use gcr_detail::route_details;
use gcr_workload::{netlists, rng_for};

fn bench_fullflow(c: &mut Criterion) {
    let mut layout = grid_layout(3, 3, 701);
    let mut rng = rng_for("bench-e7", 0);
    netlists::add_two_pin_nets(&mut layout, 20, &mut rng);
    netlists::add_multi_terminal_nets(&mut layout, 5, 4, &mut rng);
    let plane = layout.to_plane();
    let mut session = RoutingSession::gridless(layout, RouterConfig::default());
    let routing = session.route_all();

    let mut group = c.benchmark_group("fullflow");
    group.bench_function("global_route_all", |b| b.iter(|| session.route_all()));
    group.bench_function("detail_route", |b| {
        b.iter(|| route_details(&plane, &routing))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_millis(1500))
        .warm_up_time(std::time::Duration::from_millis(400));
    targets = bench_fullflow
}
criterion_main!(benches);
