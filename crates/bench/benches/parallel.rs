//! Serial vs parallel `RoutingSession` on the largest workload scaling
//! instance: the payoff of the paper's order-free net independence.
//! Output is asserted byte-identical (wire length + stats) before
//! timing, so the speedup is for *the same answer*.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gcr_core::{
    BatchConfig, GridEngine, GridlessEngine, RouterConfig, RoutingEngine, RoutingSession,
};
use gcr_layout::Layout;
use gcr_workload::scaling_instance;

fn session<E: RoutingEngine>(layout: &Layout, engine: E, batch: BatchConfig) -> RoutingSession<E> {
    RoutingSession::builder(layout.clone())
        .config(RouterConfig::default())
        .engine(engine)
        .batch(batch)
        .build()
}

fn bench_parallel(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel");
    for (rows, cols, two_pin, multi) in [(4, 4, 32, 8), (6, 6, 96, 24)] {
        let layout = scaling_instance(rows, cols, two_pin, multi, 0);
        let nets = layout.nets().len();
        let mut serial = session(&layout, GridlessEngine, BatchConfig::serial());
        let mut parallel = session(&layout, GridlessEngine, BatchConfig::default());
        // The speedup must be for identical output.
        let a = serial.route_all();
        let b = parallel.route_all();
        assert_eq!(a.wire_length(), b.wire_length());
        assert_eq!(a.stats(), b.stats());

        group.bench_with_input(BenchmarkId::new("serial", nets), &(), |bch, ()| {
            bch.iter(|| serial.route_all())
        });
        group.bench_with_input(BenchmarkId::new("parallel", nets), &(), |bch, ()| {
            bch.iter(|| parallel.route_all())
        });
    }
    group.finish();
}

fn bench_parallel_grid_engine(c: &mut Criterion) {
    // The grid baseline is much more expensive per net, so the parallel
    // win is even clearer through the same trait.
    let mut group = c.benchmark_group("parallel-grid");
    let layout = scaling_instance(4, 4, 32, 8, 0);
    let nets = layout.nets().len();
    let mut serial = session(&layout, GridEngine::default(), BatchConfig::serial());
    let mut parallel = session(&layout, GridEngine::default(), BatchConfig::default());
    group.bench_with_input(BenchmarkId::new("serial", nets), &(), |bch, ()| {
        bch.iter(|| serial.route_all())
    });
    group.bench_with_input(BenchmarkId::new("parallel", nets), &(), |bch, ()| {
        bch.iter(|| parallel.route_all())
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_millis(2500))
        .warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_parallel, bench_parallel_grid_engine
}
criterion_main!(benches);
