//! Session multiplexing throughput: tokens per second through the
//! `oqsc-serve` engine while the fleet churns through the LRU tiers
//! (DESIGN.md §12).
//!
//! Group `mux` drives the exact `pub` workload from
//! `oqsc_bench::record::mux_feed` — the same code the committed
//! `BENCH_throughput.json` mux cells time — at criterion-friendly fleet
//! sizes. Two axes:
//!
//! * `churn/N` — a fleet 16× larger than the live budget on `N` workers:
//!   every session keeps falling out of the hot tier and rehydrating
//!   from compressed warm bytes, so this times the suspend/compress/
//!   resume cycle, not just the deciders;
//! * `resident/N` — the same fleet under a budget that holds everyone
//!   live: the no-eviction upper bound the churn cells are measured
//!   against.
//!
//! ```text
//! cargo bench -p oqsc-bench --bench mux
//! ```

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use oqsc_bench::record::{mux_feed, mux_live_budget, MUX_WORD_LEN};

const SESSIONS: usize = 1024;
const LIVE_SESSIONS: usize = 64;

/// Hot-tier churn vs fully-resident serving, one and four workers.
fn bench_mux(c: &mut Criterion) {
    let tokens = (SESSIONS * MUX_WORD_LEN) as u64;
    let churn_budget = mux_live_budget(LIVE_SESSIONS);
    let resident_budget = mux_live_budget(2 * SESSIONS);
    let mut group = c.benchmark_group("mux");
    group.sample_size(10);
    group.throughput(Throughput::Elements(tokens));

    for workers in [1usize, 4] {
        group.bench_function(BenchmarkId::new("churn", workers), |b| {
            b.iter(|| black_box(mux_feed(SESSIONS, churn_budget, workers)))
        });
        group.bench_function(BenchmarkId::new("resident", workers), |b| {
            b.iter(|| black_box(mux_feed(SESSIONS, resident_budget, workers)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_mux);
criterion_main!(benches);
