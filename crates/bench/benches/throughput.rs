//! Throughput: recognizer instances per second across the concurrency
//! layer's execution modes (DESIGN.md §6).
//!
//! Group `throughput` (fixed `k = 3`, 8 instances) compares the fleet
//! axis: `serial` (one dense recognizer at a time, the pre-batch
//! baseline) vs `batched/N` (the same fleet through [`BatchRunner`] with
//! `N` workers; on a multi-core box N > 1 beats serial at equal `k`).
//!
//! Group `throughput-parallel-dense` (fixed `k = 6`, 2 instances)
//! compares the backend axis at a size where it actually engages: the
//! `2k + 2 = 14`-qubit register holds `2^14` amplitudes, above
//! `PARALLEL_THRESHOLD = 2^13` — at `k = 3` (256 amplitudes) the
//! parallel backend would run serially by design, so measuring it there
//! would time the wrong code path.
//!
//! Group `throughput-record` re-times the `experiments bench` record's kernel
//! and end-to-end cells (the exact `pub` workload functions from
//! `oqsc_bench::record`) under both SIMD dispatch modes, so criterion's
//! statistics and the committed `BENCH_throughput.json` measure the same
//! code.
//!
//! ```text
//! cargo bench -p oqsc-bench --bench throughput
//! ```

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use oqsc_bench::record;
use oqsc_core::sweep::{complement_sweep_in, derive_seed};
use oqsc_core::ComplementRecognizer;
use oqsc_lang::Sym;
use oqsc_machine::{run_decider, BatchRunner};
use oqsc_quantum::{ParallelStateVector, SimdLevel, StateVector};
use rand::rngs::StdRng;
use rand::SeedableRng;

const BASE_SEED: u64 = 0xBA7C4;

fn instance_set(k: u32, count: usize) -> Vec<Vec<Sym>> {
    record::sweep_words(k, count)
}

/// Fleet axis: one recognizer per instance, serial vs batched shards.
fn bench_batching(c: &mut Criterion) {
    let instances = 8usize;
    let words = instance_set(3, instances);
    let mut group = c.benchmark_group("throughput");
    group.sample_size(10);
    group.throughput(Throughput::Elements(instances as u64));

    group.bench_function("serial", |b| {
        b.iter(|| {
            words
                .iter()
                .enumerate()
                .filter(|(i, word)| {
                    let mut rng = StdRng::seed_from_u64(derive_seed(BASE_SEED, *i));
                    run_decider(ComplementRecognizer::<StateVector>::new_in(&mut rng), word).accept
                })
                .count()
        });
    });

    for workers in [2usize, 4, 8] {
        group.bench_function(BenchmarkId::new("batched", workers), |b| {
            let runner = BatchRunner::new(workers);
            b.iter(|| complement_sweep_in::<StateVector>(&words, BASE_SEED, &runner).accepted);
        });
    }

    group.finish();
}

/// Backend axis, above the serial threshold: dense vs parallel-dense
/// kernels inside each recognizer (instance order itself stays serial,
/// so the two arms differ only in the gate/reduction execution).
fn bench_parallel_dense(c: &mut Criterion) {
    let instances = 2usize;
    let words = instance_set(6, instances);
    let mut group = c.benchmark_group("throughput-parallel-dense");
    group.sample_size(10);
    group.throughput(Throughput::Elements(instances as u64));

    group.bench_function("dense", |b| {
        b.iter(|| {
            complement_sweep_in::<StateVector>(&words, BASE_SEED, &BatchRunner::serial()).accepted
        });
    });

    group.bench_function("parallel-dense", |b| {
        b.iter(|| {
            complement_sweep_in::<ParallelStateVector>(&words, BASE_SEED, &BatchRunner::serial())
                .accepted
        });
    });

    group.finish();
}

/// One record cell: name, workload function, size.
type RecordCell = (&'static str, fn(usize, u32) -> u64, usize);

/// The bench-record cells under criterion: same workload functions, same
/// sizes as the full `experiments bench` run, scalar vs auto dispatch.
fn bench_record_cells(c: &mut Criterion) {
    let cells: [RecordCell; 4] = [
        ("gate_sweep_dense", record::gate_sweep_dense, 16),
        ("reflect_axpy", record::reflect_axpy, 16),
        ("reductions_dense", record::reductions_dense, 16),
        ("throughput_sweep", record::throughput_sweep, 8),
    ];
    let mut group = c.benchmark_group("throughput-record");
    group.sample_size(10);
    for (name, run, n) in cells {
        for (mode, level) in [("scalar", Some(SimdLevel::Scalar)), ("simd", None)] {
            let guard = record::ForceGuard::force(level);
            group.bench_function(BenchmarkId::new(name, mode), |b| {
                b.iter(|| black_box(run(n, 1)))
            });
            drop(guard);
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_batching,
    bench_parallel_dense,
    bench_record_cells
);
criterion_main!(benches);
