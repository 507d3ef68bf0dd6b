//! DESIGN.md ablations: structured-operator simulation vs strict-circuit
//! execution, bit-mode vs block-mode streaming updates, and amplification
//! width (see also e4).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use oqsc_core::emit::a3_strict_circuit;
use oqsc_core::GroverStreamer;
use oqsc_lang::random_nonmember;
use oqsc_machine::StreamingDecider;
use oqsc_quantum::GroverLayout;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Structured streaming (bit-mode, O(1)/symbol) vs emitted strict circuit
/// (the Definition 2.3 formal path).
fn bench_structured_vs_strict(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(5);
    let inst = random_nonmember(1, 1, &mut rng);
    let word = inst.encode();
    let mut group = c.benchmark_group("ablation_a3_backend");
    group.bench_function("structured_streamer", |b| {
        b.iter(|| {
            let mut a3 = GroverStreamer::with_j_seed(1, 0);
            a3.feed_all(&word);
            a3.detection_probability()
        });
    });
    group.bench_function("strict_circuit_emit_and_run", |b| {
        b.iter(|| {
            let circuit = a3_strict_circuit(&inst, 1);
            circuit.run_from_zero().prob_one(0)
        });
    });
    group.finish();
}

/// Bit-mode (streamed, one masked-window op per 64 symbols) vs
/// block-mode (whole string at once) structured operator application.
fn bench_bit_vs_block(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_vx_application");
    for k in [3u32, 5] {
        let layout = GroverLayout::for_k(k);
        let mut rng = StdRng::seed_from_u64(u64::from(k));
        let x: Vec<bool> = (0..layout.domain()).map(|_| rng.gen()).collect();
        group.bench_with_input(BenchmarkId::new("block", k), &x, |b, x| {
            let mut s = layout.phi();
            b.iter(|| layout.apply_vx(&mut s, x));
        });
        group.bench_with_input(BenchmarkId::new("bit", k), &x, |b, x| {
            let mut s = layout.phi();
            b.iter(|| {
                // As the streamer runs it: one window op per 64 bits.
                for (w, window) in x.chunks(64).enumerate() {
                    let mask = window
                        .iter()
                        .enumerate()
                        .fold(0u64, |m, (j, &xi)| m | (u64::from(xi) << j));
                    layout.apply_vx_window(&mut s, 64 * w, mask);
                }
            });
        });
    }
    group.finish();
}

/// Dense vs sparse backend running the identical A3 streaming pipeline
/// (the `QuantumBackend` seam): the sparse backend pays a block lookup
/// per touched block of each streamed window, but stores only the
/// support.
fn bench_dense_vs_sparse_backend(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(11);
    let mut group = c.benchmark_group("ablation_a3_quantum_backend");
    for k in [2u32, 4] {
        let inst = random_nonmember(k, 2, &mut rng);
        let word = inst.encode();
        group.bench_with_input(BenchmarkId::new("dense", k), &word, |b, word| {
            b.iter(|| {
                let mut a3 = GroverStreamer::<oqsc_quantum::StateVector>::with_j_seed_in(1, 0);
                a3.feed_all(word);
                a3.detection_probability()
            });
        });
        group.bench_with_input(BenchmarkId::new("sparse", k), &word, |b, word| {
            b.iter(|| {
                let mut a3 = GroverStreamer::<oqsc_quantum::SparseState>::with_j_seed_in(1, 0);
                a3.feed_all(word);
                a3.detection_probability()
            });
        });
    }
    group.finish();
}

/// SIMD dispatch on vs forced-scalar for the dense kernel hot loops (the
/// Hadamard sweep plus the diffusion axpy), at sizes spanning the
/// `PARALLEL_THRESHOLD` seam. Criterion bench binaries run their targets
/// sequentially, so toggling the process-global `simd::force` between the
/// two arms is safe here.
fn bench_simd_vs_scalar(c: &mut Criterion) {
    use oqsc_quantum::{simd, SimdLevel, StateVector};
    let mut group = c.benchmark_group("ablation_simd_dense");
    for n in [14usize, 16, 18] {
        let qs: Vec<usize> = (0..n).collect();
        for (arm, level) in [("simd", None), ("scalar", Some(SimdLevel::Scalar))] {
            group.bench_with_input(BenchmarkId::new(arm, n), &qs, |b, qs| {
                simd::force(level);
                let mirror = StateVector::uniform(qs.len());
                let mut s = StateVector::uniform(qs.len());
                b.iter(|| {
                    s.apply_hadamard_all(qs);
                    s.reflect_about(&mirror);
                    s.prob_one(0)
                });
                simd::force(None);
            });
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_structured_vs_strict,
    bench_bit_vs_block,
    bench_dense_vs_sparse_backend,
    bench_simd_vs_scalar
);
criterion_main!(benches);
