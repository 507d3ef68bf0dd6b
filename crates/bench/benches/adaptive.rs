//! Adaptive vs fixed backends on A3 workloads (DESIGN.md §7).
//!
//! Two streams at `k = 5` (a `2k + 2 = 12`-qubit register, 4096 dense
//! amplitudes), one per regime of the promotion rule:
//!
//! * **structured** — a well-formed member instance: the reachable states
//!   keep support density exactly 1/4, below the 3/8 promotion threshold,
//!   so `AdaptiveState` stays sparse for the whole run and pays
//!   support-proportional memory like `SparseState`;
//! * **densifying** — the same shape with fully random blocks: the `z`
//!   copies no longer uncompute the `h` branch, diffusion mixes the
//!   branches, and the support grows past the threshold mid-stream —
//!   `AdaptiveState` promotes and finishes on the parallel dense kernels
//!   instead of pruning a near-dense block set after every gate.
//!
//! Each workload runs on all four backends. The interesting comparisons:
//! `adaptive` vs `sparse` on the densifying stream (the promotion win)
//! and `adaptive` vs `dense` on the structured stream (the memory win at
//! a bounded speed cost). The verdict statistics are identical everywhere
//! by the equivalence suites; this bench measures only time.
//!
//! A third group times one whole A3 round — three streamed blocks and the
//! closed-form diffusion — at `k = 4, 6, 8` on each backend, the
//! per-round cost DESIGN.md §2 quotes. A fourth times the diffusion
//! alone, closed form (`-closed`) against the `U_k S_k U_k` sweeps it
//! replaced (`-sweeps`), at the same sizes.
//!
//! ```text
//! cargo bench -p oqsc-bench --bench adaptive
//! ```

use criterion::{
    black_box, criterion_group, criterion_main, BenchmarkGroup, BenchmarkId, Criterion,
};
use oqsc_bench::record;
use oqsc_core::GroverStreamer;
use oqsc_lang::{random_member, Sym};
use oqsc_machine::StreamingDecider;
use oqsc_quantum::{
    AdaptiveState, GroverLayout, ParallelStateVector, QuantumBackend, SimdLevel, SparseState,
    StateVector,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const K: u32 = 5;

/// A well-formed member instance: support density pinned at 1/4.
fn structured_word() -> Vec<Sym> {
    let mut rng = StdRng::seed_from_u64(0xADAB1);
    random_member(K, &mut rng).encode()
}

/// The same `1^k # (b^{2^{2k}} #)^{3·2^k}` shape with independently
/// random blocks: the `h` branch stops uncomputing and the support
/// crosses the promotion threshold during the early diffusion rounds.
/// (Shared with the `experiments bench` record's `adaptive_densify` cell.)
fn densifying_word() -> Vec<Sym> {
    record::densifying_word(K)
}

fn run_streamer<B: QuantumBackend>(word: &[Sym]) -> f64 {
    let mut a3 = GroverStreamer::<B>::with_j_seed_in(3, 0);
    a3.feed_all(word);
    a3.detection_probability()
}

fn bench_backends(c: &mut Criterion) {
    let workloads = [
        ("a3-structured", structured_word()),
        ("a3-densifying", densifying_word()),
    ];
    for (name, word) in &workloads {
        let mut group = c.benchmark_group(format!("adaptive/{name}"));
        group.sample_size(10);
        group.bench_function(BenchmarkId::from_parameter("dense"), |b| {
            b.iter(|| black_box(run_streamer::<StateVector>(word)))
        });
        group.bench_function(BenchmarkId::from_parameter("parallel"), |b| {
            b.iter(|| black_box(run_streamer::<ParallelStateVector>(word)))
        });
        group.bench_function(BenchmarkId::from_parameter("sparse"), |b| {
            b.iter(|| black_box(run_streamer::<SparseState>(word)))
        });
        group.bench_function(BenchmarkId::from_parameter("adaptive"), |b| {
            b.iter(|| black_box(run_streamer::<AdaptiveState>(word)))
        });
        group.finish();
    }
}

/// The record's `adaptive_densify` cell under criterion: the same `pub`
/// workload function as the `experiments bench` run, scalar vs auto dispatch,
/// at the full-record size (`qubits = 10`, i.e. `k = 4`).
fn bench_record_densify(c: &mut Criterion) {
    let mut group = c.benchmark_group("adaptive/record-densify");
    group.sample_size(10);
    for (mode, level) in [("scalar", Some(SimdLevel::Scalar)), ("simd", None)] {
        let guard = record::ForceGuard::force(level);
        group.bench_function(BenchmarkId::from_parameter(mode), |b| {
            b.iter(|| black_box(record::adaptive_densify(10, 1)))
        });
        drop(guard);
    }
    group.finish();
}

/// The oracle half of an A3 round as the streamer runs it: the `x`, `y`
/// and `z = x` blocks, one window op per 64 bits (`V_x`, `W_y`, `V_x`).
/// The strings come as their 64-bit window masks: packing them is the
/// decider's cost, which the record's `a3_word` cells time.
fn a3_oracle<B: QuantumBackend>(layout: &GroverLayout, s: &mut B, x: &[u64], y: &[u64]) {
    for (w, &mask) in x.iter().enumerate() {
        layout.apply_vx_window(s, 64 * w, mask);
    }
    for (w, &mask) in y.iter().enumerate() {
        layout.apply_wx_window(s, 64 * w, mask);
    }
    for (w, &mask) in x.iter().enumerate() {
        layout.apply_vx_window(s, 64 * w, mask);
    }
}

/// One A3 round as the streamer runs it: [`a3_oracle`], then the
/// diffusion `U_k S_k U_k` in closed form. With `z = x` a round maps an
/// A3 register to another on the same `2^{2k}` support, so the bench can
/// keep iterating one register.
fn a3_round<B: QuantumBackend>(layout: &GroverLayout, s: &mut B, x: &[u64], y: &[u64]) {
    a3_oracle(layout, s, x, y);
    layout.apply_diffusion(s);
}

fn bench_round_on<B: QuantumBackend>(
    group: &mut BenchmarkGroup<'_>,
    name: &str,
    k: u32,
    x: &[u64],
    y: &[u64],
) {
    let layout = GroverLayout::for_k(k);
    let mut s: B = layout.phi_in();
    group.bench_function(BenchmarkId::new(name, k), |b| {
        b.iter(|| a3_round(&layout, black_box(&mut s), x, y))
    });
}

/// The per-round cost DESIGN.md §2 quotes, at `k = 4, 6, 8` (support
/// 256, 4096 and 65 536): streamed blocks and diffusion together, as the
/// streamer pays them.
fn bench_a3_round(c: &mut Criterion) {
    let mut group = c.benchmark_group("adaptive/a3-round");
    group.sample_size(10);
    for k in [4u32, 6, 8] {
        let mut rng = StdRng::seed_from_u64(0xD1FF + u64::from(k));
        // Uniformly random strings of `2^{2k}` bits, as window masks.
        let windows = GroverLayout::for_k(k).domain() / 64;
        let mut bits = || -> Vec<u64> { (0..windows).map(|_| rng.gen()).collect() };
        let (x, y) = (bits(), bits());
        bench_round_on::<StateVector>(&mut group, "dense", k, &x, &y);
        bench_round_on::<ParallelStateVector>(&mut group, "parallel", k, &x, &y);
        bench_round_on::<SparseState>(&mut group, "sparse", k, &x, &y);
        bench_round_on::<AdaptiveState>(&mut group, "adaptive", k, &x, &y);
    }
    group.finish();
}

/// The diffusion alone, closed form against the `U_k S_k U_k` sweeps it
/// replaced, on an A3 register one oracle into its run.
fn bench_diffusion_on<B: QuantumBackend>(
    group: &mut BenchmarkGroup<'_>,
    name: &str,
    k: u32,
    x: &[u64],
    y: &[u64],
) {
    let layout = GroverLayout::for_k(k);
    let mut s: B = layout.phi_in();
    a3_oracle(&layout, &mut s, x, y);
    let mut closed = s.clone();
    group.bench_function(BenchmarkId::new(&format!("{name}-closed"), k), |b| {
        b.iter(|| layout.apply_diffusion(black_box(&mut closed)))
    });
    group.bench_function(BenchmarkId::new(&format!("{name}-sweeps"), k), |b| {
        b.iter(|| {
            layout.apply_uk(black_box(&mut s));
            layout.apply_sk(&mut s);
            layout.apply_uk(&mut s);
        })
    });
}

/// The per-op cost of the closed-form diffusion against the sweeps at
/// `k = 4, 6, 8` on each backend.
fn bench_a3_diffusion(c: &mut Criterion) {
    let mut group = c.benchmark_group("adaptive/a3-diffusion");
    group.sample_size(10);
    for k in [4u32, 6, 8] {
        let mut rng = StdRng::seed_from_u64(0xD1FF + u64::from(k));
        // Uniformly random strings of `2^{2k}` bits, as window masks.
        let windows = GroverLayout::for_k(k).domain() / 64;
        let mut bits = || -> Vec<u64> { (0..windows).map(|_| rng.gen()).collect() };
        let (x, y) = (bits(), bits());
        bench_diffusion_on::<StateVector>(&mut group, "dense", k, &x, &y);
        bench_diffusion_on::<ParallelStateVector>(&mut group, "parallel", k, &x, &y);
        bench_diffusion_on::<SparseState>(&mut group, "sparse", k, &x, &y);
        bench_diffusion_on::<AdaptiveState>(&mut group, "adaptive", k, &x, &y);
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_backends,
    bench_record_densify,
    bench_a3_round,
    bench_a3_diffusion
);
criterion_main!(benches);
