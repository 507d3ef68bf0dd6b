//! Machine-readable benchmark records for the perf-sensitive layers.
//!
//! `experiments bench PATH` runs a fixed suite of benchmarks and
//! writes one JSON document. Three families:
//!
//! * **kernel / end-to-end cells** — dense-kernel micro-benchmarks (among
//!   them A3's diffusion in closed form, `a3_diffusion`, beside the gate
//!   sweeps it replaced, `a3_diffusion_sweeps`) plus two end-to-end
//!   workloads (a batched complement sweep and an A3 densifying stream),
//!   each measured twice: once with the SIMD dispatch forced to scalar,
//!   once with auto-detection, with the derived scalar/SIMD speedups of
//!   the cells that have a SIMD path (`a3_diffusion` has none);
//! * **store cells** — `store_open`, `store_recover` and
//!   `checkpoint_roundtrip` timed against a log of dense A3 checkpoints,
//!   once with payload compression off and once on
//!   (`mode: "uncompressed" | "compressed"`; SIMD-independent);
//! * **`stores` rows** — on-disk size of real dense-backend E6/F1 sweep
//!   stores, compressed vs uncompressed, with the shrink factor (the
//!   store-v3 acceptance number: dense amplitude snapshots shrink well
//!   over 2×);
//! * **`mux` rows** — the session multiplexing engine's throughput
//!   cells: a fleet far larger than the live budget driven through
//!   `oqsc_serve::run_fleet`, with tokens/sec and the sessions-resident
//!   high-water mark (the serving acceptance number: ≥100k concurrent
//!   sessions under a live set below 1% of the fleet);
//! * **`mux_batched` rows** — the same churn fleet driven over a real
//!   served socket, once with per-token `FEED` round trips and once with
//!   one pipelined `FEEDS` batch per session; the batched row carries
//!   `speedup_vs_feed` (the scale-out acceptance number: ≥3×);
//! * **`router` rows** — the batched socket workload driven through a
//!   consistent-hash `Router` front over 1 and 2 backend engines.
//!
//! The committed `BENCH_throughput.json` at the repo root is one such
//! record; CI re-runs the suite at reduced size and diffs the schema
//! (keys, not timings) against it, so the file can never silently drift
//! from the producer. The workload functions are `pub` and reused by
//! `cargo bench --bench throughput` / `--bench adaptive`, so the criterion
//! benches and the JSON record time the same code.
//!
//! The format is hand-rolled (no serde in the dependency budget) and
//! deliberately timestamp-free: the same binary on the same host produces
//! structurally identical output, and measurements are the only thing that
//! varies between runs.
//!
//! Schema (`oqsc-bench-record/v1`):
//!
//! ```json
//! {
//!   "schema": "oqsc-bench-record/v1",
//!   "host": { "arch": "...", "simd": "avx2", "threads": 1 },
//!   "results": [
//!     { "bench": "gate_sweep_dense", "qubits": 16, "mode": "scalar",
//!       "median_ns": 1, "min_ns": 1, "max_ns": 1,
//!       "samples": 7, "iters": 3 }
//!   ],
//!   "derived": [
//!     { "bench": "gate_sweep_dense", "qubits": 16, "speedup": 1.50 }
//!   ],
//!   "stores": [
//!     { "sweep": "f1-dense", "records": 58, "uncompressed_bytes": 825340,
//!       "compressed_bytes": 61144, "shrink": 13.50 }
//!   ],
//!   "mux": [
//!     { "bench": "mux_feed", "sessions": 100000, "live_budget_bytes": 31744,
//!       "workers": 8, "tokens": 3200000, "tokens_per_sec": 1, "peak_live": 513,
//!       "evictions": 1, "hydrations": 1 }
//!   ],
//!   "mux_batched": [
//!     { "bench": "mux_batched", "mode": "feeds", "sessions": 256,
//!       "tokens": 8192, "tokens_per_sec": 1, "speedup_vs_feed": 3.000 }
//!   ],
//!   "router": [
//!     { "bench": "router", "engines": 2, "sessions": 256,
//!       "tokens": 8192, "tokens_per_sec": 1 }
//!   ]
//! }
//! ```
//!
//! `speedup` is `scalar_median_ns / simd_median_ns` for the same
//! `(bench, qubits)` pair; on a host with no usable SIMD both modes run the
//! identical scalar code and the ratio hovers around 1.0. `shrink` is
//! `uncompressed_bytes / compressed_bytes` for the same sweep, checkpoint
//! cadence and record count.

use crate::experiments::f1_seeds;
use oqsc_core::separation::separation_quantum_task;
use oqsc_core::sweep::complement_sweep_in;
use oqsc_core::{ComplementRecognizer, GroverStreamer};
use oqsc_lang::{random_member, random_nonmember, Sym};
use oqsc_machine::{
    BatchRunner, CheckpointStore, Checkpointable, Session, SessionCheckpoint, StreamingDecider,
};
use oqsc_quantum::{
    simd, AdaptiveState, Complex, GroverLayout, QuantumBackend, SimdLevel, StateVector,
};
use oqsc_serve::{
    feeds_line, run_fleet, DeciderKind, LineClient, MuxConfig, MuxEngine, MuxStats, Router,
    RouterConfig, Server, ServerConfig,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;
use std::time::Instant;

/// Options for one record run.
#[derive(Debug, Clone, Copy)]
pub struct RecordOpts {
    /// Shrink problem sizes and sample counts so the suite finishes in a
    /// few seconds — the CI smoke setting. Timings from a reduced run are
    /// not comparable to a full run; only the schema is.
    pub reduced: bool,
}

/// Per-iteration timing statistics for one `(bench, qubits, mode)` cell.
struct Timing {
    median_ns: u64,
    min_ns: u64,
    max_ns: u64,
    samples: usize,
    iters: u32,
}

/// One row of the `results` array.
struct ResultRow {
    bench: &'static str,
    qubits: usize,
    mode: &'static str,
    timing: Timing,
}

/// One row of the `stores` array: the on-disk footprint of one
/// dense-backend sweep's checkpoint store, compression off vs on (same
/// instances, cadence and record count in both runs).
struct StoreRow {
    sweep: &'static str,
    records: usize,
    uncompressed_bytes: u64,
    compressed_bytes: u64,
}

impl StoreRow {
    /// `uncompressed / compressed` — the store-v3 acceptance number.
    fn shrink(&self) -> f64 {
        self.uncompressed_bytes as f64 / self.compressed_bytes.max(1) as f64
    }
}

/// One row of the `mux` array: a session-multiplexing throughput cell.
#[derive(Debug)]
struct MuxRow {
    sessions: usize,
    live_budget_bytes: usize,
    workers: usize,
    tokens: u64,
    tokens_per_sec: u64,
    peak_live: u64,
    evictions: u64,
    hydrations: u64,
}

/// One row of the `mux_batched` array: the socket feed phase, per-token
/// (`mode: "feed"`) vs batched (`mode: "feeds"`), with the batched row's
/// speedup over the per-token baseline.
#[derive(Debug)]
struct BatchedRow {
    mode: &'static str,
    sessions: usize,
    tokens: u64,
    tokens_per_sec: u64,
    speedup_vs_feed: f64,
}

/// One row of the `router` array: the batched socket workload driven
/// through a consistent-hash router over `engines` backends.
#[derive(Debug)]
struct RouterRow {
    engines: usize,
    sessions: usize,
    tokens: u64,
    tokens_per_sec: u64,
}

/// Target wall-clock per timing sample, full vs reduced.
const SAMPLE_TARGET_NS: u64 = 10_000_000;
const SAMPLE_TARGET_NS_REDUCED: u64 = 1_000_000;

/// Samples per cell, full vs reduced (median over these is reported).
const SAMPLES: usize = 7;
const SAMPLES_REDUCED: usize = 3;

/// Checkpoints in the store-cell log (`store_open`/`store_recover`/
/// `checkpoint_roundtrip` all work over the same set).
const STORE_BENCH_CHECKPOINTS: usize = 24;

/// `t.elapsed()` as saturating nanoseconds.
fn elapsed_ns(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// `k` from a row's qubit label — `qubits = 2k + 2`, the A3 register size
/// at language parameter `k`, used as the size axis for every cell.
fn k_for(qubits: usize) -> u32 {
    u32::try_from(qubits.saturating_sub(2) / 2).expect("small k")
}

/// The acceptance micro-benchmark: a full Hadamard sweep (`H` on every
/// qubit) over a dense `StateVector` — the hottest dense inner loop in the
/// A1/A2/A3 pipelines. Returns elapsed nanoseconds for `iters` sweeps.
pub fn gate_sweep_dense(n: usize, iters: u32) -> u64 {
    let qs: Vec<usize> = (0..n).collect();
    let mut s = StateVector::uniform(n);
    let t = Instant::now();
    for _ in 0..iters {
        s.apply_hadamard_all(&qs);
    }
    let ns = elapsed_ns(t);
    std::hint::black_box(s.amp(0));
    ns
}

/// The amplification axpy family: `reflect_about` plus one `add_scaled`
/// per iteration (the diffusion step of every Grover-style experiment).
pub fn reflect_axpy(n: usize, iters: u32) -> u64 {
    let mirror = StateVector::uniform(n);
    let mut s = StateVector::uniform(n);
    let coeff = Complex::new(0.0, 0.0);
    let t = Instant::now();
    for _ in 0..iters {
        s.reflect_about(&mirror);
        s.add_scaled(&mirror, coeff);
    }
    let ns = elapsed_ns(t);
    std::hint::black_box(s.amp(0));
    ns
}

/// A3's diffusion as the streamer runs it: one closed-form inversion
/// about the mean per iteration ([`GroverLayout::apply_diffusion`]) over
/// the dense `qubits = 2k + 2` register, starting from `|φ_k⟩`.
pub fn a3_diffusion(qubits: usize, iters: u32) -> u64 {
    let layout = GroverLayout::for_k(k_for(qubits));
    let mut s = layout.phi();
    let t = Instant::now();
    for _ in 0..iters {
        layout.apply_diffusion(&mut s);
    }
    let ns = elapsed_ns(t);
    std::hint::black_box(s.amp(0));
    ns
}

/// The gate sweeps `U_k S_k U_k` that [`a3_diffusion`] replaced, on the
/// same register: the baseline of its speedup.
pub fn a3_diffusion_sweeps(qubits: usize, iters: u32) -> u64 {
    let layout = GroverLayout::for_k(k_for(qubits));
    let mut s = layout.phi();
    let t = Instant::now();
    for _ in 0..iters {
        layout.apply_uk(&mut s);
        layout.apply_sk(&mut s);
        layout.apply_uk(&mut s);
    }
    let ns = elapsed_ns(t);
    std::hint::black_box(s.amp(0));
    ns
}

/// The chunked reduction family: norm, one marginal, and one masked
/// probability per iteration — everything measurement-side code touches.
pub fn reductions_dense(n: usize, iters: u32) -> u64 {
    let s = StateVector::uniform(n);
    let mut sink = 0.0f64;
    let t = Instant::now();
    for _ in 0..iters {
        sink += s.norm();
        sink += s.prob_one(n - 1);
        sink += s.probability_where(|b| b & 1 == 0);
    }
    let ns = elapsed_ns(t);
    std::hint::black_box(sink);
    ns
}

/// Deterministic member/non-member words for the complement sweep (seed
/// `0x7_0DD5`) — shared by [`throughput_sweep`] and the criterion
/// `throughput` bench so both time the same instances.
pub fn sweep_words(k: u32, count: usize) -> Vec<Vec<Sym>> {
    let mut rng = StdRng::seed_from_u64(0x7_0DD5);
    (0..count)
        .map(|i| {
            if i.is_multiple_of(2) {
                random_member(k, &mut rng).encode()
            } else {
                random_nonmember(k, 1 + i % 4, &mut rng).encode()
            }
        })
        .collect()
}

/// End-to-end fleet cell: a 4-instance complement sweep through the dense
/// recognizer on a serial [`BatchRunner`] — the whole E-family pipeline
/// (token loop, gates, reductions, verdicts), not one isolated kernel.
pub fn throughput_sweep(qubits: usize, iters: u32) -> u64 {
    let words = sweep_words(k_for(qubits), 4);
    let runner = BatchRunner::serial();
    let mut sink = 0usize;
    let t = Instant::now();
    for _ in 0..iters {
        sink += complement_sweep_in::<StateVector>(&words, 0xBA7C4, &runner).accepted;
    }
    let ns = elapsed_ns(t);
    std::hint::black_box(sink);
    ns
}

/// The `1^k # (b^{2^{2k}} #)^{3·2^k}` A3 shape with independently random
/// blocks (seed `0xADAB2`): the `z` copies stop uncomputing the `h`
/// branch, the support crosses the promotion threshold mid-stream, and
/// adaptive backends finish on the dense kernels. Shared with the
/// criterion `adaptive` bench.
pub fn densifying_word(k: u32) -> Vec<Sym> {
    let mut rng = StdRng::seed_from_u64(0xADAB2);
    let m = 1usize << (2 * k);
    let blocks = 3 * (1usize << k);
    let mut word = Vec::with_capacity(k as usize + 1 + blocks * (m + 1));
    word.extend(std::iter::repeat_n(Sym::One, k as usize));
    word.push(Sym::Hash);
    for _ in 0..blocks {
        word.extend((0..m).map(|_| if rng.gen() { Sym::One } else { Sym::Zero }));
        word.push(Sym::Hash);
    }
    word
}

/// End-to-end adaptive cell: one A3 densifying stream on `AdaptiveState`
/// — sparse until the promotion threshold, then the parallel dense
/// kernels, so the SIMD axis shows up in the post-promotion phase.
pub fn adaptive_densify(qubits: usize, iters: u32) -> u64 {
    let word = densifying_word(k_for(qubits));
    let mut sink = 0.0f64;
    let t = Instant::now();
    for _ in 0..iters {
        let mut a3 = GroverStreamer::<AdaptiveState>::with_j_seed_in(3, 0);
        a3.feed_all(&word);
        sink += a3.detection_probability();
    }
    let ns = elapsed_ns(t);
    std::hint::black_box(sink);
    ns
}

/// Calibrate an iteration count so one sample takes roughly `target_ns`,
/// then collect `samples` per-iteration timings. `run(iters)` returns the
/// elapsed nanoseconds for `iters` iterations of the workload.
fn measure(mut run: impl FnMut(u32) -> u64, target_ns: u64, samples: usize) -> Timing {
    let probe = run(1).max(1);
    let iters = u32::try_from((target_ns / probe).clamp(1, 100_000)).expect("clamped");
    let mut per_iter: Vec<u64> = (0..samples)
        .map(|_| run(iters) / u64::from(iters))
        .collect();
    per_iter.sort_unstable();
    Timing {
        median_ns: per_iter[per_iter.len() / 2],
        min_ns: per_iter[0],
        max_ns: per_iter[per_iter.len() - 1],
        samples,
        iters,
    }
}

/// The scalar-vs-SIMD suite: `(name, runner, full sizes, reduced sizes)`.
type Suite = [(
    &'static str,
    fn(usize, u32) -> u64,
    &'static [usize],
    &'static [usize],
); 7];

const SUITE: Suite = [
    ("gate_sweep_dense", gate_sweep_dense, &[14, 16, 18], &[10]),
    ("reflect_axpy", reflect_axpy, &[16], &[10]),
    ("reductions_dense", reductions_dense, &[16], &[10]),
    ("a3_diffusion", a3_diffusion, &[10, 14, 18], &[6]),
    (
        "a3_diffusion_sweeps",
        a3_diffusion_sweeps,
        &[10, 14, 18],
        &[6],
    ),
    ("throughput_sweep", throughput_sweep, &[8], &[6]),
    ("adaptive_densify", adaptive_densify, &[10], &[6]),
];

/// Forces one SIMD dispatch level for its lifetime and restores automatic
/// detection on drop, even if a benchmark panics. The criterion benches
/// reuse it around the `pub` workload functions.
pub struct ForceGuard;

impl ForceGuard {
    /// Forces `level` (`None` = auto-detect) and arms the reset-on-drop.
    #[must_use = "dispatch resets when the guard drops"]
    pub fn force(level: Option<SimdLevel>) -> Self {
        simd::force(level);
        ForceGuard
    }
}

impl Drop for ForceGuard {
    fn drop(&mut self) {
        simd::force(None);
    }
}

/// A collision-free scratch path for one benchmark store.
fn bench_path(name: &str, mode: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "oqsc-bench-{}-{name}-{mode}.cps",
        std::process::id()
    ))
}

/// `count` checkpoints of one dense A3 streamer mid-run — the payload set
/// every store cell works over. Dense amplitude snapshots are the store's
/// design-center payload: big, structured, and highly compressible.
fn grover_checkpoints(qubits: usize, count: usize) -> Vec<SessionCheckpoint> {
    let k = k_for(qubits);
    let mut rng = StdRng::seed_from_u64(0xC0DE + qubits as u64);
    let word = random_member(k, &mut rng).encode();
    let step = (word.len() / count).max(1);
    let mut session = Session::new(GroverStreamer::<StateVector>::with_j_seed_in(3, 0));
    let mut out = Vec::new();
    for (i, &sym) in word.iter().enumerate() {
        session.feed(sym);
        if (i + 1).is_multiple_of(step) && out.len() < count {
            out.push(session.suspend());
        }
    }
    out
}

/// Measures the three store cells (`checkpoint_roundtrip`, `store_open`,
/// `store_recover`) in both payload modes. SIMD-independent: the work is
/// framing, hashing, compression and I/O, not amplitude arithmetic.
fn store_cells(results: &mut Vec<ResultRow>, reduced: bool, target_ns: u64, samples: usize) {
    type Streamer = GroverStreamer<StateVector>;
    let qubits = if reduced { 6 } else { 10 };
    let cps = grover_checkpoints(qubits, STORE_BENCH_CHECKPOINTS);
    for (mode, compress) in [("uncompressed", false), ("compressed", true)] {
        // Round trip: fresh store, append every checkpoint, read each back.
        let rt_path = bench_path("roundtrip", mode);
        let timing = measure(
            |iters| {
                let t = Instant::now();
                for _ in 0..iters {
                    let _ = std::fs::remove_file(&rt_path);
                    let mut store =
                        CheckpointStore::create_for::<Streamer>(&rt_path).expect("create store");
                    store.set_compression(compress);
                    let keys: Vec<u128> = cps
                        .iter()
                        .enumerate()
                        .map(|(i, cp)| store.append(i as u64, cp).expect("append"))
                        .collect();
                    let mut sink = 0u64;
                    for key in keys {
                        sink ^= store.get(key).expect("get").position();
                    }
                    std::hint::black_box(sink);
                }
                elapsed_ns(t)
            },
            target_ns,
            samples,
        );
        results.push(ResultRow {
            bench: "checkpoint_roundtrip",
            qubits,
            mode,
            timing,
        });
        let _ = std::fs::remove_file(&rt_path);

        // A prebuilt log shared by the open and recover cells.
        let log_path = bench_path("openlog", mode);
        let _ = std::fs::remove_file(&log_path);
        {
            let mut store =
                CheckpointStore::create_for::<Streamer>(&log_path).expect("create store");
            store.set_compression(compress);
            for (i, cp) in cps.iter().enumerate() {
                store.append(i as u64, cp).expect("append");
            }
        }
        let timing = measure(
            |iters| {
                let t = Instant::now();
                for _ in 0..iters {
                    let store = CheckpointStore::open_for::<Streamer>(&log_path).expect("open");
                    std::hint::black_box(store.records());
                }
                elapsed_ns(t)
            },
            target_ns,
            samples,
        );
        results.push(ResultRow {
            bench: "store_open",
            qubits,
            mode,
            timing,
        });
        let timing = measure(
            |iters| {
                use std::io::Write;
                let t = Instant::now();
                for _ in 0..iters {
                    // Tear the tail; recover salvages the full prefix and
                    // truncates the garbage away, so every iteration sees
                    // the same file.
                    let mut f = std::fs::OpenOptions::new()
                        .append(true)
                        .open(&log_path)
                        .expect("open for tear");
                    f.write_all(&[0xA5; 13]).expect("tear");
                    drop(f);
                    let (store, report) =
                        CheckpointStore::recover_for::<Streamer>(&log_path).expect("recover");
                    std::hint::black_box((store.records(), report.salvaged_records));
                }
                elapsed_ns(t)
            },
            target_ns,
            samples,
        );
        results.push(ResultRow {
            bench: "store_recover",
            qubits,
            mode,
            timing,
        });
        let _ = std::fs::remove_file(&log_path);
    }
}

/// Dense-backend E6 instance builder: the same member/non-member words as
/// `e6_task`, driven by the Theorem 3.4 dense recognizer instead of the
/// classical Proposition 3.7 decider — the sweep whose checkpoints are
/// dense amplitude snapshots.
fn e6_dense_task(i: usize) -> (ComplementRecognizer<StateVector>, std::vec::IntoIter<Sym>) {
    let k = 1 + (i / 2) as u32;
    let mut rng = StdRng::seed_from_u64(4000 + u64::from(k));
    let member = random_member(k, &mut rng);
    let non = random_nonmember(k, 1, &mut rng);
    let first = ComplementRecognizer::new_in(&mut rng);
    if i.is_multiple_of(2) {
        (first, member.encode().into_iter())
    } else {
        let second = ComplementRecognizer::new_in(&mut rng);
        (second, non.encode().into_iter())
    }
}

/// Runs one resumable sweep twice — compression off, then on — into
/// scratch stores and reports both on-disk footprints.
fn store_row<D, W, F>(sweep: &'static str, count: usize, every: usize, task: F) -> StoreRow
where
    D: Checkpointable,
    W: IntoIterator<Item = Sym>,
    F: Fn(usize) -> (D, W) + Send + Sync + Copy,
{
    let runner = BatchRunner::serial();
    let mut sizes = [0u64; 2];
    let mut records = 0usize;
    for (slot, compress) in [(0usize, false), (1usize, true)] {
        let path = bench_path(sweep, if compress { "comp" } else { "raw" });
        let _ = std::fs::remove_file(&path);
        let mut store = CheckpointStore::create_for::<D>(&path).expect("create store");
        store.set_compression(compress);
        runner
            .run_resumable(count, every, &mut store, task)
            .expect("sweep");
        records = store.records();
        sizes[slot] = store.len_bytes();
        drop(store);
        let _ = std::fs::remove_file(&path);
    }
    StoreRow {
        sweep,
        records,
        uncompressed_bytes: sizes[0],
        compressed_bytes: sizes[1],
    }
}

/// The `stores` rows: real dense-backend E6 and F1 sweeps persisted
/// through [`BatchRunner::run_resumable`] at a fixed checkpoint cadence,
/// compressed vs uncompressed.
fn sweep_store_rows(reduced: bool) -> Vec<StoreRow> {
    let (k_max, every) = if reduced { (2u32, 64usize) } else { (4, 256) };
    let mut rows = Vec::new();
    rows.push(store_row(
        "e6-dense",
        2 * k_max as usize,
        every,
        e6_dense_task,
    ));
    let seeds = f1_seeds(k_max);
    rows.push(store_row("f1-dense", seeds.len(), every, |i| {
        separation_quantum_task(1, &seeds, i)
    }));
    rows
}

/// Tokens each mux-cell session streams end to end.
pub const MUX_WORD_LEN: usize = 32;

/// Tokens per `feed` batch in the mux cells (the `Session::feed_slice`
/// fast path's batch size).
pub const MUX_CHUNK: usize = 8;

/// The deterministic word every mux-cell session streams: alternating
/// bits with a `#` every 8th token, [`MUX_WORD_LEN`] tokens long.
pub fn mux_word() -> Vec<Sym> {
    (0..MUX_WORD_LEN)
        .map(|i| {
            if (i + 1).is_multiple_of(8) {
                Sym::Hash
            } else if i.is_multiple_of(2) {
                Sym::Zero
            } else {
                Sym::One
            }
        })
        .collect()
}

/// The live-tier byte budget that fits roughly `live_sessions` resident
/// mux-cell sessions, probed from the actual checkpoint size of the
/// cell's decider (the engine's cost model is checkpointed bytes).
pub fn mux_live_budget(live_sessions: usize) -> usize {
    let cost = Session::new(DeciderKind::Format.build(0))
        .suspend()
        .byte_len();
    live_sessions * cost
}

/// The mux throughput cell: `sessions` concurrent A1 format-checker
/// sessions — each fed [`MUX_WORD_LEN`] tokens in [`MUX_CHUNK`]-token
/// batches — through one [`MuxEngine`] whose live tier holds
/// `live_budget_bytes`, on `workers` threads. Far more sessions than fit
/// live, so the engine churns through its warm tier constantly. Returns
/// elapsed nanoseconds and the engine's final statistics.
pub fn mux_feed(sessions: usize, live_budget_bytes: usize, workers: usize) -> (u64, MuxStats) {
    let word = mux_word();
    let engine = MuxEngine::new(MuxConfig {
        live_bytes_budget: live_budget_bytes,
        warm_bytes_budget: usize::MAX,
        shards: 64,
    });
    let fleet = (0..sessions)
        .map(|i| (i as u64, DeciderKind::Format.build(i as u64), word.clone()))
        .collect();
    let t = Instant::now();
    run_fleet(&engine, fleet, MUX_CHUNK, workers).expect("mux fleet");
    (elapsed_ns(t), engine.stats())
}

/// Drives `sessions` format sessions through a served Unix socket and
/// times the feed phase: per-token `FEED` round trips (one request per
/// token, round-robin across sessions — today's worst case) vs one
/// pipelined `FEEDS` line per session. Returns `(feed_ns, tokens)`.
fn socket_feed_phase(sessions: usize, batched: bool) -> (u64, u64) {
    let path = std::env::temp_dir().join(format!(
        "oqsc-bench-mux-batched-{}-{batched}.sock",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let addr = path.display().to_string();
    let server = Server::bind(
        &addr,
        ServerConfig {
            threads: 2,
            mux: MuxConfig {
                live_bytes_budget: mux_live_budget(16),
                warm_bytes_budget: 1 << 30,
                shards: 16,
            },
            ..ServerConfig::default()
        },
    )
    .expect("bind bench server");
    let handle = std::thread::spawn(move || server.run().expect("bench server"));
    let word = mux_word();
    let (ns, tokens) = drive_feed_phase(&addr, sessions, batched, &word);
    handle.join().expect("bench server thread");
    (ns, tokens)
}

/// The shared client side of [`socket_feed_phase`] and the router cell:
/// open all sessions, time the feed phase in the requested shape,
/// finish everything, shut the endpoint down.
fn drive_feed_phase(addr: &str, sessions: usize, batched: bool, word: &[Sym]) -> (u64, u64) {
    let mut client = LineClient::connect(addr).expect("connect bench client");
    let opens: Vec<String> = (0..sessions)
        .map(|i| format!("OPEN {i} format {i}"))
        .collect();
    for response in client.pipeline(&opens).expect("open fleet") {
        assert!(response.starts_with("OK "), "open failed: {response}");
    }
    let t = Instant::now();
    if batched {
        let chunks: Vec<Vec<Sym>> = word.chunks(MUX_CHUNK).map(|c| c.to_vec()).collect();
        let feeds: Vec<String> = (0..sessions)
            .map(|i| feeds_line(i as u64, &chunks))
            .collect();
        for response in client.pipeline(&feeds).expect("batched feeds") {
            assert!(response.starts_with("OK "), "feeds failed: {response}");
        }
    } else {
        for pos in 0..word.len() {
            let text = oqsc_lang::token::to_string(&word[pos..=pos]);
            for i in 0..sessions {
                let request = format!("FEED {i} {text}");
                let response = client.ask(&request).expect("feed token");
                assert!(response.starts_with("OK "), "feed failed: {response}");
            }
        }
    }
    let ns = elapsed_ns(t);
    let finishes: Vec<String> = (0..sessions).map(|i| format!("FINISH {i}")).collect();
    for response in client.pipeline(&finishes).expect("finish fleet") {
        assert!(
            response.starts_with("OUTCOME "),
            "finish failed: {response}"
        );
    }
    let shutdown = client.ask("SHUTDOWN").expect("shutdown");
    assert_eq!(shutdown, "OK shutdown");
    (ns, (sessions * word.len()) as u64)
}

/// The `mux_batched` rows: the socket-driven churn workload fed
/// per-token and batched, with the batched row carrying its speedup
/// over the per-token baseline (the tentpole's ≥3× acceptance number).
fn mux_batched_rows(reduced: bool) -> Vec<BatchedRow> {
    let sessions = if reduced { 64 } else { 256 };
    let mut rows = Vec::new();
    let mut feed_ns = 0u64;
    for (mode, batched) in [("feed", false), ("feeds", true)] {
        let (ns, tokens) = socket_feed_phase(sessions, batched);
        if !batched {
            feed_ns = ns;
        }
        rows.push(BatchedRow {
            mode,
            sessions,
            tokens,
            tokens_per_sec: tokens.saturating_mul(1_000_000_000) / ns.max(1),
            speedup_vs_feed: feed_ns as f64 / ns.max(1) as f64,
        });
    }
    rows
}

/// The `router` rows: the batched workload driven through a
/// consistent-hash router over 1 and 2 backend engines — the scale-out
/// overhead/headroom measurement next to the direct-socket rows.
fn router_rows(reduced: bool) -> Vec<RouterRow> {
    let sessions = if reduced { 64 } else { 256 };
    [1usize, 2]
        .into_iter()
        .map(|engines| {
            let stamp = std::process::id();
            let mut engine_addrs = Vec::new();
            let mut engine_handles = Vec::new();
            for e in 0..engines {
                let path = std::env::temp_dir()
                    .join(format!("oqsc-bench-router-{stamp}-{engines}-{e}.sock"));
                let _ = std::fs::remove_file(&path);
                let addr = path.display().to_string();
                let server = Server::bind(
                    &addr,
                    ServerConfig {
                        threads: 2,
                        mux: MuxConfig {
                            live_bytes_budget: mux_live_budget(16),
                            warm_bytes_budget: 1 << 30,
                            shards: 16,
                        },
                        ..ServerConfig::default()
                    },
                )
                .expect("bind bench engine");
                engine_addrs.push(addr);
                engine_handles.push(std::thread::spawn(move || {
                    server.run().expect("bench engine")
                }));
            }
            let front_path = std::env::temp_dir()
                .join(format!("oqsc-bench-router-{stamp}-{engines}-front.sock"));
            let _ = std::fs::remove_file(&front_path);
            let front = front_path.display().to_string();
            let router =
                Router::bind(&front, engine_addrs, RouterConfig::default()).expect("bind router");
            let router_handle = std::thread::spawn(move || router.run().expect("bench router"));
            let word = mux_word();
            // SHUTDOWN at the router broadcasts to the engines.
            let (ns, tokens) = drive_feed_phase(&front, sessions, true, &word);
            router_handle.join().expect("router thread");
            for handle in engine_handles {
                handle.join().expect("engine thread");
            }
            RouterRow {
                engines,
                sessions,
                tokens,
                tokens_per_sec: tokens.saturating_mul(1_000_000_000) / ns.max(1),
            }
        })
        .collect()
}

/// The `mux` rows: the full record serves 100k sessions under a live
/// set of ~512 (0.5% of the fleet — the serving acceptance ratio), at
/// one and at eight workers.
fn mux_rows(reduced: bool) -> Vec<MuxRow> {
    let (sessions, live_sessions, worker_counts) = if reduced {
        (2_000, 64, [1usize, 2])
    } else {
        (100_000, 512, [1usize, 8])
    };
    let live_budget_bytes = mux_live_budget(live_sessions);
    worker_counts
        .into_iter()
        .map(|workers| {
            let (ns, stats) = mux_feed(sessions, live_budget_bytes, workers);
            MuxRow {
                sessions,
                live_budget_bytes,
                workers,
                tokens: stats.tokens,
                tokens_per_sec: stats.tokens.saturating_mul(1_000_000_000) / ns.max(1),
                peak_live: stats.peak_live,
                evictions: stats.evictions,
                hydrations: stats.hydrations,
            }
        })
        .collect()
}

/// Run the full suite and return the JSON record.
///
/// The scalar pass runs first (under `simd::force(Some(Scalar))`), then the
/// auto pass, then the SIMD-independent store cells and sweep-store rows;
/// dispatch is restored to auto-detection before returning.
pub fn run_record(opts: RecordOpts) -> String {
    let _guard = ForceGuard::force(None);
    let (target_ns, samples) = if opts.reduced {
        (SAMPLE_TARGET_NS_REDUCED, SAMPLES_REDUCED)
    } else {
        (SAMPLE_TARGET_NS, SAMPLES)
    };
    let mut results: Vec<ResultRow> = Vec::new();
    for (mode, level) in [("scalar", Some(SimdLevel::Scalar)), ("simd", None)] {
        simd::force(level);
        for (bench, run, full, reduced) in SUITE {
            let sizes = if opts.reduced { reduced } else { full };
            for &n in sizes {
                results.push(ResultRow {
                    bench,
                    qubits: n,
                    mode,
                    timing: measure(|iters| run(n, iters), target_ns, samples),
                });
            }
        }
    }
    simd::force(None);
    store_cells(&mut results, opts.reduced, target_ns, samples);
    let stores = sweep_store_rows(opts.reduced);
    let mux = mux_rows(opts.reduced);
    let batched = mux_batched_rows(opts.reduced);
    let routed = router_rows(opts.reduced);
    render_json(&results, &stores, &mux, &batched, &routed)
}

/// Suite cells with no SIMD-dispatched kernel: both modes run the same
/// code, so their scalar/SIMD ratio would record run order and noise.
const NO_SIMD_PATH: &[&str] = &["a3_diffusion"];

/// Scalar-median / simd-median for every `(bench, qubits)` pair that has
/// both modes measured and a SIMD path (the store cells have no
/// scalar/simd axis and so produce no derived rows, nor do the
/// [`NO_SIMD_PATH`] cells).
fn derived_speedups(results: &[ResultRow]) -> Vec<(&'static str, usize, f64)> {
    let mut out = Vec::new();
    for r in results
        .iter()
        .filter(|r| r.mode == "scalar" && !NO_SIMD_PATH.contains(&r.bench))
    {
        if let Some(s) = results
            .iter()
            .find(|s| s.mode == "simd" && s.bench == r.bench && s.qubits == r.qubits)
        {
            let ratio = r.timing.median_ns as f64 / s.timing.median_ns.max(1) as f64;
            out.push((r.bench, r.qubits, ratio));
        }
    }
    out
}

/// Serialize the record. Keys are emitted in a fixed order so two runs of
/// the same binary differ only in the measured numbers.
fn render_json(
    results: &[ResultRow],
    stores: &[StoreRow],
    mux: &[MuxRow],
    batched: &[BatchedRow],
    routed: &[RouterRow],
) -> String {
    let mut json = String::new();
    json.push_str("{\n  \"schema\": \"oqsc-bench-record/v1\",\n");
    json.push_str(&format!(
        "  \"host\": {{ \"arch\": \"{}\", \"simd\": \"{}\", \"threads\": {} }},\n",
        std::env::consts::ARCH,
        simd::detected().name(),
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
    ));
    json.push_str("  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        json.push_str(&format!(
            "    {{ \"bench\": \"{}\", \"qubits\": {}, \"mode\": \"{}\", \
             \"median_ns\": {}, \"min_ns\": {}, \"max_ns\": {}, \
             \"samples\": {}, \"iters\": {} }}{}\n",
            r.bench,
            r.qubits,
            r.mode,
            r.timing.median_ns,
            r.timing.min_ns,
            r.timing.max_ns,
            r.timing.samples,
            r.timing.iters,
            if i + 1 == results.len() { "" } else { "," },
        ));
    }
    json.push_str("  ],\n  \"derived\": [\n");
    let derived = derived_speedups(results);
    for (i, (bench, qubits, speedup)) in derived.iter().enumerate() {
        json.push_str(&format!(
            "    {{ \"bench\": \"{bench}\", \"qubits\": {qubits}, \"speedup\": {speedup:.3} }}{}\n",
            if i + 1 == derived.len() { "" } else { "," },
        ));
    }
    json.push_str("  ],\n  \"stores\": [\n");
    for (i, s) in stores.iter().enumerate() {
        json.push_str(&format!(
            "    {{ \"sweep\": \"{}\", \"records\": {}, \"uncompressed_bytes\": {}, \
             \"compressed_bytes\": {}, \"shrink\": {:.3} }}{}\n",
            s.sweep,
            s.records,
            s.uncompressed_bytes,
            s.compressed_bytes,
            s.shrink(),
            if i + 1 == stores.len() { "" } else { "," },
        ));
    }
    json.push_str("  ],\n  \"mux\": [\n");
    for (i, m) in mux.iter().enumerate() {
        json.push_str(&format!(
            "    {{ \"bench\": \"mux_feed\", \"sessions\": {}, \"live_budget_bytes\": {}, \
             \"workers\": {}, \"tokens\": {}, \"tokens_per_sec\": {}, \"peak_live\": {}, \
             \"evictions\": {}, \"hydrations\": {} }}{}\n",
            m.sessions,
            m.live_budget_bytes,
            m.workers,
            m.tokens,
            m.tokens_per_sec,
            m.peak_live,
            m.evictions,
            m.hydrations,
            if i + 1 == mux.len() { "" } else { "," },
        ));
    }
    json.push_str("  ],\n  \"mux_batched\": [\n");
    for (i, b) in batched.iter().enumerate() {
        json.push_str(&format!(
            "    {{ \"bench\": \"mux_batched\", \"mode\": \"{}\", \"sessions\": {}, \
             \"tokens\": {}, \"tokens_per_sec\": {}, \"speedup_vs_feed\": {:.3} }}{}\n",
            b.mode,
            b.sessions,
            b.tokens,
            b.tokens_per_sec,
            b.speedup_vs_feed,
            if i + 1 == batched.len() { "" } else { "," },
        ));
    }
    json.push_str("  ],\n  \"router\": [\n");
    for (i, r) in routed.iter().enumerate() {
        json.push_str(&format!(
            "    {{ \"bench\": \"router\", \"engines\": {}, \"sessions\": {}, \
             \"tokens\": {}, \"tokens_per_sec\": {} }}{}\n",
            r.engines,
            r.sessions,
            r.tokens,
            r.tokens_per_sec,
            if i + 1 == routed.len() { "" } else { "," },
        ));
    }
    json.push_str("  ]\n}\n");
    json
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Structural smoke test on the reduced suite: every expected key is
    /// present, both SIMD modes appear for every suite bench, both payload
    /// modes appear for every store cell, and both sweep-store rows exist.
    #[test]
    fn reduced_record_has_stable_schema() {
        let json = run_record(RecordOpts { reduced: true });
        for key in [
            "\"schema\": \"oqsc-bench-record/v1\"",
            "\"host\"",
            "\"arch\"",
            "\"simd\"",
            "\"threads\"",
            "\"results\"",
            "\"derived\"",
            "\"median_ns\"",
            "\"min_ns\"",
            "\"max_ns\"",
            "\"samples\"",
            "\"iters\"",
            "\"speedup\"",
            "\"stores\"",
            "\"records\"",
            "\"uncompressed_bytes\"",
            "\"compressed_bytes\"",
            "\"shrink\"",
            "\"mux\"",
            "\"bench\": \"mux_feed\"",
            "\"sessions\"",
            "\"live_budget_bytes\"",
            "\"workers\"",
            "\"tokens\"",
            "\"tokens_per_sec\"",
            "\"peak_live\"",
            "\"evictions\"",
            "\"hydrations\"",
            "\"mux_batched\"",
            "\"bench\": \"mux_batched\"",
            "\"mode\": \"feed\"",
            "\"mode\": \"feeds\"",
            "\"speedup_vs_feed\"",
            "\"router\"",
            "\"bench\": \"router\"",
            "\"engines\": 1",
            "\"engines\": 2",
        ] {
            assert!(json.contains(key), "missing {key} in:\n{json}");
        }
        for (bench, _, _, sizes) in SUITE {
            for mode in ["scalar", "simd"] {
                let cell = format!(
                    "\"bench\": \"{bench}\", \"qubits\": {}, \"mode\": \"{mode}\"",
                    sizes[0]
                );
                assert!(json.contains(&cell), "missing {cell} in:\n{json}");
            }
        }
        for bench in ["checkpoint_roundtrip", "store_open", "store_recover"] {
            for mode in ["uncompressed", "compressed"] {
                let cell = format!("\"bench\": \"{bench}\", \"qubits\": 6, \"mode\": \"{mode}\"");
                assert!(json.contains(&cell), "missing {cell} in:\n{json}");
            }
        }
        for sweep in ["e6-dense", "f1-dense"] {
            assert!(
                json.contains(&format!("\"sweep\": \"{sweep}\"")),
                "missing {sweep} row"
            );
        }
        // Dense-backend stores must actually shrink under compression even
        // at the reduced sizes (the committed full record shows ≥2×).
        let rows = sweep_store_rows(true);
        for row in &rows {
            assert!(
                row.shrink() > 1.0,
                "{} store did not shrink: {} -> {}",
                row.sweep,
                row.uncompressed_bytes,
                row.compressed_bytes
            );
        }
        // Dispatch must be restored after the run.
        assert_eq!(simd::active(), simd::detected());
    }

    #[test]
    fn only_cells_with_a_simd_path_get_a_speedup_row() {
        let row = |bench, mode| ResultRow {
            bench,
            qubits: 10,
            mode,
            timing: Timing {
                median_ns: 100,
                min_ns: 100,
                max_ns: 100,
                samples: 1,
                iters: 1,
            },
        };
        let results = [
            row("gate_sweep_dense", "scalar"),
            row("a3_diffusion", "scalar"),
            row("gate_sweep_dense", "simd"),
            row("a3_diffusion", "simd"),
        ];
        let derived = derived_speedups(&results);
        assert_eq!(derived.len(), 1, "{derived:?}");
        assert_eq!((derived[0].0, derived[0].1), ("gate_sweep_dense", 10));
    }

    /// The mux cells must actually enforce the live budget: the resident
    /// high-water mark stays around the budgeted live-set size (shard
    /// granularity gives a little slack), far below the fleet size, and
    /// every session's full word is accounted for.
    #[test]
    fn mux_cells_hold_the_live_set_under_budget() {
        let rows = mux_rows(true);
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert_eq!(row.sessions, 2_000);
            assert_eq!(row.tokens, (row.sessions * MUX_WORD_LEN) as u64);
            assert!(
                row.peak_live < 2 * 64 + 64,
                "live set blew the budget: peak {} for ~64 budgeted",
                row.peak_live
            );
            assert!(row.evictions > row.sessions as u64, "no churn: {row:?}");
            assert!(row.tokens_per_sec > 0);
        }
    }
}
