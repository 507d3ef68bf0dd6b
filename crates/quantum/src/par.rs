//! The single scoped-thread work-splitting and chunked-summation module.
//!
//! The build environment has no registry access, so instead of rayon this
//! module provides every splitting primitive the concurrency layer
//! (DESIGN.md §6) uses — **all** scoped-thread spawning in the simulation
//! substrate lives here, so the parallel dense backend and the adaptive
//! backend share one implementation:
//!
//! * [`for_each_chunk_mut`] — run a closure over disjoint contiguous,
//!   boundary-aligned chunks of a mutable slice, one scoped thread per
//!   chunk;
//! * [`for_each_pair_chunk_mut`] — the same over two matching mutable
//!   slices (the `|…0…⟩`/`|…1…⟩` halves of a single huge gate block);
//! * [`par_block_partials`] — the generic engine computing per-block
//!   reduction partials on scoped workers, folded by the caller in block
//!   order;
//! * the *chunked reduction* family ([`chunked_norm_sqr`],
//!   [`chunked_inner`], [`chunked_prob_where`], their `par_*`
//!   counterparts, and the sparse-iteration form [`chunked_sum_sparse`])
//!   — floating-point sums accumulated per [`REDUCE_CHUNK`]-sized block
//!   and folded in block order;
//! * inversion about the mean ([`invert_about_mean`], built from
//!   [`run_sum`], [`twice_mean`] and [`reflect_through`]) — the one
//!   summation order of every backend's closed-form diffusion,
//!   `a ← 2·mean(run) − a`.
//!
//! The chunked reductions define the workspace's **summation contract**:
//! every backend sums per-block partials in increasing block order, so
//! results are bit-for-bit identical regardless of how many threads
//! computed the partials — and regardless of whether the backend iterates
//! a dense slice or a sparse support ([`chunked_sum_sparse`] groups a
//! sparse in-order iteration by the same block boundaries; absent indices
//! contribute exactly `+0.0` to a dense partial, so the two agree
//! bitwise). This is what makes the "parallel-dense matches dense
//! digit-for-digit" and "adaptive matches dense digit-for-digit"
//! equivalence pins (tests/backend_pipelines.rs) exact equalities rather
//! than tolerances.
//!
//! *Inside* a block, accumulation is **stratified**: element `j` of a
//! block adds into lane `j & (REDUCE_LANES − 1)` of [`REDUCE_LANES`]
//! independent real accumulators folded as `((l0+l1)+l2)+l3` (complex
//! inner products use [`REDUCE_COMPLEX_LANES`] lanes folded `l0+l1`).
//! This order is what a 256-bit vector accumulator computes natively, so
//! the SIMD kernels in [`crate::simd`] reproduce the scalar reductions
//! bit for bit instead of merely approximately — and on scalar hardware
//! it breaks the add-latency dependency chain for free. Because
//! [`REDUCE_CHUNK`] is a multiple of the lane count, an element's lane is
//! the same under global or in-block indexing, which keeps the sparse
//! iteration form on the dense digits.

use crate::complex::{Complex, ZERO};
use crate::simd;

/// Number of stratified complex accumulation lanes for inner products
/// (re-exported from [`crate::simd`], which defines the kernels that
/// realize the contract).
pub use crate::simd::COMPLEX_LANES as REDUCE_COMPLEX_LANES;
/// Number of stratified real accumulation lanes inside a reduction block.
pub use crate::simd::LANES as REDUCE_LANES;

/// Block size (in elements) of the chunked floating-point reductions.
/// A power of two, so block boundaries always align with the `2^q` strides
/// of single-qubit gate application.
pub const REDUCE_CHUNK: usize = 1 << 12;

/// Number of worker threads the parallel backend uses by default: the
/// machine's available parallelism (1 when it cannot be queried), read
/// once per process. The query reads cgroup files on Linux (about 11 µs),
/// and every parallel register, adaptive promotion and default
/// `BatchRunner` asks for it.
pub fn available_threads() -> usize {
    static THREADS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Runs `f(offset, chunk)` over disjoint contiguous chunks of `data`, one
/// scoped thread per chunk, with every chunk boundary a multiple of
/// `align` elements. With `threads <= 1` (or when the slice is shorter
/// than one aligned block per thread) the call degrades to a single
/// in-place invocation — no thread is spawned.
///
/// `offset` is the chunk's starting index in `data`, so predicates over
/// basis indices stay correct inside a chunk.
pub fn for_each_chunk_mut<T, F>(data: &mut [T], align: usize, threads: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let len = data.len();
    let align = align.max(1);
    let blocks = len / align;
    if threads <= 1 || blocks <= 1 {
        f(0, data);
        return;
    }
    let per_chunk = blocks.div_ceil(threads) * align;
    std::thread::scope(|scope| {
        // Spawn workers for all chunks but the last, which runs inline on
        // the calling thread — it would otherwise idle inside the scope,
        // and one saved spawn is measurable at dimensions just above the
        // serial threshold.
        let mut chunks: Vec<(usize, &mut [T])> = data
            .chunks_mut(per_chunk)
            .enumerate()
            .map(|(i, c)| (i * per_chunk, c))
            .collect();
        let last = chunks.pop();
        for (offset, chunk) in chunks {
            let f = &f;
            scope.spawn(move || f(offset, chunk));
        }
        if let Some((offset, chunk)) = last {
            f(offset, chunk);
        }
    });
}

/// Splits two equal-length mutable slices into matching contiguous
/// sub-ranges of up to `⌈len/threads⌉` elements and runs `f(lo, hi)` on
/// one scoped worker per pair; the last pair runs inline on the calling
/// thread. The parallel dense backend's single-huge-block gate path (high
/// target qubit) pairs the `|…0…⟩` and `|…1…⟩` halves of a block this
/// way.
pub fn for_each_pair_chunk_mut<T, F>(los: &mut [T], his: &mut [T], threads: usize, f: F)
where
    T: Send,
    F: Fn(&mut [T], &mut [T]) + Sync,
{
    debug_assert_eq!(los.len(), his.len());
    if threads <= 1 || los.len() <= 1 {
        f(los, his);
        return;
    }
    let per = los.len().div_ceil(threads);
    std::thread::scope(|scope| {
        let mut pairs: Vec<(&mut [T], &mut [T])> =
            los.chunks_mut(per).zip(his.chunks_mut(per)).collect();
        let last = pairs.pop();
        for (lo_c, hi_c) in pairs {
            let f = &f;
            scope.spawn(move || f(lo_c, hi_c));
        }
        if let Some((lo_c, hi_c)) = last {
            f(lo_c, hi_c);
        }
    });
}

/// The generic parallel-reduction engine: computes `blocks` per-block
/// partials with `fill(block_index)` on up to `threads` scoped workers
/// (contiguous block groups, last group inline on the calling thread) and
/// returns them in block order. Callers fold the vector front to back —
/// the summation contract — so the result cannot depend on the thread
/// count. Every `par_*` reduction in this module is a thin wrapper over
/// this engine; new backends must not re-derive the grouping.
pub fn par_block_partials<A, F>(blocks: usize, threads: usize, fill: F) -> Vec<A>
where
    A: Send + Default,
    F: Fn(usize) -> A + Sync,
{
    let mut partials: Vec<A> = std::iter::repeat_with(A::default).take(blocks).collect();
    let per = blocks.div_ceil(threads.max(1));
    let run = |group_idx: usize, slots: &mut [A]| {
        for (bi, slot) in slots.iter_mut().enumerate() {
            *slot = fill(group_idx * per + bi);
        }
    };
    std::thread::scope(|scope| {
        let mut groups: Vec<(usize, &mut [A])> = partials.chunks_mut(per).enumerate().collect();
        let last = groups.pop();
        for (group_idx, slots) in groups {
            let run = &run;
            scope.spawn(move || run(group_idx, slots));
        }
        if let Some((group_idx, slots)) = last {
            run(group_idx, slots);
        }
    });
    partials
}

/// Stratified sum of `term(base + j, element)` over one block: element `j`
/// accumulates into lane `j & (REDUCE_LANES − 1)`, and the lanes are folded
/// as `((l0 + l1) + l2) + l3`. This is the canonical in-block accumulation
/// order shared by the scalar and SIMD kernels.
pub fn block_sum_with<T, F: Fn(usize, &T) -> f64>(base: usize, chunk: &[T], term: F) -> f64 {
    let mut lanes = [0.0f64; REDUCE_LANES];
    for (j, t) in chunk.iter().enumerate() {
        lanes[j & (REDUCE_LANES - 1)] += term(base + j, t);
    }
    simd::scalar::fold_lanes(lanes)
}

/// Serial per-block partial sums of `term(index, element)` over
/// [`REDUCE_CHUNK`]-sized blocks ([`block_sum_with`] inside each block),
/// folded in block order. The canonical (reference) summation every
/// backend agrees with.
pub fn chunked_sum<T, F: Fn(usize, &T) -> f64>(data: &[T], term: F) -> f64 {
    let mut total = 0.0;
    for (ci, chunk) in data.chunks(REDUCE_CHUNK).enumerate() {
        total += block_sum_with(ci * REDUCE_CHUNK, chunk, &term);
    }
    total
}

/// [`chunked_sum`] over a *sparse* in-order iteration: `entries` yields
/// `(global_index, term)` pairs with strictly increasing indices, and the
/// terms are accumulated into per-[`REDUCE_CHUNK`]-block stratified
/// partials folded in block order. Bitwise equal to [`chunked_sum`] over
/// the equivalent dense vector whenever (a) the dense vector's
/// off-support terms are exactly `+0.0` and (b) all terms are
/// non-negative (so no lane is `-0.0`): adding `+0.0` to a lane, or an
/// empty block's `+0.0` partial to the total, never changes a bit. An
/// element's stratified lane is `i & (REDUCE_LANES − 1)` under *global*
/// indexing too, because block bases are multiples of the lane count.
/// The sparse and adaptive backends' probability/norm reductions go
/// through here, which is what keeps them on the dense backend's digits.
pub fn chunked_sum_sparse<I>(entries: I) -> f64
where
    I: IntoIterator<Item = (usize, f64)>,
{
    let mut total = 0.0;
    let mut lanes = [0.0f64; REDUCE_LANES];
    let mut block = 0usize;
    for (i, t) in entries {
        let b = i / REDUCE_CHUNK;
        if b != block {
            total += simd::scalar::fold_lanes(lanes);
            lanes = [0.0; REDUCE_LANES];
            block = b;
        }
        lanes[i & (REDUCE_LANES - 1)] += t;
    }
    total + simd::scalar::fold_lanes(lanes)
}

/// Parallel version of [`chunked_sum`]: the per-block partials are
/// computed on up to `threads` scoped threads via
/// [`par_block_partials`], then folded serially in block order —
/// bit-for-bit equal to the serial result.
pub fn par_chunked_sum<T, F>(data: &[T], threads: usize, term: F) -> f64
where
    T: Sync,
    F: Fn(usize, &T) -> f64 + Sync,
{
    if threads <= 1 || data.len() <= REDUCE_CHUNK {
        return chunked_sum(data, term);
    }
    let blocks = data.len().div_ceil(REDUCE_CHUNK);
    let partials = par_block_partials(blocks, threads, |b| {
        let base = b * REDUCE_CHUNK;
        let chunk = &data[base..data.len().min(base + REDUCE_CHUNK)];
        block_sum_with(base, chunk, &term)
    });
    let mut total = 0.0;
    for p in partials {
        total += p;
    }
    total
}

/// Canonical chunked `Σ |a_i|²` (squared norm) of a dense amplitude slice,
/// via the dispatched [`simd::block_norm_sqr`] kernel.
pub fn chunked_norm_sqr(amps: &[Complex]) -> f64 {
    let mut total = 0.0;
    for chunk in amps.chunks(REDUCE_CHUNK) {
        total += simd::block_norm_sqr(chunk);
    }
    total
}

/// Parallel [`chunked_norm_sqr`]; bit-for-bit equal to the serial form.
pub fn par_chunked_norm_sqr(amps: &[Complex], threads: usize) -> f64 {
    if threads <= 1 || amps.len() <= REDUCE_CHUNK {
        return chunked_norm_sqr(amps);
    }
    let blocks = amps.len().div_ceil(REDUCE_CHUNK);
    let partials = par_block_partials(blocks, threads, |b| {
        let base = b * REDUCE_CHUNK;
        simd::block_norm_sqr(&amps[base..amps.len().min(base + REDUCE_CHUNK)])
    });
    let mut total = 0.0;
    for p in partials {
        total += p;
    }
    total
}

/// Canonical chunked probability mass of the basis states satisfying
/// `pred`. Adding a skipped state's `+0.0` to a lane is bitwise identical
/// to not touching the lane, so this agrees exactly with
/// [`chunked_prob_mask`] when `pred(b) == (b & mask != 0)`.
pub fn chunked_prob_where<F: Fn(usize) -> bool>(amps: &[Complex], pred: F) -> f64 {
    chunked_sum(amps, |b, a| if pred(b) { a.norm_sqr() } else { 0.0 })
}

/// Parallel [`chunked_prob_where`]; bit-for-bit equal to the serial form.
pub fn par_chunked_prob_where<F>(amps: &[Complex], threads: usize, pred: F) -> f64
where
    F: Fn(usize) -> bool + Sync,
{
    par_chunked_sum(
        amps,
        threads,
        |b, a: &Complex| if pred(b) { a.norm_sqr() } else { 0.0 },
    )
}

/// Canonical chunked probability mass of the basis states `b` with
/// `b & mask != 0`, via the dispatched [`simd::block_prob_mask`] kernel.
/// Bitwise equal to `chunked_prob_where(amps, |b| b & mask != 0)` — the
/// single-qubit measurement reduction in vectorizable form.
pub fn chunked_prob_mask(amps: &[Complex], mask: usize) -> f64 {
    let mut total = 0.0;
    for (ci, chunk) in amps.chunks(REDUCE_CHUNK).enumerate() {
        total += simd::block_prob_mask(ci * REDUCE_CHUNK, chunk, mask);
    }
    total
}

/// Parallel [`chunked_prob_mask`]; bit-for-bit equal to the serial form.
pub fn par_chunked_prob_mask(amps: &[Complex], threads: usize, mask: usize) -> f64 {
    if threads <= 1 || amps.len() <= REDUCE_CHUNK {
        return chunked_prob_mask(amps, mask);
    }
    let blocks = amps.len().div_ceil(REDUCE_CHUNK);
    let partials = par_block_partials(blocks, threads, |b| {
        let base = b * REDUCE_CHUNK;
        simd::block_prob_mask(base, &amps[base..amps.len().min(base + REDUCE_CHUNK)], mask)
    });
    let mut total = 0.0;
    for p in partials {
        total += p;
    }
    total
}

/// Canonical chunked inner product `⟨a|b⟩` of two equal-length dense
/// amplitude slices: per-block complex partials ([`simd::block_inner`],
/// stratified over [`REDUCE_COMPLEX_LANES`] lanes) folded in block order.
pub fn chunked_inner(a: &[Complex], b: &[Complex]) -> Complex {
    debug_assert_eq!(a.len(), b.len());
    let mut total = ZERO;
    for (ca, cb) in a.chunks(REDUCE_CHUNK).zip(b.chunks(REDUCE_CHUNK)) {
        total += simd::block_inner(ca, cb);
    }
    total
}

/// The canonical sum of one contiguous run of amplitudes, given as
/// `(offset, piece)` pairs in increasing run-offset order, each piece
/// starting at an even offset and lying inside one [`REDUCE_CHUNK`]
/// block of the run. The element at offset `o` adds into complex lane
/// `o & 1`; the lanes fold `l0 + l1` per block, and the blocks fold in
/// order — the stratification [`simd::block_inner`] uses. Every
/// backend's inversion about the mean sums through here. An offset no
/// piece covers counts as exactly `+0.0`, which leaves a lane's bits
/// unchanged (a lane that starts at `+0.0` never becomes `−0.0`), so a
/// sparse caller that passes only its stored blocks gets the dense
/// digits.
pub fn run_sum<'a>(pieces: impl IntoIterator<Item = (usize, &'a [Complex])>) -> Complex {
    let mut total = ZERO;
    let mut lanes = [ZERO; REDUCE_COMPLEX_LANES];
    let mut block = 0;
    for (offset, piece) in pieces {
        debug_assert!(offset.is_multiple_of(2));
        if offset / REDUCE_CHUNK != block {
            total += lanes[0] + lanes[1];
            lanes = [ZERO; REDUCE_COMPLEX_LANES];
            block = offset / REDUCE_CHUNK;
        }
        // Pairs, so the compiler vectorizes the two lanes without
        // reassociating either.
        let pairs = piece.chunks_exact(2);
        let rest = pairs.remainder();
        for pair in pairs {
            lanes[0] += pair[0];
            lanes[1] += pair[1];
        }
        if let [a] = rest {
            lanes[0] += *a;
        }
    }
    total + (lanes[0] + lanes[1])
}

/// `2 · mean` of a run of `len` amplitudes (a power of two) whose
/// canonical sum is `sum`: an exact power-of-two scale.
pub fn twice_mean(sum: Complex, len: usize) -> Complex {
    debug_assert!(len.is_power_of_two());
    sum.scale(2.0 / len as f64)
}

/// `a ← m2 − a` over `data`: the update of inversion about the mean.
pub fn reflect_through(m2: Complex, data: &mut [Complex]) {
    let mut pairs = data.chunks_exact_mut(2);
    for pair in &mut pairs {
        pair[0] = m2 - pair[0];
        pair[1] = m2 - pair[1];
    }
    for a in pairs.into_remainder() {
        *a = m2 - *a;
    }
}

/// Inversion about the mean over every contiguous run of `2^width`
/// amplitudes of `amps`: one [`run_sum`] pass per run, then
/// [`reflect_through`]. `amps.len()` must be a multiple of `2^width`.
pub fn invert_about_mean(amps: &mut [Complex], width: usize) {
    let len = 1usize << width;
    debug_assert!(amps.len().is_multiple_of(len));
    for run in amps.chunks_exact_mut(len) {
        let pieces = run.chunks(REDUCE_CHUNK).enumerate();
        let sum = run_sum(pieces.map(|(i, piece)| (i * REDUCE_CHUNK, piece)));
        reflect_through(twice_mean(sum, len), run);
    }
}

/// Parallel [`chunked_inner`]; bit-for-bit equal to the serial form.
pub fn par_chunked_inner(a: &[Complex], b: &[Complex], threads: usize) -> Complex {
    debug_assert_eq!(a.len(), b.len());
    if threads <= 1 || a.len() <= REDUCE_CHUNK {
        return chunked_inner(a, b);
    }
    let blocks = a.len().div_ceil(REDUCE_CHUNK);
    let partials = par_block_partials(blocks, threads, |bi| {
        let base = bi * REDUCE_CHUNK;
        let end = a.len().min(base + REDUCE_CHUNK);
        simd::block_inner(&a[base..end], &b[base..end])
    });
    let mut total = ZERO;
    for p in partials {
        total += p;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::ONE;

    fn ramp(n: usize) -> Vec<Complex> {
        (0..n)
            .map(|i| Complex::new(i as f64 * 0.01, -(i as f64) * 0.003))
            .collect()
    }

    #[test]
    fn for_each_chunk_mut_covers_whole_slice_with_aligned_offsets() {
        for threads in [1usize, 2, 3, 8] {
            let mut data: Vec<usize> = vec![0; 1024];
            for_each_chunk_mut(&mut data, 16, threads, |offset, chunk| {
                assert_eq!(offset % 16, 0, "threads={threads}");
                for (i, v) in chunk.iter_mut().enumerate() {
                    *v = offset + i;
                }
            });
            for (i, v) in data.iter().enumerate() {
                assert_eq!(*v, i, "threads={threads}");
            }
        }
    }

    #[test]
    fn for_each_pair_chunk_mut_pairs_matching_ranges() {
        for threads in [1usize, 2, 3, 8] {
            let mut lo: Vec<usize> = (0..100).collect();
            let mut hi: Vec<usize> = (100..200).collect();
            for_each_pair_chunk_mut(&mut lo, &mut hi, threads, |lc, hc| {
                assert_eq!(lc.len(), hc.len());
                for (l, h) in lc.iter_mut().zip(hc.iter_mut()) {
                    assert_eq!(*h, *l + 100, "pairs must stay aligned");
                    std::mem::swap(l, h);
                }
            });
            for (i, v) in lo.iter().enumerate() {
                assert_eq!(*v, i + 100, "threads={threads}");
            }
        }
    }

    #[test]
    fn parallel_sums_are_bitwise_equal_to_serial() {
        // Cross the REDUCE_CHUNK boundary with a ragged tail.
        let amps = ramp(3 * REDUCE_CHUNK + 17);
        let serial = chunked_norm_sqr(&amps);
        for threads in [1usize, 2, 3, 5, 8] {
            let par = par_chunked_norm_sqr(&amps, threads);
            assert_eq!(serial.to_bits(), par.to_bits(), "threads={threads}");
        }
        let serial_p = chunked_prob_where(&amps, |b| b % 3 == 0);
        for threads in [2usize, 7] {
            let par = par_chunked_prob_where(&amps, threads, |b| b % 3 == 0);
            assert_eq!(serial_p.to_bits(), par.to_bits(), "threads={threads}");
        }
    }

    #[test]
    fn parallel_inner_is_bitwise_equal_to_serial() {
        let a = ramp(2 * REDUCE_CHUNK + 5);
        let b: Vec<Complex> = a.iter().map(|c| *c * Complex::new(0.5, 0.25)).collect();
        let serial = chunked_inner(&a, &b);
        for threads in [2usize, 4, 9] {
            let par = par_chunked_inner(&a, &b, threads);
            assert_eq!(serial.re.to_bits(), par.re.to_bits(), "threads={threads}");
            assert_eq!(serial.im.to_bits(), par.im.to_bits(), "threads={threads}");
        }
    }

    #[test]
    fn chunked_sum_indexes_globally() {
        let amps = vec![ONE; REDUCE_CHUNK + 3];
        // Count the elements whose global index is beyond the first block.
        let count = chunked_sum(&amps, |i, _| if i >= REDUCE_CHUNK { 1.0 } else { 0.0 });
        assert_eq!(count, 3.0);
    }

    #[test]
    fn sparse_chunked_sum_matches_dense_bitwise() {
        // A dense vector that is zero except on a scattered support
        // spanning several blocks: the sparse iteration must reproduce
        // the dense chunked sum bit for bit.
        let len = 3 * REDUCE_CHUNK + 100;
        let support: Vec<usize> = (0..len).filter(|i| i % 97 == 13).collect();
        let mut dense = vec![ZERO; len];
        for &i in &support {
            dense[i] = Complex::new(0.01 + i as f64 * 1e-6, -1e-7 * i as f64);
        }
        let reference = chunked_norm_sqr(&dense);
        let sparse = chunked_sum_sparse(support.iter().map(|&i| (i, dense[i].norm_sqr())));
        assert_eq!(reference.to_bits(), sparse.to_bits());
        // Empty iteration sums to exactly zero.
        assert_eq!(
            chunked_sum_sparse(std::iter::empty()).to_bits(),
            0.0f64.to_bits()
        );
    }

    #[test]
    fn prob_mask_matches_prob_where_bitwise() {
        let amps = ramp(2 * REDUCE_CHUNK + 31);
        for &mask in &[1usize, 2, 1 << 5, (1 << 13) | 1, 3] {
            let via_pred = chunked_prob_where(&amps, |b| b & mask != 0);
            let via_mask = chunked_prob_mask(&amps, mask);
            assert_eq!(via_pred.to_bits(), via_mask.to_bits(), "mask={mask}");
            for threads in [2usize, 7] {
                let par = par_chunked_prob_mask(&amps, threads, mask);
                assert_eq!(
                    via_mask.to_bits(),
                    par.to_bits(),
                    "mask={mask} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn block_sum_with_stratifies_by_in_block_index() {
        // Lane assignment is j & 3: four elements landing in four distinct
        // lanes sum independently before the canonical fold.
        let chunk = [1.0f64, 2.0, 4.0, 8.0, 16.0];
        let s = block_sum_with(0, &chunk, |_, t| *t);
        // lanes: [1+16, 2, 4, 8] → ((17+2)+4)+8 = 31.
        assert_eq!(s, 31.0);
        // The base offset feeds the term's global index, not the lane.
        let idx_sum = block_sum_with(REDUCE_CHUNK, &chunk, |i, _| i as f64);
        let expected: f64 = (0..5).map(|j| (REDUCE_CHUNK + j) as f64).sum();
        assert_eq!(idx_sum, expected);
    }

    #[test]
    fn par_block_partials_orders_blocks() {
        for threads in [1usize, 2, 5, 16] {
            let partials = par_block_partials(11, threads, |b| b as f64);
            let expected: Vec<f64> = (0..11).map(|b| b as f64).collect();
            assert_eq!(partials, expected, "threads={threads}");
        }
    }

    #[test]
    fn available_threads_is_positive() {
        assert!(available_threads() >= 1);
    }
}
