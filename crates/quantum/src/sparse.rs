//! Sparse pure-state simulation: amplitudes in occupied blocks.
//!
//! [`SparseState`] stores a state as fixed-size blocks of `BLOCK_LEN`
//! contiguous amplitudes, keeping only the blocks that hold a
//! (numerically) nonzero amplitude, sorted by block index. Memory and
//! per-gate time scale with the occupied blocks rather than the `2^n`
//! dimension. This is exactly the structure the paper's procedure A3
//! exposes: its register `|i⟩|h⟩|l⟩` lives in a `2^{2k+2}`-dimensional
//! space but every reachable state is supported on at most `2·2^{2k}`
//! basis states (index register times the `h` branch; the `l` branch only
//! populates during the marking round), and
//! [`GroverLayout`](crate::GroverLayout) puts the index `i` in the low
//! `2k` qubits, so each `(h, l)` branch owns one contiguous quarter of
//! the index space and its support fills whole blocks. The
//! diagonal/permutation structured operators (`S_k`, `V_x`, `W_x`, `R_x`)
//! never grow the support at all, so recognizers over `O(log n)` live
//! qubits run in support-proportional memory.
//!
//! Inside a block every amplitude sits at its dense offset, `+0.0` off
//! the support, so the kernels are the dense backend's SIMD kernels: a
//! single-qubit gate on a qubit below the block width runs
//! [`simd::apply_single_run`] inside each block, one above it runs
//! [`simd::apply_single_pairs`] across partner blocks (a missing partner
//! is a zero block), and reflections and `add_scaled` run the dense axpy
//! kernels over the union of two block sets. Every kernel output goes
//! through one pruning rule — an amplitude whose squared magnitude falls
//! to the eviction threshold is stored as `+0.0` — and a block left with
//! no nonzero amplitude is dropped. Dense Hadamard sweeps (`U_k`) still
//! touch every occupied block per qubit and can double the support, as
//! they must — sparsity is a property of the states the workload
//! reaches, not a universal speed-up. Inversion about the mean (A3's
//! diffusion in closed form) sums each run's stored blocks in index
//! order, gives a run whose mean survives the pruning rule its missing
//! blocks, as the sweeps would fill them, and leaves a run whose mean is
//! zero on its stored blocks.
//!
//! The masked-window ops ([`QuantumBackend::swap_marked`] and
//! [`QuantumBackend::negate_marked`], which the streamed `V_x`/`W_x`/`R_x`
//! updates run once per 64 input bits) look up each block a window side
//! touches once — a side spans at most two blocks, and both sides share
//! the one block of a register narrower than a block — and address the
//! amplitudes inside directly. A swap that moves a nonzero amplitude into
//! a missing block inserts a zero block first; one that empties a block
//! leaves it for the next kernel to drop, so a streamed block of input
//! shifts the payload only when a branch first fills. A negation leaves
//! a stored `+0.0` as it is. Point reads find their block the same way.
//! The cross-backend equivalence suite pins this backend to the dense
//! reference at fidelity `≥ 1 − 1e−9`.

use crate::backend::QuantumBackend;
use crate::complex::{Complex, ONE, ZERO};
use crate::gate::Gate;
use crate::matrix::Matrix;
use crate::par;
use crate::simd;
use crate::snapshot::{SnapshotError, StateSnapshot};
use crate::state::StateVector;
use rand::Rng;

/// Amplitudes with squared magnitude below this are dropped from the
/// support (well under every tolerance the workspace tests at, and far
/// above f64 rounding noise accumulation over any circuit we run).
pub const SPARSE_PRUNE_EPS: f64 = 1e-30;

/// Log2 of the block length: 64 amplitudes, 1 KiB per block. A register
/// narrower than this is one block of `2^n` amplitudes.
const BLOCK_BITS: usize = 6;

/// Amplitudes per block.
const BLOCK_LEN: usize = 1 << BLOCK_BITS;

// Blocks must tile the chunked reductions' blocks, so a reduction chunk
// is a whole run of storage blocks.
const _: () = assert!(crate::par::REDUCE_CHUNK.is_multiple_of(BLOCK_LEN));

/// Where basis index `b` sits in the payload when its block is at
/// position `p`. A register narrower than a block has the one block 0, so
/// the full block width gives its block index and offset too.
#[inline]
fn slot(p: usize, b: usize) -> usize {
    (p << BLOCK_BITS) | (b & (BLOCK_LEN - 1))
}

/// A block of zeros: what every kernel that pairs blocks reads for a
/// missing one.
const ZERO_BLOCK: [Complex; BLOCK_LEN] = [ZERO; BLOCK_LEN];

/// One side of a masked-window op: the indices `start + j` for `j` in
/// `0..64`, which fall in at most two consecutive blocks.
#[derive(Clone, Copy)]
struct WindowSide {
    start: usize,
    /// Positions of the block of `start` and of the next block, `None`
    /// where the block is not stored (or, past `reach`, not touched).
    blocks: [Option<usize>; 2],
    /// How many of the two blocks the window touches.
    reach: usize,
}

impl WindowSide {
    /// Which of the side's blocks holds `start + j`.
    #[inline]
    fn which(&self, j: usize) -> usize {
        ((self.start + j) >> BLOCK_BITS) - (self.start >> BLOCK_BITS)
    }

    /// Where `start + j` is stored, or `None` when its block is missing.
    #[inline]
    fn slot(&self, j: usize) -> Option<usize> {
        self.blocks[self.which(j)].map(|p| slot(p, self.start + j))
    }

    /// True when every block the window touches is stored.
    fn complete(&self) -> bool {
        self.blocks[..self.reach].iter().all(Option::is_some)
    }

    /// True when no block the window touches is stored: it reads zeros.
    fn is_empty(&self) -> bool {
        self.blocks[..self.reach].iter().all(Option::is_none)
    }
}

/// A pure quantum state storing only the blocks of amplitudes that hold a
/// nonzero one.
///
/// Blocks are kept strictly sorted by block index, so iteration — and
/// therefore sampling, probability sums and `Debug` output — is
/// deterministic and visits the support in the dense backend's order.
///
/// `prune_eps` is the squared-magnitude eviction threshold, normally
/// [`SPARSE_PRUNE_EPS`]. The adaptive backend runs its sparse phase in
/// **exact mode** (`prune_eps = 0.0`: only exact zeros are evicted), so
/// even sub-`1e-15` near-cancellation residues — which later gates remix
/// into nonzero amplitudes — stay bit-for-bit aligned with the dense
/// reference.
#[derive(Clone)]
pub struct SparseState {
    n: usize,
    /// Block indices (basis index `>> BLOCK_BITS`), strictly increasing.
    keys: Vec<usize>,
    /// Nonzero amplitudes in each block, parallel to `keys`.
    counts: Vec<u32>,
    /// The blocks' amplitudes, one run of the block length per key in key
    /// order. Each is `+0.0` or has squared magnitude above `prune_eps`.
    amps: Vec<Complex>,
    /// Nonzero amplitudes over all blocks.
    support: usize,
    /// A window swap has emptied a block since the last kernel. Kernels
    /// drop empty blocks; window ops leave them, so streaming does not
    /// shift the payload to drop one.
    emptied: bool,
    prune_eps: f64,
}

impl SparseState {
    /// Read-only view of the nonzero `(basis index, amplitude)` pairs in
    /// increasing index order.
    pub fn entries(&self) -> impl Iterator<Item = (usize, Complex)> + '_ {
        let len = self.block_len();
        self.blocks().flat_map(move |(key, block)| {
            block
                .iter()
                .enumerate()
                .filter(|&(_, &a)| a != ZERO)
                .map(move |(j, &a)| (key * len + j, a))
        })
    }

    /// Number of nonzero stored amplitudes — the same value as
    /// [`QuantumBackend::support`], exposed inherently so audit code can
    /// assert on it without importing the backend trait. This is the
    /// number the pruning invariant bounds: every nonzero stored amplitude
    /// has squared magnitude above [`SPARSE_PRUNE_EPS`].
    pub fn support_len(&self) -> usize {
        self.support
    }

    /// The representation-audit hook: panics unless the block invariants
    /// hold. Block indices strictly increase, which every lookup and
    /// merge relies on. Each stored amplitude is `+0.0` or above the
    /// eviction threshold, so no amplitude driven to (numerical) zero
    /// silently grows the support. The per-block counts and the support
    /// count match the nonzero amplitudes. No empty block survives a
    /// kernel. The cross-backend equivalence suite calls this after every
    /// operation it checks.
    pub fn assert_support_pruned(&self) {
        for pair in self.keys.windows(2) {
            assert!(
                pair[0] < pair[1],
                "blocks out of order: block {} stored before {}",
                pair[0],
                pair[1]
            );
        }
        assert_eq!(self.counts.len(), self.keys.len(), "one count per block");
        assert_eq!(
            self.amps.len(),
            self.keys.len() * self.block_len(),
            "one run of amplitudes per block"
        );
        let len = self.block_len();
        let mut total = 0;
        for ((key, block), &count) in self.blocks().zip(&self.counts) {
            for (j, &a) in block.iter().enumerate() {
                let placeholder = a.re.to_bits() == 0 && a.im.to_bits() == 0;
                assert!(
                    placeholder || a.norm_sqr() > self.prune_eps,
                    "sub-threshold value left in a block at basis index {}: {a:?}",
                    key * len + j
                );
            }
            let nonzero = block.iter().filter(|&&a| a != ZERO).count();
            assert_eq!(count as usize, nonzero, "count of block {key} is stale");
            assert!(
                nonzero > 0 || self.emptied,
                "empty block {key} survived a kernel"
            );
            total += nonzero;
        }
        assert_eq!(
            self.support, total,
            "support count disagrees with the stored amplitudes"
        );
    }

    /// Exact densification: scatters the support into a full amplitude
    /// vector with exact `+0.0` off the support, **without** the
    /// renormalization `to_dense` applies. This is the adaptive backend's
    /// promotion path — scaling by `1/norm` (even with `norm ≈ 1`) would
    /// perturb amplitude bits and break its bit-for-bit-equals-dense
    /// contract.
    pub(crate) fn densify_exact(&self) -> StateVector {
        StateVector::from_amplitudes_unchecked(self.scatter())
    }

    /// Switches this state to exact mode: only exact zeros are evicted
    /// from the support. The adaptive backend's sparse phase runs here —
    /// it is what makes "adaptive equals dense digit for digit" hold
    /// through near-cancellations. Call on a freshly initialized state
    /// (past pruning is not undone).
    pub(crate) fn set_exact_mode(&mut self) {
        self.prune_eps = 0.0;
    }

    /// [`QuantumBackend::restore`] with an explicit eviction threshold
    /// (the adaptive backend restores in exact mode so residues carried
    /// by its own snapshots survive the round trip).
    pub(crate) fn restore_with_eps(snap: &StateSnapshot, eps: f64) -> Result<Self, SnapshotError> {
        let dec = snap.decode()?;
        if dec.num_qubits >= usize::BITS as usize {
            return Err(SnapshotError::Malformed("qubit count out of range"));
        }
        // Decoding guarantees strictly increasing indices. Dense
        // encodings carry explicit zeros; keep exactly what the target
        // mode's setters would have kept, so the blocks follow what is
        // kept, not the encoding's length, which for a dense snapshot is
        // the whole dimension.
        Ok(Self::from_sorted(dec.num_qubits, dec.entries, eps))
    }

    /// A state over `n` qubits holding `entries` (strictly increasing by
    /// index), each kept unless it falls to `prune_eps`.
    fn from_sorted(
        n: usize,
        entries: impl IntoIterator<Item = (usize, Complex)>,
        prune_eps: f64,
    ) -> Self {
        let mut s = SparseState {
            n,
            keys: Vec::new(),
            counts: Vec::new(),
            amps: Vec::new(),
            support: 0,
            emptied: false,
            prune_eps,
        };
        let len = s.block_len();
        for (b, a) in entries {
            if a.norm_sqr() <= prune_eps {
                continue;
            }
            let key = b >> BLOCK_BITS;
            if s.keys.last() != Some(&key) {
                s.keys.push(key);
                s.counts.push(0);
                s.amps.resize(s.amps.len() + len, ZERO);
            }
            let p = s.keys.len() - 1;
            s.amps[slot(p, b)] = a;
            s.counts[p] += 1;
            s.support += 1;
        }
        s
    }

    fn single(n: usize, b: usize) -> Self {
        Self::from_sorted(n, [(b, ONE)], SPARSE_PRUNE_EPS)
    }

    /// Log2 of this register's block length.
    #[inline]
    fn block_bits(&self) -> usize {
        self.n.min(BLOCK_BITS)
    }

    #[inline]
    fn block_len(&self) -> usize {
        1 << self.block_bits()
    }

    /// `(block index, amplitudes)` for every stored block, in order.
    fn blocks(&self) -> impl Iterator<Item = (usize, &[Complex])> {
        self.keys
            .iter()
            .copied()
            .zip(self.amps.chunks_exact(self.block_len()))
    }

    /// The amplitudes of the block at position `p`.
    #[inline]
    fn block(&self, p: usize) -> &[Complex] {
        let len = self.block_len();
        &self.amps[p * len..(p + 1) * len]
    }

    /// Panics unless `b` is a basis index of this register.
    #[inline]
    fn check_index(&self, b: usize) {
        // n ≤ 63, so the shift cannot overflow.
        assert!(
            b >> self.n == 0,
            "basis index {b} out of range for {} qubits",
            self.n
        );
    }

    /// Position of block `key` (`Err` holds its insertion point). An A3
    /// branch fills a whole run of consecutive blocks, so the block
    /// usually sits `key − first key` places in; that slot is tried
    /// first.
    #[inline]
    fn find(&self, key: usize) -> Result<usize, usize> {
        let guess = key.wrapping_sub(self.keys.first().map_or(0, |&first| first));
        match self.keys.get(guess) {
            Some(&k) if k == key => Ok(guess),
            _ => self.search(key),
        }
    }

    /// [`Self::find`] past its first guess. A key past the last block
    /// (the empty `l` branch, which every streamed `V_x` bit reads) is
    /// answered at once. Keys strictly increase, so no key sits further
    /// in than its distance from the first.
    fn search(&self, key: usize) -> Result<usize, usize> {
        match (self.keys.first(), self.keys.last()) {
            (Some(&first), Some(&last)) if first <= key && key <= last => {
                self.keys[..(key - first).min(self.keys.len())].binary_search(&key)
            }
            (Some(&first), _) if first <= key => Err(self.keys.len()),
            _ => Err(0),
        }
    }

    /// Inserts a zero block for `key` at `p`, its insertion point.
    fn insert_zero_block(&mut self, p: usize, key: usize) {
        let len = self.block_len();
        self.keys.insert(p, key);
        self.counts.insert(p, 0);
        self.amps
            .splice(p * len..p * len, std::iter::repeat_n(ZERO, len));
    }

    /// The blocks a window side starting at index `start` touches, for a
    /// mask whose highest set bit is `top`: the block of `start`, and the
    /// next one when `start + top` reaches it.
    fn window_side(&self, start: usize, top: usize) -> WindowSide {
        let key = start >> BLOCK_BITS;
        let reach = 1 + ((start + top) >> BLOCK_BITS) - key;
        let second = if reach == 2 {
            self.find(key + 1).ok()
        } else {
            None
        };
        WindowSide {
            start,
            blocks: [self.find(key).ok(), second],
            reach,
        }
    }

    /// Inserts a zero block for every key of `new`, which must be strictly
    /// increasing and hold no stored key.
    fn insert_zero_blocks(&mut self, new: &[usize]) {
        if new.is_empty() {
            return;
        }
        let len = self.block_len();
        let total = self.keys.len() + new.len();
        let mut keys = Vec::with_capacity(total);
        let mut counts = Vec::with_capacity(total);
        let mut amps = Vec::with_capacity(total * len);
        let mut new = new.iter().copied().peekable();
        for (p, &key) in self.keys.iter().enumerate() {
            while let Some(k) = new.next_if(|&k| k < key) {
                keys.push(k);
                counts.push(0);
                amps.extend_from_slice(&ZERO_BLOCK[..len]);
            }
            keys.push(key);
            counts.push(self.counts[p]);
            amps.extend_from_slice(self.block(p));
        }
        for k in new {
            keys.push(k);
            counts.push(0);
            amps.extend_from_slice(&ZERO_BLOCK[..len]);
        }
        self.keys = keys;
        self.counts = counts;
        self.amps = amps;
    }

    /// Adds a zero block for every block `other` stores and this state
    /// does not, so a kernel over both can walk this state's blocks.
    fn cover(&mut self, other: &[usize]) {
        let mut p = 0;
        let mut missing = Vec::new();
        for &k in other {
            while p < self.keys.len() && self.keys[p] < k {
                p += 1;
            }
            if self.keys.get(p) != Some(&k) {
                missing.push(k);
            }
        }
        self.insert_zero_blocks(&missing);
    }

    /// Position in `keys` of every block of this state, or `None` where
    /// `keys` lacks it; both key lists strictly increase.
    fn match_blocks<'a>(&'a self, keys: &'a [usize]) -> impl Iterator<Item = Option<usize>> + 'a {
        let mut q = 0;
        self.keys.iter().map(move |&k| {
            while q < keys.len() && keys[q] < k {
                q += 1;
            }
            (keys.get(q) == Some(&k)).then_some(q)
        })
    }

    /// The pruning rule over every block, which every kernel ends with:
    /// an amplitude at or below `prune_eps` is stored as `+0.0`. Recounts
    /// the blocks and the support and drops the blocks left empty.
    fn prune(&mut self) {
        let (eps, len) = (self.prune_eps, self.block_len());
        let mut kept = 0;
        self.support = 0;
        for p in 0..self.keys.len() {
            let mut count = 0u32;
            for a in &mut self.amps[p * len..(p + 1) * len] {
                // A select, not a branch: mid-sweep supports are full of
                // exact zeros in no pattern a predictor could learn.
                let keep = a.norm_sqr() > eps;
                *a = if keep { *a } else { ZERO };
                count += u32::from(keep);
            }
            if count == 0 {
                continue;
            }
            if kept != p {
                self.amps.copy_within(p * len..(p + 1) * len, kept * len);
                self.keys[kept] = self.keys[p];
            }
            self.counts[kept] = count;
            self.support += count as usize;
            kept += 1;
        }
        self.keys.truncate(kept);
        self.counts.truncate(kept);
        self.amps.truncate(kept * len);
        self.emptied = false;
    }

    /// The support scattered into a dense vector, exact `+0.0` elsewhere.
    fn scatter(&self) -> Vec<Complex> {
        assert!(self.n <= 28, "dense representation limited to 28 qubits");
        let mut amps = vec![ZERO; 1usize << self.n];
        let len = self.block_len();
        for (key, block) in self.blocks() {
            amps[key * len..(key + 1) * len].copy_from_slice(block);
        }
        amps
    }
}

impl QuantumBackend for SparseState {
    fn zero(n: usize) -> Self {
        assert!(n < usize::BITS as usize, "basis indices must fit in usize");
        Self::single(n, 0)
    }

    fn basis(n: usize, b: usize) -> Self {
        assert!(n < usize::BITS as usize, "basis indices must fit in usize");
        // n ≤ 63, so the shift cannot overflow.
        assert!(b < (1usize << n), "basis index out of range");
        Self::single(n, b)
    }

    fn uniform(n: usize) -> Self {
        assert!(n <= 28, "a uniform state is dense; limited to 28 qubits");
        let len = 1usize << n;
        let amp = Complex::real(1.0 / (len as f64).sqrt());
        Self::from_sorted(n, (0..len).map(|b| (b, amp)), SPARSE_PRUNE_EPS)
    }

    fn from_amplitudes(amps: Vec<Complex>) -> Self {
        let len = amps.len();
        assert!(len.is_power_of_two() && len > 0, "length must be 2^n");
        let n = len.trailing_zeros() as usize;
        // Chunked like the dense constructor, so both backends scale a
        // shared amplitude vector by bitwise-identical factors.
        let norm = crate::par::chunked_norm_sqr(&amps).sqrt();
        assert!(
            norm > crate::state::STATE_EPS,
            "cannot normalize the zero vector"
        );
        let inv = 1.0 / norm;
        Self::from_sorted(
            n,
            amps.into_iter().enumerate().map(|(b, a)| (b, a.scale(inv))),
            SPARSE_PRUNE_EPS,
        )
    }

    fn num_qubits(&self) -> usize {
        self.n
    }

    fn support(&self) -> usize {
        self.support
    }

    fn amp(&self, b: usize) -> Complex {
        self.check_index(b);
        self.find(b >> BLOCK_BITS)
            .map_or(ZERO, |p| self.amps[slot(p, b)])
    }

    fn norm(&self) -> f64 {
        // Chunk-ordered per the summation contract (crate::par): the
        // support iterates in increasing index order, so grouping terms
        // by REDUCE_CHUNK block reproduces the dense reduction bit for
        // bit — what keeps the adaptive backend's sparse phase on the
        // dense backend's digits.
        crate::par::chunked_sum_sparse(self.entries().map(|(b, a)| (b, a.norm_sqr()))).sqrt()
    }

    fn normalize(&mut self) {
        let norm = self.norm();
        assert!(
            norm > crate::state::STATE_EPS,
            "cannot normalize the zero vector"
        );
        // The dense kernel: `+0.0` scales to `+0.0`.
        simd::scale(&mut self.amps, 1.0 / norm);
    }

    fn inner(&self, other: &Self) -> Complex {
        assert_eq!(self.n, other.n, "qubit count mismatch");
        // Terms over the common support, summed in increasing index
        // order: conj(self_b) · other_b.
        let mut sum = ZERO;
        for (p, q) in self.match_blocks(&other.keys).enumerate() {
            let Some(q) = q else { continue };
            for (&a, &o) in self.block(p).iter().zip(other.block(q)) {
                if a != ZERO && o != ZERO {
                    sum += a.conj() * o;
                }
            }
        }
        sum
    }

    fn to_dense(&self) -> StateVector {
        StateVector::from_amplitudes(self.scatter())
    }

    fn snapshot(&self) -> StateSnapshot {
        StateSnapshot::encode_sparse(self.n, self.entries())
    }

    fn restore(snap: &StateSnapshot) -> Result<Self, SnapshotError> {
        Self::restore_with_eps(snap, SPARSE_PRUNE_EPS)
    }

    fn apply_gate(&mut self, gate: &Gate) {
        assert!(
            gate.is_well_formed(),
            "gate operands must be distinct: {gate:?}"
        );
        assert!(
            gate.max_qubit() < self.n,
            "gate {gate:?} out of range for {} qubits",
            self.n
        );
        match crate::backend::gate_kernel(gate) {
            crate::backend::GateKernel::Diagonal { mask, phase } => {
                self.phase_if(|b| b & mask == mask, phase)
            }
            crate::backend::GateKernel::ControlledFlip { controls, xor } => {
                self.permute_in_place(|b| if b & controls == controls { b ^ xor } else { b })
            }
            crate::backend::GateKernel::SwapBits { a, b } => {
                self.permute_in_place(|i| {
                    let ba = (i >> a) & 1;
                    let bb = (i >> b) & 1;
                    if ba != bb {
                        i ^ (1usize << a) ^ (1usize << b)
                    } else {
                        i
                    }
                });
            }
            crate::backend::GateKernel::Single { q } => self.apply_single(q, &gate.local_matrix()),
        }
    }

    fn apply_single(&mut self, q: usize, m: &Matrix) {
        assert!(q < self.n, "qubit {q} out of range for {} qubits", self.n);
        assert_eq!((m.rows(), m.cols()), (2, 2), "expected 2x2 matrix");
        let bits = self.block_bits();
        if q < bits {
            // Every pair lies inside one block, and every block is a
            // whole number of pair runs: one dense sweep over the payload.
            simd::apply_single_run(&mut self.amps, 1 << q, m);
        } else {
            // Pairs span partner blocks `key` and `key | kbit`. Give every
            // block its partner (zeros where none is stored), then run the
            // dense pair kernel across each lo/hi block pair. The partners
            // of the bit-clear keys increase with the key, as do those of
            // the bit-set keys: one forward cursor each.
            let kbit = 1usize << (q - bits);
            let mut cursors = [0usize; 2];
            let mut missing = Vec::new();
            for &k in &self.keys {
                let partner = k ^ kbit;
                let c = &mut cursors[usize::from(k & kbit != 0)];
                while *c < self.keys.len() && self.keys[*c] < partner {
                    *c += 1;
                }
                if self.keys.get(*c) != Some(&partner) {
                    missing.push(partner);
                }
            }
            missing.sort_unstable();
            self.insert_zero_blocks(&missing);
            let len = self.block_len();
            let mut hi = 0;
            for lo in 0..self.keys.len() {
                let key = self.keys[lo];
                if key & kbit != 0 {
                    continue;
                }
                while self.keys[hi] != key | kbit {
                    hi += 1;
                }
                let (los, his) = self.amps.split_at_mut(hi * len);
                simd::apply_single_pairs(&mut los[lo * len..(lo + 1) * len], &mut his[..len], m);
            }
        }
        self.prune();
    }

    fn phase_if<F: Fn(usize) -> bool + Sync>(&mut self, pred: F, phase: Complex) {
        // Diagonal: the support cannot grow, so only the stored blocks
        // are visited.
        let len = self.block_len();
        for (&key, block) in self.keys.iter().zip(self.amps.chunks_exact_mut(len)) {
            for (j, a) in block.iter_mut().enumerate() {
                if pred(key * len + j) {
                    *a *= phase;
                }
            }
        }
        self.prune();
    }

    fn permute_in_place<F: Fn(usize) -> usize>(&mut self, f: F) {
        // A permutation re-keys the support without changing its size.
        let mut moved: Vec<(usize, Complex)> = self
            .entries()
            .map(|(b, a)| {
                let t = f(b);
                debug_assert_eq!(f(t), b, "permutation must be an involution");
                (t, a)
            })
            .collect();
        moved.sort_unstable_by_key(|&(b, _)| b);
        *self = Self::from_sorted(self.n, moved, self.prune_eps);
    }

    fn swap_marked(&mut self, base: usize, mask: u64, a: usize, b: usize) {
        if mask == 0 {
            return;
        }
        debug_assert_ne!(a, b, "a swap pairs two distinct offsets");
        crate::backend::check_window(self.n, base, mask, a.max(b));
        let top = 63 - mask.leading_zeros() as usize;
        let (mut sa, mut sb) = (
            self.window_side(base + a, top),
            self.window_side(base + b, top),
        );
        if sa.is_empty() && sb.is_empty() {
            // Zeros trade places with zeros (the `l` branch before the
            // marking round).
            return;
        }
        if !(sa.complete() && sb.complete()) {
            // A nonzero amplitude moving into a missing block needs the
            // block first; a zero moving there leaves it missing.
            let mut new = [usize::MAX; 4];
            let mut count = 0;
            for j in crate::backend::marked(mask) {
                let dst = match (sa.slot(j), sb.slot(j)) {
                    (None, Some(i)) if self.amps[i] != ZERO => sa.start + j,
                    (Some(i), None) if self.amps[i] != ZERO => sb.start + j,
                    _ => continue,
                };
                let key = dst >> BLOCK_BITS;
                if !new[..count].contains(&key) {
                    new[count] = key;
                    count += 1;
                }
            }
            if count > 0 {
                for &key in &new[..count] {
                    if let Err(p) = self.find(key) {
                        self.insert_zero_block(p, key);
                    }
                }
                sa = self.window_side(base + a, top);
                sb = self.window_side(base + b, top);
            }
        }
        // Counts move by the nonzero amplitudes that change blocks; the
        // support is unchanged.
        let mut delta = [[0i32; 2]; 2];
        for j in crate::backend::marked(mask) {
            // Still missing: both amplitudes are zero.
            let (Some(ia), Some(ib)) = (sa.slot(j), sb.slot(j)) else {
                continue;
            };
            let (va, vb) = (self.amps[ia], self.amps[ib]);
            self.amps[ia] = vb;
            self.amps[ib] = va;
            let d = i32::from(vb != ZERO) - i32::from(va != ZERO);
            delta[0][sa.which(j)] += d;
            delta[1][sb.which(j)] -= d;
        }
        for (side, delta) in [sa, sb].iter().zip(delta) {
            for (p, d) in side.blocks.iter().zip(delta) {
                if let Some(p) = *p {
                    self.counts[p] = self.counts[p].wrapping_add_signed(d);
                }
            }
        }
        for side in [sa, sb] {
            for p in side.blocks.into_iter().flatten() {
                self.emptied |= self.counts[p] == 0;
            }
        }
    }

    fn negate_marked(&mut self, base: usize, mask: u64, a: usize) {
        if mask == 0 {
            return;
        }
        crate::backend::check_window(self.n, base, mask, a);
        let side = self.window_side(base + a, 63 - mask.leading_zeros() as usize);
        if side.is_empty() {
            return;
        }
        for j in crate::backend::marked(mask) {
            if let Some(i) = side.slot(j) {
                // A stored zero stays `+0.0`, as the pruned write of
                // `−0.0` leaves it.
                if self.amps[i] != ZERO {
                    self.amps[i] = -self.amps[i];
                }
            }
        }
    }

    fn invert_about_mean(&mut self, width: usize) {
        assert!(
            width <= self.n,
            "run width {width} out of range for {} qubits",
            self.n
        );
        let (bits, len) = (self.block_bits(), self.block_len());
        if width <= bits {
            // Every run lies inside one block, and a missing block's runs
            // sum to zero and stay zero: the dense op over the payload.
            par::invert_about_mean(&mut self.amps, width);
            self.prune();
            return;
        }
        // A run is `2^shift` consecutive blocks, so its stored blocks are
        // consecutive in `keys`; summing only those gives the dense sum.
        let shift = width - bits;
        let run_of = |key: usize| key >> shift;
        let mut runs = Vec::new();
        let mut missing = Vec::new();
        let mut p = 0;
        while p < self.keys.len() {
            let run = run_of(self.keys[p]);
            let end = p + self.keys[p..].partition_point(|&k| run_of(k) == run);
            let offsets = self.keys[p..end]
                .iter()
                .map(|&k| (k - (run << shift)) * len);
            let blocks = self.amps[p * len..end * len].chunks_exact(len);
            let m2 = par::twice_mean(par::run_sum(offsets.zip(blocks)), 1usize << width);
            // A mean the pruning rule would drop fills nothing.
            let mut count = end - p;
            if m2.norm_sqr() > self.prune_eps {
                let mut stored = self.keys[p..end].iter().peekable();
                for key in run << shift..(run + 1) << shift {
                    if stored.next_if_eq(&&key).is_none() {
                        missing.push(key);
                    }
                }
                count = 1 << shift;
            }
            runs.push((count, m2));
            p = end;
        }
        self.insert_zero_blocks(&missing);
        let mut p = 0;
        for (count, m2) in runs {
            par::reflect_through(m2, &mut self.amps[p * len..(p + count) * len]);
            p += count;
        }
        self.prune();
    }

    fn reflect_about(&mut self, psi: &Self) {
        assert_eq!(self.n, psi.n, "qubit count mismatch");
        let overlap = psi.inner(self);
        // s ← 2⟨ψ|s⟩·ψ − s over the union of the two block sets.
        self.cover(&psi.keys);
        let len = self.block_len();
        let partners: Vec<Option<usize>> = self.match_blocks(&psi.keys).collect();
        for (dst, q) in self.amps.chunks_exact_mut(len).zip(partners) {
            let p = q.map_or(&ZERO_BLOCK[..len], |q| psi.block(q));
            simd::reflect_about(dst, p, overlap);
        }
        self.prune();
    }

    fn add_scaled(&mut self, other: &Self, coeff: Complex) {
        assert_eq!(self.n, other.n, "qubit count mismatch");
        // Blocks only `self` holds are left untouched.
        self.cover(&other.keys);
        let len = self.block_len();
        let partners: Vec<Option<usize>> = self.match_blocks(&other.keys).collect();
        for (dst, q) in self.amps.chunks_exact_mut(len).zip(partners) {
            if let Some(q) = q {
                simd::add_scaled(dst, other.block(q), coeff);
            }
        }
        self.prune();
    }

    fn prob_one(&self, q: usize) -> f64 {
        assert!(q < self.n);
        let mask = 1usize << q;
        self.probability_where(|b| b & mask != 0)
    }

    fn probability_where<F: Fn(usize) -> bool + Sync>(&self, pred: F) -> f64 {
        // Chunk-ordered (see `norm`): bitwise equal to the dense
        // chunked_prob_where over the equivalent dense vector.
        crate::par::chunked_sum_sparse(
            self.entries()
                .map(|(b, a)| (b, if pred(b) { a.norm_sqr() } else { 0.0 })),
        )
    }

    fn probabilities(&self) -> Vec<f64> {
        let mut out = Vec::new();
        self.probabilities_into(&mut out);
        out
    }

    fn probabilities_into(&self, out: &mut Vec<f64>) {
        assert!(self.n <= 28, "dense distribution limited to 28 qubits");
        out.clear();
        out.resize(1usize << self.n, 0.0);
        for (b, a) in self.entries() {
            out[b] = a.norm_sqr();
        }
    }

    fn collapse_qubit(&mut self, q: usize, outcome: u8) {
        let mask = 1usize << q;
        let len = self.block_len();
        for (&key, block) in self.keys.iter().zip(self.amps.chunks_exact_mut(len)) {
            for (j, a) in block.iter_mut().enumerate() {
                if u8::from((key * len + j) & mask != 0) != outcome {
                    *a = ZERO;
                }
            }
        }
        self.prune();
        self.normalize();
    }

    fn sample_basis<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        // Mirrors the dense prefix scan exactly: skip whole REDUCE_CHUNK
        // blocks by their stratified block mass, then walk the block the
        // variate lands in. Off-support terms are `+0.0` in both the
        // block sums and the walk, so every skip/return decision is
        // bitwise identical to the dense backend's and the same random
        // variate yields the same sample. A reduction block with no
        // stored block has mass `+0.0` and can never be returned from, so
        // the scan visits only the runs of stored blocks.
        let mut u: f64 = rng.gen();
        let len = self.block_len();
        let chunk_of = |key: usize| key * len / crate::par::REDUCE_CHUNK;
        let mut rest = &self.keys[..];
        let mut first = 0;
        while let Some(&key) = rest.first() {
            let run = rest.partition_point(|&k| chunk_of(k) == chunk_of(key));
            let slots = &self.amps[first * len..(first + run) * len];
            let indices = rest[..run]
                .iter()
                .flat_map(|&k| k * len..(k + 1) * len)
                .zip(slots);
            rest = &rest[run..];
            first += run;
            let mut lanes = [0.0f64; crate::par::REDUCE_LANES];
            for (b, a) in indices.clone() {
                // Block bases are multiples of the lane count, so the
                // global index selects the same lane as the in-block one.
                lanes[b & (crate::par::REDUCE_LANES - 1)] += a.norm_sqr();
            }
            let s = simd::scalar::fold_lanes(lanes);
            if u > s {
                u -= s;
                continue;
            }
            for (b, &a) in indices {
                if a == ZERO {
                    continue;
                }
                u -= a.norm_sqr();
                if u <= 0.0 {
                    return b;
                }
            }
        }
        self.entries().last().map_or(0, |(b, _)| b)
    }
}

/// Equal states: the same width, eviction threshold and support.
impl PartialEq for SparseState {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n && self.prune_eps == other.prune_eps && self.entries().eq(other.entries())
    }
}

impl std::fmt::Debug for SparseState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "SparseState({} qubits, support {}) [",
            self.n, self.support
        )?;
        for (b, a) in self.entries() {
            if !a.is_approx_zero(1e-12) {
                writeln!(f, "  |{:0width$b}⟩: {:?}", b, a, width = self.n)?;
            }
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::structured::GroverLayout;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const EPS: f64 = 1e-10;

    #[test]
    fn zero_and_basis_have_unit_support() {
        let z = SparseState::zero(5);
        assert_eq!(z.support(), 1);
        assert!(z.amp(0).approx_eq(ONE, EPS));
        let b = SparseState::basis(5, 19);
        assert_eq!(b.support(), 1);
        assert!(b.amp(19).approx_eq(ONE, EPS));
        assert!((b.norm() - 1.0).abs() < EPS);
    }

    #[test]
    fn zero_beyond_dense_limit_is_cheap() {
        // The whole point of the sparse backend: 50 "qubits" cost one block.
        let s = SparseState::zero(50);
        assert_eq!(s.support(), 1);
        assert_eq!(s.num_qubits(), 50);
        assert_eq!(s.keys.len(), 1);
    }

    #[test]
    fn hadamard_grows_support_geometrically() {
        let mut s = SparseState::zero(10);
        for q in 0..4 {
            s.apply_gate(&Gate::H(q));
            assert_eq!(s.support(), 1 << (q + 1));
        }
        assert!((s.norm() - 1.0).abs() < EPS);
        for b in 0..16 {
            assert!(s.amp(b).approx_eq(Complex::real(0.25), EPS));
        }
    }

    #[test]
    fn matches_dense_on_bell_state() {
        let mut sp = SparseState::zero(2);
        let mut dv = StateVector::zero(2);
        for g in [
            Gate::H(0),
            Gate::Cnot {
                control: 0,
                target: 1,
            },
        ] {
            sp.apply_gate(&g);
            dv.apply(&g);
        }
        assert!((sp.to_dense().fidelity(&dv) - 1.0).abs() < 1e-12);
        assert_eq!(sp.support(), 2);
    }

    #[test]
    fn diagonal_and_permutation_ops_preserve_support() {
        let mut s = SparseState::zero(6);
        s.apply_hadamard_all(&[0, 1, 2]);
        let before = s.support();
        s.phase_if(|b| b % 3 == 1, Complex::from_phase(0.7));
        s.permute_in_place(|b| b ^ 0b101);
        s.apply_gate(&Gate::Cz(0, 2));
        s.apply_gate(&Gate::X(4));
        assert_eq!(s.support(), before);
        assert!((s.norm() - 1.0).abs() < EPS);
    }

    #[test]
    fn collapse_shrinks_support_and_renormalizes() {
        let mut s = SparseState::uniform(3);
        assert_eq!(s.support(), 8);
        s.collapse_qubit(1, 1);
        assert_eq!(s.support(), 4);
        assert!((s.norm() - 1.0).abs() < EPS);
        assert_eq!(s.prob_one(1), 1.0);
    }

    #[test]
    #[should_panic(expected = "basis index out of range")]
    fn basis_out_of_range_panics_at_max_width() {
        let _ = SparseState::basis(63, usize::MAX);
    }

    #[test]
    #[should_panic(expected = "out of range for 3 qubits")]
    fn window_op_outside_the_register_panics() {
        // Indices 1 + 4 + 2 = 7 fit; bit 3 reaches 3 + 4 + 2 = 9.
        let mut s = SparseState::zero(3);
        s.swap_marked(1, 0b101, 2, 4);
        s.swap_marked(1, 0b1000, 2, 4);
    }

    #[test]
    #[should_panic(expected = "out of range for 3 qubits")]
    fn point_read_outside_the_register_panics() {
        let _ = SparseState::zero(3).amp(8);
    }

    #[test]
    #[should_panic(expected = "cannot normalize")]
    fn collapse_impossible_outcome_panics() {
        let mut s = SparseState::zero(2);
        s.collapse_qubit(0, 1);
    }

    #[test]
    fn measurement_statistics_match_dense() {
        let mut sp = SparseState::zero(1);
        sp.apply_gate(&Gate::Ry(0, 2.0 * (0.3f64.sqrt()).asin()));
        assert!((sp.prob_one(0) - 0.3).abs() < 1e-9);
        let mut rng = StdRng::seed_from_u64(42);
        let trials = 20_000;
        let ones: u32 = (0..trials)
            .map(|_| u32::from(sp.clone().measure_qubit(0, &mut rng)))
            .sum();
        let freq = f64::from(ones) / f64::from(trials);
        assert!((freq - 0.3).abs() < 0.02, "freq={freq}");
    }

    #[test]
    fn sample_basis_distribution_uniform() {
        let s = SparseState::uniform(2);
        let mut rng = StdRng::seed_from_u64(5);
        let mut counts = [0u32; 4];
        for _ in 0..8000 {
            counts[s.sample_basis(&mut rng)] += 1;
        }
        for &c in &counts {
            let f = f64::from(c) / 8000.0;
            assert!((f - 0.25).abs() < 0.03, "count fraction {f}");
        }
    }

    #[test]
    fn sample_basis_matches_dense_across_blocks() {
        // Two far-apart blocks in different reduction chunks: the same
        // variates must land on the same basis states as the dense scan.
        let mut s = SparseState::zero(14);
        s.apply_hadamard_all(&[0, 7, 13]);
        let d = s.densify_exact();
        for seed in 0..200 {
            let sparse = s.sample_basis(&mut StdRng::seed_from_u64(seed));
            let dense = d.sample_basis(&mut StdRng::seed_from_u64(seed));
            assert_eq!(sparse, dense, "seed {seed}");
        }
    }

    #[test]
    fn inner_product_over_disjoint_support_is_zero() {
        let a = SparseState::basis(4, 3);
        let b = SparseState::basis(4, 12);
        assert!(a.inner(&b).is_approx_zero(EPS));
        assert!((a.inner(&a).norm_sqr() - 1.0).abs() < EPS);
    }

    #[test]
    fn reflect_about_is_involutive() {
        let psi = SparseState::uniform(3);
        let mut s = SparseState::basis(3, 5);
        let orig = s.clone();
        s.reflect_about(&psi);
        assert!((s.norm() - 1.0).abs() < EPS);
        s.reflect_about(&psi);
        assert!((s.to_dense().fidelity(&orig.to_dense()) - 1.0).abs() < 1e-9);
    }

    /// A random window op at offsets that keep its indices distinct and
    /// inside an `n`-qubit register, applied to `s` and to a dense model
    /// of the ops' semantics.
    fn random_window_op(rng: &mut StdRng, n: usize, s: &mut SparseState, model: &mut [Complex]) {
        let dim = 1usize << n;
        let a = rng.gen_range(0..dim);
        let b = (a + rng.gen_range(1..dim)) % dim;
        let base = rng.gen_range(0..dim - a.max(b));
        let room = (dim - a.max(b) - base).min(64);
        let mut mask = rng.gen::<u64>() & (u64::MAX >> (64 - room));
        let d = a.abs_diff(b);
        if d < 64 {
            // Drop bits whose pairs would share an index.
            mask &= !(mask << d) & !(mask >> d);
        }
        if rng.gen() {
            s.swap_marked(base, mask, a, b);
            for j in (0..64).filter(|j| mask >> j & 1 == 1) {
                model.swap(base + j + a, base + j + b);
            }
        } else {
            s.negate_marked(base, mask, a);
            for j in (0..64).filter(|j| mask >> j & 1 == 1) {
                let amp = &mut model[base + j + a];
                // The sparse backend stores zeros as `+0.0` only.
                if *amp != ZERO {
                    *amp = -*amp;
                }
            }
        }
    }

    /// Seeded sweep against a dense model of the window ops: swaps and
    /// negations at random bases, masks and offsets (nonzeros moving into
    /// missing blocks, zeros moving onto stored ones, blocks left empty),
    /// interleaved with reads, snapshots and a kernel that drops the
    /// blocks the ops emptied. Every read must see the model. The start
    /// is a restored snapshot with gaps and sub-threshold values.
    fn check_window_ops(n: usize, seeds: u64) {
        let (mut grew, mut emptied) = (false, false);
        for seed in 0..seeds {
            let mut rng = StdRng::seed_from_u64(0x9E4D + seed);
            // Blocks 0 and every other one with probability 2/5 hold
            // values; the rest are gaps.
            let filled: Vec<bool> = (0..(1usize << n).div_ceil(BLOCK_LEN))
                .map(|key| key == 0 || rng.gen_range(0u8..5) < 2)
                .collect();
            let mut entries = Vec::new();
            for b in (0..1usize << n).filter(|&b| filled[b >> BLOCK_BITS]) {
                match rng.gen_range(0u8..8) {
                    0 => entries.push((b, Complex::real(1e-20))),
                    1 | 2 => entries.push((
                        b,
                        Complex::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)),
                    )),
                    _ => {}
                }
            }
            let mut s = SparseState::restore(&StateSnapshot::encode_sparse(n, entries)).unwrap();
            let mut model = s.scatter();
            for step in 0..200 {
                if step % 37 == 36 {
                    // A diagonal kernel: negates odd indices, then drops
                    // every empty block.
                    s.phase_if(|b| b % 2 == 1, -ONE);
                    for (b, a) in model.iter_mut().enumerate() {
                        if b % 2 == 1 && *a != ZERO {
                            *a *= -ONE;
                        }
                    }
                    assert!(s.counts.iter().all(|&c| c > 0));
                } else {
                    let blocks = s.keys.len();
                    random_window_op(&mut rng, n, &mut s, &mut model);
                    grew |= s.keys.len() > blocks;
                    emptied |= s.emptied;
                }
                s.assert_support_pruned();
                let stored: Vec<(usize, Complex)> = model
                    .iter()
                    .copied()
                    .enumerate()
                    .filter(|&(_, a)| a != ZERO)
                    .collect();
                assert_eq!(s.entries().collect::<Vec<_>>(), stored, "seed {seed}");
                assert_eq!(s.support(), stored.len(), "seed {seed}");
                for (b, &a) in model.iter().enumerate() {
                    let x = s.amp(b);
                    assert_eq!(
                        (x.re.to_bits(), x.im.to_bits()),
                        (a.re.to_bits(), a.im.to_bits()),
                        "seed {seed}, index {b}"
                    );
                }
                assert_eq!(SparseState::restore(&s.snapshot()).unwrap(), s);
            }
        }
        if n > BLOCK_BITS {
            assert!(grew, "no window op filled a missing block");
            assert!(emptied, "no window op emptied a block");
        }
    }

    #[test]
    fn window_ops_read_like_a_dense_model() {
        // A register narrower than one block.
        check_window_ops(5, 20);
        // Windows in, next to and far from the stored blocks, each side
        // spanning one or two blocks.
        check_window_ops(10, 8);
    }

    #[test]
    fn restoring_a_dense_snapshot_allocates_only_the_support() {
        // A dense encoding carries all 2^12 amplitudes; the restored
        // state must hold one block, not the encoding's length.
        let snap = StateVector::basis(12, 1234).snapshot();
        let s = SparseState::restore(&snap).unwrap();
        assert_eq!(s.entries().collect::<Vec<_>>(), vec![(1234, ONE)]);
        assert_eq!(s.keys, vec![1234 >> BLOCK_BITS]);
        assert!(
            s.amps.capacity() <= BLOCK_LEN,
            "capacity {}",
            s.amps.capacity()
        );
    }

    #[test]
    fn from_amplitudes_normalizes_and_prunes() {
        let s =
            SparseState::from_amplitudes(vec![Complex::real(3.0), ZERO, ZERO, Complex::real(4.0)]);
        assert_eq!(s.support(), 2);
        assert!(s.amp(0).approx_eq(Complex::real(0.6), EPS));
        assert!(s.amp(3).approx_eq(Complex::real(0.8), EPS));
    }

    #[test]
    fn interference_evicts_cancelled_amplitudes() {
        // H on a fresh |0⟩ qubit doubles the support; a second H cancels
        // the |1⟩ branch to an exact floating-point zero, which must be
        // *evicted*, not retained as a stored zero — and the partner
        // blocks the first H created must go with it.
        let mut s = SparseState::zero(8);
        s.apply_gate(&Gate::H(0));
        s.apply_gate(&Gate::T(0));
        s.apply_gate(&Gate::Cnot {
            control: 0,
            target: 1,
        });
        let before = s.support_len();
        for q in [5, 7] {
            s.apply_gate(&Gate::H(q));
            assert_eq!(s.support_len(), 2 * before);
            s.apply_gate(&Gate::H(q));
            assert_eq!(s.support_len(), before, "cancelled branch not evicted");
            assert_eq!(s.keys, vec![0]);
            s.assert_support_pruned();
        }
    }

    #[test]
    fn reflection_evicts_cancelled_amplitudes() {
        // |0⟩ reflected twice about uniform(2): all amplitudes are exact
        // binary fractions, so the second reflection drives the three
        // transient entries to exact zero — the support must shrink back.
        let psi = SparseState::uniform(2);
        let mut s = SparseState::basis(2, 0);
        s.reflect_about(&psi);
        assert_eq!(s.support_len(), 4);
        s.assert_support_pruned();
        s.reflect_about(&psi);
        assert_eq!(s.support_len(), 1, "reflection residue not evicted");
        s.assert_support_pruned();
        assert!(s.amp(0).approx_eq(ONE, EPS));
    }

    #[test]
    fn kernels_over_two_block_sets_match_dense() {
        // `self` and `other` each hold a block the other lacks.
        let mut a = SparseState::zero(8);
        a.apply_hadamard_all(&[0, 7]);
        let mut b = SparseState::basis(8, 70);
        b.apply_hadamard_all(&[1, 6]);
        let (da, db) = (a.densify_exact(), b.densify_exact());
        let coeff = Complex::new(0.25, -0.5);
        for (sparse, dense) in [
            {
                let (mut s, mut d) = (a.clone(), da.clone());
                s.add_scaled(&b, coeff);
                d.add_scaled(&db, coeff);
                (s, d)
            },
            {
                let (mut s, mut d) = (a.clone(), da.clone());
                s.reflect_about(&b);
                d.reflect_about(&db);
                (s, d)
            },
        ] {
            sparse.assert_support_pruned();
            for (x, y) in sparse.scatter().iter().zip(dense.amplitudes()) {
                assert!(x.re == y.re && x.im == y.im, "{x:?} vs {y:?}");
            }
        }
        assert_eq!(a.inner(&b), a.densify_exact().inner(&db));
    }

    #[test]
    fn prop_uncomputed_circuits_shrink_support_to_one() {
        // Property (seeded sweep): running a random circuit and then its
        // exact inverse must return the support to a single basis state —
        // every amplitude the forward pass populated is driven back below
        // the prune threshold and evicted. The invariant hook is checked
        // after every gate. Eight qubits put two of them above the block
        // width.
        for seed in 0..25u64 {
            let mut rng = StdRng::seed_from_u64(0xE71C + seed);
            let n = 8;
            let mut s = SparseState::zero(n);
            let gates: Vec<Gate> = (0..10)
                .map(|_| {
                    let q = rng.gen_range(0..n);
                    let r = (q + 1 + rng.gen_range(0..n - 1)) % n;
                    match rng.gen_range(0u8..6) {
                        0 => Gate::H(q),
                        1 => Gate::T(q),
                        2 => Gate::X(q),
                        3 => Gate::S(q),
                        4 => Gate::Cnot {
                            control: q,
                            target: r,
                        },
                        _ => Gate::Cz(q, r),
                    }
                })
                .collect();
            for g in &gates {
                s.apply_gate(g);
                s.assert_support_pruned();
            }
            for g in gates.iter().rev() {
                let inverse = match *g {
                    Gate::T(q) => Gate::Tdg(q),
                    Gate::S(q) => Gate::Sdg(q),
                    self_inverse => self_inverse,
                };
                s.apply_gate(&inverse);
                s.assert_support_pruned();
            }
            assert_eq!(
                s.support_len(),
                1,
                "seed {seed}: uncompute left residue in the support"
            );
            assert_eq!(s.keys.len(), 1, "seed {seed}: an empty block survived");
        }
    }

    #[test]
    #[should_panic(expected = "sub-threshold value left in a block")]
    fn audit_hook_catches_a_stored_zero() {
        let mut s = SparseState::uniform(2);
        // Bypass the pruning rule to simulate a backend bug: a numerically
        // zero amplitude kept instead of stored as `+0.0`.
        s.amps[3] = Complex::real(1e-40);
        s.assert_support_pruned();
    }

    #[test]
    #[should_panic(expected = "blocks out of order")]
    fn audit_hook_catches_an_out_of_order_entry() {
        let mut s = SparseState::uniform(7);
        // Bypass the sorted kernels to simulate a backend bug.
        s.keys.swap(0, 1);
        s.assert_support_pruned();
    }

    #[test]
    fn probabilities_match_dense_layout() {
        let mut s = SparseState::zero(3);
        s.apply_gate(&Gate::H(1));
        let p = s.probabilities();
        assert_eq!(p.len(), 8);
        assert!((p[0] - 0.5).abs() < EPS);
        assert!((p[2] - 0.5).abs() < EPS);
        assert!(p[1].abs() < EPS);
    }

    /// A streamed A3 fragment: one input bit at one index.
    type BitOp = fn(&GroverLayout, &mut SparseState, usize, bool);

    /// Streams A3's op sequence — two rounds of `V_x`, `W_y`, `V_x` bit by
    /// bit plus the diffusion, then the marking round's `V_x` and `R_y` —
    /// and returns the peak block payload over the sorted vector's
    /// `(index, amplitude)` bytes at the peak support.
    fn peak_payload_ratio(k: u32, x: &[bool], y: &[bool]) -> f64 {
        let layout = GroverLayout::for_k(k);
        let mut s: SparseState = layout.phi_in();
        let (mut peak_blocks, mut peak_support) = (0, 0);
        let mut record = |s: &SparseState| {
            s.assert_support_pruned();
            peak_blocks = peak_blocks.max(s.keys.len());
            peak_support = peak_support.max(s.support());
        };
        record(&s);
        for _ in 0..2 {
            for (bits, op) in [
                (x, GroverLayout::apply_vx_bit as BitOp),
                (y, GroverLayout::apply_wx_bit),
                (x, GroverLayout::apply_vx_bit),
            ] {
                for (i, &bit) in bits.iter().enumerate() {
                    op(&layout, &mut s, i, bit);
                    record(&s);
                }
            }
            layout.apply_diffusion(&mut s);
            record(&s);
        }
        for (bits, op) in [
            (x, GroverLayout::apply_vx_bit as BitOp),
            (y, GroverLayout::apply_rx_bit),
        ] {
            for (i, &bit) in bits.iter().enumerate() {
                op(&layout, &mut s, i, bit);
                record(&s);
            }
        }
        let block_bytes = peak_blocks * s.block_len() * std::mem::size_of::<Complex>();
        block_bytes as f64 / (peak_support * 24) as f64
    }

    #[test]
    fn a3_block_payload_stays_near_the_sorted_vector() {
        for k in [4u32, 6] {
            let m = GroverLayout::for_k(k).domain();
            let mut rng = StdRng::seed_from_u64(0xB10C + u64::from(k));
            // `deep`'s shapes: x and y of density 1/3, disjoint...
            let (mut x, mut y) = (vec![false; m], vec![false; m]);
            for i in 0..m {
                match rng.gen_range(0..3) {
                    0 => {}
                    1 => x[i] = true,
                    _ => y[i] = true,
                }
            }
            let member = peak_payload_ratio(k, &x, &y);
            assert!(member <= 1.5, "k = {k}: member word at {member}x");
            // ...or with one intersection...
            let t = rng.gen_range(0..m);
            x[t] = true;
            y[t] = true;
            let one = peak_payload_ratio(k, &x, &y);
            assert!(one <= 2.0, "k = {k}: one intersection at {one}x");
            // ...and the bench's uniformly random words.
            let x: Vec<bool> = (0..m).map(|_| rng.gen()).collect();
            let y: Vec<bool> = (0..m).map(|_| rng.gen()).collect();
            let random = peak_payload_ratio(k, &x, &y);
            assert!(random <= 2.0, "k = {k}: random word at {random}x");
        }
    }
}
