//! Sparse pure-state simulation: amplitudes keyed by basis index.
//!
//! [`SparseState`] stores only (numerically) nonzero amplitudes, as one
//! vector of `(basis index, amplitude)` pairs kept strictly sorted by
//! index, so memory and per-gate time scale with the **support** of the
//! state rather than the `2^n` dimension. This is exactly the structure
//! the paper's procedure A3 exposes: its register `|i⟩|h⟩|l⟩` lives in a
//! `2^{2k+2}`-dimensional space but every reachable state is supported on
//! at most `2·2^{2k}` basis states (index register times the `h` branch;
//! the `l` branch only populates during the marking round) — and
//! diagonal/permutation structured operators (`S_k`, `V_x`, `W_x`, `R_x`)
//! never grow the support at all. Recognizers over `O(log n)` live qubits
//! therefore run in support-proportional memory, and the per-bit
//! streamed updates of [`GroverLayout`](crate::GroverLayout) touch at
//! most four entries.
//!
//! Every kernel is a linear pass over the sorted vector: a single-qubit
//! gate merges the bit-clear entries with the bit-set entries keyed by
//! their partner index, reflections, inner products and `add_scaled` are
//! merge-joins of two sorted supports. Dense Hadamard sweeps (`U_k`)
//! still cost `O(support · 2)` per qubit and can double the support, as
//! they must — sparsity is a property of the states the workload
//! reaches, not a universal speed-up.
//!
//! Point writes ([`QuantumBackend::store_amplitudes`], which the streamed
//! `V_x`/`W_x`/`R_x` fragments use) go into a small vector in place. On a
//! large one, inserting or evicting an entry would shift its tail,
//! `O(support)` per streamed bit, so they go to a hash map of pending
//! writes instead, which point reads consult first and the next kernel
//! merges into the vector in one sort-and-merge pass — `O(log support)`
//! amortized per write. Read-only passes over the support see the merged
//! view. The cross-backend equivalence suite pins this backend to the
//! dense reference at fidelity `≥ 1 − 1e−9`.

use crate::backend::QuantumBackend;
use crate::complex::{Complex, ONE, ZERO};
use crate::gate::Gate;
use crate::matrix::Matrix;
use crate::snapshot::{SnapshotError, StateSnapshot};
use crate::state::StateVector;
use rand::Rng;
use std::borrow::Cow;
use std::collections::HashMap;

/// Amplitudes with squared magnitude below this are dropped from the
/// support (well under every tolerance the workspace tests at, and far
/// above f64 rounding noise accumulation over any circuit we run).
pub const SPARSE_PRUNE_EPS: f64 = 1e-30;

/// One stored amplitude: `(basis index, amplitude)`.
type Entry = (usize, Complex);

/// Largest vector that takes point writes in place. Up to here, shifting
/// the tail on an insert or eviction costs less than hashing every point
/// read and write into the pending map: A3 streams measured within 10%
/// either way at support 1024 (`k = 5`) and faster in place at 256
/// (`k = 4`); see DESIGN.md §2.
const EAGER_WRITE_MAX_SUPPORT: usize = 512;

/// A pure quantum state storing only its nonzero amplitudes.
///
/// The support is kept strictly sorted by basis index, so iteration —
/// and therefore sampling, probability sums and `Debug` output — is
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
    /// Strictly increasing by index, every amplitude above `prune_eps`.
    amps: Vec<Entry>,
    /// Point writes not yet merged into `amps`: the latest value written
    /// at each index, `None` where the write evicted a stored entry. Which
    /// indices get written depends on the input stream, so the map keeps
    /// the default hasher.
    pending: HashMap<usize, Option<Complex>>,
    /// Net number of entries `pending` adds to `amps` (negative: evicts).
    pending_growth: isize,
    prune_eps: f64,
}

impl SparseState {
    /// Read-only view of the stored `(basis index, amplitude)` pairs in
    /// increasing index order.
    pub fn entries(&self) -> impl Iterator<Item = (usize, Complex)> + '_ {
        let view = self.view();
        (0..view.len()).map(move |i| view[i])
    }

    /// Number of explicitly stored amplitudes — the same value as
    /// [`QuantumBackend::support`], exposed inherently so audit code can
    /// assert on it without importing the backend trait. This is the
    /// number the pruning invariant bounds: every stored entry has
    /// squared magnitude above [`SPARSE_PRUNE_EPS`].
    pub fn support_len(&self) -> usize {
        self.amps
            .len()
            .checked_add_signed(self.pending_growth)
            .expect("pending writes evict only stored entries")
    }

    /// The representation-audit hook: panics if any stored amplitude has
    /// been driven to (numerical) zero without being evicted — i.e. if
    /// the support has silently grown past the state's true support — if
    /// the entries are not in strictly increasing basis order, which
    /// every kernel's merge and binary search relies on, or if the
    /// support count disagrees with the entries. Pending point writes are
    /// checked merged. The cross-backend equivalence suite calls this
    /// after every operation it checks.
    pub fn assert_support_pruned(&self) {
        let view = self.view();
        for &(b, a) in view.iter() {
            assert!(
                a.norm_sqr() > self.prune_eps,
                "unpruned zero amplitude retained at basis index {b}: {a:?}"
            );
        }
        for pair in view.windows(2) {
            assert!(
                pair[0].0 < pair[1].0,
                "support out of order: basis index {} stored before {}",
                pair[0].0,
                pair[1].0
            );
        }
        assert_eq!(
            self.support_len(),
            view.len(),
            "support count disagrees with the stored entries"
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
        // mode's setters would have kept. The vector grows with what is
        // kept, not with the encoding's length, which for a dense
        // snapshot is the whole dimension.
        let mut amps = Vec::new();
        for (b, a) in dec.entries {
            push_pruned(&mut amps, b, a, eps);
        }
        Ok(Self::from_sorted(dec.num_qubits, amps, eps))
    }

    /// A state over `n` qubits whose support is `amps`, which must be
    /// strictly increasing by index and pruned at `prune_eps`.
    fn from_sorted(n: usize, amps: Vec<Entry>, prune_eps: f64) -> Self {
        SparseState {
            n,
            amps,
            pending: HashMap::new(),
            pending_growth: 0,
            prune_eps,
        }
    }

    fn single(n: usize, b: usize) -> Self {
        Self::from_sorted(n, vec![(b, ONE)], SPARSE_PRUNE_EPS)
    }

    /// Position of `b` in the sorted vector, pending writes aside
    /// (`Err` holds its insertion point).
    fn find(&self, b: usize) -> Result<usize, usize> {
        self.amps.binary_search_by_key(&b, |&(i, _)| i)
    }

    /// A point write: applied to the vector while it is small, recorded
    /// in `pending` otherwise.
    fn set(&mut self, b: usize, a: Complex) {
        use std::collections::hash_map::Entry::{Occupied, Vacant};
        let keep = a.norm_sqr() > self.prune_eps;
        let pos = self.find(b);
        if self.pending.is_empty() && self.amps.len() <= EAGER_WRITE_MAX_SUPPORT {
            match pos {
                Ok(i) if keep => self.amps[i].1 = a,
                Ok(i) => {
                    self.amps.remove(i);
                }
                Err(i) if keep => self.amps.insert(i, (b, a)),
                Err(_) => {}
            }
            return;
        }
        let in_amps = pos.is_ok();
        // A write that neither keeps a value nor evicts one from the
        // vector leaves no pending entry, so writes that come and go
        // leave no trace behind.
        let record = keep || in_amps;
        let was_stored = match self.pending.entry(b) {
            Occupied(mut slot) => {
                let was_stored = slot.get().is_some();
                if record {
                    slot.insert(keep.then_some(a));
                } else {
                    slot.remove();
                }
                was_stored
            }
            Vacant(slot) => {
                if record {
                    slot.insert(keep.then_some(a));
                }
                in_amps
            }
        };
        self.pending_growth += isize::from(keep) - isize::from(was_stored);
    }

    /// The sorted vector with the pending writes merged in.
    fn merged(&self) -> Vec<Entry> {
        let mut writes: Vec<(usize, Option<Complex>)> =
            self.pending.iter().map(|(&b, &a)| (b, a)).collect();
        writes.sort_unstable_by_key(|&(b, _)| b);
        let mut out = Vec::with_capacity(self.support_len());
        for (b, joined) in merge_join(self.amps.iter().copied(), writes.into_iter()) {
            match joined {
                Joined::Left(a) | Joined::Right(Some(a)) | Joined::Both(_, Some(a)) => {
                    out.push((b, a))
                }
                Joined::Right(None) | Joined::Both(_, None) => {}
            }
        }
        out
    }

    /// The support in increasing index order, pending writes included.
    fn view(&self) -> Cow<'_, [Entry]> {
        if self.pending.is_empty() {
            Cow::Borrowed(&self.amps)
        } else {
            Cow::Owned(self.merged())
        }
    }

    /// Merges the pending writes into the vector. Every kernel that
    /// rewrites the vector starts here.
    fn flush(&mut self) {
        if !self.pending.is_empty() {
            self.amps = self.merged();
            self.pending.clear();
            self.pending_growth = 0;
        }
    }

    /// The support scattered into a dense vector, exact `+0.0` elsewhere.
    fn scatter(&self) -> Vec<Complex> {
        assert!(self.n <= 28, "dense representation limited to 28 qubits");
        let mut amps = vec![ZERO; 1usize << self.n];
        for &(b, a) in self.view().iter() {
            amps[b] = a;
        }
        amps
    }
}

/// Appends `(b, a)` unless `a` falls to the eviction threshold `eps`.
#[inline]
fn push_pruned(out: &mut Vec<Entry>, b: usize, a: Complex, eps: f64) {
    if a.norm_sqr() > eps {
        out.push((b, a));
    }
}

/// Where an index of a [`merge_join`] is stored.
enum Joined<L, R> {
    Left(L),
    Right(R),
    Both(L, R),
}

/// Merge-joins two index-keyed runs, each strictly increasing in index:
/// every index of either, once, in increasing order, with its value(s).
fn merge_join<L, R>(
    left: impl Iterator<Item = (usize, L)>,
    right: impl Iterator<Item = (usize, R)>,
) -> impl Iterator<Item = (usize, Joined<L, R>)> {
    let (mut left, mut right) = (left.peekable(), right.peekable());
    std::iter::from_fn(move || {
        let l = left.peek().map(|&(b, _)| b);
        let r = right.peek().map(|&(b, _)| b);
        match (l, r) {
            (Some(l), Some(r)) if l == r => {
                let (b, x) = left.next()?;
                let (_, y) = right.next()?;
                Some((b, Joined::Both(x, y)))
            }
            (Some(l), r) if r.is_none_or(|r| l < r) => {
                left.next().map(|(b, x)| (b, Joined::Left(x)))
            }
            _ => right.next().map(|(b, y)| (b, Joined::Right(y))),
        }
    })
}

/// Merges two index-sorted runs with disjoint indices into `out`.
fn merge_disjoint(out: &mut Vec<Entry>, a: &[Entry], b: &[Entry]) {
    out.clear();
    out.reserve(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if a[i].0 < b[j].0 {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
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
        Self::from_sorted(n, (0..len).map(|b| (b, amp)).collect(), SPARSE_PRUNE_EPS)
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
        let mut support = Vec::new();
        for (b, a) in amps.into_iter().enumerate() {
            push_pruned(&mut support, b, a.scale(inv), SPARSE_PRUNE_EPS);
        }
        Self::from_sorted(n, support, SPARSE_PRUNE_EPS)
    }

    fn num_qubits(&self) -> usize {
        self.n
    }

    fn support(&self) -> usize {
        self.support_len()
    }

    fn amp(&self, b: usize) -> Complex {
        debug_assert!(b < (1usize << self.n));
        match self.pending.get(&b) {
            Some(written) => written.unwrap_or(ZERO),
            None => self.find(b).map_or(ZERO, |i| self.amps[i].1),
        }
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
        self.flush();
        let norm = self.norm();
        assert!(
            norm > crate::state::STATE_EPS,
            "cannot normalize the zero vector"
        );
        let s = 1.0 / norm;
        for (_, a) in &mut self.amps {
            *a = a.scale(s);
        }
    }

    fn inner(&self, other: &Self) -> Complex {
        assert_eq!(self.n, other.n, "qubit count mismatch");
        // Terms over the common support, summed in increasing index
        // order: conj(self_b) · other_b.
        merge_join(self.entries(), other.entries())
            .filter_map(|(_, joined)| match joined {
                Joined::Both(a, o) => Some(a.conj() * o),
                _ => None,
            })
            .sum()
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
        let (m00, m01, m10, m11) = (m[(0, 0)], m[(0, 1)], m[(1, 0)], m[(1, 1)]);
        let bit = 1usize << q;
        let eps = self.prune_eps;
        self.flush();
        // Pairs (lo, lo | bit) in increasing lo order: the bit-clear
        // entries keyed by their own index, joined with the bit-set
        // entries keyed by their partner index — both subsequences are
        // already sorted by that key. The lo and hi outputs come out
        // sorted separately and are merged back into one support.
        let clear = self.amps.iter().copied().filter(|&(b, _)| b & bit == 0);
        let partners = self
            .amps
            .iter()
            .filter(|&&(b, _)| b & bit != 0)
            .map(|&(b, a)| (b ^ bit, a));
        let mut los = Vec::with_capacity(self.amps.len());
        let mut his = Vec::with_capacity(self.amps.len());
        for (lo, joined) in merge_join(clear, partners) {
            let (v0, v1) = match joined {
                Joined::Both(a0, a1) => (m00 * a0 + m01 * a1, m10 * a0 + m11 * a1),
                // The absent partner still enters as ZERO: dropping the
                // term could flip the sign of a zero component, and
                // snapshots store those bits.
                Joined::Left(a0) => (m00 * a0 + m01 * ZERO, m10 * a0 + m11 * ZERO),
                // The pair has no low-index entry.
                Joined::Right(a1) => (m01 * a1, m11 * a1),
            };
            push_pruned(&mut los, lo, v0, eps);
            push_pruned(&mut his, lo | bit, v1, eps);
        }
        merge_disjoint(&mut self.amps, &los, &his);
    }

    fn phase_if<F: Fn(usize) -> bool + Sync>(&mut self, pred: F, phase: Complex) {
        // Diagonal: zero amplitudes stay zero, so only the support moves.
        self.flush();
        for (b, a) in &mut self.amps {
            if pred(*b) {
                *a *= phase;
            }
        }
    }

    fn permute_in_place<F: Fn(usize) -> usize>(&mut self, f: F) {
        // A permutation re-keys the support without changing its size.
        self.flush();
        for entry in &mut self.amps {
            let t = f(entry.0);
            debug_assert_eq!(f(t), entry.0, "permutation must be an involution");
            entry.0 = t;
        }
        self.amps.sort_unstable_by_key(|&(b, _)| b);
    }

    fn store_amplitudes(&mut self, writes: &[(usize, Complex)]) {
        for &(idx, val) in writes {
            self.set(idx, val);
        }
    }

    fn reflect_about(&mut self, psi: &Self) {
        assert_eq!(self.n, psi.n, "qubit count mismatch");
        self.flush();
        let overlap = psi.inner(self);
        let two_overlap = overlap * 2.0;
        // s ← 2⟨ψ|s⟩·ψ − s over the union of supports.
        let eps = self.prune_eps;
        let mut next = Vec::with_capacity(psi.support_len().max(self.amps.len()));
        for (b, joined) in merge_join(psi.entries(), self.amps.iter().copied()) {
            let v = match joined {
                Joined::Both(p, a) => two_overlap * p - a,
                Joined::Left(p) => two_overlap * p - ZERO,
                Joined::Right(a) => -a,
            };
            push_pruned(&mut next, b, v, eps);
        }
        self.amps = next;
    }

    fn add_scaled(&mut self, other: &Self, coeff: Complex) {
        assert_eq!(self.n, other.n, "qubit count mismatch");
        // Entries only `self` holds are left untouched (and unpruned).
        let eps = self.prune_eps;
        self.flush();
        let mut next = Vec::with_capacity(self.amps.len() + other.support_len());
        for (b, joined) in merge_join(self.amps.iter().copied(), other.entries()) {
            match joined {
                Joined::Left(a) => next.push((b, a)),
                Joined::Both(a, o) => push_pruned(&mut next, b, a + coeff * o, eps),
                Joined::Right(o) => push_pruned(&mut next, b, ZERO + coeff * o, eps),
            }
        }
        self.amps = next;
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
        self.flush();
        self.amps
            .retain(|&(b, _)| u8::from(b & mask != 0) == outcome);
        self.normalize();
    }

    fn sample_basis<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        // Mirrors the dense prefix scan exactly: skip whole REDUCE_CHUNK
        // blocks by their stratified block mass, then walk the block the
        // variate lands in. Off-support terms are `+0.0` in both the
        // block sums and the walk, so every skip/return decision is
        // bitwise identical to the dense backend's and the same random
        // variate yields the same sample. A block with no support has
        // mass `+0.0` and can never be returned from, so the scan starts
        // each step at the block of the next stored entry.
        let mut u: f64 = rng.gen();
        let chunk = crate::par::REDUCE_CHUNK;
        let view = self.view();
        let mut rest = &view[..];
        while let Some(&(first, _)) = rest.first() {
            let end = (first / chunk + 1) * chunk;
            let (block, tail) = rest.split_at(rest.partition_point(|&(b, _)| b < end));
            rest = tail;
            let mut lanes = [0.0f64; crate::par::REDUCE_LANES];
            for &(b, a) in block {
                // Block bases are multiples of the lane count, so the
                // global index selects the same lane as the in-block one.
                lanes[b & (crate::par::REDUCE_LANES - 1)] += a.norm_sqr();
            }
            let s = crate::simd::scalar::fold_lanes(lanes);
            if u > s {
                u -= s;
                continue;
            }
            for &(b, a) in block {
                u -= a.norm_sqr();
                if u <= 0.0 {
                    return b;
                }
            }
        }
        view.last().map_or(0, |&(b, _)| b)
    }
}

/// Equal states: the same width, eviction threshold and support, however
/// much of it is still pending.
impl PartialEq for SparseState {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n && self.prune_eps == other.prune_eps && self.view() == other.view()
    }
}

impl std::fmt::Debug for SparseState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "SparseState({} qubits, support {}) [",
            self.n,
            self.support_len()
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
        // The whole point of the sparse backend: 50 "qubits" cost one entry.
        let s = SparseState::zero(50);
        assert_eq!(s.support(), 1);
        assert_eq!(s.num_qubits(), 50);
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

    #[test]
    fn store_amplitudes_prunes_zeros() {
        let mut s = SparseState::uniform(2);
        s.store_amplitudes(&[(0, ZERO), (3, Complex::real(0.9))]);
        assert_eq!(s.support(), 3);
        assert!(s.amp(0).is_approx_zero(0.0));
    }

    /// Seeded sweep against a dense model of the pruning rule: point
    /// writes (repeats, evictions, zeros on absent indices, values under
    /// the threshold) interleaved with reads, snapshots and a kernel that
    /// merges pending writes. Every read must see the latest write.
    /// Returns whether any write went to the pending map.
    fn check_point_writes(n: usize, hadamards: &[usize], seeds: u64) -> bool {
        let mut used_pending = false;
        for seed in 0..seeds {
            let mut rng = StdRng::seed_from_u64(0x9E4D + seed);
            let mut s = SparseState::zero(n);
            s.apply_hadamard_all(hadamards);
            let mut model = s.scatter();
            for step in 0..200 {
                if step % 37 == 36 {
                    // A diagonal kernel: merges, then negates odd indices.
                    s.phase_if(|b| b % 2 == 1, -ONE);
                    for (b, a) in model.iter_mut().enumerate() {
                        if b % 2 == 1 {
                            *a *= -ONE;
                        }
                    }
                    assert!(s.pending.is_empty());
                } else {
                    let b = rng.gen_range(0..1usize << n);
                    let a = match rng.gen_range(0u8..4) {
                        0 => ZERO,
                        1 => Complex::real(1e-20),
                        _ => Complex::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)),
                    };
                    s.store_amplitudes(&[(b, a)]);
                    model[b] = if a.norm_sqr() > SPARSE_PRUNE_EPS {
                        a
                    } else {
                        ZERO
                    };
                    used_pending |= !s.pending.is_empty();
                }
                s.assert_support_pruned();
                let stored: Vec<Entry> = model
                    .iter()
                    .copied()
                    .enumerate()
                    .filter(|&(_, a)| a != ZERO)
                    .collect();
                assert_eq!(s.entries().collect::<Vec<_>>(), stored, "seed {seed}");
                assert_eq!(s.support(), stored.len(), "seed {seed}");
                for (b, &a) in model.iter().enumerate() {
                    assert_eq!(s.amp(b), a, "seed {seed}, index {b}");
                }
                assert_eq!(SparseState::restore(&s.snapshot()).unwrap(), s);
            }
        }
        used_pending
    }

    #[test]
    fn point_writes_read_like_stored_amplitudes() {
        // A small register takes every write in place.
        assert!(!check_point_writes(5, &[0, 2], 20));
        // One at the in-place limit: inserts push it past the limit into
        // the pending map, and evictions merged by the kernel bring it
        // back.
        let limit_qubits = EAGER_WRITE_MAX_SUPPORT.trailing_zeros() as usize;
        let hadamards: Vec<usize> = (0..limit_qubits).collect();
        assert!(check_point_writes(limit_qubits + 1, &hadamards, 4));
    }

    #[test]
    fn restoring_a_dense_snapshot_allocates_only_the_support() {
        // A dense encoding carries all 2^12 amplitudes; the restored
        // vector must not be sized by it.
        let snap = StateVector::basis(12, 1234).snapshot();
        let s = SparseState::restore(&snap).unwrap();
        assert_eq!(s.entries().collect::<Vec<_>>(), vec![(1234, ONE)]);
        assert!(s.amps.capacity() <= 4, "capacity {}", s.amps.capacity());
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
        // *evicted*, not retained as a stored zero.
        let mut s = SparseState::zero(8);
        s.apply_gate(&Gate::H(0));
        s.apply_gate(&Gate::T(0));
        s.apply_gate(&Gate::Cnot {
            control: 0,
            target: 1,
        });
        let before = s.support_len();
        s.apply_gate(&Gate::H(5));
        assert_eq!(s.support_len(), 2 * before);
        s.apply_gate(&Gate::H(5));
        assert_eq!(s.support_len(), before, "cancelled branch not evicted");
        s.assert_support_pruned();
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
    fn prop_uncomputed_circuits_shrink_support_to_one() {
        // Property (seeded sweep): running a random circuit and then its
        // exact inverse must return the support to a single basis state —
        // every amplitude the forward pass populated is driven back below
        // the prune threshold and evicted. The invariant hook is checked
        // after every gate.
        for seed in 0..25u64 {
            let mut rng = StdRng::seed_from_u64(0xE71C + seed);
            let n = 5;
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
        }
    }

    #[test]
    #[should_panic(expected = "unpruned zero amplitude")]
    fn audit_hook_catches_a_stored_zero() {
        let mut s = SparseState::uniform(2);
        // Bypass the pruned setter to simulate a backend bug.
        s.amps[3].1 = Complex::real(0.0);
        s.assert_support_pruned();
    }

    #[test]
    #[should_panic(expected = "support out of order")]
    fn audit_hook_catches_an_out_of_order_entry() {
        let mut s = SparseState::uniform(2);
        // Bypass the sorted kernels to simulate a backend bug.
        s.amps.swap(1, 2);
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
}
