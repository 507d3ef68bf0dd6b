//! Streaming polynomial fingerprints.
//!
//! For a bit string `w = w_0 … w_{m−1}`, procedure A2 evaluates
//! `F_w(t) = Σ_i w_i t^i mod p` at a random point `t`. The evaluation must
//! be *online*: bits arrive one at a time and only `O(log p)` bits of state
//! may be kept. [`StreamingFingerprint`] maintains exactly the accumulator
//! and the running power of `t` — two residues — matching the `O(k)` space
//! bound claimed for A2.
//!
//! The power update multiplies by the fixed `t` on every bit, so it uses
//! Shoup's precomputed-quotient multiply instead of a 128-bit remainder:
//! with `t' = ⌊t·2^64/p⌋` computed once, `a·t mod p` costs two word
//! multiplies, a high multiply and one conditional subtraction. The
//! result is exact for `p < 2^63` (D. Harvey, "Faster arithmetic for
//! number-theoretic transforms", J. Symbolic Comput. 60, 2014);
//! [`fingerprint_prime`](crate::fingerprint_prime) stays below `2^61`.
//!
//! A run of bits folds in eight interleaved lanes
//! ([`StreamingFingerprint::feed_run`]): with `T = t^len`, bit `8c + j` of
//! the run adds `T·t^{8c}` to lane `j`, and the run's end adds
//! `Σ_j lane_j·t^j` to the accumulator by Horner's rule. This is Horner's
//! second-order rule generalized to eight parts (Knuth, TAOCP Vol. 2,
//! §4.6.4): the loop-carried multiply advances `T` by `t^8` once per eight
//! bits instead of by `t` once per bit, and the lane updates are
//! branch-free adds. Every step is exact mod `p`, so the accumulator, the
//! power and the length equal the per-bit [`StreamingFingerprint::feed`]
//! loop's. The lanes live only inside one call: the fingerprint's state,
//! and its serialized parts, stay the two residues.

use crate::modarith::add_mod;

/// Largest modulus (exclusive) the precomputed-quotient multiply is exact
/// for: the unreduced product lies in `[0, 2p)`, which must fit a word.
pub const MAX_MODULUS: u64 = 1 << 63;

/// Lanes of the run fold: bit `8c + j` of a run goes to lane `j`.
const LANES: usize = 8;

/// Shortest run the lanes take. A shorter run, and the last `len mod 8`
/// bits of a longer one, go through [`StreamingFingerprint::feed`].
const LANE_MIN_RUN: usize = 2 * LANES;

/// `a·w mod p` for `a < p` by Shoup's precomputed-quotient multiply, with
/// `w_shoup = ⌊w·2^64/p⌋`: the estimate `q = ⌊a·w_shoup/2^64⌋` is
/// `⌊a·w/p⌋` or one less, so `a·w − q·p` (exact modulo `2^64`) lies in
/// `[0, 2p)`.
#[inline]
fn shoup_mul(a: u64, w: u64, w_shoup: u64, p: u64) -> u64 {
    let q = ((a as u128 * w_shoup as u128) >> 64) as u64;
    let r = a.wrapping_mul(w).wrapping_sub(q.wrapping_mul(p));
    if r >= p {
        r - p
    } else {
        r
    }
}

/// `⌊w·2^64/p⌋`, the precomputed quotient of [`shoup_mul`].
fn shoup_quotient(w: u64, p: u64) -> u64 {
    (((w as u128) << 64) / p as u128) as u64
}

/// Online evaluator of `F_w(t) = Σ w_i t^i mod p`, fed one bit at a time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StreamingFingerprint {
    p: u64,
    t: u64,
    /// `⌊t·2^64/p⌋`, derived from `(p, t)` and never serialized.
    t_shoup: u64,
    /// `t^8 mod p`, the run fold's stride, and its quotient: derived from
    /// `(p, t)` and never serialized.
    t8: u64,
    t8_shoup: u64,
    acc: u64,
    t_pow: u64,
    len: usize,
}

impl StreamingFingerprint {
    /// Starts a fingerprint at evaluation point `t` modulo `p`.
    ///
    /// # Panics
    /// If `p < 2`, `p ≥ 2^63` ([`MAX_MODULUS`]) or `t ≥ p`.
    pub fn new(p: u64, t: u64) -> Self {
        assert!(p >= 2, "modulus must be ≥ 2");
        assert!(t < p, "evaluation point must be reduced mod p");
        StreamingFingerprint::from_parts(p, t, 0, 1, 0)
    }

    /// Feeds the next bit `w_i` (bits arrive in increasing index order).
    #[inline]
    pub fn feed(&mut self, bit: bool) {
        if bit {
            self.acc = add_mod(self.acc, self.t_pow, self.p);
        }
        self.t_pow = self.times_t(self.t_pow);
        self.len += 1;
    }

    /// `a·t mod p` for `a < p`.
    #[inline]
    fn times_t(&self, a: u64) -> u64 {
        shoup_mul(a, self.t, self.t_shoup, self.p)
    }

    /// Feeds a run of bits in order, `is_one(x)` being the bit of element
    /// `x`: the result equals [`Self::feed`] on every bit. A run of at
    /// least 16 bits folds its whole 8-bit chunks in eight lanes (module
    /// docs); a shorter run, and the last `len mod 8` bits, go bit by bit.
    #[inline]
    pub fn feed_run<T: Copy>(&mut self, run: &[T], is_one: impl Fn(T) -> bool) {
        let tail = if run.len() >= LANE_MIN_RUN {
            self.fold_lanes(run, &is_one)
        } else {
            run
        };
        for &x in tail {
            self.feed(is_one(x));
        }
    }

    /// Folds the whole 8-bit chunks of `run` in eight lanes and returns
    /// the bits left over. Kept out of line, so a one-symbol step inlines
    /// only [`Self::feed_run`]'s length test and its [`Self::feed`].
    #[inline(never)]
    fn fold_lanes<'a, T: Copy>(&mut self, run: &'a [T], is_one: &impl Fn(T) -> bool) -> &'a [T] {
        let chunks = run.chunks_exact(LANES);
        let tail = chunks.remainder();
        let p = self.p;
        let mut lanes = [0u64; LANES];
        let mut t_pow = self.t_pow;
        for chunk in chunks {
            for (lane, &x) in lanes.iter_mut().zip(chunk) {
                // Adds `t_pow` or 0 and reduces by a select: the sum is
                // below 2p, which fits a word for p < 2^63.
                let s = *lane + (t_pow & 0u64.wrapping_sub(u64::from(is_one(x))));
                *lane = s.min(s.wrapping_sub(p));
            }
            t_pow = shoup_mul(t_pow, self.t8, self.t8_shoup, p);
        }
        // Σ_j lane_j·t^j by Horner's rule, from the last lane down.
        let mut folded = lanes[LANES - 1];
        for &lane in lanes[..LANES - 1].iter().rev() {
            folded = add_mod(self.times_t(folded), lane, p);
        }
        self.acc = add_mod(self.acc, folded, p);
        self.t_pow = t_pow;
        self.len += run.len() - tail.len();
        tail
    }

    /// Feeds a slice of bits ([`Self::feed_run`]).
    pub fn feed_all(&mut self, bits: &[bool]) {
        self.feed_run(bits, |b| b);
    }

    /// The current value `F_{w_0…w_{len−1}}(t)`.
    #[inline]
    pub fn value(&self) -> u64 {
        self.acc
    }

    /// Number of bits consumed so far.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no bits have been fed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The modulus.
    #[inline]
    pub fn modulus(&self) -> u64 {
        self.p
    }

    /// The evaluation point `t`.
    #[inline]
    pub fn point(&self) -> u64 {
        self.t
    }

    /// The running power `t^len mod p` (serialization observable).
    #[inline]
    pub fn power(&self) -> u64 {
        self.t_pow
    }

    /// Rebuilds a mid-stream fingerprint from its serialized parts (the
    /// session-checkpoint restore path): the inverse of reading
    /// [`modulus`](Self::modulus), [`point`](Self::point),
    /// [`value`](Self::value), [`power`](Self::power) and
    /// [`len`](Self::len).
    ///
    /// # Panics
    /// If the parts are not reduced residues of a valid stream
    /// (`p < 2`, `p ≥ 2^63`, `t ≥ p`, `acc ≥ p`, or `t_pow ≥ p`).
    pub fn from_parts(p: u64, t: u64, acc: u64, t_pow: u64, len: usize) -> Self {
        assert!(p >= 2, "modulus must be ≥ 2");
        assert!(p < MAX_MODULUS, "modulus must be below 2^63");
        assert!(t < p && acc < p && t_pow < p, "residues must be reduced");
        let mut f = StreamingFingerprint {
            p,
            t,
            t_shoup: shoup_quotient(t, p),
            t8: 0,
            t8_shoup: 0,
            acc,
            t_pow,
            len,
        };
        f.t8 = (0..7).fold(t, |power, _| f.times_t(power));
        f.t8_shoup = shoup_quotient(f.t8, p);
        f
    }

    /// Resets to an empty fingerprint at the same `(p, t)`, reusing the
    /// allocation-free state (A2 restarts one fingerprint per block).
    pub fn reset(&mut self) {
        self.acc = 0;
        self.t_pow = 1 % self.p;
        self.len = 0;
    }

    /// Work-space footprint in bits: the two residues (`acc`, `t_pow`)
    /// a streaming implementation must retain, each `⌈log₂ p⌉` bits.
    /// (`t` itself and `p` are also `O(log p)`; include them for the
    /// honest total the OPTM would store.)
    pub fn space_bits(&self) -> u32 {
        4 * ceil_log2(self.p)
    }
}

/// One-shot evaluation of `F_w(t) mod p`.
pub fn fingerprint(bits: &[bool], p: u64, t: u64) -> u64 {
    let mut f = StreamingFingerprint::new(p, t);
    f.feed_all(bits);
    f.value()
}

/// `⌈log₂ n⌉` for `n ≥ 1`.
pub fn ceil_log2(n: u64) -> u32 {
    assert!(n >= 1);
    64 - (n - 1).leading_zeros()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modarith::{mul_mod, pow_mod};
    use crate::prime::fingerprint_prime;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The reference: each power by square-and-multiply with the `u128`
    /// remainder of [`mul_mod`].
    fn naive_eval(bits: &[bool], p: u64, t: u64) -> u64 {
        let mut acc = 0u64;
        for (i, &b) in bits.iter().enumerate() {
            if b {
                acc = add_mod(acc, pow_mod(t, i as u64, p), p);
            }
        }
        acc
    }

    #[test]
    fn empty_fingerprint_is_zero() {
        let f = StreamingFingerprint::new(17, 5);
        assert_eq!(f.value(), 0);
        assert!(f.is_empty());
    }

    #[test]
    fn single_bits() {
        // w = 1: F = t^0 = 1.
        assert_eq!(fingerprint(&[true], 17, 5), 1);
        // w = 01: F = t.
        assert_eq!(fingerprint(&[false, true], 17, 5), 5);
        // w = 11: F = 1 + t.
        assert_eq!(fingerprint(&[true, true], 17, 5), 6);
    }

    #[test]
    fn streaming_matches_naive() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..50 {
            let len = rng.gen_range(0..200);
            let bits: Vec<bool> = (0..len).map(|_| rng.gen()).collect();
            let p = 257u64;
            let t = rng.gen_range(0..p);
            assert_eq!(fingerprint(&bits, p, t), naive_eval(&bits, p, t));
        }
    }

    #[test]
    fn equal_strings_equal_fingerprints_always() {
        let bits = vec![true, false, true, true, false, false, true];
        for t in 0..17u64 {
            assert_eq!(fingerprint(&bits, 17, t), fingerprint(&bits, 17, t));
        }
    }

    #[test]
    fn distinct_strings_collide_rarely() {
        // The difference polynomial has degree < m, so at most m−1 of the p
        // points collide. Count collisions exhaustively for a small case.
        let a = vec![true, false, true, false, true, false, true, false];
        let b = vec![true, true, false, false, true, false, true, false];
        let p = 257u64;
        let collisions = (0..p)
            .filter(|&t| fingerprint(&a, p, t) == fingerprint(&b, p, t))
            .count() as u64;
        assert!(collisions < a.len() as u64, "collisions = {collisions}");
    }

    #[test]
    fn reset_reuses_state() {
        let mut f = StreamingFingerprint::new(257, 10);
        f.feed_all(&[true, true, false, true]);
        let v1 = f.value();
        f.reset();
        assert_eq!(f.value(), 0);
        assert_eq!(f.len(), 0);
        f.feed_all(&[true, true, false, true]);
        assert_eq!(f.value(), v1);
    }

    #[test]
    fn space_bits_is_logarithmic() {
        let f = StreamingFingerprint::new((1 << 20) + 7, 3);
        assert_eq!(f.space_bits(), 4 * 21);
        let g = StreamingFingerprint::new(17, 3);
        assert_eq!(g.space_bits(), 4 * 5);
    }

    #[test]
    fn ceil_log2_values() {
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(4), 2);
        assert_eq!(ceil_log2(5), 3);
        assert_eq!(ceil_log2(1 << 40), 40);
    }

    #[test]
    fn shoup_multiply_matches_u128_remainder() {
        let mut rng = StdRng::seed_from_u64(2);
        for p in [
            17u64,
            65_537,
            (1 << 61) - 1,
            (1 << 62) + 135,
            MAX_MODULUS - 25,
        ] {
            let edges = [0, 1, 2, p / 2, p - 2, p - 1];
            for _ in 0..20_000 {
                let (a, t) = (rng.gen_range(0..p), rng.gen_range(0..p));
                let f = StreamingFingerprint::new(p, t);
                assert_eq!(f.times_t(a), mul_mod(a, t, p), "p={p} a={a} t={t}");
            }
            for &a in &edges {
                for &t in &edges {
                    let f = StreamingFingerprint::new(p, t);
                    assert_eq!(f.times_t(a), mul_mod(a, t, p), "p={p} a={a} t={t}");
                }
            }
        }
    }

    /// `t` for a property case: one of the edge values 0, 1, p − 2 and
    /// p − 1, or uniform in [0, p).
    fn pick_point(p: u64, pick: u8, draw: u64) -> u64 {
        match pick {
            0 => 0,
            1 => 1,
            2 => p - 2,
            3 => p - 1,
            _ => draw % p,
        }
    }

    /// Feeds `bits` bit by bit into one copy of `start` and as the runs
    /// between `cuts` into another, and asserts the two agree in `acc`,
    /// `t_pow` and `len`.
    fn assert_runs_match_feed(start: &StreamingFingerprint, bits: &[bool], cuts: &[usize]) {
        let mut per_bit = start.clone();
        for &b in bits {
            per_bit.feed(b);
        }
        let mut runs = start.clone();
        let mut ends: Vec<usize> = cuts.iter().map(|&c| c.min(bits.len())).collect();
        ends.extend([0, bits.len()]);
        ends.sort_unstable();
        for w in ends.windows(2) {
            runs.feed_run(&bits[w[0]..w[1]], |b| b);
        }
        assert_eq!(
            (runs.value(), runs.power(), runs.len()),
            (per_bit.value(), per_bit.power(), per_bit.len()),
            "p={} t={} runs {ends:?}",
            start.modulus(),
            start.point()
        );
    }

    #[test]
    fn run_fold_matches_feed_at_every_length_near_the_thresholds() {
        // Every run length from 0 to 48: both sides of the 16-bit lane
        // threshold and of each 8-bit chunk boundary, from a fresh and a
        // mid-stream state, at every paper modulus.
        let mut rng = StdRng::seed_from_u64(3);
        for k in 1..=15 {
            let p = fingerprint_prime(k);
            for pick in 0..5 {
                let t = pick_point(p, pick, rng.gen());
                let fresh = StreamingFingerprint::new(p, t);
                let mid = StreamingFingerprint::from_parts(
                    p,
                    t,
                    rng.gen_range(0..p),
                    rng.gen_range(0..p),
                    rng.gen_range(0..1000),
                );
                for len in 0..=48 {
                    let bits: Vec<bool> = (0..len).map(|_| rng.gen()).collect();
                    assert_runs_match_feed(&fresh, &bits, &[]);
                    assert_runs_match_feed(&mid, &bits, &[]);
                }
                let ones = vec![true; 48];
                assert_runs_match_feed(&mid, &ones, &[]);
            }
        }
    }

    #[test]
    #[should_panic(expected = "below 2^63")]
    fn modulus_at_two_to_the_63_panics() {
        StreamingFingerprint::new(MAX_MODULUS, 3);
    }

    proptest! {
        #[test]
        fn prop_run_fold_equals_per_bit_feed(bits in proptest::collection::vec(any::<bool>(), 0..301),
                                             cuts in proptest::collection::vec(0usize..=300, 0..6),
                                             k in 1u32..=15,
                                             pick in 0u8..8,
                                             draw in any::<u64>(),
                                             parts in (any::<u64>(), any::<u64>(), 0usize..100_000)) {
            // A mid-stream state from its serialized parts (the restore
            // path), then the same bits as random runs and bit by bit.
            let p = fingerprint_prime(k);
            let t = pick_point(p, pick, draw);
            let (acc, t_pow, len) = parts;
            let start = StreamingFingerprint::from_parts(p, t, acc % p, t_pow % p, len);
            assert_runs_match_feed(&start, &bits, &cuts);
        }

        #[test]
        fn prop_streaming_equals_naive(bits in proptest::collection::vec(any::<bool>(), 0..300),
                                       k in 1u32..=15,
                                       pick in 0u8..8,
                                       draw in any::<u64>()) {
            // The paper's moduli, 17 up to about 2^61; t uniform in
            // [0, p) or one of the edge values 0, 1, p − 2 and p − 1.
            let p = fingerprint_prime(k);
            let t = pick_point(p, pick, draw);
            prop_assert_eq!(fingerprint(&bits, p, t), naive_eval(&bits, p, t));
        }

        #[test]
        fn prop_completeness(bits in proptest::collection::vec(any::<bool>(), 0..100),
                             t in 0u64..257) {
            // Identical strings always agree — the one-sided-error direction.
            let p = 257u64;
            let f1 = fingerprint(&bits, p, t);
            let f2 = fingerprint(&bits, p, t);
            prop_assert_eq!(f1, f2);
        }

        #[test]
        fn prop_appending_zero_bits_changes_nothing(
            bits in proptest::collection::vec(any::<bool>(), 0..100),
            zeros in 0usize..20,
            t in 0u64..257,
        ) {
            let p = 257u64;
            let mut padded = bits.clone();
            padded.extend(std::iter::repeat_n(false, zeros));
            prop_assert_eq!(fingerprint(&bits, p, t), fingerprint(&padded, p, t));
        }
    }
}
