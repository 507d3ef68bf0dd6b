//! Multi-point fingerprints: error amplification for procedure A2.
//!
//! The paper amplifies by running whole machines in parallel; an
//! alternative local to A2 is to evaluate each block polynomial at `r`
//! independent random points. Equal strings still always agree; unequal
//! strings collide only if *every* point is a root of the difference
//! polynomial, i.e. with probability at most `((m−1)/p)^r` — the
//! exponent costs only a factor `r` in space (`4r·⌈log p⌉` bits instead
//! of `4·⌈log p⌉`). This module is the ablation subject of experiment
//! F3's "points" axis.

use crate::poly::StreamingFingerprint;
use crate::prime::fingerprint_prime;
use rand::Rng;

/// A streaming fingerprint evaluated at `r` points simultaneously.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MultiPointFingerprint {
    lanes: Vec<StreamingFingerprint>,
}

impl MultiPointFingerprint {
    /// Creates an `r`-point fingerprint with independent uniform points
    /// modulo the paper's prime for parameter `k`.
    ///
    /// # Panics
    /// If `r = 0`.
    pub fn for_k<R: Rng + ?Sized>(k: u32, r: usize, rng: &mut R) -> Self {
        assert!(r >= 1, "need at least one point");
        let p = fingerprint_prime(k);
        MultiPointFingerprint {
            lanes: (0..r)
                .map(|_| StreamingFingerprint::new(p, rng.gen_range(0..p)))
                .collect(),
        }
    }

    /// Explicit construction (testing).
    pub fn with_points(p: u64, points: &[u64]) -> Self {
        assert!(!points.is_empty());
        MultiPointFingerprint {
            lanes: points
                .iter()
                .map(|&t| StreamingFingerprint::new(p, t))
                .collect(),
        }
    }

    /// Number of evaluation points `r`.
    pub fn num_points(&self) -> usize {
        self.lanes.len()
    }

    /// Feeds one bit into every lane.
    #[inline]
    pub fn feed(&mut self, bit: bool) {
        for lane in &mut self.lanes {
            lane.feed(bit);
        }
    }

    /// Feeds a whole slice into every lane, each through the run fold
    /// ([`StreamingFingerprint::feed_all`]).
    pub fn feed_all(&mut self, bits: &[bool]) {
        for lane in &mut self.lanes {
            lane.feed_all(bits);
        }
    }

    /// The `r` current values.
    pub fn values(&self) -> Vec<u64> {
        self.lanes.iter().map(StreamingFingerprint::value).collect()
    }

    /// Resets every lane (same points).
    pub fn reset(&mut self) {
        for lane in &mut self.lanes {
            lane.reset();
        }
    }

    /// Work-space footprint: `r` lanes of residues.
    pub fn space_bits(&self) -> u32 {
        self.lanes
            .iter()
            .map(StreamingFingerprint::space_bits)
            .sum()
    }

    /// Upper bound on the false-accept probability for length-`m`
    /// strings: `((m−1)/p)^r`.
    pub fn error_bound(&self, m: usize) -> f64 {
        if m <= 1 {
            return 0.0;
        }
        let single = (m as f64 - 1.0) / self.lanes[0].modulus() as f64;
        single.powi(self.lanes.len() as i32)
    }
}

/// One-shot comparison of two strings under shared points.
pub fn multipoint_probably_equal(fp: &MultiPointFingerprint, a: &[bool], b: &[bool]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut fa = fp.clone();
    fa.reset();
    fa.feed_all(a);
    let mut fb = fp.clone();
    fb.reset();
    fb.feed_all(b);
    fa.values() == fb.values()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn completeness_holds_for_every_point_set() {
        let bits = vec![true, false, true, true, false];
        for pts in [vec![0u64], vec![3, 5], vec![1, 2, 3, 4]] {
            let fp = MultiPointFingerprint::with_points(17, &pts);
            assert!(multipoint_probably_equal(&fp, &bits, &bits));
        }
    }

    #[test]
    fn error_bound_shrinks_geometrically_in_r() {
        let mut rng = StdRng::seed_from_u64(160);
        let m = 1usize << 2;
        let single = MultiPointFingerprint::for_k(1, 1, &mut rng).error_bound(m);
        let double = MultiPointFingerprint::for_k(1, 2, &mut rng).error_bound(m);
        let triple = MultiPointFingerprint::for_k(1, 3, &mut rng).error_bound(m);
        assert!((double - single * single).abs() < 1e-12);
        assert!((triple - single * single * single).abs() < 1e-12);
    }

    #[test]
    fn exhaustive_collision_rate_improves_with_points() {
        // For one fixed unequal pair, count colliding point-pairs
        // exhaustively at r = 1 and r = 2 over p = 17.
        let p = 17u64;
        let a = vec![true, false, false, true];
        let mut b = a.clone();
        b[2] = true;
        let collisions_r1 = (0..p)
            .filter(|&t| {
                let fp = MultiPointFingerprint::with_points(p, &[t]);
                multipoint_probably_equal(&fp, &a, &b)
            })
            .count();
        let mut collisions_r2 = 0usize;
        for t1 in 0..p {
            for t2 in 0..p {
                let fp = MultiPointFingerprint::with_points(p, &[t1, t2]);
                if multipoint_probably_equal(&fp, &a, &b) {
                    collisions_r2 += 1;
                }
            }
        }
        // Exactly the square structure: collisions_r2 = collisions_r1².
        assert_eq!(collisions_r2, collisions_r1 * collisions_r1);
        assert!(collisions_r1 as u64 <= 3, "degree-3 difference polynomial");
    }

    #[test]
    fn space_scales_linearly_in_points() {
        let mut rng = StdRng::seed_from_u64(161);
        let one = MultiPointFingerprint::for_k(2, 1, &mut rng).space_bits();
        let four = MultiPointFingerprint::for_k(2, 4, &mut rng).space_bits();
        assert_eq!(four, 4 * one);
    }

    #[test]
    fn length_mismatch_rejected() {
        let fp = MultiPointFingerprint::with_points(17, &[2]);
        assert!(!multipoint_probably_equal(&fp, &[true], &[true, false]));
    }

    #[test]
    fn reset_and_reuse() {
        let mut fp = MultiPointFingerprint::with_points(257, &[10, 20]);
        fp.feed_all(&[true, true, false]);
        let v = fp.values();
        fp.reset();
        assert_eq!(fp.values(), vec![0, 0]);
        fp.feed_all(&[true, true, false]);
        assert_eq!(fp.values(), v);
        assert_eq!(fp.num_points(), 2);
    }
}
