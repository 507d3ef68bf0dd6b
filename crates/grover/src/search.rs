//! Exact simulation of Grover search over an explicit marked set.
//!
//! This is the engine behind procedure A3's analysis: a phase oracle for
//! the marked predicate plus the reflection about the mean. The simulation
//! is exact (dense state vector), so success probabilities can be compared
//! digit-for-digit with the closed forms in [`crate::analysis`].

use oqsc_quantum::complex::ONE;
use oqsc_quantum::{QuantumBackend, StateVector};
use rand::Rng;

/// A Grover search instance over `N = marked.len()` items (power of two).
#[derive(Clone, Debug)]
pub struct GroverSim {
    width: usize,
    marked: Vec<bool>,
}

impl GroverSim {
    /// Creates a search over the given marked set.
    ///
    /// # Panics
    /// If `marked.len()` is not a power of two ≥ 2.
    pub fn new(marked: Vec<bool>) -> Self {
        assert!(
            marked.len().is_power_of_two() && marked.len() >= 2,
            "domain must be a power of two ≥ 2"
        );
        let width = marked.len().trailing_zeros() as usize;
        GroverSim { width, marked }
    }

    /// Domain size `N`.
    pub fn domain(&self) -> usize {
        self.marked.len()
    }

    /// Number of marked items `t`.
    pub fn num_marked(&self) -> usize {
        self.marked.iter().filter(|&&b| b).count()
    }

    /// Register width `log₂ N`.
    pub fn width(&self) -> usize {
        self.width
    }

    /// The state after `iterations` Grover iterations from uniform, in the
    /// dense reference backend.
    pub fn state_after(&self, iterations: usize) -> StateVector {
        self.state_after_in(iterations)
    }

    /// The state after `iterations` Grover iterations from uniform, in any
    /// backend.
    pub fn state_after_in<B: QuantumBackend>(&self, iterations: usize) -> B {
        let mut s = B::uniform(self.width);
        for _ in 0..iterations {
            self.iterate(&mut s);
        }
        s
    }

    /// One Grover iteration: phase oracle, then inversion about the mean.
    pub fn iterate<B: QuantumBackend>(&self, s: &mut B) {
        // Oracle: negate marked amplitudes.
        s.phase_if(|b| self.marked[b], -ONE);
        // Diffusion H^{⊗w} · (phase flip on ≠0) · H^{⊗w}: the whole
        // register is one run.
        s.invert_about_mean(self.width);
    }

    /// Exact probability that measuring after `iterations` yields a marked
    /// item.
    pub fn success_probability(&self, iterations: usize) -> f64 {
        self.state_after(iterations)
            .probability_where(|b| self.marked[b])
    }

    /// Samples a measured index after `iterations`.
    pub fn sample<R: Rng + ?Sized>(&self, iterations: usize, rng: &mut R) -> usize {
        self.state_after(iterations).sample_basis(rng)
    }

    /// Whether index `i` is marked (oracle access, also used by classical
    /// baselines so both pay the same query interface).
    pub fn is_marked(&self, i: usize) -> bool {
        self.marked[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{optimal_iterations, success_after};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn exact_simulation_matches_closed_form() {
        let n = 64usize;
        for t in [1usize, 2, 5, 16, 63] {
            let mut marked = vec![false; n];
            for i in 0..t {
                marked[(i * 7 + 3) % n] = true;
            }
            // Keep exactly t marked (indices may collide for large t).
            let actual_t = marked.iter().filter(|&&b| b).count();
            let sim = GroverSim::new(marked);
            for j in [0usize, 1, 2, 5] {
                let exact = sim.success_probability(j);
                let formula = success_after(j, actual_t, n);
                assert!(
                    (exact - formula).abs() < 1e-9,
                    "t={actual_t} j={j}: {exact} vs {formula}"
                );
            }
        }
    }

    #[test]
    fn optimal_iterations_almost_certain() {
        let n = 256usize;
        let mut marked = vec![false; n];
        marked[137] = true;
        let sim = GroverSim::new(marked);
        let j = optimal_iterations(1, n);
        assert!(sim.success_probability(j) > 0.99);
    }

    #[test]
    fn unmarked_domain_never_succeeds() {
        let sim = GroverSim::new(vec![false; 16]);
        assert_eq!(sim.num_marked(), 0);
        for j in 0..6 {
            assert!(sim.success_probability(j) < 1e-12);
        }
    }

    #[test]
    fn sampling_finds_planted_item() {
        let n = 64usize;
        let mut marked = vec![false; n];
        marked[42] = true;
        let sim = GroverSim::new(marked);
        let j = optimal_iterations(1, n);
        let mut rng = StdRng::seed_from_u64(17);
        let hits = (0..200).filter(|_| sim.sample(j, &mut rng) == 42).count();
        assert!(hits > 180, "hits = {hits}");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_domain_panics() {
        GroverSim::new(vec![false; 12]);
    }

    #[test]
    fn geometry_accessors() {
        let sim = GroverSim::new(vec![true, false, false, true]);
        assert_eq!(sim.domain(), 4);
        assert_eq!(sim.width(), 2);
        assert_eq!(sim.num_marked(), 2);
        assert!(sim.is_marked(0));
        assert!(!sim.is_marked(1));
    }
}
