//! # oqsc-core — the paper's contribution
//!
//! The online quantum machine of Le Gall's *Exponential Separation of
//! Quantum and Classical Online Space Complexity* (SPAA 2006), assembled
//! from the substrate crates:
//!
//! * [`a1`] — procedure A1, the deterministic `O(log n)`-space format
//!   check (condition (i));
//! * [`a2`] — procedure A2, the one-sided fingerprint consistency check
//!   (conditions (ii)/(iii));
//! * [`a3`] — procedure A3, online Grover against the stream with at most
//!   four amplitude updates per symbol on a `2k + 2`-qubit register;
//! * [`emit`] — Definition 2.3 compliance: A3 compiled to the strict
//!   `{H, T, CNOT}` set in the paper's `a#b#c` output format;
//! * [`model`] — the Definition 2.3 pipeline run literally (emit →
//!   serialize → parse → validate → execute → measure first qubit);
//! * [`recognizer`] — Theorem 3.4's one-sided recognizer of `L̄_DISJ`
//!   and Corollary 3.5's amplified bounded-error recognizer of `L_DISJ`;
//! * [`classical`] — Proposition 3.7's `Θ(n^{1/3})` classical decider and
//!   the sub-√m sketches that demonstrably fail;
//! * [`separation`] — the measured separation table (experiment F1),
//!   fanned out over the batch scheduler;
//! * [`sweep`] — batched recognizer sweeps: fleets of seeded recognizer
//!   instances driven through [`oqsc_machine::BatchRunner`], generic over
//!   the simulation backend.
//!
//! ## Quickstart
//!
//! ```
//! use oqsc_core::recognizer::LdisjRecognizer;
//! use oqsc_lang::random_member;
//! use oqsc_machine::{run_decider, StreamingDecider};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let instance = random_member(2, &mut rng);           // k=2: strings of 16 bits
//! let word = instance.encode();                        // 1^2#(x#y#x#)^4
//! let outcome = run_decider(LdisjRecognizer::new(4, &mut rng), &word);
//! assert!(outcome.accept);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

use oqsc_lang::Sym;

pub mod a1;
pub mod a2;
pub mod a3;
pub mod class;
pub mod classical;
pub mod emit;
pub mod model;
pub mod recognizer;
pub mod separation;
pub mod sweep;

pub use a1::FormatChecker;
pub use a2::ConsistencyChecker;
pub use a3::{
    a3_exact_detection_probability, a3_exact_detection_probability_in, GroverStreamer,
    MAX_SIMULABLE_K,
};
pub use class::{witness_obpspace_cbrt, witness_oqbpl, witness_oqrl, ClassWitness, WitnessRow};
pub use classical::{Prop37Decider, SketchDecider};
pub use emit::{a3_strict_circuit, emitted_detection_probability, EmittedLayout};
pub use model::{run_definition_2_3, validate_oqr_conditions, Definition23Run, OqrValidation};
pub use recognizer::{
    exact_complement_accept_probability, ComplementRecognizer, LdisjRecognizer, SpaceReport,
};
pub use separation::{
    measure_separation_row, measure_separation_row_seeded, separation_classical_task,
    separation_quantum_task, separation_rows_batched, separation_rows_from_reports,
    separation_rows_scheduled, separation_table, SeparationRow,
};
pub use sweep::{
    complement_accept_frequency_in, complement_frequency_task, complement_sweep,
    complement_sweep_in, complement_sweep_resumable_in, complement_sweep_scheduled_in, derive_seed,
    f3_fingerprint_task, f4_sketch_task, ldisj_sweep, ldisj_sweep_in, ldisj_sweep_scheduled_in,
};

/// Splits off the next step of a run-batched `feed_all` (A1, A2, A3):
/// the maximal bit run at the front of `word` once the decider is
/// `in_blocks` (past its `1^k#` prefix), otherwise one symbol. A
/// separator is always a step of its own. `word` must be non-empty.
fn split_step(word: &[Sym], in_blocks: bool) -> (&[Sym], &[Sym]) {
    let mut run = 0;
    if in_blocks {
        // Skip 32-symbol chunks without a separator first: the
        // branch-free test of a whole chunk vectorizes, where `position`
        // compares one symbol at a time (11× slower on a k = 4 word).
        for chunk in word.chunks_exact(32) {
            if chunk.iter().fold(false, |seen, &s| seen | (s == Sym::Hash)) {
                break;
            }
            run += 32;
        }
        run += word[run..]
            .iter()
            .position(|&s| s == Sym::Hash)
            .unwrap_or(word.len() - run);
    }
    word.split_at(run.max(1))
}

/// Packs up to 64 block bits into a `u64`, bit `j` set when `bits[j]` is
/// a `1`: the mask of one A3 window op. Branch-free. Each 32-symbol chunk
/// folds into a `u32`, which vectorizes; one `u64` fold over the window
/// took 42 ns, the chunks 11 ns.
fn pack_ones(bits: &[Sym]) -> u64 {
    debug_assert!(bits.len() <= 64);
    let one = |s: &Sym| *s == Sym::One;
    let chunks = bits.chunks_exact(32);
    let tail = chunks.remainder();
    let mut mask = 0u64;
    for (c, chunk) in chunks.enumerate() {
        let bits32 = chunk
            .iter()
            .enumerate()
            .fold(0u32, |m, (j, s)| m | (u32::from(one(s)) << j));
        mask |= u64::from(bits32) << (32 * c);
    }
    let at = bits.len() - tail.len();
    for (j, s) in tail.iter().enumerate() {
        mask |= u64::from(one(s)) << (at + j);
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_ones_sets_the_bit_of_every_one() {
        let syms: Vec<Sym> = (0..128)
            .map(|i| {
                if i % 3 == 0 || i % 7 == 2 {
                    Sym::One
                } else {
                    Sym::Zero
                }
            })
            .collect();
        for start in [0, 1, 5] {
            for len in 0..=64 {
                let window = &syms[start..start + len];
                let want = window
                    .iter()
                    .enumerate()
                    .filter(|&(_, &s)| s == Sym::One)
                    .fold(0u64, |m, (j, _)| m | 1 << j);
                assert_eq!(pack_ones(window), want, "start {start} len {len}");
            }
        }
    }
}
