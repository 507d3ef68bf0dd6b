//! # oqsc-quantum — state-vector quantum simulation substrate
//!
//! The quantum substrate for the reproduction of Le Gall,
//! *Exponential Separation of Quantum and Classical Online Space
//! Complexity* (SPAA 2006). The paper's machine model (Definition 2.3) is a
//! classical one-way Turing machine that writes a quantum circuit over the
//! universal set `G = {H, T, CNOT}`; the circuit is then applied to
//! `|0…0⟩` and its first qubit measured. Since no quantum hardware is
//! required (or exists at the paper's envisioned scale), this crate supplies
//! an exact dense state-vector simulator as the substitute substrate:
//!
//! * [`complex`] — complex arithmetic (`num-complex` is outside the offline
//!   crate set, so the needed subset lives here);
//! * [`matrix`] — small dense matrices for gate definitions and for
//!   verifying circuit identities with Kronecker products;
//! * [`gate`] — the strict paper set plus standard derived gates;
//! * [`backend`] — the [`QuantumBackend`] trait every simulator implements
//!   and every consumer crate is generic over;
//! * [`state`] — the dense `O(2^n)`-amplitude simulator with `O(2^n)`-time
//!   gate application and `O(1)`-time streaming structured updates;
//! * [`sparse`] — the support-proportional simulator for the structured
//!   states of procedure A3 (the occupied 64-amplitude blocks, run by the
//!   dense SIMD kernels; a streamed window of 64 input bits costs one
//!   block lookup per touched block, DESIGN.md §2);
//! * [`par`] — **the** scoped-thread work-splitting module (every spawn in
//!   the substrate lives here) plus the chunked floating-point summation
//!   contract all backends' reductions follow;
//! * [`parallel`] — the parallel dense backend ([`ParallelStateVector`]):
//!   dense semantics bit-for-bit, `O(2^n)` passes split across scoped
//!   worker threads above a size threshold;
//! * [`simd`] — explicit AVX2/NEON kernels for the dense inner loops,
//!   runtime-dispatched with a scalar reference fallback, bit-for-bit
//!   equal to the scalar paths (the only module with `unsafe` code);
//! * [`adaptive`] — the adaptive backend ([`AdaptiveState`]): starts
//!   sparse, promotes to parallel-dense when the support density crosses a
//!   deterministic threshold (a pure function of the state);
//! * [`snapshot`] — versioned byte-exact state serialization
//!   ([`StateSnapshot`]), the quantum half of the session engine's
//!   suspend/resume seam;
//! * [`circuit`] — circuit IR, plus the paper's exact `a#b#c` output-tape
//!   format (serializer and validating parser);
//! * [`structured`] — the operators `U_k`, `S_k`, `V_x`, `W_x`, `R_x` of
//!   procedure A3, in both whole-block and per-streamed-bit forms;
//! * [`decompose`] — **exact** lowering of every operator the paper uses to
//!   the strict `{H, T, CNOT}` set (Toffoli networks, multi-controlled
//!   X/Z via ancilla chains);
//! * [`synth`] — approximate single-qubit synthesis over `⟨H, T⟩`,
//!   demonstrating the universality claim quantitatively;
//! * [`optimize`] — exact peephole optimization of strict circuits
//!   (pair cancellation, `T`-run folding mod 8), quantifying how much of
//!   the mechanical lowering overhead is recoverable.

#![warn(missing_docs)]
#![deny(unsafe_code)] // `simd.rs` alone opts back in; see its module docs.

pub mod adaptive;
pub mod backend;
pub mod circuit;
pub mod complex;
pub mod decompose;
pub mod diagnostics;
pub mod gate;
pub mod matrix;
pub mod optimize;
pub mod par;
pub mod parallel;
pub mod simd;
pub mod snapshot;
pub mod sparse;
pub mod state;
pub mod structured;
pub mod synth;

pub use adaptive::AdaptiveState;
pub use backend::QuantumBackend;
pub use circuit::{Circuit, FormatError, StrictCircuit, StrictOp};
pub use complex::Complex;
pub use diagnostics::{chi_squared_quantile_bound, SampleHistogram};
pub use gate::Gate;
pub use matrix::Matrix;
pub use optimize::{optimize_circuit, optimize_gates, optimize_strict, OptimizeStats};
pub use parallel::{ParallelStateVector, PARALLEL_THRESHOLD};
pub use simd::SimdLevel;
pub use snapshot::{SnapshotError, StateSnapshot, SNAPSHOT_VERSION};
pub use sparse::SparseState;
pub use state::StateVector;
pub use structured::GroverLayout;
