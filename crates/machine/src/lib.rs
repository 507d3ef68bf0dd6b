//! # oqsc-machine — classical online Turing machines (Section 2.1)
//!
//! The classical substrate of the reproduction: the paper's model of
//! online (one-way) probabilistic Turing machines, with three layers:
//!
//! * [`optm`] — explicit OPTMs as probabilistic transition tables, with
//!   sampled runs, exact acceptance probabilities (configuration-
//!   distribution evolution), the boundary-configuration enumeration that
//!   Theorem 3.6's reduction transmits, and Fact 2.2's configuration
//!   counting bound;
//! * [`streaming`] — the [`StreamingDecider`]
//!   trait every concrete online algorithm implements (procedures A1/A2,
//!   the Proposition 3.7 algorithm, the sketches), with configuration
//!   snapshots for the communication reduction and the full
//!   [`RunOutcome`] space accounting;
//! * [`session`] — the session engine: [`Session`]
//!   drives a decider token by token and, for
//!   [`Checkpointable`] deciders, suspends into
//!   a versioned [`SessionCheckpoint`] and
//!   resumes anywhere, bit-identically (DESIGN.md §7);
//! * [`batch`] — the [`BatchRunner`]: many decider
//!   instances driven concurrently by a claim-next scheduler (each
//!   worker claims the next unstarted instance), aggregated into a
//!   worker-count-independent [`BatchReport`]; under
//!   [`SessionSchedule::MigrateEvery`](batch::SessionSchedule) every
//!   instance is suspended to bytes and resumed at each segment boundary;
//! * [`store`] — the persistent checkpoint layer: a content-addressed,
//!   append-only [`CheckpointStore`] log whose
//!   header pins store/checkpoint/workspace versions and the decider
//!   type, with strict open, a salvaging
//!   [`recover`](store::CheckpointStore::recover) path, finished-instance
//!   outcome records (resume skips, never replays, completed work), and
//!   [`compact`](store::CheckpointStore::compact)ion — crash-recoverable
//!   sweeps (DESIGN.md §8–§9);
//! * [`register`] — the [`MeteredRegister`]
//!   quantum-register handle making quantum streaming drivers generic over
//!   any [`oqsc_quantum::QuantumBackend`];
//! * [`space`] — bit-level work-space metering shared by all of them.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod batch;
pub mod builder;
pub mod counter;
pub mod nerode;
pub mod optm;
pub mod register;
pub mod session;
pub mod space;
pub mod store;
pub mod streaming;

pub use batch::{BatchReport, BatchRunner, SessionSchedule};
pub use builder::{a1_shape_machine, OptmBuilder};
pub use counter::power_of_two_length_machine;
pub use nerode::{mini_disj_space_floor, nerode_classes_at, streaming_space_floor_bits};
pub use optm::{
    fact_2_2_log2_configs, machine_contains_one, machine_even_ones, machine_fair_coin,
    machine_first_equals_last, Action, Configuration, InputMove, Optm, OptmRunOutcome, State,
    TapeSym, WorkMove,
};
pub use register::MeteredRegister;
pub use session::{
    put_bool, put_bytes, put_u32, put_u64, put_u8, put_usize, ByteReader, CheckpointError,
    Checkpointable, Session, SessionCheckpoint, CHECKPOINT_VERSION,
};
pub use space::{bits_for_counter, bits_for_range, SpaceMeter};
pub use store::{
    content_key, peek_header, peek_tag, CheckpointStore, CompactionReport, RecordScanner,
    RecoveryReport, ScannedRecord, StoreError, StoreHeader, StoreStats, COMPRESS_MIN_LEN,
    STORE_MAGIC, STORE_VERSION, WORKSPACE_VERSION,
};
pub use streaming::{
    run_decider, run_decider_stream, RunOutcome, StoreEverything, StorePredicate, StreamingDecider,
};
