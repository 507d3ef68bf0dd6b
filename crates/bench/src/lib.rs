//! # oqsc-bench — experiment harness
//!
//! Regenerates every quantitative claim of the paper (the experiment index
//! in `DESIGN.md` / `EXPERIMENTS.md`):
//!
//! * `cargo run --release -p oqsc-bench --bin experiments -- tables`
//!   prints all tables (E1–E6, F1–F4); `experiments help` lists the
//!   other subcommands (one sweep, a pool shard, the fabric roles, store
//!   maintenance, the bench record, and the serving tier);
//! * `cargo bench -p oqsc-bench` times the underlying operations with
//!   Criterion, one bench target per experiment family.
//!
//! The library part holds the table-producing functions so both entry
//! points (and the integration tests) share one implementation. Decider
//! sweeps run through `oqsc_machine::BatchRunner` (size the fleet with
//! `experiments tables --workers N`); `cargo bench --bench throughput`
//! measures the batch and parallel-dense paths against the serial one.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod experiments;
pub mod fabric;
pub mod pool;
pub mod record;

pub use experiments::*;
pub use fabric::{
    fabric_coordinate, fabric_instance_id, fabric_work, split_fabric_instance_id, Coordinator,
    FabricConfig, FabricState, FabricWorkReport, WorkerConfig,
};
pub use pool::{
    emit_outcomes, find_store_files, fleet_outcomes, rows_from_outcomes, rows_from_reports,
    shard_indices, worker_outcomes, OutcomeLedger, PoolError, PoolRunOpts, ProcessPool, ShardId,
    SweepRows, SweepSpec, WORKER_CRASH_EXIT,
};
pub use record::{run_record, RecordOpts};
