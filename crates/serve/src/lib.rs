//! # oqsc-serve — the session multiplexing engine
//!
//! The serving rung of the ROADMAP's "heavy traffic" north star: one box
//! driving a huge number of concurrent streaming-decider sessions with a
//! bounded working set. [`MuxEngine`] keeps a byte-budgeted, sharded
//! LRU live tier of [`Session`](oqsc_machine::Session)s over two cold
//! tiers — LZ4-compressed checkpoint bytes in memory, then a persistent
//! [`CheckpointStore`](oqsc_machine::CheckpointStore) — and hydrates a
//! suspended session on its next token.
//!
//! The engine's contract (DESIGN.md §12): for any interleaving of token
//! feeds and any budget — including a budget of zero, where every feed
//! evicts and rehydrates — per-session verdicts and metering are
//! `==`-identical to uninterrupted
//! [`run_decider_stream`](oqsc_machine::run_decider_stream), at any
//! worker count. `tests/mux_identity.rs` pins that across all seven
//! deciders, all four backends, three interleaving orders and 1/2/8 workers.
//!
//! The front end is a line protocol
//! (`OPEN`/`FEED`/`FEEDS`/`FINISH`/`STATS`, [`protocol`]) over a Unix
//! socket *or* TCP ([`transport`]), where one line service,
//! [`serve_lines`], runs the server ([`Server`]), the router and the
//! sweep fabric's coordinator. [`Router`] scales the protocol out: it
//! consistent-hashes session ids across N backend engines with
//! byte-identical per-session transcripts (DESIGN.md §14).
//! `experiments serve`, `route` and `drive` and the CI smokes drive both
//! end to end against direct runs.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod catalog;
pub mod drive;
pub mod mux;
pub mod protocol;
pub mod route;
pub mod server;
pub mod transport;

pub use catalog::{AnyDecider, DeciderKind, LDISJ_REPS, SKETCH_BUDGET};
pub use drive::{
    demo_fleet, direct_outcome_lines, drive_fleet, drive_socket, shutdown_socket, stats_socket,
    DrivePhase, FeedMode, FleetEntry, FEED_CHUNK, SESSIONS_PER_KIND,
};
pub use mux::{run_fleet, MuxConfig, MuxEngine, MuxError, MuxStats};
pub use protocol::{
    fabric_request_line, fabric_response_line, feeds_line, fleet_outcome_line, outcome_line,
    parse_fabric_request, parse_fabric_response, parse_fleet_outcome_line, parse_outcome_line,
    parse_request, parse_stats_line, stats_line, FabricRequest, FabricResponse, FeedsBatch,
    Request,
};
pub use route::{route_index, Router, RouterConfig};
pub use server::{Server, ServerConfig};
pub use transport::{bind_unix_socket, serve_lines, LineClient, Listener, OnStop, MAX_LINE_BYTES};
