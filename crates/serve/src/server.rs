//! The serving front end: one [`MuxEngine`] behind the line protocol,
//! on a Unix socket *or* a TCP port.
//!
//! The connection handling is [`serve_lines`]: a thread per connection,
//! at most [`ServerConfig::threads`] at once, bounded request reads
//! (an overlong or non-UTF-8 line costs one `ERR`, never a dropped
//! connection or an unbounded allocation). This module only maps a
//! request line to its response. A single `SHUTDOWN` request (from any
//! connection) stops the accept loop and closes every connection at its
//! next read poll, without signals or self-connects. Per-session
//! ordering is the client's contract — the engine serializes operations
//! on one id through its shard lock, and a client that wants a session's
//! tokens in stream order must send them in order on one connection.
//!
//! With a spill store attached, a graceful `SHUTDOWN` flushes every
//! live and warm session into the store, so a server restarted on the
//! same store rehydrates mid-stream sessions instead of losing them.

use crate::catalog::AnyDecider;
use crate::mux::{MuxConfig, MuxEngine, MuxStats};
use crate::protocol::{outcome_line, parse_request, stats_line, Request};
use crate::transport::{serve_lines, Listener, OnStop};
use oqsc_machine::CheckpointStore;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};

/// Server sizing: the connection cap and the engine's tier budgets.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Connections served at once; later clients wait in the listen
    /// backlog until one hangs up.
    pub threads: usize,
    /// The multiplexing engine's budgets.
    pub mux: MuxConfig,
    /// Checkpoint store path for the spill tier. Opened if it exists
    /// (recovering a torn tail), created otherwise; on graceful
    /// shutdown every resident session is flushed into it.
    pub spill_store: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            threads: 4,
            mux: MuxConfig::default(),
            spill_store: None,
        }
    }
}

/// A bound, not-yet-running server. Binding is separate from running so
/// callers (the CLI, tests) can report readiness before blocking.
pub struct Server {
    listener: Listener,
    config: ServerConfig,
}

impl Server {
    /// Binds `addr` — `host:port` for TCP, a filesystem path for a Unix
    /// socket. Unix paths get the stale-vs-live discipline of
    /// [`bind_unix_socket`](crate::bind_unix_socket); a path a live
    /// server answers on is refused.
    pub fn bind(addr: &str, config: ServerConfig) -> std::io::Result<Server> {
        let listener = Listener::bind(addr)?;
        Ok(Server { listener, config })
    }

    /// The bound address in dialable form — for TCP the *actual*
    /// address, so binding port `0` reports the kernel-chosen port.
    pub fn local_addr(&self) -> String {
        self.listener.local_addr()
    }

    /// Serves until a `SHUTDOWN` request, then returns the engine's
    /// final statistics. A Unix socket file is removed on return; with a
    /// spill store attached, resident sessions are flushed into it.
    pub fn run(self) -> std::io::Result<MuxStats> {
        let engine = match &self.config.spill_store {
            Some(path) => {
                let store = if path.exists() {
                    CheckpointStore::recover_for::<AnyDecider>(path).map(|(store, _report)| store)
                } else {
                    CheckpointStore::create_for::<AnyDecider>(path)
                }
                .map_err(|e| std::io::Error::other(e.to_string()))?;
                MuxEngine::<AnyDecider>::with_spill(self.config.mux, store)
            }
            None => MuxEngine::<AnyDecider>::new(self.config.mux),
        };
        let done = AtomicBool::new(false);
        let (engine_ref, done_ref) = (&engine, &done);
        serve_lines(
            self.listener,
            self.config.threads,
            &done,
            OnStop::Close,
            || move |line: &str| respond(engine_ref, line, done_ref),
        )?;
        engine
            .flush_to_spill()
            .map_err(|e| std::io::Error::other(e.to_string()))?;
        Ok(engine.stats())
    }
}

/// Applies one request to the engine and renders the response line.
fn respond(engine: &MuxEngine<AnyDecider>, line: &str, done: &AtomicBool) -> String {
    let request = match parse_request(line) {
        Ok(r) => r,
        Err(msg) => return format!("ERR {msg}"),
    };
    match request {
        Request::Open { id, kind, seed } => match engine.open(id, kind.build(seed)) {
            Ok(()) => format!("OK {id} 0"),
            Err(e) => format!("ERR {e}"),
        },
        Request::Feed { id, word } => match engine.feed(id, &word) {
            Ok(position) => format!("OK {id} {position}"),
            Err(e) => format!("ERR {e}"),
        },
        // The batched fast path: the whole batch lands on the session
        // as one `feed_slice` call and one budget-enforcement pass.
        Request::Feeds { id, words } => match engine.feed(id, &words.concat()) {
            Ok(position) => format!("OK {id} {position}"),
            Err(e) => format!("ERR {e}"),
        },
        Request::Finish { id } => match engine.finish(id) {
            Ok(out) => outcome_line(id, &out),
            Err(e) => format!("ERR {e}"),
        },
        Request::Stats => stats_line(&engine.stats()),
        Request::Shutdown => {
            done.store(true, Ordering::SeqCst);
            "OK shutdown".to_string()
        }
    }
}
