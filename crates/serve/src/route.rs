//! The scale-out front: a consistent-hash router spreading session ids
//! across N backend engines that speak the unchanged line protocol.
//!
//! Per-id verbs (`OPEN`/`FEED`/`FEEDS`/`FINISH`) are forwarded verbatim
//! to the engine [`route_index`] picks, and the engine's response line
//! is relayed verbatim — `ERR` included — so a routed fleet's
//! per-session transcript is byte-identical to a single engine's,
//! regardless of engine count. `STATS` fans out to every engine and
//! answers the field-wise sum; `SHUTDOWN` broadcasts, so one request
//! drains the whole fleet.
//!
//! The hash is rendezvous (highest-random-weight): engine `e` wins id
//! `id` when `mix64(mix64(id) ^ mix64(e))` is maximal. Growing the
//! fleet from N to N+1 engines therefore only moves sessions *onto*
//! the new engine — survivors never shuffle between old engines.
//!
//! Ordering: one client connection holds one connection per backend
//! engine, so a session's requests arrive at its engine in the order
//! the client sent them — the same contract a direct connection gives.
//! Those backend links are the only per-connection state; the
//! connection handling itself is [`serve_lines`], as for the server.

use crate::mux::{mix64, MuxStats};
use crate::protocol::{parse_request, parse_stats_line, stats_line, Request};
use crate::transport::{serve_lines, LineClient, Listener, OnStop};
use std::sync::atomic::{AtomicBool, Ordering};

/// The engine index owning session `id` in a fleet of `engines`
/// backends — rendezvous hashing over the engine's SplitMix64 finalizer.
/// Deterministic and stable: every router instance, and any offline
/// tool, computes the same placement.
pub fn route_index(id: u64, engines: usize) -> usize {
    assert!(engines > 0, "a fleet has at least one engine");
    (0..engines)
        .max_by_key(|&e| mix64(mix64(id) ^ mix64(e as u64)))
        .expect("non-empty range")
}

/// Router sizing: the connection cap (same semantics as the server's).
#[derive(Clone, Debug)]
pub struct RouterConfig {
    /// Client connections served at once; later clients wait in the
    /// listen backlog until one hangs up.
    pub threads: usize,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig { threads: 4 }
    }
}

/// A bound, not-yet-running router in front of a fixed engine fleet.
pub struct Router {
    listener: Listener,
    engines: Vec<String>,
    config: RouterConfig,
}

impl Router {
    /// Binds `addr` (Unix path or `host:port`, like the server) in
    /// front of the `engines` addresses. The fleet must be non-empty;
    /// backends are dialed lazily, per client connection, on first use.
    pub fn bind(addr: &str, engines: Vec<String>, config: RouterConfig) -> std::io::Result<Router> {
        if engines.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "a router needs at least one engine address",
            ));
        }
        let listener = Listener::bind(addr)?;
        Ok(Router {
            listener,
            engines,
            config,
        })
    }

    /// The bound address in dialable form (kernel-chosen TCP ports
    /// included).
    pub fn local_addr(&self) -> String {
        self.listener.local_addr()
    }

    /// Routes until a `SHUTDOWN` request, which is broadcast to every
    /// engine before the router itself drains. A Unix socket file is
    /// removed on return.
    pub fn run(self) -> std::io::Result<()> {
        let Router {
            listener,
            engines,
            config,
        } = self;
        let done = AtomicBool::new(false);
        let (engines, done_ref) = (&engines, &done);
        serve_lines(listener, config.threads, &done, OnStop::Close, || {
            let mut backends = Backends::new(engines);
            move |line: &str| route_one(line, &mut backends, done_ref)
        })
    }
}

/// This connection's lazily-dialed backend links, one slot per engine.
/// A backend that errors is dropped from the cache so the next request
/// for it redials instead of reusing a dead connection.
struct Backends<'a> {
    addrs: &'a [String],
    links: Vec<Option<LineClient>>,
}

impl<'a> Backends<'a> {
    fn new(addrs: &'a [String]) -> Self {
        Backends {
            links: (0..addrs.len()).map(|_| None).collect(),
            addrs,
        }
    }

    /// Sends `line` to engine `index` and returns its response line,
    /// dialing on first use.
    fn ask(&mut self, index: usize, line: &str) -> std::io::Result<String> {
        if self.links[index].is_none() {
            self.links[index] = Some(LineClient::connect(&self.addrs[index])?);
        }
        let link = self.links[index].as_mut().expect("just dialed");
        match link.ask(line) {
            Ok(response) => Ok(response),
            Err(e) => {
                self.links[index] = None;
                Err(e)
            }
        }
    }
}

/// Routes one request line and renders the response line.
fn route_one(line: &str, backends: &mut Backends<'_>, done: &AtomicBool) -> String {
    // Parse locally first: malformed lines are answered here instead of
    // burning an engine round trip, and the id tells us where to go.
    let request = match parse_request(line) {
        Ok(r) => r,
        Err(msg) => return format!("ERR {msg}"),
    };
    let forward_to = |backends: &mut Backends<'_>, id: u64| -> String {
        let index = route_index(id, backends.addrs.len());
        match backends.ask(index, line) {
            // Relayed verbatim, ERR included: the routed transcript is
            // byte-identical to a direct connection's.
            Ok(response) => response,
            Err(e) => format!("ERR engine {} unreachable: {e}", backends.addrs[index]),
        }
    };
    match request {
        Request::Open { id, .. } | Request::Feed { id, .. } | Request::Feeds { id, .. } => {
            forward_to(backends, id)
        }
        Request::Finish { id } => forward_to(backends, id),
        Request::Stats => {
            let mut total = MuxStats::default();
            for index in 0..backends.addrs.len() {
                let response = match backends.ask(index, "STATS") {
                    Ok(r) => r,
                    Err(e) => {
                        return format!("ERR engine {} unreachable: {e}", backends.addrs[index])
                    }
                };
                let stats = match parse_stats_line(&response) {
                    Ok(s) => s,
                    Err(msg) => return format!("ERR engine {}: {msg}", backends.addrs[index]),
                };
                total.opened += stats.opened;
                total.finished += stats.finished;
                total.tokens += stats.tokens;
                total.live += stats.live;
                // Summed per-engine peaks: an upper bound on the true
                // fleet-wide concurrent peak, which no single box saw.
                total.peak_live += stats.peak_live;
                total.warm += stats.warm;
                total.evictions += stats.evictions;
                total.hydrations += stats.hydrations;
                total.spills += stats.spills;
                total.spill_hydrations += stats.spill_hydrations;
            }
            stats_line(&total)
        }
        Request::Shutdown => {
            // Broadcast so one SHUTDOWN drains the whole fleet; engines
            // that fail to answer are reported, not retried.
            let mut failures = Vec::new();
            for index in 0..backends.addrs.len() {
                match backends.ask(index, "SHUTDOWN") {
                    Ok(_) => {}
                    Err(_) => failures.push(backends.addrs[index].clone()),
                }
            }
            done.store(true, Ordering::SeqCst);
            if failures.is_empty() {
                "OK shutdown".to_string()
            } else {
                format!(
                    "ERR shutdown incomplete: unreachable {}",
                    failures.join(",")
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendezvous_growth_only_moves_sessions_onto_the_new_engine() {
        for engines in 1usize..6 {
            for id in 0..500u64 {
                let before = route_index(id, engines);
                let after = route_index(id, engines + 1);
                assert!(
                    after == before || after == engines,
                    "id {id}: {before} -> {after} with {engines}+1 engines"
                );
            }
        }
    }

    #[test]
    fn routing_spreads_ids_across_the_fleet() {
        let mut counts = [0usize; 4];
        for id in 0..4000u64 {
            counts[route_index(id, 4)] += 1;
        }
        for (engine, &n) in counts.iter().enumerate() {
            assert!(
                (600..=1400).contains(&n),
                "engine {engine} got {n} of 4000 ids"
            );
        }
    }
}
