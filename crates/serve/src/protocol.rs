//! The line-oriented serving protocol.
//!
//! Same style as the sweep fabric's `OUTCOME` protocol: one request per
//! line, space-separated integer-exact fields, one response line per
//! request. Words travel in the repo's `0`/`1`/`#` surface syntax.
//!
//! ```text
//! -> OPEN <id> <kind> <seed>        <- OK <id> 0
//! -> FEED <id> <word>               <- OK <id> <position>
//! -> FEEDS <id> <n> <w1> … <wn>     <- OK <id> <position>
//! -> FINISH <id>                    <- OUTCOME <id> <accept> <bits> <qubits> <amplitudes>
//! -> STATS                          <- STATS <opened> <finished> <tokens> <live> <peak_live>
//!                                            <warm> <evictions> <hydrations> <spills>
//!                                            <spill_hydrations>
//! -> SHUTDOWN                       <- OK shutdown
//! ```
//!
//! `FEEDS` is the batched form of `FEED`: `<n>` word chunks land on the
//! session in one request, one budget-enforcement pass, and one response
//! line — the per-token round trip is the serving hot path's dominant
//! cost, so batch when you can. The declared count must match the chunks
//! actually present; a hostile `<n>` never preallocates. The chunks are
//! parsed in one pass over the line's bytes straight into one token
//! buffer ([`FeedsBatch`]), which the server feeds as it is. Chunks
//! split wherever [`str::split_whitespace`] splits, non-ASCII
//! whitespace included.
//!
//! The protocol is transport-agnostic: the same lines flow over a Unix
//! socket or TCP (see [`crate::transport`]).
//!
//! Any failure answers `ERR <message>` and leaves the connection usable.
//! `<kind>` is a [`DeciderKind`] name; `<seed>` deterministically builds
//! the decider, so a served session is exactly reproducible offline.

use crate::catalog::DeciderKind;
use crate::mux::MuxStats;
use oqsc_lang::Sym;
use oqsc_machine::RunOutcome;

/// One parsed request line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// `OPEN <id> <kind> <seed>`
    Open {
        /// Session id (single-use per server).
        id: u64,
        /// Catalog kind to build.
        kind: DeciderKind,
        /// Constructor seed.
        seed: u64,
    },
    /// `FEED <id> <word>`
    Feed {
        /// Session id.
        id: u64,
        /// Tokens to feed, in stream order.
        word: Vec<Sym>,
    },
    /// `FEEDS <id> <n> <w1> … <wn>`
    Feeds {
        /// Session id.
        id: u64,
        /// The batched word chunks, joined in stream order.
        words: FeedsBatch,
    },
    /// `FINISH <id>`
    Finish {
        /// Session id.
        id: u64,
    },
    /// `STATS`
    Stats,
    /// `SHUTDOWN`
    Shutdown,
}

/// The tokens of a `FEEDS` batch: its chunks joined, in stream order, in
/// one buffer. Chunk boundaries are not kept — a batch feeds the session
/// as one slice, so `FEEDS 1 2 01 1` and `FEEDS 1 1 011` are the same
/// request.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FeedsBatch(Vec<Sym>);

impl FeedsBatch {
    /// The joined tokens.
    pub fn tokens(&self) -> &[Sym] {
        &self.0
    }

    /// The joined tokens as an owned buffer (a move, not a copy).
    pub fn concat(self) -> Vec<Sym> {
        self.0
    }
}

fn parse_u64(what: &str, raw: Option<&str>) -> Result<u64, String> {
    raw.and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("bad {what}"))
}

const BAD_WORD: &str = "bad word (expected 0/1/# tokens)";

/// A line's whitespace-separated fields, exactly as
/// [`str::split_whitespace`] yields them, with the unread rest of the
/// line at hand for the `FEEDS` body.
struct Fields<'a>(&'a str);

impl<'a> Iterator for Fields<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        let rest = self.0.trim_start();
        let end = rest.find(char::is_whitespace).unwrap_or(rest.len());
        let (field, rest) = rest.split_at(end);
        self.0 = rest;
        (!field.is_empty()).then_some(field)
    }
}

/// Byte length of the separator at `body[i..]`, or 0 if none starts
/// there. A separator is one whitespace character as
/// [`char::is_whitespace`] defines it — the rule
/// [`str::split_whitespace`] splits on — so ASCII bytes decide alone and
/// only a non-ASCII byte decodes its character. `i` is a char boundary.
fn separator_len(body: &str, i: usize) -> usize {
    match body.as_bytes()[i] {
        b'\t'..=b'\r' | b' ' => 1,
        b if b.is_ascii() => 0,
        _ => body[i..]
            .chars()
            .next()
            .filter(|c| c.is_whitespace())
            .map_or(0, char::len_utf8),
    }
}

/// The symbol each byte spells: `0`, `1` and `#` decode, no other byte
/// does. A table, not a `match`, so random bits cost no mispredicted
/// branches.
const SYM_OF_BYTE: [Option<Sym>; 256] = {
    let mut table = [None; 256];
    table[b'0' as usize] = Some(Sym::Zero);
    table[b'1' as usize] = Some(Sym::One);
    table[b'#' as usize] = Some(Sym::Hash);
    table
};

/// Parses the body of a `FEEDS` line — everything after its count — in
/// one pass over the bytes into one token buffer. Exactly `declared`
/// chunks must be present. The buffer is sized by the bytes that
/// arrived, never by `declared`, so a hostile count costs nothing.
/// Errors match a field-by-field parse: the first chunk that is not
/// pure `0`/`1`/`#` is a bad word, a chunk past the count is a trailing
/// field, and a short batch is truncated.
fn parse_feeds_body(body: &str, declared: u64) -> Result<Vec<Sym>, String> {
    let bytes = body.as_bytes();
    let mut tokens = Vec::with_capacity(bytes.len());
    let mut got = 0u64;
    let mut i = 0;
    loop {
        while i < bytes.len() {
            match separator_len(body, i) {
                0 => break,
                width => i += width,
            }
        }
        if i == bytes.len() {
            break;
        }
        if got == declared {
            return Err("trailing fields after FEEDS".to_string());
        }
        got += 1;
        let start = tokens.len();
        tokens.extend(
            bytes[i..]
                .iter()
                .map_while(|&b| SYM_OF_BYTE[usize::from(b)]),
        );
        i += tokens.len() - start;
        if i < bytes.len() && separator_len(body, i) == 0 {
            return Err(BAD_WORD.to_string());
        }
    }
    if got < declared {
        return Err(format!(
            "truncated FEEDS batch: declared {declared}, got {got}"
        ));
    }
    Ok(tokens)
}

/// Parses one request line. Errors are protocol-level messages suitable
/// for an `ERR` response.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let mut parts = Fields(line);
    let verb = parts.next().ok_or_else(|| "empty request".to_string())?;
    let req = match verb {
        "OPEN" => {
            let id = parse_u64("id", parts.next())?;
            let kind = parts
                .next()
                .and_then(DeciderKind::from_name)
                .ok_or_else(|| "bad kind".to_string())?;
            let seed = parse_u64("seed", parts.next())?;
            Request::Open { id, kind, seed }
        }
        "FEED" => {
            let id = parse_u64("id", parts.next())?;
            let word = parts
                .next()
                .and_then(oqsc_lang::token::from_str)
                .ok_or_else(|| BAD_WORD.to_string())?;
            Request::Feed { id, word }
        }
        "FEEDS" => {
            let id = parse_u64("id", parts.next())?;
            let n = parse_u64("count", parts.next())?;
            let tokens = parse_feeds_body(parts.0, n)?;
            return Ok(Request::Feeds {
                id,
                words: FeedsBatch(tokens),
            });
        }
        "FINISH" => Request::Finish {
            id: parse_u64("id", parts.next())?,
        },
        "STATS" => Request::Stats,
        "SHUTDOWN" => Request::Shutdown,
        other => return Err(format!("unknown verb {other}")),
    };
    if parts.next().is_some() {
        return Err(format!("trailing fields after {verb}"));
    }
    Ok(req)
}

/// Renders the `FINISH` response: verdict + full metering, all integers,
/// so `cmp` against a direct run is byte-exact.
pub fn outcome_line(id: u64, out: &RunOutcome) -> String {
    format!(
        "OUTCOME {id} {} {} {} {}",
        u8::from(out.accept),
        out.classical_bits,
        out.peak_qubits,
        out.peak_amplitudes
    )
}

/// Parses an [`outcome_line`] back into `(id, outcome)`.
pub fn parse_outcome_line(line: &str) -> Option<(u64, RunOutcome)> {
    let mut parts = line.split_whitespace();
    if parts.next() != Some("OUTCOME") {
        return None;
    }
    let id = parts.next()?.parse().ok()?;
    let accept = match parts.next()? {
        "0" => false,
        "1" => true,
        _ => return None,
    };
    let classical_bits = parts.next()?.parse().ok()?;
    let peak_qubits = parts.next()?.parse().ok()?;
    let peak_amplitudes = parts.next()?.parse().ok()?;
    if parts.next().is_some() {
        return None;
    }
    Some((
        id,
        RunOutcome {
            accept,
            classical_bits,
            peak_qubits,
            peak_amplitudes,
        },
    ))
}

/// Renders one fleet-qualified outcome line — the distributed sweep
/// fabric's reporting protocol:
/// `OUTCOME <fleet> <index> <accept> <bits> <qubits> <amplitudes>`.
/// All integers, so the text round trip is exact and merged tables are
/// byte-identical to in-process ones.
pub fn fleet_outcome_line(fleet: &str, index: u64, out: &RunOutcome) -> String {
    format!(
        "OUTCOME {fleet} {index} {} {} {} {}",
        u8::from(out.accept),
        out.classical_bits,
        out.peak_qubits,
        out.peak_amplitudes
    )
}

/// Parses a [`fleet_outcome_line`]. Errors carry the offending line so
/// the fabric coordinator (behind `sweep --processes` and `fabric
/// coordinate`) can surface it verbatim.
pub fn parse_fleet_outcome_line(line: &str) -> Result<(String, u64, RunOutcome), String> {
    let mut parts = line.split_whitespace();
    if parts.next() != Some("OUTCOME") {
        return Err(format!("malformed OUTCOME line: {line:?}"));
    }
    let fleet = parts
        .next()
        .ok_or_else(|| format!("malformed OUTCOME line: {line:?}"))?
        .to_string();
    let mut next_num = |what: &str| -> Result<u64, String> {
        parts
            .next()
            .and_then(|s| s.parse::<u64>().ok())
            .ok_or_else(|| format!("bad {what} in OUTCOME line: {line:?}"))
    };
    let index = next_num("index")?;
    let accept = match next_num("accept flag")? {
        0 => false,
        1 => true,
        _ => return Err(format!("malformed OUTCOME line: {line:?}")),
    };
    let outcome = RunOutcome {
        accept,
        classical_bits: next_num("classical bits")? as usize,
        peak_qubits: next_num("peak qubits")? as usize,
        peak_amplitudes: next_num("peak amplitudes")? as usize,
    };
    if parts.next().is_some() {
        return Err(format!("malformed OUTCOME line: {line:?}"));
    }
    Ok((fleet, index, outcome))
}

/// One parsed fabric request line (worker → coordinator).
///
/// The distributed sweep fabric speaks the line-oriented
/// [`fleet_outcome_line`] protocol, extended with lease-management verbs:
///
/// ```text
/// -> LEASE <worker> <sweep> <k_max> <trials>  <- LEASE <lease> <fleet> <start> <end>
///                                             <- WAIT <millis> | FINISHED
/// -> RENEW <lease>                            <- OK <lease> | EXPIRED <lease>
/// -> HEARTBEAT <worker>                       <- OK <worker>
/// -> OUTCOME <fleet> <index> <a> <b> <q> <m>  <- OK <index>
/// -> DONE <lease>                             <- OK <lease> | EXPIRED <lease>
/// ```
///
/// `LEASE` carries the worker's sweep identity (`<trials>` is `0` for
/// sweeps without a Monte-Carlo fleet) so a worker configured for a
/// different sweep is refused with `ERR` instead of silently producing
/// outcomes for the wrong instances. Granted ranges are half-open:
/// `start <= index < end`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FabricRequest {
    /// `LEASE <worker> <sweep> <k_max> <trials>` — ask for a range of
    /// instances to run, declaring the sweep the worker was built for.
    Lease {
        /// The requesting worker's id.
        worker: u64,
        /// Sweep name the worker is configured for (`e6`/`f1`/…).
        sweep: String,
        /// The worker's `--k-max` (must match the coordinator's).
        k_max: u32,
        /// The worker's Monte-Carlo fleet size, `0` when the sweep has
        /// none.
        trials: u64,
    },
    /// `RENEW <lease>` — push one lease's heartbeat deadline out.
    Renew {
        /// The lease to renew.
        lease: u64,
    },
    /// `HEARTBEAT <worker>` — worker-level liveness: renews every lease
    /// the worker currently holds (sent on a side connection so a long
    /// compute never starves the deadline).
    Heartbeat {
        /// The beating worker's id.
        worker: u64,
    },
    /// One [`fleet_outcome_line`]: an instance's result. Idempotent —
    /// re-executed instances are pure functions of their index, so the
    /// coordinator tolerates identical duplicates from re-leased ranges.
    Outcome {
        /// Fleet the instance belongs to.
        fleet: String,
        /// Global instance index within the fleet.
        index: u64,
        /// The instance's verdict and metering.
        outcome: RunOutcome,
    },
    /// `DONE <lease>` — every index of the leased range has been
    /// reported; the coordinator may retire the range.
    Done {
        /// The completed lease.
        lease: u64,
    },
}

/// One rendered fabric response line (coordinator → worker).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FabricResponse {
    /// `LEASE <lease> <fleet> <start> <end>` — a granted half-open
    /// instance range.
    Grant {
        /// The new lease's id.
        lease: u64,
        /// Fleet the range belongs to.
        fleet: String,
        /// First instance index of the range.
        start: u64,
        /// One past the last instance index.
        end: u64,
    },
    /// `WAIT <millis>` — nothing leasable right now; ask again.
    Wait {
        /// Suggested back-off before the next `LEASE`.
        millis: u64,
    },
    /// `FINISHED` — the sweep is complete; the worker can exit.
    Finished,
    /// `OK <token>` — acknowledgement (the renewed lease, the beating
    /// worker, the recorded index, or the retired lease).
    Ok {
        /// Echo of the acknowledged id.
        token: u64,
    },
    /// `EXPIRED <lease>` — the lease lapsed (or was never granted); the
    /// range has been re-leased, abandon it.
    Expired {
        /// The dead lease.
        lease: u64,
    },
}

/// Renders a [`FabricRequest`] as its wire line.
pub fn fabric_request_line(req: &FabricRequest) -> String {
    match req {
        FabricRequest::Lease {
            worker,
            sweep,
            k_max,
            trials,
        } => format!("LEASE {worker} {sweep} {k_max} {trials}"),
        FabricRequest::Renew { lease } => format!("RENEW {lease}"),
        FabricRequest::Heartbeat { worker } => format!("HEARTBEAT {worker}"),
        FabricRequest::Outcome {
            fleet,
            index,
            outcome,
        } => fleet_outcome_line(fleet, *index, outcome),
        FabricRequest::Done { lease } => format!("DONE {lease}"),
    }
}

/// Parses one fabric request line. Errors are protocol-level messages
/// suitable for an `ERR` response.
pub fn parse_fabric_request(line: &str) -> Result<FabricRequest, String> {
    let mut parts = line.split_whitespace();
    let verb = parts.next().ok_or_else(|| "empty request".to_string())?;
    let req = match verb {
        "LEASE" => {
            let worker = parse_u64("worker", parts.next())?;
            let sweep = parts
                .next()
                .ok_or_else(|| "bad sweep name".to_string())?
                .to_string();
            let k_max = parts
                .next()
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| "bad k_max".to_string())?;
            let trials = parse_u64("trials", parts.next())?;
            FabricRequest::Lease {
                worker,
                sweep,
                k_max,
                trials,
            }
        }
        "RENEW" => FabricRequest::Renew {
            lease: parse_u64("lease", parts.next())?,
        },
        "HEARTBEAT" => FabricRequest::Heartbeat {
            worker: parse_u64("worker", parts.next())?,
        },
        "OUTCOME" => {
            let (fleet, index, outcome) = parse_fleet_outcome_line(line)?;
            return Ok(FabricRequest::Outcome {
                fleet,
                index,
                outcome,
            });
        }
        "DONE" => FabricRequest::Done {
            lease: parse_u64("lease", parts.next())?,
        },
        other => return Err(format!("unknown fabric verb {other}")),
    };
    if parts.next().is_some() {
        return Err(format!("trailing fields after {verb}"));
    }
    Ok(req)
}

/// Renders a [`FabricResponse`] as its wire line.
pub fn fabric_response_line(resp: &FabricResponse) -> String {
    match resp {
        FabricResponse::Grant {
            lease,
            fleet,
            start,
            end,
        } => format!("LEASE {lease} {fleet} {start} {end}"),
        FabricResponse::Wait { millis } => format!("WAIT {millis}"),
        FabricResponse::Finished => "FINISHED".to_string(),
        FabricResponse::Ok { token } => format!("OK {token}"),
        FabricResponse::Expired { lease } => format!("EXPIRED {lease}"),
    }
}

/// Parses one fabric response line (the worker side of the exchange).
pub fn parse_fabric_response(line: &str) -> Result<FabricResponse, String> {
    let mut parts = line.split_whitespace();
    let verb = parts.next().ok_or_else(|| "empty response".to_string())?;
    let resp = match verb {
        "LEASE" => {
            let lease = parse_u64("lease", parts.next())?;
            let fleet = parts
                .next()
                .ok_or_else(|| "bad fleet".to_string())?
                .to_string();
            let start = parse_u64("start", parts.next())?;
            let end = parse_u64("end", parts.next())?;
            if start >= end {
                return Err(format!("empty lease range {start}..{end}"));
            }
            FabricResponse::Grant {
                lease,
                fleet,
                start,
                end,
            }
        }
        "WAIT" => FabricResponse::Wait {
            millis: parse_u64("millis", parts.next())?,
        },
        "FINISHED" => FabricResponse::Finished,
        "OK" => FabricResponse::Ok {
            token: parse_u64("token", parts.next())?,
        },
        "EXPIRED" => FabricResponse::Expired {
            lease: parse_u64("lease", parts.next())?,
        },
        other => return Err(format!("unknown fabric response {other}")),
    };
    if parts.next().is_some() {
        return Err(format!("trailing fields after {verb}"));
    }
    Ok(resp)
}

/// Renders a `FEEDS` request line. Every chunk must be non-empty — an
/// empty chunk has no surface form on a whitespace-separated wire (and
/// would be a no-op feed anyway).
pub fn feeds_line(id: u64, chunks: &[Vec<Sym>]) -> String {
    let mut line = format!("FEEDS {id} {}", chunks.len());
    for chunk in chunks {
        debug_assert!(!chunk.is_empty(), "empty chunks are not representable");
        line.push(' ');
        line.push_str(&oqsc_lang::token::to_string(chunk));
    }
    line
}

/// Renders the `STATS` response.
pub fn stats_line(s: &MuxStats) -> String {
    format!(
        "STATS {} {} {} {} {} {} {} {} {} {}",
        s.opened,
        s.finished,
        s.tokens,
        s.live,
        s.peak_live,
        s.warm,
        s.evictions,
        s.hydrations,
        s.spills,
        s.spill_hydrations
    )
}

/// Parses a [`stats_line`] back into a [`MuxStats`]. The wire format
/// carries the ten counter fields only; the byte-occupancy gauges
/// (`live_bytes`/`warm_bytes`) come back zero. Used by the router to
/// sum per-engine stats into one fleet-wide response.
pub fn parse_stats_line(line: &str) -> Result<MuxStats, String> {
    let mut parts = line.split_whitespace();
    if parts.next() != Some("STATS") {
        return Err(format!("malformed STATS line: {line:?}"));
    }
    let mut next_num = |what: &str| -> Result<u64, String> {
        parts
            .next()
            .and_then(|s| s.parse::<u64>().ok())
            .ok_or_else(|| format!("bad {what} in STATS line: {line:?}"))
    };
    let stats = MuxStats {
        opened: next_num("opened")?,
        finished: next_num("finished")?,
        tokens: next_num("tokens")?,
        live: next_num("live")?,
        peak_live: next_num("peak_live")?,
        warm: next_num("warm")?,
        live_bytes: 0,
        warm_bytes: 0,
        evictions: next_num("evictions")?,
        hydrations: next_num("hydrations")?,
        spills: next_num("spills")?,
        spill_hydrations: next_num("spill_hydrations")?,
    };
    if parts.next().is_some() {
        return Err(format!("trailing fields in STATS line: {line:?}"));
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn requests_parse_and_reject() {
        assert_eq!(
            parse_request("OPEN 7 complement-dense 42"),
            Ok(Request::Open {
                id: 7,
                kind: DeciderKind::ComplementDense,
                seed: 42
            })
        );
        assert_eq!(
            parse_request("FEED 7 1#01"),
            Ok(Request::Feed {
                id: 7,
                word: oqsc_lang::token::from_str("1#01").expect("syms")
            })
        );
        assert_eq!(parse_request("FINISH 7"), Ok(Request::Finish { id: 7 }));
        assert_eq!(parse_request("STATS"), Ok(Request::Stats));
        assert_eq!(parse_request("SHUTDOWN"), Ok(Request::Shutdown));
        for bad in [
            "",
            "NOPE",
            "OPEN x complement-dense 1",
            "OPEN 1 no-such-kind 1",
            "OPEN 1 format",
            "FEED 1 012",
            "FEED 1",
            "FINISH",
            "STATS extra",
        ] {
            assert!(parse_request(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn feeds_requests_round_trip_and_reject() {
        let chunks = vec![
            oqsc_lang::token::from_str("1#0").expect("syms"),
            oqsc_lang::token::from_str("01").expect("syms"),
            oqsc_lang::token::from_str("#").expect("syms"),
        ];
        let line = feeds_line(9, &chunks);
        assert_eq!(line, "FEEDS 9 3 1#0 01 #");
        assert_eq!(
            parse_request(&line),
            Ok(Request::Feeds {
                id: 9,
                words: FeedsBatch(chunks.concat())
            })
        );
        // An empty batch is legal (and a no-op on the session).
        assert_eq!(
            parse_request("FEEDS 9 0"),
            Ok(Request::Feeds {
                id: 9,
                words: FeedsBatch(Vec::new())
            })
        );
        for bad in [
            "FEEDS",
            "FEEDS 9",
            "FEEDS x 1 0",
            "FEEDS 9 2 01",                    // truncated: declared 2, got 1
            "FEEDS 9 1 01 11",                 // excess: declared 1, got 2
            "FEEDS 9 18446744073709551615 01", // huge count, tiny batch
            "FEEDS 9 1 012",                   // bad symbol
            "FEEDS 9 zz 01",                   // non-numeric count
        ] {
            assert!(parse_request(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    /// The `split_whitespace` parse of a `FEEDS` line that the one-pass
    /// parser replaced, kept as the property test's reference: pull
    /// exactly `n` fields, decode each on its own, refuse a trailing one.
    fn reference_feeds(line: &str) -> Result<(u64, Vec<Vec<Sym>>), String> {
        let mut parts = line.split_whitespace();
        assert_eq!(parts.next(), Some("FEEDS"), "generated lines are FEEDS");
        let id = parse_u64("id", parts.next())?;
        let n = parse_u64("count", parts.next())?;
        let mut words = Vec::new();
        for _ in 0..n {
            let word = parts
                .next()
                .ok_or_else(|| format!("truncated FEEDS batch: declared {n}, got {}", words.len()))
                .and_then(|raw| {
                    oqsc_lang::token::from_str(raw)
                        .ok_or_else(|| "bad word (expected 0/1/# tokens)".to_string())
                })?;
            words.push(word);
        }
        if parts.next().is_some() {
            return Err("trailing fields after FEEDS".to_string());
        }
        Ok((id, words))
    }

    /// A random `FEEDS` line: valid batches, counts off by one, huge
    /// counts, runs of separators (empty chunks), tabs and other
    /// whitespace, junk characters and trailing fields.
    fn random_feeds_line(rng: &mut StdRng) -> String {
        // The first seven are ASCII; the last two are not.
        const SEPARATORS: [&str; 9] = [
            " ", " ", " ", "\t", "\r", "\x0b", "\x0c", "\u{a0}", "\u{3000}",
        ];
        const JUNK: [char; 9] = ['2', 'x', '-', '\0', '\x1f', '\x7f', 'é', '\u{85}', '#'];
        let separator = |rng: &mut StdRng| {
            // Mostly one space; sometimes a run (an empty chunk between).
            let run = if rng.gen_bool(0.8) {
                1
            } else {
                rng.gen_range(2..4)
            };
            let ascii = rng.gen_bool(0.9);
            (0..run)
                .map(|_| {
                    let pool = if ascii { 7 } else { SEPARATORS.len() };
                    SEPARATORS[rng.gen_range(0..pool)]
                })
                .collect::<String>()
        };
        let chunks: Vec<String> = (0..rng.gen_range(0..12usize))
            .map(|_| {
                (0..rng.gen_range(1..10))
                    .map(|_| ['0', '1', '#'][rng.gen_range(0..3usize)])
                    .collect()
            })
            .collect();
        let count = match rng.gen_range(0..10) {
            0 => (chunks.len() + 1).to_string(),
            1 => chunks.len().saturating_sub(1).to_string(),
            2 => u64::MAX.to_string(),
            3 => "18446744073709551616".to_string(), // one past u64::MAX
            _ => chunks.len().to_string(),
        };
        let mut line = String::new();
        if rng.gen_bool(0.2) {
            line.push_str(&separator(rng));
        }
        line.push_str("FEEDS");
        for field in [rng.gen_range(0..1000u64).to_string(), count]
            .iter()
            .chain(&chunks)
        {
            line.push_str(&separator(rng));
            line.push_str(field);
        }
        if rng.gen_bool(0.15) {
            line.push_str(&separator(rng));
            line.push_str(["01", "x", "#"][rng.gen_range(0..3usize)]);
        }
        if rng.gen_bool(0.2) {
            line.push_str(&separator(rng));
        }
        if rng.gen_bool(0.2) {
            // Overwrite one character with junk (or with a separator).
            let at = rng.gen_range(0..line.chars().count());
            let with = if rng.gen_bool(0.8) {
                JUNK[rng.gen_range(0..JUNK.len())].to_string()
            } else {
                separator(rng)
            };
            line = line
                .chars()
                .enumerate()
                .map(|(i, c)| if i == at { with.clone() } else { c.to_string() })
                .collect();
        }
        line
    }

    #[test]
    fn one_pass_feeds_parse_agrees_with_the_field_by_field_reference() {
        let mut rng = StdRng::seed_from_u64(0xFEED5);
        let (mut ok, mut err) = (0, 0);
        for _ in 0..20_000 {
            let line = random_feeds_line(&mut rng);
            if line.split_whitespace().next() != Some("FEEDS") {
                continue; // junk landed on the verb
            }
            let got = parse_request(&line);
            match reference_feeds(&line) {
                Ok((id, words)) => {
                    ok += 1;
                    assert_eq!(
                        got,
                        Ok(Request::Feeds {
                            id,
                            words: FeedsBatch(words.concat())
                        }),
                        "{line:?}"
                    );
                }
                Err(msg) => {
                    err += 1;
                    assert_eq!(got, Err(msg), "{line:?}");
                }
            }
        }
        assert!(
            ok > 2_000 && err > 2_000,
            "both verdicts covered: {ok} ok, {err} err"
        );
    }

    #[test]
    fn stats_lines_round_trip() {
        let stats = MuxStats {
            opened: 10,
            finished: 7,
            tokens: 640,
            live: 2,
            peak_live: 5,
            warm: 1,
            live_bytes: 0,
            warm_bytes: 0,
            evictions: 12,
            hydrations: 12,
            spills: 3,
            spill_hydrations: 1,
        };
        let line = stats_line(&stats);
        assert_eq!(line, "STATS 10 7 640 2 5 1 12 12 3 1");
        assert_eq!(parse_stats_line(&line), Ok(stats));
        for bad in ["STATS 1 2 3", "STATS 1 2 3 4 5 6 7 8 9 10 11", "OK 1"] {
            assert!(parse_stats_line(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn outcome_lines_round_trip() {
        let out = RunOutcome {
            accept: true,
            classical_bits: 17,
            peak_qubits: 4,
            peak_amplitudes: 16,
        };
        let line = outcome_line(9, &out);
        assert_eq!(line, "OUTCOME 9 1 17 4 16");
        assert_eq!(parse_outcome_line(&line), Some((9, out)));
        assert_eq!(parse_outcome_line("OUTCOME 9 2 0 0 0"), None);
        assert_eq!(parse_outcome_line("OK 9"), None);
    }

    #[test]
    fn fleet_outcome_lines_round_trip() {
        let out = RunOutcome {
            accept: false,
            classical_bits: 3,
            peak_qubits: 5,
            peak_amplitudes: 32,
        };
        let line = fleet_outcome_line("e6/k4", 11, &out);
        assert_eq!(line, "OUTCOME e6/k4 11 0 3 5 32");
        assert_eq!(
            parse_fleet_outcome_line(&line),
            Ok(("e6/k4".to_string(), 11, out))
        );
        for bad in [
            "OUTCOME",
            "OUTCOME e6/k4",
            "OUTCOME e6/k4 11 2 0 0 0",
            "OUTCOME e6/k4 11 1 0 0 0 extra",
            "OUTCOME e6/k4 x 1 0 0 0",
            "OK e6/k4 11 1 0 0 0",
        ] {
            assert!(
                parse_fleet_outcome_line(bad).is_err(),
                "{bad:?} should be rejected"
            );
        }
    }

    #[test]
    fn fabric_requests_round_trip_and_reject() {
        let out = RunOutcome {
            accept: true,
            classical_bits: 1,
            peak_qubits: 2,
            peak_amplitudes: 4,
        };
        let requests = [
            (
                FabricRequest::Lease {
                    worker: 3,
                    sweep: "e6".to_string(),
                    k_max: 4,
                    trials: 0,
                },
                "LEASE 3 e6 4 0",
            ),
            (FabricRequest::Renew { lease: 12 }, "RENEW 12"),
            (FabricRequest::Heartbeat { worker: 3 }, "HEARTBEAT 3"),
            (
                FabricRequest::Outcome {
                    fleet: "f1".to_string(),
                    index: 9,
                    outcome: out,
                },
                "OUTCOME f1 9 1 1 2 4",
            ),
            (FabricRequest::Done { lease: 12 }, "DONE 12"),
        ];
        for (req, wire) in requests {
            assert_eq!(fabric_request_line(&req), wire);
            assert_eq!(parse_fabric_request(wire), Ok(req));
        }
        for bad in [
            "",
            "LEASE",
            "LEASE 3 e6 4",
            "LEASE 3 e6 4 0 extra",
            "RENEW x",
            "HEARTBEAT",
            "DONE",
            "FINISH 1",
            "GRANT 1 e6 0 4",
        ] {
            assert!(
                parse_fabric_request(bad).is_err(),
                "{bad:?} should be rejected"
            );
        }
    }

    #[test]
    fn fabric_responses_round_trip_and_reject() {
        let responses = [
            (
                FabricResponse::Grant {
                    lease: 1,
                    fleet: "e6/k2".to_string(),
                    start: 16,
                    end: 32,
                },
                "LEASE 1 e6/k2 16 32",
            ),
            (FabricResponse::Wait { millis: 200 }, "WAIT 200"),
            (FabricResponse::Finished, "FINISHED"),
            (FabricResponse::Ok { token: 7 }, "OK 7"),
            (FabricResponse::Expired { lease: 7 }, "EXPIRED 7"),
        ];
        for (resp, wire) in responses {
            assert_eq!(fabric_response_line(&resp), wire);
            assert_eq!(parse_fabric_response(wire), Ok(resp));
        }
        for bad in [
            "",
            "LEASE 1 e6 4 4", // empty range
            "LEASE 1 e6 8 4", // inverted range
            "LEASE 1 e6 0 4 extra",
            "WAIT",
            "FINISHED now",
            "OK",
            "EXPIRED x",
            "ERR nope",
        ] {
            assert!(
                parse_fabric_response(bad).is_err(),
                "{bad:?} should be rejected"
            );
        }
    }
}
