//! The serving workloads, `churn` and `deep`.
//!
//! The server is this executable re-run as `serve-child`: one process,
//! configured through `ServerConfig`/`MuxConfig`, one handler thread, on
//! a Unix socket. The generator is this process: one thread and one
//! non-blocking connection. Requests go out on a fixed arrival schedule
//! (open loop), and each is timed from the moment it was *due*, so a
//! stall is charged to every request queued behind it. A flood phase then
//! sends a fresh fleet as fast as the socket takes it.
//!
//! Every response is checked: `OK <id> <position>` for feeds, and for
//! `FINISH` the `OUTCOME` line of a direct `run_decider_stream` run of the
//! same kind, seed and word. Anything else counts as failed.

use crate::trace::{Table, Tracer};
use crate::{mean, median, quantile_sorted, Ctx, Report};
use oqsc_core::sweep::derive_seed;
use oqsc_lang::{random_member, random_nonmember, Sym};
use oqsc_machine::{run_decider_stream, Session, COMPRESS_MIN_LEN};
use oqsc_serve::{
    feeds_line, outcome_line, parse_request, stats_line, AnyDecider, DeciderKind, MuxConfig,
    MuxEngine, Request, Server, ServerConfig, FEED_CHUNK,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

/// End-to-end metrics of every untraced run, in the order they are
/// emitted.
pub const END_TO_END_METRICS: &[&str] = &[
    "setup_s",
    "p50_us",
    "p90_us",
    "flood_tokens_per_s",
    "peak_rss_mb",
];

/// Per-layer metrics of every traced run, in the order they are emitted.
/// Both workloads emit the same names, each measured on its own traffic;
/// only names that are non-zero on both are metrics (tier transitions per
/// `FEED`, zero on `deep` by design, are printed instead).
pub const LAYER_METRICS: &[&str] = &[
    "protocol.parse_ns",
    "protocol.parse_ns_per_token",
    "mux.open_ns",
    "mux.feed_ns",
    "mux.finish_ns",
    "mux.peak_live",
    "mux.live_bytes",
    "session.suspend_ns",
    "session.resume_ns",
    "lz4.compress_ns",
    "lz4.decompress_ns",
    "lz4.ratio",
    "checkpoint.bytes",
    "decider.ns_per_token",
    "quantum.gate_sweep_ns",
    "quantum.reflect_axpy_ns",
    "quantum.reductions_ns",
    "transport.rtt_us",
    "transport.stats_rtt_us",
    "unit.closed_loop_us",
    "gen.late_max_us",
    "gen.late_p99_us",
    "trace.overhead_ns",
];

/// `churn` runs the classical kinds only: the full 16-kind catalog made
/// its tail swing by an order of magnitude between runs.
const CHURN_KINDS: [DeciderKind; 4] = [
    DeciderKind::Format,
    DeciderKind::Consistency,
    DeciderKind::Prop37,
    DeciderKind::Sketch,
];

/// `deep` runs the 12 quantum kinds, three deciders on four backends, in
/// a cycle of 13 where `ldisj-dense` (the separating language on the
/// reference backend) comes twice. Per-kind session times form separated
/// clusters; with 12 equal slots the median falls exactly between the 6th
/// and 7th, so `p50_us` was the slowest sample of the fast half and moved
/// by half between runs. With 13 slots it falls inside a cluster.
const DEEP_KINDS: [DeciderKind; 13] = [
    DeciderKind::ComplementDense,
    DeciderKind::ComplementParallel,
    DeciderKind::ComplementSparse,
    DeciderKind::ComplementAdaptive,
    DeciderKind::GroverDense,
    DeciderKind::GroverParallel,
    DeciderKind::GroverSparse,
    DeciderKind::GroverAdaptive,
    DeciderKind::LdisjDense,
    DeciderKind::LdisjParallel,
    DeciderKind::LdisjSparse,
    DeciderKind::LdisjAdaptive,
    DeciderKind::LdisjDense,
];

/// `churn` words: k = 2 (207 tokens, 26 FEEDs each).
const CHURN_K: u32 = 2;
/// `deep` words: k = 4 (12 341 tokens, one FEEDS line each).
const DEEP_K: u32 = 4;
/// About a quarter of the measured single-handler capacity.
const CHURN_RATE_PER_S: f64 = 50_000.0;
/// About 10% of the measured single-handler capacity on a quiet host.
/// At 100/s (20–30%) hypervisor steal on a shared host pushed the server
/// into queueing often enough to double `p50_us` between runs; at this
/// rate latency measures service time, which is what `deep` is for.
const DEEP_RATE_PER_S: f64 = 50.0;
/// Fewest rounds per run; each round is a fresh server, so `setup_s` is
/// the median of at least this many set-ups.
const ROUNDS: usize = 3;
/// The live tier holds about this share of the `churn` fleet's bytes.
const CHURN_LIVE_SHARE: f64 = 0.02;
/// `deep` sessions never leave the live tier.
const DEEP_LIVE_BUDGET: usize = 64 << 20;
/// Requests in flight during untimed and flood phases.
const WINDOW: usize = 64;
/// Session ids of the flood fleet start here, clear of the timed fleet.
const FLOOD_ID_BASE: u64 = 1 << 32;
/// Session ids of `deep`'s warm-up sessions start here.
const WARMUP_ID_BASE: u64 = 1 << 40;
/// A phase that makes no progress for this long has failed.
const STALL_LIMIT: Duration = Duration::from_secs(60);
/// An idle generator wakes this long before the next due time and spins
/// from there: wake-ups on a shared virtual machine are late by up to
/// about 2 ms (p99), rarely more.
const WAKE_MARGIN: Duration = Duration::from_millis(2);
/// `STATS` round trips in the traced run's transport probe.
const STATS_PROBES: usize = 2000;

struct Sizes {
    churn_fleet: usize,
    churn_rate: f64,
    deep_flood: usize,
}

fn sizes(ctx: &Ctx) -> Sizes {
    if ctx.small {
        Sizes {
            churn_fleet: 200,
            churn_rate: 20_000.0,
            deep_flood: 13,
        }
    } else {
        Sizes {
            churn_fleet: 3000,
            churn_rate: CHURN_RATE_PER_S,
            deep_flood: 117,
        }
    }
}

// ---------------------------------------------------------------------
// Fleets and the outcome oracle
// ---------------------------------------------------------------------

/// One session the generator plays: its id, kind, constructor seed, word.
struct Sess {
    id: u64,
    kind: DeciderKind,
    seed: u64,
    word: Vec<Sym>,
}

/// `count` sessions over `kinds` round-robin, members and non-members
/// alternating per kind, everything derived from `(seed, tag)`.
fn fleet(
    seed: u64,
    tag: u64,
    count: usize,
    kinds: &[DeciderKind],
    k: u32,
    id_base: u64,
) -> Vec<Sess> {
    (0..count)
        .map(|i| {
            let mut rng = StdRng::seed_from_u64(derive_seed(seed ^ tag, i));
            let instance = if (i / kinds.len()).is_multiple_of(2) {
                random_member(k, &mut rng)
            } else {
                random_nonmember(k, 1, &mut rng)
            };
            Sess {
                id: id_base + i as u64,
                kind: kinds[i % kinds.len()],
                seed: derive_seed(seed ^ tag ^ 0x5EED, i),
                word: instance.encode(),
            }
        })
        .collect()
}

/// The oracle: the `OUTCOME` line of a direct, uninterrupted run.
fn reference_line(s: &Sess) -> String {
    outcome_line(
        s.id,
        &run_decider_stream(s.kind.build(s.seed), s.word.iter().copied()),
    )
}

/// One request line and the exact response the oracle expects.
struct Req {
    line: String,
    expect: String,
    /// Only the response's prefix is checked (`STATS` counters vary).
    prefix_only: bool,
}

impl Req {
    fn exact(line: String, expect: String) -> Req {
        Req {
            line,
            expect,
            prefix_only: false,
        }
    }

    fn matches(&self, response: &[u8]) -> bool {
        if self.prefix_only {
            response.starts_with(self.expect.as_bytes())
        } else {
            response == self.expect.as_bytes()
        }
    }
}

fn open_req(s: &Sess) -> Req {
    Req::exact(
        format!("OPEN {} {} {}", s.id, s.kind.name(), s.seed),
        format!("OK {} 0", s.id),
    )
}

fn finish_req(s: &Sess) -> Req {
    Req::exact(format!("FINISH {}", s.id), reference_line(s))
}

fn stats_req() -> Req {
    Req {
        line: "STATS".to_string(),
        expect: "STATS ".to_string(),
        prefix_only: true,
    }
}

/// `churn` traffic: every session's word in [`FEED_CHUNK`]-token `FEED`s,
/// round-robin across the fleet, then one `FINISH` per session.
fn churn_requests(fleet: &[Sess]) -> Vec<Req> {
    let mut reqs = Vec::new();
    let passes = fleet
        .iter()
        .map(|s| s.word.len().div_ceil(FEED_CHUNK))
        .max()
        .unwrap_or(0);
    for pass in 0..passes {
        for s in fleet {
            let start = pass * FEED_CHUNK;
            if start < s.word.len() {
                let end = (start + FEED_CHUNK).min(s.word.len());
                reqs.push(Req::exact(
                    format!(
                        "FEED {} {}",
                        s.id,
                        oqsc_lang::token::to_string(&s.word[start..end])
                    ),
                    format!("OK {} {end}", s.id),
                ));
            }
        }
    }
    reqs.extend(fleet.iter().map(finish_req));
    reqs
}

/// `deep` traffic for one session: `OPEN`, one `FEEDS` with the whole
/// word, `FINISH`.
fn deep_requests(s: &Sess) -> [Req; 3] {
    let chunks: Vec<Vec<Sym>> = s.word.chunks(FEED_CHUNK).map(<[Sym]>::to_vec).collect();
    [
        open_req(s),
        Req::exact(
            feeds_line(s.id, &chunks),
            format!("OK {} {}", s.id, s.word.len()),
        ),
        finish_req(s),
    ]
}

fn tokens(fleet: &[Sess]) -> usize {
    fleet.iter().map(|s| s.word.len()).sum()
}

// ---------------------------------------------------------------------
// The server process
// ---------------------------------------------------------------------

/// Entry point of `serve-child ADDR LIVE_BUDGET`: one handler thread, the
/// given live-tier budget, everything else at its default. Prints `READY`
/// once bound and the engine's final `STATS` line on shutdown.
pub fn child_main(args: &[String]) -> ExitCode {
    let (Some(addr), Some(budget)) = (args.first(), args.get(1).and_then(|b| b.parse().ok()))
    else {
        eprintln!("usage: perfbench serve-child ADDR LIVE_BUDGET");
        return ExitCode::from(2);
    };
    let config = ServerConfig {
        threads: 1,
        mux: MuxConfig {
            live_bytes_budget: budget,
            ..MuxConfig::default()
        },
        ..ServerConfig::default()
    };
    let server = match Server::bind(addr, config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("bind {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("READY");
    let _ = std::io::stdout().flush();
    match server.run() {
        Ok(stats) => {
            println!("{}", stats_line(&stats));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("serve: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A running server process. Dropping it kills and reaps the process if
/// it is still alive.
struct ServerProc {
    child: Child,
    stdout: BufReader<ChildStdout>,
    addr: PathBuf,
}

impl ServerProc {
    fn spawn(ctx: &Ctx, live_budget: usize) -> std::io::Result<ServerProc> {
        let addr = ctx.scratch.join(format!("srv-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&addr);
        let mut child = Command::new(std::env::current_exe()?)
            .arg("serve-child")
            .arg(&addr)
            .arg(live_budget.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()?;
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut proc = ServerProc {
            child,
            stdout,
            addr,
        };
        let mut line = String::new();
        proc.stdout.read_line(&mut line)?;
        if line.trim() != "READY" {
            return Err(std::io::Error::other(format!(
                "server did not start: {line:?}"
            )));
        }
        Ok(proc)
    }

    fn connect(&self) -> std::io::Result<Conn> {
        let stream = UnixStream::connect(&self.addr)?;
        stream.set_nonblocking(true)?;
        Ok(Conn {
            stream,
            inbuf: Vec::new(),
            scratch: vec![0; 1 << 16],
        })
    }

    /// The server process's peak resident set (`VmHWM`), in MB.
    fn peak_rss_mb(&self) -> std::io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| std::io::Error::other("no VmHWM in /proc status"))
    }

    /// Sends `SHUTDOWN`, then waits for the process to exit cleanly.
    fn shutdown(mut self, mut conn: Conn) -> std::io::Result<()> {
        let bye = [Req::exact("SHUTDOWN".into(), "OK shutdown".into())];
        let d = drive(&mut conn, &bye, None, 1)?;
        drop(conn);
        let mut rest = String::new();
        self.stdout.read_to_string(&mut rest)?;
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if let Some(status) = self.child.try_wait()? {
                if !status.success() || d.failed > 0 {
                    return Err(std::io::Error::other(format!(
                        "server exited with {status}"
                    )));
                }
                return Ok(());
            }
            if Instant::now() > deadline {
                return Err(std::io::Error::other("server did not exit after SHUTDOWN"));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.addr);
    }
}

// ---------------------------------------------------------------------
// The generator
// ---------------------------------------------------------------------

/// The generator's one non-blocking connection.
struct Conn {
    stream: UnixStream,
    inbuf: Vec<u8>,
    scratch: Vec<u8>,
}

/// When each request was handed to the socket and when its response
/// arrived, plus how many responses the oracle rejected.
struct Drive {
    sent: Vec<Instant>,
    done: Vec<Instant>,
    failed: u64,
}

/// Plays `reqs` over `conn` on one thread, spinning between non-blocking
/// writes and reads while traffic flows and sleeping only while nothing
/// is in flight and nothing is due soon. With `due`, request `i` is sent no earlier than
/// `due[i]` (open loop, unbounded queue); without, as soon as fewer than
/// `window` requests are in flight. Responses arrive strictly in request
/// order and are checked as they arrive.
fn drive(
    conn: &mut Conn,
    reqs: &[Req],
    due: Option<&[Instant]>,
    window: usize,
) -> std::io::Result<Drive> {
    use std::io::ErrorKind::{Interrupted, WouldBlock};
    let n = reqs.len();
    let mut sent = Vec::with_capacity(n);
    let mut done = Vec::with_capacity(n);
    let mut failed = 0u64;
    let mut out: Vec<u8> = Vec::with_capacity(1 << 16);
    let mut out_pos = 0usize;
    let mut last_progress = Instant::now();
    while done.len() < n {
        let now = Instant::now();
        while sent.len() < n
            && sent.len() - done.len() < window
            && due.is_none_or(|d| d[sent.len()] <= now)
        {
            out.extend_from_slice(reqs[sent.len()].line.as_bytes());
            out.push(b'\n');
            sent.push(now);
        }
        if out_pos < out.len() {
            match conn.stream.write(&out[out_pos..]) {
                Ok(k) => {
                    out_pos += k;
                    last_progress = now;
                }
                Err(e) if e.kind() == WouldBlock || e.kind() == Interrupted => {}
                Err(e) => return Err(e),
            }
            if out_pos == out.len() {
                out.clear();
                out_pos = 0;
            }
        }
        // Sleep only when nothing is in flight and the next request is not
        // due within WAKE_MARGIN; otherwise spin. On a virtual machine a
        // wake-up, from a sleep or a blocking read alike, takes about
        // 150 µs at the median and milliseconds at the tail, and a wake-up
        // the generator waits for lands in the measured latency.
        if done.len() == sent.len() && out_pos == out.len() {
            if let Some(next) = due.and_then(|d| d.get(sent.len())) {
                let until = next.saturating_duration_since(now);
                if until > WAKE_MARGIN {
                    std::thread::sleep(until - WAKE_MARGIN);
                }
            }
        }
        let read = conn.stream.read(&mut conn.scratch);
        match read {
            Ok(0) => return Err(std::io::Error::other("server closed the connection")),
            Ok(k) => {
                let arrived = Instant::now();
                last_progress = arrived;
                conn.inbuf.extend_from_slice(&conn.scratch[..k]);
                let mut start = 0;
                while let Some(nl) = conn.inbuf[start..].iter().position(|&b| b == b'\n') {
                    let idx = done.len();
                    if idx >= sent.len() {
                        return Err(std::io::Error::other("response without a request"));
                    }
                    let line = &conn.inbuf[start..start + nl];
                    if !reqs[idx].matches(line) {
                        if failed < 3 {
                            eprintln!(
                                "oracle: {:?} answered {:?}, expected {:?}",
                                reqs[idx].line.chars().take(80).collect::<String>(),
                                String::from_utf8_lossy(line),
                                reqs[idx].expect
                            );
                        }
                        failed += 1;
                    }
                    done.push(arrived);
                    start += nl + 1;
                }
                conn.inbuf.drain(..start);
            }
            Err(e) if matches!(e.kind(), WouldBlock | Interrupted) => std::hint::spin_loop(),
            Err(e) => return Err(e),
        }
        if now.duration_since(last_progress) > STALL_LIMIT {
            return Err(std::io::Error::other("no progress for 60 s"));
        }
    }
    Ok(Drive { sent, done, failed })
}

/// Evenly spaced due times, the first shortly after now.
fn schedule(count: usize, per: usize, rate: f64) -> Vec<Instant> {
    let start = Instant::now() + Duration::from_millis(2);
    (0..count)
        .map(|i| start + Duration::from_secs_f64((i / per) as f64 / rate))
        .collect()
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// What one served round measured.
#[derive(Default)]
struct Round {
    setup_s: f64,
    latency_us: Vec<f64>,
    late_us: Vec<f64>,
    flood_tokens_per_s: f64,
    rss_mb: f64,
    attempted: u64,
    failed: u64,
}

impl Round {
    fn tally(&mut self, d: &Drive) {
        self.attempted += d.done.len() as u64;
        self.failed += d.failed;
    }
}

/// The shape of one serving workload's traffic.
struct Plan {
    live_budget: usize,
    /// Untimed requests sent during set-up (before the first due time).
    setup: Vec<Req>,
    /// The open-loop requests.
    timed: Vec<Req>,
    /// Requests sharing one due time (one `deep` session is three).
    per_due: usize,
    rate: f64,
    /// The flood fleet's requests and its token count.
    flood: Vec<Req>,
    flood_tokens: usize,
}

/// One round: spawn a server, run set-up, the open-loop phase and the
/// flood, read the peak RSS, shut down.
fn serve_round(ctx: &Ctx, plan: &Plan) -> std::io::Result<Round> {
    let (server, mut conn, mut round) = open_loop(ctx, plan)?;
    let t = Instant::now();
    let d = drive(&mut conn, &plan.flood, None, WINDOW)?;
    round.flood_tokens_per_s = plan.flood_tokens as f64 / t.elapsed().as_secs_f64();
    round.tally(&d);
    round.rss_mb = server.peak_rss_mb()?;
    server.shutdown(conn)?;
    Ok(round)
}

/// Spawns a server, runs the set-up requests, then the open-loop phase.
/// Returns the running server, the generator's connection, and what the
/// two phases measured.
fn open_loop(ctx: &Ctx, plan: &Plan) -> std::io::Result<(ServerProc, Conn, Round)> {
    let mut round = Round::default();
    let t0 = Instant::now();
    let server = ServerProc::spawn(ctx, plan.live_budget)?;
    let mut conn = server.connect()?;
    let d = drive(&mut conn, &plan.setup, None, WINDOW)?;
    round.tally(&d);
    round.setup_s = t0.elapsed().as_secs_f64();

    let due = schedule(plan.timed.len(), plan.per_due, plan.rate);
    let d = drive(&mut conn, &plan.timed, Some(&due), usize::MAX)?;
    round.tally(&d);
    for (i, due_at) in due.iter().enumerate().step_by(plan.per_due) {
        let last = i + plan.per_due - 1;
        round
            .latency_us
            .push(us(d.done[last].duration_since(*due_at)));
        round
            .late_us
            .push(us(d.sent[i].saturating_duration_since(*due_at)));
    }
    Ok((server, conn, round))
}

/// Runs `rounds` served rounds, each on fresh sessions from
/// `plan_for(round)`, and reduces them to the end-to-end metrics:
/// `setup_s`, RSS, p50 and p90 as medians over rounds, the flood rate as
/// the best round's.
fn serve_rounds(
    ctx: &Ctx,
    plan_for: impl Fn(u64) -> Plan,
    rounds: usize,
    late_bound_us: f64,
) -> Report {
    let mut report = Report::default();
    let mut done: Vec<Round> = Vec::new();
    for round in 0..rounds as u64 {
        match serve_round(ctx, &plan_for(round)) {
            Ok(round) => done.push(round),
            Err(e) => {
                report.fail(1, &format!("served round: {e}"));
                break;
            }
        }
    }
    for r in &done {
        report.attempted += r.attempted;
        report.fail(r.failed, "responses the oracle rejected");
    }
    let mut lat: Vec<f64> = done
        .iter()
        .flat_map(|r| r.latency_us.iter().copied())
        .collect();
    lat.sort_by(f64::total_cmp);
    lateness(&done, late_bound_us);
    println!(
        "latency (all rounds pooled): n={} p50={:.1}us p90={:.1}us p99={:.1}us max={:.1}us",
        lat.len(),
        quantile_sorted(&lat, 0.5),
        quantile_sorted(&lat, 0.9),
        quantile_sorted(&lat, 0.99),
        lat.last().copied().unwrap_or(0.0)
    );
    let col = |f: fn(&Round) -> f64| median(&done.iter().map(f).collect::<Vec<_>>());
    // Host interference on a shared virtual machine comes in spells of
    // seconds that cover whole rounds, and it only ever adds latency and
    // takes throughput. So each latency percentile is the quietest
    // round's (the lowest over rounds), and throughput is the best
    // round's. A slower server is slower in every round, the quietest
    // included. The p99 is printed above but is no metric: steal moved it
    // by a quarter between runs even with every round pooled.
    let per_round = |q: f64| {
        let values: Vec<f64> = done
            .iter()
            .map(|r| {
                let mut v = r.latency_us.clone();
                v.sort_by(f64::total_cmp);
                quantile_sorted(&v, q)
            })
            .collect();
        println!("p{:.0} per round (us): {values:.1?}", q * 100.0);
        values.iter().copied().fold(f64::INFINITY, f64::min)
    };
    report.metric("setup_s", col(|r| r.setup_s), "s");
    report.metric("p50_us", per_round(0.5), "us");
    report.metric("p90_us", per_round(0.9), "us");
    let floods: Vec<f64> = done.iter().map(|r| r.flood_tokens_per_s).collect();
    println!("flood tokens/s per round: {floods:.0?}");
    report.metric(
        "flood_tokens_per_s",
        floods.iter().copied().fold(0.0, f64::max),
        "1/s",
    );
    report.metric("peak_rss_mb", col(|r| r.rss_mb), "MB");
    report
}

/// Prints the generator's lateness (send time minus due time) and marks
/// the run when its p99 exceeds `bound_us`: latencies of such a run
/// include the generator's own delay. Returns `(max, p99)` in µs.
fn lateness(rounds: &[Round], bound_us: f64) -> (f64, f64) {
    let mut late: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.late_us.iter().copied())
        .collect();
    late.sort_by(f64::total_cmp);
    let p99 = quantile_sorted(&late, 0.99);
    let max = late.last().copied().unwrap_or(0.0);
    println!(
        "generator: late_p99={p99:.1}us late_max={max:.1}us bound={bound_us:.0}us{}",
        if p99 > bound_us {
            " MARKED: the generator ran late; latencies include its delay"
        } else {
            ""
        }
    );
    (max, p99)
}

// ---------------------------------------------------------------------
// churn
// ---------------------------------------------------------------------

struct ChurnSetup {
    plan: Plan,
    flood_fleet: Vec<Sess>,
}

/// Round `round`'s traffic (every round plays fresh sessions).
fn churn_setup(ctx: &Ctx, round: u64) -> ChurnSetup {
    let sz = sizes(ctx);
    let r = round << 8;
    let fleet_a = fleet(ctx.seed, 0xC0 ^ r, sz.churn_fleet, &CHURN_KINDS, CHURN_K, 0);
    let flood_fleet = fleet(
        ctx.seed,
        0xF1 ^ r,
        sz.churn_fleet,
        &CHURN_KINDS,
        CHURN_K,
        FLOOD_ID_BASE,
    );
    let opened: usize = fleet_a
        .iter()
        .map(|s| Session::new(s.kind.build(s.seed)).suspend().byte_len())
        .sum();
    let mut flood: Vec<Req> = flood_fleet.iter().map(open_req).collect();
    flood.extend(churn_requests(&flood_fleet));
    let plan = Plan {
        live_budget: (opened as f64 * CHURN_LIVE_SHARE) as usize,
        setup: fleet_a.iter().map(open_req).collect(),
        timed: churn_requests(&fleet_a),
        per_due: 1,
        rate: sz.churn_rate,
        flood,
        flood_tokens: tokens(&flood_fleet),
    };
    ChurnSetup { plan, flood_fleet }
}

/// Expected wall time of one full-scale round of each workload, used to
/// fit the round count to `--seconds`.
const CHURN_ROUND_S: f64 = 2.1;
const DEEP_ROUND_S: f64 = 3.0;
/// Open-loop sessions per full-scale `deep` round (8 cycles of the 13
/// kinds, about 2 s at 50/s): short rounds, so that a run holds several
/// that miss the host's spells of interference.
const DEEP_ROUND_SESSIONS: usize = 104;

/// Rounds that fill about 90% of `--seconds`, and never fewer than
/// [`ROUNDS`].
fn rounds(ctx: &Ctx, round_s: f64) -> usize {
    if ctx.small {
        ROUNDS
    } else {
        ROUNDS.max((ctx.seconds * 0.9 / round_s) as usize)
    }
}

pub fn churn(ctx: &Ctx) -> Report {
    let sz = sizes(ctx);
    let rounds = rounds(ctx, CHURN_ROUND_S);
    println!(
        "churn: fleet={} rate={}/s rounds={rounds}",
        sz.churn_fleet, sz.churn_rate
    );
    serve_rounds(
        ctx,
        |round| churn_setup(ctx, round).plan,
        rounds,
        1e6 / sz.churn_rate,
    )
}

// ---------------------------------------------------------------------
// deep
// ---------------------------------------------------------------------

struct DeepSetup {
    plan: Plan,
    flood_fleet: Vec<Sess>,
}

/// Round `round`'s traffic (every round plays fresh sessions).
fn deep_setup(ctx: &Ctx, sessions: usize, round: u64) -> DeepSetup {
    let sz = sizes(ctx);
    let r = round << 8;
    let warm = fleet(
        ctx.seed,
        0x3A ^ r,
        DEEP_KINDS.len(),
        &DEEP_KINDS,
        DEEP_K,
        WARMUP_ID_BASE,
    );
    let timed_fleet = fleet(ctx.seed, 0xDE ^ r, sessions, &DEEP_KINDS, DEEP_K, 0);
    let flood_fleet = fleet(
        ctx.seed,
        0xF2 ^ r,
        sz.deep_flood,
        &DEEP_KINDS,
        DEEP_K,
        FLOOD_ID_BASE,
    );
    let plan = Plan {
        live_budget: DEEP_LIVE_BUDGET,
        setup: warm.iter().flat_map(deep_requests).collect(),
        timed: timed_fleet.iter().flat_map(deep_requests).collect(),
        per_due: 3,
        rate: DEEP_RATE_PER_S,
        flood: flood_fleet.iter().flat_map(deep_requests).collect(),
        flood_tokens: tokens(&flood_fleet),
    };
    DeepSetup { plan, flood_fleet }
}

pub fn deep(ctx: &Ctx) -> Report {
    let per_round = if ctx.small { 26 } else { DEEP_ROUND_SESSIONS };
    let rounds = rounds(ctx, DEEP_ROUND_S);
    println!(
        "deep: sessions/round={per_round} rounds={rounds} rate={DEEP_RATE_PER_S}/s flood={}",
        sizes(ctx).deep_flood
    );
    serve_rounds(
        ctx,
        |round| deep_setup(ctx, per_round, round).plan,
        rounds,
        1e6 / DEEP_RATE_PER_S,
    )
}

// ---------------------------------------------------------------------
// Traced runs
// ---------------------------------------------------------------------

/// Replays request lines against an in-process engine exactly as the
/// server's handler does (parse, build, engine call, render), optionally
/// inside spans.
fn replay(reqs: &[Req], live_budget: usize, mut tracer: Option<&mut Tracer>) -> Replayed {
    let engine = MuxEngine::<AnyDecider>::new(MuxConfig {
        live_bytes_budget: live_budget,
        ..MuxConfig::default()
    });
    let mut failed = 0u64;
    let mut opened = None;
    let mut loaded = None;
    for req in reqs {
        let handle = |tr: &mut Option<&mut Tracer>| -> String {
            let parsed = in_span(tr, "protocol.parse", |_| parse_request(&req.line));
            match parsed {
                Ok(Request::Open { id, kind, seed }) => {
                    let decider = in_span(tr, "catalog.build", |_| kind.build(seed));
                    match in_span(tr, "mux.open", |_| engine.open(id, decider)) {
                        Ok(()) => format!("OK {id} 0"),
                        Err(e) => format!("ERR {e}"),
                    }
                }
                Ok(Request::Feed { id, word }) => {
                    match in_span(tr, "mux.feed", |_| engine.feed(id, &word)) {
                        Ok(p) => format!("OK {id} {p}"),
                        Err(e) => format!("ERR {e}"),
                    }
                }
                Ok(Request::Feeds { id, words }) => {
                    let word = in_span(tr, "protocol.parse", |_| words.concat());
                    match in_span(tr, "mux.feed", |_| engine.feed(id, &word)) {
                        Ok(p) => format!("OK {id} {p}"),
                        Err(e) => format!("ERR {e}"),
                    }
                }
                Ok(Request::Finish { id }) => {
                    match in_span(tr, "mux.finish", |_| engine.finish(id)) {
                        Ok(out) => outcome_line(id, &out),
                        Err(e) => format!("ERR {e}"),
                    }
                }
                Ok(Request::Stats) => stats_line(&engine.stats()),
                Ok(Request::Shutdown) => "OK shutdown".to_string(),
                Err(msg) => format!("ERR {msg}"),
            }
        };
        if opened.is_none() && !req.line.starts_with("OPEN") {
            opened = Some(engine.stats());
        }
        if loaded.is_none() && req.line.starts_with("FINISH") {
            loaded = Some(engine.stats());
        }
        let response = match tracer.as_deref_mut() {
            Some(tr) => tr.span("request", |tr| handle(&mut Some(tr))),
            None => handle(&mut None),
        };
        if !req.matches(response.as_bytes()) {
            failed += 1;
        }
    }
    let end = engine.stats();
    Replayed {
        failed,
        opened: opened.unwrap_or(end),
        loaded: loaded.unwrap_or(end),
        end,
    }
}

/// One in-process replay: oracle failures, and engine statistics after
/// the leading `OPEN`s, just before the first `FINISH`, and at the end.
struct Replayed {
    failed: u64,
    opened: oqsc_serve::MuxStats,
    loaded: oqsc_serve::MuxStats,
    end: oqsc_serve::MuxStats,
}

/// Runs `f` inside a span when tracing, plainly otherwise.
fn in_span<R>(
    tracer: &mut Option<&mut Tracer>,
    name: &'static str,
    f: impl FnOnce(&mut Option<&mut Tracer>) -> R,
) -> R {
    match tracer {
        Some(tr) => tr.span(name, |tr| f(&mut Some(tr))),
        None => f(&mut None),
    }
}

/// Mean ns per call of `f` over enough calls to take about `target`.
fn time_per_call(target: Duration, mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    f();
    let once = t.elapsed().max(Duration::from_nanos(20));
    let iters = (target.as_secs_f64() / once.as_secs_f64()).clamp(1.0, 1e7) as u32;
    let t = Instant::now();
    for _ in 0..iters {
        f();
    }
    t.elapsed().as_secs_f64() * 1e9 / f64::from(iters)
}

/// What the served half of a traced run measured.
struct Served {
    /// Closed-loop time of each unit of the flood fleet, in µs.
    closed_us: Vec<f64>,
    /// Mean `STATS` round trip, in µs.
    stats_rtt_us: f64,
    /// Generator lateness `(max, p99)` in the open-loop phase, in µs.
    late: (f64, f64),
}

/// The served half of a traced run: one open-loop phase (for generator
/// lateness), then the flood fleet closed loop, `unit` requests at a time
/// (one `churn` request or one `deep` session), then `STATS` round trips
/// as a transport probe.
fn serve_traced(
    ctx: &Ctx,
    plan: &Plan,
    unit: usize,
    report: &mut Report,
) -> std::io::Result<Served> {
    let (server, mut conn, mut round) = open_loop(ctx, plan)?;
    let late = lateness(std::slice::from_ref(&round), 1e6 / plan.rate);

    let mut closed_us = Vec::new();
    let mut i = 0;
    while i < plan.flood.len() {
        let batch = &plan.flood[i..(i + unit).min(plan.flood.len())];
        let d = drive(&mut conn, batch, None, unit)?;
        round.tally(&d);
        closed_us.push(us(d.done[batch.len() - 1].duration_since(d.sent[0])));
        i += batch.len();
    }
    let probes: Vec<Req> = (0..STATS_PROBES).map(|_| stats_req()).collect();
    let d = drive(&mut conn, &probes, None, 1)?;
    round.tally(&d);
    let rtt: Vec<f64> = d
        .sent
        .iter()
        .zip(&d.done)
        .map(|(s, e)| us(e.duration_since(*s)))
        .collect();
    server.shutdown(conn)?;
    report.attempted += round.attempted;
    report.fail(round.failed, "responses the oracle rejected");
    Ok(Served {
        closed_us,
        stats_rtt_us: mean(&rtt),
        late,
    })
}

/// In-process cost of answering `STATS` (engine snapshot plus render),
/// subtracted from the probe's round trip to leave the transport.
fn stats_cost_us() -> f64 {
    let engine = MuxEngine::<AnyDecider>::new(MuxConfig::default());
    time_per_call(Duration::from_millis(20), || {
        std::hint::black_box(stats_line(&engine.stats()));
    }) / 1e3
}

/// Cost of one span: a traced empty call minus an untraced one, in ns.
fn span_cost_ns() -> f64 {
    const CALLS: u32 = 100_000;
    let mut tracer = Tracer::new();
    let t = Instant::now();
    for _ in 0..CALLS {
        tracer.span("probe", |_| std::hint::black_box(()));
    }
    let traced = t.elapsed().as_secs_f64();
    let t = Instant::now();
    for _ in 0..CALLS {
        std::hint::black_box(());
    }
    let plain = t.elapsed().as_secs_f64();
    (traced - plain) * 1e9 / f64::from(CALLS)
}

fn dump_spans(ctx: &Ctx, tracer: &Tracer, workload: &str) {
    let path = ctx
        .scratch
        .join(format!("spans-{workload}-{}.tsv", ctx.seed));
    match tracer.dump(&path) {
        Ok(()) => println!("spans: {}", path.display()),
        Err(e) => eprintln!("span dump {}: {e}", path.display()),
    }
}

/// Register width of the `deep` dense kinds: A3 at k = 4 uses 2k + 2.
const DEEP_QUBITS: usize = 2 * DEEP_K as usize + 2;

/// ns per call of one `oqsc_bench` kernel function at `qubits`, the
/// median of five samples of about 20 ms each.
fn kernel_ns(f: fn(usize, u32) -> u64, qubits: usize) -> f64 {
    let probe = f(qubits, 1).max(1);
    let iters = u32::try_from((20_000_000 / probe).clamp(1, 100_000)).expect("clamped");
    let samples: Vec<f64> = (0..5)
        .map(|_| f(qubits, iters) as f64 / f64::from(iters))
        .collect();
    median(&samples)
}

/// Everything a traced run measures the same way on either workload: the
/// served round, the traced in-process replay of its flood, and the tier
/// costs of the flood fleet's sessions.
struct Traced {
    served: Served,
    tracer: Tracer,
    replayed: Replayed,
    tier: TierCosts,
    requests: usize,
    tokens: usize,
}

/// Serves round 0 of `plan` traced, closed loop `unit` requests at a time,
/// then replays its flood in-process: once untraced to warm caches and
/// the allocator, once inside spans, each on a fresh engine. `None` when
/// the served round failed (already counted in `report`).
fn trace_workload(
    ctx: &Ctx,
    workload: &str,
    plan: &Plan,
    flood_fleet: &[Sess],
    unit: usize,
    report: &mut Report,
) -> Option<Traced> {
    let served = match serve_traced(ctx, plan, unit, report) {
        Ok(s) => s,
        Err(e) => {
            report.fail(1, &format!("served traced round: {e}"));
            return None;
        }
    };
    let mut tracer = Tracer::new();
    let warm = replay(&plan.flood, plan.live_budget, None);
    let replayed = replay(&plan.flood, plan.live_budget, Some(&mut tracer));
    for out in [&warm, &replayed] {
        report.attempted += plan.flood.len() as u64;
        report.fail(out.failed, "in-process replay disagreed with the oracle");
    }
    dump_spans(ctx, &tracer, workload);
    Some(Traced {
        served,
        tracer,
        replayed,
        tier: tier_costs(flood_fleet),
        requests: plan.flood.len(),
        tokens: plan.flood_tokens,
    })
}

impl Traced {
    /// Per span name: `(count, total ns, self ns)`.
    fn summary(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        self.tracer.summary()
    }

    /// Emits [`LAYER_METRICS`], given one unit's closed-loop time and its
    /// in-process handling time, both in µs.
    fn emit(&self, report: &mut Report, unit_us: f64, in_process_us: f64) {
        let summary = self.summary();
        let total = |name: &str| summary.get(name).map_or(0.0, |&(_, t, _)| t);
        let per = |name: &str| {
            summary
                .get(name)
                .map_or(0.0, |&(n, t, _)| t / n.max(1) as f64)
        };
        let parse = total("protocol.parse");
        report.metric("protocol.parse_ns", parse / self.requests as f64, "ns");
        report.metric(
            "protocol.parse_ns_per_token",
            parse / self.tokens as f64,
            "ns",
        );
        report.metric("mux.open_ns", per("mux.open"), "ns");
        report.metric("mux.feed_ns", per("mux.feed"), "ns");
        report.metric("mux.finish_ns", per("mux.finish"), "ns");
        let loaded = &self.replayed.loaded;
        report.metric("mux.peak_live", self.replayed.end.peak_live as f64, "count");
        report.metric("mux.live_bytes", loaded.live_bytes as f64, "B");
        let tier = &self.tier;
        report.metric("session.suspend_ns", tier.suspend_ns, "ns");
        report.metric("session.resume_ns", tier.resume_ns, "ns");
        report.metric("lz4.compress_ns", tier.compress_ns, "ns");
        report.metric("lz4.decompress_ns", tier.decompress_ns, "ns");
        report.metric("lz4.ratio", tier.ratio, "ratio");
        report.metric("checkpoint.bytes", tier.checkpoint_bytes, "B");
        report.metric("decider.ns_per_token", tier.decider_ns_per_token, "ns");
        for (name, kernel) in [
            (
                "quantum.gate_sweep_ns",
                oqsc_bench::record::gate_sweep_dense as fn(usize, u32) -> u64,
            ),
            ("quantum.reflect_axpy_ns", oqsc_bench::record::reflect_axpy),
            (
                "quantum.reductions_ns",
                oqsc_bench::record::reductions_dense,
            ),
        ] {
            report.metric(name, kernel_ns(kernel, DEEP_QUBITS), "ns");
        }
        report.metric("transport.rtt_us", unit_us - in_process_us, "us");
        report.metric("transport.stats_rtt_us", self.stats_transport_us(), "us");
        report.metric("unit.closed_loop_us", unit_us, "us");
        report.metric("gen.late_max_us", self.served.late.0, "us");
        report.metric("gen.late_p99_us", self.served.late.1, "us");
        let spans_per_request = self.tracer.span_count() as f64 / self.requests as f64;
        report.metric(
            "trace.overhead_ns",
            spans_per_request * span_cost_ns(),
            "ns",
        );
    }

    /// The `STATS` round trip minus its in-process cost, in µs.
    fn stats_transport_us(&self) -> f64 {
        self.served.stats_rtt_us - stats_cost_us()
    }
}

/// Prints the engine's tier transitions per `FEED` (or `FEEDS`) line.
fn print_tier_moves(hydrations: u64, evictions: u64, feeds: usize) {
    let feeds = feeds.max(1) as f64;
    println!(
        "mux: hydrations/feed={:.3} evictions/feed={:.3}",
        hydrations as f64 / feeds,
        evictions as f64 / feeds
    );
}

pub fn churn_traced(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let setup = churn_setup(ctx, 0);
    let plan = &setup.plan;
    let Some(t) = trace_workload(ctx, "churn", plan, &setup.flood_fleet, 1, &mut report) else {
        return report;
    };
    // The flood is OPENs, then FEEDs, then FINISHes; one FEED is the unit.
    let fleet_n = setup.flood_fleet.len();
    let feeds = plan.flood.len() - 2 * fleet_n;
    let feed_closed_us = mean(&t.served.closed_us[fleet_n..fleet_n + feeds]);
    let summary = t.summary();
    let per = |name: &str, col: fn(&(u64, f64, f64)) -> f64| {
        summary
            .get(name)
            .map_or(0.0, |e| col(e) / e.0.max(1) as f64)
            / 1e3
    };
    let parse_us = per("protocol.parse", |e| e.1);
    let feed_us = per("mux.feed", |e| e.1);
    let render_us = per("request", |e| e.2);
    // Tier transitions of the FEED phase only (OPENs evict too).
    let (opened, loaded) = (&t.replayed.opened, &t.replayed.loaded);
    let hyd = loaded.hydrations - opened.hydrations;
    let evi = loaded.evictions - opened.evictions;
    print_tier_moves(hyd, evi, feeds);
    let (hyd, evi) = (hyd as f64 / feeds as f64, evi as f64 / feeds as f64);
    t.emit(&mut report, feed_closed_us, parse_us + feed_us + render_us);

    // One churn FEED, closed loop: where its time goes.
    let tier = &t.tier;
    let mut table = Table::new("one churn FEED (closed loop, mean)", "us", feed_closed_us);
    table.row("protocol.parse", parse_us, "span");
    let resume = hyd * tier.resume_ns / 1e3;
    let decompress = hyd * tier.decompress_ns / 1e3;
    let suspend = evi * tier.suspend_ns / 1e3;
    let compress = evi * tier.compress_ns / 1e3;
    let decider = tier.decider_ns_per_token * FEED_CHUNK as f64 / 1e3;
    let hydration = "modeled: per hydration x hydrations/feed";
    let eviction = "modeled: per eviction x evictions/feed";
    table.row("session.resume", resume, hydration);
    table.row("lz4.decompress", decompress, hydration);
    table.row("session.suspend", suspend, eviction);
    table.row("lz4.compress", compress, eviction);
    table.row("decider.feed", decider, "modeled: ns/token x 8");
    table.row(
        "mux (self)",
        feed_us - resume - decompress - suspend - compress - decider,
        "span minus modeled children",
    );
    table.row("server.render", render_us, "request span self time");
    table.row(
        "transport",
        t.stats_transport_us(),
        "STATS probe minus its in-process cost",
    );
    table.unattributed();
    table.print();
    report
}

pub fn deep_traced(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let sessions = if ctx.small { 26 } else { 117 };
    let setup = deep_setup(ctx, sessions, 0);
    let plan = &setup.plan;
    let Some(t) = trace_workload(ctx, "deep", plan, &setup.flood_fleet, 3, &mut report) else {
        return report;
    };
    let end = &t.replayed.end;
    let n_sessions = setup.flood_fleet.len() as f64;
    print_tier_moves(end.hydrations, end.evictions, setup.flood_fleet.len());
    let summary = t.summary();
    let total = |name: &str| summary.get(name).map_or(0.0, |&(_, t, _)| t);
    let per_session = |ns: f64| ns / n_sessions / 1e3;
    let session_us = mean(&t.served.closed_us);
    t.emit(&mut report, session_us, per_session(total("request")));

    // Decider cost of whole sessions without engine or wire.
    let t0 = Instant::now();
    for s in &setup.flood_fleet {
        let mut session = Session::new(s.kind.build(s.seed));
        session.feed_slice(&s.word);
        std::hint::black_box(session.finish());
    }
    let decider_ns = t0.elapsed().as_secs_f64() * 1e9;

    // One deep session (OPEN + FEEDS + FINISH), closed loop.
    let engine_ns = total("mux.open") + total("mux.feed") + total("mux.finish");
    let mut table = Table::new("one deep session (closed loop, mean)", "us", session_us);
    table.row(
        "protocol.parse",
        per_session(total("protocol.parse")),
        "span",
    );
    table.row("catalog.build", per_session(total("catalog.build")), "span");
    table.row(
        "decider + backend",
        per_session(decider_ns),
        "modeled: direct Session run",
    );
    table.row(
        "mux (self)",
        per_session(engine_ns - decider_ns),
        "spans minus modeled decider",
    );
    table.row(
        "server.render",
        per_session(summary.get("request").map_or(0.0, |&(_, _, s)| s)),
        "request span self time",
    );
    table.row(
        "transport",
        t.stats_transport_us(),
        "STATS probe minus its in-process cost",
    );
    table.unattributed();
    table.print();
    report
}

/// Tier-transition and decider costs measured on a workload's sessions.
struct TierCosts {
    suspend_ns: f64,
    resume_ns: f64,
    compress_ns: f64,
    decompress_ns: f64,
    ratio: f64,
    checkpoint_bytes: f64,
    decider_ns_per_token: f64,
}

/// Feeds each sampled session half its word, suspends it, resumes it, and
/// runs the warm tier's LZ4 policy on the checkpoint (compress only at
/// [`COMPRESS_MIN_LEN`] bytes and up, as the engine does). Costs are per
/// tier transition, averaged over the sample — a checkpoint the engine
/// would store raw contributes zero LZ4 time.
fn tier_costs(fleet: &[Sess]) -> TierCosts {
    let sample: Vec<&Sess> = fleet.iter().step_by((fleet.len() / 200).max(1)).collect();
    let target = Duration::from_millis(2);
    let (mut suspend, mut resume, mut comp, mut decomp) = (vec![], vec![], vec![], vec![]);
    let (mut raw_bytes, mut packed_bytes) = (0usize, 0usize);
    let mut feed_ns = 0.0;
    let mut feed_tokens = 0usize;
    for s in &sample {
        let mut session = Session::new(s.kind.build(s.seed));
        let half = s.word.len() / 2;
        let t = Instant::now();
        for chunk in s.word[..half].chunks(FEED_CHUNK) {
            session.feed_slice(chunk);
        }
        feed_ns += t.elapsed().as_secs_f64() * 1e9;
        feed_tokens += half;
        suspend.push(time_per_call(target, || {
            std::hint::black_box(session.suspend());
        }));
        let cp = session.suspend();
        resume.push(time_per_call(target, || {
            std::hint::black_box(Session::<AnyDecider>::resume(&cp).is_ok());
        }));
        let raw = cp.as_bytes();
        raw_bytes += raw.len();
        let packed = lz4_flex::block::compress(raw);
        if raw.len() >= COMPRESS_MIN_LEN {
            comp.push(time_per_call(target, || {
                std::hint::black_box(lz4_flex::block::compress(raw));
            }));
        } else {
            comp.push(0.0);
        }
        if raw.len() >= COMPRESS_MIN_LEN && packed.len() < raw.len() {
            packed_bytes += packed.len();
            decomp.push(time_per_call(target, || {
                std::hint::black_box(lz4_flex::block::decompress(&packed, raw.len()).is_ok());
            }));
        } else {
            packed_bytes += raw.len();
            decomp.push(0.0);
        }
    }
    TierCosts {
        suspend_ns: mean(&suspend),
        resume_ns: mean(&resume),
        compress_ns: mean(&comp),
        decompress_ns: mean(&decomp),
        ratio: raw_bytes as f64 / packed_bytes.max(1) as f64,
        checkpoint_bytes: raw_bytes as f64 / sample.len().max(1) as f64,
        decider_ns_per_token: feed_ns / feed_tokens.max(1) as f64,
    }
}
