//! Regenerates every experiment table of `EXPERIMENTS.md` — and drives
//! single sweeps in-process, across OS worker processes, and through
//! the persistent checkpoint store.
//!
//! ```text
//! # all tables (classic mode)
//! cargo run --release -p oqsc-bench --bin experiments \
//!     [-- --workers N] [--checkpoint-every N]
//!
//! # one sweep, optionally sharded over worker processes and/or
//! # persisted so a killed run can resume
//! experiments --sweep e6|f1|f3|f4 [--k-max K] [--trials T] [--workers N]
//!             [--processes P] [--store PREFIX [--resume]]
//!             [--checkpoint-every N]
//!
//! # rewrite resume-heavy store files down to one record per instance
//! experiments --compact PREFIX [--break-locks]
//!
//! # per-file record/dedupe/compression report for existing stores
//! experiments --store-stats PREFIX [--break-locks]
//!
//! # session-multiplexing server (Unix socket or TCP), and its driver
//! experiments --serve ADDR [--workers N] [--live-budget BYTES]
//!             [--spill-store PATH]
//! experiments --drive ADDR [--feeds] [--drive-phase 1|2]
//! experiments --drive-direct       # same fleet, no server — for cmp
//! experiments --shutdown ADDR
//!
//! # consistent-hash router fronting N --serve engines
//! experiments --route ADDR --engines A1,A2,... [--workers N]
//! ```
//!
//! `--workers N` sizes the in-process batch scheduler's worker fleet
//! for the decider sweeps (E6, F1, F3, F4; default: the machine's
//! available parallelism). `--checkpoint-every N` without a store
//! switches those sweeps to the migrating session schedule (suspend to
//! bytes and resume every `N` tokens); with `--store` it is the
//! persistence cadence instead. Pool workers use it only to persist, so
//! `--processes` accepts it only together with `--store`. Every table
//! is a pure function of its seeds, so the numbers are identical at any
//! worker count, any process count, and any checkpoint cadence — only
//! the wall clock changes.
//!
//! `--sweep` mode additionally accepts:
//!
//! * `--trials T` — Monte-Carlo fleet size for the f3/f4 sweeps
//!   (rejected for e6/f1, whose fleets are sized by `--k-max` alone).
//! * `--processes P` — shard the sweep over `P` OS worker processes
//!   (this same binary re-executed in `--worker` mode); the merged
//!   table is byte-identical to the in-process one.
//! * `--store PREFIX` — persist checkpoints every `--checkpoint-every`
//!   tokens into per-shard store files `PREFIX.<fleet>.shard<w>of<P>.cps`,
//!   plus an outcome record whenever an instance finishes, so a resumed
//!   sweep skips finished instances outright. A fresh run refuses stale
//!   store files; pass `--resume` to recover them (salvaging any
//!   crash-truncated tail) and continue from the last persisted
//!   boundaries.
//! * `--crash-after-tokens T` — testing hook: stop dead after feeding
//!   `T` tokens per fleet (exit code 9), simulating a kill; a later
//!   `--resume` run completes the sweep with the identical table.
//!
//! `--compact PREFIX` rewrites every store file under the prefix down
//! to one record per instance (its outcome if finished, its latest
//! checkpoint otherwise) via an atomic rename — resume-heavy stores
//! shrink, subsequent `--resume` runs are bit-identical. Add
//! `--break-locks` to clear `.lock` files orphaned by killed writers
//! first (only sound once those writers are known dead).
//!
//! `--store-stats PREFIX` prints one line per store file under the
//! prefix: format version, record counts (full vs dedupe-ref and the
//! dedupe hit rate), stored vs uncompressed payload bytes and the
//! compression ratio — the same columns the `--compact` report shows
//! before/after. Both take either a sweep's `--store` prefix or the
//! path of one store file, such as a fabric coordinator's ledger.
//! Every store is written in format v3, the only one this build reads;
//! a file claiming any other version is refused with a typed error.
//!
//! `--serve ADDR` runs the `oqsc-serve` session-multiplexing engine
//! behind its line protocol — `ADDR` is a Unix socket path, or
//! `host:port` for TCP (`--workers N` caps the connections served at
//! once; later clients wait until one hangs up) — until a client sends
//! `SHUTDOWN`. Its live tier evicts the least recently fed session
//! first, and `--spill-store PATH` attaches a durable spill tier
//! (mid-stream sessions are flushed there on shutdown and rehydrated by
//! the next `--serve` on the same path). `--drive ADDR` opens the
//! deterministic 32-session demo fleet over that address — every
//! decider kind, member and non-member words — and prints one
//! `OUTCOME` line per session; `--feeds` sends each word as
//! one pipelined batched `FEEDS` line instead of chunked `FEED`s, and
//! `--drive-phase 1|2` splits the drive across two invocations (phase 1
//! feeds the first half of every word and stops without finishing;
//! phase 2 reopens nothing, feeds the rest and prints the outcomes —
//! the restart-from-spill smoke). `--drive-direct` prints the same
//! lines from uninterrupted in-process runs, so `cmp` between the two
//! outputs is the end-to-end byte-identity check CI runs. `--shutdown
//! ADDR` stops a running server. `--route ADDR --engines A1,A2,...`
//! runs the consistent-hash router: it speaks the same line protocol on
//! `ADDR` and forwards each session's verbs to the engine its id hashes
//! to, so `--drive` against the router is byte-identical to a single
//! direct engine (`--workers N` caps its connections the same way).
//! Server, router and fabric coordinator share one line service: a
//! thread per connection, request lines capped at 64 KiB, and a fixed
//! 50 ms read poll, so an idle connection notices `SHUTDOWN` promptly.
//!
//! Out-of-range values are rejected up front with a clear message,
//! never silently clamped or panicked on.

use oqsc_bench::fabric::{fabric_work, Coordinator, FabricConfig, WorkerConfig};
use oqsc_bench::pool::{
    find_store_files, worker_outcomes, PoolError, PoolRunOpts, ShardId, SweepSpec,
};
use oqsc_bench::{emit_outcomes, ProcessPool, WORKER_CRASH_EXIT};
use oqsc_machine::{BatchRunner, CheckpointStore, SessionSchedule, StoreError};
use oqsc_serve::{
    direct_outcome_lines, drive_fleet, shutdown_socket, stats_line, DrivePhase, FeedMode, Router,
    RouterConfig, Server, ServerConfig,
};

/// Upper bound on `--workers`: far above any real machine, low enough to
/// catch a mistyped value before it spawns a few million threads.
const MAX_WORKERS: usize = 4096;

/// Upper bound on `--processes` (same rationale, for OS processes).
const MAX_PROCESSES: usize = 256;

/// Upper bound on `--k-max`: `k = 8` already streams 5·10⁷ symbols.
const MAX_K: u32 = 8;

/// Upper bound on `--trials` (a million Monte-Carlo instances per fleet
/// is already far past any table in the paper).
const MAX_TRIALS: usize = 1_000_000;

/// Default persistence cadence when `--store` is given without an
/// explicit `--checkpoint-every`.
const DEFAULT_PERSIST_EVERY: usize = 4096;

/// Base seed for the `--drive` / `--drive-direct` demo fleet. Fixed so
/// the two outputs are comparable across separate process invocations
/// (the CI smoke `cmp`s them).
const DRIVE_SEED: u64 = 0x0D21F7;

/// Default instances per fabric lease.
const DEFAULT_LEASE_SIZE: usize = 16;

/// Upper bound on `--lease-size` (a lease far wider than any fleet just
/// degrades to one worker doing everything).
const MAX_LEASE_SIZE: usize = 1 << 20;

/// Default fabric lease TTL in milliseconds.
const DEFAULT_LEASE_TTL_MS: u64 = 10_000;

struct Cli {
    runner: BatchRunner,
    schedule: SessionSchedule,
    workers: Option<usize>,
    sweep: Option<String>,
    k_max: Option<u32>,
    trials: Option<usize>,
    processes: Option<usize>,
    store: Option<std::path::PathBuf>,
    resume: bool,
    crash_after_tokens: Option<u64>,
    checkpoint_every: Option<usize>,
    worker: bool,
    shard: Option<usize>,
    of: Option<usize>,
    compact: Option<std::path::PathBuf>,
    store_stats: Option<std::path::PathBuf>,
    break_locks: bool,
    bench_json: Option<std::path::PathBuf>,
    bench_reduced: bool,
    serve: Option<String>,
    live_budget: Option<usize>,
    spill_store: Option<std::path::PathBuf>,
    route: Option<String>,
    engines: Option<Vec<String>>,
    drive: Option<String>,
    feeds: bool,
    drive_phase: Option<DrivePhase>,
    drive_direct: bool,
    shutdown: Option<String>,
    fabric_coordinate: Option<String>,
    fabric_work: Option<String>,
    lease_size: Option<usize>,
    lease_ttl_ms: Option<u64>,
    worker_id: Option<u64>,
    fabric_throttle_ms: Option<u64>,
}

fn usage_and_exit(code: i32) -> ! {
    println!("usage: experiments [--workers N] [--checkpoint-every N]");
    println!("       experiments --sweep e6|f1|f3|f4 [--k-max K] [--trials T] [--workers N]");
    println!(
        "                   [--processes P] [--store PREFIX [--resume]] [--checkpoint-every N]"
    );
    println!("       experiments --compact PREFIX [--break-locks]");
    println!("       experiments --store-stats PREFIX [--break-locks]");
    println!("       experiments --bench-json PATH [--bench-reduced]");
    println!("       experiments --serve ADDR [--workers N] [--live-budget BYTES]");
    println!("                   [--spill-store PATH]");
    println!("       experiments --route ADDR --engines A1,A2,... [--workers N]");
    println!("       experiments --drive ADDR [--feeds] [--drive-phase 1|2]");
    println!("       experiments --drive-direct | --shutdown ADDR");
    println!("       experiments --sweep NAME --fabric-coordinate ADDR [--store PATH [--resume]]");
    println!("                   [--lease-size N] [--lease-ttl-ms T]");
    println!("       experiments --sweep NAME --fabric-work ADDR [--workers N]");
    println!("                   [--worker-id N] [--fabric-throttle-ms T]");
    println!(
        "  --workers N            batch workers, 1..={MAX_WORKERS} (default: available cores)"
    );
    println!("  --checkpoint-every N   in-process sweeps: suspend and resume every instance");
    println!("                         every N tokens, N >= 1; with --store: the persistence");
    println!("                         cadence (default {DEFAULT_PERSIST_EVERY}); --processes takes it only");
    println!("                         with --store");
    println!("  --sweep e6|f1|f3|f4    run one sweep and print its table");
    println!("  --k-max K              sweep size, 1..={MAX_K} (default: e6 7, f1 8, f3 3, f4 4)");
    println!("  --trials T             f3/f4 Monte-Carlo fleet size, 1..={MAX_TRIALS}");
    println!("                         (default: f3 4000, f4 400; rejected for e6/f1)");
    println!(
        "  --processes P          shard the sweep over P worker processes, 1..={MAX_PROCESSES}"
    );
    println!("  --store PREFIX         persist checkpoints + finished outcomes to");
    println!("                         PREFIX.<fleet>.shard<w>of<P>.cps");
    println!("  --resume               recover existing shard stores, skip finished instances,");
    println!("                         and continue");
    println!("  --crash-after-tokens T testing hook: die after T tokens per fleet (needs --store)");
    println!("  --compact PREFIX       rewrite each store under PREFIX (or the store file");
    println!("                         PREFIX) to one record per instance (atomic rename);");
    println!("                         resumes stay bit-identical");
    println!("  --store-stats PREFIX   print records / dedupe / compression per store file");
    println!("  --break-locks          with --compact or --store-stats: clear orphaned");
    println!("                         .lock files first");
    println!("  --bench-json PATH      run the SIMD kernel micro-benchmarks (scalar vs");
    println!("                         auto dispatch) and write the JSON record to PATH");
    println!("  --bench-reduced        with --bench-json: shrink sizes for a CI smoke run");
    println!("  --serve ADDR           run the session-multiplexing server on a Unix socket");
    println!("                         path or host:port (--workers N caps the");
    println!("                         connections it serves at once)");
    println!("  --live-budget BYTES    with --serve: hot-tier byte budget for live sessions");
    println!("                         (default 64 MiB; 0 = suspend after every feed)");
    println!("  --spill-store PATH     with --serve: durable spill tier; mid-stream sessions");
    println!("                         are flushed there on SHUTDOWN and rehydrated by the");
    println!("                         next --serve on the same path");
    println!("  --route ADDR           run the consistent-hash router on ADDR, fronting the");
    println!("                         --engines fleet behind the same line protocol");
    println!("  --engines A1,A2,...    with --route: the backend engine addresses");
    println!("  --drive ADDR           run the demo fleet through a --serve server (or a");
    println!("                         --route front) and print one OUTCOME line per session");
    println!("  --feeds                with --drive: send each word as one pipelined batched");
    println!("                         FEEDS line instead of chunked FEEDs");
    println!("  --drive-phase 1|2      with --drive: split the drive across two invocations");
    println!("                         (1 = feed first halves, no finish; 2 = feed the rest");
    println!("                         without reopening, print outcomes)");
    println!("  --drive-direct         print the same OUTCOME lines from uninterrupted");
    println!("                         in-process runs (cmp against --drive)");
    println!("  --shutdown ADDR        stop a running --serve server or --route router");
    println!("  --fabric-coordinate ADDR  run the distributed-sweep coordinator on ADDR");
    println!("                         (a Unix socket path, or host:port for TCP) until the");
    println!("                         sweep completes, then print its table; --store makes");
    println!("                         the outcome ledger durable (--resume recovers it)");
    println!("  --fabric-work ADDR     run a fabric worker against the coordinator at ADDR");
    println!("                         (--workers N threads per leased range)");
    println!("  --lease-size N         coordinator: instances per lease, 1..={MAX_LEASE_SIZE}");
    println!("                         (default {DEFAULT_LEASE_SIZE})");
    println!("  --lease-ttl-ms T       coordinator: lease TTL without renewal, T >= 1");
    println!("                         (default {DEFAULT_LEASE_TTL_MS})");
    println!("  --worker-id N          worker: lease/heartbeat identity (default: process id)");
    println!("  --fabric-throttle-ms T worker: run one instance at a time with a T ms pause");
    println!("                         (straggler mode — exercises re-lease and work stealing)");
    std::process::exit(code);
}

fn bad_value(flag: &str, value: Option<String>, expected: &str) -> ! {
    match value {
        Some(v) => eprintln!("error: {flag} {v}: expected {expected}"),
        None => eprintln!("error: {flag} requires a value ({expected})"),
    }
    std::process::exit(2);
}

fn parse_num<T: std::str::FromStr>(
    args: &mut impl Iterator<Item = String>,
    flag: &str,
    expected: &str,
    ok: impl Fn(&T) -> bool,
) -> T {
    let raw = args.next();
    match raw.as_deref().map(str::parse::<T>) {
        Some(Ok(n)) if ok(&n) => n,
        _ => bad_value(flag, raw, expected),
    }
}

fn parse_cli() -> Cli {
    let mut cli = Cli {
        runner: BatchRunner::available(),
        schedule: SessionSchedule::Uninterrupted,
        workers: None,
        sweep: None,
        k_max: None,
        trials: None,
        processes: None,
        store: None,
        resume: false,
        crash_after_tokens: None,
        checkpoint_every: None,
        worker: false,
        shard: None,
        of: None,
        compact: None,
        store_stats: None,
        break_locks: false,
        bench_json: None,
        bench_reduced: false,
        serve: None,
        live_budget: None,
        spill_store: None,
        route: None,
        engines: None,
        drive: None,
        feeds: false,
        drive_phase: None,
        drive_direct: false,
        shutdown: None,
        fabric_coordinate: None,
        fabric_work: None,
        lease_size: None,
        lease_ttl_ms: None,
        worker_id: None,
        fabric_throttle_ms: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workers" => {
                cli.workers = Some(parse_num(
                    &mut args,
                    "--workers",
                    &format!("an integer between 1 and {MAX_WORKERS}"),
                    |n: &usize| (1..=MAX_WORKERS).contains(n),
                ));
            }
            "--checkpoint-every" => {
                cli.checkpoint_every = Some(parse_num(
                    &mut args,
                    "--checkpoint-every",
                    "a positive token count",
                    |n: &usize| *n >= 1,
                ));
            }
            "--sweep" => match args.next() {
                Some(name) if ["e6", "f1", "f3", "f4"].contains(&name.as_str()) => {
                    cli.sweep = Some(name)
                }
                raw => bad_value("--sweep", raw, "one of: e6, f1, f3, f4"),
            },
            "--k-max" => {
                cli.k_max = Some(parse_num(
                    &mut args,
                    "--k-max",
                    &format!("an integer between 1 and {MAX_K}"),
                    |n: &u32| (1..=MAX_K).contains(n),
                ));
            }
            "--trials" => {
                cli.trials = Some(parse_num(
                    &mut args,
                    "--trials",
                    &format!("an integer between 1 and {MAX_TRIALS}"),
                    |n: &usize| (1..=MAX_TRIALS).contains(n),
                ));
            }
            "--processes" => {
                cli.processes = Some(parse_num(
                    &mut args,
                    "--processes",
                    &format!("an integer between 1 and {MAX_PROCESSES}"),
                    |n: &usize| (1..=MAX_PROCESSES).contains(n),
                ));
            }
            "--store" => match args.next() {
                Some(p) if !p.is_empty() => cli.store = Some(p.into()),
                raw => bad_value("--store", raw, "a path prefix"),
            },
            "--resume" => cli.resume = true,
            "--crash-after-tokens" => {
                cli.crash_after_tokens = Some(parse_num(
                    &mut args,
                    "--crash-after-tokens",
                    "a token count",
                    |_: &u64| true,
                ));
            }
            "--compact" => match args.next() {
                Some(p) if !p.is_empty() => cli.compact = Some(p.into()),
                raw => bad_value("--compact", raw, "a store path prefix"),
            },
            "--store-stats" => match args.next() {
                Some(p) if !p.is_empty() => cli.store_stats = Some(p.into()),
                raw => bad_value("--store-stats", raw, "a store path prefix"),
            },
            "--break-locks" => cli.break_locks = true,
            "--bench-json" => match args.next() {
                Some(p) if !p.is_empty() => cli.bench_json = Some(p.into()),
                raw => bad_value("--bench-json", raw, "an output path"),
            },
            "--bench-reduced" => cli.bench_reduced = true,
            "--serve" => match args.next() {
                Some(a) if !a.is_empty() => cli.serve = Some(a),
                raw => bad_value("--serve", raw, "a Unix socket path or host:port"),
            },
            "--live-budget" => {
                cli.live_budget = Some(parse_num(
                    &mut args,
                    "--live-budget",
                    "a byte count (0 = evict on every feed)",
                    |_: &usize| true,
                ));
            }
            "--spill-store" => match args.next() {
                Some(p) if !p.is_empty() => cli.spill_store = Some(p.into()),
                raw => bad_value("--spill-store", raw, "a checkpoint-store path"),
            },
            "--route" => match args.next() {
                Some(a) if !a.is_empty() => cli.route = Some(a),
                raw => bad_value("--route", raw, "a Unix socket path or host:port"),
            },
            "--engines" => match args.next() {
                Some(list) if !list.is_empty() && list.split(',').all(|a| !a.is_empty()) => {
                    cli.engines = Some(list.split(',').map(str::to_string).collect());
                }
                raw => bad_value(
                    "--engines",
                    raw,
                    "a comma-separated list of engine addresses",
                ),
            },
            "--drive" => match args.next() {
                Some(a) if !a.is_empty() => cli.drive = Some(a),
                raw => bad_value("--drive", raw, "a Unix socket path or host:port"),
            },
            "--feeds" => cli.feeds = true,
            "--drive-phase" => match args.next().as_deref() {
                Some("1") => cli.drive_phase = Some(DrivePhase::FirstHalf),
                Some("2") => cli.drive_phase = Some(DrivePhase::SecondHalf),
                raw => bad_value(
                    "--drive-phase",
                    raw.map(str::to_string),
                    "1 (feed first halves, no finish) or 2 (feed the rest, finish)",
                ),
            },
            "--drive-direct" => cli.drive_direct = true,
            "--shutdown" => match args.next() {
                Some(a) if !a.is_empty() => cli.shutdown = Some(a),
                raw => bad_value("--shutdown", raw, "a Unix socket path or host:port"),
            },
            "--fabric-coordinate" => match args.next() {
                Some(a) if !a.is_empty() => cli.fabric_coordinate = Some(a),
                raw => bad_value(
                    "--fabric-coordinate",
                    raw,
                    "a Unix socket path or host:port",
                ),
            },
            "--fabric-work" => match args.next() {
                Some(a) if !a.is_empty() => cli.fabric_work = Some(a),
                raw => bad_value("--fabric-work", raw, "a Unix socket path or host:port"),
            },
            "--lease-size" => {
                cli.lease_size = Some(parse_num(
                    &mut args,
                    "--lease-size",
                    &format!("an integer between 1 and {MAX_LEASE_SIZE}"),
                    |n: &usize| (1..=MAX_LEASE_SIZE).contains(n),
                ));
            }
            "--lease-ttl-ms" => {
                cli.lease_ttl_ms = Some(parse_num(
                    &mut args,
                    "--lease-ttl-ms",
                    "a positive millisecond count",
                    |n: &u64| *n >= 1,
                ));
            }
            "--worker-id" => {
                cli.worker_id = Some(parse_num(
                    &mut args,
                    "--worker-id",
                    "a worker id",
                    |_: &u64| true,
                ));
            }
            "--fabric-throttle-ms" => {
                cli.fabric_throttle_ms = Some(parse_num(
                    &mut args,
                    "--fabric-throttle-ms",
                    "a millisecond count",
                    |_: &u64| true,
                ));
            }
            "--worker" => cli.worker = true,
            "--shard" => {
                cli.shard = Some(parse_num(
                    &mut args,
                    "--shard",
                    "a shard index",
                    |_: &usize| true,
                ));
            }
            "--of" => {
                cli.of = Some(parse_num(
                    &mut args,
                    "--of",
                    &format!("an integer between 1 and {MAX_PROCESSES}"),
                    |n: &usize| (1..=MAX_PROCESSES).contains(n),
                ));
            }
            "--help" | "-h" => usage_and_exit(0),
            other => {
                eprintln!("error: unknown argument: {other}");
                usage_and_exit(2);
            }
        }
    }
    if let Some(w) = cli.workers {
        cli.runner = BatchRunner::new(w);
    }
    if cli.store.is_none() {
        if let Some(n) = cli.checkpoint_every {
            cli.schedule = SessionSchedule::MigrateEvery(n);
        }
    }
    // Bench-record mode stands alone: it times kernels, nothing else.
    if cli.bench_json.is_some() {
        for (set, flag) in [
            (cli.sweep.is_some(), "--sweep"),
            (cli.compact.is_some(), "--compact"),
            (cli.store_stats.is_some(), "--store-stats"),
            (cli.workers.is_some(), "--workers"),
            (cli.checkpoint_every.is_some(), "--checkpoint-every"),
            (cli.store.is_some(), "--store"),
        ] {
            if set {
                eprintln!("error: --bench-json cannot be combined with {flag}");
                std::process::exit(2);
            }
        }
    }
    if cli.bench_reduced && cli.bench_json.is_none() {
        eprintln!("error: --bench-reduced requires --bench-json");
        std::process::exit(2);
    }
    // Flags owned by one serve-family mode.
    for (set, flag) in [
        (cli.live_budget.is_some(), "--live-budget"),
        (cli.spill_store.is_some(), "--spill-store"),
    ] {
        if set && cli.serve.is_none() {
            eprintln!("error: {flag} requires --serve");
            std::process::exit(2);
        }
    }
    if cli.route.is_some() != cli.engines.is_some() {
        eprintln!("error: --route and --engines go together (a router needs its fleet)");
        std::process::exit(2);
    }
    for (set, flag) in [
        (cli.feeds, "--feeds"),
        (cli.drive_phase.is_some(), "--drive-phase"),
    ] {
        if set && cli.drive.is_none() {
            eprintln!("error: {flag} requires --drive");
            std::process::exit(2);
        }
    }
    // The serve-family modes stand alone too: the server, the router,
    // the two drivers and shutdown each do exactly one thing, and only
    // --serve/--route take --workers (their connection caps).
    let serve_modes = [
        (cli.serve.is_some(), "--serve"),
        (cli.route.is_some(), "--route"),
        (cli.drive.is_some(), "--drive"),
        (cli.drive_direct, "--drive-direct"),
        (cli.shutdown.is_some(), "--shutdown"),
    ];
    let active_serve: Vec<&str> = serve_modes
        .iter()
        .filter(|(set, _)| *set)
        .map(|(_, flag)| *flag)
        .collect();
    if active_serve.len() > 1 {
        eprintln!(
            "error: {} cannot be combined with {}",
            active_serve[0], active_serve[1]
        );
        std::process::exit(2);
    }
    if let Some(mode) = active_serve.first() {
        for (set, flag) in [
            (cli.sweep.is_some(), "--sweep"),
            (cli.compact.is_some(), "--compact"),
            (cli.store_stats.is_some(), "--store-stats"),
            (cli.bench_json.is_some(), "--bench-json"),
            (cli.store.is_some(), "--store"),
            (cli.checkpoint_every.is_some(), "--checkpoint-every"),
            (
                cli.workers.is_some() && cli.serve.is_none() && cli.route.is_none(),
                "--workers (only --serve and --route take it)",
            ),
        ] {
            if set {
                eprintln!("error: {mode} cannot be combined with {flag}");
                std::process::exit(2);
            }
        }
    }
    // The two fabric roles are exclusive, live inside --sweep (the spec
    // is the work contract both sides verify), and split the remaining
    // flags: the coordinator owns the store and the lease policy, the
    // worker owns its identity, thread count and throttle.
    if cli.fabric_coordinate.is_some() && cli.fabric_work.is_some() {
        eprintln!("error: --fabric-coordinate cannot be combined with --fabric-work");
        std::process::exit(2);
    }
    let fabric_mode = if cli.fabric_coordinate.is_some() {
        Some("--fabric-coordinate")
    } else if cli.fabric_work.is_some() {
        Some("--fabric-work")
    } else {
        None
    };
    if let Some(mode) = fabric_mode {
        if cli.sweep.is_none() {
            eprintln!("error: {mode} requires --sweep (the sweep is the work contract)");
            std::process::exit(2);
        }
        for (set, flag) in [
            (cli.processes.is_some(), "--processes"),
            (cli.worker, "--worker"),
            (cli.crash_after_tokens.is_some(), "--crash-after-tokens"),
            (cli.checkpoint_every.is_some(), "--checkpoint-every"),
        ] {
            if set {
                eprintln!("error: {mode} cannot be combined with {flag}");
                std::process::exit(2);
            }
        }
    }
    if cli.fabric_work.is_some() && cli.store.is_some() {
        eprintln!(
            "error: the outcome store belongs to the coordinator; --fabric-work takes no --store"
        );
        std::process::exit(2);
    }
    if cli.fabric_coordinate.is_some() && cli.workers.is_some() {
        eprintln!("error: the coordinator runs no instances; --workers belongs to --fabric-work");
        std::process::exit(2);
    }
    for (set, flag) in [
        (cli.lease_size.is_some(), "--lease-size"),
        (cli.lease_ttl_ms.is_some(), "--lease-ttl-ms"),
    ] {
        if set && cli.fabric_coordinate.is_none() {
            eprintln!("error: {flag} requires --fabric-coordinate");
            std::process::exit(2);
        }
    }
    for (set, flag) in [
        (cli.worker_id.is_some(), "--worker-id"),
        (cli.fabric_throttle_ms.is_some(), "--fabric-throttle-ms"),
    ] {
        if set && cli.fabric_work.is_none() {
            eprintln!("error: {flag} requires --fabric-work");
            std::process::exit(2);
        }
    }
    // Compact and store-stats modes stand alone: they read existing
    // stores, never run sweeps.
    for (mode_set, mode) in [
        (cli.compact.is_some(), "--compact"),
        (cli.store_stats.is_some(), "--store-stats"),
    ] {
        if !mode_set {
            continue;
        }
        for (set, flag) in [
            (cli.sweep.is_some(), "--sweep"),
            (cli.workers.is_some(), "--workers"),
            (cli.checkpoint_every.is_some(), "--checkpoint-every"),
            (cli.store.is_some(), "--store"),
            (cli.resume, "--resume"),
        ] {
            if set {
                eprintln!("error: {mode} cannot be combined with {flag}");
                std::process::exit(2);
            }
        }
    }
    if cli.compact.is_some() && cli.store_stats.is_some() {
        eprintln!("error: --compact cannot be combined with --store-stats");
        std::process::exit(2);
    }
    if cli.break_locks && cli.compact.is_none() && cli.store_stats.is_none() {
        eprintln!("error: --break-locks requires --compact or --store-stats");
        std::process::exit(2);
    }
    // Flags that only make sense inside a sweep.
    if cli.sweep.is_none() {
        for (set, flag) in [
            (cli.k_max.is_some(), "--k-max"),
            (cli.trials.is_some(), "--trials"),
            (cli.processes.is_some(), "--processes"),
            (cli.store.is_some(), "--store"),
            (cli.resume, "--resume"),
            (cli.crash_after_tokens.is_some(), "--crash-after-tokens"),
            (cli.worker, "--worker"),
        ] {
            if set && cli.compact.is_none() {
                eprintln!("error: {flag} requires --sweep");
                std::process::exit(2);
            } else if set {
                eprintln!("error: --compact cannot be combined with {flag}");
                std::process::exit(2);
            }
        }
    }
    if cli.trials.is_some()
        && !matches!(cli.sweep.as_deref(), Some("f3") | Some("f4"))
        && cli.sweep.is_some()
    {
        eprintln!(
            "error: --trials only applies to --sweep f3|f4 (e6/f1 fleets are sized by --k-max)"
        );
        std::process::exit(2);
    }
    if cli.resume && cli.store.is_none() {
        eprintln!("error: --resume requires --store");
        std::process::exit(2);
    }
    if cli.crash_after_tokens.is_some() && cli.store.is_none() {
        eprintln!("error: --crash-after-tokens requires --store");
        std::process::exit(2);
    }
    if cli.processes.is_some() && cli.checkpoint_every.is_some() && cli.store.is_none() {
        eprintln!(
            "error: --processes with --checkpoint-every requires --store \
             (pool workers use the cadence only to persist)"
        );
        std::process::exit(2);
    }
    if cli.worker && (cli.shard.is_none() || cli.of.is_none()) {
        eprintln!("error: --worker requires --shard and --of");
        std::process::exit(2);
    }
    if let (Some(shard), Some(of)) = (cli.shard, cli.of) {
        if shard >= of {
            eprintln!("error: --shard {shard} out of range: must be < --of {of}");
            std::process::exit(2);
        }
    }
    if !cli.worker && (cli.shard.is_some() || cli.of.is_some()) {
        eprintln!("error: --shard/--of require --worker");
        std::process::exit(2);
    }
    cli
}

fn pool_opts(cli: &Cli) -> PoolRunOpts {
    PoolRunOpts {
        store_prefix: cli.store.clone(),
        resume: cli.resume,
        checkpoint_every: cli.checkpoint_every.unwrap_or(DEFAULT_PERSIST_EVERY),
        crash_after_tokens: cli.crash_after_tokens,
        workers: cli.workers.unwrap_or(1),
    }
}

fn exit_for(err: &PoolError) -> i32 {
    match err {
        PoolError::WorkerCrashed { .. } => WORKER_CRASH_EXIT,
        _ => 1,
    }
}

fn run_sweep(cli: &Cli) -> i32 {
    let name = cli.sweep.as_deref().expect("sweep mode");
    let default_k = match name {
        "e6" => 7,
        "f1" => 8,
        "f3" => oqsc_bench::F3_DEFAULT_K_MAX,
        _ => oqsc_bench::F4_DEFAULT_K,
    };
    let default_trials = if name == "f3" {
        oqsc_bench::F3_DEFAULT_TRIALS
    } else {
        oqsc_bench::F4_DEFAULT_TRIALS
    };
    let spec = SweepSpec::from_cli(
        name,
        cli.k_max.unwrap_or(default_k),
        cli.trials.unwrap_or(default_trials),
    )
    .expect("validated name");
    if let Some(addr) = &cli.fabric_coordinate {
        // Fabric coordinator: serve leases until the sweep completes,
        // then print the merged table (stdout carries only the table, so
        // it cmp's against the in-process sweep).
        let config = FabricConfig {
            lease_size: cli.lease_size.unwrap_or(DEFAULT_LEASE_SIZE),
            lease_ttl: std::time::Duration::from_millis(
                cli.lease_ttl_ms.unwrap_or(DEFAULT_LEASE_TTL_MS),
            ),
            store_path: cli.store.clone(),
            resume: cli.resume,
            ..FabricConfig::default()
        };
        let lease_size = config.lease_size;
        let ttl = config.lease_ttl;
        let coordinator = match Coordinator::bind(addr, spec, config) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("error: starting fabric coordinator on {addr}: {e}");
                return 1;
            }
        };
        eprintln!(
            "fabric coordinator on {} (sweep {}, {} instances per lease, ttl {} ms)",
            coordinator.local_addr(),
            spec.name(),
            lease_size,
            ttl.as_millis(),
        );
        return match coordinator.run() {
            Ok(rows) => {
                rows.print();
                0
            }
            Err(e) => {
                eprintln!("error: {e}");
                1
            }
        };
    }
    if let Some(addr) = &cli.fabric_work {
        // Fabric worker: lease ranges from the coordinator until it
        // answers FINISHED.
        let config = WorkerConfig {
            worker_id: cli.worker_id.unwrap_or(std::process::id() as u64),
            threads: cli.workers.unwrap_or(1),
            throttle: cli.fabric_throttle_ms.map(std::time::Duration::from_millis),
            ..WorkerConfig::default()
        };
        return match fabric_work(addr, spec, &config) {
            Ok(report) => {
                eprintln!(
                    "fabric worker {} done: {} leases, {} instances, {} expired",
                    config.worker_id, report.leases, report.instances, report.expired
                );
                0
            }
            Err(e) => {
                eprintln!("error: fabric worker against {addr}: {e}");
                1
            }
        };
    }
    if cli.worker {
        // Worker mode: run our shard, speak the OUTCOME protocol.
        let shard = ShardId {
            shard: cli.shard.expect("validated"),
            of: cli.of.expect("validated"),
        };
        return match worker_outcomes(spec, shard, &pool_opts(cli)) {
            Ok(Some(outcomes)) => {
                let stdout = std::io::stdout();
                emit_outcomes(&mut stdout.lock(), &outcomes).expect("stdout");
                0
            }
            Ok(None) => WORKER_CRASH_EXIT,
            Err(e) => {
                eprintln!("error: {e}");
                1
            }
        };
    }
    let rows = if let Some(processes) = cli.processes {
        // Parent mode: shard over worker processes running this binary.
        let exe = match std::env::current_exe() {
            Ok(exe) => exe,
            Err(e) => {
                eprintln!("error: cannot locate own executable: {e}");
                return 1;
            }
        };
        match ProcessPool::new(processes).run(&exe, spec, &pool_opts(cli)) {
            Ok(rows) => rows,
            Err(e) => {
                eprintln!("error: {e}");
                return exit_for(&e);
            }
        }
    } else if cli.store.is_some() {
        // Single-process persistent run: the worker path, in-process.
        // Unlike spawned worker processes (which default to one serial
        // thread each), this is the whole sweep — honor the documented
        // --workers default of all available cores.
        let mut opts = pool_opts(cli);
        opts.workers = cli.workers.unwrap_or_else(|| cli.runner.workers());
        match worker_outcomes(spec, ShardId { shard: 0, of: 1 }, &opts) {
            Ok(Some(outcomes)) => {
                let triples = outcomes
                    .into_iter()
                    .map(|(fleet, idx, o)| (fleet.to_string(), idx, o));
                match oqsc_bench::pool::rows_from_outcomes(spec, triples) {
                    Ok(rows) => rows,
                    Err(e) => {
                        eprintln!("error: {e}");
                        return 1;
                    }
                }
            }
            Ok(None) => {
                eprintln!(
                    "crashed after --crash-after-tokens budget; resume with --resume to finish"
                );
                return WORKER_CRASH_EXIT;
            }
            Err(e) => {
                eprintln!("error: {e}");
                return 1;
            }
        }
    } else {
        // Plain in-process sweep, straight through the registry.
        spec.rows_in_process(&cli.runner, cli.schedule)
    };
    rows.print();
    0
}

/// Runs the SIMD kernel micro-benchmark suite (scalar vs auto dispatch)
/// and writes the machine-readable record to `path`.
fn run_bench_record(path: &std::path::Path, reduced: bool) -> i32 {
    let json = oqsc_bench::run_record(oqsc_bench::RecordOpts { reduced });
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("error: writing {}: {e}", path.display());
        return 1;
    }
    println!("wrote bench record to {}", path.display());
    print!("{json}");
    0
}

/// One compact `StoreStats` summary: the shared column set of the
/// `--store-stats` report and the `--compact` before/after lines.
fn stats_columns(s: &oqsc_machine::StoreStats) -> String {
    format!(
        "v{} | {} records ({} full + {} ref, dedupe {:.1}%) | {}/{} finished | \
         {} payload bytes on disk / {} logical ({:.2}x, {} compressed) | file {} bytes",
        s.version,
        s.records,
        s.full_records,
        s.ref_records,
        100.0 * s.dedupe_hit_rate(),
        s.finished_instances,
        s.instances,
        s.stored_payload_bytes,
        s.uncompressed_payload_bytes,
        s.compression_ratio(),
        s.compressed_payloads,
        s.file_bytes,
    )
}

/// Finds every store file under `prefix`, optionally clearing orphaned
/// locks first, and hands each to `visit` — the shared walk of
/// `--compact` and `--store-stats`.
fn walk_stores(
    prefix: &std::path::Path,
    break_locks: bool,
    mut visit: impl FnMut(&std::path::Path) -> Result<(), i32>,
) -> i32 {
    let files = match find_store_files(prefix) {
        Ok(files) => files,
        Err(e) => {
            eprintln!("error: scanning {}: {e}", prefix.display());
            return 1;
        }
    };
    if files.is_empty() {
        eprintln!(
            "error: no checkpoint stores (*.cps) match prefix {}",
            prefix.display()
        );
        return 1;
    }
    for path in files {
        if break_locks {
            match CheckpointStore::break_lock(&path) {
                Ok(true) => println!("broke orphaned lock: {}.lock", path.display()),
                Ok(false) => {}
                Err(e) => {
                    eprintln!("error: breaking lock of {}: {e}", path.display());
                    return 1;
                }
            }
        }
        if let Err(code) = visit(&path) {
            return code;
        }
    }
    0
}

/// Compacts every checkpoint store under `prefix` (see the module docs).
fn run_compact(prefix: &std::path::Path, break_locks: bool) -> i32 {
    walk_stores(
        prefix,
        break_locks,
        |path| match CheckpointStore::compact_file(path) {
            Ok(r) => {
                println!(
                    "compacted {}: {} records / {} bytes -> {} records / {} bytes",
                    path.display(),
                    r.records_before,
                    r.bytes_before,
                    r.records_after,
                    r.bytes_after
                );
                println!("  before: {}", stats_columns(&r.before));
                println!("  after:  {}", stats_columns(&r.after));
                Ok(())
            }
            Err(e @ StoreError::Locked { .. }) => {
                eprintln!("error: {e}\n       (if the writer is dead, re-run with --break-locks)");
                Err(1)
            }
            Err(e) => {
                eprintln!("error: compacting {}: {e}", path.display());
                Err(1)
            }
        },
    )
}

/// Prints the per-file statistics report for every store under `prefix`
/// without modifying anything (the read path still verifies every
/// record, so a corrupt store is a loud error here too).
fn run_store_stats(prefix: &std::path::Path, break_locks: bool) -> i32 {
    walk_stores(prefix, break_locks, |path| {
        let tag = match oqsc_machine::peek_header(path) {
            Ok(header) => header.tag,
            Err(e) => {
                eprintln!("error: reading {}: {e}", path.display());
                return Err(1);
            }
        };
        match CheckpointStore::open(path, &tag) {
            Ok(store) => {
                println!("{}: {}", path.display(), stats_columns(&store.stats()));
                Ok(())
            }
            Err(e @ StoreError::Locked { .. }) => {
                eprintln!("error: {e}\n       (if the writer is dead, re-run with --break-locks)");
                Err(1)
            }
            Err(e) => {
                eprintln!("error: opening {}: {e}", path.display());
                Err(1)
            }
        }
    })
}

/// Runs the session-multiplexing server on `addr` (Unix socket path or
/// `host:port`) until a client sends `SHUTDOWN`, then prints the
/// engine's final statistics line.
fn run_serve(addr: &str, cli: &Cli) -> i32 {
    let mut config = ServerConfig::default();
    if let Some(w) = cli.workers {
        config.threads = w;
    }
    if let Some(bytes) = cli.live_budget {
        config.mux.live_bytes_budget = bytes;
    }
    config.spill_store = cli.spill_store.clone();
    let threads = config.threads;
    let server = match Server::bind(addr, config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("error: binding {addr}: {e}");
            return 1;
        }
    };
    eprintln!(
        "serving on {addr} ({threads} connection handler{}); stop with --shutdown",
        if threads == 1 { "" } else { "s" },
    );
    match server.run() {
        Ok(stats) => {
            println!("{}", stats_line(&stats));
            0
        }
        Err(e) => {
            eprintln!("error: serving {addr}: {e}");
            1
        }
    }
}

/// Runs the consistent-hash router on `addr`, fronting the `engines`
/// fleet, until a client sends `SHUTDOWN` (which it broadcasts).
fn run_route(addr: &str, engines: Vec<String>, cli: &Cli) -> i32 {
    let mut config = RouterConfig::default();
    if let Some(w) = cli.workers {
        config.threads = w;
    }
    let fleet = engines.join(", ");
    let router = match Router::bind(addr, engines, config) {
        Ok(router) => router,
        Err(e) => {
            eprintln!("error: binding router on {addr}: {e}");
            return 1;
        }
    };
    eprintln!("routing on {addr} -> [{fleet}]; stop with --shutdown");
    match router.run() {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("error: routing on {addr}: {e}");
            1
        }
    }
}

/// Drives the demo fleet through a running `--serve` server (or a
/// `--route` front) and prints its `OUTCOME` lines — nothing else goes
/// to stdout, so the output `cmp`s cleanly against `--drive-direct`.
fn run_drive(addr: &str, feeds: bool, phase: Option<DrivePhase>) -> i32 {
    let mode = if feeds {
        FeedMode::Batched
    } else {
        FeedMode::Chunks
    };
    match drive_fleet(addr, DRIVE_SEED, mode, phase.unwrap_or(DrivePhase::Full)) {
        Ok(lines) => {
            for line in lines {
                println!("{line}");
            }
            0
        }
        Err(e) => {
            eprintln!("error: driving {addr}: {e}");
            1
        }
    }
}

/// Prints the demo fleet's `OUTCOME` lines from uninterrupted
/// in-process runs — the reference output for `--drive`.
fn run_drive_direct() -> i32 {
    for line in direct_outcome_lines(DRIVE_SEED) {
        println!("{line}");
    }
    0
}

/// Asks a running `--serve` server or `--route` router to shut down.
fn run_shutdown(addr: &str) -> i32 {
    match shutdown_socket(addr) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("error: shutting down {addr}: {e}");
            1
        }
    }
}

fn main() {
    let cli = parse_cli();
    if let Some(addr) = &cli.serve {
        std::process::exit(run_serve(addr, &cli));
    }
    if let Some(addr) = &cli.route {
        let engines = cli.engines.clone().expect("validated with --route");
        std::process::exit(run_route(addr, engines, &cli));
    }
    if let Some(addr) = &cli.drive {
        std::process::exit(run_drive(addr, cli.feeds, cli.drive_phase));
    }
    if cli.drive_direct {
        std::process::exit(run_drive_direct());
    }
    if let Some(addr) = &cli.shutdown {
        std::process::exit(run_shutdown(addr));
    }
    if let Some(path) = &cli.bench_json {
        std::process::exit(run_bench_record(path, cli.bench_reduced));
    }
    if let Some(prefix) = &cli.compact {
        std::process::exit(run_compact(prefix, cli.break_locks));
    }
    if let Some(prefix) = &cli.store_stats {
        std::process::exit(run_store_stats(prefix, cli.break_locks));
    }
    if cli.sweep.is_some() {
        std::process::exit(run_sweep(&cli));
    }
    let schedule_desc = match cli.schedule {
        SessionSchedule::Uninterrupted => "uninterrupted sessions".to_string(),
        SessionSchedule::MigrateEvery(n) => {
            format!("suspend/migrate/resume every {n} tokens")
        }
    };
    println!(
        "== Reproduction experiments: Le Gall, SPAA 2006 ({} batch worker{}, {schedule_desc}) ==\n",
        cli.runner.workers(),
        if cli.runner.workers() == 1 { "" } else { "s" }
    );
    oqsc_bench::print_e1();
    oqsc_bench::print_e2();
    oqsc_bench::print_e3();
    oqsc_bench::print_e4();
    oqsc_bench::print_e5();
    oqsc_bench::print_e6(&cli.runner, cli.schedule);
    oqsc_bench::print_f1(&cli.runner, cli.schedule);
    oqsc_bench::print_f2();
    oqsc_bench::print_f3(&cli.runner, cli.schedule);
    oqsc_bench::print_f4(&cli.runner, cli.schedule);
    oqsc_bench::print_ablations();
}
