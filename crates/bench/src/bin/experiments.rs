//! Regenerates every experiment table of `EXPERIMENTS.md`, and drives
//! single sweeps in-process, across OS worker processes, through the
//! persistent checkpoint store and over the distributed fabric, plus the
//! session-multiplexing server, its router and its driver.
//!
//! ```text
//! experiments tables [--workers N] [--checkpoint-every N]
//! experiments sweep NAME [--k-max K] [--trials T] [--workers N] [--checkpoint-every N]
//!                   [--processes P] [--store PREFIX [--resume] [--crash-after-tokens T]]
//! experiments shard NAME --shard W --of P [--k-max K] [--trials T] [--workers N]
//!                   [--store PREFIX [--checkpoint-every N] [--resume] [--crash-after-tokens T]]
//! experiments fabric coordinate ADDR NAME [--k-max K] [--trials T]
//!                   [--store PATH [--resume]] [--lease-size N] [--lease-ttl-ms T]
//! experiments fabric work ADDR NAME [--k-max K] [--trials T] [--workers N]
//!                   [--worker-id N] [--throttle-ms T]
//! experiments store compact|stats PREFIX [--break-locks]
//! experiments bench PATH [--reduced]
//! experiments serve ADDR [--workers N] [--live-budget BYTES] [--spill-store PATH]
//! experiments route ADDR --engines A1,A2,... [--workers N]
//! experiments drive ADDR [--feeds] [--phase 1|2]
//! experiments drive-direct
//! experiments shutdown ADDR
//! ```
//!
//! Each subcommand parses only its own flags: any other argument is a
//! usage error (exit 2) that names the subcommand on stderr, so no flag
//! is ever silently ignored. `experiments COMMAND --help` prints that
//! command's flags. stdout carries only tables, `OUTCOME` lines and
//! reports; every error and every usage text printed after an error
//! goes to stderr. Exit codes: 0 ok, 1 runtime error, 2 usage error, 9
//! the `--crash-after-tokens` budget ran out ([`WORKER_CRASH_EXIT`]).
//!
//! `--workers N` sizes the batch scheduler's worker fleet for the
//! decider sweeps (E6, F1, F3, F4; default: the machine's available
//! parallelism). `--checkpoint-every N` without a store switches those
//! sweeps to the migrating session schedule (suspend to bytes and resume
//! every `N` tokens); with `--store` it is the persistence cadence
//! instead. Shard processes use it only to persist, so `sweep
//! --processes` and `shard` accept it only together with `--store`.
//! Every table is a pure function of its seeds, so the numbers are
//! identical at any worker count, any process count, and any checkpoint
//! cadence — only the wall clock changes.
//!
//! `sweep NAME` (one of `e6`, `f1`, `f3`, `f4`) also takes:
//!
//! * `--trials T` — Monte-Carlo fleet size for the f3/f4 sweeps
//!   (rejected for e6/f1, whose fleets are sized by `--k-max` alone).
//! * `--processes P` — shard the sweep over `P` OS processes (this same
//!   binary re-executed as `shard NAME --shard w --of P`); the merged
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
//! `store compact PREFIX` rewrites every store file under the prefix
//! down to one record per instance (its outcome if finished, its latest
//! checkpoint otherwise) via an atomic rename — resume-heavy stores
//! shrink, subsequent `--resume` runs are bit-identical. `store stats
//! PREFIX` prints one line per store file: format version, record counts
//! (full vs dedupe-ref and the dedupe hit rate), stored vs uncompressed
//! payload bytes and the compression ratio — the same columns `compact`
//! reports before/after. Both take either a sweep's `--store` prefix or
//! the path of one store file, such as a fabric coordinator's ledger;
//! `--break-locks` first clears `.lock` files orphaned by killed writers
//! (only sound once those writers are known dead). Every store is
//! written in format v3, the only one this build reads; a file claiming
//! any other version is refused with a typed error.
//!
//! `serve ADDR` runs the `oqsc-serve` session-multiplexing engine behind
//! its line protocol — `ADDR` is a Unix socket path, or `host:port` for
//! TCP (`--workers N` caps the connections served at once; later clients
//! wait until one hangs up) — until a client sends `SHUTDOWN`. Its live
//! tier evicts the least recently fed session first, and `--spill-store
//! PATH` attaches a durable spill tier (mid-stream sessions are flushed
//! there on shutdown and rehydrated by the next `serve` on the same
//! path). `drive ADDR` opens the deterministic 32-session demo fleet
//! over that address — every decider kind, member and non-member words —
//! and prints one `OUTCOME` line per session; `--feeds` sends each word
//! as one pipelined batched `FEEDS` line instead of chunked `FEED`s, and
//! `--phase 1|2` splits the drive across two invocations (phase 1 feeds
//! the first half of every word and stops without finishing; phase 2
//! reopens nothing, feeds the rest and prints the outcomes — the
//! restart-from-spill smoke). `drive-direct` prints the same lines from
//! uninterrupted in-process runs, so `cmp` between the two outputs is
//! the end-to-end byte-identity check CI runs. `shutdown ADDR` stops a
//! running server or router. `route ADDR --engines A1,A2,...` runs the
//! consistent-hash router: it speaks the same line protocol on `ADDR`
//! and forwards each session's verbs to the engine its id hashes to, so
//! `drive` against the router is byte-identical to a single direct
//! engine (`--workers N` caps its connections the same way). Server,
//! router and fabric coordinator share one line service: a thread per
//! connection, request lines capped at 64 KiB, and a fixed 50 ms read
//! poll, so an idle connection notices `SHUTDOWN` promptly.
//!
//! Out-of-range values are rejected up front with a clear message,
//! never silently clamped or panicked on.

use oqsc_bench::fabric::{fabric_work, Coordinator, FabricConfig, WorkerConfig};
use oqsc_bench::pool::{
    find_store_files, rows_from_outcomes, worker_outcomes, PoolError, PoolRunOpts, ShardId,
    SweepSpec,
};
use oqsc_bench::{
    emit_outcomes, ProcessPool, F3_DEFAULT_K_MAX, F3_DEFAULT_TRIALS, F4_DEFAULT_K,
    F4_DEFAULT_TRIALS, WORKER_CRASH_EXIT,
};
use oqsc_machine::{BatchRunner, CheckpointStore, SessionSchedule, StoreError};
use oqsc_serve::{
    direct_outcome_lines, drive_fleet, shutdown_socket, stats_line, DrivePhase, FeedMode, Router,
    RouterConfig, Server, ServerConfig,
};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Upper bound on `--workers`: far above any real machine, low enough to
/// catch a mistyped value before it spawns a few million threads.
const MAX_WORKERS: usize = 4096;

/// Upper bound on `--processes` and `--of` (same rationale, for OS
/// processes).
const MAX_PROCESSES: usize = 256;

/// Upper bound on `--k-max`: `k = 8` already streams 5·10⁷ symbols.
const MAX_K: u32 = 8;

/// Upper bound on `--trials` (a million Monte-Carlo instances per fleet
/// is already far past any table in the paper).
const MAX_TRIALS: usize = 1_000_000;

/// Default persistence cadence when `--store` is given without an
/// explicit `--checkpoint-every`.
const DEFAULT_PERSIST_EVERY: usize = 4096;

/// Base seed for the `drive` / `drive-direct` demo fleet. Fixed so the
/// two outputs are comparable across separate process invocations (the
/// CI smoke `cmp`s them).
const DRIVE_SEED: u64 = 0x0D21F7;

/// Upper bound on `--lease-size` (a lease far wider than any fleet just
/// degrades to one worker doing everything).
const MAX_LEASE_SIZE: usize = 1 << 20;

/// What runs one command, given its arguments.
type Run = fn(Args) -> Outcome;

/// Every command and what runs it, in the order the top-level usage
/// lists them.
const COMMANDS: [(&str, Run); 11] = [
    ("tables", tables),
    ("sweep", sweep),
    ("shard", shard),
    ("fabric", fabric),
    ("store", store),
    ("bench", bench),
    ("serve", serve),
    ("route", route),
    ("drive", drive),
    ("drive-direct", drive_direct),
    ("shutdown", shutdown),
];

/// The usage text of `command`: its synopsis, a blank line, then what it
/// does and one entry per flag. The top-level usage lists every synopsis.
fn help(command: &str) -> String {
    let spec = format!(
        "  NAME                   the sweep: e6, f1, f3 or f4
  --k-max K              sweep size, 1..={MAX_K} (default: e6 7, f1 8, \
f3 {F3_DEFAULT_K_MAX}, f4 {F4_DEFAULT_K})
  --trials T             f3/f4 Monte-Carlo fleet size, 1..={MAX_TRIALS}
                         (default: f3 {F3_DEFAULT_TRIALS}, f4 {F4_DEFAULT_TRIALS}; \
rejected for e6/f1)"
    );
    let fabric = FabricConfig::default();
    match command {
        "tables" => format!(
            "experiments tables [--workers N] [--checkpoint-every N]

Prints every experiment table (E1-E6, F1-F4 and the ablations).
  --workers N            batch workers, 1..={MAX_WORKERS} (default: available cores)
  --checkpoint-every N   suspend and resume every instance every N tokens, N >= 1"
        ),
        "sweep" => format!(
            "experiments sweep NAME [--k-max K] [--trials T] [--workers N] [--checkpoint-every N]
                  [--processes P] [--store PREFIX [--resume] [--crash-after-tokens T]]

Runs one sweep and prints its table.
{spec}
  --workers N            batch workers, 1..={MAX_WORKERS} (default: available cores;
                         with --processes: threads per process, default 1)
  --checkpoint-every N   suspend and resume every instance every N tokens, N >= 1;
                         with --store: the persistence cadence (default {DEFAULT_PERSIST_EVERY})
  --processes P          shard the sweep over P shard processes, 1..={MAX_PROCESSES};
                         takes --checkpoint-every only with --store
  --store PREFIX         persist checkpoints + finished outcomes to
                         PREFIX.<fleet>.shard<w>of<P>.cps
  --resume               recover existing stores, skip finished instances, continue
  --crash-after-tokens T testing hook: die after T tokens per fleet (exit 9)"
        ),
        "shard" => format!(
            "experiments shard NAME --shard W --of P [--k-max K] [--trials T] [--workers N]
                  [--store PREFIX [--checkpoint-every N] [--resume] [--crash-after-tokens T]]

Runs shard W of P of a sweep and prints one OUTCOME line per instance: the
worker process `sweep --processes` spawns.
{spec}
  --shard W              this shard's index, below --of
  --of P                 the shard count, 1..={MAX_PROCESSES}
  --workers N            batch workers, 1..={MAX_WORKERS} (default 1)
  --store PREFIX         persist to PREFIX.<fleet>.shard<W>of<P>.cps
  --checkpoint-every N   with --store: the persistence cadence (default {DEFAULT_PERSIST_EVERY})
  --resume               recover the shard's stores and continue
  --crash-after-tokens T testing hook: die after T tokens per fleet (exit 9)"
        ),
        "fabric" => format!(
            "experiments fabric coordinate ADDR NAME [--k-max K] [--trials T]
                  [--store PATH [--resume]] [--lease-size N] [--lease-ttl-ms T]
experiments fabric work ADDR NAME [--k-max K] [--trials T] [--workers N]
                  [--worker-id N] [--throttle-ms T]

`coordinate` leases the sweep's instances out on ADDR (a Unix socket path
or host:port) until the sweep completes, then prints its table; `work` runs
leased instances for the coordinator at ADDR. Both name the same sweep: it
is the work contract.
{spec}
  --store PATH           coordinate: keep the outcome ledger durable at PATH
  --resume               coordinate: recover the ledger at --store
  --lease-size N         coordinate: instances per lease, 1..={MAX_LEASE_SIZE} (default {})
  --lease-ttl-ms T       coordinate: lease TTL without renewal, T >= 1 (default {})
  --workers N            work: threads per leased range, 1..={MAX_WORKERS} (default 1)
  --worker-id N          work: lease and heartbeat identity (default: process id)
  --throttle-ms T        work: run one instance at a time with a T ms pause
                         (straggler mode: exercises re-lease and work stealing)",
            fabric.lease_size,
            fabric.lease_ttl.as_millis()
        ),
        "store" => "experiments store compact PREFIX [--break-locks]
experiments store stats PREFIX [--break-locks]

PREFIX is a sweep's --store prefix, or the path of one store file such as a
fabric ledger. `compact` rewrites each store to one record per instance
(atomic rename; resumes stay bit-identical); `stats` prints records, dedupe
and compression per store file.
  --break-locks          clear orphaned .lock files first"
            .to_string(),
        "bench" => "experiments bench PATH [--reduced]

Runs the benchmark record and writes its JSON to PATH: the SIMD kernels
(scalar vs auto dispatch) and end-to-end cells, plus the store, mux and
router cells.
  --reduced              shrink sizes for a CI smoke run"
            .to_string(),
        "serve" => format!(
            "experiments serve ADDR [--workers N] [--live-budget BYTES] [--spill-store PATH]

Runs the session-multiplexing server on ADDR (a Unix socket path or
host:port) until a client sends SHUTDOWN, then prints its statistics.
  --workers N            connections served at once, 1..={MAX_WORKERS} (default {})
  --live-budget BYTES    hot-tier byte budget for live sessions
                         (default {} MiB; 0 = suspend after every feed)
  --spill-store PATH     durable spill tier: mid-stream sessions are flushed
                         there on SHUTDOWN and rehydrated by the next serve on
                         the same path",
            ServerConfig::default().threads,
            ServerConfig::default().mux.live_bytes_budget >> 20
        ),
        "route" => format!(
            "experiments route ADDR --engines A1,A2,... [--workers N]

Runs the consistent-hash router on ADDR, fronting the engine fleet behind
the same line protocol.
  --engines A1,A2,...    the engine addresses (required)
  --workers N            connections served at once, 1..={MAX_WORKERS} (default {})",
            RouterConfig::default().threads
        ),
        "drive" => "experiments drive ADDR [--feeds] [--phase 1|2]

Runs the demo fleet through the server or router on ADDR and prints one
OUTCOME line per session.
  --feeds                send each word as one pipelined batched FEEDS line
                         instead of chunked FEEDs
  --phase 1|2            split the drive across two invocations (1 = feed the
                         first halves, no finish; 2 = feed the rest without
                         reopening, print outcomes)"
            .to_string(),
        "drive-direct" => "experiments drive-direct

Prints the demo fleet's OUTCOME lines from uninterrupted in-process runs
(cmp against drive)."
            .to_string(),
        "shutdown" => "experiments shutdown ADDR

Stops a running server or router."
            .to_string(),
        other => unreachable!("no usage text for {other}"),
    }
}

/// The top-level usage: every command's synopsis.
fn usage() -> String {
    let mut text = String::from("usage:\n");
    for (command, _) in COMMANDS {
        for line in help(command).lines().take_while(|l| !l.is_empty()) {
            text += &format!("  {line}\n");
        }
    }
    text + "  experiments help\n\nRun `experiments COMMAND --help` for a command's flags."
}

/// A usage error between flags of one command: the message alone, exit 2.
fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

fn bad_value(flag: &str, value: Option<String>, expected: &str) -> ! {
    match value {
        Some(v) => fail(&format!("{flag} {v}: expected {expected}")),
        None => fail(&format!("{flag} requires a value ({expected})")),
    }
}

/// What a command's run ends in: `Err` is a runtime error, printed as
/// `error: …` with exit 1.
type Outcome = Result<(), Box<dyn std::error::Error>>;

/// One command's arguments, after the command words.
struct Args {
    /// The command as typed, such as `fabric work`; its first word names
    /// its usage text.
    command: &'static str,
    rest: std::vec::IntoIter<String>,
}

impl Args {
    /// The next argument. `--help` anywhere prints the command's usage to
    /// stdout and exits 0.
    fn next(&mut self) -> Option<String> {
        let arg = self.rest.next()?;
        if arg == "--help" || arg == "-h" {
            println!("{}", self.help());
            std::process::exit(0);
        }
        Some(arg)
    }

    fn help(&self) -> String {
        help(self.command.split(' ').next().expect("a command word"))
    }

    /// A usage error in this command: the message, then its usage, on
    /// stderr; exit 2.
    fn usage_error(&self, msg: &str) -> ! {
        eprintln!("error: {msg}\n\n{}", self.help());
        std::process::exit(2);
    }

    /// The next positional argument, described by `what` if missing.
    fn positional(&mut self, what: &str) -> String {
        match self.next() {
            Some(arg) if !arg.is_empty() && !arg.starts_with('-') => arg,
            _ => self.usage_error(&format!("experiments {} needs {what}", self.command)),
        }
    }

    /// Hands every remaining argument to `take`, which parses the flags
    /// this command owns and returns `false` for anything else.
    fn flags(&mut self, mut take: impl FnMut(&str, &mut Args) -> bool) {
        while let Some(flag) = self.next() {
            if !take(&flag, self) {
                let msg = format!("experiments {} does not take {flag}", self.command);
                self.usage_error(&msg);
            }
        }
    }

    /// The non-empty value of `flag`.
    fn value(&mut self, flag: &str, expected: &str) -> String {
        match self.rest.next() {
            Some(v) if !v.is_empty() => v,
            raw => bad_value(flag, raw, expected),
        }
    }

    fn num<T: std::str::FromStr>(
        &mut self,
        flag: &str,
        expected: &str,
        ok: impl Fn(&T) -> bool,
    ) -> T {
        let raw = self.rest.next();
        match raw.as_deref().map(str::parse::<T>) {
            Some(Ok(n)) if ok(&n) => n,
            _ => bad_value(flag, raw, expected),
        }
    }

    /// The value of `flag`, an integer in `1..=max`.
    fn bounded<T>(&mut self, flag: &str, max: T) -> T
    where
        T: std::str::FromStr + std::fmt::Display + PartialOrd + From<u8> + Copy,
    {
        let expected = format!("an integer between 1 and {max}");
        self.num(flag, &expected, |n| (T::from(1)..=max).contains(n))
    }

    fn checkpoint_every(&mut self) -> usize {
        self.num(
            "--checkpoint-every",
            "a positive token count",
            |n: &usize| *n >= 1,
        )
    }
}

/// The sweep contract `sweep`, `shard` and both fabric roles share: the
/// sweep name plus `--k-max` and `--trials`, with every default and the
/// check between them in one place. (The fabric coordinator checks the
/// spec again on every `LEASE`.)
struct SpecArgs {
    name: String,
    k_max: Option<u32>,
    trials: Option<usize>,
}

impl SpecArgs {
    fn parse(args: &mut Args) -> Self {
        let name = args.positional("a sweep NAME (e6, f1, f3 or f4)");
        if !["e6", "f1", "f3", "f4"].contains(&name.as_str()) {
            bad_value("sweep", Some(name), "one of: e6, f1, f3, f4");
        }
        SpecArgs {
            name,
            k_max: None,
            trials: None,
        }
    }

    /// Takes `flag` if it is `--k-max` or `--trials`.
    fn take(&mut self, flag: &str, args: &mut Args) -> bool {
        match flag {
            "--k-max" => self.k_max = Some(args.bounded(flag, MAX_K)),
            "--trials" => self.trials = Some(args.bounded(flag, MAX_TRIALS)),
            _ => return false,
        }
        true
    }

    fn spec(&self) -> SweepSpec {
        let (default_k, default_trials) = match self.name.as_str() {
            "e6" => (7, None),
            "f1" => (8, None),
            "f3" => (F3_DEFAULT_K_MAX, Some(F3_DEFAULT_TRIALS)),
            _ => (F4_DEFAULT_K, Some(F4_DEFAULT_TRIALS)),
        };
        if self.trials.is_some() && default_trials.is_none() {
            fail("--trials only applies to f3 and f4 (e6/f1 fleets are sized by --k-max)");
        }
        let trials = self.trials.or(default_trials).unwrap_or(0);
        SweepSpec::from_cli(&self.name, self.k_max.unwrap_or(default_k), trials)
            .expect("validated name")
    }
}

/// The flags `sweep` and `shard` share: the spec plus how to run it.
struct RunArgs {
    spec: SpecArgs,
    workers: Option<usize>,
    checkpoint_every: Option<usize>,
    store: Option<PathBuf>,
    resume: bool,
    crash_after_tokens: Option<u64>,
}

impl RunArgs {
    /// Parses the shared flags, handing every other one to `extra`.
    fn parse(args: &mut Args, mut extra: impl FnMut(&str, &mut Args) -> bool) -> Self {
        let mut run = RunArgs {
            spec: SpecArgs::parse(args),
            workers: None,
            checkpoint_every: None,
            store: None,
            resume: false,
            crash_after_tokens: None,
        };
        args.flags(|flag, args| {
            match flag {
                "--workers" => run.workers = Some(args.bounded(flag, MAX_WORKERS)),
                "--checkpoint-every" => run.checkpoint_every = Some(args.checkpoint_every()),
                "--store" => run.store = Some(args.value(flag, "a path prefix").into()),
                "--resume" => run.resume = true,
                "--crash-after-tokens" => {
                    run.crash_after_tokens = Some(args.num(flag, "a token count", |_: &u64| true));
                }
                _ => return run.spec.take(flag, args) || extra(flag, args),
            }
            true
        });
        if run.store.is_none() {
            if run.resume {
                fail("--resume requires --store");
            }
            if run.crash_after_tokens.is_some() {
                fail("--crash-after-tokens requires --store");
            }
        }
        run
    }

    fn pool_opts(&self, default_workers: usize) -> PoolRunOpts {
        PoolRunOpts {
            store_prefix: self.store.clone(),
            resume: self.resume,
            checkpoint_every: self.checkpoint_every.unwrap_or(DEFAULT_PERSIST_EVERY),
            crash_after_tokens: self.crash_after_tokens,
            workers: self.workers.unwrap_or(default_workers),
        }
    }
}

/// Ends a run whose `--crash-after-tokens` budget ran out, exit 9.
fn crashed(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(WORKER_CRASH_EXIT);
}

/// `tables`: every experiment table, in order.
fn tables(mut args: Args) -> Outcome {
    let mut runner = BatchRunner::available();
    let mut schedule = SessionSchedule::Uninterrupted;
    args.flags(|flag, args| {
        match flag {
            "--workers" => runner = BatchRunner::new(args.bounded(flag, MAX_WORKERS)),
            "--checkpoint-every" => {
                schedule = SessionSchedule::MigrateEvery(args.checkpoint_every());
            }
            _ => return false,
        }
        true
    });
    let schedule_desc = match schedule {
        SessionSchedule::Uninterrupted => "uninterrupted sessions".to_string(),
        SessionSchedule::MigrateEvery(n) => {
            format!("suspend/migrate/resume every {n} tokens")
        }
    };
    println!(
        "== Reproduction experiments: Le Gall, SPAA 2006 ({} batch worker{}, {schedule_desc}) ==\n",
        runner.workers(),
        if runner.workers() == 1 { "" } else { "s" }
    );
    oqsc_bench::print_e1();
    oqsc_bench::print_e2();
    oqsc_bench::print_e3();
    oqsc_bench::print_e4();
    oqsc_bench::print_e5();
    oqsc_bench::print_e6(&runner, schedule);
    oqsc_bench::print_f1(&runner, schedule);
    oqsc_bench::print_f2();
    oqsc_bench::print_f3(&runner, schedule);
    oqsc_bench::print_f4(&runner, schedule);
    oqsc_bench::print_ablations();
    Ok(())
}

/// `sweep`: one sweep's table, in-process, over a process pool, or
/// through the store.
fn sweep(mut args: Args) -> Outcome {
    let mut processes = None;
    let run = RunArgs::parse(&mut args, |flag, args| {
        if flag != "--processes" {
            return false;
        }
        processes = Some(args.bounded(flag, MAX_PROCESSES));
        true
    });
    if processes.is_some() && run.checkpoint_every.is_some() && run.store.is_none() {
        fail(
            "--processes with --checkpoint-every requires --store \
             (pool workers use the cadence only to persist)",
        );
    }
    let spec = run.spec.spec();
    let rows = if let Some(processes) = processes {
        // Shard over worker processes running this binary.
        let exe =
            std::env::current_exe().map_err(|e| format!("cannot locate own executable: {e}"))?;
        match ProcessPool::new(processes).run(&exe, spec, &run.pool_opts(1)) {
            Err(e @ PoolError::WorkerCrashed { .. }) => crashed(&format!("error: {e}")),
            rows => rows?,
        }
    } else if run.store.is_some() {
        // Single-process persistent run: the shard path, in-process, as
        // the whole sweep, so --workers defaults to all available cores.
        let opts = run.pool_opts(BatchRunner::available().workers());
        let Some(outcomes) = worker_outcomes(spec, ShardId { shard: 0, of: 1 }, &opts)? else {
            crashed("crashed after --crash-after-tokens budget; resume with --resume to finish");
        };
        let triples = outcomes
            .into_iter()
            .map(|(fleet, idx, o)| (fleet.to_string(), idx, o));
        rows_from_outcomes(spec, triples)?
    } else {
        let runner = run
            .workers
            .map_or_else(BatchRunner::available, BatchRunner::new);
        let schedule = run.checkpoint_every.map_or(
            SessionSchedule::Uninterrupted,
            SessionSchedule::MigrateEvery,
        );
        spec.rows_in_process(&runner, schedule)
    };
    rows.print();
    Ok(())
}

/// `shard`: the process pool's worker. Runs its shard and speaks the
/// `OUTCOME` protocol on stdout.
fn shard(mut args: Args) -> Outcome {
    let (mut shard, mut of) = (None, None);
    let run = RunArgs::parse(&mut args, |flag, args| {
        match flag {
            "--shard" => shard = Some(args.num(flag, "a shard index", |_: &usize| true)),
            "--of" => of = Some(args.bounded(flag, MAX_PROCESSES)),
            _ => return false,
        }
        true
    });
    let (Some(shard), Some(of)) = (shard, of) else {
        fail("shard requires --shard and --of");
    };
    if shard >= of {
        fail(&format!(
            "--shard {shard} out of range: must be < --of {of}"
        ));
    }
    if run.checkpoint_every.is_some() && run.store.is_none() {
        fail("--checkpoint-every requires --store (shard workers use the cadence only to persist)");
    }
    match worker_outcomes(run.spec.spec(), ShardId { shard, of }, &run.pool_opts(1))? {
        Some(outcomes) => Ok(emit_outcomes(&mut std::io::stdout().lock(), &outcomes)?),
        None => std::process::exit(WORKER_CRASH_EXIT),
    }
}

/// `fabric`: hands over to its role.
fn fabric(mut args: Args) -> Outcome {
    match args.positional("a role (coordinate or work)").as_str() {
        "coordinate" => coordinate(Args {
            command: "fabric coordinate",
            ..args
        }),
        "work" => work(Args {
            command: "fabric work",
            ..args
        }),
        other => args.usage_error(&format!("unknown fabric role {other}")),
    }
}

/// `fabric coordinate`: serves leases until the sweep completes, then
/// prints the merged table (stdout carries only the table, so it `cmp`s
/// against the in-process sweep).
fn coordinate(mut args: Args) -> Outcome {
    let addr = args.positional("ADDR");
    let mut spec = SpecArgs::parse(&mut args);
    let mut config = FabricConfig::default();
    args.flags(|flag, args| {
        match flag {
            "--store" => config.store_path = Some(args.value(flag, "a ledger path").into()),
            "--resume" => config.resume = true,
            "--lease-size" => config.lease_size = args.bounded(flag, MAX_LEASE_SIZE),
            "--lease-ttl-ms" => {
                let ms = args.num(flag, "a positive millisecond count", |n: &u64| *n >= 1);
                config.lease_ttl = Duration::from_millis(ms);
            }
            _ => return spec.take(flag, args),
        }
        true
    });
    if config.resume && config.store_path.is_none() {
        fail("--resume requires --store");
    }
    let spec = spec.spec();
    let (lease_size, ttl) = (config.lease_size, config.lease_ttl);
    let coordinator = Coordinator::bind(&addr, spec, config)
        .map_err(|e| format!("starting fabric coordinator on {addr}: {e}"))?;
    eprintln!(
        "fabric coordinator on {} (sweep {}, {} instances per lease, ttl {} ms)",
        coordinator.local_addr(),
        spec.name(),
        lease_size,
        ttl.as_millis(),
    );
    coordinator.run()?.print();
    Ok(())
}

/// `fabric work`: leases ranges from the coordinator until it answers
/// `FINISHED`.
fn work(mut args: Args) -> Outcome {
    let addr = args.positional("ADDR");
    let mut spec = SpecArgs::parse(&mut args);
    let mut config = WorkerConfig::default();
    args.flags(|flag, args| {
        match flag {
            "--workers" => config.threads = args.bounded(flag, MAX_WORKERS),
            "--worker-id" => config.worker_id = args.num(flag, "a worker id", |_: &u64| true),
            "--throttle-ms" => {
                let ms = args.num(flag, "a millisecond count", |_: &u64| true);
                config.throttle = Some(Duration::from_millis(ms));
            }
            _ => return spec.take(flag, args),
        }
        true
    });
    let report = fabric_work(&addr, spec.spec(), &config)
        .map_err(|e| format!("fabric worker against {addr}: {e}"))?;
    eprintln!(
        "fabric worker {} done: {} leases, {} instances, {} expired",
        config.worker_id, report.leases, report.instances, report.expired
    );
    Ok(())
}

/// `bench`: runs the benchmark record (the SIMD kernels scalar vs auto
/// dispatch and the end-to-end cells, plus the store, mux and router
/// cells) and writes it to `PATH`.
fn bench(mut args: Args) -> Outcome {
    let path = PathBuf::from(args.positional("an output PATH"));
    let mut reduced = false;
    args.flags(|flag, _| {
        let known = flag == "--reduced";
        reduced |= known;
        known
    });
    let json = oqsc_bench::run_record(oqsc_bench::RecordOpts { reduced });
    std::fs::write(&path, &json).map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("wrote bench record to {}", path.display());
    print!("{json}");
    Ok(())
}

/// One compact `StoreStats` summary: the shared column set of the
/// `store stats` report and the `store compact` before/after lines.
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

/// The error a store operation on `path` ends in; a lock held by another
/// writer names the way out.
fn store_error(doing: &str, path: &Path, e: StoreError) -> String {
    match e {
        StoreError::Locked { .. } => {
            format!("{e}\n       (if the writer is dead, re-run with --break-locks)")
        }
        e => format!("{doing} {}: {e}", path.display()),
    }
}

/// `store compact` rewrites every checkpoint store under the prefix to
/// one record per instance; `store stats` prints the per-file statistics
/// report without modifying anything (the read path still verifies
/// every record, so a corrupt store is a loud error here too).
fn store(mut args: Args) -> Outcome {
    let compact = match args.positional("an action (compact or stats)").as_str() {
        "compact" => true,
        "stats" => false,
        other => args.usage_error(&format!("unknown store action {other}")),
    };
    args.command = if compact {
        "store compact"
    } else {
        "store stats"
    };
    let prefix = PathBuf::from(args.positional("a store PREFIX"));
    let mut break_locks = false;
    args.flags(|flag, _| {
        let known = flag == "--break-locks";
        break_locks |= known;
        known
    });
    let files =
        find_store_files(&prefix).map_err(|e| format!("scanning {}: {e}", prefix.display()))?;
    if files.is_empty() {
        let prefix = prefix.display();
        return Err(format!("no checkpoint stores (*.cps) match prefix {prefix}").into());
    }
    for path in files {
        let shown = path.display();
        if break_locks
            && CheckpointStore::break_lock(&path)
                .map_err(|e| format!("breaking lock of {shown}: {e}"))?
        {
            println!("broke orphaned lock: {shown}.lock");
        }
        if compact {
            let r = CheckpointStore::compact_file(&path)
                .map_err(|e| store_error("compacting", &path, e))?;
            println!(
                "compacted {shown}: {} records / {} bytes -> {} records / {} bytes",
                r.records_before, r.bytes_before, r.records_after, r.bytes_after
            );
            println!("  before: {}", stats_columns(&r.before));
            println!("  after:  {}", stats_columns(&r.after));
        } else {
            let header =
                oqsc_machine::peek_header(&path).map_err(|e| format!("reading {shown}: {e}"))?;
            let store = CheckpointStore::open(&path, &header.tag)
                .map_err(|e| store_error("opening", &path, e))?;
            println!("{shown}: {}", stats_columns(&store.stats()));
        }
    }
    Ok(())
}

/// `serve`: runs the session-multiplexing server until a client sends
/// `SHUTDOWN`, then prints the engine's final statistics line.
fn serve(mut args: Args) -> Outcome {
    let addr = args.positional("ADDR");
    let mut config = ServerConfig::default();
    args.flags(|flag, args| {
        match flag {
            "--workers" => config.threads = args.bounded(flag, MAX_WORKERS),
            "--live-budget" => {
                let expected = "a byte count (0 = evict on every feed)";
                config.mux.live_bytes_budget = args.num(flag, expected, |_: &usize| true);
            }
            "--spill-store" => {
                config.spill_store = Some(args.value(flag, "a checkpoint-store path").into());
            }
            _ => return false,
        }
        true
    });
    let threads = config.threads;
    let server = Server::bind(&addr, config).map_err(|e| format!("binding {addr}: {e}"))?;
    eprintln!(
        "serving on {addr} ({threads} connection handler{}); stop with `experiments shutdown`",
        if threads == 1 { "" } else { "s" },
    );
    let stats = server.run().map_err(|e| format!("serving {addr}: {e}"))?;
    println!("{}", stats_line(&stats));
    Ok(())
}

/// `route`: runs the consistent-hash router in front of `--engines`
/// until a client sends `SHUTDOWN` (which it broadcasts).
fn route(mut args: Args) -> Outcome {
    let addr = args.positional("ADDR");
    let mut config = RouterConfig::default();
    let mut engines = None;
    args.flags(|flag, args| {
        match flag {
            "--workers" => config.threads = args.bounded(flag, MAX_WORKERS),
            "--engines" => {
                let expected = "a comma-separated list of engine addresses";
                let list = args.value(flag, expected);
                if list.split(',').any(str::is_empty) {
                    bad_value(flag, Some(list), expected);
                }
                engines = Some(list.split(',').map(str::to_string).collect::<Vec<_>>());
            }
            _ => return false,
        }
        true
    });
    let Some(engines) = engines else {
        fail("route requires --engines (a router needs its fleet)");
    };
    let fleet = engines.join(", ");
    let router = Router::bind(&addr, engines, config)
        .map_err(|e| format!("binding router on {addr}: {e}"))?;
    eprintln!("routing on {addr} -> [{fleet}]; stop with `experiments shutdown`");
    router
        .run()
        .map_err(|e| format!("routing on {addr}: {e}"))?;
    Ok(())
}

/// `drive`: runs the demo fleet through a running server (or router)
/// and prints its `OUTCOME` lines — nothing else goes to stdout, so the
/// output `cmp`s cleanly against `drive-direct`.
fn drive(mut args: Args) -> Outcome {
    let addr = args.positional("ADDR");
    let mut mode = FeedMode::Chunks;
    let mut phase = DrivePhase::Full;
    args.flags(|flag, args| {
        match flag {
            "--feeds" => mode = FeedMode::Batched,
            "--phase" => {
                phase = match args.rest.next().as_deref() {
                    Some("1") => DrivePhase::FirstHalf,
                    Some("2") => DrivePhase::SecondHalf,
                    raw => bad_value(
                        flag,
                        raw.map(str::to_string),
                        "1 (feed first halves, no finish) or 2 (feed the rest, finish)",
                    ),
                };
            }
            _ => return false,
        }
        true
    });
    let lines =
        drive_fleet(&addr, DRIVE_SEED, mode, phase).map_err(|e| format!("driving {addr}: {e}"))?;
    for line in lines {
        println!("{line}");
    }
    Ok(())
}

/// `drive-direct`: the demo fleet's `OUTCOME` lines from uninterrupted
/// in-process runs — the reference output for `drive`.
fn drive_direct(mut args: Args) -> Outcome {
    args.flags(|_, _| false);
    for line in direct_outcome_lines(DRIVE_SEED) {
        println!("{line}");
    }
    Ok(())
}

/// `shutdown`: asks a running server or router to shut down.
fn shutdown(mut args: Args) -> Outcome {
    let addr = args.positional("ADDR");
    args.flags(|_, _| false);
    shutdown_socket(&addr).map_err(|e| format!("shutting down {addr}: {e}"))?;
    Ok(())
}

fn main() {
    let mut argv = std::env::args().skip(1);
    let outcome = match argv.next().as_deref() {
        Some("help" | "--help" | "-h") => {
            println!("{}", usage());
            return;
        }
        Some(name) => match COMMANDS.iter().find(|(command, _)| *command == name) {
            Some(&(command, run)) => run(Args {
                command,
                rest: argv.collect::<Vec<_>>().into_iter(),
            }),
            None => {
                eprintln!("error: unknown command {name}\n\n{}", usage());
                std::process::exit(2);
            }
        },
        None => {
            eprintln!("error: no command given\n\n{}", usage());
            std::process::exit(2);
        }
    };
    if let Err(e) = outcome {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
