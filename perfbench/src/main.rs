//! The repository benchmark: serving Le Gall's online deciders as
//! streaming sessions, open loop, under two traffic mixes (`churn`,
//! `deep`), measured from outside the code under test.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload churn|deep --seed N --seconds S --trace 0|1 [--scale full|small]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the traced
//! decomposition instead and prints the per-layer metrics plus one
//! self-time table. Both workloads print the same metric names. The last
//! stdout line is always one JSON object `{"correct", "attempted",
//! "failed", "metrics"}`. `--scale small` shrinks every workload for the
//! self-test (`cargo test` in this package). See `README.md` beside this
//! package for the metric definitions.
//!
//! The same executable is also the server process the workloads spawn:
//! `serve-child ADDR LIVE_BUDGET`.

mod serve;
mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

/// The workloads and why each exists. Every run checks the metrics it
/// emitted against [`serve::END_TO_END_METRICS`] or
/// [`serve::LAYER_METRICS`], which `BENCHMARK.json` lists.
pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "churn",
        why: "classical fleet far larger than the live tier, so every FEED \
              pays transport, parsing and a mux suspend/LZ4/resume round trip",
    },
    Workload {
        name: "deep",
        why: "quantum deciders on all four backends, resident for a whole word, \
              so deciders and kernels dominate and the tier path is idle",
    },
];

/// One workload's identity.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

/// Run parameters shared by every workload.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub small: bool,
    /// Sockets and span dumps go here (inside the checkout).
    pub scratch: PathBuf,
}

/// What one run measured: operation counts plus named metrics.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// Records a metric. A non-finite value is a measurement failure.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        if value.is_finite() {
            self.metrics.push((name, value, unit));
        } else {
            eprintln!("metric {name} is not finite ({value})");
            self.failed += 1;
            self.metrics.push((name, 0.0, unit));
        }
    }

    /// Counts `n` failed operations, with the first reason on stderr.
    pub fn fail(&mut self, n: u64, why: &str) {
        if n > 0 {
            eprintln!("FAILED x{n}: {why}");
            self.failed += n;
        }
    }

    fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// Median of unsorted samples (0 for none).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile_sorted(&v, 0.5)
}

/// Nearest-rank quantile of sorted samples (0 for none).
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Arithmetic mean (0 for none).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The host and build the numbers were taken on, printed before the result.
fn print_host(ctx: &Ctx, workload: &Workload, trace: bool) {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "host: nproc={nproc} rustc=\"{}\" rev={} simd={}",
        command_line("rustc", &["--version"]),
        command_line("git", &["rev-parse", "--short", "HEAD"]),
        oqsc_quantum::simd::detected().name()
    );
    println!(
        "run: workload={} seed={} seconds={} trace={} scale={}",
        workload.name,
        ctx.seed,
        ctx.seconds,
        u8::from(trace),
        if ctx.small { "small" } else { "full" }
    );
    println!("why: {}", workload.why);
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload churn|deep --seed N --seconds S --trace 0|1 \
         [--scale full|small]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("serve-child") {
        return serve::child_main(&args[1..]);
    }
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut small = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage();
        };
        match flag.as_str() {
            "--workload" => workload = WORKLOADS.iter().find(|w| w.name == value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            "--scale" => match value.as_str() {
                "full" => small = false,
                "small" => small = true,
                _ => return usage(),
            },
            _ => return usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage();
    };
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into());
    let mut scratch = PathBuf::from(target).join("perfbench-scratch");
    // Relative to the working directory where possible: Unix socket
    // paths are limited to about 100 bytes.
    if let Some(rel) = std::env::current_dir()
        .ok()
        .and_then(|cwd| scratch.strip_prefix(cwd).ok().map(PathBuf::from))
    {
        scratch = rel;
    }
    let ctx = Ctx {
        seed,
        seconds,
        small,
        scratch,
    };
    if let Err(e) = std::fs::create_dir_all(&ctx.scratch) {
        eprintln!("cannot create {}: {e}", ctx.scratch.display());
        return ExitCode::FAILURE;
    }
    print_host(&ctx, workload, trace);
    let mut report = match (workload.name, trace) {
        ("churn", false) => serve::churn(&ctx),
        ("churn", true) => serve::churn_traced(&ctx),
        ("deep", false) => serve::deep(&ctx),
        ("deep", true) => serve::deep_traced(&ctx),
        _ => unreachable!("workload names come from WORKLOADS"),
    };
    let contract = if trace {
        serve::LAYER_METRICS
    } else {
        serve::END_TO_END_METRICS
    };
    let emitted: Vec<&str> = report.metrics.iter().map(|m| m.0.as_str()).collect();
    if emitted != contract {
        report.fail(
            1,
            &format!("emitted metrics {emitted:?}, contract {contract:?}"),
        );
    }
    println!("{}", report.json());
    ExitCode::SUCCESS
}
