//! The cross-process scheduler's contract, pinned against the real
//! `experiments` binary (spawned as OS processes, exactly as a user
//! would run it):
//!
//! * 1/2/4-process runs of **every registered sweep** (E6, F1, F3, F4)
//!   print tables **byte-identical** to the in-process `--workers N`
//!   runs;
//! * one ledger serves both fabric front ends: a `fabric coordinate
//!   --store` ledger whose coordinator and worker were SIGKILLed
//!   mid-sweep is finished by `sweep --processes 2 --store PREFIX
//!   --resume` with the identical table;
//! * workers that die or exit early never hang `sweep --processes`,
//!   and leave no child process or private socket directory behind;
//! * `store compact` shrinks a killed-and-resumed durable sweep's stores
//!   via atomic rename and a further `--resume` still prints the
//!   identical table;
//! * stale ledgers are refused without `--resume`, and orphaned lock
//!   files block a fresh run until broken.
//!
//! CI runs this suite under `--release`.

use oqsc_bench::{run_private_fabric, PoolError, SweepSpec};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

const WORKER_CRASH_EXIT: i32 = 9;

const BIN: &str = env!("CARGO_BIN_EXE_experiments");

fn experiments(args: &[&str]) -> Output {
    Command::new(BIN)
        .args(args)
        .output()
        .expect("spawn experiments binary")
}

fn stdout_of(args: &[&str]) -> String {
    let out = experiments(args);
    assert!(
        out.status.success(),
        "experiments {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf8 table")
}

fn temp_prefix(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("oqsc-pool-{}-{name}", std::process::id()));
    p
}

fn cleanup_prefix(prefix: &Path) {
    let dir = prefix.parent().expect("temp dir");
    let stem = prefix
        .file_name()
        .expect("prefix name")
        .to_string_lossy()
        .into_owned();
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            if entry.file_name().to_string_lossy().starts_with(&stem) {
                let _ = std::fs::remove_file(entry.path());
            }
        }
    }
}

/// The sweep registry, as CLI argument lists: every entry must satisfy
/// the cross-process identity contract. F3/F4 use small Monte-Carlo
/// fleets so the suite stays fast; identity is size-independent.
fn registry_args() -> Vec<Vec<&'static str>> {
    vec![
        vec!["sweep", "e6", "--k-max", "4"],
        vec!["sweep", "f1", "--k-max", "4"],
        vec!["sweep", "f3", "--k-max", "2", "--trials", "40"],
        vec!["sweep", "f4", "--k-max", "2", "--trials", "30"],
    ]
}

#[test]
fn process_pools_print_tables_byte_identical_to_in_process_runs() {
    for base in registry_args() {
        let sweep = base[1];
        let reference = stdout_of(&[&base[..], &["--workers", "2"]].concat());
        assert!(
            reference.contains('|') || reference.contains("correct") || reference.contains("k"),
            "{sweep}: table shape"
        );
        for processes in ["1", "2", "4"] {
            let pooled = stdout_of(&[&base[..], &["--processes", processes]].concat());
            assert_eq!(
                pooled, reference,
                "{sweep}: {processes}-process table differs from in-process"
            );
        }
        // Threads inside worker processes compose with process sharding
        // without touching the table.
        let threaded = stdout_of(&[&base[..], &["--processes", "2", "--workers", "2"]].concat());
        assert_eq!(threaded, reference, "{sweep}: threaded workers differ");
    }
}

/// Spawns `experiments ARGS` with both output streams to null.
fn spawn_quiet(args: &[&str]) -> Child {
    Command::new(BIN)
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn experiments binary")
}

/// Polls `ready` every 20 ms for up to 60 s.
fn wait_until(mut ready: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + Duration::from_secs(60);
    while Instant::now() < deadline {
        if ready() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    false
}

/// One ledger for both front ends. A `fabric coordinate` keeps its
/// ledger at `PREFIX.ledger.cps` while one throttled `fabric work` runs
/// the sweep `base` (a `sweep NAME …` argument list); both are SIGKILLed
/// once the ledger holds a record. `sweep --processes 2 --store PREFIX
/// --resume` must then finish the sweep from that ledger with the
/// in-process table, and a fresh run over it must refuse it.
fn killed_fabric_ledger_resumes_under_processes(base: &[&str], name: &str) {
    let reference = stdout_of(base);
    let prefix = temp_prefix(name);
    let prefix_s = prefix.to_string_lossy().into_owned();
    let ledger = format!("{prefix_s}.ledger.cps");
    let sock = format!("{prefix_s}.sock");
    let sweep = &base[1..];
    let mut coordinator = spawn_quiet(
        &[
            &["fabric", "coordinate", &sock][..],
            sweep,
            &["--store", &ledger],
        ]
        .concat(),
    );
    let bound = wait_until(|| Path::new(&sock).exists());
    let mut worker = spawn_quiet(
        &[
            &["fabric", "work", &sock][..],
            sweep,
            &["--throttle-ms", "300"],
        ]
        .concat(),
    );
    // `store stats` cannot read the ledger here: it takes the lock the
    // live coordinator holds. A file longer than its header holds a
    // record.
    let recorded = bound
        && wait_until(|| {
            let header = oqsc_machine::peek_header(&ledger);
            let len = std::fs::metadata(&ledger).map(|m| m.len());
            matches!((header, len), (Ok(h), Ok(len)) if len > h.len)
        });
    for child in [&mut worker, &mut coordinator] {
        child.kill().expect("SIGKILL");
        child.wait().expect("reap");
    }
    assert!(recorded, "{name}: the ledger never grew past its header");
    let processes = ["--processes", "2", "--store", &prefix_s];
    let resumed = stdout_of(&[base, &processes[..], &["--resume"]].concat());
    assert_eq!(resumed, reference, "{name}: resumed table differs");
    let fresh = experiments(&[base, &processes[..]].concat());
    assert_eq!(fresh.status.code(), Some(1), "{name}");
    assert!(
        String::from_utf8_lossy(&fresh.stderr).contains("already exists"),
        "{name}: stderr {}",
        String::from_utf8_lossy(&fresh.stderr)
    );
    cleanup_prefix(&prefix);
}

#[test]
fn killed_pool_resumes_to_the_identical_table() {
    killed_fabric_ledger_resumes_under_processes(&["sweep", "e6", "--k-max", "4"], "e6-kill");
}

#[test]
fn f1_pool_with_persistence_survives_a_kill_too() {
    // Two fleets, so the ledger's ids carry fleet positions.
    killed_fabric_ledger_resumes_under_processes(&["sweep", "f1", "--k-max", "3"], "f1-kill");
}

#[test]
fn f3_and_f4_pools_with_persistence_survive_kills_too() {
    for base in [
        ["sweep", "f3", "--k-max", "2", "--trials", "30"],
        ["sweep", "f4", "--k-max", "2", "--trials", "25"],
    ] {
        killed_fabric_ledger_resumes_under_processes(&base, &format!("{}-kill", base[1]));
    }
}

#[test]
fn dead_workers_never_hang_a_private_fabric() {
    // `false` fails at once; `true` exits 0 without ever connecting.
    // Either way the sweep cannot complete, and must say so promptly.
    let spec = SweepSpec::from_cli("e6", 3, 0).expect("e6 spec");
    let private = format!("oqsc-private-{}-", std::process::id());
    for exe in ["false", "true"] {
        let started = Instant::now();
        let err = run_private_fabric(Path::new(exe), spec, 2, 1, None, false)
            .expect_err("a sweep without live workers cannot complete");
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "{exe}: took {:?}",
            started.elapsed()
        );
        match exe {
            "false" => assert!(
                matches!(err, PoolError::WorkerFailed { code: Some(1), .. }),
                "{exe}: {err}"
            ),
            _ => assert!(
                err.to_string()
                    .contains("exited before the sweep completed"),
                "{exe}: {err}"
            ),
        }
        // Every child was reaped (this thread spawned them all)...
        let children = std::fs::read_to_string("/proc/thread-self/children").unwrap_or_default();
        assert!(children.trim().is_empty(), "{exe}: children {children:?}");
        // ...and the private socket directory is gone.
        let leftover: Vec<_> = std::fs::read_dir(std::env::temp_dir())
            .expect("temp dir")
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().starts_with(&private))
            .collect();
        assert!(leftover.is_empty(), "{exe}: {leftover:?}");
    }
}

#[test]
fn compaction_between_resumes_keeps_tables_byte_identical() {
    // The satellite smoke cycle, end to end against the real binary:
    // kill → resume (table A) → store compact → resume again (table B);
    // A == B == the uninterrupted reference, and every store file
    // shrank.
    let base = ["sweep", "e6", "--k-max", "4"];
    let reference = stdout_of(&base);
    let prefix = temp_prefix("compact-cycle");
    let prefix_s = prefix.to_string_lossy().into_owned();
    let store_args = ["--store", &prefix_s, "--checkpoint-every", "32"];
    let crashed = experiments(&[&base[..], &store_args, &["--crash-after-tokens", "300"]].concat());
    assert_eq!(crashed.status.code(), Some(WORKER_CRASH_EXIT));
    assert!(
        String::from_utf8_lossy(&crashed.stderr).contains("resume"),
        "crash message tells the operator how to continue"
    );
    let first = stdout_of(&[&base[..], &store_args, &["--resume"]].concat());
    assert_eq!(first, reference, "resume before compaction");
    let sizes_before: Vec<(PathBuf, u64)> = store_files(&prefix);
    assert!(!sizes_before.is_empty(), "fleet stores exist");
    // Compact every store under the prefix.
    let compacted = experiments(&["store", "compact", &prefix_s]);
    assert!(
        compacted.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&compacted.stderr)
    );
    let report = String::from_utf8_lossy(&compacted.stdout).into_owned();
    for (path, before) in &sizes_before {
        let after = std::fs::metadata(path).expect("still there").len();
        assert!(
            after < *before,
            "{}: {before} -> {after} bytes",
            path.display()
        );
        assert!(
            report.contains(&path.display().to_string()),
            "compaction reported {}",
            path.display()
        );
    }
    // A further resume over the compacted stores: byte-identical, and
    // instant (every instance finished, so outcomes are just read back).
    let second = stdout_of(&[&base[..], &store_args, &["--resume"]].concat());
    assert_eq!(second, reference, "resume after compaction");
    cleanup_prefix(&prefix);
}

fn store_files(prefix: &Path) -> Vec<(PathBuf, u64)> {
    let dir = prefix.parent().expect("temp dir");
    let stem = prefix
        .file_name()
        .expect("prefix name")
        .to_string_lossy()
        .into_owned();
    let mut found = Vec::new();
    for entry in std::fs::read_dir(dir).expect("read dir").flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.starts_with(&stem) && name.ends_with(".cps") {
            let len = entry.metadata().expect("metadata").len();
            found.push((entry.path(), len));
        }
    }
    found.sort();
    found
}

#[test]
fn a_ledger_in_a_missing_directory_fails_before_any_worker_starts() {
    // The parent opens the ledger before it spawns anyone, so a store
    // prefix in a directory that does not exist is a plain runtime error
    // naming the ledger.
    let mut missing = std::env::temp_dir();
    missing.push(format!("oqsc-pool-missing-{}", std::process::id()));
    missing.push("nope");
    missing.push("prefix");
    let missing_s = missing.to_string_lossy().into_owned();
    let out = experiments(&[
        "sweep",
        "e6",
        "--k-max",
        "2",
        "--processes",
        "2",
        "--store",
        &missing_s,
    ]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(&format!("{missing_s}.ledger.cps")),
        "the error names the ledger: {stderr}"
    );
    assert!(!stderr.contains("fabric worker"), "no worker ran: {stderr}");
}

#[test]
fn compact_validates_its_flags_and_missing_prefixes() {
    // A sweep's flags on `store compact`, and --trials on an e6 sweep,
    // are flag errors (exit 2) with pointed messages.
    for (args, needle) in [
        (
            vec!["store", "compact", "/tmp/x", "--resume"],
            "experiments store compact does not take --resume",
        ),
        (
            vec!["sweep", "e6", "--trials", "5"],
            "--trials only applies",
        ),
    ] {
        let out = experiments(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains(needle),
            "{args:?}: stderr {:?}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    // A prefix matching no store files is a clear runtime error (exit 1).
    let mut nowhere = std::env::temp_dir();
    nowhere.push(format!("oqsc-compact-nothing-{}", std::process::id()));
    let out = experiments(&["store", "compact", &nowhere.to_string_lossy()]);
    assert_eq!(out.status.code(), Some(1));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("no checkpoint stores"),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn stale_stores_are_refused_without_resume() {
    let prefix = temp_prefix("stale");
    let prefix_s = prefix.to_string_lossy().into_owned();
    let run = [
        "sweep",
        "e6",
        "--k-max",
        "2",
        "--processes",
        "2",
        "--store",
        &prefix_s,
    ];
    let first = experiments(&run);
    assert!(first.status.success());
    assert!(PathBuf::from(format!("{prefix_s}.ledger.cps")).exists());
    // Re-running fresh over the leftover ledger must refuse, loudly.
    let second = experiments(&run);
    assert_eq!(second.status.code(), Some(1));
    assert!(
        String::from_utf8_lossy(&second.stderr).contains("already exists"),
        "stderr: {}",
        String::from_utf8_lossy(&second.stderr)
    );
    // With --resume the complete ledger alone prints the table of the
    // plain run.
    let resumed = stdout_of(&[&run[..], &["--resume"]].concat());
    assert_eq!(resumed, stdout_of(&["sweep", "e6", "--k-max", "2"]));
    cleanup_prefix(&prefix);
}

#[test]
fn orphaned_locks_block_fresh_runs() {
    let prefix = temp_prefix("orphan");
    let prefix_s = prefix.to_string_lossy().into_owned();
    // Simulate a SIGKILLed coordinator: its ledger's lock file is left
    // behind.
    let lock = PathBuf::from(format!("{prefix_s}.ledger.cps.lock"));
    std::fs::write(&lock, b"314159").expect("orphan lock");
    let run = [
        "sweep",
        "e6",
        "--k-max",
        "2",
        "--processes",
        "1",
        "--store",
        &prefix_s,
    ];
    let blocked = experiments(&run);
    assert_eq!(blocked.status.code(), Some(1));
    assert!(
        String::from_utf8_lossy(&blocked.stderr).contains("lock"),
        "stderr: {}",
        String::from_utf8_lossy(&blocked.stderr)
    );
    // A resume run owns the ledger and may break the orphan (its writer
    // is known dead).
    let resumed = experiments(&[&run[..], &["--resume"]].concat());
    assert!(
        resumed.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    cleanup_prefix(&prefix);
}

#[test]
fn cli_rejects_inconsistent_flag_combinations() {
    for (args, needle) in [
        (vec!["sweep", "e6", "--resume"], "--resume requires --store"),
        (
            vec!["sweep", "e6", "--crash-after-tokens", "5"],
            "--crash-after-tokens requires --store",
        ),
        (
            vec!["sweep", "e6", "--processes", "2", "--checkpoint-every", "7"],
            "--processes takes neither",
        ),
        (vec!["sweep", "nope"], "expected one of"),
        (vec!["sweep", "e6", "--k-max", "99"], "between 1 and"),
    ] {
        let out = experiments(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains(needle),
            "{args:?}: stderr {:?}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}
