//! The cross-process scheduler's contract, pinned against the real
//! `experiments` binary (spawned as OS processes, exactly as a user
//! would run it):
//!
//! * 1/2/4-process runs of **every registered sweep** (E6, F1, F3, F4)
//!   print tables **byte-identical** to the in-process `--workers N`
//!   runs;
//! * a sweep killed mid-run (worker processes exiting the crash way)
//!   and resumed from the persisted shard stores prints the identical
//!   table — and the resume *skips* instances whose outcomes were
//!   persisted;
//! * `--compact` shrinks resume-heavy stores via atomic rename and a
//!   further `--resume` still prints the identical table;
//! * a worker that dies with a real error surfaces its stderr tail in
//!   the parent's error message;
//! * stale stores are refused without `--resume`, and orphaned lock
//!   files block a fresh run until broken.
//!
//! CI runs this suite under `--release`.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const WORKER_CRASH_EXIT: i32 = 9;

fn experiments(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
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
        vec!["--sweep", "e6", "--k-max", "4"],
        vec!["--sweep", "f1", "--k-max", "4"],
        vec!["--sweep", "f3", "--k-max", "2", "--trials", "40"],
        vec!["--sweep", "f4", "--k-max", "2", "--trials", "30"],
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

#[test]
fn killed_pool_resumes_to_the_identical_table() {
    let reference = stdout_of(&["--sweep", "e6", "--k-max", "4"]);
    for processes in ["1", "2", "4"] {
        let prefix = temp_prefix(&format!("crash-{processes}"));
        let prefix_s = prefix.to_string_lossy().into_owned();
        // Kill the sweep mid-run: every worker stops dead after 300
        // tokens (well inside the k=4 instance stream) having persisted
        // only whole 64-token segments.
        let crashed = experiments(&[
            "--sweep",
            "e6",
            "--k-max",
            "4",
            "--processes",
            processes,
            "--store",
            &prefix_s,
            "--checkpoint-every",
            "64",
            "--crash-after-tokens",
            "300",
        ]);
        assert_eq!(
            crashed.status.code(),
            Some(WORKER_CRASH_EXIT),
            "stderr: {}",
            String::from_utf8_lossy(&crashed.stderr)
        );
        assert!(
            String::from_utf8_lossy(&crashed.stderr).contains("resume"),
            "crash message tells the operator how to continue"
        );
        // Resume from nothing but the shard store files.
        let resumed = stdout_of(&[
            "--sweep",
            "e6",
            "--k-max",
            "4",
            "--processes",
            processes,
            "--store",
            &prefix_s,
            "--checkpoint-every",
            "64",
            "--resume",
        ]);
        assert_eq!(
            resumed, reference,
            "{processes}-process resumed table differs from uninterrupted"
        );
        cleanup_prefix(&prefix);
    }
}

#[test]
fn f1_pool_with_persistence_survives_a_kill_too() {
    // The F1 sweep checkpoints two fleets (quantum registers included).
    let reference = stdout_of(&["--sweep", "f1", "--k-max", "3"]);
    let prefix = temp_prefix("f1-crash");
    let prefix_s = prefix.to_string_lossy().into_owned();
    let crashed = experiments(&[
        "--sweep",
        "f1",
        "--k-max",
        "3",
        "--processes",
        "2",
        "--store",
        &prefix_s,
        "--checkpoint-every",
        "32",
        "--crash-after-tokens",
        "100",
    ]);
    assert_eq!(crashed.status.code(), Some(WORKER_CRASH_EXIT));
    let resumed = stdout_of(&[
        "--sweep",
        "f1",
        "--k-max",
        "3",
        "--processes",
        "2",
        "--store",
        &prefix_s,
        "--checkpoint-every",
        "32",
        "--resume",
    ]);
    assert_eq!(resumed, reference);
    cleanup_prefix(&prefix);
}

#[test]
fn f3_and_f4_pools_with_persistence_survive_kills_too() {
    for (base, crash) in [
        (
            vec!["--sweep", "f3", "--k-max", "2", "--trials", "30"],
            "200",
        ),
        (
            vec!["--sweep", "f4", "--k-max", "2", "--trials", "25"],
            "150",
        ),
    ] {
        let sweep = base[1];
        let reference = stdout_of(&base);
        let prefix = temp_prefix(&format!("{sweep}-crash"));
        let prefix_s = prefix.to_string_lossy().into_owned();
        let store_args = ["--store", &prefix_s, "--checkpoint-every", "16"];
        let crashed = experiments(
            &[
                &base[..],
                &["--processes", "2"],
                &store_args,
                &["--crash-after-tokens", crash],
            ]
            .concat(),
        );
        assert_eq!(
            crashed.status.code(),
            Some(WORKER_CRASH_EXIT),
            "{sweep}: stderr: {}",
            String::from_utf8_lossy(&crashed.stderr)
        );
        let resumed =
            stdout_of(&[&base[..], &["--processes", "2"], &store_args, &["--resume"]].concat());
        assert_eq!(resumed, reference, "{sweep}: resumed table differs");
        cleanup_prefix(&prefix);
    }
}

#[test]
fn compaction_between_resumes_keeps_tables_byte_identical() {
    // The satellite smoke cycle, end to end against the real binary:
    // kill → resume (table A) → --compact → resume again (table B);
    // A == B == the uninterrupted reference, and every store file
    // shrank.
    let base = ["--sweep", "e6", "--k-max", "4"];
    let reference = stdout_of(&base);
    let prefix = temp_prefix("compact-cycle");
    let prefix_s = prefix.to_string_lossy().into_owned();
    let store_args = ["--store", &prefix_s, "--checkpoint-every", "32"];
    let crashed = experiments(
        &[
            &base[..],
            &["--processes", "2"],
            &store_args,
            &["--crash-after-tokens", "300"],
        ]
        .concat(),
    );
    assert_eq!(crashed.status.code(), Some(WORKER_CRASH_EXIT));
    let first = stdout_of(&[&base[..], &["--processes", "2"], &store_args, &["--resume"]].concat());
    assert_eq!(first, reference, "resume before compaction");
    let sizes_before: Vec<(PathBuf, u64)> = store_files(&prefix);
    assert!(!sizes_before.is_empty(), "shard stores exist");
    // Compact every shard store under the prefix.
    let compacted = experiments(&["--compact", &prefix_s]);
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
    let second =
        stdout_of(&[&base[..], &["--processes", "2"], &store_args, &["--resume"]].concat());
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
fn failed_workers_surface_their_stderr_in_the_parent_error() {
    // Point the shard stores into a directory that does not exist: the
    // worker dies with a real store error on stderr, and the parent's
    // error message must carry that tail (not just an exit code).
    let mut missing = std::env::temp_dir();
    missing.push(format!("oqsc-pool-missing-{}", std::process::id()));
    missing.push("nope");
    missing.push("prefix");
    let missing_s = missing.to_string_lossy().into_owned();
    let out = experiments(&[
        "--sweep",
        "e6",
        "--k-max",
        "2",
        "--processes",
        "2",
        "--store",
        &missing_s,
        "--checkpoint-every",
        "16",
    ]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("worker shard"),
        "parent names the shard: {stderr}"
    );
    assert!(
        stderr.contains("I/O error") || stderr.contains("No such file"),
        "parent surfaces the child's own message: {stderr}"
    );
}

#[test]
fn compact_validates_its_flags_and_missing_prefixes() {
    // --break-locks without --compact, and --compact mixed with a sweep,
    // are flag errors (exit 2) with pointed messages.
    for (args, needle) in [
        (vec!["--break-locks"], "--break-locks requires --compact"),
        (
            vec!["--compact", "/tmp/x", "--sweep", "e6"],
            "--compact cannot be combined with --sweep",
        ),
        (
            vec!["--compact", "/tmp/x", "--resume"],
            "--compact cannot be combined with --resume",
        ),
        (
            vec!["--sweep", "e6", "--trials", "5"],
            "--trials only applies",
        ),
        (vec!["--trials", "5"], "--trials requires --sweep"),
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
    let out = experiments(&["--compact", &nowhere.to_string_lossy()]);
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
    let first = experiments(&[
        "--sweep",
        "e6",
        "--k-max",
        "2",
        "--processes",
        "2",
        "--store",
        &prefix_s,
        "--checkpoint-every",
        "16",
    ]);
    assert!(first.status.success());
    // Re-running fresh over the leftover stores must refuse, loudly.
    let second = experiments(&[
        "--sweep",
        "e6",
        "--k-max",
        "2",
        "--processes",
        "2",
        "--store",
        &prefix_s,
        "--checkpoint-every",
        "16",
    ]);
    assert_eq!(second.status.code(), Some(1));
    assert!(
        String::from_utf8_lossy(&second.stderr).contains("already exists"),
        "stderr: {}",
        String::from_utf8_lossy(&second.stderr)
    );
    // With --resume the finished shards replay from their last
    // checkpoints and the table matches the plain run.
    let resumed = stdout_of(&[
        "--sweep",
        "e6",
        "--k-max",
        "2",
        "--processes",
        "2",
        "--store",
        &prefix_s,
        "--checkpoint-every",
        "16",
        "--resume",
    ]);
    assert_eq!(resumed, stdout_of(&["--sweep", "e6", "--k-max", "2"]));
    cleanup_prefix(&prefix);
}

#[test]
fn orphaned_locks_block_fresh_runs() {
    let prefix = temp_prefix("orphan");
    let prefix_s = prefix.to_string_lossy().into_owned();
    // Simulate a kill that left shard 0's lock file behind (the
    // simulated-crash path releases locks; a real SIGKILL would not).
    let lock = PathBuf::from(format!("{prefix_s}.e6.shard0of1.cps.lock"));
    std::fs::write(&lock, b"314159").expect("orphan lock");
    let blocked = experiments(&[
        "--sweep",
        "e6",
        "--k-max",
        "2",
        "--processes",
        "1",
        "--store",
        &prefix_s,
        "--checkpoint-every",
        "16",
    ]);
    assert_eq!(blocked.status.code(), Some(1));
    assert!(
        String::from_utf8_lossy(&blocked.stderr).contains("lock"),
        "stderr: {}",
        String::from_utf8_lossy(&blocked.stderr)
    );
    // A resume run owns the shard files and may break the orphan (the
    // parent reaped the only possible writer).
    let resumed = experiments(&[
        "--sweep",
        "e6",
        "--k-max",
        "2",
        "--processes",
        "1",
        "--store",
        &prefix_s,
        "--checkpoint-every",
        "16",
        "--resume",
    ]);
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
        (
            vec!["--sweep", "e6", "--resume"],
            "--resume requires --store",
        ),
        (
            vec!["--sweep", "e6", "--crash-after-tokens", "5"],
            "--crash-after-tokens requires --store",
        ),
        (vec!["--store", "/tmp/x"], "requires --sweep"),
        (vec!["--processes", "2"], "requires --sweep"),
        (
            vec![
                "--sweep",
                "e6",
                "--processes",
                "2",
                "--checkpoint-every",
                "7",
            ],
            "only to persist",
        ),
        (
            vec!["--sweep", "e6", "--worker"],
            "--worker requires --shard",
        ),
        (
            vec!["--sweep", "e6", "--worker", "--shard", "5", "--of", "2"],
            "must be < --of",
        ),
        (vec!["--sweep", "nope"], "expected one of"),
        (vec!["--sweep", "e6", "--k-max", "99"], "between 1 and"),
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
