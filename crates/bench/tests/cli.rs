//! The `experiments` command line, pinned against the real binary: every
//! command parses only its own flags, usage errors exit 2 with stdout
//! left empty (so a typo in a `> table.txt` run never writes usage into
//! the table), and `--help` prints usage on stdout and exits 0.

use std::process::{Command, Output};

fn experiments(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("spawn experiments binary")
}

/// Runs `args`, asserts a usage error (exit 2, nothing on stdout) and
/// returns stderr.
fn usage_error(args: &[&str]) -> String {
    let out = experiments(args);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "{args:?}: stderr {stderr:?}");
    assert!(
        out.stdout.is_empty(),
        "{args:?}: stdout {:?}",
        String::from_utf8_lossy(&out.stdout)
    );
    stderr
}

#[test]
fn every_command_prints_its_help_on_stdout() {
    for (args, synopsis) in [
        (vec!["help"], "experiments tables"),
        (vec!["--help"], "experiments fabric work"),
        (vec!["tables", "--help"], "experiments tables"),
        (vec!["sweep", "--help"], "experiments sweep NAME"),
        (vec!["sweep", "e6", "--help"], "experiments sweep NAME"),
        (vec!["fabric", "--help"], "experiments fabric coordinate"),
        (vec!["fabric", "coordinate", "--help"], "experiments fabric"),
        (vec!["fabric", "work", "--help"], "experiments fabric work"),
        (vec!["store", "--help"], "experiments store compact"),
        (vec!["store", "stats", "--help"], "experiments store stats"),
        (vec!["bench", "--help"], "experiments bench PATH"),
        (vec!["serve", "--help"], "experiments serve ADDR"),
        (vec!["route", "--help"], "experiments route ADDR"),
        (vec!["drive", "--help"], "experiments drive ADDR"),
        (vec!["drive-direct", "--help"], "experiments drive-direct"),
        (vec!["shutdown", "--help"], "experiments shutdown ADDR"),
    ] {
        let out = experiments(&args);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(0), "{args:?}");
        assert!(stdout.contains(synopsis), "{args:?}: stdout {stdout:?}");
        assert!(out.stderr.is_empty(), "{args:?}");
    }
}

#[test]
fn a_flag_of_another_command_is_a_usage_error() {
    let dir = std::env::temp_dir().join(format!("oqsc-cli-{}", std::process::id()));
    let path = dir.join("x").display().to_string();
    // Each command given one flag that belongs to a different command.
    for (args, command, flag) in [
        (vec!["tables", "--store", &path], "tables", "--store"),
        (
            vec!["sweep", "e6", "--live-budget", "5"],
            "sweep",
            "--live-budget",
        ),
        (
            vec!["fabric", "coordinate", &path, "e6", "--workers", "2"],
            "fabric coordinate",
            "--workers",
        ),
        (
            vec!["fabric", "work", &path, "e6", "--store", &path],
            "fabric work",
            "--store",
        ),
        (
            vec!["store", "compact", &path, "--resume"],
            "store compact",
            "--resume",
        ),
        (
            vec!["store", "stats", &path, "--k-max", "3"],
            "store stats",
            "--k-max",
        ),
        (vec!["bench", &path, "--workers", "2"], "bench", "--workers"),
        (
            vec!["serve", &path, "--engines", "a,b"],
            "serve",
            "--engines",
        ),
        (
            vec!["route", &path, "--engines", "a", "--spill-store", &path],
            "route",
            "--spill-store",
        ),
        (
            vec!["drive", &path, "--lease-size", "3"],
            "drive",
            "--lease-size",
        ),
        (vec!["drive-direct", "--feeds"], "drive-direct", "--feeds"),
        (
            vec!["shutdown", &path, "--workers", "2"],
            "shutdown",
            "--workers",
        ),
    ] {
        let stderr = usage_error(&args);
        assert!(
            stderr.contains(&format!("experiments {command} does not take {flag}")),
            "{args:?}: stderr {stderr:?}"
        );
    }
    assert!(!dir.exists(), "a rejected command touched the file system");
}

#[test]
fn unknown_commands_bare_runs_and_old_spellings_exit_2() {
    assert!(usage_error(&[]).contains("usage:"));
    assert!(usage_error(&["bogus"]).contains("unknown command bogus"));
    assert!(usage_error(&["--bogus"]).contains("usage:"));
    assert!(usage_error(&["fabric", "steal", "x", "e6"]).contains("unknown fabric role"));
    assert!(usage_error(&["store", "shrink", "x"]).contains("unknown store action"));
    // The single-namespace spellings have no alias: each is a usage error.
    for old in [
        vec!["--sweep", "e6"],
        vec!["--workers", "2"],
        vec!["--compact", "/nonexistent/x"],
        vec!["--serve", "/nonexistent/x.sock"],
        vec!["--drive-direct"],
        vec!["sweep", "e6", "--worker", "--shard", "0", "--of", "1"],
        vec!["drive", "/nonexistent/x.sock", "--drive-phase", "1"],
        vec!["bench", "/nonexistent/x.json", "--bench-reduced"],
        vec!["fabric", "work", "x", "e6", "--fabric-throttle-ms", "1"],
    ] {
        usage_error(&old);
    }
    // The pool's worker command is gone too.
    let stderr = usage_error(&["shard", "e6", "--shard", "0", "--of", "1"]);
    assert!(stderr.contains("unknown command shard"), "{stderr}");
}

#[test]
fn sweep_processes_refuse_mid_instance_checkpoint_flags() {
    let dir = std::env::temp_dir().join(format!("oqsc-cli-ckpt-{}", std::process::id()));
    let prefix = dir.join("p").display().to_string();
    for extra in [
        vec!["--checkpoint-every", "7"],
        vec!["--store", &prefix, "--crash-after-tokens", "5"],
    ] {
        let stderr = usage_error(&[&["sweep", "e6", "--processes", "2"][..], &extra].concat());
        assert!(
            stderr.contains("--processes takes neither") && stderr.contains("--workers N --store"),
            "{extra:?}: {stderr}"
        );
    }
    assert!(!dir.exists(), "a rejected sweep touched the file system");
}
