//! CLI contract of the `repro` binary: the usage text enumerates every
//! flag, unknown flags fail fast with that usage on stderr, and a CSV
//! that cannot be written fails the run.

use std::process::Command;

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

#[test]
fn unknown_flag_exits_nonzero_with_usage_on_stderr() {
    let out = repro().arg("--no-such-flag").output().expect("run repro");
    assert!(!out.status.success(), "unknown flags must exit non-zero");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag: --no-such-flag"), "stderr was: {stderr}");
    assert!(stderr.contains("usage:"), "usage text must follow the error; stderr: {stderr}");
}

#[test]
fn no_arguments_prints_usage_and_exits_nonzero() {
    let out = repro().output().expect("run repro");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
}

#[test]
fn usage_enumerates_every_flag() {
    let out = repro().output().expect("run repro");
    let stderr = String::from_utf8_lossy(&out.stderr);
    for flag in [
        "--quick",
        "--quiet",
        "--seed",
        "--jobs",
        "--resume",
        "--metrics",
        "--serve",
        "--remote",
        "--remote-retries",
        "--remote-op-timeout",
    ] {
        assert!(stderr.contains(flag), "usage text is missing {flag}; stderr: {stderr}");
    }
}

#[test]
fn flags_that_need_values_fail_without_them() {
    for flag in [
        "--seed",
        "--jobs",
        "--resume",
        "--metrics",
        "--serve",
        "--remote",
        "--remote-retries",
        "--remote-op-timeout",
    ] {
        let out = repro().arg(flag).output().expect("run repro");
        assert!(!out.status.success(), "{flag} without a value must exit non-zero");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("needs"), "{flag}: expected a 'needs …' error, got: {stderr}");
    }
}

#[test]
fn remote_flag_values_are_validated() {
    for (flag, bad) in [
        ("--remote-retries", "-1"),
        ("--remote-retries", "lots"),
        ("--remote-op-timeout", "0"),
        ("--remote-op-timeout", "soon"),
    ] {
        let out = repro().args([flag, bad]).output().expect("run repro");
        assert!(!out.status.success(), "{flag} {bad} must be rejected");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("needs"), "{flag} {bad}: expected a 'needs …' error, got: {stderr}");
    }
}

#[test]
fn list_prints_experiment_ids() {
    let out = repro().arg("list").output().expect("run repro");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for id in ["fig12", "abl01"] {
        assert!(stdout.lines().any(|l| l.trim() == id), "{id} not listed: {stdout}");
    }
}

/// With `results/fig03.csv` a directory, fig03 still prints its outcome
/// and the experiments after it still run and write their CSVs, but the
/// run warns and exits non-zero.
#[test]
fn a_csv_that_cannot_be_written_fails_the_run() {
    let dir = std::env::temp_dir().join(format!("repro-csv-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(dir.join("results/fig03.csv")).expect("create the blocking directory");
    let out = repro()
        .args(["--quick", "--quiet", "fig03", "fig02"])
        .current_dir(&dir)
        .output()
        .expect("run repro");
    let fig02_csv = dir.join("results/fig02.csv").is_file();
    let _ = std::fs::remove_dir_all(&dir);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "repro exited 0 with its CSV unwritten; stderr: {stderr}");
    assert!(stdout.contains("==== fig03 "), "fig03's outcome is missing: {stdout}");
    assert!(stdout.contains("==== fig02 ") && fig02_csv, "fig02 did not run after fig03");
    assert!(stderr.contains("fig03.csv not written"), "no warning on stderr: {stderr}");
}
