//! The `scenarios` binary as the one experiment entry point: `--grid`
//! names a registered grid, an unknown name or an out-of-range
//! `--worker-timeout` is a usage error, figure grids print their series
//! tables, and a sharded coordinator forwards `--grid` to its workers (so
//! the merged `outcome hash:` matches a single-process run of the same
//! grid).
//!
//! The binary writes `results/` relative to its working directory, so every
//! run gets its own scratch directory.

use randrecon_experiments::grids;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "randrecon-scenarios-cli-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn scenarios(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_scenarios"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("spawn the scenarios binary")
}

fn stdout(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout).into_owned()
}

fn hash_line(output: &Output) -> String {
    stdout(output)
        .lines()
        .find(|line| line.starts_with("outcome hash: "))
        .unwrap_or_else(|| panic!("no outcome hash line in:\n{}", stdout(output)))
        .to_string()
}

#[test]
fn unknown_grid_is_a_usage_error_naming_the_registered_grids() {
    let dir = scratch_dir("unknown");
    let output = scenarios(&dir, &["--grid", "figure9", "--smoke"]);
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("unknown grid 'figure9'"), "{stderr}");
    for name in grids::names() {
        assert!(stderr.contains(name), "{name} missing from:\n{stderr}");
    }
    assert!(!dir.join("results").exists());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn out_of_range_worker_timeouts_are_usage_errors() {
    let dir = scratch_dir("timeout");
    for secs in ["1e20", "inf", "nan", "0", "-1"] {
        let output = scenarios(
            &dir,
            &["--smoke", "--shards", "2", "--worker-timeout", secs],
        );
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{secs}: {stderr}");
        assert!(
            stderr.contains("usage error: --worker-timeout needs a positive number"),
            "{secs}: {stderr}"
        );
        assert!(stderr.contains("usage: scenarios"), "{secs}: {stderr}");
    }
    assert!(!dir.join("results").exists());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn figure1_grid_prints_its_series_table_and_writes_its_reports() {
    let dir = scratch_dir("figure1");
    let output = scenarios(&dir, &["--grid", "figure1", "--smoke"]);
    assert!(output.status.success(), "{}", stdout(&output));
    let text = stdout(&output);
    assert!(
        text.contains("# Figure 1: increasing the number of attributes"),
        "{text}"
    );
    assert!(
        text.contains("12 scenarios: 12 completed, 0 failed"),
        "{text}"
    );
    for file in ["figure1.csv", "figure1.json"] {
        assert!(dir.join("results").join(file).exists(), "{file}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sharded_figures_grid_hashes_like_the_single_process_run() {
    let dir = scratch_dir("figures");
    let single = scenarios(&dir, &["--grid", "figures", "--smoke"]);
    assert!(single.status.success(), "{}", stdout(&single));
    let sharded = scenarios(
        &dir,
        &[
            "--grid",
            "figures",
            "--smoke",
            "--shards",
            "2",
            "--shard-dir",
            "shards",
        ],
    );
    assert!(sharded.status.success(), "{}", stdout(&sharded));
    assert_eq!(hash_line(&single), hash_line(&sharded));
    // The merged report regroups into the same four series.
    assert_eq!(stdout(&sharded).matches("\n# Figure ").count(), 4);
    let _ = std::fs::remove_dir_all(&dir);
}
