//! `cargo test` keeps the harness from rotting under refactors of the
//! program: every workload and the traced pass run at ~1 % of their
//! real size through the real binary. The numbers mean nothing; that
//! every metric is still produced and every check still passes does.

use std::path::Path;
use std::process::Command;

/// Build `dist_train` next to the `benchmark` binary under test, in the
/// same profile. Best effort: without it the benchmark skips what needs
/// it and says so.
fn build_dist_train(benchmark_exe: &Path, repo: &Path) {
    let (Some(profile_dir), Ok(cargo)) = (benchmark_exe.parent(), std::env::var("CARGO")) else {
        return;
    };
    let Some(target_dir) = profile_dir.parent() else { return };
    let mut cmd = Command::new(cargo);
    cmd.args(["build", "--offline", "--quiet", "-p", "trainer", "--bin", "dist_train"])
        .arg("--manifest-path")
        .arg(repo.join("Cargo.toml"))
        .arg("--target-dir")
        .arg(target_dir);
    if profile_dir.ends_with("release") {
        cmd.arg("--release");
    }
    match cmd.status() {
        Ok(s) if s.success() => {}
        other => eprintln!("could not build dist_train ({other:?}); dist2_quick will be skipped"),
    }
}

#[test]
fn quick_run_produces_every_metric_and_passes_every_check() {
    let exe = Path::new(env!("CARGO_BIN_EXE_benchmark"));
    let repo = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the crate sits one level below the repo root");
    build_dist_train(exe, repo);

    let out = Command::new(exe)
        .args(["--all", "--traced", "--quick", "--seed", "7"])
        .current_dir(repo)
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "benchmark --all --traced --quick failed\n{stdout}\n{stderr}");
    assert!(!stdout.contains("FAILED"), "{stdout}");

    let skipped_dist = stdout.contains("SKIPPED dist2_quick");
    let spec = std::fs::read_to_string(repo.join("BENCHMARK.json"))
        .expect("BENCHMARK.json at the repo root");
    let names_in = |section: &str| -> Vec<String> {
        let start = spec.find(&format!("\"{section}\"")).expect("section present");
        let body = &spec[start..start + spec[start..].find(']').expect("section is an array")];
        body.split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').expect("closing quote")].to_string())
            .collect()
    };
    for workload in names_in("workloads") {
        if skipped_dist && workload == "dist2_quick" {
            continue;
        }
        for metric in names_in("end_to_end") {
            assert!(
                stdout.contains(&format!("{workload} {metric} ")),
                "{workload} lacks {metric}\n{stdout}"
            );
        }
        for metric in names_in("per_layer") {
            let needs_dist = metric.starts_with("dist.") || metric == "closure.dist2_quick_pct";
            if skipped_dist && (needs_dist || workload == "dist2_quick") {
                continue;
            }
            // `--all` runs the workload-independent layer loops once,
            // under the first workload; `traced.*` is per workload.
            let line = if metric.starts_with("traced.") {
                format!("{workload} {metric} ")
            } else {
                format!(" {metric} ")
            };
            assert!(stdout.contains(&line), "{workload} lacks {metric}\n{stdout}");
        }
        assert!(
            stdout.contains(&format!("{workload} ops_failed 0 ")),
            "{workload} failed ops\n{stdout}"
        );
    }
    // A smoke run leaves no results file behind.
    assert!(!stdout.contains("wrote "), "{stdout}");
}
