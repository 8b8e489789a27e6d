//! `dist_train launch` rejects malformed and unknown flags up front:
//! exit code 2 and a message naming the token, before a directory is
//! created, a socket bound or a worker spawned — not a silently
//! substituted default, and not N children that panic after the
//! rendezvous.

use std::path::PathBuf;
use std::process::Command;
use std::time::{Duration, Instant};

use trainer::real::worker::{preset, preset_names};

/// Command lines of every live process that mention `needle`.
fn processes_mentioning(needle: &str) -> Vec<String> {
    let Ok(proc_dir) = std::fs::read_dir("/proc") else { return Vec::new() };
    proc_dir
        .flatten()
        .filter_map(|e| std::fs::read(e.path().join("cmdline")).ok())
        .map(|raw| String::from_utf8_lossy(&raw).replace('\0', " "))
        .filter(|cmd| cmd.contains(needle))
        .collect()
}

#[test]
fn malformed_launch_flags_exit_2_naming_the_flag_and_spawn_nothing() {
    let cases: [(&str, &[&str]); 14] = [
        ("--workers", &["--workers", "abc"]),
        ("--workers", &["--workers", "0"]),
        ("--workers", &["--workers", "65536"]),
        ("--workers", &["--workers"]),
        ("--steps", &["--steps", "1O0"]),
        ("--steps", &["--steps", "0"]),
        ("--seed", &["--seed", "-1"]),
        ("--base-ms", &["--base-ms", "fast"]),
        ("--base-ms", &["--base-ms", "0"]),
        ("--preset", &["--preset", "bogus"]),
        // Unknown tokens: a misspelt flag, a stray positional, a value
        // after a flag that takes none, a flag of the other mode.
        ("--worker", &["--worker", "2"]),
        ("stray", &["--workers", "2", "stray"]),
        ("x", &["--trace", "x"]),
        ("--tag", &["--tag", "0"]),
    ];
    for (i, (flag, bad)) in cases.iter().enumerate() {
        let dir: PathBuf =
            std::env::temp_dir().join(format!("seg_dist_badflag_{}_{i}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let dir_str = dir.to_string_lossy().into_owned();
        let t0 = Instant::now();
        let out = Command::new(env!("CARGO_BIN_EXE_dist_train"))
            .arg("launch")
            .args(["--dir", &dir_str])
            .args(*bad)
            .output()
            .expect("launching dist_train");
        let took = t0.elapsed();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bad:?}: {} / {stderr}", out.status);
        assert!(
            stderr.lines().any(|l| l.starts_with(&format!("launch: {flag}: "))),
            "{bad:?}: stderr must name {flag}: {stderr}"
        );
        assert!(took < Duration::from_secs(2), "{bad:?}: took {took:?}");
        assert!(!dir.exists(), "{bad:?}: nothing may be created or bound before the check");
        let left = processes_mentioning(&dir_str);
        assert!(left.is_empty(), "{bad:?}: left behind {left:?}");
    }
}

/// The launcher checks `--preset` against `preset_names`; every name
/// there must be one `preset` builds.
#[test]
fn every_preset_name_builds() {
    for name in preset_names() {
        assert_eq!(preset(name, 2, 3, 0).steps, 3, "{name}");
    }
}
