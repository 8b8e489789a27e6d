//! `benchmark` — one benchmark for the whole trainer.
//!
//! Two ways in:
//!
//! * the driver's: `--workload W --seed N --seconds S --trace 0|1`
//!   runs one workload and prints, as the last line of stdout, one JSON
//!   object `{correct, attempted, failed, metrics}` holding every
//!   end-to-end metric (`--trace 0`) or every per-layer metric
//!   (`--trace 1`);
//! * a person's: `--all [--traced] [--quick] [--aa]` runs every
//!   workload, prints every metric as `workload metric value unit`, and
//!   writes `artifacts/benchmark/results.json`.
//!
//! See `README.md` for what is measured and why, and `sut.rs` for the
//! only code that knows the program's API.

mod gen;
mod json;
mod layers;
mod spans;
mod spec;
mod stats;
mod sut;
mod sys;
mod workloads;

use std::path::Path;
use std::process::ExitCode;

use json::Json;
use layers::Parts;
use workloads::Outcome;

#[global_allocator]
static GLOBAL: sys::CountingAlloc = sys::CountingAlloc;

const USAGE: &str = "usage: benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]
       benchmark --all [--seed N] [--seconds S] [--traced] [--quick] [--aa]
       benchmark --print-spec
  --workload W   run one workload; the last stdout line is the result as JSON
  --all          run every workload and write artifacts/benchmark/results.json
  --trace 1 / --traced   the traced pass: per-layer metrics instead of end-to-end ones
  --quick        ~1 % step counts: a smoke test, numbers mean nothing
  --aa           run the end-to-end set twice on this build; fail if a metric moves past its bound
  --print-spec   print BENCHMARK.json as src/spec.rs defines it";

struct Args {
    workload: Option<String>,
    all: bool,
    seed: u64,
    seconds: f64,
    traced: bool,
    quick: bool,
    aa: bool,
    print_spec: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        all: false,
        seed: 42,
        seconds: spec::RUN_SECONDS as f64,
        traced: false,
        quick: false,
        aa: false,
        print_spec: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or_else(|| format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value("a workload name")?.clone()),
            "--seed" => {
                a.seed = value("a u64")?.parse().map_err(|_| "--seed needs a u64".to_string())?
            }
            "--seconds" => {
                a.seconds = value("a number")?
                    .parse()
                    .map_err(|_| "--seconds needs a number".to_string())?;
                if !(a.seconds > 0.0 && a.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => a.traced = value("0 or 1")? == "1",
            "--traced" => a.traced = true,
            "--all" => a.all = true,
            "--quick" => a.quick = true,
            "--aa" => a.aa = true,
            "--print-spec" => a.print_spec = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    match &a.workload {
        Some(w) if !spec::WORKLOADS.iter().any(|k| k.name == w) => {
            Err(format!("no such workload: {w}"))
        }
        Some(_) if a.all => Err("--workload and --all exclude each other".into()),
        None if !a.all && !a.print_spec => {
            Err("one of --workload, --all or --print-spec is required".into())
        }
        _ => Ok(a),
    }
}

const EVERYTHING: Parts = Parts { layers: true, dist: true };

fn run_one(workload: &str, a: &Args, traced: Option<Parts>) -> Result<Outcome, String> {
    if let Some(parts) = traced {
        layers::run(workload, a.seed, a.seconds, a.quick, parts)
    } else {
        workloads::run(workload, a.seed, a.seconds, a.quick)
    }
}

/// Marks the line that carries a run's per-metric `spread_pct` as
/// JSON; `--all` reads it back from the child it ran the workload in.
const SPREAD_TAG: &str = " spread_pct ";

fn print_outcome(workload: &str, out: &Outcome) {
    for (name, value) in &out.metrics {
        let spread = out.spread_pct.iter().find(|(n, _)| n == name);
        let note = spread.map_or(String::new(), |(_, s)| format!("  (spread {s:.1} %)"));
        println!("{workload} {name} {value:.6} {}{note}", spec::unit_of(name));
    }
    println!("{workload} ops_attempted {} count", out.attempted);
    println!("{workload} ops_failed {} count", out.failed);
    if !out.spread_pct.is_empty() {
        let spread = out.spread_pct.iter().map(|(n, s)| (n.to_string(), Json::Num(*s)));
        println!("{workload}{SPREAD_TAG}{}", Json::Obj(spread.collect()));
    }
    for e in &out.errors {
        println!("{workload} FAILED: {e}");
    }
}

fn metrics_json(out: &Outcome) -> Json {
    Json::Obj(
        out.metrics
            .iter()
            .map(|(name, value)| {
                let cell = Json::obj(vec![
                    ("value", Json::Num(*value)),
                    ("unit", Json::str(spec::unit_of(name))),
                ]);
                (name.to_string(), cell)
            })
            .collect(),
    )
}

/// The driver's result line.
fn result_line(out: &Outcome) -> Json {
    Json::obj(vec![
        ("correct", Json::Bool(out.correct())),
        ("attempted", Json::Num(out.attempted as f64)),
        ("failed", Json::Num(out.failed as f64)),
        ("metrics", metrics_json(out)),
    ])
}

fn caveats() {
    let cores = workloads::cores();
    if cores < 3 {
        println!(
            "CAVEAT: {cores} core(s): dist2_quick's two workers share cores with their coordinator and \
             with this harness, so its numbers include time-sharing. No speed-up is derived from any of \
             these numbers."
        );
    }
}

fn git_rev() -> String {
    let out = std::process::Command::new("git").args(["rev-parse", "--short", "HEAD"]).output();
    match out {
        Ok(o) if o.status.success() => String::from_utf8_lossy(&o.stdout).trim().to_string(),
        _ => "unknown".to_string(),
    }
}

/// One end-to-end pass in a child process — the driver's own
/// invocation, with a peak-RSS high-water mark no earlier workload has
/// raised. Echoes the child's report; returns its result line and its
/// `spread_pct` line, parsed.
fn run_isolated(workload: &str, a: &Args) -> Result<(Json, Json), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this executable: {e}"))?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["--workload", workload, "--trace", "0"])
        .args(["--seed", &a.seed.to_string()])
        .args(["--seconds", &a.seconds.to_string()]);
    if a.quick {
        cmd.arg("--quick");
    }
    let out = cmd.stderr(std::process::Stdio::inherit()).output();
    let out = out.map_err(|e| format!("running {workload} in a child process: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let report: Vec<&str> = stdout.lines().filter(|l| !l.starts_with("CAVEAT")).collect();
    let Some((result, lines)) = report.split_last().filter(|_| out.status.code().is_some()) else {
        return Err(format!("the child running {workload} printed nothing ({})", out.status));
    };
    lines.iter().for_each(|l| println!("{l}"));
    let result =
        Json::parse(result).map_err(|_| format!("{workload} ended without a result line"))?;
    let spread =
        lines.iter().find_map(|l| l.split_once(SPREAD_TAG)).map(|(_, json)| Json::parse(json));
    Ok((result, spread.and_then(Result::ok).unwrap_or(Json::Null)))
}

/// Every workload, end-to-end (and traced, if asked): the results
/// document, and whether every check passed.
fn run_all(a: &Args, traced: bool) -> (Json, bool) {
    let mut all_correct = true;
    let mut rows = Vec::new();
    // Only the smoke run may go on without the program's binary.
    let with_dist = match sut::dist_train_path() {
        Err(why) if a.quick => {
            println!("SKIPPED dist2_quick and the dist.* layer metrics: {why}");
            false
        }
        _ => true,
    };
    for w in &spec::WORKLOADS {
        let mut row = vec![("workload", Json::str(w.name))];
        if with_dist || w.name != "dist2_quick" {
            match run_isolated(w.name, a) {
                Ok((result, spread)) => {
                    all_correct &= result.get("correct") == Some(&Json::Bool(true));
                    for (key, from) in [
                        ("end_to_end", "metrics"),
                        ("ops_attempted", "attempted"),
                        ("ops_failed", "failed"),
                    ] {
                        row.push((key, result.get(from).cloned().unwrap_or(Json::Null)));
                    }
                    row.push(("spread_pct", spread));
                }
                Err(e) => {
                    println!("{} FAILED: {e}", w.name);
                    all_correct = false;
                }
            }
        }
        if traced {
            // The layer loops do not depend on the workload: once is enough.
            let parts = Parts { layers: w.name == spec::WORKLOADS[0].name, dist: with_dist };
            match run_one(w.name, a, Some(parts)) {
                Ok(out) => {
                    print_outcome(w.name, &out);
                    all_correct &= out.correct();
                    row.push(("per_layer", metrics_json(&out)));
                }
                Err(e) => {
                    println!("{} FAILED: {e}", w.name);
                    all_correct = false;
                }
            }
        }
        rows.push(Json::obj(row));
    }
    let doc = Json::obj(vec![
        ("cores", Json::Num(workloads::cores() as f64)),
        ("nproc", Json::Num(workloads::cores() as f64)),
        ("seed", Json::Num(a.seed as f64)),
        ("seconds", Json::Num(a.seconds)),
        ("quick", Json::Bool(a.quick)),
        ("git_rev", Json::Str(git_rev())),
        ("workloads", Json::Arr(rows)),
    ]);
    (doc, all_correct)
}

fn metric_of(doc: &Json, workload: &str, metric: &str) -> Option<f64> {
    doc.get("workloads")?
        .as_arr()?
        .iter()
        .find(|w| w.get("workload").and_then(Json::as_str) == Some(workload))?
        .get("end_to_end")?
        .get(metric)?
        .get("value")?
        .as_f64()
}

/// A/A: two end-to-end sets on one build must agree within every bound.
fn aa(a: &Args) -> bool {
    let (first, ok1) = run_all(a, false);
    let (second, ok2) = run_all(a, false);
    let mut agree = ok1 && ok2;
    println!("A/A  workload metric first second worse_by bound verdict");
    for w in &spec::WORKLOADS {
        for m in &spec::END_TO_END {
            let (Some(x), Some(y)) =
                (metric_of(&first, w.name, m.name), metric_of(&second, w.name, m.name))
            else {
                println!("A/A  {} {} missing", w.name, m.name);
                agree = false;
                continue;
            };
            // How much worse the worse of the two is than the better.
            let (better, worse) = if (x < y) == m.higher_is_better { (y, x) } else { (x, y) };
            let worse_by = (worse - better).abs() / better.abs();
            let bound = m.bound.unwrap_or(0.0);
            let within = worse_by <= bound;
            agree &= within;
            let verdict = if within { "ok" } else { "MOVED" };
            println!(
                "A/A  {} {} {x:.6} {y:.6} {:.2}% {:.0}% {verdict}",
                w.name,
                m.name,
                worse_by * 100.0,
                bound * 100.0
            );
        }
    }
    agree
}

fn exit_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let a = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if a.print_spec {
        print!("{}", spec::benchmark_json().pretty());
        return ExitCode::SUCCESS;
    }
    caveats();
    if let Some(workload) = &a.workload {
        return match run_one(workload, &a, a.traced.then_some(EVERYTHING)) {
            Ok(out) => {
                print_outcome(workload, &out);
                println!("{}", result_line(&out));
                exit_code(out.correct())
            }
            Err(e) => {
                eprintln!("benchmark: {workload}: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if a.aa {
        return exit_code(aa(&a));
    }
    let (doc, all_correct) = run_all(&a, a.traced);
    // A smoke run's numbers mean nothing; it leaves no results behind.
    if !a.quick {
        let path = Path::new(sut::SCRATCH_DIR).join("results.json");
        match std::fs::create_dir_all(sut::SCRATCH_DIR)
            .and_then(|()| std::fs::write(&path, doc.pretty()))
        {
            Ok(()) => println!("wrote {}", path.display()),
            Err(e) => {
                eprintln!("benchmark: writing {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    exit_code(all_correct)
}
