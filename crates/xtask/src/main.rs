//! `cargo run -p xtask -- lint` — the repo's in-house source lint pass.
//!
//! Rules, applied to library sources (`src/` of the root facade and of
//! every `crates/*` member except `bench` and this tool; `vendor/`,
//! `tests/`, and `#[cfg(test)]` code are exempt):
//!
//! 1. **unwrap-ban** — no `.unwrap()` / `.expect(` in library code.
//!    A site may be waived with a same-line justification comment
//!    `// lint: allow(unwrap): <reason>`; an empty reason is itself a
//!    violation. `dbg!`, `todo!`, and `unimplemented!` are banned with
//!    no waiver.
//! 2. **hot-path-alloc** — a function preceded by a `// lint: hot-path`
//!    marker must not contain allocation-capable calls (`vec!`,
//!    `Vec::new`, `with_capacity`, `.to_vec()`, `to_owned`,
//!    `.collect(`, `.clone()`, `Box::new`, `String::…`, `format!`).
//!    These are the per-step kernels the zero-allocation claim covers.
//! 3. **no-f64** — a function preceded by `// lint: no-f64` must not
//!    mention `f64` anywhere in its body: the deterministic reduction
//!    paths accumulate in `f32` exactly like the GPU kernels they
//!    model, and a stray widening would silently change every
//!    fingerprinted result.
//! 4. **sleep-ban** — no bare `thread::sleep` in library code: every
//!    delay must go through `faults::FaultClock`, so chaos runs can be
//!    replayed on a virtual clock. The one sanctioned site (the clock
//!    itself) carries a same-line waiver
//!    `// lint: allow(sleep): <reason>`; an empty reason is itself a
//!    violation.
//! 5. **simd-fallback** — every `#[target_feature]` fn must (a) carry
//!    an `_avx512` / `_avx2` / `_f16c` / `_pclmul` suffix naming the
//!    feature it needs, (b) have
//!    a same-file `_scalar` twin, (c) be reachable only through a
//!    runtime-dispatch call site (the file must consult the matching
//!    `simd::have_*` predicate), and (d) both twins must actually be
//!    called somewhere in the file. This keeps the crate loadable on
//!    machines without the extension and keeps the differential tests
//!    honest — an uncalled twin proves nothing. A helper whose every
//!    call site sits inside a `#[target_feature]` fn of the same suffix
//!    is covered by those callers' twins and dispatch and owes only (a).
//! 6. **atomic-ordering** — every `Ordering::Relaxed` in library code
//!    must carry a same-line `// lint: allow(relaxed): <invariant>`
//!    waiver naming the invariant that makes the relaxation sound (an
//!    empty reason is itself a violation), and every `compare_exchange`
//!    / `compare_exchange_weak` call must name both the success and
//!    failure orderings explicitly (two `Ordering::` mentions within
//!    the call). The DPOR models in `trainer/tests/dpor_protocols.rs`
//!    prove exactly which orderings the executor protocols need; this
//!    rule keeps a future "harmless" demotion from slipping past review
//!    unjustified.
//! 7. **transport-timeout** — no hard-coded `Duration::from_*` in
//!    `crates/transport/src`: socket deadlines, heartbeat pacing, and
//!    backoff must derive from `faults::RetryPolicy` / `FaultClock` so
//!    every wait in the byte-stream path obeys one tunable policy and
//!    stays replayable. A non-timeout use (e.g. unit conversion of a
//!    timestamp) may be waived with a same-line
//!    `// lint: allow(duration): <reason>`; an empty reason is itself
//!    a violation. Test code is exempt as for every rule.
//! 8. **hot-path-spawn** — inside a `// lint: hot-path` fn, creating a
//!    thread is a violation: `thread::spawn`, `thread::scope`, and any
//!    `.spawn(` (a `thread::Builder` chain, a scope handle). Per-step
//!    fan-out goes through `collectives::pool`, whose helpers are
//!    spawned once, at pool construction.
//! 9. **ffi-boundary** — `extern "C"` appears only in
//!    `crates/transport/src/sys.rs`, the one module that declares
//!    foreign functions (the bulk lane's `memfd_create`, `mmap`,
//!    `sendmsg`/`recvmsg`), and every `unsafe` in the transport crate
//!    carries its argument: a `SAFETY:` comment (or, on an `unsafe fn`,
//!    a `# Safety` doc section) in the comment lines just above it or
//!    on its own line. No waiver.
//!
//! The pass is deliberately token-based (comment- and string-stripped
//! lines, brace counting) rather than AST-based: it has zero
//! dependencies, runs in milliseconds, and the rules it enforces are
//! local enough that tokens suffice.

use std::fmt;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => lint(),
        _ => {
            eprintln!("usage: cargo run -p xtask -- lint");
            ExitCode::from(2)
        }
    }
}

/// The one file allowed to declare foreign functions (rule 9).
const FFI_MODULE: &str = "crates/transport/src/sys.rs";

/// Crates whose sources the lint pass skips: report binaries (`bench`)
/// and this tool itself — neither is library code on the hot path.
const EXEMPT_CRATES: &[&str] = &["bench", "xtask"];

fn lint() -> ExitCode {
    let root = workspace_root();
    let mut files: Vec<PathBuf> = Vec::new();
    collect_rs(&root.join("src"), &mut files);
    let crates_dir = root.join("crates");
    if let Ok(entries) = std::fs::read_dir(&crates_dir) {
        let mut dirs: Vec<PathBuf> = entries.filter_map(|e| e.ok()).map(|e| e.path()).collect();
        dirs.sort();
        for dir in dirs {
            let name = dir.file_name().and_then(|n| n.to_str()).unwrap_or_default();
            if EXEMPT_CRATES.contains(&name) {
                continue;
            }
            collect_rs(&dir.join("src"), &mut files);
        }
    }
    files.sort();

    // Pass 1: files that are whole-file test modules (`#[cfg(test)]
    // mod name;` in a parent) are exempt from every rule.
    let test_files = test_module_files(&files);

    // Pass 2: lint.
    let mut findings: Vec<Finding> = Vec::new();
    let mut linted = 0usize;
    let mut exempt = 0usize;
    for file in &files {
        if test_files.contains(file) {
            exempt += 1;
            continue;
        }
        match std::fs::read_to_string(file) {
            // A file-wide `#![cfg(test)]` makes the whole file test code.
            Ok(text) if text.lines().any(|l| l.trim() == "#![cfg(test)]") => exempt += 1,
            Ok(text) => {
                linted += 1;
                lint_file(file, &text, &root, &mut findings);
                lint_simd_fallback(file, &text, &root, &mut findings);
            }
            Err(err) => {
                eprintln!("xtask lint: cannot read {}: {err}", file.display());
                return ExitCode::FAILURE;
            }
        }
    }

    if findings.is_empty() {
        println!("xtask lint: clean ({linted} files, {exempt} test-module files exempt)");
        ExitCode::SUCCESS
    } else {
        for f in &findings {
            println!("{f}");
        }
        println!("xtask lint: {} violation(s)", findings.len());
        ExitCode::FAILURE
    }
}

fn workspace_root() -> PathBuf {
    // xtask lives at <root>/crates/xtask.
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest.parent().and_then(Path::parent).map(Path::to_path_buf).unwrap_or(manifest)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for entry in entries.filter_map(|e| e.ok()) {
        let path = entry.path();
        if path.is_dir() {
            collect_rs(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Files pulled in via `#[cfg(test)] mod name;` anywhere in the set.
fn test_module_files(files: &[PathBuf]) -> std::collections::HashSet<PathBuf> {
    let mut out = std::collections::HashSet::new();
    for file in files {
        let Ok(text) = std::fs::read_to_string(file) else { continue };
        let Some(dir) = file.parent() else { continue };
        let mut pending_cfg_test = false;
        for line in text.lines() {
            let t = line.trim();
            if t.starts_with("#[cfg(test)]") {
                pending_cfg_test = true;
                continue;
            }
            if pending_cfg_test {
                if let Some(rest) = t.strip_prefix("mod ").or_else(|| t.strip_prefix("pub mod ")) {
                    if let Some(name) = rest.strip_suffix(';') {
                        let name = name.trim();
                        out.insert(dir.join(format!("{name}.rs")));
                        out.insert(dir.join(name).join("mod.rs"));
                    }
                }
                if !t.starts_with("#[") {
                    pending_cfg_test = false;
                }
            }
        }
    }
    out
}

struct Finding {
    path: PathBuf,
    line: usize,
    rule: &'static str,
    detail: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.path.display(), self.line, self.rule, self.detail)
    }
}

/// Allocation-capable tokens banned inside `// lint: hot-path` bodies.
const ALLOC_TOKENS: &[&str] = &[
    "vec!",
    "Vec::new",
    "Vec::<",
    "with_capacity",
    ".to_vec()",
    "to_owned",
    ".collect(",
    ".clone()",
    "Box::new",
    "String::new",
    "String::from",
    "format!",
];

/// Thread-creating tokens banned inside `// lint: hot-path` bodies.
const SPAWN_TOKENS: &[&str] = &["thread::spawn", "thread::scope", ".spawn("];

/// Macros banned outright, waiver or not.
const BANNED_MACROS: &[&str] = &["dbg!(", "todo!(", "unimplemented!("];

fn lint_file(path: &Path, text: &str, root: &Path, findings: &mut Vec<Finding>) {
    let rel = path.strip_prefix(root).unwrap_or(path).to_path_buf();
    let in_transport = rel.starts_with("crates/transport/src");
    let all_lines: Vec<&str> = text.lines().collect();
    let mut depth: i64 = 0;
    // Skip state for `#[cfg(test)]`-gated items (mod blocks, fns).
    let mut pending_cfg_test = false;
    let mut skip_until_depth: Option<i64> = None;
    // Marker state for hot-path / no-f64 functions.
    let mut pending_hot = false;
    let mut pending_no_f64 = false;
    let mut marked: Option<(bool, bool, i64)> = None; // (hot, no_f64, body entry depth)
    let mut awaiting_body: Option<(bool, bool)> = None;

    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let code = strip_comments_and_strings(raw);
        let opens = code.matches('{').count() as i64;
        let closes = code.matches('}').count() as i64;

        // Inside a cfg(test)-gated block: only track braces.
        if let Some(until) = skip_until_depth {
            depth += opens - closes;
            if depth <= until {
                skip_until_depth = None;
            }
            continue;
        }

        let trimmed = raw.trim();
        if trimmed.starts_with("#[cfg(test)]") {
            pending_cfg_test = true;
            depth += opens - closes;
            continue;
        }
        if pending_cfg_test {
            if trimmed.starts_with("#[") {
                depth += opens - closes;
                continue; // further attributes on the gated item
            }
            pending_cfg_test = false;
            if opens > 0 {
                // Gated item with a body: skip until its braces close.
                let entry = depth;
                depth += opens - closes;
                if depth > entry {
                    skip_until_depth = Some(entry);
                }
                continue;
            }
            // Gated single-line item (`mod x;`, `use …;`): just skip it.
            depth += opens - closes;
            continue;
        }

        // Marker comments precede the fn they mark.
        if raw.contains("// lint: hot-path") {
            pending_hot = true;
        }
        if raw.contains("// lint: no-f64") {
            pending_no_f64 = true;
        }
        if (pending_hot || pending_no_f64) && code.contains("fn ") {
            awaiting_body = Some((pending_hot, pending_no_f64));
            pending_hot = false;
            pending_no_f64 = false;
        }
        if let Some((hot, no_f64)) = awaiting_body {
            if opens > 0 {
                marked = Some((hot, no_f64, depth));
                awaiting_body = None;
            }
        }

        // Rules inside a marked fn body (including its opening line).
        if let Some((hot, no_f64, entry)) = marked {
            if hot {
                for (tokens, rule, what) in [
                    (ALLOC_TOKENS, "hot-path-alloc", "allocation-capable"),
                    (SPAWN_TOKENS, "hot-path-spawn", "thread-creating"),
                ] {
                    for tok in tokens.iter().filter(|tok| code.contains(**tok)) {
                        findings.push(Finding {
                            path: rel.clone(),
                            line: line_no,
                            rule,
                            detail: format!("{what} `{tok}` in a `// lint: hot-path` fn"),
                        });
                    }
                }
            }
            if no_f64 && code.contains("f64") {
                findings.push(Finding {
                    path: rel.clone(),
                    line: line_no,
                    rule: "no-f64",
                    detail: "`f64` in a `// lint: no-f64` fn".to_string(),
                });
            }
            depth += opens - closes;
            if depth <= entry {
                marked = None;
            }
        } else {
            depth += opens - closes;
        }

        // Universal bans.
        for mac in BANNED_MACROS {
            if code.contains(mac) {
                findings.push(Finding {
                    path: rel.clone(),
                    line: line_no,
                    rule: "banned-macro",
                    detail: format!("`{}` must not ship in library code", &mac[..mac.len() - 1]),
                });
            }
        }
        if code.contains("thread::sleep") {
            match waiver_reason_for(raw, "sleep") {
                Some(reason) if !reason.is_empty() => {}
                Some(_) => findings.push(Finding {
                    path: rel.clone(),
                    line: line_no,
                    rule: "sleep-ban",
                    detail: "waiver comment present but the reason is empty".to_string(),
                }),
                None => findings.push(Finding {
                    path: rel.clone(),
                    line: line_no,
                    rule: "sleep-ban",
                    detail: "bare `thread::sleep` in library code — route delays through \
                             `faults::FaultClock` (waive with `// lint: allow(sleep): <reason>`)"
                        .to_string(),
                }),
            }
        }
        let has_unwrap = code.contains(".unwrap()") || code.contains(".expect(");
        if has_unwrap {
            match waiver_reason(raw) {
                Some(reason) if !reason.is_empty() => {}
                Some(_) => findings.push(Finding {
                    path: rel.clone(),
                    line: line_no,
                    rule: "unwrap-ban",
                    detail: "waiver comment present but the reason is empty".to_string(),
                }),
                None => findings.push(Finding {
                    path: rel.clone(),
                    line: line_no,
                    rule: "unwrap-ban",
                    detail: "`.unwrap()`/`.expect(` in library code (waive with \
                             `// lint: allow(unwrap): <reason>`)"
                        .to_string(),
                }),
            }
        }
        if code.contains("Ordering::Relaxed") {
            match waiver_reason_for(raw, "relaxed") {
                Some(reason) if !reason.is_empty() => {}
                Some(_) => findings.push(Finding {
                    path: rel.clone(),
                    line: line_no,
                    rule: "atomic-ordering",
                    detail: "waiver comment present but the invariant is empty".to_string(),
                }),
                None => findings.push(Finding {
                    path: rel.clone(),
                    line: line_no,
                    rule: "atomic-ordering",
                    detail: "`Ordering::Relaxed` in library code — name the invariant that \
                             makes it sound (`// lint: allow(relaxed): <invariant>`)"
                        .to_string(),
                }),
            }
        }
        if in_transport && code.contains("Duration::from_") {
            match waiver_reason_for(raw, "duration") {
                Some(reason) if !reason.is_empty() => {}
                Some(_) => findings.push(Finding {
                    path: rel.clone(),
                    line: line_no,
                    rule: "transport-timeout",
                    detail: "waiver comment present but the reason is empty".to_string(),
                }),
                None => findings.push(Finding {
                    path: rel.clone(),
                    line: line_no,
                    rule: "transport-timeout",
                    detail: "hard-coded `Duration::from_*` in the transport layer — derive \
                             waits from `faults::RetryPolicy`/`FaultClock` (waive a \
                             non-timeout use with `// lint: allow(duration): <reason>`)"
                        .to_string(),
                }),
            }
        }
        if code.contains("extern") && raw.contains("extern \"") && !rel.ends_with(FFI_MODULE) {
            findings.push(Finding {
                path: rel.clone(),
                line: line_no,
                rule: "ffi-boundary",
                detail: format!("`extern \"…\"` outside `{FFI_MODULE}`, the one FFI module"),
            });
        }
        if in_transport && has_word(&code, "unsafe") && !safety_argued(&all_lines, idx) {
            findings.push(Finding {
                path: rel.clone(),
                line: line_no,
                rule: "ffi-boundary",
                detail: "`unsafe` without a `SAFETY:` comment (or `# Safety` section) \
                         just above it"
                    .to_string(),
            });
        }
        if code.contains("compare_exchange") && !orderings_explicit(&all_lines, idx) {
            findings.push(Finding {
                path: rel.clone(),
                line: line_no,
                rule: "atomic-ordering",
                detail: "`compare_exchange*` must name both the success and failure \
                         orderings explicitly (two `Ordering::` mentions)"
                    .to_string(),
            });
        }
    }
}

/// `word` as a whole identifier in `code`.
fn has_word(code: &str, word: &str) -> bool {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    code.match_indices(word).any(|(at, _)| {
        !code[..at].chars().next_back().is_some_and(ident)
            && !code[at + word.len()..].chars().next().is_some_and(ident)
    })
}

/// True when the line `all_lines[idx]`, or the run of comment and
/// attribute lines directly above it, argues its `unsafe`: a
/// `SAFETY:` comment, or a `# Safety` doc section.
fn safety_argued(all_lines: &[&str], idx: usize) -> bool {
    let argues = |l: &str| l.contains("SAFETY:") || l.contains("# Safety");
    if argues(all_lines[idx]) {
        return true;
    }
    all_lines[..idx]
        .iter()
        .rev()
        .map(|l| l.trim())
        .take_while(|l| l.starts_with("//") || l.starts_with("#["))
        .any(argues)
}

/// True when the `compare_exchange*` call starting on `all_lines[idx]`
/// names two `Ordering::` values within the call's argument list. The
/// call may wrap: stripped lines are joined from the call site until
/// its parentheses balance (bounded lookahead — a call that hasn't
/// closed within 8 lines is judged on what was seen).
fn orderings_explicit(all_lines: &[&str], idx: usize) -> bool {
    let mut mentions = 0usize;
    let mut paren_depth = 0i64;
    let mut seen_open = false;
    for (k, raw) in all_lines.iter().enumerate().skip(idx).take(8) {
        let code = strip_comments_and_strings(raw);
        let scan = if k == idx {
            // Start at the call itself, not earlier text on the line.
            match code.find("compare_exchange") {
                Some(at) => code[at..].to_string(),
                None => code,
            }
        } else {
            code
        };
        mentions += scan.matches("Ordering::").count();
        for c in scan.chars() {
            match c {
                '(' => {
                    paren_depth += 1;
                    seen_open = true;
                }
                ')' => paren_depth -= 1,
                _ => {}
            }
        }
        if seen_open && paren_depth <= 0 {
            break;
        }
    }
    mentions >= 2
}

/// The fn name declared on `line`, if any.
fn declared_fn_name(line: &str) -> Option<&str> {
    let at = line.find("fn ")?;
    // Reject `hot_fn x` style false positives: `fn` must start a word.
    if at > 0 && line.as_bytes()[at - 1].is_ascii_alphanumeric() {
        return None;
    }
    let rest = line[at + 3..].trim_start();
    let end = rest.find(|c: char| !c.is_ascii_alphanumeric() && c != '_').unwrap_or(rest.len());
    if end == 0 {
        None
    } else {
        Some(&rest[..end])
    }
}

/// Rule 6: the feature suffix a `#[target_feature]` fn may carry, and
/// the `simd::have_*` predicate its file must then consult.
const SIMD_SUFFIXES: [(&str, &str); 4] = [
    ("_avx512", "have_avx512f("),
    ("_avx2", "have_avx2_fma("),
    ("_f16c", "have_f16c("),
    ("_pclmul", "have_pclmul("),
];

/// Index of the line on which the body of the fn declared on line
/// `decl` closes (brace counting over stripped lines); `decl` itself
/// for a bodiless declaration.
fn body_end(stripped: &[String], decl: usize) -> usize {
    let mut depth = 0i64;
    let mut opened = false;
    for (idx, code) in stripped.iter().enumerate().skip(decl) {
        depth += code.matches('{').count() as i64 - code.matches('}').count() as i64;
        opened |= code.contains('{');
        if (opened && depth <= 0) || (!opened && code.contains(';')) {
            return idx;
        }
    }
    stripped.len().saturating_sub(1)
}

/// Rule 6 (`simd-fallback`): see the module docs. Whole-file pass —
/// the twin/dispatch requirements relate distant lines, so it runs
/// separately from the line-state machine in [`lint_file`].
fn lint_simd_fallback(path: &Path, text: &str, root: &Path, findings: &mut Vec<Finding>) {
    let rel = path.strip_prefix(root).unwrap_or(path).to_path_buf();
    // Collect the `#[target_feature]` fns: attribute line(s), then the
    // declaration. Stripped lines keep attributes-in-strings (as in
    // this file's own tests) from registering.
    let stripped: Vec<String> = text.lines().map(strip_comments_and_strings).collect();
    // (declaration line, name, last line of the body), lines 0-based.
    let mut simd_fns: Vec<(usize, &str, usize)> = Vec::new();
    let mut pending = false;
    for (idx, code) in stripped.iter().enumerate() {
        let t = code.trim();
        if t.starts_with("#[target_feature") {
            pending = true;
            continue;
        }
        if pending {
            if t.starts_with("#[") || t.is_empty() {
                continue;
            }
            if let Some(name) = declared_fn_name(code) {
                simd_fns.push((idx, name, body_end(&stripped, idx)));
            }
            pending = false;
        }
    }
    if simd_fns.is_empty() {
        return;
    }

    let call_sites = |name: &str| -> Vec<usize> {
        let declaration = format!("fn {name}");
        let call = format!("{name}(");
        let is_call = |l: &String| l.contains(&call) && !l.contains(&declaration);
        stripped.iter().enumerate().filter(|(_, l)| is_call(l)).map(|(i, _)| i).collect()
    };
    let calls = |name: &str| call_sites(name).len();
    for &(decl, name, _) in &simd_fns {
        let line = decl + 1;
        let Some((stem, predicate)) = SIMD_SUFFIXES
            .iter()
            .find_map(|(suffix, predicate)| Some((name.strip_suffix(suffix)?, *predicate)))
        else {
            findings.push(Finding {
                path: rel.clone(),
                line,
                rule: "simd-fallback",
                detail: format!(
                    "`#[target_feature]` fn `{name}` must carry an \
                     `_avx512`/`_avx2`/`_f16c`/`_pclmul` suffix naming the feature it needs"
                ),
            });
            continue;
        };
        // A helper reached only from `#[target_feature]` fns of its own
        // suffix: those drivers carry the twin and the dispatch.
        let suffix = &name[stem.len()..];
        let in_same_suffix_fn = |site: &usize| {
            simd_fns.iter().any(|(start, caller, end)| {
                *caller != name && caller.ends_with(suffix) && (start..=end).contains(&site)
            })
        };
        let sites = call_sites(name);
        if !sites.is_empty() && sites.iter().all(in_same_suffix_fn) {
            continue;
        }
        let twin = format!("{stem}_scalar");
        if !stripped.iter().any(|l| l.contains(&format!("fn {twin}"))) {
            findings.push(Finding {
                path: rel.clone(),
                line,
                rule: "simd-fallback",
                detail: format!("`{name}` has no same-file scalar twin `{twin}`"),
            });
            continue;
        }
        if !stripped.iter().any(|l| l.contains(predicate)) {
            findings.push(Finding {
                path: rel.clone(),
                line,
                rule: "simd-fallback",
                detail: format!(
                    "`{name}` has no runtime-dispatch call site: the file never consults \
                     `{}...)`",
                    predicate
                ),
            });
        }
        if calls(name) == 0 {
            findings.push(Finding {
                path: rel.clone(),
                line,
                rule: "simd-fallback",
                detail: format!("`{name}` is declared but never dispatched"),
            });
        }
        if calls(&twin) == 0 {
            findings.push(Finding {
                path: rel.clone(),
                line,
                rule: "simd-fallback",
                detail: format!("scalar twin `{twin}` is never called — the fallback is dead"),
            });
        }
    }
}

/// The reason text of a same-line `// lint: allow(unwrap): …` waiver.
fn waiver_reason(raw: &str) -> Option<&str> {
    waiver_reason_for(raw, "unwrap")
}

/// The reason text of a same-line `// lint: allow(<kind>): …` waiver.
fn waiver_reason_for<'a>(raw: &'a str, kind: &str) -> Option<&'a str> {
    let marker = format!("// lint: allow({kind}):");
    raw.find(&marker).map(|at| raw[at + marker.len()..].trim())
}

/// Blank out `//` comments, string literals, char literals, and
/// lifetime-free quoting so brace counting and token matching see only
/// code. Keeps the line length intact where convenient; the output is
/// only scanned for substrings and braces.
fn strip_comments_and_strings(line: &str) -> String {
    let mut out = String::with_capacity(line.len());
    let bytes = line.as_bytes();
    let mut i = 0;
    let mut in_str = false;
    while i < bytes.len() {
        let c = bytes[i] as char;
        if in_str {
            if c == '\\' {
                i += 2;
                continue;
            }
            if c == '"' {
                in_str = false;
            }
            i += 1;
            continue;
        }
        match c {
            '/' if i + 1 < bytes.len() && bytes[i + 1] == b'/' => break, // line comment
            '"' => {
                in_str = true;
                i += 1;
            }
            '\'' => {
                // Char literal: 'x' or '\n' or '\\'; lifetimes ('a) have
                // no closing quote within a few chars — leave them.
                if i + 2 < bytes.len() && bytes[i + 2] == b'\'' && bytes[i + 1] != b'\\' {
                    i += 3;
                } else if i + 3 < bytes.len() && bytes[i + 1] == b'\\' && bytes[i + 3] == b'\'' {
                    i += 4;
                } else {
                    out.push(c);
                    i += 1;
                }
            }
            _ => {
                out.push(c);
                i += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings_for(src: &str) -> Vec<(String, usize)> {
        let mut out = Vec::new();
        lint_file(Path::new("x.rs"), src, Path::new("."), &mut out);
        out.into_iter().map(|f| (f.rule.to_string(), f.line)).collect()
    }

    fn transport_findings_for(src: &str) -> Vec<(String, usize)> {
        let mut out = Vec::new();
        lint_file(Path::new("crates/transport/src/x.rs"), src, Path::new("."), &mut out);
        out.into_iter().map(|f| (f.rule.to_string(), f.line)).collect()
    }

    #[test]
    fn transport_duration_literals_need_a_waiver() {
        let src = "\
fn f(policy: &RetryPolicy) {
    let t = Duration::from_millis(250);
    let u = Duration::from_millis(ms); // lint: allow(duration):
    let v = Duration::from_millis(ms); // lint: allow(duration): unit conversion, not a timeout
    let w = policy.deadline(0);
}
";
        assert_eq!(
            transport_findings_for(src),
            vec![("transport-timeout".to_string(), 2), ("transport-timeout".to_string(), 3)]
        );
        // The same source outside crates/transport/src is untouched.
        assert_eq!(findings_for(src), vec![]);
    }

    #[test]
    fn foreign_functions_live_in_the_one_ffi_module() {
        let src = "\
extern \"C\" {
    fn getpid() -> i32;
}
extern crate alloc;
// extern \"C\" in a comment is fine
";
        assert_eq!(findings_for(src), vec![("ffi-boundary".to_string(), 1)]);
        let mut out = Vec::new();
        lint_file(Path::new(FFI_MODULE), src, Path::new("."), &mut out);
        assert!(out.is_empty(), "the FFI module may declare them");
    }

    #[test]
    fn transport_unsafe_must_argue_its_safety() {
        let src = "\
fn f(p: *const u8) -> u8 {
    // SAFETY: the caller's pointer is live.
    let a = unsafe { *p };
    // Reads the next byte.
    let b = unsafe { *p.add(1) };
    let c = unsafe { *p.add(2) }; // SAFETY: in bounds.
    a + b + c
}
/// Frees it.
///
/// # Safety
/// `p` came from `alloc`.
unsafe fn g(p: *mut u8) {}
unsafe impl Send for X {}
";
        let want = vec![("ffi-boundary".to_string(), 5), ("ffi-boundary".to_string(), 14)];
        assert_eq!(transport_findings_for(src), want);
        // Outside the transport crate only the first half applies.
        assert_eq!(findings_for(src), vec![]);
    }

    #[test]
    fn transport_duration_in_test_code_is_exempt() {
        let src = "\
#[cfg(test)]
mod tests {
    fn f() {
        let t = Duration::from_secs(2);
    }
}
";
        assert_eq!(transport_findings_for(src), vec![]);
    }

    #[test]
    fn relaxed_ordering_needs_a_waiver_with_an_invariant() {
        let src = "\
fn f(c: &AtomicU64) {
    c.fetch_add(1, Ordering::Relaxed);
    c.load(Ordering::Relaxed); // lint: allow(relaxed):
    c.store(0, Ordering::Relaxed); // lint: allow(relaxed): monotonic counter, read under lock
}
";
        assert_eq!(
            findings_for(src),
            vec![("atomic-ordering".to_string(), 2), ("atomic-ordering".to_string(), 3)]
        );
    }

    #[test]
    fn relaxed_in_cfg_test_code_is_exempt() {
        let src = "\
#[cfg(test)]
mod tests {
    fn f(c: &AtomicU64) {
        c.fetch_add(1, Ordering::Relaxed);
    }
}
";
        assert!(findings_for(src).is_empty());
    }

    #[test]
    fn compare_exchange_must_name_both_orderings() {
        let src = "\
fn f(w: &AtomicU64) {
    let _ = w.compare_exchange_weak(a, b, Ordering::AcqRel, Ordering::Acquire);
    let _ = w.compare_exchange(a, b, Ordering::SeqCst);
}
";
        assert_eq!(findings_for(src), vec![("atomic-ordering".to_string(), 3)]);
    }

    #[test]
    fn wrapped_compare_exchange_calls_are_scanned_to_the_closing_paren() {
        let src = "\
fn f(w: &AtomicU64) {
    let _ = w.compare_exchange_weak(
        cur,
        new,
        Ordering::AcqRel,
        Ordering::Acquire,
    );
}
";
        assert!(findings_for(src).is_empty());
    }

    #[test]
    fn thread_creation_is_banned_in_hot_path_fns() {
        let src = "\
// lint: hot-path
fn step(pool: &mut CorePool, xs: &mut [f32]) {
    std::thread::scope(|s| {
        s.spawn(|| xs.fill(0.0));
    });
    let h = thread::spawn(|| ());
    let b = thread::Builder::new()
        .name(name)
        .spawn(move || ());
    pool.run(&|lane| work(lane));
}

fn cold() {
    std::thread::scope(|s| {
        s.spawn(|| ());
    });
}
";
        let at = |line| ("hot-path-spawn".to_string(), line);
        assert_eq!(findings_for(src), vec![at(3), at(4), at(6), at(9)]);
    }

    #[test]
    fn static_recorder_api_passes_the_hot_path_rule() {
        let src = "\
// lint: hot-path
fn step(lane: &Lane) {
    lane.record_args(\"CAT\", \"name\", t0, dur, 0, 1);
    lane.record(\"CAT\", \"name\", t0, dur);
}
";
        assert!(findings_for(src).is_empty());
    }

    #[test]
    fn hot_path_marker_covers_only_the_next_fn() {
        let src = "\
// lint: hot-path
fn hot(lane: &Lane) {
    lane.record_args(\"CAT\", \"name\", t0, dur, 0, 1);
}

fn cold(lane: &Lane) {
    let v = Vec::new();
}
";
        assert!(findings_for(src).is_empty());
    }

    fn simd_findings_for(src: &str) -> Vec<(String, usize)> {
        let mut out = Vec::new();
        lint_simd_fallback(Path::new("x.rs"), src, Path::new("."), &mut out);
        out.into_iter().map(|f| (f.rule.to_string(), f.line)).collect()
    }

    const SIMD_OK: &str = "\
fn sum_scalar(x: &mut [f32]) {}

#[cfg(target_arch = \"x86_64\")]
#[target_feature(enable = \"avx2,fma\")]
unsafe fn sum_avx2(x: &mut [f32]) {}

pub fn sum(x: &mut [f32]) {
    if simd::have_avx2_fma() {
        return unsafe { sum_avx2(x) };
    }
    sum_scalar(x)
}
";

    #[test]
    fn complete_simd_triple_passes() {
        assert!(simd_findings_for(SIMD_OK).is_empty());
    }

    #[test]
    fn simd_fn_without_feature_suffix_fails() {
        let src = SIMD_OK.replace("sum_avx2", "sum_fast");
        let f = simd_findings_for(&src);
        assert_eq!(f, vec![("simd-fallback".to_string(), 5)]);
    }

    #[test]
    fn missing_scalar_twin_fails() {
        let src = SIMD_OK.replace("sum_scalar", "sum_slow");
        assert_eq!(simd_findings_for(&src), vec![("simd-fallback".to_string(), 5)]);
    }

    #[test]
    fn missing_dispatch_predicate_fails() {
        let src = SIMD_OK.replace("simd::have_avx2_fma()", "true");
        let f = simd_findings_for(&src);
        assert_eq!(f, vec![("simd-fallback".to_string(), 5)], "{f:?}");
    }

    #[test]
    fn uncalled_twins_fail() {
        let src = "\
fn pack_scalar(x: &mut [f32]) {}

#[target_feature(enable = \"f16c\")]
unsafe fn pack_f16c(x: &mut [f32]) {}

pub fn pack(x: &mut [f32]) {
    let _ = simd::have_f16c();
}
";
        let f = simd_findings_for(src);
        assert_eq!(
            f,
            vec![("simd-fallback".to_string(), 4), ("simd-fallback".to_string(), 4)],
            "both the simd fn and the scalar twin are dead: {f:?}"
        );
    }

    const PCLMUL_OK: &str = "\
fn update_scalar(crc: u32, data: &[u8]) -> u32 { crc }

#[cfg(target_arch = \"x86_64\")]
#[target_feature(enable = \"pclmulqdq\")]
unsafe fn update_pclmul(crc: u32, data: &[u8]) -> u32 { crc }

fn update(crc: u32, data: &[u8]) -> u32 {
    if data.len() >= 64 && crate::have_pclmul() {
        return unsafe { update_pclmul(crc, data) };
    }
    update_scalar(crc, data)
}
";

    #[test]
    fn pclmul_suffix_gets_the_same_four_checks() {
        assert!(simd_findings_for(PCLMUL_OK).is_empty());
        let at = vec![("simd-fallback".to_string(), 5)];
        // (a) the suffix must name the feature,
        assert_eq!(simd_findings_for(&PCLMUL_OK.replace("update_pclmul", "update_clmul")), at);
        // (b) the scalar twin must exist in the file,
        assert_eq!(simd_findings_for(&PCLMUL_OK.replace("update_scalar", "update_slow")), at);
        // (c) the matching predicate — not another feature's — must gate it,
        assert_eq!(simd_findings_for(&PCLMUL_OK.replace("have_pclmul()", "have_f16c()")), at);
        // (d) and both twins must be called.
        let undispatched = PCLMUL_OK.replace("return unsafe { update_pclmul(crc, data) };", "");
        assert_eq!(simd_findings_for(&undispatched), at);
        let no_fallback = PCLMUL_OK.replace("    update_scalar(crc, data)\n", "    crc\n");
        assert_eq!(simd_findings_for(&no_fallback), at);
    }

    const AVX512_OK: &str = "\
fn gemm_scalar(x: &mut [f32]) {}

#[cfg(target_arch = \"x86_64\")]
#[target_feature(enable = \"avx512f\")]
unsafe fn gemm_avx512(x: &mut [f32]) {}

pub fn gemm(x: &mut [f32]) {
    if simd::have_avx512f() {
        return unsafe { gemm_avx512(x) };
    }
    gemm_scalar(x)
}
";

    #[test]
    fn avx512_suffix_gets_the_same_four_checks() {
        assert!(simd_findings_for(AVX512_OK).is_empty());
        let at = vec![("simd-fallback".to_string(), 5)];
        assert_eq!(simd_findings_for(&AVX512_OK.replace("gemm_avx512", "gemm_zmm")), at);
        assert_eq!(simd_findings_for(&AVX512_OK.replace("gemm_scalar", "gemm_slow")), at);
        // The narrower ISA's predicate does not license the wider kernel.
        assert_eq!(simd_findings_for(&AVX512_OK.replace("have_avx512f()", "have_avx2_fma()")), at);
        let undispatched = AVX512_OK.replace("return unsafe { gemm_avx512(x) };", "");
        assert_eq!(simd_findings_for(&undispatched), at);
    }

    const TILE_HELPER_OK: &str = "\
fn gemm_scalar(x: &mut [f32]) {}

#[target_feature(enable = \"avx512f\")]
unsafe fn tile_avx512(x: &mut [f32]) {}

#[target_feature(enable = \"avx512f\")]
unsafe fn gemm_avx512(x: &mut [f32]) {
    tile_avx512(x)
}

pub fn gemm(x: &mut [f32]) {
    if simd::have_avx512f() {
        return unsafe { gemm_avx512(x) };
    }
    gemm_scalar(x)
}
";

    #[test]
    fn helper_called_only_from_same_suffix_simd_fns_needs_no_twin() {
        // `tile_avx512` has no `tile_scalar`: its one caller's twin covers it.
        assert!(simd_findings_for(TILE_HELPER_OK).is_empty());
        // Called from plain code as well, it is a kernel in its own
        // right again and owes a twin.
        let leaked = TILE_HELPER_OK.replace("    gemm_scalar(x)\n", "    tile_avx512(x)\n");
        let f = simd_findings_for(&leaked);
        assert!(f.contains(&("simd-fallback".to_string(), 4)), "{f:?}");
        // A caller compiled for another ISA does not count either.
        let mixed = TILE_HELPER_OK
            .replace("unsafe fn gemm_avx512", "unsafe fn gemm_avx2")
            .replace("gemm_avx512(x)", "gemm_avx2(x)")
            .replace("have_avx512f()", "have_avx2_fma()");
        let f = simd_findings_for(&mixed);
        assert!(f.contains(&("simd-fallback".to_string(), 4)), "{f:?}");
        // And a helper nothing calls is still dead code.
        let dead = TILE_HELPER_OK.replace("    tile_avx512(x)\n", "");
        assert_eq!(simd_findings_for(&dead), vec![("simd-fallback".to_string(), 4)]);
    }

    #[test]
    fn files_without_target_feature_are_untouched() {
        assert!(simd_findings_for("fn plain() {}\n").is_empty());
    }

    #[test]
    fn cfg_test_blocks_are_exempt_from_hot_path_rules() {
        let src = "\
#[cfg(test)]
mod tests {
    // lint: hot-path
    fn helper(lane: &Lane) {
        let v = Vec::new();
    }
}
";
        assert!(findings_for(src).is_empty());
    }
}
