//! Workspace dev tasks.
//!
//! * `cargo xtask check` runs the token-level concurrency lint suite
//!   over workspace + vendor sources (see `lints.rs` for the rules,
//!   `tokens.rs` for the lexer underneath, `xtask-allowlist.txt` at the
//!   repo root for deliberate exceptions).
//! * `cargo xtask replay [--strict] <trace>` re-executes a schedule
//!   trace recorded by a failing (or `RS_RECORD_TRACE`d) `schedule_fuzz`
//!   stress test: it reads the trace header and spawns the exact
//!   `cargo test` invocation for that scenario with `RS_REPLAY_TRACE`
//!   pointing at the file, so the model layer feeds the recorded yield
//!   decisions back in order.
//!
//! Exit status: 0 clean, 1 on violations / stale allowlist / failed
//! replay, 2 on usage errors.

mod allowlist;
mod lints;
mod tokens;
mod trace;

use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("check") => run_check(),
        Some("replay") => run_replay(&args[1..]),
        Some(other) => {
            eprintln!("xtask: unknown command `{other}`");
            usage()
        }
        None => usage(),
    }
}

fn usage() -> ExitCode {
    eprintln!("usage: cargo xtask check");
    eprintln!("       cargo xtask replay [--strict] <trace-file>");
    ExitCode::from(2)
}

/// The workspace root: two levels above this crate's manifest dir.
fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/xtask sits two levels below the workspace root")
        .to_path_buf()
}

/// Collects the `.rs` files the lints cover: everything under `src/`,
/// `crates/`, `vendor/`, and `examples/`, excluding `tests/`, `benches/`,
/// and `target/` directories (integration tests and benches are exempt
/// by policy, target is build output).
fn collect_sources(root: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    for top in ["src", "crates", "vendor", "examples"] {
        walk(&root.join(top), &mut files);
    }
    files.sort();
    files
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            let name = entry.file_name();
            if name == "tests" || name == "benches" || name == "target" || name == ".git" {
                continue;
            }
            walk(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn run_check() -> ExitCode {
    let root = workspace_root();

    let allowlist_path = root.join("xtask-allowlist.txt");
    let allowlist_text = fs::read_to_string(&allowlist_path).unwrap_or_default();
    let mut entries = match allowlist::parse(&allowlist_text) {
        Ok(entries) => entries,
        Err(errors) => {
            for e in &errors {
                eprintln!("error: {e}");
            }
            return ExitCode::from(1);
        }
    };

    let files = collect_sources(&root);
    let mut violations = Vec::new();
    let mut lock_order = lints::LockOrderCollector::new();
    let mut scanned = 0usize;
    for path in &files {
        let Ok(source) = fs::read_to_string(path) else { continue };
        let rel = path.strip_prefix(&root).unwrap_or(path).to_string_lossy().replace('\\', "/");
        scanned += 1;
        violations.extend(lints::lint_source(&rel, &source));
        lock_order.collect(&rel, &source);
    }
    violations.extend(lock_order.finish());

    let (kept, suppressed) = allowlist::filter(violations, &mut entries);
    let stale = allowlist::stale(&entries);

    for v in &kept {
        println!("{}:{}:{}: [{}] {}", v.file, v.line, v.col, v.lint, v.message);
        println!("    {}", v.text);
        println!("    {}{}", " ".repeat(v.text_col.saturating_sub(1)), "^".repeat(v.span.max(1)));
    }
    for msg in &stale {
        eprintln!("error: {msg}");
    }

    if kept.is_empty() && stale.is_empty() {
        println!(
            "xtask check: {scanned} files clean ({} allowlisted exception{})",
            suppressed,
            if suppressed == 1 { "" } else { "s" }
        );
        ExitCode::SUCCESS
    } else {
        let mut per_lint = String::new();
        for lint in lints::ALL_LINTS {
            let n = kept.iter().filter(|v| v.lint == lint).count();
            if n > 0 {
                per_lint.push_str(&format!(" {lint}={n}"));
            }
        }
        eprintln!(
            "xtask check: {} violation{} in {scanned} files{per_lint} ({} stale allowlist entr{})",
            kept.len(),
            if kept.len() == 1 { "" } else { "s" },
            stale.len(),
            if stale.len() == 1 { "y" } else { "ies" },
        );
        ExitCode::from(1)
    }
}

/// `cargo xtask replay [--strict] <trace>` — re-run the recorded
/// scenario with the trace's decisions fed back in.
fn run_replay(args: &[String]) -> ExitCode {
    let mut strict = false;
    let mut path: Option<&str> = None;
    for a in args {
        match a.as_str() {
            "--strict" => strict = true,
            other if path.is_none() && !other.starts_with('-') => path = Some(other),
            other => {
                eprintln!("xtask replay: unexpected argument `{other}`");
                return usage();
            }
        }
    }
    let Some(path) = path else {
        return usage();
    };

    let bytes = match fs::read(path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("xtask replay: cannot read `{path}`: {e}");
            return ExitCode::from(1);
        }
    };
    let trace = match trace::Trace::parse(&bytes) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("xtask replay: `{path}` is not a schedule trace: {e}");
            return ExitCode::from(1);
        }
    };

    println!(
        "xtask replay: {} / {} / {} — seed {}, {} decision{} ({} yield{}){}",
        trace.package,
        trace.target,
        trace.scenario,
        trace.seed,
        trace.decisions.len(),
        if trace.decisions.len() == 1 { "" } else { "s" },
        trace.yields_taken,
        if trace.yields_taken == 1 { "" } else { "s" },
        if strict { ", strict" } else { "" },
    );

    let abs = fs::canonicalize(path).unwrap_or_else(|_| PathBuf::from(path));
    let mut cmd = std::process::Command::new(env!("CARGO"));
    cmd.current_dir(workspace_root())
        .arg("test")
        .arg("-p")
        .arg(&trace.package)
        .arg("--test")
        .arg(&trace.target)
        .arg("--features")
        .arg(format!("{}/schedule_fuzz", trace.package))
        .arg(&trace.scenario)
        .arg("--")
        .arg("--exact")
        .arg("--nocapture")
        .env("RS_REPLAY_TRACE", &abs);
    if strict {
        cmd.env("RS_REPLAY_STRICT", "1");
    }
    if !trace.threads_env.is_empty() {
        cmd.env("RS_NUM_THREADS", &trace.threads_env);
    }

    match cmd.status() {
        Ok(status) if status.success() => {
            println!("xtask replay: scenario completed under the recorded schedule");
            ExitCode::SUCCESS
        }
        Ok(status) => {
            eprintln!("xtask replay: scenario failed under the recorded schedule ({status})");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("xtask replay: failed to spawn cargo: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokens::{lex, TokenKind};

    /// The lexer's whole-workspace invariant: on every file the lints
    /// scan, tokens are ordered and disjoint, only whitespace falls
    /// between them, and every char literal is one short line. A
    /// mis-lexed escape that swallows the rest of a file as one char
    /// literal fails the last check.
    #[test]
    fn lexer_covers_every_source_file_exactly() {
        let root = workspace_root();
        let files = collect_sources(&root);
        assert!(!files.is_empty(), "no sources under {}", root.display());
        for path in &files {
            let src = fs::read_to_string(path).expect("readable source");
            let file = path.display();
            let mut prev_end = 0;
            for t in lex(&src) {
                assert!(prev_end <= t.start && t.start < t.end, "{file}: token {t:?} out of order");
                let gap = &src[prev_end..t.start];
                assert!(gap.trim().is_empty(), "{file}:{}: non-whitespace {gap:?}", t.line);
                if t.kind == TokenKind::CharLit {
                    assert!(
                        t.end_line == t.line && t.len() <= 12,
                        "{file}:{}: char literal runs to line {}, {} bytes",
                        t.line,
                        t.end_line,
                        t.len()
                    );
                }
                prev_end = t.end;
            }
            assert!(src[prev_end..].trim().is_empty(), "{file}: non-whitespace after last token");
        }
    }
}
