//! Command line of the repository benchmark:
//!
//! ```text
//! perfbench --workload <sssp-grid|serve-road|shard-grid> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a run stamp and a human-readable report, then, as the last line
//! of standard output, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. The full report (stamp, every measured value
//! with its sample count) and, for traced runs, the spans are written to
//! `perfbench/out/`. Exits non-zero on a wrong answer, a bad argument or a
//! debug build.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::{num, run_workload, Outcome, RunConfig, WORKLOADS};

struct Args {
    workload: String,
    cfg: RunConfig,
}

fn parse() -> Result<Args, String> {
    let mut workload = None;
    let mut cfg = RunConfig::new(0, 10.0, false);
    let mut seed = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| bad(&e))?),
            "--seconds" => cfg.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => cfg.trace = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    cfg.seed = seed.ok_or("--seed is required")?;
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    if !cfg.seconds.is_finite() || cfg.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args { workload, cfg })
}

/// The checkout's git revision, read from its `.git` directly so the run
/// starts no process and reads nothing outside the checkout; "unknown"
/// when the checkout is not a git work tree.
fn git_revision() -> String {
    let git = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: PathBuf| std::fs::read_to_string(p).ok();
    let resolve = || -> Option<String> {
        let head = read(git.join("HEAD"))?.trim().to_string();
        let Some(name) = head.strip_prefix("ref: ") else { return Some(head) };
        if let Some(rev) = read(git.join(name)) {
            return Some(rev.trim().to_string());
        }
        let packed = read(git.join("packed-refs"))?;
        let line = packed.lines().find(|l| l.ends_with(&format!(" {name}")))?;
        line.split(' ').next().map(str::to_string)
    };
    resolve().map_or_else(|| "unknown".into(), |rev| rev.chars().take(12).collect())
}

/// The run stamp as JSON fields.
fn stamp(args: &Args, out: &Outcome) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let threads_env = std::env::var("RS_NUM_THREADS").unwrap_or_default();
    format!(
        "\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"git_revision\": \"{}\", \"nproc\": {nproc}, \"pool_threads\": {}, \
         \"rs_num_threads\": \"{threads_env}\", \"profile\": \"release\", \
         \"n\": {}, \"m\": {}, \"query_stream_hash\": \"{:016x}\"",
        args.workload,
        args.cfg.seed,
        num(args.cfg.seconds),
        args.cfg.trace,
        git_revision(),
        rs_par::num_threads(),
        out.n,
        out.m,
        out.stream_hash
    )
}

/// Every measured value with its sample count, for the report file.
fn values_json(out: &Outcome) -> String {
    let fields: Vec<String> = out
        .values
        .iter()
        .map(|(k, v)| match out.samples.get(k) {
            Some(n) => format!("\"{k}\": {{\"value\": {}, \"samples\": {n}}}", num(*v)),
            None => format!("\"{k}\": {{\"value\": {}}}", num(*v)),
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn write_files(args: &Args, out: &Outcome, stamp: &str) -> std::io::Result<()> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let base = format!(
        "{}-seed{}-trace{}-threads{}",
        args.workload,
        args.cfg.seed,
        u8::from(args.cfg.trace),
        rs_par::num_threads()
    );
    let report = format!(
        "{{{stamp}, \"correct\": {}, \"attempted\": {}, \"refused\": {}, \"wrong\": {}, \
         \"values\": {}, \"latency_ms\": [{}]}}\n",
        out.correct(),
        out.attempted,
        out.refused,
        out.wrong,
        values_json(out),
        out.latency_ms.iter().map(|&v| num(v)).collect::<Vec<_>>().join(", ")
    );
    std::fs::write(dir.join(format!("{base}.json")), report)?;
    if let Some(tracer) = &out.tracer {
        std::fs::write(dir.join(format!("{base}.spans.json")), tracer.to_json())?;
    }
    Ok(())
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("perfbench: refusing to report from a debug build; build with --release");
        return ExitCode::from(2);
    }
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let out = run_workload(&args.workload, &args.cfg).expect("workload name was checked");
    let stamp = stamp(&args, &out);
    println!("stamp: {{{stamp}}}");
    for (name, value, unit) in out.emitted(args.cfg.trace) {
        let samples = out.samples.get(&name).map_or(String::new(), |n| format!("  (n = {n})"));
        println!("{name:<40} {:>16} {unit}{samples}", num(value));
    }
    println!(
        "attempted {}, refused {}, wrong {}{}",
        out.attempted,
        out.refused,
        out.wrong,
        if args.cfg.trace { ", traced" } else { "" }
    );
    if let Err(e) = write_files(&args, &out, &stamp) {
        eprintln!("perfbench: could not write the report files: {e}");
    }
    println!("{}", out.result_json(args.cfg.trace));
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
