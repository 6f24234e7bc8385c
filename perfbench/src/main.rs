//! One benchmark for what a user of the Cuttlesim reproduction waits for.
//!
//! ```text
//! perfbench --workload W --seed N --seconds S --trace 0|1
//! ```
//!
//! Workloads: `sim-rv32i`, `campaign-rv32i`, `fuzz-sweep`, `serve-durable`
//! (see README.md). Each run sets up (timed, several times, median
//! reported), measures for `--seconds` in rounds, checks every output
//! against a computation made apart from the program, and prints one JSON
//! object as its last stdout line: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`.

mod campaign;
mod checks;
mod fuzz;
mod ladder;
mod rv32i;
mod serve;
mod sim;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// Set-up repetitions per run; the reported `setup_s` is their median.
/// All but the last run in child processes, because an in-process native
/// engine cache would turn a repeated cold build into a cache hit.
pub const SETUP_REPS: usize = 3;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["sim-rv32i", "campaign-rv32i", "fuzz-sweep", "serve-durable"];

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed every input derives from.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// `--trace 1`: record spans and report per-layer metrics.
    pub trace: bool,
    /// Internal: run only the set-up and print its time.
    pub setup_probe: bool,
    /// Internal: run the per-layer ladder, writing results to this file.
    pub ladder_out: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        setup_probe: false,
        ladder_out: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = val()?.clone(),
            "--seed" => a.seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                a.trace = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            "--setup-probe" => a.setup_probe = true,
            "--ladder" => a.ladder_out = Some(PathBuf::from(val()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if a.ladder_out.is_none() && !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}, not {:?}",
            WORKLOADS.join(", "),
            a.workload
        ));
    }
    Ok(a)
}

/// What a workload's run produced.
pub struct Outcome {
    /// Set-up time of each repetition, in seconds.
    pub setup_s: Vec<f64>,
    /// The timed phase, in rounds.
    pub rounds: Vec<stats::Round>,
    /// Which rounds the end-to-end figures use (see [`stats::BAND`]).
    pub band: (f64, f64),
    /// Operations attempted in the timed phase.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// First failed correctness check, if any.
    pub error: Option<String>,
    /// A one-line human summary of what ran (stderr).
    pub summary: String,
}

/// The run's private scratch directory inside the checkout; removed at
/// exit.
pub fn work_dir() -> PathBuf {
    PathBuf::from(".bench_work").join(format!("run-{}", std::process::id()))
}

/// A fresh, empty directory under the work directory.
pub fn fresh_dir(name: &str) -> std::io::Result<PathBuf> {
    let d = work_dir().join(name);
    if d.exists() {
        std::fs::remove_dir_all(&d)?;
    }
    std::fs::create_dir_all(&d)?;
    std::fs::canonicalize(&d)
}

/// Points the native backend at a fresh, empty artifact cache.
pub fn fresh_native_cache(name: &str) -> std::io::Result<PathBuf> {
    let d = fresh_dir(name)?;
    std::env::set_var("KOIKA_NATIVE_CACHE", &d);
    Ok(d)
}

/// Runs the set-up of `workload` in `n` child processes, one after the
/// other, and returns each one's reported set-up time.
pub fn setup_in_children(args: &Args, n: usize) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let o = Command::new(&exe)
            .args([
                "--workload",
                &args.workload,
                "--seed",
                &args.seed.to_string(),
            ])
            .arg("--setup-probe")
            .output()
            .map_err(|e| format!("spawning set-up probe: {e}"))?;
        let text = String::from_utf8_lossy(&o.stdout);
        let secs = text
            .lines()
            .find_map(|l| l.strip_prefix("setup_s "))
            .and_then(|v| v.trim().parse::<f64>().ok());
        match (o.status.success(), secs) {
            (true, Some(s)) => out.push(s),
            _ => {
                return Err(format!(
                    "set-up probe failed ({}): {}",
                    o.status,
                    String::from_utf8_lossy(&o.stderr).trim()
                ))
            }
        }
    }
    Ok(out)
}

/// Peak resident set of this process, in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn run_workload(args: &Args) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "sim-rv32i" => sim::run(args),
        "campaign-rv32i" => campaign::run(args),
        "fuzz-sweep" => fuzz::run(args),
        "serve-durable" => serve::run(args),
        w => Err(format!("unknown workload {w}")),
    }
}

fn setup_probe(args: &Args) -> Result<f64, String> {
    match args.workload.as_str() {
        "sim-rv32i" => sim::setup_probe(args),
        "campaign-rv32i" => campaign::setup_probe(args),
        "fuzz-sweep" => fuzz::setup_probe(args),
        "serve-durable" => serve::setup_probe(args),
        w => Err(format!("unknown workload {w}")),
    }
}

/// One metric for the result line.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    s.push_str("}}");
    s
}

fn end_to_end(out: &Outcome) -> Result<Vec<Metric>, String> {
    let e =
        stats::estimate(&out.rounds, out.band).ok_or("the timed phase completed no operation")?;
    eprintln!(
        "perfbench: estimate over {} of {} rounds ({} ops)",
        e.rounds,
        out.rounds.len(),
        e.ops
    );
    Ok(vec![
        Metric {
            name: "setup_s".into(),
            value: stats::median(&out.setup_s),
            unit: "s",
        },
        Metric {
            name: "sim_cycles_per_s".into(),
            value: e.cycles_per_s,
            unit: "cycles/s",
        },
        Metric {
            name: "ops_per_s".into(),
            value: e.ops_per_s,
            unit: "1/s",
        },
        Metric {
            name: "op_p50_ms".into(),
            value: e.op_p50_ms,
            unit: "ms",
        },
        Metric {
            name: "op_tail_ms".into(),
            value: e.op_tail_ms,
            unit: "ms",
        },
        Metric {
            name: "peak_rss_mb".into(),
            value: peak_rss_mb(),
            unit: "MiB",
        },
    ])
}

/// Runs the per-layer ladder in a child process (cold caches, fixed
/// inputs) and merges its spans into this process's trace.
fn run_ladder_child() -> Result<Vec<Metric>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out_file = std::fs::canonicalize(work_dir())
        .map_err(|e| e.to_string())?
        .join("ladder.txt");
    let status = Command::new(exe)
        .arg("--ladder")
        .arg(&out_file)
        .status()
        .map_err(|e| format!("spawning the ladder: {e}"))?;
    if !status.success() {
        return Err(format!("the per-layer ladder failed ({status})"));
    }
    let text = std::fs::read_to_string(&out_file).map_err(|e| format!("{out_file:?}: {e}"))?;
    trace::merge_lines(&text, 100)?;
    let mut metrics = Vec::new();
    for line in text.lines() {
        let Some(rest) = line.strip_prefix("metric ") else {
            continue;
        };
        let f: Vec<&str> = rest.split(' ').collect();
        if f.len() != 3 {
            return Err(format!("bad metric line {line:?}"));
        }
        let value: f64 = f[1].parse().map_err(|e| format!("{line:?}: {e}"))?;
        let unit = ladder::METRICS
            .iter()
            .find(|(n, _)| *n == f[0])
            .map(|(_, u)| *u)
            .ok_or_else(|| format!("unknown ladder metric {}", f[0]))?;
        metrics.push(Metric {
            name: f[0].to_string(),
            value,
            unit,
        });
    }
    for (name, _) in ladder::METRICS {
        if !metrics.iter().any(|m| m.name == *name) {
            return Err(format!("the ladder did not report {name}"));
        }
    }
    Ok(metrics)
}

fn write_trace(args: &Args) -> Result<PathBuf, String> {
    let dir = Path::new(".bench_work").join("traces");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let path = dir.join(format!("{}-seed{}.trace.json", args.workload, args.seed));
    std::fs::write(&path, trace::chrome_trace(&trace::spans())).map_err(|e| e.to_string())?;
    Ok(path)
}

fn main_inner(args: &Args) -> Result<(bool, u64, u64, Vec<Metric>), String> {
    if args.trace {
        trace::enable();
    }
    let out = run_workload(args)?;
    eprintln!("perfbench: {}", out.summary);
    if let Some(e) = &out.error {
        eprintln!("perfbench: CHECK FAILED: {e}");
    }
    let e2e = end_to_end(&out)?;
    let correct = out.error.is_none();
    if !args.trace {
        return Ok((correct, out.attempted, out.failed, e2e));
    }
    // The traced run's own end-to-end figures, for the tracing overhead.
    let mut line = String::from("traced end-to-end:");
    for m in &e2e {
        let _ = write!(line, " {}={} {}", m.name, m.value, m.unit);
    }
    println!("{line}");
    let layers = run_ladder_child()?;
    let path = write_trace(args)?;
    for m in &layers {
        println!("metric {} {} {}", m.name, m.value, m.unit);
    }
    println!("trace written to {}", path.display());
    Ok((correct, out.attempted, out.failed, layers))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Everything the run writes lives under the checkout, temporary
    // files of the native backend's `rustc` and linker included.
    let tmp = work_dir().join("tmp");
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("perfbench: cannot create {tmp:?}: {e}");
        return ExitCode::from(1);
    }
    match std::fs::canonicalize(&tmp) {
        Ok(t) => std::env::set_var("TMPDIR", t),
        Err(e) => {
            eprintln!("perfbench: {tmp:?}: {e}");
            return ExitCode::from(1);
        }
    }
    let code = if let Some(out) = &args.ladder_out {
        trace::enable();
        match ladder::run() {
            Ok(metrics) => {
                let mut text = trace::to_lines(&trace::spans());
                for (name, value, unit) in metrics {
                    let _ = writeln!(text, "metric {name} {value} {unit}");
                }
                match std::fs::write(out, text) {
                    Ok(()) => ExitCode::SUCCESS,
                    Err(e) => {
                        eprintln!("perfbench ladder: {out:?}: {e}");
                        ExitCode::from(1)
                    }
                }
            }
            Err(e) => {
                eprintln!("perfbench ladder: {e}");
                ExitCode::from(1)
            }
        }
    } else if args.setup_probe {
        match setup_probe(&args) {
            Ok(s) => {
                println!("setup_s {s}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench set-up probe: {e}");
                ExitCode::from(1)
            }
        }
    } else {
        match main_inner(&args) {
            Ok((correct, attempted, failed, metrics)) => {
                println!("{}", result_line(correct, attempted, failed, &metrics));
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::from(1)
            }
        }
    };
    let _ = std::fs::remove_dir_all(work_dir());
    code
}
