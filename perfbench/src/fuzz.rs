//! `fuzz-sweep`: the default seeded differential fuzz sweep from a cold
//! native cache. Every case is a fresh random design compared on the
//! reference interpreter, six levels under every dispatcher, and both RTL
//! schemes, so the native emit, `rustc` and cache path dominate.
//!
//! A round is one `fuzz::run_fuzz` call of [`CASES_PER_ROUND`] cases on
//! [`JOBS`] workers. Two workers never build one native key at once: a
//! round whose designs are not all distinct runs on one worker.

use std::path::Path;
use std::time::Instant;

use cuttlesim::{toolchain_available, Dispatch, OptLevel};
use cuttlesim_repro::fuzz::{case_seed, run_fuzz, FuzzConfig};
use koika::check::check;
use koika::runner::JobUpdate;
use koika::runner::RunnerConfig;
use koika::testgen::random_design;
use koika::testgen::SplitMix64;

use crate::stats::Round;
use crate::trace::span;
use crate::{checks, fresh_native_cache, setup_in_children, Args, Outcome, SETUP_REPS};

/// Cycles per case per backend (the sweep's default).
pub const CYCLES: u64 = 96;
/// Cases per round.
pub const CASES_PER_ROUND: usize = 4;
/// Runner workers.
pub const JOBS: usize = 2;

/// Backends a case runs, beyond the reference interpreter: every level
/// under every dispatcher, and both RTL schemes.
pub fn matrix_width() -> usize {
    OptLevel::ALL.len() * Dispatch::ALL.len() + 2
}

/// Fails loudly when the native column cannot run: without a `rustc` the
/// sweep would drop its native rows and report a higher case rate.
pub fn require_toolchain() -> Result<(), String> {
    if toolchain_available() {
        Ok(())
    } else {
        Err(
            "no working rustc: the native dispatcher (a third of the fuzz matrix) cannot run; \
             set KOIKA_RUSTC or install rustc"
                .into(),
        )
    }
}

/// Native artifacts currently in the cache directory.
pub fn artifacts(dir: &Path) -> usize {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(Result::ok)
                .filter(|e| e.path().extension().is_some_and(|x| x == "so"))
                .count()
        })
        .unwrap_or(0)
}

/// What a sweep pays before its first case: proving the native toolchain
/// works end to end with one cold build of a known design.
fn setup(cache: &str) -> Result<f64, String> {
    fresh_native_cache(cache).map_err(|e| e.to_string())?;
    let t = Instant::now();
    require_toolchain()?;
    let td = span("koika::check", || check(&koika_designs::small::collatz()))
        .map_err(|e| e.to_string())?;
    let prog = crate::rv32i::compile(&td)?;
    crate::rv32i::sim_with(&prog, Dispatch::Native)?;
    Ok(t.elapsed().as_secs_f64())
}

/// The set-up alone, for a child process.
pub fn setup_probe(_args: &Args) -> Result<f64, String> {
    setup("native-probe")
}

/// Runs the workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    require_toolchain()?;
    let mut setup_s = setup_in_children(args, SETUP_REPS - 1)?;
    setup_s.push(setup("native-smoke")?);
    let cache = fresh_native_cache("native").map_err(|e| e.to_string())?;
    let base = SplitMix64::new(args.seed ^ 0xF022).next_u64();
    let levels = OptLevel::ALL.len();
    let cycles_per_case = (CYCLES * (1 + matrix_width() as u64)) as f64;

    let mut rounds = Vec::new();
    let mut error = None;
    let mut builds = Vec::new();
    let start = Instant::now();
    let mut cases = 0u64;
    while start.elapsed().as_secs_f64() < args.seconds && error.is_none() {
        // Round r covers cases r*K .. r*K+K of the sweep seeded by `base`.
        let master = base.wrapping_add(cases);
        let seeds: Vec<u64> = (0..CASES_PER_ROUND).map(|i| case_seed(master, i)).collect();
        let mut prints: Vec<u64> = seeds
            .iter()
            .filter_map(|&s| check(&random_design(s)).ok().map(|td| td.fingerprint()))
            .collect();
        prints.sort_unstable();
        prints.dedup();
        let jobs = if prints.len() == CASES_PER_ROUND {
            JOBS
        } else {
            1
        };
        let cfg = FuzzConfig {
            seed: master,
            cases: CASES_PER_ROUND,
            cycles: CYCLES,
            runner: RunnerConfig::with_jobs(jobs),
            ..FuzzConfig::default()
        };
        let before = artifacts(&cache);
        let mut done = Vec::with_capacity(CASES_PER_ROUND);
        let t = Instant::now();
        let mut progress = |u: JobUpdate| {
            if let JobUpdate::Finished { .. } = u {
                done.push(t.elapsed().as_secs_f64() * 1e3);
            }
        };
        let (report, _) = span("cuttlesim_repro::fuzz::run_fuzz", || {
            run_fuzz(&cfg, Some(&mut progress))
        });
        let secs = t.elapsed().as_secs_f64();
        let built = artifacts(&cache) - before;
        builds.push(built);
        cases += CASES_PER_ROUND as u64;
        // A case's latency: from its worker taking it to its verdict; a
        // worker takes its next case when it finishes the previous one.
        done.sort_by(f64::total_cmp);
        let op_ms: Vec<f64> = (0..done.len())
            .map(|i| {
                if i < jobs {
                    done[i]
                } else {
                    done[i] - done[i - jobs]
                }
            })
            .collect();
        rounds.push(Round {
            secs,
            cycles: cycles_per_case * CASES_PER_ROUND as f64,
            op_ms,
        });
        if let Err(e) = checks::fuzz_round(&seeds, report.clean, built, levels) {
            error = Some(format!("{e}\n{}", report.summary()));
        }
    }
    let summary = format!(
        "fuzz-sweep: {cases} cases x {} backends x {CYCLES} cycles, native builds per round of {CASES_PER_ROUND} {builds:?}",
        matrix_width() + 1
    );
    Ok(Outcome {
        setup_s,
        band: crate::stats::ALL,
        attempted: cases,
        failed: 0,
        rounds,
        error,
        summary,
    })
}
