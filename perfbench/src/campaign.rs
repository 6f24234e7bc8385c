//! `campaign-rv32i`: a seeded fault-injection campaign on rv32i-primes
//! under native dispatch with scalar members, after a golden run.
//!
//! Each round is one `fault::run_campaign_parallel` call with the same
//! configuration (its own golden run plus [`MEMBERS`] members), so rounds
//! are equal work. Members build a fresh `Sim` each (a warm native cache
//! hit) and run through the observed `cycle_obs` path, which is what this
//! workload weighs, unlike `sim-rv32i`.

use std::sync::Mutex;
use std::time::Instant;

use cuttlesim::{Dispatch, Program};
use koika::device::{Device, SimBackend};
use koika::fault::{
    draw_schedule, run_campaign_parallel, CampaignConfig, CampaignReport, FaultEngine,
    Outcome as FaultOutcome, ParallelFactories, ParallelOptions,
};
use koika::interp::Interp;
use koika::runner::{RunnerConfig, RunnerStats};
use koika::testgen::SplitMix64;
use koika::tir::TDesign;

use crate::rv32i::{self, CoreRegs, Primes};
use crate::stats::Round;
use crate::trace::span;
use crate::{checks, fresh_native_cache, setup_in_children, Args, Outcome, SETUP_REPS};

/// Members per round.
pub const MEMBERS: usize = 100;
/// Cycles per member (and for the golden run).
pub const CYCLES: u64 = 6_000;
/// Prime limit: small enough that the golden run halts inside [`CYCLES`].
pub const LIMIT: u32 = 30;
/// Members re-run on the reference interpreter after the timed phase.
pub const REFERENCE_SAMPLE: usize = 2;

/// The campaign configuration for a seed.
pub fn config(seed: u64) -> CampaignConfig {
    CampaignConfig {
        seed: SplitMix64::new(seed ^ 0xCA4A_16B0).next_u64(),
        members: MEMBERS,
        cycles: CYCLES,
        max_injections: 3,
        stall_cycles: 256,
    }
}

fn outcome_label(o: &FaultOutcome) -> String {
    match o {
        FaultOutcome::Divergence { first_cycle } => format!("divergence@{first_cycle}"),
        FaultOutcome::Hang { cycle } => format!("hang@{cycle}"),
        o => o.label().to_string(),
    }
}

struct Ready {
    td: TDesign,
    prog: Program,
    primes: Primes,
    setup_s: f64,
}

/// Check, compile, cold native build, and the golden run, whose result
/// must be the prime count.
fn setup(cache: &str, seed: u64) -> Result<Ready, String> {
    fresh_native_cache(cache).map_err(|e| e.to_string())?;
    let primes = Primes::new(LIMIT);
    let t = Instant::now();
    let td = rv32i::design()?;
    let prog = rv32i::compile(&td)?;
    // The cold build happens here; the golden run takes this simulator.
    let mut first = Some(rv32i::sim_with(&prog, Dispatch::Native)?);
    let mut make_sim = || -> Box<dyn SimBackend> {
        Box::new(first.take().unwrap_or_else(|| {
            rv32i::sim_with(&prog, Dispatch::Native).expect("native engine is cached")
        }))
    };
    let mut make_devices = || -> Vec<Box<dyn Device>> { vec![Box::new(primes.memory(&td))] };
    let cfg = config(seed);
    let golden = span("koika::fault::golden", || {
        FaultEngine {
            td: &td,
            make_sim: &mut make_sim,
            make_devices: &mut make_devices,
        }
        .golden(cfg.cycles, cfg.stall_cycles)
    })
    .map_err(|e| format!("golden run: {e}"))?;
    let setup_s = t.elapsed().as_secs_f64();
    let a0 = CoreRegs::of(&td).rf[10].0 as usize;
    checks::prime_count(golden.final_regs[a0] as u32, LIMIT)
        .map_err(|e| format!("golden run: {e}"))?;
    Ok(Ready {
        td,
        prog,
        primes,
        setup_s,
    })
}

/// The set-up alone, for a child process.
pub fn setup_probe(args: &Args) -> Result<f64, String> {
    Ok(setup("native-probe", args.seed)?.setup_s)
}

/// Re-runs `index` of the campaign on the reference interpreter.
fn reference_outcome(td: &TDesign, primes: &Primes, cfg: &CampaignConfig, index: usize) -> String {
    let mut make_sim = || -> Box<dyn SimBackend> { Box::new(Interp::new(td)) };
    let mut make_devices = || -> Vec<Box<dyn Device>> { vec![Box::new(primes.memory(td))] };
    let mut engine = FaultEngine {
        td,
        make_sim: &mut make_sim,
        make_devices: &mut make_devices,
    };
    match engine.golden(cfg.cycles, cfg.stall_cycles) {
        Ok(golden) => outcome_label(&engine.classify_injections(
            &draw_schedule(td, cfg, index),
            cfg.cycles,
            cfg.stall_cycles,
            &golden,
        )),
        Err(e) => format!("reference golden run failed: {e}"),
    }
}

/// Runs one campaign (golden run, then every member) on one runner
/// worker; returns its report, the runner's counters and each member's
/// latency in milliseconds. Each `make_sim` call marks the start of the
/// next member, since members run one at a time.
pub fn timed_campaign(
    td: &TDesign,
    prog: &Program,
    primes: &Primes,
    cfg: &CampaignConfig,
) -> Result<(CampaignReport, RunnerStats, Vec<f64>), String> {
    let marks = Mutex::new(Vec::<Instant>::with_capacity(cfg.members + 1));
    let make_sim = || -> Result<Box<dyn SimBackend>, String> {
        marks
            .lock()
            .expect("no member panics while holding the marks")
            .push(Instant::now());
        span("koika::fault::make_sim", || {
            rv32i::sim_with(prog, Dispatch::Native)
        })
        .map(|s| Box::new(s) as Box<dyn SimBackend>)
    };
    let make_devices = || -> Vec<Box<dyn Device>> { vec![Box::new(primes.memory(td))] };
    let env = ParallelFactories {
        td,
        make_sim: &make_sim,
        make_devices: &make_devices,
    };
    let opts = ParallelOptions {
        runner: RunnerConfig::with_jobs(1),
        wall_budget: None,
    };
    let (report, stats) = span("koika::fault::run_campaign_parallel", || {
        run_campaign_parallel(&env, cfg, &opts, None)
    })
    .map_err(|e| format!("campaign: {e}"))?;
    let mut m = marks
        .into_inner()
        .expect("no member panics while holding the marks");
    m.push(Instant::now());
    // m[0] is the golden run's simulator.
    let member_ms = m
        .windows(2)
        .skip(1)
        .map(|w| (w[1] - w[0]).as_secs_f64() * 1e3)
        .collect();
    Ok((report, stats, member_ms))
}

/// Runs the workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut setup_s = setup_in_children(args, SETUP_REPS - 1)?;
    let ready = setup("native", args.seed)?;
    setup_s.push(ready.setup_s);
    let Ready {
        td, prog, primes, ..
    } = ready;
    let cfg = config(args.seed);

    let mut rounds = Vec::new();
    let mut first: Option<(Vec<String>, u64)> = None;
    let mut error = None;
    let mut retries = 0;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < args.seconds && error.is_none() {
        let t = Instant::now();
        let (report, stats, op_ms) = timed_campaign(&td, &prog, &primes, &cfg)?;
        let secs = t.elapsed().as_secs_f64();
        retries += stats.retries;
        if op_ms.len() != MEMBERS {
            error = Some(format!(
                "{} member latencies for {MEMBERS} members",
                op_ms.len()
            ));
        }
        rounds.push(Round {
            secs,
            cycles: ((MEMBERS + 1) as u64 * CYCLES) as f64,
            op_ms,
        });
        if let Err(e) = checks::campaign_counts(&report.counts(), MEMBERS) {
            error = Some(e);
        }
        let outcomes: Vec<String> = report
            .members
            .iter()
            .map(|m| outcome_label(&m.outcome))
            .collect();
        match &first {
            None => first = Some((outcomes, report.golden_digest)),
            Some((o, d)) if *o != outcomes || *d != report.golden_digest => {
                error = Some("a repeated round classified members differently".into());
            }
            Some(_) => {}
        }
    }
    let (outcomes, _) = first.ok_or("no campaign round completed")?;
    if retries != 0 && error.is_none() {
        error = Some(format!("the runner retried {retries} members"));
    }
    // The reference check: a seeded sample of members on the interpreter.
    let mut pick = SplitMix64::new(cfg.seed);
    for _ in 0..REFERENCE_SAMPLE {
        let index = pick.below(MEMBERS as u64) as usize;
        let reference = reference_outcome(&td, &primes, &cfg, index);
        if let Err(e) = checks::same_outcome(index, &outcomes[index], &reference) {
            error.get_or_insert(e);
        }
    }
    let mut classes: Vec<(String, usize)> = Vec::new();
    for o in &outcomes {
        let class = o.split('@').next().unwrap_or(o).to_string();
        match classes.iter_mut().find(|(c, _)| *c == class) {
            Some((_, n)) => *n += 1,
            None => classes.push((class, 1)),
        }
    }
    let summary = format!(
        "campaign-rv32i: {} rounds of {MEMBERS} members x {CYCLES} cycles, outcomes {classes:?}",
        rounds.len()
    );
    Ok(Outcome {
        setup_s,
        band: crate::stats::BAND,
        attempted: (rounds.len() * MEMBERS) as u64,
        failed: 0,
        rounds,
        error,
        summary,
    })
}
