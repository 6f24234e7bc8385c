//! `sim-rv32i`: the paper's headline use. One scalar `--dispatch native`
//! run of rv32i-primes from a cold native cache until the core reaches
//! its halt loop, then again from reset until the time is up.
//!
//! Work is cut into slices of [`SLICE`] cycles (the operations) and
//! rounds of [`SLICES_PER_ROUND`] slices. Each slice is the bare loop a
//! user's harness runs: one `memdev` tick and one native `cycle()` per
//! cycle. The checks run between slices and are not timed.

use std::time::Instant;

use cuttlesim::{Dispatch, Program, Sim, SimSnapshot};
use koika::device::{Device, SimBackend};
use koika::tir::TDesign;
use koika_designs::memdev::MagicMemory;
use koika_riscv::golden::Golden;

use crate::rv32i::{self, CoreRegs, Primes, RESULT_ADDR};
use crate::stats::Round;
use crate::trace::span;
use crate::{checks, fresh_native_cache, setup_in_children, Args, Outcome, SETUP_REPS};

/// Cycles per slice (one operation).
pub const SLICE: u64 = 50_000;
/// Slices per round.
pub const SLICES_PER_ROUND: usize = 8;

/// The prime limit for a seed: a few thousand, so a run to the halt takes
/// about a second on the native engine.
pub fn limit_for(seed: u64) -> u32 {
    4_000 + (seed % 500) as u32
}

struct Ready {
    td: TDesign,
    prog: Program,
    sim: Sim,
    setup_s: f64,
}

/// Everything before the first timed cycle: check, compile, the cold
/// native build and load.
fn setup(cache: &str) -> Result<Ready, String> {
    fresh_native_cache(cache).map_err(|e| e.to_string())?;
    let t = Instant::now();
    let td = rv32i::design()?;
    let prog = rv32i::compile(&td)?;
    let sim = rv32i::sim_with(&prog, Dispatch::Native)?;
    Ok(Ready {
        td,
        prog,
        sim,
        setup_s: t.elapsed().as_secs_f64(),
    })
}

/// The set-up alone, for a child process.
pub fn setup_probe(_args: &Args) -> Result<f64, String> {
    Ok(setup("native-probe")?.setup_s)
}

/// State at the start of a slice, kept so a finished run can be replayed
/// cycle by cycle.
struct Mark {
    sim: SimSnapshot,
    mem: MagicMemory,
    cycle: u64,
}

/// Replays the slices since `mark` cycle by cycle and checks the halt:
/// the core retires exactly the golden model's instruction count, holds
/// the golden register file and memory from then on, stores the right
/// prime count, and the replay lands in the state the timed run reached.
fn verify_halt(
    sim: &mut Sim,
    mem: &mut MagicMemory,
    mark: &Mark,
    end_cycle: u64,
    regs: &CoreRegs,
    primes: &Primes,
) -> Result<u64, String> {
    let golden: &Golden = &primes.golden;
    let want_retired = golden.retired;
    let end_state = sim.reg_values();
    let end_mem = mem.words().to_vec();
    checks::prime_count(mem.word(RESULT_ADDR), primes.limit)?;

    sim.restore_state(&mark.sim);
    *mem = mark.mem.clone();
    let mut halted_at = None;
    let mut cycle = mark.cycle;
    while cycle < end_cycle {
        let retired = sim.as_reg_access().get64(regs.retired);
        let rf = regs.rf_values(sim);
        if retired + 2 == want_retired && rf == golden.regs {
            return Err(format!(
                "register file already final with {retired} of {want_retired} instructions retired"
            ));
        }
        if retired == want_retired && halted_at.is_none() {
            halted_at = Some(cycle);
        }
        if halted_at.is_some() {
            if rf != golden.regs {
                return Err(format!(
                    "register file differs from the golden model at cycle {cycle}"
                ));
            }
            if retired < want_retired {
                return Err("retired count went backwards".into());
            }
        }
        mem.tick(cycle, sim.as_reg_access());
        sim.cycle();
        cycle += 1;
    }
    let Some(at) = halted_at else {
        return Err(format!(
            "the core never retired exactly {want_retired} instructions"
        ));
    };
    for (i, &w) in mem.words().iter().enumerate() {
        if w != golden.load_word((i * 4) as u32) {
            return Err(format!("memory word {i} differs from the golden model"));
        }
    }
    if sim.reg_values() != end_state || mem.words() != end_mem.as_slice() {
        return Err("the replay did not reach the timed run's final state".into());
    }
    Ok(at)
}

/// Runs the workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut setup_s = setup_in_children(args, SETUP_REPS - 1)?;
    let ready = setup("native")?;
    setup_s.push(ready.setup_s);
    let Ready {
        td, prog, mut sim, ..
    } = ready;
    let primes = Primes::new(limit_for(args.seed));
    let regs = CoreRegs::of(&td);

    let mut rounds = Vec::new();
    let mut round = Round::default();
    let mut slices = 0u64;
    let mut runs = 0u64;
    let mut halt_cycles = Vec::new();
    let mut error = None;
    let start = Instant::now();
    'runs: while start.elapsed().as_secs_f64() < args.seconds && error.is_none() {
        if runs > 0 {
            sim = Sim::new(prog.clone());
            sim.try_set_dispatch(Dispatch::Native)
                .map_err(|e| format!("native dispatch: {e}"))?;
        }
        let mut mem = primes.memory(&td);
        let mut cycle = 0u64;
        let mut prev: Option<Mark> = None;
        let mut stored_after: Option<Mark> = None;
        loop {
            let mark = Mark {
                sim: sim.save_state(),
                mem: mem.clone(),
                cycle,
            };
            let t = Instant::now();
            span("perfbench::slice", || {
                for c in cycle..cycle + SLICE {
                    mem.tick(c, sim.as_reg_access());
                    sim.cycle();
                }
            });
            let secs = t.elapsed().as_secs_f64();
            cycle += SLICE;
            slices += 1;
            round.secs += secs;
            round.cycles += SLICE as f64;
            round.op_ms.push(secs * 1e3);
            if round.op_ms.len() == SLICES_PER_ROUND {
                rounds.push(std::mem::take(&mut round));
            }
            if let Some(from) = stored_after.take() {
                // The result was stored during the slice before last; the
                // halt is inside the two slices since `from`.
                match verify_halt(&mut sim, &mut mem, &from, cycle, &regs, &primes) {
                    Ok(at) => halt_cycles.push(at),
                    Err(e) => error = Some(format!("run {runs}: {e}")),
                }
                runs += 1;
                continue 'runs;
            }
            if mem.word(RESULT_ADDR) != 0 {
                stored_after = Some(prev.take().unwrap_or(mark));
            } else {
                prev = Some(mark);
            }
            if start.elapsed().as_secs_f64() >= args.seconds {
                break 'runs;
            }
        }
    }
    if runs == 0 && error.is_none() {
        error = Some(format!(
            "no run reached the halt within {} s; lower the prime limit",
            args.seconds
        ));
    }
    if halt_cycles.windows(2).any(|w| w[0] != w[1]) {
        error = Some(format!("halt cycle differs between runs: {halt_cycles:?}"));
    }
    let summary = format!(
        "sim-rv32i: primes below {} -> {} retired, halt at cycle {:?}, {runs} verified runs, {slices} slices of {SLICE} cycles",
        primes.limit, primes.golden.retired, halt_cycles.first()
    );
    Ok(Outcome {
        setup_s,
        band: crate::stats::BAND,
        rounds,
        attempted: slices,
        failed: 0,
        error,
        summary,
    })
}
