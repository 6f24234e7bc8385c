//! The per-layer ladder of a traced run: every layer timed around its
//! public calls on fixed inputs (independent of `--seed`), in a process of
//! its own so that native builds are cold and nothing is cached from the
//! workload that ran before it.
//!
//! It also holds the same-run engine ladder: rv32i per-instance cycle
//! time under scalar `match`, `tac` and `native` dispatch and batched
//! native at 8 and 32 lanes, all measured seconds apart in one process.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use cuttlesim::{BatchSim, CompileOptions, Dispatch};
use cuttlesim_repro::fuzz::{case_seed, run_case};
use koika::device::{Device, LaneAccess, SimBackend};
use koika::fault::{CampaignConfig, FaultEngine, Outcome as FaultOutcome};
use koika::interp::Interp;
use koika::obs::Observer;
use koika::testgen::random_design;
use koika_rtl::{compile as rtl_compile, RtlSim, Scheme};
use koika_server::journal::{Journal, JournalOp, JournalRecord, WatchdogSpec};
use koika_server::json::Json;
use koika_server::BackendKind;

use crate::rv32i::{self, CoreRegs, Primes};
use crate::serve::{self, Client, Provider};
use crate::stats::{median, percentile};
use crate::trace::{durations_ns, span};
use crate::{fresh_dir, fresh_native_cache, fuzz};

/// Every per-layer metric, with its unit, in report order.
pub const METRICS: &[(&str, &str)] = &[
    ("check_ms", "ms"),
    ("compile_ms", "ms"),
    ("bytecode_insns", "count"),
    ("tac_lower_ms", "ms"),
    ("native_build_ms", "ms"),
    ("native_load_ms", "ms"),
    ("native_lib_kb", "KiB"),
    ("native_builds_per_case", "count"),
    ("cycle_ns", "ns"),
    ("cycle_obs_ns", "ns"),
    ("cycle_ns.tac", "ns"),
    ("cycle_ns.match", "ns"),
    ("batch_cycle_ns.l8", "ns"),
    ("batch_cycle_ns.l32", "ns"),
    ("device_tick_ns", "ns"),
    ("golden_run_ms", "ms"),
    ("member_build_ms", "ms"),
    ("member_ms", "ms"),
    ("members_masked", "count"),
    ("members_sdc", "count"),
    ("members_divergence", "count"),
    ("members_hang", "count"),
    ("runner_retries", "count"),
    ("runner_panics", "count"),
    ("snapshot_us", "us"),
    ("restore_us", "us"),
    ("snapshot_bytes", "bytes"),
    ("interp_cycle_us", "us"),
    ("rtl_compile_ms", "ms"),
    ("rtl_cycle_us", "us"),
    ("testgen_us", "us"),
    ("case_ms", "ms"),
    ("json_parse_us", "us"),
    ("journal_append_us", "us"),
    ("journal_bytes_per_op", "bytes"),
    ("recover_ms", "ms"),
    ("req_query_us", "us"),
    ("req_step_small_us", "us"),
    ("req_step_large_us", "us"),
    ("req_create_us", "us"),
    ("req_inject_us", "us"),
    ("req_evict_us", "us"),
    ("req_rehydrate_us", "us"),
    ("req_close_us", "us"),
    ("sim_cycles", "cycles"),
    ("retired_insns", "count"),
    ("ipc", "insns/cycle"),
];

/// Prime limit of the ladder's core runs.
const LIMIT: u32 = 400;
/// Repetitions of each short call.
const REPS: usize = 7;
/// Cycles per engine in the engine ladder.
const ENGINE_CYCLES: u64 = 200_000;
/// Fixed master seed of the ladder's fuzz cases.
const FUZZ_SEED: u64 = 0x1ADD_E125;

/// Collects `(name, value, unit)` triples.
struct Report(Vec<(String, f64, &'static str)>);

impl Report {
    fn put(&mut self, name: &str, value: f64) {
        let unit = METRICS
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, u)| *u)
            .expect("every reported metric is declared");
        self.0.push((name.to_string(), value, unit));
    }

    /// Median duration of the spans named `span`, scaled from ns.
    fn span_median(&mut self, name: &str, span: &str, scale: f64) -> Result<(), String> {
        let d = durations_ns(span);
        if d.is_empty() {
            return Err(format!("no {span} span for {name}"));
        }
        self.put(name, median(&d) / scale);
        Ok(())
    }
}

/// Counts rule commits; the cheapest observer `cycle_obs` can drive.
#[derive(Default)]
struct Commits(u64);

impl Observer for Commits {
    fn rule_commit(&mut self, _rule: usize) {
        self.0 += 1;
    }
}

/// Seconds per call of `f`, over `n` calls in one timed block.
fn per_call(n: u64, mut f: impl FnMut(u64)) -> f64 {
    let t = Instant::now();
    for i in 0..n {
        f(i);
    }
    t.elapsed().as_secs_f64() / n as f64
}

/// Front end and native layers: check, compile, tac lowering, cold native
/// build, warm load.
fn front_end(r: &mut Report) -> Result<(), String> {
    for _ in 0..REPS {
        rv32i::design()?;
    }
    r.span_median("check_ms", "koika::check", 1e6)?;
    let td = rv32i::design()?;
    for _ in 0..REPS {
        rv32i::compile(&td)?;
    }
    r.span_median("compile_ms", "cuttlesim::compile", 1e6)?;
    let prog = rv32i::compile(&td)?;
    r.put(
        "bytecode_insns",
        prog.rules.iter().map(|c| c.code.len()).sum::<usize>() as f64,
    );
    for _ in 0..REPS {
        rv32i::sim_with(&prog, Dispatch::Tac)?;
    }
    r.span_median("tac_lower_ms", "cuttlesim::tac::try_set_dispatch", 1e6)?;
    for _ in 0..=REPS {
        rv32i::sim_with(&prog, Dispatch::Native)?;
    }
    let native = durations_ns("cuttlesim::native::try_set_dispatch");
    r.put("native_build_ms", native[0] / 1e6);
    r.put("native_load_ms", median(&native[1..]) / 1e6);
    let so = cuttlesim::native::cache_path_for(&prog).map_err(|e| e.to_string())?;
    let bytes = std::fs::metadata(&so)
        .map_err(|e| format!("{so:?}: {e}"))?
        .len();
    r.put("native_lib_kb", bytes as f64 / 1024.0);
    Ok(())
}

/// The engine ladder and the `memdev` device, plus the simulated
/// statistics of one run to the halt.
fn engines(r: &mut Report) -> Result<(), String> {
    let td = rv32i::design()?;
    let prog = rv32i::compile(&td)?;
    let primes = Primes::new(LIMIT);

    // Device ticks alone, on a mid-run register state.
    let mut sim = rv32i::sim_with(&prog, Dispatch::Native)?;
    let mut mem = primes.memory(&td);
    for c in 0..10_000 {
        mem.tick(c, sim.as_reg_access());
        sim.cycle();
    }
    let tick = span("koika_designs::memdev::tick", || {
        per_call(ENGINE_CYCLES, |c| {
            mem.tick(black_box(10_000 + c), sim.as_reg_access())
        })
    });
    r.put("device_tick_ns", tick * 1e9);

    for (dispatch, name, cycles) in [
        (Dispatch::Native, "cycle_ns", ENGINE_CYCLES),
        (Dispatch::Tac, "cycle_ns.tac", ENGINE_CYCLES / 4),
        (Dispatch::Match, "cycle_ns.match", ENGINE_CYCLES / 8),
    ] {
        let mut sim = rv32i::sim_with(&prog, dispatch)?;
        let mut mem = primes.memory(&td);
        let both = span(
            &format!("cuttlesim::vm::cycle.{}", dispatch.short_name()),
            || {
                per_call(cycles, |c| {
                    mem.tick(c, sim.as_reg_access());
                    sim.cycle();
                })
            },
        );
        r.put(name, (both - tick).max(0.0) * 1e9);
    }

    let mut sim = rv32i::sim_with(&prog, Dispatch::Native)?;
    let mut mem = primes.memory(&td);
    let mut obs = Commits::default();
    let both = span("cuttlesim::vm::cycle_obs.native", || {
        per_call(ENGINE_CYCLES / 4, |c| {
            mem.tick(c, sim.as_reg_access());
            sim.cycle_obs(&mut obs);
        })
    });
    black_box(obs.0);
    r.put("cycle_obs_ns", (both - tick).max(0.0) * 1e9);

    for lanes in [8usize, 32] {
        let mut b = BatchSim::compile_with(&td, &CompileOptions::default(), lanes)
            .map_err(|e| e.to_string())?;
        span(
            &format!("cuttlesim::batch::try_set_dispatch.l{lanes}"),
            || b.try_set_dispatch(Dispatch::Native),
        )
        .map_err(|e| format!("batched native l{lanes}: {e}"))?;
        let mut mems: Vec<_> = (0..lanes).map(|_| primes.memory(&td)).collect();
        let cycles = ENGINE_CYCLES / lanes as u64;
        let mut in_cycle = 0.0;
        for c in 0..cycles {
            for (l, m) in mems.iter_mut().enumerate() {
                m.tick(c, &mut LaneAccess::new(&mut b, l));
            }
            let t = Instant::now();
            b.cycle().map_err(|e| format!("batched cycle: {e}"))?;
            in_cycle += t.elapsed().as_secs_f64();
        }
        r.put(
            &format!("batch_cycle_ns.l{lanes}"),
            in_cycle / (cycles * lanes as u64) as f64 * 1e9,
        );
    }

    // Simulated statistics: cycles and instructions to the halt.
    let regs = CoreRegs::of(&td);
    let mut sim = rv32i::sim_with(&prog, Dispatch::Native)?;
    let mut mem = primes.memory(&td);
    let want = primes.golden.retired;
    let mut cycle = 0u64;
    while sim.as_reg_access().get64(regs.retired) < want {
        mem.tick(cycle, sim.as_reg_access());
        sim.cycle();
        cycle += 1;
        if cycle > 100_000_000 {
            return Err("the ladder's core never halted".into());
        }
    }
    r.put("sim_cycles", cycle as f64);
    r.put("retired_insns", want as f64);
    r.put("ipc", want as f64 / cycle as f64);

    // Snapshot and restore of a mid-run native simulator.
    let mut snap = None;
    for _ in 0..REPS * 10 {
        snap = Some(span("koika::snapshot::snapshot", || sim.snapshot()));
    }
    let snap = snap.expect("at least one snapshot");
    for _ in 0..REPS * 10 {
        span("koika::snapshot::restore", || sim.restore(&snap)).map_err(|e| e.to_string())?;
    }
    r.span_median("snapshot_us", "koika::snapshot::snapshot", 1e3)?;
    r.span_median("restore_us", "koika::snapshot::restore", 1e3)?;
    r.put("snapshot_bytes", snap.to_bytes().len() as f64);
    Ok(())
}

/// A fixed campaign: golden run, member builds, members, outcome counts.
fn campaign(r: &mut Report) -> Result<(), String> {
    const MEMBERS: usize = 24;
    let td = rv32i::design()?;
    let prog = rv32i::compile(&td)?;
    let primes = Primes::new(crate::campaign::LIMIT);
    let cfg = CampaignConfig {
        seed: 0xC0FFEE,
        members: MEMBERS,
        cycles: crate::campaign::CYCLES,
        max_injections: 3,
        stall_cycles: 256,
    };
    let mut make = || -> Box<dyn SimBackend> {
        Box::new(rv32i::sim_with(&prog, Dispatch::Native).expect("the first build succeeded"))
    };
    let mut devs = || -> Vec<Box<dyn Device>> { vec![Box::new(primes.memory(&td))] };
    span("koika::fault::golden", || {
        FaultEngine {
            td: &td,
            make_sim: &mut make,
            make_devices: &mut devs,
        }
        .golden(cfg.cycles, cfg.stall_cycles)
    })
    .map_err(|e| e.to_string())?;
    r.span_median("golden_run_ms", "koika::fault::golden", 1e6)?;

    let (report, stats, member_ms) = crate::campaign::timed_campaign(&td, &prog, &primes, &cfg)?;
    r.span_median("member_build_ms", "koika::fault::make_sim", 1e6)?;
    r.put("member_ms", percentile(&member_ms, 50.0));
    let c = report.counts();
    r.put("members_masked", c[0] as f64);
    r.put("members_sdc", c[1] as f64);
    r.put("members_divergence", c[2] as f64);
    r.put("members_hang", c[3] as f64);
    r.put("runner_retries", stats.retries as f64);
    r.put("runner_panics", stats.panics_contained as f64);
    if report
        .members
        .iter()
        .any(|m| matches!(m.outcome, FaultOutcome::Panic | FaultOutcome::Flaky))
    {
        return Err("the ladder's campaign had panicked or flaky members".into());
    }
    Ok(())
}

/// The fuzz layers: reference interpreter, RTL compile and cycles,
/// design generation, and whole cases from a cold cache.
fn fuzz_layers(r: &mut Report) -> Result<(), String> {
    let td = rv32i::design()?;
    let primes = Primes::new(LIMIT);
    let mut interp = Interp::new(&td);
    let mut mem = primes.memory(&td);
    let t = span("koika::interp::cycle", || {
        per_call(5_000, |c| {
            mem.tick(c, interp.as_reg_access());
            interp.cycle();
        })
    });
    r.put("interp_cycle_us", t * 1e6);
    let mut model = None;
    for _ in 0..3 {
        model = Some(
            span("koika_rtl::compile", || rtl_compile(&td, Scheme::Dynamic))
                .map_err(|e| e.to_string())?,
        );
    }
    r.span_median("rtl_compile_ms", "koika_rtl::compile", 1e6)?;
    let mut rtl = RtlSim::new(model.expect("compiled"));
    let mut mem = primes.memory(&td);
    let t = span("koika_rtl::cycle", || {
        per_call(5_000, |c| {
            mem.tick(c, rtl.as_reg_access());
            rtl.cycle();
        })
    });
    r.put("rtl_cycle_us", t * 1e6);
    for i in 0..50 {
        black_box(span("koika::testgen::random_design", || {
            random_design(case_seed(FUZZ_SEED, i))
        }));
    }
    r.span_median("testgen_us", "koika::testgen::random_design", 1e3)?;

    fuzz::require_toolchain()?;
    let cache = fresh_native_cache("ladder-fuzz").map_err(|e| e.to_string())?;
    let mut builds = Vec::new();
    for i in 0..2 {
        let before = fuzz::artifacts(&cache);
        let seed = case_seed(FUZZ_SEED, i);
        let case = span("cuttlesim_repro::fuzz::run_case", || {
            run_case(seed, fuzz::CYCLES)
        });
        if !case.findings.is_empty() {
            return Err(format!("ladder fuzz case 0x{seed:x} has findings"));
        }
        builds.push((fuzz::artifacts(&cache) - before) as f64);
    }
    r.span_median("case_ms", "cuttlesim_repro::fuzz::run_case", 1e6)?;
    r.put("native_builds_per_case", median(&builds));
    Ok(())
}

/// The server's layers: request parsing, journal appends, crash recovery,
/// and client-side latency per request kind.
fn server_layers(r: &mut Report) -> Result<(), String> {
    let line = r#"{"op":"inject","session":17,"cycle":1234,"reg":"retired","bit":18,"req_id":99}"#;
    for _ in 0..REPS {
        let t = span("koika_server::json::parse", || {
            per_call(10_000, |_| {
                black_box(Json::parse(black_box(line)).is_ok());
            })
        });
        black_box(t);
    }
    r.span_median("json_parse_us", "koika_server::json::parse", 10_000.0 * 1e3)?;

    let dir = fresh_dir("ladder-journal").map_err(|e| e.to_string())?;
    let create = JournalRecord {
        seq: 1,
        req_id: None,
        op: JournalOp::Create {
            design: "rv32i".into(),
            tenant: "default".into(),
            backend: BackendKind::Cuttlesim,
            watchdog: WatchdogSpec::from_watchdog(&Default::default()),
        },
    };
    let mut j = Journal::create(&dir, 1, &create, None).map_err(|e| e.to_string())?;
    let before = j.durable_len();
    const APPENDS: u64 = 100;
    for n in 0..APPENDS {
        span("koika_server::journal::append", || {
            j.append(JournalOp::Step { n: n + 1 }, Some(n), None)
        })
        .map_err(|e| e.to_string())?;
    }
    r.span_median("journal_append_us", "koika_server::journal::append", 1e3)?;
    r.put(
        "journal_bytes_per_op",
        (j.durable_len() - before) as f64 / APPENDS as f64,
    );

    // The server runs pinned, as in the serve-durable workload.
    serve::pin_to_current_cpu()?;
    let provider = Arc::new(Provider::new()?);
    let crashed = fresh_dir("ladder-crashed").map_err(|e| e.to_string())?;
    let recorded = serve::prepare_crash(&provider, &crashed)?;
    let (h, _) = serve::recover(&provider, &crashed, 100, &recorded)?;
    r.span_median("recover_ms", "koika_server::spawn", 1e6)?;
    let script = serve::script(FUZZ_SEED);
    let mut client = Client::connect(&h)?;
    for _ in 0..REPS {
        serve::run_script(&mut client, &script)?;
    }
    drop(client);
    h.join();
    for (metric, kind) in [
        ("req_query_us", "req.query"),
        ("req_step_small_us", "req.step_small"),
        ("req_step_large_us", "req.step_large"),
        ("req_create_us", "req.create"),
        ("req_inject_us", "req.inject"),
        ("req_evict_us", "req.evict"),
        ("req_rehydrate_us", "req.rehydrate"),
        ("req_close_us", "req.close"),
    ] {
        r.span_median(metric, kind, 1e3)?;
    }
    Ok(())
}

/// Runs the whole ladder; returns `(name, value, unit)` per metric.
pub fn run() -> Result<Vec<(String, f64, &'static str)>, String> {
    fresh_native_cache("ladder-native").map_err(|e| e.to_string())?;
    let mut r = Report(Vec::new());
    span("perfbench::ladder::front_end", || front_end(&mut r))?;
    span("perfbench::ladder::engines", || engines(&mut r))?;
    span("perfbench::ladder::campaign", || campaign(&mut r))?;
    span("perfbench::ladder::fuzz", || fuzz_layers(&mut r))?;
    span("perfbench::ladder::server", || server_layers(&mut r))?;
    Ok(r.0)
}
