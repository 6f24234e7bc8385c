//! `serve-durable`: the session server with `state_dir` journaling,
//! driven closed-loop over one TCP connection.
//!
//! Set-up is a server start that recovers a state directory left by an
//! `abort()`ed server (prepared untimed, copied fresh for every
//! repetition). Each round then runs one fixed script ([`script`]): two
//! sessions (rv32i-primes and collatz) see reads (`query-regs`) beside
//! journaled writes (`step`, `stream-trace`, `inject`), small steps and
//! one large rv32i step, an `evict` and the rehydrating read after it, and
//! `create`/`close`. One connection keeps the work identical from run to
//! run (with two, batch-lane packing varies).

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use koika::device::{Device, SimBackend};
use koika::interp::Interp;
use koika::runner::RunnerConfig;
use koika::testgen::SplitMix64;
use koika::tir::{RegId, TDesign};
use koika_designs::memdev::MagicMemory;
use koika_server::json::Json;
use koika_server::{spawn, DesignProvider, ServerConfig, ServerHandle};

use crate::rv32i::{self, Primes};
use crate::stats::Round;
use crate::trace::{record, span};
use crate::{checks, fresh_dir, Args, Outcome, SETUP_REPS};

/// Prime limit of the served rv32i sessions.
pub const LIMIT: u32 = 400;
/// Cycles of the one large rv32i step per round.
pub const LARGE_STEP: u64 = 20_000;
/// Small steps per session per round.
pub const SMALL_STEPS: usize = 8;
/// Sessions in the crashed state directory, alternately rv32i and collatz.
pub const RECOVER_SESSIONS: usize = 6;
/// Journaled steps per crashed session, each of [`RECOVER_STEP`] cycles.
pub const RECOVER_STEPS: usize = 8;
/// Cycles per journaled step of a crashed session.
pub const RECOVER_STEP: u64 = 6_000;

/// Serves `rv32i` (with the primes program in its magic memory) and
/// `collatz`.
pub struct Provider {
    rv32i: Arc<TDesign>,
    collatz: Arc<TDesign>,
    primes: Primes,
}

impl Provider {
    /// Checks both designs.
    pub fn new() -> Result<Provider, String> {
        Ok(Provider {
            rv32i: Arc::new(rv32i::design()?),
            collatz: Arc::new(
                koika::check::check(&koika_designs::small::collatz()).map_err(|e| e.to_string())?,
            ),
            primes: Primes::new(LIMIT),
        })
    }

    fn td(&self, name: &str) -> &TDesign {
        if name == "rv32i" {
            &self.rv32i
        } else {
            &self.collatz
        }
    }
}

impl DesignProvider for Provider {
    fn design(&self, name: &str) -> Option<Arc<TDesign>> {
        match name {
            "rv32i" => Some(Arc::clone(&self.rv32i)),
            "collatz" => Some(Arc::clone(&self.collatz)),
            _ => None,
        }
    }

    fn devices(&self, name: &str, td: &TDesign) -> Vec<Box<dyn Device + Send>> {
        match name {
            "rv32i" => vec![Box::new(MagicMemory::new(
                td,
                &rv32i::PORTS,
                &self.primes.program,
                koika_designs::harness::MEM_WORDS,
            )) as Box<dyn Device + Send>],
            _ => Vec::new(),
        }
    }
}

/// The server configuration: durable, one step worker.
pub fn config(state_dir: &Path) -> ServerConfig {
    ServerConfig {
        state_dir: Some(state_dir.to_path_buf()),
        spool_dir: state_dir.to_path_buf(),
        runner: RunnerConfig::with_jobs(1),
        ..ServerConfig::default()
    }
}

/// One client connection, closed loop.
pub struct Client {
    w: TcpStream,
    r: BufReader<TcpStream>,
}

impl Client {
    /// Connects to a running server.
    pub fn connect(h: &ServerHandle) -> Result<Client, String> {
        let w = TcpStream::connect(h.addr()).map_err(|e| format!("connect: {e}"))?;
        w.set_nodelay(true).map_err(|e| e.to_string())?;
        let r = BufReader::new(w.try_clone().map_err(|e| e.to_string())?);
        Ok(Client { w, r })
    }

    /// Sends one request line and waits for its reply; returns the parsed
    /// reply and the round trip in milliseconds. A reply that is not
    /// `"ok":true` is an error.
    pub fn call(&mut self, req: &str) -> Result<(Json, f64), String> {
        let t = Instant::now();
        self.w
            .write_all(req.as_bytes())
            .and_then(|_| self.w.write_all(b"\n"))
            .map_err(|e| format!("send: {e}"))?;
        let mut line = String::new();
        self.r
            .read_line(&mut line)
            .map_err(|e| format!("receive: {e}"))?;
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let v = Json::parse(line.trim_end()).map_err(|e| format!("reply {line:?}: {e}"))?;
        if v.get("ok").and_then(Json::as_bool) != Some(true) {
            return Err(format!("request {req} failed: {}", line.trim_end()));
        }
        Ok((v, ms))
    }
}

/// Register names and values, in design order.
pub type Registers = Vec<(String, u64)>;

/// Every register of a `query-regs` reply, in reply order.
pub fn reply_regs(v: &Json) -> Result<Registers, String> {
    match v.get("regs") {
        Some(Json::Obj(fields)) => fields
            .iter()
            .map(|(k, x)| {
                x.as_u64()
                    .map(|n| (k.clone(), n))
                    .ok_or_else(|| format!("register {k} is not a u64"))
            })
            .collect(),
        _ => Err("reply has no regs".into()),
    }
}

fn num(v: &Json, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("reply has no {key}"))
}

/// One scripted request against session `A` (rv32i) or `B` (collatz).
#[derive(Debug, Clone)]
pub enum Op {
    /// `create` of a design.
    Create(&'static str),
    /// `step n` (`large` marks the engine-bound one).
    Step { n: u64, large: bool },
    /// `stream-trace n`.
    Trace(u64),
    /// `inject`, `ahead` cycles after the session's current cycle.
    Inject {
        reg: &'static str,
        bit: u32,
        ahead: u64,
    },
    /// `query-regs`, of some registers or all of them.
    Query(Option<&'static [&'static str]>),
    /// `evict`.
    Evict,
    /// `close`.
    Close,
}

impl Op {
    /// Per-layer label of the request kind.
    pub fn kind(&self, after_evict: bool) -> &'static str {
        match self {
            Op::Create(_) => "req.create",
            Op::Step { large: true, .. } => "req.step_large",
            Op::Step { .. } | Op::Trace(_) => "req.step_small",
            Op::Inject { .. } => "req.inject",
            Op::Query(_) if after_evict => "req.rehydrate",
            Op::Query(_) => "req.query",
            Op::Evict => "req.evict",
            Op::Close => "req.close",
        }
    }
}

/// The fixed per-round script for a seed: `(session, op)` pairs, session
/// 0 being the rv32i session and 1 the collatz one.
pub fn script(seed: u64) -> Vec<(usize, Op)> {
    const PC: &[&str] = &["pc", "retired"];
    const X: &[&str] = &["x", "steps"];
    let mut rng = SplitMix64::new(seed ^ 0x5E12_E000);
    let mut s = vec![(0, Op::Create("rv32i")), (1, Op::Create("collatz"))];
    // Three reads per journaled write, so the median request is a read
    // and an fsync on a shared disk does not decide it.
    for _ in 0..SMALL_STEPS {
        let n = 1 + rng.below(16);
        s.push((0, Op::Step { n, large: false }));
        s.push((1, Op::Step { n, large: false }));
        for _ in 0..3 {
            s.push((0, Op::Query(Some(PC))));
            s.push((1, Op::Query(Some(X))));
        }
    }
    s.push((
        0,
        Op::Inject {
            reg: "retired",
            bit: 16 + rng.below(8) as u32,
            ahead: 2,
        },
    ));
    s.push((
        1,
        Op::Inject {
            reg: "steps",
            bit: rng.below(6) as u32,
            ahead: 1,
        },
    ));
    s.push((1, Op::Trace(4)));
    s.push((
        0,
        Op::Step {
            n: LARGE_STEP,
            large: true,
        },
    ));
    s.push((0, Op::Query(None)));
    s.push((1, Op::Query(None)));
    s.push((0, Op::Evict));
    s.push((0, Op::Query(None)));
    s.push((
        0,
        Op::Step {
            n: 1 + rng.below(16),
            large: false,
        },
    ));
    s.push((0, Op::Query(None)));
    s.push((0, Op::Close));
    s.push((1, Op::Close));
    s
}

/// What one script pass returned: per request its kind and round trip,
/// and the canonical replies (session ids replaced by the session index).
pub struct Pass {
    /// `(kind, ms)` per request.
    pub latencies: Vec<(&'static str, f64)>,
    /// Replies with session ids made symbolic, for comparing passes.
    pub replies: Vec<String>,
    /// `(session, cycle, registers)` of every full `query-regs`.
    pub full_queries: Vec<(usize, u64, Registers)>,
    /// Simulated cycles stepped.
    pub cycles: u64,
}

/// Runs the script once over `client`, checking that every reply is ok
/// and every step advances its session by exactly `n` cycles.
pub fn run_script(client: &mut Client, script: &[(usize, Op)]) -> Result<Pass, String> {
    let mut ids = [0u64; 2];
    let mut cycles = [0u64; 2];
    let mut evicted = [false; 2];
    let mut pass = Pass {
        latencies: Vec::with_capacity(script.len()),
        replies: Vec::with_capacity(script.len()),
        full_queries: Vec::new(),
        cycles: 0,
    };
    for (s, op) in script {
        let (s, id) = (*s, ids[*s]);
        let req = match op {
            Op::Create(design) => format!("{{\"op\":\"create\",\"design\":\"{design}\"}}"),
            Op::Step { n, .. } => format!("{{\"op\":\"step\",\"session\":{id},\"n\":{n}}}"),
            Op::Trace(n) => format!("{{\"op\":\"stream-trace\",\"session\":{id},\"n\":{n}}}"),
            Op::Inject { reg, bit, ahead } => format!(
                "{{\"op\":\"inject\",\"session\":{id},\"cycle\":{},\"reg\":\"{reg}\",\"bit\":{bit}}}",
                cycles[s] + ahead
            ),
            Op::Query(Some(regs)) => format!(
                "{{\"op\":\"query-regs\",\"session\":{id},\"regs\":[{}]}}",
                regs.iter().map(|r| format!("\"{r}\"")).collect::<Vec<_>>().join(",")
            ),
            Op::Query(None) => format!("{{\"op\":\"query-regs\",\"session\":{id}}}"),
            Op::Evict => format!("{{\"op\":\"evict\",\"session\":{id}}}"),
            Op::Close => format!("{{\"op\":\"close\",\"session\":{id}}}"),
        };
        let kind = op.kind(evicted[s]);
        let (v, ms) = client.call(&req)?;
        record(kind, (ms * 1e6) as u64);
        pass.latencies.push((kind, ms));
        evicted[s] = matches!(op, Op::Evict);
        match op {
            Op::Create(_) => {
                ids[s] = num(&v, "session")?;
                cycles[s] = 0;
            }
            Op::Step { n, .. } | Op::Trace(n) => {
                let got = num(&v, "cycles")?;
                checks::exact_cycles(&format!("session {s}"), cycles[s], *n, got)?;
                cycles[s] = got;
                pass.cycles += n;
            }
            Op::Query(None) => {
                pass.full_queries
                    .push((s, num(&v, "cycles")?, reply_regs(&v)?));
            }
            _ => {}
        }
        // Session ids differ between passes; everything else must not.
        let text = match &v {
            Json::Obj(fields) => format!(
                "{:?}",
                fields
                    .iter()
                    .filter(|(k, _)| k != "session")
                    .collect::<Vec<_>>()
            ),
            other => format!("{other:?}"),
        };
        pass.replies.push(text);
    }
    Ok(pass)
}

/// Replays the script on the reference interpreter (with fresh devices
/// and the same injections) and checks every full `query-regs` reply.
pub fn check_against_reference(
    provider: &Provider,
    script: &[(usize, Op)],
    pass: &Pass,
) -> Result<(), String> {
    struct Ref {
        design: &'static str,
        sim: Interp,
        devices: Vec<Box<dyn Device>>,
        flips: Vec<(u64, RegId, u32)>,
    }
    impl Ref {
        fn step(&mut self, n: u64) {
            for _ in 0..n {
                let c = self.sim.cycle_count();
                for d in self.devices.iter_mut() {
                    d.tick(c, self.sim.as_reg_access());
                }
                for &(_, reg, bit) in self.flips.iter().filter(|f| f.0 == c) {
                    let regs = self.sim.as_reg_access();
                    let v = regs.get64(reg);
                    regs.set64(reg, v ^ (1 << bit));
                }
                self.sim.cycle();
            }
        }
    }
    let mut refs: Vec<Option<Ref>> = vec![None, None];
    let mut full = pass.full_queries.iter();
    for (s, op) in script {
        match op {
            Op::Create(design) => {
                let td = provider.td(design);
                refs[*s] = Some(Ref {
                    design,
                    sim: Interp::new(td),
                    devices: provider
                        .devices(design, td)
                        .into_iter()
                        .map(|d| d as Box<dyn Device>)
                        .collect(),
                    flips: Vec::new(),
                });
            }
            Op::Step { n, .. } | Op::Trace(n) => {
                refs[*s].as_mut().ok_or("step before create")?.step(*n)
            }
            Op::Inject { reg, bit, ahead } => {
                let r = refs[*s].as_mut().ok_or("inject before create")?;
                let at = r.sim.cycle_count() + ahead;
                let id = provider.td(r.design).reg_id(reg);
                r.flips.push((at, id, *bit));
            }
            Op::Query(None) => {
                let r = refs[*s].as_mut().ok_or("query before create")?;
                let (qs, qcycle, got) = full.next().ok_or("missing full query")?;
                if *qs != *s || *qcycle != r.sim.cycle_count() {
                    return Err(format!(
                        "session {s}: served cycle {qcycle}, reference cycle {}",
                        r.sim.cycle_count()
                    ));
                }
                let td = provider.td(r.design);
                let want: Vec<(String, u64)> = td
                    .regs
                    .iter()
                    .enumerate()
                    .map(|(i, reg)| {
                        (
                            reg.name.clone(),
                            r.sim.as_reg_access().get64(RegId(i as u32)),
                        )
                    })
                    .collect();
                checks::same_regs(&format!("session {s} at cycle {qcycle}"), got, &want)?;
            }
            _ => {}
        }
    }
    Ok(())
}

/// Sessions and registers recorded before a crash.
pub type Recorded = BTreeMap<u64, Registers>;

/// Leaves a state directory as an `abort()`ed server does: sessions with
/// journal tails to re-execute, an injection pending in one of them.
pub fn prepare_crash(provider: &Arc<Provider>, dir: &Path) -> Result<Recorded, String> {
    let h = spawn(
        config(dir),
        Arc::clone(provider) as Arc<dyn DesignProvider>,
        "127.0.0.1:0",
    )
    .map_err(|e| format!("server start: {e}"))?;
    let mut c = Client::connect(&h)?;
    let mut recorded = Recorded::new();
    for i in 0..RECOVER_SESSIONS {
        let design = if i % 2 == 0 { "rv32i" } else { "collatz" };
        let (v, _) = c.call(&format!("{{\"op\":\"create\",\"design\":\"{design}\"}}"))?;
        let id = num(&v, "session")?;
        for k in 0..RECOVER_STEPS {
            c.call(&format!(
                "{{\"op\":\"step\",\"session\":{id},\"n\":{RECOVER_STEP}}}"
            ))?;
            if k == 1 && design == "collatz" {
                c.call(&format!(
                    "{{\"op\":\"inject\",\"session\":{id},\"cycle\":{},\"reg\":\"steps\",\"bit\":3}}",
                    (k as u64 + 1) * RECOVER_STEP + 5
                ))?;
            }
        }
        let (v, _) = c.call(&format!("{{\"op\":\"query-regs\",\"session\":{id}}}"))?;
        recorded.insert(id, reply_regs(&v)?);
    }
    drop(c);
    h.abort();
    Ok(recorded)
}

fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    for e in std::fs::read_dir(from).map_err(|e| e.to_string())? {
        let e = e.map_err(|e| e.to_string())?;
        std::fs::copy(e.path(), to.join(e.file_name())).map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// One timed set-up: a server start recovering a copy of the crashed
/// directory. Checks that every session came back with its registers.
pub fn recover(
    provider: &Arc<Provider>,
    crashed: &Path,
    rep: usize,
    recorded: &Recorded,
) -> Result<(ServerHandle, f64), String> {
    let dir = fresh_dir(&format!("state-{rep}")).map_err(|e| e.to_string())?;
    copy_dir(crashed, &dir)?;
    let t = Instant::now();
    let h = span("koika_server::spawn", || {
        spawn(
            config(&dir),
            Arc::clone(provider) as Arc<dyn DesignProvider>,
            "127.0.0.1:0",
        )
    })
    .map_err(|e| format!("server start: {e}"))?;
    let secs = t.elapsed().as_secs_f64();
    if h.recovered_sessions() as usize != recorded.len() || h.lost_sessions() != 0 {
        return Err(format!(
            "recovered {} sessions ({} lost), want {}",
            h.recovered_sessions(),
            h.lost_sessions(),
            recorded.len()
        ));
    }
    let mut c = Client::connect(&h)?;
    for (id, want) in recorded {
        let (v, _) = c.call(&format!("{{\"op\":\"query-regs\",\"session\":{id}}}"))?;
        checks::same_regs(&format!("recovered session {id}"), &reply_regs(&v)?, want)?;
    }
    Ok((h, secs))
}

/// Pins the calling thread, and so every thread it starts afterwards (the
/// server's), to the CPU it is running on. The closed loop hands each
/// request across three threads; on a 2-vCPU guest, wakeups across vCPUs
/// made the median request 2–3x slower and its run-to-run spread 0.3 of
/// the median, against 0.04 on one CPU.
pub fn pin_to_current_cpu() -> Result<(), String> {
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // SAFETY: `sched_getcpu` takes no arguments and only reports the
    // calling thread's CPU.
    let cpu = unsafe { sched_getcpu() };
    let mut mask = [0u64; 16];
    let cpu = usize::try_from(cpu)
        .ok()
        .filter(|&c| c < mask.len() * 64)
        .ok_or_else(|| format!("sched_getcpu returned {cpu}"))?;
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live 128-byte CPU bit set, the size passed with
    // it; pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc == 0 {
        Ok(())
    } else {
        Err(format!(
            "sched_setaffinity to CPU {cpu}: {}",
            std::io::Error::last_os_error()
        ))
    }
}

fn setup(provider: &Arc<Provider>) -> Result<(Vec<f64>, ServerHandle), String> {
    pin_to_current_cpu()?;
    let crashed = fresh_dir("crashed").map_err(|e| e.to_string())?;
    let recorded = prepare_crash(provider, &crashed)?;
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for rep in 0..SETUP_REPS {
        let (h, secs) = recover(provider, &crashed, rep, &recorded)?;
        times.push(secs);
        if let Some(prev) = last.replace(h) {
            prev.join();
        }
    }
    Ok((times, last.expect("at least one set-up")))
}

/// The set-up alone (the server start is repeated in-process: it builds
/// no native code, so nothing is cached between repetitions).
pub fn setup_probe(_args: &Args) -> Result<f64, String> {
    let provider = Arc::new(Provider::new()?);
    let (times, h) = setup(&provider)?;
    h.join();
    Ok(crate::stats::median(&times))
}

/// Runs the workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let provider = Arc::new(Provider::new()?);
    let (setup_s, handle) = setup(&provider)?;
    let script = script(args.seed);
    let mut client = Client::connect(&handle)?;
    let mut rounds = Vec::new();
    let mut first: Option<Pass> = None;
    let mut error = None;
    let mut attempted = 0u64;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < args.seconds && error.is_none() {
        let t = Instant::now();
        attempted += script.len() as u64;
        let pass = match span("perfbench::serve_round", || {
            run_script(&mut client, &script)
        }) {
            Ok(p) => p,
            Err(e) => {
                error = Some(e);
                break;
            }
        };
        rounds.push(Round {
            secs: t.elapsed().as_secs_f64(),
            cycles: pass.cycles as f64,
            op_ms: pass.latencies.iter().map(|(_, ms)| *ms).collect(),
        });
        match &first {
            None => first = Some(pass),
            Some(f) if f.replies != pass.replies => {
                error = Some("a repeated round got different replies".into());
            }
            Some(_) => {}
        }
    }
    drop(client);
    handle.join();
    if let (None, Some(f)) = (&error, &first) {
        if let Err(e) = check_against_reference(&provider, &script, f) {
            error = Some(e);
        }
    }
    let summary = format!(
        "serve-durable: {} rounds of {} requests, set-up recovered {RECOVER_SESSIONS} sessions",
        rounds.len(),
        script.len()
    );
    Ok(Outcome {
        setup_s,
        band: crate::stats::BAND,
        rounds,
        attempted,
        failed: 0,
        error,
        summary,
    })
}
