//! The rv32i-primes workload shared by the simulation, campaign, server
//! and ladder runs: the pipelined RV32I core from `koika_designs`, the
//! trial-division prime counter from `koika_riscv`, and the `memdev`
//! magic memory that serves both of the core's ports.

use cuttlesim::{CompileOptions, Dispatch, Program, Sim};
use koika::check::check;
use koika::device::SimBackend;
use koika::tir::{RegId, TDesign};
use koika_designs::harness::{golden_run, MEM_WORDS};
use koika_designs::memdev::MagicMemory;
use koika_designs::rv32;
use koika_riscv::golden::Golden;
use koika_riscv::programs;

use crate::trace::span;

/// The core's memory ports, as `MagicMemory` names them.
pub const PORTS: [&str; 2] = ["imem", "dmem"];

/// Address the primes program stores its count at.
pub const RESULT_ADDR: u32 = programs::RESULT_ADDR;

/// The checked rv32i design (timed as the `koika::check` layer).
pub fn design() -> Result<TDesign, String> {
    span("koika::check", || check(&rv32::rv32i())).map_err(|e| format!("check rv32i: {e}"))
}

/// Compiles a design at the maximum level (the `cuttlesim::compile` layer).
pub fn compile(td: &TDesign) -> Result<Program, String> {
    span("cuttlesim::compile", || {
        cuttlesim::compile(td, &CompileOptions::default())
    })
    .map_err(|e| format!("compile {}: {e}", td.name))
}

/// A simulator for `prog` under `dispatch`. For `Native` this is the
/// cold build on a cache miss and a load on a hit.
pub fn sim_with(prog: &Program, dispatch: Dispatch) -> Result<Sim, String> {
    let mut sim = Sim::new(prog.clone());
    let layer = match dispatch {
        Dispatch::Native => "cuttlesim::native::try_set_dispatch",
        Dispatch::Tac => "cuttlesim::tac::try_set_dispatch",
        _ => "cuttlesim::vm::set_dispatch",
    };
    span(layer, || sim.try_set_dispatch(dispatch))
        .map_err(|e| format!("{} dispatch: {e}", dispatch.short_name()))?;
    Ok(sim)
}

/// One prime-counting program and what it must produce.
pub struct Primes {
    /// Count primes below this.
    pub limit: u32,
    /// The assembled program.
    pub program: Vec<u32>,
    /// The ISA golden model run to its halt.
    pub golden: Golden,
}

impl Primes {
    /// Assembles the program and runs the golden ISA model to its halt.
    pub fn new(limit: u32) -> Primes {
        let program = programs::primes(limit);
        let golden = golden_run(&program, 1 << 34);
        Primes {
            limit,
            program,
            golden,
        }
    }

    /// A fresh magic memory holding the program.
    pub fn memory(&self, td: &TDesign) -> MagicMemory {
        MagicMemory::new(td, &PORTS, &self.program, MEM_WORDS)
    }
}

/// Register ids of the core's architectural state.
pub struct CoreRegs {
    /// `retired`: instructions retired so far.
    pub retired: RegId,
    /// `rf[0..32]`.
    pub rf: Vec<RegId>,
}

impl CoreRegs {
    /// Resolves the registers of the single-core rv32i design.
    pub fn of(td: &TDesign) -> CoreRegs {
        CoreRegs {
            retired: td.reg_id("retired"),
            rf: (0..32).map(|i| td.reg_elem("rf", i)).collect(),
        }
    }

    /// The architectural register file.
    pub fn rf_values(&self, sim: &mut dyn SimBackend) -> Vec<u32> {
        self.rf
            .iter()
            .map(|&r| sim.as_reg_access().get64(r) as u32)
            .collect()
    }
}
