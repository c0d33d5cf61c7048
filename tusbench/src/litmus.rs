//! Litmus-scale programs: the cross-check simulations `check` runs,
//! repeated step by step through public calls, and the library's own run
//! they are compared with.

use tus::System;
use tus_cpu::{TraceInst, TraceSource, VecTrace};
use tus_energy::EnergyModel;
use tus_sim::{Addr, CoherenceKind, KernelKind, PolicyKind, SimConfig, SimRng, StatSet};
use tus_tso::conformance::{try_run_once_matrix, RunVerdict};
use tus_tso::fuzz::FuzzCase;
use tus_tso::prog::{LOp, Outcome, Program};

use crate::span::Recorder;

/// The cycle budget `tus_tso::conformance` gives one litmus run.
const RUN_BUDGET: u64 = 2_000_000;

/// The machine `tus_tso::conformance` simulates a program on.
fn config(prog: &Program, policy: PolicyKind, seed: u64, coherence: CoherenceKind) -> SimConfig {
    SimConfig::builder()
        .cores(prog.threads.len())
        .policy(policy)
        .sb_entries(8)
        .chaos_jitter(1 + (seed % 24))
        .scale_caches_down(64)
        .kernel(KernelKind::default())
        .coherence(coherence)
        .build()
}

/// One thread as an instruction trace, with up to `seed % 5` random ALU
/// instructions before each operation to perturb timing.
fn compile(prog: &Program, addrs: &[Addr], seed: u64) -> Vec<Vec<TraceInst>> {
    let mut rng = SimRng::seed(seed);
    let max_pad = seed % 5;
    prog.threads
        .iter()
        .map(|t| {
            let mut insts = Vec::new();
            for op in &t.ops {
                if max_pad > 0 {
                    for _ in 0..rng.range(0, max_pad + 1) {
                        insts.push(TraceInst::alu());
                    }
                }
                insts.push(match *op {
                    LOp::Store { loc, val } => TraceInst::store(addrs[loc.0], 8, val),
                    LOp::Load { loc } => TraceInst::load(addrs[loc.0], 8),
                    LOp::Fence => TraceInst::fence(),
                });
            }
            insts
        })
        .collect()
}

/// One litmus-scale simulation run step by step.
pub struct LitmusRun {
    pub outcome: Outcome,
    /// Statistics of the whole run.
    pub stats: StatSet,
    /// Instructions compiled apart from the run.
    pub drained: u64,
}

/// Simulates `prog` once, step by step inside spans, and reads its
/// outcome the way `conformance::try_run_once_matrix` does.
pub fn run_traced(
    rec: &Recorder,
    case: &FuzzCase,
    policy: PolicyKind,
    seed: u64,
    coherence: CoherenceKind,
    op: u64,
) -> Result<LitmusRun, String> {
    let (prog, addrs) = (&case.program, &case.addrs[..]);
    let drained = rec.span("workloads.drain", op, || {
        compile(prog, addrs, seed)
            .iter()
            .map(|t| t.len() as u64)
            .sum::<u64>()
    });
    let cfg = rec.span("sim.config", op, || config(prog, policy, seed, coherence));
    let model = rec.span("energy.from_config", op, || EnergyModel::from_config(&cfg));
    let traces = rec.span("workloads.traces", op, || {
        compile(prog, addrs, seed)
            .into_iter()
            .map(|t| Box::new(VecTrace::new(t)) as Box<dyn TraceSource>)
            .collect::<Vec<_>>()
    });
    let mut sys = rec.span("system.new", op, || System::new(&cfg, traces, seed));
    for i in 0..prog.threads.len() {
        sys.core_mut(i).record_loads(true);
    }
    let end = rec.span("system.run_measure", op, || {
        sys.try_run_to_completion(RUN_BUDGET)
    });
    let end = match end {
        Ok(end) => end,
        Err(r) => return Err(format!("litmus run gave up:\n{r}")),
    };
    rec.span("energy.evaluate", op, || model.evaluate(&end));
    let regs: Vec<Vec<u64>> = (0..prog.threads.len())
        .map(|i| sys.core(i).loaded_values().to_vec())
        .collect();
    let mem = (0..prog.locations())
        .map(|l| sys.mem().read_coherent(addrs[l], 8))
        .collect();
    rec.span("system.drop", op, || drop(sys));
    Ok(LitmusRun {
        outcome: Outcome { regs, mem },
        stats: end,
        drained,
    })
}

/// The library's own run of the same program, policy and seed.
pub fn library_outcome(
    case: &FuzzCase,
    policy: PolicyKind,
    seed: u64,
    coherence: CoherenceKind,
) -> Option<Outcome> {
    let kernel = KernelKind::default();
    match try_run_once_matrix(&case.program, &case.addrs, policy, seed, kernel, coherence) {
        RunVerdict::Outcome(o) => Some(o),
        _ => None,
    }
}
