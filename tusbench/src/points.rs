//! Simulation points: the runner's steps repeated through public calls,
//! the properties every result must have, and the simulated counts.

use std::hint::black_box;

use tus::System;
use tus_energy::EnergyModel;
use tus_harness::executor::encode_result;
use tus_harness::runner::default_budget;
use tus_harness::{RunResult, RunSpec};
use tus_sim::stats::names;
use tus_sim::{SimConfig, StatSet};

use crate::span::{durations, total_ns, Recorder, Span};
use crate::util::{median, Report};

/// The machine a spec describes, built the way the runner builds it.
pub fn config(spec: &RunSpec) -> SimConfig {
    let mut b = SimConfig::builder();
    b.cores(spec.cores)
        .sb_entries(spec.sb_entries)
        .policy(spec.policy)
        .kernel(spec.kernel)
        .coherence(spec.coherence);
    if let Some(t) = spec.tweak {
        (t.apply)(&mut b);
    }
    b.build()
}

/// A point run step by step: its result and the whole run's totals
/// (warm-up included), which the per-instruction costs divide by.
pub struct Stepped {
    pub result: RunResult,
    pub insts: f64,
    pub cycles: f64,
}

/// Runs one point step by step, each step inside its own span, and
/// assembles the [`RunResult`] the way `runner::run` does. The caller
/// compares it with the runner's result byte for byte.
pub fn run_traced(rec: &Recorder, spec: &RunSpec, op: u64) -> Result<Stepped, String> {
    let cfg = rec.span("sim.config", op, || config(spec));
    let model = rec.span("energy.from_config", op, || EnergyModel::from_config(&cfg));
    let total = spec.warmup + spec.insts;
    let budget = default_budget(spec);
    let traces = rec.span("workloads.traces", op, || {
        spec.workload.traces(spec.cores, spec.seed, total + 10_000)
    });
    let mut sys = rec.span("system.new", op, || System::new(&cfg, traces, spec.seed));
    let warm = if spec.warmup > 0 {
        rec.span("system.run_warmup", op, || {
            sys.try_run_committed(spec.warmup, budget)
        })
    } else {
        Ok(StatSet::new())
    };
    let end = rec.span("system.run_measure", op, || {
        sys.try_run_committed(total, budget)
    });
    rec.span("system.drop", op, || drop(sys));
    let (warm, end) = match (warm, end) {
        (Ok(w), Ok(e)) => (w, e),
        (Err(r), _) | (_, Err(r)) => return Err(format!("simulation gave up:\n{r}")),
    };
    let stats = end.minus(&warm);
    let cycles = stats.get(names::CYCLES).max(1.0);
    let committed = stats.get(names::TOTAL_COMMITTED);
    let sb_stall_frac = (0..spec.cores)
        .map(|i| stats.get(&names::core_cpu(i, names::STALL_SB)))
        .sum::<f64>()
        / (cycles * spec.cores as f64);
    let energy = rec.span("energy.evaluate", op, || model.evaluate(&stats));
    let edp = energy.edp();
    Ok(Stepped {
        insts: end.get(names::TOTAL_COMMITTED),
        cycles: end.get(names::CYCLES),
        result: RunResult {
            cycles,
            committed,
            ipc: committed / cycles,
            sb_stall_frac,
            energy,
            edp,
            stats,
        },
    })
}

/// Generates a spec's traces and drains them apart from any simulation;
/// returns the instructions generated. Times `Workload::traces` itself.
pub fn drain_traces(rec: &Recorder, spec: &RunSpec, op: u64) -> u64 {
    let limit = spec.warmup + spec.insts + 10_000;
    rec.span("workloads.drain", op, || {
        let mut n = 0u64;
        for mut t in spec.workload.traces(spec.cores, spec.seed, limit) {
            while let Some(inst) = t.next_inst() {
                black_box(inst);
                n += 1;
            }
        }
        n
    })
}

/// What the traced simulations of a run did, beside their spans.
#[derive(Debug, Default, Clone, Copy)]
pub struct StepTotals {
    /// Simulations run step by step.
    pub sims: u64,
    /// Instructions drained from freshly generated traces.
    pub drained: u64,
    /// Instructions committed and cycles simulated, warm-up included.
    pub insts: f64,
    pub cycles: f64,
}

impl StepTotals {
    pub fn add(&mut self, insts: f64, cycles: f64, drained: u64) {
        self.sims += 1;
        self.drained += drained;
        self.insts += insts;
        self.cycles += cycles;
    }

    pub fn absorb(&mut self, other: &StepTotals) {
        self.sims += other.sims;
        self.drained += other.drained;
        self.insts += other.insts;
        self.cycles += other.cycles;
    }
}

/// The per-layer metrics every workload reports from its step-by-step
/// simulations (sweep points, daemon points or litmus-scale programs).
pub fn layer_metrics(spans: &[Span], t: &StepTotals, out: &mut Report) {
    let ms = |name| median(&durations(spans, name)) / 1e6;
    let step =
        (total_ns(spans, "system.run_warmup") + total_ns(spans, "system.run_measure")) as f64;
    let energy =
        (total_ns(spans, "energy.from_config") + total_ns(spans, "energy.evaluate")) as f64;
    out.push(
        "workloads.gen_ns_per_inst",
        total_ns(spans, "workloads.drain") as f64 / t.drained.max(1) as f64,
        "ns/inst",
    );
    out.push("system.build_ms", ms("system.new"), "ms");
    out.push("system.drop_ms", ms("system.drop"), "ms");
    out.push(
        "system.step_ns_per_inst",
        step / t.insts.max(1.0),
        "ns/inst",
    );
    out.push(
        "system.step_ns_per_kcycle",
        step / (t.cycles / 1000.0).max(1e-9),
        "ns/kcycle",
    );
    out.push("energy.eval_us", energy / 1e3 / t.sims.max(1) as f64, "us");
}

/// Adds the reported simulated counts to a result line.
pub fn push_counts(counts: &SimCounts, out: &mut Report) {
    for (name, v) in counts.reported() {
        out.push(name, v, "count");
    }
}

/// The result text a point is fingerprinted and compared by.
pub fn text(spec: &RunSpec, r: &RunResult) -> String {
    encode_result(r, &spec.memo_key())
}

/// Properties every measured point must have, whatever the model says:
/// committed instructions add up over cores, every load is a hit, a miss
/// or blocked, IPC is positive and at most 8 per core, and the SB-stall
/// fraction is a fraction. Returns the first violated property.
pub fn check_invariants(spec: &RunSpec, r: &RunResult) -> Result<(), String> {
    let s = &r.stats;
    let per_core: f64 = (0..spec.cores)
        .map(|i| s.get(&names::core_cpu(i, "committed")))
        .sum();
    if per_core != s.get(names::TOTAL_COMMITTED) {
        return Err(format!(
            "{}: per-core committed {per_core} != total_committed {}",
            spec.memo_key(),
            s.get(names::TOTAL_COMMITTED)
        ));
    }
    for i in 0..spec.cores {
        let loads = s.get(&names::mem_core(i, "loads"));
        let parts = s.get(&names::mem_core(i, names::L1D_LOAD_HITS))
            + s.get(&names::mem_core(i, names::L1D_LOAD_MISSES))
            + s.get(&names::mem_core(i, "loads_blocked_unauth"));
        if loads != parts {
            return Err(format!(
                "{}: core {i} loads {loads} != hits + misses + blocked {parts}",
                spec.memo_key()
            ));
        }
    }
    if !(r.ipc > 0.0 && r.ipc <= 8.0 * spec.cores as f64) {
        return Err(format!(
            "{}: IPC {} outside (0, 8 x cores]",
            spec.memo_key(),
            r.ipc
        ));
    }
    if !(0.0..=1.0).contains(&r.sb_stall_frac) {
        return Err(format!(
            "{}: sb_stall_frac {} outside [0, 1]",
            spec.memo_key(),
            r.sb_stall_frac
        ));
    }
    Ok(())
}

/// The simulated counts summed over a workload's points. They repeat
/// exactly for a given seed; a change that only makes the simulator
/// faster leaves every one of them unchanged.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct SimCounts {
    pub kcycles: f64,
    pub committed: f64,
    pub stall_sb: f64,
    pub wcb_flushes: f64,
    pub woq_searches: f64,
    pub conflict_relinquishes: f64,
    pub l1d_load_misses: f64,
    pub l2_load_misses: f64,
    pub dir_requests: f64,
    pub dir_invs: f64,
    pub net_msgs: f64,
    pub lease_extends: f64,
}

/// Sum of every statistic whose name ends with `suffix` (per-core
/// statistics carry a `core<i>.` prefix).
fn sum_suffix(s: &StatSet, suffix: &str) -> f64 {
    s.iter()
        .filter(|(n, _)| n.ends_with(suffix))
        .map(|(_, v)| v)
        .sum()
}

impl SimCounts {
    pub fn add_stats(&mut self, s: &StatSet) {
        self.kcycles += s.get(names::CYCLES) / 1000.0;
        self.committed += s.get(names::TOTAL_COMMITTED);
        self.stall_sb += sum_suffix(s, ".cpu.stall_sb");
        self.wcb_flushes += sum_suffix(s, ".policy.wcb_flushes");
        self.woq_searches += sum_suffix(s, ".policy.woq_searches");
        self.conflict_relinquishes += sum_suffix(s, ".policy.conflict_relinquishes");
        self.l1d_load_misses += sum_suffix(s, ".l1d_load_misses");
        self.l2_load_misses += sum_suffix(s, ".l2_load_misses");
        self.dir_requests += s.get("mem.dir.gets") + s.get("mem.dir.getm");
        self.dir_invs += s.get("mem.dir.invs");
        self.net_msgs += s.get("mem.net.msgs");
        self.lease_extends += s.get("mem.dir.lease_extends");
    }

    /// Name, value pairs in a fixed order.
    pub fn named(&self) -> [(&'static str, f64); 12] {
        [
            ("sim.kcycles", self.kcycles),
            ("cpu.committed", self.committed),
            ("cpu.stall_sb", self.stall_sb),
            ("policy.wcb_flushes", self.wcb_flushes),
            ("policy.woq_searches", self.woq_searches),
            ("policy.conflict_relinquishes", self.conflict_relinquishes),
            ("mem.l1d_load_misses", self.l1d_load_misses),
            ("mem.l2_load_misses", self.l2_load_misses),
            ("dir.requests", self.dir_requests),
            ("dir.invs", self.dir_invs),
            ("net.msgs", self.net_msgs),
            ("dir.lease_extends", self.lease_extends),
        ]
    }

    /// The counts every workload's traced run reports in its result
    /// line: the ones no workload leaves at zero.
    pub fn reported(&self) -> impl Iterator<Item = (&'static str, f64)> {
        const ZERO_SOMEWHERE: [&str; 4] = [
            "cpu.stall_sb",
            "policy.conflict_relinquishes",
            "dir.invs",
            "dir.lease_extends",
        ];
        self.named()
            .into_iter()
            .filter(|(n, _)| !ZERO_SOMEWHERE.contains(n))
    }

    pub fn render(&self) -> String {
        self.named()
            .iter()
            .map(|(n, v)| format!("{n}={v}"))
            .collect::<Vec<_>>()
            .join(" ")
    }
}
