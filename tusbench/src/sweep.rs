//! `spec-sweep` and `parsec-fabric`: the figure suite's points run cold
//! through `Executor::run_many` with two workers and default settings.
//!
//! One operation is one round: a fresh executor (no disk cache) runs every
//! point of the suite. Every round runs the same points, so two rounds of a
//! run must give byte-identical results.

use std::hint::black_box;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use tus_harness::{Executor, RunResult, RunSpec, Scale};
use tus_sim::{KernelKind, PolicyKind};
use tus_workloads::{all_single, parsec16};

use crate::points::{self, SimCounts, StepTotals};
use crate::span::{self, Recorder};
use crate::util::{median, mix, peak_rss_mb, shuffled, Fnv, Report};
use crate::Args;

/// Worker threads: the box's two vCPUs.
const WORKERS: usize = 2;

/// Set-ups per run; the median is reported.
const SETUP_REPS: usize = 5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Suite {
    /// Single-core SPEC/TF-like points, SB-bound and compute-bound, every
    /// policy, a small and a large SB.
    Spec,
    /// 16-core PARSEC-like points.
    Parsec,
}

impl Suite {
    /// Points re-run under the lockstep kernel after the measured window.
    fn lockstep_sample(self) -> usize {
        match self {
            Suite::Spec => 3,
            Suite::Parsec => 1,
        }
    }
}

/// The suite's points, all under the workload seed. Workload `j` runs
/// policy `j mod 5`; single-core workloads run it at both SB sizes, the
/// 16-core ones at one size each, so every policy and both sizes appear
/// while a round stays short enough to repeat many times in a run.
pub fn specs(suite: Suite, seed: u64) -> Vec<RunSpec> {
    let spec = |w, p, sb| RunSpec {
        seed,
        ..RunSpec::new(w, p, sb, Scale::Quick)
    };
    let policies = PolicyKind::ALL;
    let mut out = Vec::new();
    match suite {
        Suite::Spec => {
            for (j, w) in all_single().into_iter().enumerate() {
                for sb in [32, 114] {
                    out.push(spec(w.clone(), policies[j % policies.len()], sb));
                }
            }
        }
        Suite::Parsec => {
            for (j, w) in parsec16().into_iter().enumerate() {
                let sb = if (j / policies.len()).is_multiple_of(2) {
                    32
                } else {
                    114
                };
                out.push(spec(w, policies[j % policies.len()], sb));
            }
        }
    }
    out
}

/// What one round produced.
struct Round {
    wall_s: f64,
    results: Result<Vec<RunResult>, String>,
}

fn round(specs: &[RunSpec]) -> Round {
    let ex = Executor::new(WORKERS, None);
    let t = Instant::now();
    let results = match std::panic::catch_unwind(AssertUnwindSafe(|| ex.run_many_checked(specs))) {
        Ok(Ok(r)) => Ok(r),
        Ok(Err(e)) => Err(e.to_string()),
        Err(_) => Err("run_many panicked".into()),
    };
    Round {
        wall_s: t.elapsed().as_secs_f64(),
        results,
    }
}

/// Checks and fingerprints one round's results. Returns the texts.
fn texts(specs: &[RunSpec], results: &[RunResult], errors: &mut Vec<String>) -> Vec<String> {
    specs
        .iter()
        .zip(results)
        .map(|(s, r)| {
            if let Err(e) = points::check_invariants(s, r) {
                errors.push(e);
            }
            points::text(s, r)
        })
        .collect()
}

fn fingerprint(texts: &[String]) -> u64 {
    let mut h = Fnv::default();
    for t in texts {
        h.add(t.as_bytes());
    }
    h.0
}

/// Accumulates rounds: operation counts, walls, the first round's texts.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    walls: Vec<f64>,
    first: Option<Vec<String>>,
    counts: SimCounts,
    errors: Vec<String>,
}

impl Tally {
    fn absorb(&mut self, specs: &[RunSpec], r: Round) {
        self.attempted += specs.len() as u64;
        match r.results {
            Ok(results) => {
                self.walls.push(r.wall_s);
                let t = texts(specs, &results, &mut self.errors);
                match &self.first {
                    None => {
                        for res in &results {
                            self.counts.add_stats(&res.stats);
                        }
                        self.first = Some(t);
                    }
                    Some(first) if fingerprint(first) != fingerprint(&t) => {
                        self.errors
                            .push("two rounds of the run gave different results".into());
                    }
                    Some(_) => {}
                }
            }
            Err(e) => {
                eprintln!("round failed: {e}");
                self.failed += specs.len() as u64;
            }
        }
    }
}

/// Re-runs a seeded sample of points under the lockstep kernel, a
/// separate stepping implementation; each must reproduce the event
/// kernel's result text byte for byte.
fn lockstep_check(
    suite: Suite,
    specs: &[RunSpec],
    texts: &[String],
    seed: u64,
    errors: &mut Vec<String>,
) {
    for &i in shuffled(specs.len(), mix(seed, 0x10c5))
        .iter()
        .take(suite.lockstep_sample())
    {
        let spec = RunSpec {
            kernel: KernelKind::Lockstep,
            ..specs[i].clone()
        };
        match std::panic::catch_unwind(|| tus_harness::run(&spec)) {
            Ok(r) if points::text(&specs[i], &r) == texts[i] => {}
            Ok(_) => errors.push(format!("{}: lockstep result differs", specs[i].memo_key())),
            Err(_) => errors.push(format!("{}: lockstep run panicked", specs[i].memo_key())),
        }
    }
}

/// Median set-up time. A set-up builds the point list and a fresh
/// executor and runs one short warm-up point through it, so code, the
/// allocator and the page cache are warm before the first timed round.
fn setup(suite: Suite, seed: u64) -> (f64, Vec<RunSpec>) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut specs = Vec::new();
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        specs = self::specs(suite, seed);
        let warm = RunSpec {
            warmup: 500,
            insts: 2_000,
            ..specs[0].clone()
        };
        black_box(Executor::new(WORKERS, None).run_many(std::slice::from_ref(&warm)));
        times.push(t.elapsed().as_secs_f64());
    }
    (median(&times), specs)
}

pub fn run(suite: Suite, args: &Args) -> Report {
    let (setup_s, specs) = setup(suite, args.seed);
    println!("points per round: {}", specs.len());
    if args.trace {
        return run_traced(args, &specs);
    }
    let start = Instant::now();
    let mut tally = Tally::default();
    let mut first_round_rss = 0.0;
    while tally.attempted == 0 || start.elapsed().as_secs_f64() < args.seconds {
        tally.absorb(&specs, round(&specs));
        if first_round_rss == 0.0 {
            first_round_rss = peak_rss_mb();
        }
    }
    let mut errors = std::mem::take(&mut tally.errors);
    if let Some(first) = &tally.first {
        lockstep_check(suite, &specs, first, args.seed, &mut errors);
    }
    let round_ms = median(&tally.walls) * 1e3;
    println!("rounds: {} walls_s={:?}", tally.walls.len(), tally.walls);
    println!(
        "peak_rss_mb: {first_round_rss:.3} after the first round, {:.3} after the last",
        peak_rss_mb()
    );
    if let Some(first) = &tally.first {
        println!("fingerprint: {:016x}", fingerprint(first));
    }
    println!("sim counts: {}", tally.counts.render());
    let minsts = tally.counts.committed / 1e6 / median(&tally.walls);
    println!(
        "minsts_per_s: {minsts:.4} Minst/s (median round, {} samples)",
        tally.walls.len()
    );
    println!("op_p50_ms: {round_ms:.3} ms ({} rounds)", tally.walls.len());
    for e in &errors {
        println!("WRONG: {e}");
    }
    let mut report = Report {
        correct: errors.is_empty(),
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: Vec::new(),
    };
    report.push("op_p50_ms", round_ms, "ms");
    report.push("setup_s", setup_s, "s");
    report.push("peak_rss_mb", first_round_rss, "MiB");
    report
}

/// Runs every point step by step on `WORKERS` threads, recording spans
/// when `rec` is on; returns the wall time, the texts and the totals.
fn stepped_round(
    rec: &Recorder,
    specs: &[RunSpec],
    op_base: u64,
) -> (f64, Vec<Option<String>>, StepTotals) {
    let next = AtomicUsize::new(0);
    let out: Vec<Mutex<Option<String>>> = specs.iter().map(|_| Mutex::new(None)).collect();
    let totals = Mutex::new(StepTotals::default());
    let t = Instant::now();
    rec.span("sweep.round", op_base, || {
        let round = rec.current();
        std::thread::scope(|s| {
            for _ in 0..WORKERS {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(spec) = specs.get(i) else { break };
                    let op = op_base + i as u64;
                    rec.span_under(round, "point", op, || {
                        let drained = points::drain_traces(rec, spec, op);
                        if let Ok(st) = points::run_traced(rec, spec, op) {
                            let text =
                                rec.span("runcache.encode", op, || points::text(spec, &st.result));
                            *out[i].lock().expect("slot lock") = Some(text);
                            totals
                                .lock()
                                .expect("totals lock")
                                .add(st.insts, st.cycles, drained);
                        }
                    });
                });
            }
        });
    });
    let wall = t.elapsed().as_secs_f64();
    let out = out
        .into_iter()
        .map(|m| m.into_inner().expect("slot lock"))
        .collect();
    (wall, out, totals.into_inner().expect("totals lock"))
}

/// The traced run: cycles of an untraced `run_many` round, an untraced
/// step-by-step round and a traced step-by-step round. The two
/// step-by-step rounds do the same work, so their difference is the
/// recorder's overhead.
fn run_traced(args: &Args, specs: &[RunSpec]) -> Report {
    let rec = Recorder::new(true);
    let off = Recorder::off();
    let start = Instant::now();
    let mut tally = Tally::default();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut totals = StepTotals::default();
    let mut errors = Vec::new();
    let mut cycle = 0u64;
    while cycle == 0 || start.elapsed().as_secs_f64() < args.seconds {
        tally.absorb(specs, round(specs));
        let (w_off, _, _) = stepped_round(&off, specs, 0);
        let (w_on, texts, t) = stepped_round(&rec, specs, cycle * specs.len() as u64);
        plain.push(w_off);
        traced.push(w_on);
        totals.absorb(&t);
        if let Some(first) = &tally.first {
            for (i, t) in texts.iter().enumerate() {
                if t.as_ref() != Some(&first[i]) {
                    errors.push(format!(
                        "{}: step-by-step result differs from run_many",
                        specs[i].memo_key()
                    ));
                }
            }
            // One point per cycle also against runner::run directly.
            let i = (mix(args.seed, cycle) % specs.len() as u64) as usize;
            if points::text(&specs[i], &tus_harness::run(&specs[i])) != first[i] {
                errors.push(format!(
                    "{}: runner::run differs from run_many",
                    specs[i].memo_key()
                ));
            }
        }
        cycle += 1;
    }
    errors.append(&mut tally.errors);
    let spans = rec.take();
    println!("self time by span (traced step-by-step rounds):");
    print!("{}", span::render_self_table(&spans));
    // Per-point host time from the traced rounds, without the separate
    // trace drain (run_many does not do it).
    let point_ns = span::total_ns(&spans, "point") - span::total_ns(&spans, "workloads.drain");
    let point_busy = point_ns as f64 / 1e9 / cycle as f64;
    let busy = point_busy / (WORKERS as f64 * median(&tally.walls));
    let overhead = (median(&traced) / median(&plain) - 1.0) * 100.0;
    println!("tracing overhead: {overhead:.2}% (traced {:.3} s vs untraced {:.3} s per round, median of {cycle})", median(&traced), median(&plain));
    println!(
        "executor.busy_frac: {busy:.4} (sum of traced per-point time / ({WORKERS} x run_many round wall))"
    );
    println!("sim counts: {}", tally.counts.render());
    for e in &errors {
        println!("WRONG: {e}");
    }
    let mut report = Report {
        correct: errors.is_empty(),
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: Vec::new(),
    };
    points::layer_metrics(&spans, &totals, &mut report);
    report.push("bench.trace_overhead_pct", overhead, "%");
    points::push_counts(&tally.counts, &mut report);
    report
}
