//! `daemon-warm` and `daemon-cold`: one client connection in a closed
//! loop against an in-process `serve` on a unix socket. Each workload
//! issues one kind of request, so each kind's latency is judged on its
//! own.
//!
//! The daemon starts with an empty run cache. `daemon-cold` restarts it
//! (fresh memo, fresh cache directory) before every round, so every round
//! asks for the same points and every one of them simulates.

use std::collections::BTreeMap;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use tus_harness::protocol::{read_frame, write_frame, Frame, FrameKind, ReadOutcome};
use tus_harness::serve::{bind, ServeOptions, Server};
use tus_harness::{RunSpec, Scale};
use tus_sim::{CoherenceKind, PolicyKind};
use tus_workloads::{all_single, sb_bound_single};

use crate::points::{self, SimCounts, StepTotals};
use crate::span::{self, Recorder};
use crate::util::{median, peak_rss_mb, tail, Fnv, Report};
use crate::Args;

/// Where the daemons' sockets, run caches and output directories live,
/// relative to the working directory (unix socket paths are short).
const WORK_ROOT: &str = ".tusbench-run";

/// Simulation workers inside the daemon: the box's two vCPUs.
const JOBS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Repeats of points the daemon has already answered.
    Warm,
    /// Single-core SB-bound points under Tardis that must simulate.
    Cold,
}

/// A round's points. Only their simulation seed depends on the workload
/// seed; which points stays fixed, so rounds of different seeds do
/// comparable work.
fn requests(kind: Kind, seed: u64) -> Vec<RunSpec> {
    let point = |w, p, sb, coherence| RunSpec {
        seed,
        coherence,
        ..RunSpec::new(w, p, sb, Scale::Quick)
    };
    match kind {
        Kind::Warm => all_single()
            .into_iter()
            .step_by(3)
            .enumerate()
            .map(|(j, w)| {
                let sb = if j % 2 == 0 { 32 } else { 114 };
                point(w, PolicyKind::ALL[j % 5], sb, CoherenceKind::Mesi)
            })
            .collect(),
        Kind::Cold => {
            let policies = [
                PolicyKind::Baseline,
                PolicyKind::Tus,
                PolicyKind::Csb,
                PolicyKind::Spb,
            ];
            sb_bound_single()
                .into_iter()
                .enumerate()
                .flat_map(|(j, w)| {
                    [j, j + 2].map(|p| point(w.clone(), policies[p % 4], 32, CoherenceKind::Tardis))
                })
                .collect()
        }
    }
}

/// An in-process daemon and the benchmark's one connection to it.
struct Daemon {
    server: Arc<Server>,
    handle: Option<JoinHandle<std::io::Result<()>>>,
    conn: UnixStream,
    dir: PathBuf,
}

impl Daemon {
    /// Binds a daemon on a socket in a fresh directory and connects.
    fn start(dir: PathBuf) -> Result<Daemon, String> {
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let sock = dir.join("d.sock");
        let opt = ServeOptions {
            tcp: None,
            socket: Some(sock.clone()),
            jobs: JOBS,
            // One connection, so one handler: every request runs on the
            // same thread, which keeps the allocator's arenas, and so the
            // peak RSS, the same from run to run.
            handlers: 1,
            out: dir.join("out"),
            cache: true,
            max_budget: None,
        };
        let bound = bind(opt).map_err(|e| format!("bind {}: {e}", sock.display()))?;
        // Connect while the listener is bound but not yet polled, so the
        // accept loop's first poll finds the connection. Connecting after
        // that poll waits out the loop's idle sleep (up to 20 ms), and which
        // of the two happens first would otherwise be a race.
        let conn =
            UnixStream::connect(&sock).map_err(|e| format!("connect {}: {e}", sock.display()))?;
        let server = bound.server();
        let handle = std::thread::spawn(move || bound.run());
        Ok(Daemon {
            server,
            handle: Some(handle),
            conn,
            dir,
        })
    }

    /// Sends one request and waits for its terminal reply.
    fn request(&mut self, kind: FrameKind, body: &str) -> Result<Frame, String> {
        write_frame(&mut self.conn, kind, body).map_err(|e| format!("write: {e}"))?;
        loop {
            match read_frame(&mut self.conn) {
                Ok(ReadOutcome::Frame(f)) if f.kind.is_terminal_reply() => return Ok(f),
                Ok(ReadOutcome::Frame(_)) => {}
                Ok(ReadOutcome::Eof) => return Err("daemon closed the connection".into()),
                Ok(ReadOutcome::Malformed(what)) => return Err(format!("malformed reply: {what}")),
                Err(e) => return Err(format!("read: {e}")),
            }
        }
    }

    fn ping(&mut self) -> Result<(), String> {
        match self.request(FrameKind::Ping, "tusbench")? {
            f if f.kind == FrameKind::Pong && f.body == "tusbench" => Ok(()),
            f => Err(format!("ping answered with {:?}", f.kind)),
        }
    }

    /// Shuts the daemon down over the connection and waits for it.
    fn stop(mut self) -> Result<(), String> {
        let reply = self.request(FrameKind::Shutdown, "");
        self.finish();
        match reply {
            Ok(f) if f.kind == FrameKind::ShutdownOk => Ok(()),
            Ok(f) => Err(format!("shutdown answered with {:?}", f.kind)),
            Err(e) => Err(e),
        }
    }

    fn finish(&mut self) {
        self.server.request_shutdown();
        if let Some(h) = self.handle.take() {
            match h.join() {
                Ok(Ok(())) => {}
                Ok(Err(e)) => eprintln!("daemon exited with {e}"),
                Err(_) => eprintln!("daemon thread panicked"),
            }
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.finish();
    }
}

/// The `RunPoint` request for a spec.
fn point_body(s: &RunSpec) -> String {
    format!(
        "workload={}\npolicy={}\nsb={}\nscale=quick\nseed={}\ncoherence={}\n",
        s.workload.name,
        s.policy.label(),
        s.sb_entries,
        s.seed,
        s.coherence.label()
    )
}

/// How one request turned out.
enum Verdict {
    /// Correct reply; the result text it carries.
    Ok(String),
    /// The operation failed (an error frame, a deadlock, a panic).
    Failed(String),
    /// The reply is wrong.
    Wrong(String),
}

fn headers(body: &str) -> (BTreeMap<&str, &str>, &str) {
    let (head, rest) = body.split_once("\n\n").unwrap_or((body, ""));
    (
        head.lines().filter_map(|l| l.split_once('=')).collect(),
        rest,
    )
}

/// Judges a `RunPoint` reply: a warm point must come from the memo
/// (`executed=0 memo_hits=1`), a cold one must simulate (`executed=1`).
fn judge(warm: bool, reply: Result<Frame, String>) -> Verdict {
    let frame = match reply {
        Ok(f) => f,
        Err(e) => return Verdict::Failed(e),
    };
    match frame.kind {
        FrameKind::RunDone => {}
        FrameKind::Error => {
            return Verdict::Failed(frame.body.lines().next().unwrap_or("error").to_owned())
        }
        other => return Verdict::Wrong(format!("unexpected reply {other:?}")),
    }
    let (h, payload) = headers(&frame.body);
    let want = if warm { ("0", "1") } else { ("1", "0") };
    let got = (
        h.get("executed").copied().unwrap_or("?"),
        h.get("memo_hits").copied().unwrap_or("?"),
    );
    if got != want {
        return Verdict::Wrong(format!("executed/memo_hits {got:?}, expected {want:?}"));
    }
    Verdict::Ok(payload.to_owned())
}

/// Everything the measured rounds produced.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    /// Round-trip times of requests that did not fail, in seconds.
    lats: Vec<f64>,
    /// Result texts of the first round, by request.
    first: Option<Vec<String>>,
    errors: Vec<String>,
}

/// Runs one round of requests on `d`, recording a span per request.
fn round(
    kind: Kind,
    d: &mut Daemon,
    reqs: &[RunSpec],
    rec: &Recorder,
    op0: u64,
    tally: &mut Tally,
) {
    let mut texts = Vec::with_capacity(reqs.len());
    for (i, spec) in reqs.iter().enumerate() {
        let body = point_body(spec);
        let t = Instant::now();
        let reply = rec.span("serve.request", op0 + i as u64, || {
            d.request(FrameKind::RunPoint, &body)
        });
        let rt = t.elapsed().as_secs_f64();
        tally.attempted += 1;
        match judge(kind == Kind::Warm, reply) {
            Verdict::Ok(text) => {
                tally.lats.push(rt);
                texts.push(text);
            }
            Verdict::Failed(why) => {
                tally.failed += 1;
                eprintln!("failed operation: {why}");
                texts.push(String::new());
            }
            Verdict::Wrong(why) => {
                tally.errors.push(why);
                texts.push(String::new());
            }
        }
    }
    match &tally.first {
        None => tally.first = Some(texts),
        Some(first) if *first != texts => tally
            .errors
            .push("two rounds of the run gave different replies".into()),
        Some(_) => {}
    }
}

/// Stops `d` and starts a fresh daemon: empty memo, empty run cache.
fn restart(d: Daemon, serial: &mut usize) -> Result<Daemon, String> {
    d.stop()?;
    *serial += 1;
    Daemon::start(work_dir(*serial))
}

/// The report of a run whose daemon could not be (re)started.
fn broken(why: &str) -> Report {
    println!("WRONG: {why}");
    Report {
        correct: false,
        attempted: 1,
        failed: 0,
        metrics: Vec::new(),
    }
}

/// A fresh work directory for the `n`th daemon of this process.
fn work_dir(n: usize) -> PathBuf {
    PathBuf::from(WORK_ROOT).join(format!("{}-{n}", std::process::id()))
}

/// Daemon start-ups per set-up; the median is reported.
const STARTS: usize = 15;

/// The set-up: starting a daemon (bind, connect, spawn, first ping) is
/// repeated and its median taken; `daemon-warm` then primes the warm set
/// once on the daemon that stays up and adds that time. Priming only the
/// last daemon keeps every earlier daemon's threads from leaving
/// simulation-sized allocator arenas behind, which made the peak RSS
/// depend on the order those threads exited.
fn setup(kind: Kind, reqs: &[RunSpec], serial: &mut usize) -> Result<(f64, Daemon), String> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..STARTS {
        if let Some(d) = last.take() {
            Daemon::stop(d)?;
        }
        let t = Instant::now();
        *serial += 1;
        let mut d = Daemon::start(work_dir(*serial))?;
        d.ping()?;
        times.push(t.elapsed().as_secs_f64());
        last = Some(d);
    }
    let mut d = last.expect("at least one start");
    let t = Instant::now();
    if kind == Kind::Warm {
        for spec in reqs {
            match judge(false, d.request(FrameKind::RunPoint, &point_body(spec))) {
                Verdict::Ok(_) => {}
                Verdict::Failed(e) | Verdict::Wrong(e) => return Err(format!("priming: {e}")),
            }
        }
    }
    Ok((median(&times) + t.elapsed().as_secs_f64(), d))
}

/// Every reply must be byte-identical to an in-process `runner::run` of
/// the same spec.
fn verify(reqs: &[RunSpec], first: &[String], errors: &mut Vec<String>) {
    for (spec, got) in reqs.iter().zip(first) {
        if *got != points::text(spec, &tus_harness::run(spec)) {
            errors.push(format!(
                "{}: reply differs from runner::run",
                spec.memo_key()
            ));
        }
    }
}

pub fn run(kind: Kind, args: &Args) -> Report {
    let report = run_in(kind, args);
    // Only succeeds once empty: another run's daemons may still use it.
    let _ = std::fs::remove_dir(WORK_ROOT);
    report
}

fn run_in(kind: Kind, args: &Args) -> Report {
    let reqs = requests(kind, args.seed);
    println!("requests per round: {}", reqs.len());
    let mut serial = 0;
    let (setup_s, mut d) = match setup(kind, &reqs, &mut serial) {
        Ok(x) => x,
        Err(e) => return broken(&format!("set-up failed: {e}")),
    };
    if args.trace {
        return run_traced(kind, args, &reqs, d, serial);
    }
    let off = Recorder::off();
    let mut tally = Tally::default();
    let start = Instant::now();
    let mut rounds = 0u64;
    let mut first_round_rss = 0.0;
    while rounds == 0 || start.elapsed().as_secs_f64() < args.seconds {
        if kind == Kind::Cold && rounds > 0 {
            d = match restart(d, &mut serial) {
                Ok(d) => d,
                Err(e) => return broken(&format!("restart: {e}")),
            };
        }
        round(kind, &mut d, &reqs, &off, 0, &mut tally);
        if rounds == 0 {
            first_round_rss = peak_rss_mb();
        }
        rounds += 1;
    }
    if let Err(e) = d.stop() {
        tally.errors.push(format!("shutdown: {e}"));
    }
    if let Some(first) = &tally.first {
        verify(&reqs, first, &mut tally.errors);
        let mut h = Fnv::default();
        first.iter().for_each(|t| h.add(t.as_bytes()));
        println!("fingerprint: {:016x}", h.0);
    }
    let p50 = median(&tally.lats) * 1e3;
    println!("rounds: {rounds}");
    println!(
        "peak_rss_mb: {first_round_rss:.3} after the first round, {:.3} after the last",
        peak_rss_mb()
    );
    println!("op_p50_ms: {p50:.4} ms ({} samples)", tally.lats.len());
    match tail(&tally.lats) {
        Some((p, v)) => println!(
            "op_p{p}_ms: {:.4} ms (highest percentile with >= 10 samples beyond)",
            v * 1e3
        ),
        None => println!("tail: fewer than 40 samples, median only"),
    }
    for e in &tally.errors {
        println!("WRONG: {e}");
    }
    let mut report = Report {
        correct: tally.errors.is_empty(),
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: Vec::new(),
    };
    report.push("op_p50_ms", p50, "ms");
    report.push("setup_s", setup_s, "s");
    report.push("peak_rss_mb", first_round_rss, "MiB");
    report
}

/// The traced run: rounds alternate untraced and traced (the difference
/// is the recorder's overhead), then the round's points are simulated
/// again in process, step by step, for the per-layer metrics; each must
/// match the daemon's reply byte for byte.
fn run_traced(
    kind: Kind,
    args: &Args,
    reqs: &[RunSpec],
    mut d: Daemon,
    mut serial: usize,
) -> Report {
    let rec = Recorder::new(true);
    let off = Recorder::off();
    let (mut plain, mut traced) = (Tally::default(), Tally::default());
    let mut pings = Vec::new();
    let start = Instant::now();
    let mut cycle = 0u64;
    while cycle == 0 || start.elapsed().as_secs_f64() < args.seconds / 2.0 {
        for (i, tally) in [&mut plain, &mut traced].into_iter().enumerate() {
            if kind == Kind::Cold {
                d = match restart(d, &mut serial) {
                    Ok(d) => d,
                    Err(e) => return broken(&format!("restart: {e}")),
                };
            }
            let r = if i == 0 { &off } else { &rec };
            round(kind, &mut d, reqs, r, cycle * 1000, tally);
            let t = Instant::now();
            if d.ping().is_ok() {
                pings.push(t.elapsed().as_secs_f64());
            }
        }
        cycle += 1;
    }
    let counters = d
        .request(FrameKind::Counters, "")
        .map(|f| f.body)
        .unwrap_or_default();
    let _ = d.stop();
    let mut errors = std::mem::take(&mut plain.errors);
    errors.append(&mut traced.errors);
    if plain.first != traced.first {
        errors.push("traced and untraced rounds gave different replies".into());
    }
    let first = plain.first.clone().unwrap_or_default();
    let mut totals = StepTotals::default();
    let mut counts = SimCounts::default();
    for (i, spec) in reqs.iter().enumerate() {
        let op = 1_000_000 + i as u64;
        let drained = points::drain_traces(&rec, spec, op);
        match points::run_traced(&rec, spec, op) {
            Ok(st) => {
                let text = rec.span("runcache.encode", op, || points::text(spec, &st.result));
                if first.get(i) != Some(&text) {
                    errors.push(format!(
                        "{}: step-by-step result differs from the reply",
                        spec.memo_key()
                    ));
                }
                counts.add_stats(&st.result.stats);
                totals.add(st.insts, st.cycles, drained);
            }
            Err(e) => errors.push(e),
        }
    }
    let spans = rec.take();
    println!("self time by span (traced rounds and in-process repeats):");
    print!("{}", span::render_self_table(&spans));
    let overhead = (median(&traced.lats) / median(&plain.lats) - 1.0) * 100.0;
    println!(
        "tracing overhead: {overhead:.2}% (request p50 traced {:.4} ms vs untraced {:.4} ms, {cycle} rounds each)",
        median(&traced.lats) * 1e3,
        median(&plain.lats) * 1e3
    );
    println!(
        "serve.ping_p50_ms: {:.4} ({} samples)",
        median(&pings) * 1e3,
        pings.len()
    );
    let all_lats: Vec<f64> = plain.lats.iter().chain(&traced.lats).copied().collect();
    if let Some((p, v)) = tail(&all_lats) {
        println!("serve.request_tail_ms: p{p} = {:.4}", v * 1e3);
    }
    let c = headers(&counters).0;
    println!(
        "executor.executed={} executor.memo_hits={} (daemon counters after the last round)",
        c.get("executed").unwrap_or(&"?"),
        c.get("memo_hits").unwrap_or(&"?")
    );
    println!(
        "runcache.encode_us: {:.3}",
        median(&span::durations(&spans, "runcache.encode")) / 1e3
    );
    if kind == Kind::Cold {
        let (mut tardis, mut mesi) = (0.0, 0.0);
        for spec in reqs {
            let t = Instant::now();
            std::hint::black_box(tus_harness::run(spec));
            tardis += t.elapsed().as_secs_f64();
            let m = RunSpec {
                coherence: CoherenceKind::Mesi,
                ..spec.clone()
            };
            let t = Instant::now();
            std::hint::black_box(tus_harness::run(&m));
            mesi += t.elapsed().as_secs_f64();
        }
        println!(
            "backend.tardis_mesi_ratio: {:.3} (host time, same points)",
            tardis / mesi
        );
    }
    println!("sim counts: {}", counts.render());
    for e in &errors {
        println!("WRONG: {e}");
    }
    let mut report = Report {
        correct: errors.is_empty(),
        attempted: plain.attempted + traced.attempted,
        failed: plain.failed + traced.failed,
        metrics: Vec::new(),
    };
    points::layer_metrics(&spans, &totals, &mut report);
    report.push("bench.trace_overhead_pct", overhead, "%");
    points::push_counts(&counts, &mut report);
    report
}
