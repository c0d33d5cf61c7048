//! `tusbench`: the TUS reproduction's end-to-end and per-layer benchmark.
//!
//! ```text
//! tusbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Runs one workload for `S` seconds, checks every output it produced,
//! and prints as its last line one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics of the traced run with `--trace 1`.
//! Wrong outputs make it exit 1. `steady.py` beside this crate runs a
//! workload N times and judges the spread of every metric; see
//! `README.md`.

mod check;
mod daemon;
mod litmus;
mod points;
mod span;
mod sweep;
mod util;

/// Runs one workload.
type Runner = fn(&Args) -> util::Report;

/// The workloads, with the function that runs each.
const WORKLOADS: &[(&str, Runner)] = &[
    ("spec-sweep", |a| sweep::run(sweep::Suite::Spec, a)),
    ("parsec-fabric", |a| sweep::run(sweep::Suite::Parsec, a)),
    ("daemon-warm", |a| daemon::run(daemon::Kind::Warm, a)),
    ("daemon-cold", |a| daemon::run(daemon::Kind::Cold, a)),
    ("tso-check", check::run),
];

/// Seed used when none is given.
pub const DEFAULT_SEED: u64 = 42;

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn usage(why: &str) -> ! {
    eprintln!("tusbench: {why}");
    eprintln!(
        "usage: tusbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]\n\
         workloads: {}",
        WORKLOADS
            .iter()
            .map(|(n, _)| *n)
            .collect::<Vec<_>>()
            .join(" ")
    );
    std::process::exit(2);
}

fn bad<T>(flag: &str, value: &str) -> T {
    usage(&format!("bad value {value:?} for {flag}"))
}

/// Parses `--workload --seed --seconds --trace`.
fn parse_args(argv: &[String]) -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| bad(flag, value)),
            "--seconds" => {
                args.seconds = value.parse().unwrap_or_else(|_| bad(flag, value));
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    bad::<()>(flag, value);
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => bad(flag, value),
                }
            }
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.iter().any(|(n, _)| *n == args.workload) {
        usage(&format!("unknown workload {:?}", args.workload));
    }
    args
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv);
    println!(
        "tusbench {} seed={} seconds={} trace={} host=\"{}\"",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        util::host()
    );
    let run = WORKLOADS
        .iter()
        .find(|(n, _)| *n == args.workload)
        .map(|(_, f)| f)
        .expect("workload name was validated");
    let report = run(&args);
    println!(
        "operations: attempted={} failed={} correct={}",
        report.attempted, report.failed, report.correct
    );
    println!("{}", report.json());
    std::process::exit(if report.correct { 0 } else { 1 });
}
