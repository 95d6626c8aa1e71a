//! The repository benchmark. One run measures one workload for a fixed
//! time and prints, as its last stdout line, one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones (tracing off); with `--trace 1` they
//! are the per-layer ones, from spans the benchmark opens around its own
//! calls into each crate's public functions. See `perfbench/README.md`.

mod api;
mod client;
mod layers;
mod oracle;
mod paper;
mod procs;
mod spans;
mod stats;
mod sweep;

use std::time::{Duration, Instant};

/// The seed used while tuning the benchmark.
pub const DEFAULT_SEED: u64 = 1;
/// A seed kept out of tuning, for checking that results carry over.
pub const HOLDOUT_SEED: u64 = 90_210;

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

pub const WORKLOADS: [&str; 4] = ["paper-cli", "siting-sweep", "api-hot", "api-cold"];

/// One run's parameters.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// One run's outcome.
#[derive(Debug, Default)]
pub struct Report {
    /// Every output check passed.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("{name:?}: {{\"value\": {value}, \"unit\": {unit:?}}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A small deterministic generator (SplitMix64) for benchmark inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Runs `setup` [`SETUPS`] times and returns the last result with the
/// median set-up time in seconds.
pub fn repeat_setup<T>(mut setup: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let value = setup()?;
        times.push(secs(t));
        last = Some(value);
    }
    Ok((last.expect("SETUPS ≥ 1"), stats::median(&times)))
}

/// Duration from fractional seconds.
pub fn dur(s: f64) -> Duration {
    Duration::from_secs_f64(s.max(0.0))
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => args.workload = value.to_string(),
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                }
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, got {:?}",
            args.workload
        ));
    }
    Ok(args)
}

fn run(args: &Args) -> Result<Report, String> {
    if args.trace {
        return layers::run(args);
    }
    match args.workload.as_str() {
        "paper-cli" => paper::run(args),
        "siting-sweep" => sweep::run(args),
        "api-hot" => api::run_hot(args),
        "api-cold" => api::run_cold(args),
        _ => unreachable!("workload validated in parse_args"),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    println!(
        "provenance {{\"workload\": {:?}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {}, \"default_seed\": {DEFAULT_SEED}, \"holdout_seed\": {HOLDOUT_SEED}}}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    match run(&args) {
        Ok(report) => {
            eprintln!(
                "perfbench: {}: {} operations attempted, {} succeeded, {} failed; outputs {}",
                args.workload,
                report.attempted,
                report.attempted.saturating_sub(report.failed),
                report.failed,
                if report.correct { "correct" } else { "WRONG" }
            );
            println!("{}", report.to_json());
        }
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    }
}
