//! `paper-cli`: the analyst's headline command, one fresh process per
//! iteration. It is cold by construction (the experiment context is a
//! per-process `OnceLock`) and seed-independent: the paper pins its
//! telemetry seed, so `--seed` changes nothing the program receives, and
//! every run must print the same bytes as the recorded digest.

use std::io::Read as _;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

use crate::{oracle, procs, repeat_setup, secs, stats, Args, Report};

/// FNV-1a digest and length of `thirstyflops experiments --all --json`
/// stdout, recorded from the program as this benchmark was defined
/// (identical at every thread count and for every benchmark seed).
pub const STDOUT_DIGEST: &str = "fc87b5004b640d67";
pub const STDOUT_BYTES: usize = 49_573;

/// Artifacts one run regenerates (Table 1–3, Fig. 1–14, five extensions).
pub const ARTIFACTS: f64 = 21.0;

/// One finished CLI process.
pub struct CliRun {
    pub wall_s: f64,
    pub max_rss_mb: f64,
    pub stdout: Vec<u8>,
}

/// Runs `thirstyflops --threads N experiments --all --json` to the end.
pub fn run_cli(bin: &Path, threads: usize) -> Result<CliRun, String> {
    let t = Instant::now();
    let mut child = Command::new(bin)
        .args([
            "--threads",
            &threads.to_string(),
            "experiments",
            "--all",
            "--json",
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
    let mut stdout = Vec::new();
    child
        .stdout
        .take()
        .expect("stdout is piped")
        .read_to_end(&mut stdout)
        .map_err(|e| format!("reading CLI stdout: {e}"))?;
    let exit = procs::reap(&mut child)?;
    let wall_s = secs(t);
    if exit.code != Some(0) {
        return Err(format!("CLI exited with {:?}", exit.code));
    }
    Ok(CliRun {
        wall_s,
        max_rss_mb: exit.max_rss_mb,
        stdout,
    })
}

/// Checks a run's stdout against the recorded digest.
pub fn check_stdout(stdout: &[u8]) -> Result<(), String> {
    let got = oracle::digest(stdout);
    if got == STDOUT_DIGEST && stdout.len() == STDOUT_BYTES {
        Ok(())
    } else {
        Err(format!(
            "experiments --all --json printed {} bytes with digest {got}; recorded {STDOUT_BYTES} bytes, {STDOUT_DIGEST}",
            stdout.len()
        ))
    }
}

fn fail(report: &mut Report, e: String) {
    eprintln!("paper-cli: {e}");
    report.correct = false;
    report.failed += 1;
}

pub fn run(args: &Args) -> Result<Report, String> {
    let bin = procs::build_cli()?;
    let mut report = Report {
        correct: true,
        ..Report::default()
    };

    // Set-up: one discarded cold run (page cache, binary load).
    let (first, setup_s) = repeat_setup(|| run_cli(&bin, 1))?;
    if let Err(e) = check_stdout(&first.stdout) {
        fail(&mut report, e);
    }

    // Alternate one- and two-thread processes for the measured time.
    let mut walls = [Vec::new(), Vec::new()];
    let mut rss = Vec::new();
    let start = Instant::now();
    while secs(start) < args.seconds || walls[1].len() < 2 {
        for (slot, threads) in [(0, 1), (1, 2)] {
            report.attempted += 1;
            match run_cli(&bin, threads) {
                Ok(run) => {
                    if run.stdout != first.stdout {
                        fail(
                            &mut report,
                            format!("--threads {threads} stdout differs from the first run"),
                        );
                    }
                    walls[slot].push(run.wall_s);
                    rss.push(run.max_rss_mb);
                }
                Err(e) => fail(&mut report, e),
            }
        }
    }
    if walls[0].is_empty() || walls[1].is_empty() {
        return Err("no CLI run completed".into());
    }
    let [mut w1, mut w2] = walls;
    stats::sort(&mut w1);
    stats::sort(&mut w2);
    let (m1, m2) = (stats::median(&w1), stats::median(&w2));
    let (t1, t2) = (stats::tail(&w1), stats::tail(&w2));
    report.metric("setup_s", setup_s, "s");
    report.metric("peak_rss_mb", stats::median(&rss), "MB");
    report.metric("wall_ms", m1 * 1e3, "ms");
    report.metric("wall_ms_2t", m2 * 1e3, "ms");
    report.metric("throughput_rps", ARTIFACTS / m2, "1/s");
    report.metric("lat_p50_us", m1 * 1e6, "us");
    report.metric("lat_tail_us", t1.value * 1e6, "us");
    report.metric("lat_p50_us_hi", m2 * 1e6, "us");
    report.metric("lat_tail_us_hi", t2.value * 1e6, "us");
    report.metric("max_rate_rps", ARTIFACTS / m1.min(m2), "1/s");
    eprintln!(
        "paper-cli: {} runs at 1 thread, {} at 2; tails p{} / p{}; stdout digest {} ({} bytes, seed-independent)",
        w1.len(),
        w2.len(),
        t1.percentile,
        t2.percentile,
        oracle::digest(&first.stdout),
        first.stdout.len()
    );
    Ok(report)
}
