//! `siting-sweep`: a planner's seeded siting sweep, ~10⁵ cells of
//! `climate.wue_scale` × `pue` × `wsi.site` on Polaris, streamed through
//! `scenario::evaluate_sweep` with a top-24 by scarcity-adjusted water,
//! in this process, serially and at two threads.

use std::collections::HashMap;
use std::time::Instant;

use thirstyflops_scenario::{evaluate, evaluate_sweep, SweepReport, SweepSpec};

use crate::{oracle, procs, repeat_setup, secs, stats, Args, Report, Rng};

pub const TOP_N: usize = 24;
pub const RANK_BY: &str = "scarcity_adjusted_water_l";
/// Cells outside the top 24 re-evaluated per run to check the ranking.
const OUTSIDE_SAMPLE: usize = 48;

/// Axis sizes: 50 × 45 × 45 = 101,250 cells.
const AXES: [(&str, usize, f64, f64); 3] = [
    ("climate.wue_scale", 50, 0.42, 0.04),
    ("pue", 45, 1.06, 0.01),
    ("wsi.site", 45, 0.01, 0.02),
];

/// The sweep spec for a seed: each axis is an evenly spaced grid (the
/// ranges of `examples/scenarios/sweep_siting_large.json`) with every
/// point jittered by up to ±30% of its spacing, and the telemetry seed
/// drawn from the same stream.
pub fn spec_json(seed: u64) -> String {
    let mut rng = Rng::new(seed, 1);
    let telemetry_seed = 1 + rng.below(1_000_000);
    let axes: Vec<String> = AXES
        .iter()
        .map(|&(path, n, first, step)| {
            let values: Vec<String> = (0..n)
                .map(|i| {
                    let jitter = (rng.unit() - 0.5) * 0.6 * step;
                    let v = first + step * i as f64 + jitter;
                    format!("{:.5}", v.max(0.001))
                })
                .collect();
            format!("{path:?}: [{}]", values.join(", "))
        })
        .collect();
    format!(
        "{{\"name\": \"siting-{seed}\", \"base\": \"polaris\", \"seed\": {telemetry_seed}, \"top_n\": {TOP_N}, \"rank_by\": {RANK_BY:?}, \"axes\": {{{}}}}}",
        axes.join(", ")
    )
}

/// One sweep pass at `threads` workers: (report, wall seconds).
pub fn pass(sweep: &SweepSpec, threads: usize) -> Result<(SweepReport, f64), String> {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .map_err(|e| format!("thread pool: {e:?}"))?;
    let t = Instant::now();
    let report = pool
        .install(|| evaluate_sweep(std::hint::black_box(sweep)))
        .map_err(|e| format!("sweep failed: {e}"))?;
    Ok((report, secs(t)))
}

pub fn report_digest(report: &SweepReport) -> String {
    oracle::digest(
        serde_json::to_string(report)
            .expect("reports serialize")
            .as_bytes(),
    )
}

/// Combination index of a row name `name[p1=v1,p2=v2,...]`.
fn index_of(sweep: &SweepSpec, labels: &[HashMap<String, usize>], name: &str) -> Option<usize> {
    let inner = name
        .strip_prefix(&format!("{}[", sweep.name))?
        .strip_suffix(']')?;
    let mut index = 0;
    for ((axis, part), lookup) in sweep.axes.iter().zip(inner.split(',')).zip(labels) {
        let label = part.strip_prefix(&format!("{}=", axis.path))?;
        index = index * axis.values.len() + lookup.get(label)?;
    }
    Some(index)
}

fn rank_key(m: &thirstyflops_scenario::ScenarioMetrics) -> f64 {
    m.scarcity_adjusted_water_l
}

/// The ranking oracles: every kept row equals `evaluate` of its own
/// combination bit for bit, and a seeded sample of cells outside the
/// top N ranks no better than the last kept row.
pub fn check_ranking(sweep: &SweepSpec, report: &SweepReport, seed: u64) -> Result<(), String> {
    if report.rows.len() != TOP_N {
        return Err(format!("top-{TOP_N} sweep kept {} rows", report.rows.len()));
    }
    let labels: Vec<HashMap<String, usize>> = sweep
        .axes
        .iter()
        .map(|a| {
            a.values
                .iter()
                .enumerate()
                .map(|(i, v)| (serde_json::to_string(v).expect("axis values render"), i))
                .collect()
        })
        .collect();
    let mut kept = Vec::with_capacity(TOP_N);
    for row in &report.rows {
        let index = index_of(sweep, &labels, &row.name)
            .ok_or_else(|| format!("row name {:?} names no cell", row.name))?;
        let spec = sweep.combination(index).map_err(|e| e.to_string())?;
        let outcome = evaluate(&spec).map_err(|e| e.to_string())?;
        let render = |m: &thirstyflops_scenario::ScenarioMetrics, d| {
            serde_json::to_string(m).expect("render") + &serde_json::to_string(d).expect("render")
        };
        let (want, got) = (
            render(&outcome.scenario, &outcome.deltas),
            render(&row.scenario, &row.deltas),
        );
        if want != got {
            return Err(format!(
                "row {} differs from evaluate(): {got} vs {want}",
                row.name
            ));
        }
        kept.push(index);
    }
    let last = report.rows.last().expect("TOP_N ≥ 1");
    let (last_key, last_index) = (rank_key(&last.scenario), *kept.last().expect("kept"));
    let total = sweep.combination_count() as u64;
    let mut rng = Rng::new(seed, 2);
    let mut checked = 0;
    while checked < OUTSIDE_SAMPLE {
        let index = rng.below(total) as usize;
        if kept.contains(&index) {
            continue;
        }
        checked += 1;
        let spec = sweep.combination(index).map_err(|e| e.to_string())?;
        let key = rank_key(&evaluate(&spec).map_err(|e| e.to_string())?.scenario);
        let better = key < last_key || (key == last_key && index < last_index);
        if better {
            return Err(format!(
                "cell {index} ({key}) outside the top {TOP_N} ranks ahead of the last kept row ({last_key})"
            ));
        }
    }
    Ok(())
}

pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report {
        correct: true,
        ..Report::default()
    };
    // Set-up: input generation, parse, and one discarded pass (the
    // first one is cold: telemetry simulation and shared sub-caches).
    let ((sweep, first), setup_s) = repeat_setup(|| {
        let sweep = SweepSpec::from_json(&spec_json(args.seed)).map_err(|e| e.to_string())?;
        let (first, _) = pass(&sweep, 1)?;
        Ok((sweep, first))
    })?;
    let want = report_digest(&first);

    let mut walls = [Vec::new(), Vec::new()];
    let start = Instant::now();
    while secs(start) < args.seconds || walls[1].len() < 2 {
        for (slot, threads) in [(0, 1), (1, 2)] {
            report.attempted += 1;
            let (r, wall) = pass(&sweep, threads)?;
            if report_digest(&r) != want {
                eprintln!(
                    "siting-sweep: digest at {threads} thread(s) differs from the first pass"
                );
                report.correct = false;
                report.failed += 1;
            }
            walls[slot].push(wall);
        }
    }
    let peak_rss_mb = procs::self_peak_rss_mb()?;
    if let Err(e) = check_ranking(&sweep, &first, args.seed) {
        eprintln!("siting-sweep: {e}");
        report.correct = false;
    }

    let cells = sweep.combination_count() as f64;
    let [mut w1, mut w2] = walls;
    stats::sort(&mut w1);
    stats::sort(&mut w2);
    let (m1, m2) = (stats::median(&w1), stats::median(&w2));
    let (t1, t2) = (stats::tail(&w1), stats::tail(&w2));
    report.metric("setup_s", setup_s, "s");
    report.metric("peak_rss_mb", peak_rss_mb, "MB");
    report.metric("wall_ms", m1 * 1e3, "ms");
    report.metric("wall_ms_2t", m2 * 1e3, "ms");
    report.metric("throughput_rps", cells / m2, "1/s");
    report.metric("lat_p50_us", m1 * 1e6, "us");
    report.metric("lat_tail_us", t1.value * 1e6, "us");
    report.metric("lat_p50_us_hi", m2 * 1e6, "us");
    report.metric("lat_tail_us_hi", t2.value * 1e6, "us");
    report.metric("max_rate_rps", cells / m1.min(m2), "1/s");
    eprintln!(
        "siting-sweep: {cells} cells, {} passes at 1 thread and {} at 2; tails p{} / p{}; digest {want}",
        w1.len(),
        w2.len(),
        t1.percentile,
        t2.percentile
    );
    Ok(report)
}
