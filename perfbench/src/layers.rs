//! The traced run (`--trace 1`): per-layer metrics from spans the
//! benchmark opens around its own calls into each crate's public
//! functions. Nothing inside the program is instrumented, and no
//! process-global switch of the program is flipped.
//!
//! Every workload reports every per-layer metric. The layer probes
//! (workload, weather, grid, core, scenario, experiments, serve) run on
//! inputs drawn from the workload's seed and the systems the workload
//! uses; the workload-specific counters (cache hit ratios, batch lanes,
//! request failures, wire wait, trace overhead) come from a replay of the
//! workload itself, alternating untraced and traced turns until the run's
//! time is used, and read 0 where the workload does not reach that layer. The span tree is written to
//! `.bench_out/trace-<workload>-<seed>.json` when the run ends.

use std::collections::HashMap;
use std::time::Instant;

use thirstyflops_catalog::{SystemId, SystemSpec};
use thirstyflops_core::batch::{self as kernel, BatchContext, LaneRequest, TopN};
use thirstyflops_core::simcache;
use thirstyflops_core::simulate::{AnnualReport, SystemYear};
use thirstyflops_grid::GridRegion;
use thirstyflops_scenario::engine::apply_spec_overrides;
use thirstyflops_scenario::SweepSpec;
use thirstyflops_serve::handlers::{handle, AppState};
use thirstyflops_workload::miniamr::{MiniAmr, MiniAmrConfig};
use thirstyflops_workload::{ClusterSim, PowerModel, TraceConfig, TraceGenerator};

use crate::api::{self, Call, Server};
use crate::client::Conn;
use crate::spans::Recorder;
use crate::{oracle, paper, procs, secs, stats, sweep, Args, Report, Rng};

/// Repetitions of each workload-layer probe; the median is reported.
const REPS: usize = 3;
/// Hot calls timed per endpoint for the in-process serve probes.
const HOT_ITERS: usize = 400;
/// Cold calls per seeded endpoint for the handle-miss probe.
const MISS_CALLS: usize = 3;
/// Requests per traced or untraced replay batch of an API workload.
const API_BATCH_HOT: usize = 2_000;
const API_BATCH_COLD: usize = 8;

/// Mean job duration (hours) and width (fraction of the machine) per
/// system: the trace texture `core::simulate` feeds `TraceGenerator`.
/// The probe checks its energy series against `simulate_uncached`, so
/// any drift here fails the run instead of timing the wrong trace.
fn trace_shape(id: SystemId) -> (f64, f64) {
    match id {
        SystemId::Marconi => (8.0, 0.02),
        SystemId::Fugaku => (6.0, 0.004),
        SystemId::Polaris => (5.0, 0.03),
        SystemId::Frontier => (10.0, 0.015),
        SystemId::Aurora => (8.0, 0.01),
        SystemId::ElCapitan => (12.0, 0.02),
    }
}

/// The systems and telemetry seed each workload simulates.
fn workload_systems(args: &Args) -> (Vec<SystemId>, u64) {
    match args.workload.as_str() {
        "paper-cli" => (SystemId::PAPER.to_vec(), thirstyflops_experiments::SEED),
        "siting-sweep" => {
            let spec = SweepSpec::from_json(&sweep::spec_json(args.seed)).expect("sweep parses");
            (vec![SystemId::Polaris], spec.seed)
        }
        _ => (
            vec![SystemId::Polaris, SystemId::Frontier, SystemId::Marconi],
            1 + Rng::new(args.seed, 5).below(1_000_000),
        ),
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Median duration (ms) of the spans with this name.
fn median_ms(rec: &Recorder, name: &str) -> f64 {
    let d = rec.durations_ns(name);
    if d.is_empty() {
        0.0
    } else {
        stats::median(&d) / 1e6
    }
}

/// workload / weather / grid / core probes on the workload's systems.
fn probe_simulation(
    rec: &mut Recorder,
    out: &mut Report,
    systems: &[SystemId],
    seed: u64,
) -> Result<(), String> {
    let mut sums: HashMap<&str, Vec<f64>> = HashMap::new();
    let mut jobs = 0usize;
    for rep in 0..REPS {
        let mut t: HashMap<&str, f64> = HashMap::new();
        for &id in systems {
            let spec = SystemSpec::reference(id);
            let (duration, width) = trace_shape(id);
            let mut add = |name: &'static str, rec: &Recorder| {
                let last = rec.spans().last().expect("span recorded");
                *t.entry(name).or_default() += (last.end_ns - last.start_ns) as f64 / 1e6;
            };
            let jobs_list = rec.span("workload.trace_gen", |_| {
                TraceGenerator::new(TraceConfig {
                    cluster_nodes: spec.nodes,
                    target_utilization: spec.mean_utilization,
                    mean_duration_hours: duration,
                    mean_width_fraction: width,
                    seed: seed ^ (id as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
                })
                .map(|g| g.generate_year())
            })?;
            add("trace_gen", rec);
            if rep == 0 {
                jobs += jobs_list.len();
            }
            let (utilization, _) = rec.span("workload.cluster_sim", |_| {
                ClusterSim::new(spec.nodes).map(|c| c.simulate_year(&jobs_list))
            })?;
            add("cluster_sim", rec);
            let energy = rec.span("workload.power", |_| {
                PowerModel::new(&spec).energy_series(&utilization)
            });
            add("power", rec);
            rec.span("weather.wue_series", |_| {
                let climate = spec.climate.generate();
                spec.climate.wue_model().hourly_series(&climate)
            });
            add("wue", rec);
            rec.span("grid.year", |_| {
                GridRegion::preset(spec.region).simulate_year()
            });
            add("grid", rec);
            let year = rec.span("core.simulate_uncached", |_| {
                SystemYear::simulate_uncached(spec.clone(), seed)
            });
            add("uncached", rec);
            if year.energy.values() != energy.values() {
                return Err(format!(
                    "{id:?}: probe energy differs from simulate_uncached — trace_shape drifted"
                ));
            }
            rec.span("core.report", |_| {
                std::hint::black_box(AnnualReport::from_year(&year))
            });
            add("report", rec);
        }
        for (k, v) in t {
            sums.entry(k).or_default().push(v);
        }
    }
    let med = |k: &str| sums.get(k).map_or(0.0, |v| stats::median(v));
    out.metric("workload.trace_gen_ms", med("trace_gen"), "ms");
    out.metric("workload.cluster_sim_ms", med("cluster_sim"), "ms");
    out.metric("workload.power_ms", med("power"), "ms");
    out.metric("workload.jobs", jobs as f64, "count");
    out.metric("weather.wue_series_ms", med("wue"), "ms");
    out.metric("grid.year_ms", med("grid"), "ms");
    out.metric("core.simulate_uncached_ms", med("uncached"), "ms");
    let stages = med("trace_gen") + med("cluster_sim") + med("power") + med("wue") + med("grid");
    out.metric(
        "core.simulate_coverage",
        ratio(stages, med("uncached")),
        "ratio",
    );
    out.metric(
        "core.report_us",
        med("report") * 1e3 / systems.len() as f64,
        "us",
    );

    let kernel_report = rec.span("workload.miniamr", |_| {
        MiniAmr::new(MiniAmrConfig::default()).map(|k| k.run())
    })?;
    out.metric(
        "workload.miniamr_ms",
        median_ms(rec, "workload.miniamr"),
        "ms",
    );
    out.metric(
        "workload.miniamr_cell_updates",
        kernel_report.cell_updates as f64,
        "count",
    );
    Ok(())
}

/// The sweep's per-cell steps, replayed stage by stage over every cell
/// in the program's chunk size: combination, overrides, energy key,
/// per-chunk dedup plus the batched aggregate, and the top-N push.
fn probe_scenario(rec: &mut Recorder, out: &mut Report, seed: u64) -> Result<f64, String> {
    const CHUNK: usize = 512;
    let text = sweep::spec_json(seed);
    let sweep_spec = rec
        .span("scenario.sweep_parse", |_| SweepSpec::from_json(&text))
        .map_err(|e| e.to_string())?;
    out.metric(
        "scenario.sweep_parse_ms",
        median_ms(rec, "scenario.sweep_parse"),
        "ms",
    );

    let base = SystemSpec::reference(SystemId::Polaris);
    let ctx = BatchContext::new();
    let total = sweep_spec.combination_count();
    let mut heap: TopN<()> = TopN::new(sweep::TOP_N);
    let mut lanes = 0usize;
    rec.span("scenario.cells", |rec| -> Result<(), String> {
        for start in (0..total).step_by(CHUNK) {
            let end = (start + CHUNK).min(total);
            let specs = rec.span("scenario.combination", |_| {
                (start..end)
                    .map(|i| sweep_spec.combination(i))
                    .collect::<Result<Vec<_>, _>>()
            });
            let specs = specs.map_err(|e| e.to_string())?;
            let transformed = rec.span("scenario.apply_overrides", |_| {
                specs
                    .iter()
                    .map(|s| apply_spec_overrides(&base, &s.overrides))
                    .collect::<Result<Vec<_>, _>>()
            });
            let transformed = transformed.map_err(|e| e.to_string())?;
            let keys: Vec<String> = rec.span("scenario.energy_key", |_| {
                transformed
                    .iter()
                    .zip(&specs)
                    .map(|(t, s)| kernel::energy_key(t, s.seed))
                    .collect()
            });
            let requests = rec.span("core.batch.aggregate", |_| {
                let mut seen: Vec<(String, Option<u64>)> = Vec::new();
                let mut requests = Vec::new();
                for ((t, s), key) in transformed.iter().zip(&specs).zip(&keys) {
                    let wue_scale = s.overrides.climate.as_ref().and_then(|c| c.wue_scale);
                    let id = (
                        format!("{key}|{:?}|{:?}", t.climate, t.region),
                        wue_scale.map(f64::to_bits),
                    );
                    if !seen.contains(&id) {
                        seen.push(id);
                        requests.push(LaneRequest {
                            spec: t.clone(),
                            seed: s.seed,
                            wue_scale,
                            ewf_scale: None,
                            carbon_scale: None,
                        });
                    }
                }
                std::hint::black_box(ctx.aggregate(&requests));
                requests.len()
            });
            lanes += requests;
            rec.span("scenario.topn_push", |_| {
                for (offset, t) in transformed.iter().enumerate() {
                    // The rank key's cost is outside this step; any
                    // cell-dependent key exercises the heap the same way.
                    heap.push(
                        t.pue.value() * (offset + 1) as f64,
                        (start + offset) as u64,
                        (),
                    );
                }
            });
        }
        Ok(())
    })?;
    let cells = total as f64;
    let per_cell_ns = |name: &str| rec.durations_ns(name).iter().sum::<f64>() / cells;
    out.metric(
        "scenario.combination_ns",
        per_cell_ns("scenario.combination"),
        "ns",
    );
    out.metric(
        "scenario.apply_overrides_ns",
        per_cell_ns("scenario.apply_overrides"),
        "ns",
    );
    out.metric(
        "scenario.energy_key_ns",
        per_cell_ns("scenario.energy_key"),
        "ns",
    );
    out.metric(
        "scenario.topn_push_ns",
        per_cell_ns("scenario.topn_push"),
        "ns",
    );
    let aggregate_ms = rec.durations_ns("core.batch.aggregate").iter().sum::<f64>() / 1e6;
    out.metric("core.batch.aggregate_ms", aggregate_ms, "ms");
    let steps_ms = [
        "scenario.combination",
        "scenario.apply_overrides",
        "scenario.energy_key",
        "scenario.topn_push",
    ]
    .iter()
    .map(|n| rec.durations_ns(n).iter().sum::<f64>() / 1e6)
    .sum::<f64>()
        + aggregate_ms;
    eprintln!("layers: scenario replay resolved {lanes} lanes over {total} cells");
    Ok(steps_ms)
}

/// The experiment context (cold, first use in this process) and then
/// every regenerator on its own. Returns the simcache hit ratios of the
/// whole probe, which regenerates what `experiments --all` does.
fn probe_experiments(rec: &mut Recorder, out: &mut Report) -> [f64; 3] {
    let before = simcache::stats();
    rec.span("experiments.paper_years", |_| {
        thirstyflops_experiments::context::paper_years().len()
    });
    out.metric(
        "experiments.paper_years_ms",
        median_ms(rec, "experiments.paper_years"),
        "ms",
    );
    for id in thirstyflops_experiments::ids() {
        let name = format!("experiments.{id}");
        rec.span(&name, |_| {
            std::hint::black_box(thirstyflops_experiments::select(&[id]))
        });
        out.metric(format!("{name}_ms"), median_ms(rec, &name), "ms");
    }
    simcache_ratios(&before, &simcache::stats())
}

/// In-process serve probes: parse, handle (hit and miss) and render.
/// Returns the median hit-handle time per hot call key, ns.
fn probe_serve(rec: &mut Recorder, out: &mut Report, seed: u64) -> Vec<f64> {
    let calls = api::hot_calls(seed);
    rec.span("serve.parse", |_| {
        for _ in 0..HOT_ITERS {
            for c in &calls {
                std::hint::black_box(c.parse());
            }
        }
    });
    let n = (HOT_ITERS * calls.len()) as f64;
    out.metric(
        "serve.parse_ns",
        rec.durations_ns("serve.parse")[0] / n,
        "ns",
    );

    // Hits: every call once to fill the body cache, then each call
    // HOT_ITERS times under its endpoint's span.
    let state = AppState::default();
    let requests: Vec<_> = calls.iter().map(Call::parse).collect();
    let responses: Vec<_> = requests.iter().map(|r| handle(r, &state)).collect();
    let mut key_ns = Vec::with_capacity(calls.len());
    for (call, req) in calls.iter().zip(&requests) {
        let name = format!("serve.handle_hit.{}", call.endpoint());
        rec.span(&name, |_| {
            for _ in 0..HOT_ITERS {
                std::hint::black_box(handle(req, &state));
            }
        });
        let last = rec.spans().last().expect("span recorded");
        key_ns.push((last.end_ns - last.start_ns) as f64 / HOT_ITERS as f64);
    }
    for endpoint in api::endpoints() {
        let name = format!("serve.handle_hit.{endpoint}");
        let calls_timed = calls.iter().filter(|c| c.endpoint() == endpoint).count() * HOT_ITERS;
        let total: f64 = rec.durations_ns(&name).iter().sum();
        out.metric(
            format!("serve.handle_hit_ns.{endpoint}"),
            ratio(total, calls_timed as f64),
            "ns",
        );
    }
    rec.span("serve.render", |_| {
        for _ in 0..HOT_ITERS {
            for r in &responses {
                std::hint::black_box(r.to_bytes(false));
            }
        }
    });
    out.metric(
        "serve.render_ns",
        rec.durations_ns("serve.render")[0] / n,
        "ns",
    );

    // Misses: fresh seeds on a fresh state, never seen in this process,
    // on each seeded endpoint's first template.
    let cold_state = AppState::default();
    let mut n = 0;
    for endpoint in api::endpoints()
        .into_iter()
        .filter(|e| !matches!(*e, "systems" | "healthz"))
    {
        let name = format!("serve.handle_miss.{endpoint}");
        let template = (0..api::SCRIPT_LEN)
            .find(|&t| api::cold_call(seed, api::cold_key(0, t)).endpoint() == endpoint)
            .expect("every endpoint has a template");
        for _ in 0..MISS_CALLS {
            n += 1;
            let req = api::cold_call(seed ^ 0x5eed, api::cold_key(n, template)).parse();
            rec.span(&name, |_| std::hint::black_box(handle(&req, &cold_state)));
        }
        out.metric(
            format!("serve.handle_miss_us.{endpoint}"),
            median_ms(rec, &name) * 1e3,
            "us",
        );
    }
    key_ns
}

/// simcache counter deltas between two `stats()` snapshots, as
/// (year, grid, wue) hit ratios.
fn simcache_ratios(before: &simcache::SimCacheStats, after: &simcache::SimCacheStats) -> [f64; 3] {
    let r = |b: &simcache::LayerStats, a: &simcache::LayerStats| {
        let hits = (a.hits - b.hits) as f64;
        ratio(hits, hits + (a.misses - b.misses) as f64)
    };
    [
        r(&before.system_years, &after.system_years),
        r(&before.grid_years, &after.grid_years),
        r(&before.wue_series, &after.wue_series),
    ]
}

/// Workload-specific counters from the replay.
#[derive(Default)]
struct Replay {
    simcache: [f64; 3],
    unique_lanes: f64,
    cells_per_lane: f64,
    body_hit_ratio: f64,
    wire_wait_us: f64,
    non_200: u64,
    mismatches: u64,
    transport_errors: u64,
    overhead_pct: f64,
    sweep_wall_ms: f64,
    attempted: u64,
}

/// Traced-over-untraced cost of the same work, in percent of the
/// untraced median.
fn overhead(untraced: &[f64], traced: &[f64]) -> f64 {
    let plain = stats::median(untraced);
    100.0 * (stats::median(traced) - plain) / plain
}

/// Whether the replay should run another untraced/traced pair: at least
/// one, then until the run's measured time is used.
fn more(pairs: usize, started: Instant, args: &Args) -> bool {
    pairs == 0 || secs(started) < args.seconds
}

fn replay_paper(rec: &mut Recorder, args: &Args, started: Instant) -> Result<Replay, String> {
    let bin = procs::build_cli()?;
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut mismatches = 0;
    while more(plain.len(), started, args) {
        let a = paper::run_cli(&bin, 1)?;
        let b = rec.span("paper.cli_process", |_| paper::run_cli(&bin, 1))?;
        for run in [&a, &b] {
            if let Err(e) = paper::check_stdout(&run.stdout) {
                eprintln!("paper-cli: {e}");
                mismatches += 1;
            }
        }
        plain.push(a.wall_s);
        traced.push(b.wall_s);
    }
    Ok(Replay {
        mismatches,
        overhead_pct: overhead(&plain, &traced),
        attempted: 2 * plain.len() as u64,
        ..Replay::default()
    })
}

fn replay_sweep(rec: &mut Recorder, args: &Args, started: Instant) -> Result<Replay, String> {
    let spec = SweepSpec::from_json(&sweep::spec_json(args.seed)).map_err(|e| e.to_string())?;
    let (first, _) = sweep::pass(&spec, 1)?;
    let want = sweep::report_digest(&first);
    let cache0 = simcache::stats();
    let batch0 = kernel::stats();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut mismatches = 0;
    while more(plain.len(), started, args) {
        let (a, wall_a) = sweep::pass(&spec, 1)?;
        let (b, wall_b) = rec.span("scenario.evaluate_sweep", |_| sweep::pass(&spec, 1))?;
        mismatches += [&a, &b]
            .iter()
            .filter(|r| sweep::report_digest(r) != want)
            .count() as u64;
        plain.push(wall_a);
        traced.push(wall_b);
    }
    let passes = 2 * plain.len() as u64;
    let lanes = (kernel::stats().lanes - batch0.lanes) as f64 / passes as f64;
    Ok(Replay {
        simcache: simcache_ratios(&cache0, &simcache::stats()),
        unique_lanes: lanes,
        cells_per_lane: ratio(spec.combination_count() as f64, lanes),
        mismatches,
        overhead_pct: overhead(&plain, &traced),
        sweep_wall_ms: stats::median(&traced) * 1e3,
        attempted: passes + 1,
        ..Replay::default()
    })
}

/// Body-cache and simcache deltas from the server's own counters.
fn server_ratios(before: &serde::Value, after: &serde::Value) -> (f64, [f64; 3]) {
    let get = |v: &serde::Value, path: &[&str]| -> f64 {
        let mut cur = v;
        for p in path {
            match cur.as_object().and_then(|o| o.iter().find(|(k, _)| k == p)) {
                Some((_, x)) => cur = x,
                None => return 0.0,
            }
        }
        cur.as_u64().unwrap_or(0) as f64
    };
    let r = |path: &[&str]| {
        let mut hits_path = path.to_vec();
        hits_path.push("hits");
        let mut miss_path = path.to_vec();
        miss_path.push("misses");
        let hits = get(after, &hits_path) - get(before, &hits_path);
        ratio(
            hits,
            hits + get(after, &miss_path) - get(before, &miss_path),
        )
    };
    (
        r(&["body"]),
        [
            r(&["simulation", "system_years"]),
            r(&["simulation", "grid_years"]),
            r(&["simulation", "wue_series"]),
        ],
    )
}

fn replay_api(
    rec: &mut Recorder,
    args: &Args,
    hot_key_ns: &[f64],
    started: Instant,
) -> Result<Replay, String> {
    let bin = procs::build_cli()?;
    let server = Server::start(&bin)?;
    let hot = args.workload == "api-hot";
    let calls = api::hot_calls(args.seed);
    let state = AppState::default();
    let expects: Vec<_> = calls.iter().map(|c| c.expect(&state)).collect();
    let mut conn = Conn::open(server.addr)?;
    if hot {
        for c in &calls {
            conn.call(&c.bytes)?;
        }
    } else {
        conn.call(&crate::client::encode("GET", "/v1/rank?seed=0", "", "warm"))?;
    }
    let plan = api::hot_plan(&calls, args.seed, 0, 4096);
    let batch = if hot { API_BATCH_HOT } else { API_BATCH_COLD };
    let mut issued = 0usize;
    // Hot requests replay the plan; cold ones take fresh keys.
    let mut next = || -> (Call, Option<usize>) {
        issued += 1;
        if hot {
            let key = plan[issued % plan.len()];
            (calls[key].clone(), Some(key))
        } else {
            (
                api::cold_call(
                    args.seed ^ 0x7ace,
                    api::cold_key(issued, issued % api::SCRIPT_LEN),
                ),
                None,
            )
        }
    };
    let before = server.cache_stats()?;
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut kept = Vec::new();
    while more(plain.len(), started, args) {
        let t = Instant::now();
        for _ in 0..batch {
            conn.call(&next().0.bytes)?;
        }
        plain.push(secs(t));
        let t = Instant::now();
        for _ in 0..batch {
            let (call, key) = next();
            let sent = Instant::now();
            let resp = rec.span("serve.request", |_| conn.call(&call.bytes))?;
            kept.push((call, key, resp, sent.elapsed().as_nanos() as f64));
        }
        traced.push(secs(t));
    }
    let after = server.cache_stats()?;
    drop(conn);
    server.stop()?;

    // Check the traced responses; wire wait is the client's latency minus
    // this process's handle time for the same request.
    let (body, sim) = server_ratios(&before, &after);
    let mut replay = Replay::default();
    let mut waits = Vec::new();
    for (call, key, resp, client_ns) in &kept {
        if oracle::status(resp) != Some(200) {
            replay.non_200 += 1;
            continue;
        }
        let (expect, handle_ns) = match key {
            Some(k) => (expects[*k].clone(), hot_key_ns[*k]),
            None => {
                let t = Instant::now();
                let e = call.expect(&state);
                (e, t.elapsed().as_nanos() as f64)
            }
        };
        if oracle::check(&expect, resp).is_err() {
            replay.mismatches += 1;
        }
        waits.push((client_ns - handle_ns) / 1e3);
    }
    replay.simcache = sim;
    replay.body_hit_ratio = body;
    replay.wire_wait_us = if waits.is_empty() {
        0.0
    } else {
        stats::median(&waits)
    };
    replay.overhead_pct = overhead(&plain, &traced);
    replay.attempted = (2 * batch * plain.len()) as u64;
    Ok(replay)
}

pub fn run(args: &Args) -> Result<Report, String> {
    let trace_id = format!("{}-{}", args.workload, args.seed);
    let mut rec = Recorder::new(trace_id.clone());
    let mut out = Report::default();
    let (systems, telemetry_seed) = workload_systems(args);
    let started = Instant::now();

    // The experiments probe goes first: its context is cold only on the
    // first use in this process.
    let (experiments_cache, sweep_steps_ms, key_ns) =
        rec.span("probes", |rec| -> Result<_, String> {
            let cache = probe_experiments(rec, &mut out);
            probe_simulation(rec, &mut out, &systems, telemetry_seed)?;
            let steps = probe_scenario(rec, &mut out, args.seed)?;
            let key_ns = probe_serve(rec, &mut out, args.seed);
            Ok((cache, steps, key_ns))
        })?;
    let replay = rec.span("replay", |rec| match args.workload.as_str() {
        "paper-cli" => replay_paper(rec, args, started),
        "siting-sweep" => replay_sweep(rec, args, started),
        _ => replay_api(rec, args, &key_ns, started),
    })?;
    // The CLI process is out of reach; its cache traffic is the
    // experiments probe's, which regenerates the same artifacts in this
    // process.
    let simcache = if args.workload == "paper-cli" {
        experiments_cache
    } else {
        replay.simcache
    };

    out.metric("core.simcache.year_hit_ratio", simcache[0], "ratio");
    out.metric("core.simcache.grid_hit_ratio", simcache[1], "ratio");
    out.metric("core.simcache.wue_hit_ratio", simcache[2], "ratio");
    out.metric("core.batch.unique_lanes", replay.unique_lanes, "count");
    out.metric("core.batch.cells_per_lane", replay.cells_per_lane, "ratio");
    out.metric(
        "scenario.sweep_coverage",
        if replay.sweep_wall_ms > 0.0 {
            sweep_steps_ms / replay.sweep_wall_ms
        } else {
            0.0
        },
        "ratio",
    );
    out.metric("serve.body_hit_ratio", replay.body_hit_ratio, "ratio");
    out.metric("serve.wire_wait_us", replay.wire_wait_us, "us");
    out.metric("serve.non_200", replay.non_200 as f64, "count");
    out.metric("serve.mismatches", replay.mismatches as f64, "count");
    out.metric(
        "serve.transport_errors",
        replay.transport_errors as f64,
        "count",
    );
    out.metric("bench.trace_overhead_pct", replay.overhead_pct, "%");

    let mut report = out;
    report.attempted = replay.attempted;
    report.failed = replay.non_200 + replay.transport_errors + replay.mismatches;
    report.correct = replay.mismatches == 0;
    std::fs::create_dir_all(".bench_out").map_err(|e| format!(".bench_out: {e}"))?;
    let path = format!(".bench_out/trace-{trace_id}.json");
    std::fs::write(&path, rec.to_json()).map_err(|e| format!("{path}: {e}"))?;
    eprintln!(
        "layers: {} spans in trace {trace_id} written to {path} ({:.1} s)",
        rec.spans().len(),
        secs(started)
    );
    Ok(report)
}
