//! Chunked streaming sweep evaluation over the batched K-lane kernel.
//!
//! The scalar sweep path expands every combination, simulates each, and
//! materializes every row. This module streams instead: combination
//! indices are processed in fixed-size chunks (rayon fan-out over the
//! chunks), each chunk resolves its rows' annual aggregates through one
//! `core::batch` kernel call — deduplicated on an aggregate key, so a
//! 10⁵-cell sweep whose axes mostly reinterpret the same series runs a
//! few dozen kernel passes — and, under `top_n`, each chunk folds its
//! rows into a bounded [`TopN`] heap before the next chunk starts. The
//! memory floor is one chunk plus the heap, never the cross product.
//!
//! **Determinism.** Rows depend only on their combination index, the
//! aggregate cache is keyed on values (racing recomputes are
//! bit-identical), chunk results merge in chunk order, and the top-N
//! kept set is push-order-independent — so sweep reports are
//! byte-identical at every thread count and chunk size, batched or
//! scalar (`docs/CONCURRENCY.md`, enforced by `tests/batch.rs` and
//! `./ci.sh batch-smoke`).

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use thirstyflops_catalog::{SystemId, SystemSpec};
use thirstyflops_core::batch::{self as kernel, BatchContext, LaneAggregates, LaneRequest, TopN};
use thirstyflops_grid::RegionId;
use thirstyflops_obs::span;
use thirstyflops_obs::Counter;

use crate::engine::{self, AggregateInputs};
use crate::fanout;
use crate::spec::{Overrides, ScenarioError, ScenarioSpec};
use crate::sweep::{rank_key, SweepReport, SweepRow, SweepSpec, DEFAULT_RANK_METRIC};

/// Combinations per chunk: small enough that a materialized chunk is
/// noise next to the heap, large enough that per-chunk overhead (lock
/// traffic, kernel launch) amortizes. Fixed — results must not depend
/// on it, and `tests/batch.rs` checks they don't by comparing against
/// the scalar path, which chunks identically but never batches.
const CHUNK: usize = 512;

/// Sweep cells (combinations) streamed through chunk evaluation.
/// Deterministic: the expansion size is a pure function of the spec.
fn cells_counter() -> &'static Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    C.get_or_init(|| {
        thirstyflops_obs::registry::counter(
            "thirstyflops_sweep_cells_total",
            "Sweep combinations streamed through chunk evaluation.",
        )
    })
}

/// Sweep chunks evaluated (`⌈cells / 512⌉` per sweep).
fn chunks_counter() -> &'static Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    C.get_or_init(|| {
        thirstyflops_obs::registry::counter(
            "thirstyflops_sweep_chunks_total",
            "Fixed-size sweep chunks evaluated.",
        )
    })
}

/// State shared by every chunk of one sweep evaluation.
struct Shared<'a> {
    sweep: &'a SweepSpec,
    base_spec: SystemSpec,
    baseline: engine::ScenarioMetrics,
    rank_metric: &'a str,
    ctx: BatchContext,
    /// Region → annual (EWF mean, carbon mean) of the unscaled series.
    region_means: Mutex<HashMap<RegionId, (f64, f64)>>,
}

impl Shared<'_> {
    fn means_of(&self, region: RegionId) -> (f64, f64) {
        if let Some(m) = self.region_means.lock().expect("means lock").get(&region) {
            return *m;
        }
        let m = self.ctx.region_means(region);
        self.region_means
            .lock()
            .expect("means lock")
            .insert(region, m);
        m
    }
}

/// One combination, resolved up to (but not including) its aggregates.
struct PreparedRow {
    name: String,
    transformed: SystemSpec,
    overrides: Overrides,
    request: LaneRequest,
    /// Everything the kernel result depends on: the energy key plus the
    /// (scaled) series identities. Rows sharing a key share one lane.
    agg_key: String,
}

fn prepare(shared: &Shared<'_>, index: usize) -> Result<PreparedRow, ScenarioError> {
    let spec: ScenarioSpec = shared.sweep.combination(index)?;
    let transformed = engine::apply_spec_overrides(&shared.base_spec, &spec.overrides)?;
    let wue_scale = spec.overrides.climate.as_ref().and_then(|c| c.wue_scale);
    let factors = match spec.overrides.grid.as_ref() {
        Some(g) => {
            let (ewf_mean, carbon_mean) = shared.means_of(transformed.region);
            engine::grid_factors(g, &transformed, ewf_mean, carbon_mean)?
        }
        None => None,
    };
    let (ewf_scale, carbon_scale) = match factors {
        Some((k_ewf, k_ci)) => (Some(k_ewf), Some(k_ci)),
        None => (None, None),
    };
    let agg_key = format!(
        "{}|{:?}|{:?}|{:?}|{:?}|{:?}",
        kernel::energy_key(&transformed, spec.seed),
        transformed.climate,
        wue_scale.map(f64::to_bits),
        transformed.region,
        ewf_scale.map(f64::to_bits),
        carbon_scale.map(f64::to_bits),
    );
    Ok(PreparedRow {
        name: spec.name,
        transformed: transformed.clone(),
        overrides: spec.overrides,
        request: LaneRequest {
            spec: transformed,
            seed: spec.seed,
            wue_scale,
            ewf_scale,
            carbon_scale,
        },
        agg_key,
    })
}

/// A chunk's contribution: all its rows (plain sweeps) or its bounded
/// top-N fold (streaming sweeps).
enum ChunkOutput {
    All(Vec<SweepRow>),
    Top(TopN<SweepRow>),
}

fn evaluate_chunk(
    shared: &Shared<'_>,
    start: usize,
    end: usize,
) -> Result<ChunkOutput, ScenarioError> {
    let _span = span::span(span::SWEEP_CHUNK);
    chunks_counter().inc();
    cells_counter().add((end - start) as u64);
    let mut prepared = Vec::with_capacity(end - start);
    for index in start..end {
        prepared.push(prepare(shared, index)?);
    }

    // Each chunk dedups and resolves its own rows' aggregates in one
    // kernel call, first-appearance order. Chunks used to share a
    // cross-chunk memo map, but which chunk resolved a key first then
    // depended on scheduling — making the kernel's lane/pass counters
    // (and span invocation counts) thread-count-dependent. Per-chunk
    // resolution makes them pure functions of the expansion; the cost is
    // re-aggregating keys that span a chunk boundary, a few hundred
    // cheap lane reductions on the flagship 10⁵-cell sweep (the
    // expensive workload simulations stay deduplicated by the batch
    // context's energy cache). See `docs/PERFORMANCE.md`.
    let mut aggregates: HashMap<String, Arc<LaneAggregates>> = HashMap::new();
    if kernel::enabled() {
        let mut missing: Vec<&PreparedRow> = Vec::new();
        for row in &prepared {
            if !missing.iter().any(|m| m.agg_key == row.agg_key) {
                missing.push(row);
            }
        }
        let requests: Vec<LaneRequest> = missing.iter().map(|m| m.request.clone()).collect();
        let resolved = shared.ctx.aggregate(&requests);
        for (row, agg) in missing.iter().zip(resolved) {
            aggregates.insert(row.agg_key.clone(), Arc::new(agg));
        }
    }

    let mut all = Vec::with_capacity(if shared.sweep.top_n.is_some() {
        0
    } else {
        prepared.len()
    });
    let mut top = shared
        .sweep
        .top_n
        .map(|n| TopN::new(usize::try_from(n).expect("top_n fits usize")));
    for (offset, row) in prepared.into_iter().enumerate() {
        let scenario = if kernel::enabled() {
            let agg = Arc::clone(
                aggregates
                    .get(&row.agg_key)
                    .expect("chunk resolved its aggregates"),
            );
            let inputs = AggregateInputs {
                energy_kwh: agg.energy_kwh,
                direct: agg.direct_l,
                indirect: agg.indirect_per_pue_l * row.transformed.pue.value(),
                carbon_g: agg.carbon_g,
                mean_wue: agg.mean_wue,
                mean_ewf: agg.mean_ewf,
                mean_carbon: agg.mean_carbon,
                monthly_direct: agg.monthly_direct_l,
            };
            engine::finish_metrics(&row.transformed, &row.overrides, &inputs)
        } else {
            // Scalar reference path (`--no-batch`): per-row simulation
            // and fused scalar kernels, still streamed and still
            // top-N-bounded.
            engine::metrics(&row.transformed, shared.sweep.seed, &row.overrides)?
        };
        let deltas = engine::deltas(&shared.baseline, &scenario);
        let sweep_row = SweepRow {
            name: row.name,
            scenario,
            deltas,
        };
        match &mut top {
            Some(heap) => {
                let key = rank_key(&sweep_row.scenario, shared.rank_metric);
                heap.push(key, (start + offset) as u64, sweep_row);
            }
            None => all.push(sweep_row),
        }
    }
    Ok(match top {
        Some(heap) => ChunkOutput::Top(heap),
        None => ChunkOutput::All(all),
    })
}

/// The streaming sweep evaluator behind [`crate::sweep::evaluate_sweep`]
/// (which owns the ceiling / rank-metric guards).
pub(crate) fn evaluate_sweep_streaming(sweep: &SweepSpec) -> Result<SweepReport, ScenarioError> {
    let base_id: SystemId = sweep.base.parse().map_err(|e| {
        ScenarioError::Invalid(format!("{e} — `thirstyflops systems` lists the catalog"))
    })?;
    let base_spec = SystemSpec::reference(base_id);
    // The shared baseline: the scalar path, exactly as `evaluate` would
    // compute it (one row — batching buys nothing).
    let baseline = engine::metrics(&base_spec, sweep.seed, &Overrides::default())?;
    let rank_metric = sweep.rank_by.as_deref().unwrap_or(DEFAULT_RANK_METRIC);
    let shared = Shared {
        sweep,
        base_spec,
        baseline,
        rank_metric,
        ctx: BatchContext::new(),
        region_means: Mutex::new(HashMap::new()),
    };
    let total = sweep.combination_count();
    let starts: Vec<usize> = (0..total).step_by(CHUNK).collect();
    // Each chunk attaches to the caller's trace (`crate::fanout`).
    let outputs: Vec<Result<ChunkOutput, ScenarioError>> = fanout::map(&starts, |&start| {
        evaluate_chunk(&shared, start, (start + CHUNK).min(total))
    });

    // Merge in chunk (= expansion) order; the first error in expansion
    // order wins, as the eager path's sequential fold did.
    let mut all_rows = Vec::new();
    let mut top: Option<TopN<SweepRow>> = None;
    for output in outputs {
        match output? {
            ChunkOutput::All(mut rows) => all_rows.append(&mut rows),
            ChunkOutput::Top(heap) => match &mut top {
                Some(merged) => merged.merge(heap),
                None => top = Some(heap),
            },
        }
    }
    let rows = match top {
        Some(heap) => heap.into_sorted().into_iter().map(|e| e.item).collect(),
        None => all_rows,
    };
    Ok(SweepReport {
        name: sweep.name.clone(),
        base: sweep.base.clone(),
        seed: sweep.seed,
        fingerprint: sweep.fingerprint(),
        scenario_count: total as u64,
        top_n: sweep.top_n,
        rank_by: sweep.top_n.map(|_| rank_metric.to_string()),
        baseline: shared.baseline.clone(),
        rows,
    })
}
