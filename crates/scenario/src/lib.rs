//! `thirstyflops_scenario` — the declarative scenario engine.
//!
//! The paper's central contribution is counterfactual water accounting:
//! what does a supercomputer's footprint look like under a different
//! grid, climate, siting, supply contract, or upgrade schedule? This
//! crate turns those what-ifs into **data**: a scenario is a named,
//! JSON-serializable spec of composable overrides on a cataloged base
//! system, and the engine evaluates single scenarios, A-vs-B
//! comparisons, and cartesian sweeps through the memoized simulation
//! substrate (`core::simcache`) with rayon fan-out.
//!
//! * [`ScenarioSpec`] / [`spec`] — the schema, its strict parser
//!   (unknown keys and out-of-range values are hard errors), and the
//!   canonical rendering that keys the HTTP body cache;
//! * [`engine`] — pure evaluation: [`evaluate`], [`compare`], metrics
//!   (water, scarcity-adjusted water, carbon, cost) and deltas against
//!   the un-overridden baseline;
//! * [`fanout`] — rayon map and join that carry the caller's trace
//!   context onto the workers (every fan-out in the workspace uses it);
//! * [`sweep`] — `"axes"` cartesian expansion and the parallel
//!   [`evaluate_sweep`], which streams combinations in chunks through
//!   the batched K-lane kernel (`core::batch`); a `"top_n"` field keeps
//!   only the best rows (ranked on `"rank_by"`, ascending) and lifts
//!   the expansion ceiling from 4096 to 1 048 576 cells.
//!
//! Determinism contract (enforced by `tests/scenario.rs`): the same
//! spec produces byte-identical JSON at every thread count and with the
//! simulation cache on or off. See `docs/SCENARIOS.md` for the schema
//! and override semantics, `examples/scenarios/` for the built-in spec
//! library.
//!
//! ```
//! use thirstyflops_scenario::{evaluate, ScenarioSpec};
//!
//! let spec = ScenarioSpec::from_json(
//!     r#"{"name": "drought", "base": "marconi",
//!         "overrides": {"grid": {"mix_delta": {"hydro": -0.15, "gas": 0.15}}}}"#,
//! )
//! .expect("spec is valid");
//! let outcome = evaluate(&spec).expect("engine evaluates");
//! assert!(outcome.deltas.operational_water_l < 0.0); // less hydro, less water
//! assert!(outcome.deltas.carbon_kg > 0.0); // more gas, more carbon
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
pub mod engine;
pub mod fanout;
pub mod spec;
pub mod sweep;

pub use engine::{
    compare, evaluate, LifecycleMetrics, ScenarioComparison, ScenarioDeltas, ScenarioMetrics,
    ScenarioOutcome,
};
pub use spec::{
    ClimateOverride, FleetUpgradeOverride, GpuSpec, GridOverride, Overrides, ReclaimedOverride,
    ScenarioError, ScenarioSpec, UpgradeStep, WaterPriceOverride, WsiOverride,
    DEFAULT_POTABLE_USD_PER_KL, DEFAULT_RECLAIMED_USD_PER_KL, DEFAULT_SEED,
};
pub use sweep::{
    evaluate_sweep, Axis, SweepReport, SweepRow, SweepSpec, DEFAULT_RANK_METRIC, MAX_SCENARIOS,
    MAX_SCENARIOS_TOP_N, RANK_METRICS,
};
