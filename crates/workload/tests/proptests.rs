//! Property-based tests for the workload substrate: the cluster simulator
//! must uphold its invariants for *arbitrary* job lists, not just
//! generated traces.

mod support;

use proptest::prelude::*;
use thirstyflops_workload::{ClusterSim, Job, TraceConfig, TraceGenerator};

fn arb_jobs(cluster: u32) -> impl Strategy<Value = Vec<Job>> {
    proptest::collection::vec(
        (0usize..8760, 1u32..cluster * 2, 1u32..72).prop_map(|(submit, nodes, dur)| Job {
            id: 0,
            submit_hour: submit,
            nodes,
            duration_hours: dur,
        }),
        0..120,
    )
    .prop_map(|mut jobs| {
        for (i, j) in jobs.iter_mut().enumerate() {
            j.id = i as u64;
        }
        jobs
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Utilization stays in [0, 1]; accounting balances; waits are sane.
    #[test]
    fn cluster_invariants(jobs in arb_jobs(64)) {
        let sim = ClusterSim::new(64).unwrap();
        let (util, stats) = sim.simulate_year(&jobs);
        prop_assert!(util.min() >= 0.0);
        prop_assert!(util.max() <= 1.0 + 1e-12);
        prop_assert!(stats.started_jobs + stats.unstarted_jobs == jobs.len(),
            "{} + {} != {}", stats.started_jobs, stats.unstarted_jobs, jobs.len());
        prop_assert!(stats.mean_wait_hours >= 0.0);
        prop_assert!(stats.mean_wait_hours <= stats.max_wait_hours as f64 + 1e-9);
    }

    /// Node-hour conservation: the machine can never deliver more
    /// node-hours than the jobs requested (jobs may run past year end, so
    /// delivered ≤ requested).
    #[test]
    fn node_hours_bounded_by_offered(jobs in arb_jobs(64)) {
        let sim = ClusterSim::new(64).unwrap();
        let (util, _) = sim.simulate_year(&jobs);
        let delivered = util.total() * 64.0;
        let offered: f64 = jobs.iter()
            .filter(|j| j.nodes <= 64)
            .map(|j| j.nodes as f64 * j.duration_hours as f64)
            .sum();
        prop_assert!(delivered <= offered + 1e-6, "delivered {delivered} > offered {offered}");
    }

    /// Backfill never loses jobs relative to FCFS and never lowers
    /// utilization.
    #[test]
    fn backfill_dominates_fcfs(jobs in arb_jobs(32)) {
        let (easy_util, easy) = ClusterSim::new(32).unwrap().simulate_year(&jobs);
        let (fcfs_util, fcfs) = ClusterSim::with_backfill(32, false).unwrap().simulate_year(&jobs);
        prop_assert!(easy.started_jobs >= fcfs.started_jobs);
        prop_assert!(easy_util.total() >= fcfs_util.total() - 1e-6);
    }

    /// The trace generator respects its declared bounds for arbitrary
    /// valid configs.
    #[test]
    fn trace_bounds(nodes in 8u32..2048, util in 0.1f64..0.9,
                    dur in 1.0f64..24.0, width in 0.005f64..0.3, seed in any::<u64>()) {
        let cfg = TraceConfig {
            cluster_nodes: nodes,
            target_utilization: util,
            mean_duration_hours: dur,
            mean_width_fraction: width,
            seed,
        };
        let jobs = TraceGenerator::new(cfg).unwrap().generate_year();
        for j in &jobs {
            prop_assert!(j.nodes >= 1 && j.nodes <= nodes);
            prop_assert!(j.duration_hours >= 1 && j.duration_hours <= 168);
            prop_assert!(j.submit_hour < 8760);
        }
    }
}

/// Raw draws for one job of an oracle trace; [`oracle_trace`] scales
/// them to the cluster and the submission window.
type RawJob = (usize, u32, u8, u32, u32, u64);

fn arb_raw_jobs() -> impl Strategy<Value = Vec<RawJob>> {
    proptest::collection::vec(
        (
            0usize..1 << 20,
            any::<u32>(),
            0u8..32,
            0u32..72,
            0u32..40_000,
            0u64..512,
        ),
        0..300,
    )
}

/// A hostile trace for the oracle: submissions packed into a window that
/// may straddle year end, widths up to twice the cluster (oversized jobs
/// are rejected), zero-hour, multi-year and `u32::MAX`-hour durations,
/// colliding ids, and input order shuffled unless `sorted`.
fn oracle_trace(
    raw: &[RawJob],
    cluster: u32,
    start: usize,
    window: usize,
    sorted: bool,
) -> Vec<Job> {
    let mut jobs: Vec<Job> = raw
        .iter()
        .map(|&(at, width, kind, short, long, id)| Job {
            id,
            submit_hour: start + at % window,
            nodes: 1 + width % (2 * cluster),
            duration_hours: match kind {
                0 => u32::MAX,
                1..=3 => long,
                4..=7 => 0,
                _ => short,
            },
        })
        .collect();
    if sorted {
        jobs.sort_by_key(|j| (j.submit_hour, j.id));
    }
    jobs
}

/// `ClusterSim` against the reference simulator: the same utilization
/// bits and the same stats.
fn assert_matches_reference(cluster: u32, backfill: bool, jobs: &[Job]) -> Result<(), String> {
    let (util, stats) = ClusterSim::with_backfill(cluster, backfill)
        .unwrap()
        .simulate_year(jobs);
    let (want_util, want_stats) = support::simulate_year(cluster, backfill, jobs);
    let first_diff = (util.values().iter())
        .zip(want_util.values())
        .position(|(a, b)| a.to_bits() != b.to_bits());
    prop_assert!(
        first_diff.is_none(),
        "utilization differs from hour {first_diff:?} ({} jobs, {cluster} nodes, backfill {backfill})",
        jobs.len()
    );
    prop_assert_eq!(stats, want_stats);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The completion calendar reproduces the running-set simulator bit
    /// for bit on arbitrary traces, with and without backfill.
    #[test]
    fn calendar_matches_reference_simulator(
        raw in arb_raw_jobs(),
        cluster in 1u32..96,
        backfill in any::<bool>(),
        start in 0usize..8800,
        window in 1usize..600,
        sorted in any::<bool>(),
    ) {
        let jobs = oracle_trace(&raw, cluster, start, window, sorted);
        assert_matches_reference(cluster, backfill, &jobs)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The same oracle on generated year-long traces: tens of thousands
    /// of jobs, a loaded machine, and backfill in every hour.
    #[test]
    fn calendar_matches_reference_on_generated_years(
        nodes in 16u32..1024,
        util in 0.5f64..0.95,
        dur in 1.0f64..24.0,
        width in 0.01f64..0.2,
        seed in any::<u64>(),
        backfill in any::<bool>(),
    ) {
        let cfg = TraceConfig {
            cluster_nodes: nodes,
            target_utilization: util,
            mean_duration_hours: dur,
            mean_width_fraction: width,
            seed,
        };
        let jobs = TraceGenerator::new(cfg).unwrap().generate_year();
        assert_matches_reference(nodes, backfill, &jobs)?;
    }
}
