//! Hour-stepped cluster scheduling simulation: FCFS with EASY backfill.
//!
//! Turns a job trace into the machine-utilization series the paper
//! derives from production job logs. EASY backfill (a reservation for the
//! queue head; later jobs may jump ahead only if they cannot delay that
//! reservation) is the de-facto standard batch policy, so the resulting
//! utilization texture — high steady load with backfill ripples — matches
//! what the M100/Fugaku log studies report.
//!
//! Running jobs live in a completion calendar (a calendar queue, Brown,
//! CACM 1988): nodes released per end hour. Completing an hour's jobs is
//! one bucket take, and the backfill reservation is a forward walk over
//! the buckets instead of a sort of the running set.

use std::borrow::Cow;
use std::collections::{BTreeMap, VecDeque};
use std::sync::OnceLock;

use thirstyflops_obs::span;
use thirstyflops_obs::Counter;
use thirstyflops_timeseries::{HourlySeries, HOURS_PER_YEAR};

use crate::trace::Job;

/// Jobs fed into cluster-year simulations, registered once in the
/// workspace metrics registry. Deterministic: simulation demand is a
/// pure function of the command (`docs/OBSERVABILITY.md`).
fn jobs_simulated() -> &'static Counter {
    static COUNTER: OnceLock<Counter> = OnceLock::new();
    COUNTER.get_or_init(|| {
        thirstyflops_obs::registry::counter(
            "thirstyflops_workload_jobs_simulated_total",
            "Jobs fed into cluster-year scheduling simulations.",
        )
    })
}

/// End hours with a dense calendar bucket: the simulated year plus the
/// 168-hour duration cap of generated traces, so every generated job
/// lands in a bucket.
const DENSE_HOURS: usize = HOURS_PER_YEAR + 169;

/// The running set as a completion calendar: nodes released per end
/// hour. End hours past [`DENSE_HOURS`] (long jobs from SWF imports, up
/// to `u32::MAX` hours) go to an ordered map, so memory stays bounded by
/// the number of jobs whatever their durations. Those jobs never finish
/// within the year; only the backfill reservation walk reads them.
#[derive(Debug)]
struct Calendar {
    dense: Vec<u32>,
    /// Sum of `dense`: nodes that a dense-only walk can release.
    dense_busy: u32,
    far: BTreeMap<usize, u32>,
}

impl Calendar {
    fn new() -> Self {
        Self {
            dense: vec![0; DENSE_HOURS],
            dense_busy: 0,
            far: BTreeMap::new(),
        }
    }

    /// Books `nodes` busy until `end_hour`.
    fn insert(&mut self, end_hour: usize, nodes: u32) {
        match self.dense.get_mut(end_hour) {
            Some(bucket) => {
                *bucket += nodes;
                self.dense_busy += nodes;
            }
            None => *self.far.entry(end_hour).or_insert(0) += nodes,
        }
    }

    /// Nodes whose jobs end by `hour`. A zero-hour job started in the
    /// previous hour sits in bucket `hour - 1` and is released here, one
    /// hour after its start, like every other job ending before `hour`.
    fn release(&mut self, hour: usize) -> u32 {
        let previous = hour
            .checked_sub(1)
            .map_or(0, |h| std::mem::take(&mut self.dense[h]));
        let released = previous + std::mem::take(&mut self.dense[hour]);
        self.dense_busy -= released;
        released
    }

    /// The EASY reservation for a head job needing `needed` nodes while
    /// `free` are idle at `hour`: the earliest end hour `E ≥ hour` by
    /// which `needed` nodes are free assuming no new starts, and the
    /// free-node count at `E`.
    fn shadow(&self, hour: usize, free: u32, needed: u32) -> (usize, u32) {
        if free + self.dense_busy >= needed {
            let mut acc = free;
            for (end, &nodes) in self.dense.iter().enumerate().skip(hour) {
                acc += nodes;
                if acc >= needed {
                    return (end, acc);
                }
            }
        }
        let mut acc = free + self.dense_busy;
        for (&end, &nodes) in &self.far {
            acc += nodes;
            if acc >= needed {
                return (end, acc);
            }
        }
        unreachable!("heads fit the cluster and every busy node is booked in the calendar")
    }
}

/// Summary statistics from a simulated year.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ClusterStats {
    /// Jobs that started within the year.
    pub started_jobs: usize,
    /// Jobs still queued at year end.
    pub unstarted_jobs: usize,
    /// Mean wait of started jobs, hours.
    pub mean_wait_hours: f64,
    /// Max wait of started jobs, hours.
    pub max_wait_hours: u32,
    /// Mean machine utilization over the year.
    pub mean_utilization: f64,
}

/// The cluster simulator.
#[derive(Debug, Clone)]
pub struct ClusterSim {
    nodes: u32,
    backfill: bool,
}

impl ClusterSim {
    /// A cluster with `nodes` identical nodes using FCFS + EASY backfill.
    pub fn new(nodes: u32) -> Result<Self, String> {
        Self::with_backfill(nodes, true)
    }

    /// A cluster with an explicit backfill policy: `backfill = false`
    /// degrades to plain FCFS — the ablation baseline showing how much
    /// utilization EASY recovers.
    pub fn with_backfill(nodes: u32, backfill: bool) -> Result<Self, String> {
        if nodes == 0 {
            return Err("cluster must have at least one node".into());
        }
        Ok(Self { nodes, backfill })
    }

    /// Cluster size.
    pub fn nodes(&self) -> u32 {
        self.nodes
    }

    /// Runs one year of FCFS + EASY backfill over `jobs` (any order;
    /// processed by `(submit_hour, id)`, copying and sorting only when
    /// the input is not already in that order). Returns the hourly
    /// busy-node utilization in `[0, 1]` and summary stats.
    ///
    /// Jobs wider than the cluster are rejected (counted as unstarted).
    pub fn simulate_year(&self, jobs: &[Job]) -> (HourlySeries, ClusterStats) {
        let _span = span::span(span::CLUSTER_SIM);
        jobs_simulated().add(jobs.len() as u64);
        // `windows` rather than `is_sorted_by_key` (Rust 1.82; MSRV 1.80).
        let key = |j: &Job| (j.submit_hour, j.id);
        let sorted: Cow<'_, [Job]> = if jobs.windows(2).all(|w| key(&w[0]) <= key(&w[1])) {
            Cow::Borrowed(jobs)
        } else {
            let mut owned = jobs.to_vec();
            owned.sort_by_key(key);
            Cow::Owned(owned)
        };

        let mut queue: VecDeque<Job> = VecDeque::new();
        let mut running = Calendar::new();
        let mut free = self.nodes;
        let mut next_arrival = 0usize;

        let mut utilization = Vec::with_capacity(HOURS_PER_YEAR);
        let mut started = 0usize;
        let mut rejected = 0usize;
        let mut total_wait = 0u64;
        let mut max_wait = 0u32;

        for hour in 0..HOURS_PER_YEAR {
            // Complete jobs.
            free += running.release(hour);

            // Accept arrivals.
            while next_arrival < sorted.len() && sorted[next_arrival].submit_hour <= hour {
                let j = sorted[next_arrival];
                if j.nodes > self.nodes {
                    rejected += 1;
                } else {
                    queue.push_back(j);
                }
                next_arrival += 1;
            }

            // FCFS head starts.
            while let Some(&head) = queue.front() {
                if head.nodes <= free {
                    queue.pop_front();
                    free -= head.nodes;
                    running.insert(hour + head.duration_hours as usize, head.nodes);
                    started += 1;
                    let wait = (hour - head.submit_hour) as u32;
                    total_wait += wait as u64;
                    max_wait = max_wait.max(wait);
                } else {
                    break;
                }
            }

            // EASY backfill: reserve the earliest feasible start for the
            // head, then let later jobs run if they cannot delay it.
            if !self.backfill {
                utilization.push((self.nodes - free) as f64 / self.nodes as f64);
                continue;
            }
            if let Some(&head) = queue.front() {
                // `free_at_shadow`: nodes free at shadow time; beyond what
                // the head needs they are "extra" nodes a long backfill
                // job may hold.
                let (shadow, free_at_shadow) = running.shadow(hour, free, head.nodes);
                let extra = free_at_shadow.saturating_sub(head.nodes);

                let mut i = 1; // skip the head
                while i < queue.len() {
                    let cand = queue[i];
                    let fits_now = cand.nodes <= free;
                    let ends_before_shadow = hour + cand.duration_hours as usize <= shadow;
                    let within_extra = cand.nodes <= extra.min(free);
                    if fits_now && (ends_before_shadow || within_extra) {
                        free -= cand.nodes;
                        running.insert(hour + cand.duration_hours as usize, cand.nodes);
                        started += 1;
                        let wait = (hour - cand.submit_hour) as u32;
                        total_wait += wait as u64;
                        max_wait = max_wait.max(wait);
                        queue.remove(i);
                    } else {
                        i += 1;
                    }
                }
            }

            utilization.push((self.nodes - free) as f64 / self.nodes as f64);
        }

        let unstarted = queue.len() + (sorted.len() - next_arrival) + rejected;
        let series = HourlySeries::from_vec(utilization);
        let stats = ClusterStats {
            started_jobs: started,
            unstarted_jobs: unstarted,
            mean_wait_hours: if started > 0 {
                total_wait as f64 / started as f64
            } else {
                0.0
            },
            max_wait_hours: max_wait,
            mean_utilization: series.mean(),
        };
        (series, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{TraceConfig, TraceGenerator};

    fn job(id: u64, submit: usize, nodes: u32, dur: u32) -> Job {
        Job {
            id,
            submit_hour: submit,
            nodes,
            duration_hours: dur,
        }
    }

    #[test]
    fn single_job_runs_for_its_duration() {
        let sim = ClusterSim::new(10).unwrap();
        let (util, stats) = sim.simulate_year(&[job(0, 5, 5, 3)]);
        assert_eq!(util.get(4), 0.0);
        assert_eq!(util.get(5), 0.5);
        assert_eq!(util.get(7), 0.5);
        assert_eq!(util.get(8), 0.0);
        assert_eq!(stats.started_jobs, 1);
        assert_eq!(stats.unstarted_jobs, 0);
        assert_eq!(stats.mean_wait_hours, 0.0);
    }

    #[test]
    fn fcfs_queues_when_full() {
        let sim = ClusterSim::new(4).unwrap();
        let (util, stats) = sim.simulate_year(&[job(0, 0, 4, 4), job(1, 0, 4, 2)]);
        assert_eq!(util.get(0), 1.0);
        assert_eq!(util.get(3), 1.0);
        assert_eq!(util.get(4), 1.0); // second job starts at 4
        assert_eq!(util.get(5), 1.0);
        assert_eq!(util.get(6), 0.0);
        assert_eq!(stats.started_jobs, 2);
        assert!((stats.mean_wait_hours - 2.0).abs() < 1e-12); // waits 0 and 4
    }

    #[test]
    fn backfill_slips_a_short_job_ahead() {
        // 4-node cluster: J0 takes all 4 for 4 h. J1 (submitted first)
        // needs 4 nodes → must wait. J2 needs 2 nodes for 2 h... but all
        // nodes are busy until J0 ends, so nothing can backfill before
        // hour 4. Instead test the classic shape: J0 uses 2 nodes,
        // J1 (head) needs 4, J2 (1 node, 2 h) backfills immediately.
        let sim = ClusterSim::new(4).unwrap();
        let (util, stats) = sim.simulate_year(&[
            job(0, 0, 2, 4), // runs 0..4 on 2 nodes
            job(1, 1, 4, 2), // head: needs all 4, shadow = 4
            job(2, 1, 1, 2), // fits now and ends at 3 ≤ 4 → backfills
        ]);
        assert_eq!(stats.started_jobs, 3);
        // Hour 1: J0 (2 nodes) + J2 (1 node) = 3/4 busy.
        assert_eq!(util.get(1), 0.75);
        // Head starts at hour 4 (util 4/4).
        assert_eq!(util.get(4), 1.0);
    }

    #[test]
    fn backfill_never_delays_the_head() {
        // A long backfill candidate that would push the head's start must
        // not start.
        let sim = ClusterSim::new(4).unwrap();
        let (util, _stats) = sim.simulate_year(&[
            job(0, 0, 2, 4),  // 0..4 on 2 nodes
            job(1, 1, 4, 2),  // head, shadow = 4
            job(2, 1, 2, 10), // fits now, but ends at 11 > 4 and uses head nodes
        ]);
        // Hour 1: only J0 runs.
        assert_eq!(util.get(1), 0.5);
        // Head runs at hour 4.
        assert_eq!(util.get(4), 1.0);
        // J2 starts after the head finishes (hour 6).
        assert_eq!(util.get(6), 0.5);
    }

    #[test]
    fn oversized_jobs_are_rejected() {
        let sim = ClusterSim::new(4).unwrap();
        let (_, stats) = sim.simulate_year(&[job(0, 0, 8, 2), job(1, 0, 2, 2)]);
        assert_eq!(stats.started_jobs, 1);
        assert_eq!(stats.unstarted_jobs, 1);
    }

    #[test]
    fn generated_trace_reaches_target_utilization() {
        let cfg = TraceConfig {
            cluster_nodes: 512,
            target_utilization: 0.75,
            mean_duration_hours: 8.0,
            mean_width_fraction: 0.03,
            seed: 21,
        };
        let jobs = TraceGenerator::new(cfg).unwrap().generate_year();
        let sim = ClusterSim::new(512).unwrap();
        let (util, stats) = sim.simulate_year(&jobs);
        assert!(
            (stats.mean_utilization - 0.75).abs() < 0.12,
            "mean utilization {}",
            stats.mean_utilization
        );
        assert!(util.max() <= 1.0 + 1e-12);
        assert!(util.min() >= 0.0);
        // Most jobs start.
        assert!(stats.unstarted_jobs < jobs.len() / 10);
    }

    #[test]
    fn utilization_never_exceeds_one() {
        let cfg = TraceConfig {
            cluster_nodes: 64,
            target_utilization: 0.9,
            mean_duration_hours: 4.0,
            mean_width_fraction: 0.1,
            seed: 5,
        };
        let jobs = TraceGenerator::new(cfg).unwrap().generate_year();
        let (util, _) = ClusterSim::new(64).unwrap().simulate_year(&jobs);
        assert!(util.max() <= 1.0 + 1e-12);
    }

    #[test]
    fn endless_job_keeps_the_calendar_bounded() {
        // A u32::MAX-hour job books one ordered-map entry; the dense
        // buckets stay the fixed year-plus-cap length.
        let mut cal = Calendar::new();
        cal.insert(10 + u32::MAX as usize, 3);
        assert_eq!(cal.dense.len(), DENSE_HOURS);
        assert_eq!(cal.far.len(), 1);
        // The reservation walk reaches it past the dense buckets.
        assert_eq!(cal.shadow(10, 1, 4), (10 + u32::MAX as usize, 4));

        // End to end: the endless job holds its nodes all year, and a
        // head needing them blocks without delaying a short job beside it.
        let sim = ClusterSim::new(4).unwrap();
        let (util, stats) =
            sim.simulate_year(&[job(0, 0, 3, u32::MAX), job(1, 1, 4, 1), job(2, 2, 1, 2)]);
        assert_eq!(util.get(0), 0.75);
        assert_eq!(util.get(2), 1.0);
        assert_eq!(util.get(HOURS_PER_YEAR - 1), 0.75);
        assert_eq!(stats.started_jobs, 2);
        assert_eq!(stats.unstarted_jobs, 1);
    }

    #[test]
    fn zero_node_cluster_rejected() {
        assert!(ClusterSim::new(0).is_err());
        assert!(ClusterSim::with_backfill(0, false).is_err());
    }

    #[test]
    fn plain_fcfs_wastes_the_backfill_hole() {
        // Same workload as `backfill_slips_a_short_job_ahead`, but FCFS:
        // J2 must wait behind the blocked head.
        let sim = ClusterSim::with_backfill(4, false).unwrap();
        let (util, stats) = sim.simulate_year(&[job(0, 0, 2, 4), job(1, 1, 4, 2), job(2, 1, 1, 2)]);
        // Hour 1: only J0's 2 nodes busy — the hole goes unused.
        assert_eq!(util.get(1), 0.5);
        assert_eq!(stats.started_jobs, 3);
    }

    #[test]
    fn backfill_beats_fcfs_on_utilization() {
        let cfg = TraceConfig {
            cluster_nodes: 256,
            target_utilization: 0.85,
            mean_duration_hours: 8.0,
            mean_width_fraction: 0.08,
            seed: 33,
        };
        let jobs = TraceGenerator::new(cfg).unwrap().generate_year();
        let (_, easy) = ClusterSim::new(256).unwrap().simulate_year(&jobs);
        let (_, fcfs) = ClusterSim::with_backfill(256, false)
            .unwrap()
            .simulate_year(&jobs);
        assert!(
            easy.mean_utilization >= fcfs.mean_utilization,
            "EASY {} vs FCFS {}",
            easy.mean_utilization,
            fcfs.mean_utilization
        );
        // Backfilled jobs see shorter mean waits.
        assert!(easy.mean_wait_hours <= fcfs.mean_wait_hours);
    }
}
