//! The reference cluster simulator: the straightforward running-set
//! formulation of FCFS + EASY backfill that `ClusterSim`'s completion
//! calendar replaced. It copies and sorts the trace, scans the running
//! set every hour to complete jobs, and clones and sorts it to find the
//! head's reservation. Slow but obviously right, so the property tests
//! hold the calendar to it bit for bit.

use thirstyflops_timeseries::{HourlySeries, HOURS_PER_YEAR};
use thirstyflops_workload::{ClusterStats, Job};

/// A running job's remaining reservation.
#[derive(Debug, Clone, Copy)]
struct Running {
    end_hour: usize,
    nodes: u32,
}

/// One year of FCFS (+ EASY backfill when `backfill`) on a `nodes`-node
/// cluster, with the exact semantics `ClusterSim::simulate_year` keeps.
pub fn simulate_year(nodes: u32, backfill: bool, jobs: &[Job]) -> (HourlySeries, ClusterStats) {
    let mut sorted: Vec<Job> = jobs.to_vec();
    sorted.sort_by_key(|j| (j.submit_hour, j.id));

    let mut queue: std::collections::VecDeque<Job> = std::collections::VecDeque::new();
    let mut running: Vec<Running> = Vec::new();
    let mut free = nodes;
    let mut next_arrival = 0usize;

    let mut utilization = Vec::with_capacity(HOURS_PER_YEAR);
    let mut started = 0usize;
    let mut rejected = 0usize;
    let mut total_wait = 0u64;
    let mut max_wait = 0u32;

    for hour in 0..HOURS_PER_YEAR {
        running.retain(|r| {
            if r.end_hour <= hour {
                free += r.nodes;
                false
            } else {
                true
            }
        });

        while next_arrival < sorted.len() && sorted[next_arrival].submit_hour <= hour {
            let j = sorted[next_arrival];
            if j.nodes > nodes {
                rejected += 1;
            } else {
                queue.push_back(j);
            }
            next_arrival += 1;
        }

        while let Some(&head) = queue.front() {
            if head.nodes <= free {
                queue.pop_front();
                free -= head.nodes;
                running.push(Running {
                    end_hour: hour + head.duration_hours as usize,
                    nodes: head.nodes,
                });
                started += 1;
                let wait = (hour - head.submit_hour) as u32;
                total_wait += wait as u64;
                max_wait = max_wait.max(wait);
            } else {
                break;
            }
        }

        if backfill {
            if let Some(&head) = queue.front() {
                let shadow = shadow_time(&running, free, head.nodes, hour);
                let free_at_shadow = nodes - busy_after(&running, shadow);
                let extra = free_at_shadow.saturating_sub(head.nodes);

                let mut i = 1;
                while i < queue.len() {
                    let cand = queue[i];
                    let fits_now = cand.nodes <= free;
                    let ends_before_shadow = hour + cand.duration_hours as usize <= shadow;
                    let within_extra = cand.nodes <= extra.min(free);
                    if fits_now && (ends_before_shadow || within_extra) {
                        free -= cand.nodes;
                        running.push(Running {
                            end_hour: hour + cand.duration_hours as usize,
                            nodes: cand.nodes,
                        });
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
        }

        utilization.push((nodes - free) as f64 / nodes as f64);
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

/// Earliest hour at which `needed` nodes will be simultaneously free,
/// given the current running set.
fn shadow_time(running: &[Running], mut free: u32, needed: u32, now: usize) -> usize {
    if needed <= free {
        return now;
    }
    let mut ends: Vec<Running> = running.to_vec();
    ends.sort_by_key(|r| r.end_hour);
    for r in ends {
        free += r.nodes;
        if free >= needed {
            return r.end_hour;
        }
    }
    now
}

/// Nodes still busy after `hour`, assuming no new starts.
fn busy_after(running: &[Running], hour: usize) -> u32 {
    running
        .iter()
        .filter(|r| r.end_hour > hour)
        .map(|r| r.nodes)
        .sum()
}
