//! Scenario assembly: cluster + scheduler + workers + open-loop traffic,
//! in one simulation.
//!
//! A scenario pre-computes every traffic source's arrival trace (a pure
//! function of the seed — see [`crate::arrivals`]), pre-spawns the slot
//! workers and scheduler (the engine's process table is fixed at run
//! start), runs the simulation, and returns the scheduler's
//! [`SchedStats`].

use std::sync::Arc;

use hpcbd_cluster::ClusterSpec;
use hpcbd_simnet::{NodeId, Pid, Sim, SimDuration};

use crate::arrivals::{arrivals, RateProcess};
use crate::job::JobFactory;
use crate::queue::QueueSpec;
use crate::scheduler::{scheduler, slot_worker, submitter, SchedStats, SchedulerConfig};

/// One open-loop traffic source.
pub struct SourceSpec {
    /// Source name (seed salt and diagnostics).
    pub name: &'static str,
    /// Offered-load shape.
    pub process: RateProcess,
    /// Builds the source's `k`-th job.
    pub factory: JobFactory,
}

/// A full "datacenter day" scenario.
pub struct ScenarioSpec {
    /// Scenario name (report label).
    pub name: &'static str,
    /// Comet nodes.
    pub nodes: u32,
    /// Slots (containers) per node.
    pub per_node: u32,
    /// Nodes per rack (locality middle tier).
    pub rack_size: u32,
    /// Traffic horizon, virtual seconds; sources stop submitting here
    /// (the run then drains).
    pub horizon_s: f64,
    /// Master seed; each source salts it with its index and name.
    pub seed: u64,
    /// Delay-scheduling wait per locality level.
    pub locality_delay: SimDuration,
    /// Enable preemption.
    pub preemption: bool,
    /// Queue table.
    pub queues: Vec<QueueSpec>,
    /// Traffic sources.
    pub sources: Vec<SourceSpec>,
}

/// What a scenario run produced.
pub struct ScenarioOutcome {
    /// The scheduler's per-queue counters and integrals.
    pub stats: SchedStats,
    /// Jobs offered by all sources.
    pub offered: u64,
    /// The simulation's makespan (drain included), nanoseconds.
    pub makespan_ns: u64,
}

/// Nearest-rank quantile of a latency sample (`q` in [0, 1]). Sorts a
/// copy; exact, deterministic, no interpolation.
pub fn quantile_ns(values: &[u64], q: f64) -> u64 {
    if values.is_empty() {
        return 0;
    }
    let mut v = values.to_vec();
    v.sort_unstable();
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Run the scenario to completion and collect the scheduler's stats.
pub fn run(spec: &ScenarioSpec) -> ScenarioOutcome {
    // Pre-compute and merge the arrival traces: (instant, source, k),
    // ordered by time with (source, k) as the deterministic tie-break.
    let mut merged: Vec<(u64, usize, u64)> = Vec::new();
    for (si, src) in spec.sources.iter().enumerate() {
        let salt = hpcbd_simnet::det_hash(&(spec.seed, si as u64, src.name));
        for (k, at) in arrivals(salt, src.process, spec.horizon_s)
            .iter()
            .enumerate()
        {
            merged.push((*at, si, k as u64));
        }
    }
    merged.sort_unstable();
    let trace: Vec<(u64, crate::job::JobSpec)> = merged
        .iter()
        .map(|(at, si, k)| (*at, (spec.sources[*si].factory)(*k)))
        .collect();
    run_trace(spec, trace)
}

/// Run the scenario against an explicit arrival trace of
/// `(instant_ns, job)` pairs (must be time-sorted). `spec.sources` is
/// ignored; everything else applies. This is the layer tests use to
/// force specific contention patterns.
pub fn run_trace(spec: &ScenarioSpec, trace: Vec<(u64, crate::job::JobSpec)>) -> ScenarioOutcome {
    let offered = trace.len() as u64;

    let cluster = ClusterSpec::comet(spec.nodes);
    let control = cluster.control();
    let mut sim = Sim::new(cluster.topology());

    // Slot workers first: pids 0 .. nodes*per_node-1, in slot order.
    let sched_pid = Pid(spec.nodes * spec.per_node);
    let mut workers = Vec::with_capacity((spec.nodes * spec.per_node) as usize);
    for node in 0..spec.nodes {
        for k in 0..spec.per_node {
            let pid = sim.spawn(NodeId(node), format!("slot-{node}.{k}"), move |ctx| {
                slot_worker(ctx, sched_pid, control)
            });
            workers.push(pid);
        }
    }
    let cfg = SchedulerConfig {
        queues: spec.queues.clone(),
        workers: workers.clone(),
        per_node: spec.per_node,
        rack_size: spec.rack_size,
        expected_jobs: offered,
        locality_delay: spec.locality_delay,
        preemption: spec.preemption,
        control,
    };
    let got = sim.spawn(NodeId(0), "scheduler", move |ctx| scheduler(ctx, cfg));
    assert_eq!(
        got, sched_pid,
        "scheduler pid drifted from the worker count"
    );
    sim.spawn(NodeId(0), "submitter", move |ctx| {
        submitter(ctx, sched_pid, control, trace)
    });

    let mut report = sim.run();
    let stats: SchedStats = report.result(sched_pid);
    ScenarioOutcome {
        offered,
        makespan_ns: report.makespan().nanos(),
        stats,
    }
}

/// Convenience: a job factory from a plain function pointer or closure.
pub fn factory(f: impl Fn(u64) -> crate::job::JobSpec + Send + Sync + 'static) -> JobFactory {
    Arc::new(f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_nearest_rank() {
        let v = vec![10, 20, 30, 40];
        assert_eq!(quantile_ns(&v, 0.5), 20);
        assert_eq!(quantile_ns(&v, 0.99), 40);
        assert_eq!(quantile_ns(&v, 0.0), 10);
        assert_eq!(quantile_ns(&[], 0.5), 0);
    }
}
