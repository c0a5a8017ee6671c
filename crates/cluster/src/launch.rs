//! SPMD launch — the one spawn loop behind `mpirun` and `shmem_run`.
//!
//! An SPMD job is one simulated process per slot of a [`Placement`],
//! all running the same closure, addressing each other by index through
//! a [`RankMap`]. The runtimes differ only in the handle they wrap
//! around each process's [`ProcCtx`] (an MPI rank with its job's RMA
//! window store, a SHMEM PE with its team's symmetric heaps) and in the
//! process-name prefix that shows up in traces; both are supplied by
//! the caller of [`SpmdJob::spawn`].

use std::sync::{Arc, OnceLock};

use hpcbd_simnet::{FaultPlan, Pid, ProcCtx, Sim, SimReport, SimTime};

use crate::{ClusterSpec, Placement, RankMap};

/// Everything an SPMD job run produced: per-process results in index
/// order, plus the simulation report (per-process stats and the
/// makespan, which is the job's execution time).
pub struct SpmdOutput<T> {
    /// Per-process return values, indexed by rank / PE number.
    pub results: Vec<T>,
    /// Engine report.
    pub report: SimReport,
}

impl<T> SpmdOutput<T> {
    /// The job's execution time (virtual time of the slowest process).
    pub fn elapsed(&self) -> SimTime {
        self.report.makespan()
    }
}

/// The processes of one SPMD job spawned into a simulation that may
/// also host other processes (HDFS daemons, measurement probes, ...).
pub struct SpmdJob {
    pids: Vec<Pid>,
}

impl SpmdJob {
    /// Spawn one process per slot of `placement` into `sim`, named
    /// `{name}{index}` and placed on `placement.node_of_rank(index)`.
    /// Each runs `body(ctx, index, map)`, where `map` holds every
    /// process's pid in index order.
    pub fn spawn<T, B>(sim: &mut Sim, placement: Placement, name: &str, body: B) -> SpmdJob
    where
        T: Send + 'static,
        B: Fn(&mut ProcCtx, u32, Arc<RankMap>) -> T + Send + Sync + 'static,
    {
        let body = Arc::new(body);
        let mut pids = Vec::with_capacity(placement.total() as usize);
        // The map is published to every closure after all of them are
        // registered; processes only start at `sim.run()`, so the
        // OnceLock is always populated before any process reads it.
        let shared_map: Arc<OnceLock<Arc<RankMap>>> = Arc::new(OnceLock::new());
        for (index, node) in placement.iter() {
            let body = body.clone();
            let shared_map = shared_map.clone();
            let pid = sim.spawn(node, format!("{name}{index}"), move |ctx: &mut ProcCtx| {
                let map = shared_map
                    .get()
                    .expect("rank map published before run")
                    .clone();
                body(ctx, index, map)
            });
            pids.push(pid);
        }
        shared_map
            .set(Arc::new(RankMap::from_pids(pids.clone())))
            .expect("rank map set once");
        SpmdJob { pids }
    }

    /// Collect per-process results from a finished simulation.
    pub fn results<T: 'static>(&self, report: &mut SimReport) -> Vec<T> {
        self.pids.iter().map(|p| report.result::<T>(*p)).collect()
    }
}

/// Run one SPMD job on a dedicated simulation of `cluster`: install
/// `faults` (if any) before any process starts, let `spawn` place the
/// job, run to completion and collect the results.
pub fn launch<T: 'static>(
    cluster: &ClusterSpec,
    placement: Placement,
    faults: Option<FaultPlan>,
    spawn: impl FnOnce(&mut Sim) -> SpmdJob,
) -> SpmdOutput<T> {
    assert!(
        placement.nodes <= cluster.nodes,
        "placement needs {} nodes, cluster has {}",
        placement.nodes,
        cluster.nodes
    );
    let mut sim = Sim::new(cluster.topology());
    if let Some(plan) = faults {
        sim.set_fault_plan(plan);
    }
    let job = spawn(&mut sim);
    let mut report = sim.run();
    let results = job.results::<T>(&mut report);
    SpmdOutput { results, report }
}
