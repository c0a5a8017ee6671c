//! SPMD launch of a PE team (`shmem_init` / `oshrun`).
//!
//! The spawn loop, PE-map publication, fault-plan installation and
//! result collection are [`hpcbd_cluster::SpmdJob`]'s; this module only
//! wraps each process in a [`PeCtx`] over the team's symmetric heaps,
//! and names it `pe{n}`.

use hpcbd_cluster::{launch, ClusterSpec, Placement, SpmdJob, SpmdOutput};
use hpcbd_simnet::{FaultPlan, Sim};

use crate::heap::SymHeaps;
use crate::pe::PeCtx;

/// Spawn one process per PE of `placement` into `sim`, all sharing one
/// set of symmetric heaps.
fn spawn_team<T, F>(sim: &mut Sim, placement: Placement, f: F) -> SpmdJob
where
    T: Send + 'static,
    F: Fn(&mut PeCtx) -> T + Send + Sync + 'static,
{
    let heaps = SymHeaps::new(placement.total() as usize);
    SpmdJob::spawn(sim, placement, "pe", move |ctx, pe, map| {
        let mut pe_handle = PeCtx::new(ctx, pe, map, placement, heaps.clone());
        f(&mut pe_handle)
    })
}

/// Launch a PE team on a Comet allocation sized to the placement.
pub fn shmem_run<T, F>(placement: Placement, f: F) -> SpmdOutput<T>
where
    T: Send + 'static,
    F: Fn(&mut PeCtx) -> T + Send + Sync + 'static,
{
    shmem_run_on(&ClusterSpec::comet(placement.nodes), placement, f)
}

/// [`shmem_run`] on an explicit cluster.
pub fn shmem_run_on<T, F>(cluster: &ClusterSpec, placement: Placement, f: F) -> SpmdOutput<T>
where
    T: Send + 'static,
    F: Fn(&mut PeCtx) -> T + Send + Sync + 'static,
{
    launch(cluster, placement, None, |sim| {
        spawn_team(sim, placement, f)
    })
}

/// [`shmem_run`] under a deterministic [`FaultPlan`], installed before
/// any PE starts. Pair with
/// [`hpcbd_simnet::Checkpointer::poll_plan_failure`] inside `f` for
/// recovery.
pub fn shmem_run_faulty<T, F>(placement: Placement, plan: FaultPlan, f: F) -> SpmdOutput<T>
where
    T: Send + 'static,
    F: Fn(&mut PeCtx) -> T + Send + Sync + 'static,
{
    let cluster = ClusterSpec::comet(placement.nodes);
    launch(&cluster, placement, Some(plan), |sim| {
        spawn_team(sim, placement, f)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pes_see_identity() {
        let out = shmem_run(Placement::new(2, 2), |pe| (pe.pe(), pe.npes()));
        for (i, (me, n)) in out.results.iter().enumerate() {
            assert_eq!(*me as usize, i);
            assert_eq!(*n, 4);
        }
    }

    #[test]
    fn deterministic_elapsed() {
        let t1 = shmem_run(Placement::new(2, 2), |pe| {
            let a = pe.malloc::<u64>("a", 8, 0);
            pe.put(&a, 0, &[pe.pe() as u64; 8], (pe.pe() + 1) % pe.npes());
            pe.barrier_all();
        })
        .elapsed();
        let t2 = shmem_run(Placement::new(2, 2), |pe| {
            let a = pe.malloc::<u64>("a", 8, 0);
            pe.put(&a, 0, &[pe.pe() as u64; 8], (pe.pe() + 1) % pe.npes());
            pe.barrier_all();
        })
        .elapsed();
        assert_eq!(t1, t2);
    }
}
