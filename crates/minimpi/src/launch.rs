//! `mpirun` — SPMD job launch of MPI ranks.
//!
//! The spawn loop, rank-map publication, fault-plan installation and
//! result collection are [`hpcbd_cluster::SpmdJob`]'s; this module only
//! wraps each process in an [`MpiRank`] sharing the job's RMA window
//! store, and names it `mpi-rank{r}`.

use hpcbd_cluster::{launch, ClusterSpec, Placement, SpmdJob, SpmdOutput};
use hpcbd_simnet::{FaultPlan, Sim};

use crate::rank::MpiRank;
use crate::rma::WinStore;

/// Embeds MPI ranks into an existing simulation that also hosts non-MPI
/// processes (HDFS daemons, measurement probes, ...).
pub struct MpiJob;

impl MpiJob {
    /// Spawn one process per rank of `placement` into `sim`, each running
    /// `f`. Rank r is placed on node `placement.node_of_rank(r)`.
    pub fn spawn<T, F>(sim: &mut Sim, placement: Placement, f: F) -> SpmdJob
    where
        T: Send + 'static,
        F: Fn(&mut MpiRank) -> T + Send + Sync + 'static,
    {
        let win_store = WinStore::new();
        SpmdJob::spawn(sim, placement, "mpi-rank", move |ctx, rank, map| {
            let mut rank_handle =
                MpiRank::new(ctx, rank, map, placement).with_win_store(win_store.clone());
            f(&mut rank_handle)
        })
    }
}

/// Launch an SPMD MPI job on a dedicated Comet allocation sized to the
/// placement, run it to completion, and return per-rank results.
///
/// This is the `mpirun -np N --map-by ppr:P:node` of the study.
pub fn mpirun<T, F>(placement: Placement, f: F) -> SpmdOutput<T>
where
    T: Send + 'static,
    F: Fn(&mut MpiRank) -> T + Send + Sync + 'static,
{
    mpirun_on(&ClusterSpec::comet(placement.nodes), placement, f)
}

/// [`mpirun`] with an explicit cluster description.
pub fn mpirun_on<T, F>(cluster: &ClusterSpec, placement: Placement, f: F) -> SpmdOutput<T>
where
    T: Send + 'static,
    F: Fn(&mut MpiRank) -> T + Send + Sync + 'static,
{
    launch(cluster, placement, None, |sim| {
        MpiJob::spawn(sim, placement, f)
    })
}

/// [`mpirun`] under a deterministic [`FaultPlan`]: the plan is installed
/// before any rank starts, so node crashes, stragglers, link faults, and
/// message drops hit the job exactly as scheduled. Pair with
/// [`hpcbd_simnet::Checkpointer::poll_plan_failure`] inside `f` for
/// recovery — without it, a crashed rank simply never reaches its next
/// collective and the job hangs or aborts, which is plain MPI's actual
/// behavior.
pub fn mpirun_faulty<T, F>(placement: Placement, plan: FaultPlan, f: F) -> SpmdOutput<T>
where
    T: Send + 'static,
    F: Fn(&mut MpiRank) -> T + Send + Sync + 'static,
{
    let cluster = ClusterSpec::comet(placement.nodes);
    launch(&cluster, placement, Some(plan), |sim| {
        MpiJob::spawn(sim, placement, f)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcbd_simnet::SimTime;

    #[test]
    fn ranks_see_correct_rank_and_size() {
        let out = mpirun(Placement::new(2, 3), |rank| (rank.rank(), rank.size()));
        assert_eq!(out.results.len(), 6);
        for (i, (r, s)) in out.results.iter().enumerate() {
            assert_eq!(*r as usize, i);
            assert_eq!(*s, 6);
        }
    }

    #[test]
    fn elapsed_is_positive_once_ranks_communicate() {
        let out = mpirun(Placement::new(2, 1), |rank| {
            if rank.rank() == 0 {
                rank.send(1, 1, &[42u64]);
            } else {
                rank.recv::<u64>(Some(0), 1);
            }
        });
        assert!(out.elapsed() > SimTime::ZERO);
    }

    #[test]
    fn placement_accessible_from_rank() {
        let out = mpirun(Placement::new(2, 2), |rank| {
            rank.placement().node_of_rank(rank.rank()).0
        });
        assert_eq!(out.results, vec![0, 0, 1, 1]);
    }
}
