//! Checkpoint/restart — the HPC fault-tolerance story.
//!
//! The paper's fault-tolerance discussion (Sec. VI-D) contrasts Spark's
//! lineage-based recomputation with the "different checkpointing/restarting
//! algorithms" of distributed HPC frameworks: MPI itself does not recover
//! from faults at run time, so applications periodically write coordinated
//! checkpoints and, on failure, the *whole job* restarts from the last one.
//!
//! Two protocols are modeled (see `DESIGN.md` §13):
//!
//! * [`CheckpointMode::Coordinated`] — the PR-2 stop-the-world variant:
//!   barrier, synchronous state write, barrier, every interval. The write
//!   sits on the critical path.
//! * [`CheckpointMode::Async`] — algorithm-based asynchronous
//!   checkpointing (per the mixed MPI/GPI-2 study, `PAPERS.md`): at the
//!   interval barrier each rank copies its state into a double buffer
//!   (memory-bandwidth cost only) and resumes compute immediately while
//!   the buffer drains to scratch in background I/O
//!   ([`hpcbd_simnet::ProcCtx::disk_write_background`]). The catch is on
//!   the restart side: a crash that lands while a drain is in flight
//!   tears that file, so restart must fall back to the last **fully
//!   drained** checkpoint ([`hpcbd_simnet::DrainSchedule`]), agreed
//!   job-wide by a MIN-allreduce. Confusing the snapshot counter with
//!   the drain watermark is the classic bug this distinction exists for
//!   — plantable here as [`RecoveryBug::RestartUndrained`] so the
//!   fault-campaign explorer can prove it would catch it.

use std::any::Any;
use std::sync::Arc;

use hpcbd_simnet::{DrainSchedule, FaultEvent, SimDuration, SimTime, StructuredAbort, Work};

use crate::datatype::ReduceOp;
use crate::rank::MpiRank;

pub use hpcbd_simnet::{CheckpointMode, FaultPolicy};

/// A known recovery bug the harness can plant to prove the
/// fault-campaign explorer catches it (see `hpcbd-check`). Planted bugs
/// only change *recovery* decisions; fault-free runs are unaffected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryBug {
    /// Async restart trusts the snapshot counter instead of the drain
    /// watermark: after a crash that interrupts a drain, the job
    /// resumes at an iteration whose state never made it to disk — the
    /// reload comes up empty and the skipped iterations silently
    /// corrupt the result.
    RestartUndrained,
}

/// Checkpointing driver for an iterative MPI application.
#[derive(Clone)]
pub struct Checkpointer {
    /// Take a checkpoint every this many iterations (0 = never).
    pub interval: u32,
    /// Bytes of application state each rank persists per checkpoint.
    pub state_bytes_per_rank: u64,
    mode: CheckpointMode,
    bug: Option<RecoveryBug>,
    last_saved_iter: Option<u32>,
    checkpoints_taken: u32,
    failures_handled: u64,
    /// Virtual time of the most recent crash handled by
    /// [`Checkpointer::poll_plan_failure`] — identical on every rank
    /// (it comes from the agreed plan replay), and the cutoff against
    /// which drain durability is judged.
    last_crash_time: Option<SimTime>,
    drains: DrainSchedule,
    /// Snapshotted application payloads by iteration (the simulated
    /// "checkpoint file contents"). Restorable only when the matching
    /// drain was durable at the crash cutoff; see
    /// [`Checkpointer::restore_payload`].
    payloads: Vec<(u32, Arc<dyn Any + Send + Sync>)>,
}

impl std::fmt::Debug for Checkpointer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Checkpointer")
            .field("interval", &self.interval)
            .field("state_bytes_per_rank", &self.state_bytes_per_rank)
            .field("mode", &self.mode)
            .field("bug", &self.bug)
            .field("last_saved_iter", &self.last_saved_iter)
            .field("checkpoints_taken", &self.checkpoints_taken)
            .field("failures_handled", &self.failures_handled)
            .field("last_crash_time", &self.last_crash_time)
            .field("drains", &self.drains)
            .field("payloads", &self.payloads.len())
            .finish()
    }
}

impl Checkpointer {
    /// New coordinated-mode driver (the historical default).
    pub fn new(interval: u32, state_bytes_per_rank: u64) -> Checkpointer {
        Checkpointer {
            interval,
            state_bytes_per_rank,
            mode: CheckpointMode::Coordinated,
            bug: None,
            last_saved_iter: None,
            checkpoints_taken: 0,
            failures_handled: 0,
            last_crash_time: None,
            drains: DrainSchedule::new(),
            payloads: Vec::new(),
        }
    }

    /// Select the checkpoint protocol (builder style).
    pub fn with_mode(mut self, mode: CheckpointMode) -> Checkpointer {
        self.mode = mode;
        self
    }

    /// The active protocol.
    pub fn mode(&self) -> CheckpointMode {
        self.mode
    }

    /// Plant a known recovery bug (harness self-tests only; see
    /// [`RecoveryBug`]).
    pub fn with_planted_bug(mut self, bug: RecoveryBug) -> Checkpointer {
        self.bug = Some(bug);
        self
    }

    /// SPMD failure detection against the installed
    /// [`hpcbd_simnet::FaultPlan`]: every rank counts the node crashes
    /// visible at its own clock, then a MAX-allreduce makes the job agree
    /// on the most-advanced view (ranks' clocks differ; without the
    /// consensus a fast rank would handle a failure its peers have not
    /// seen and the next collective would deadlock). Returns `true` when
    /// a newly-failed node was detected — under
    /// [`FaultPolicy::Restart`], follow with
    /// [`Checkpointer::restart_replayed`] (cost replay) or
    /// [`Checkpointer::restart_semantic`] (caller re-executes). Under
    /// [`FaultPolicy::Abort`] the call raises a [`StructuredAbort`],
    /// which is what `MPI_Abort` does to a job.
    ///
    /// Call once per iteration, right after the iteration's collective.
    /// No fault plan installed (or no crashes in it) costs nothing.
    pub fn poll_plan_failure(&mut self, rank: &mut MpiRank, policy: FaultPolicy) -> bool {
        let nodes: u32 = {
            let placement = rank.placement();
            (0..rank.size())
                .map(|r| placement.node_of_rank(r).0 + 1)
                .max()
                .unwrap_or(0)
        };
        let (visible, any_planned) = {
            let ctx = rank.ctx();
            match ctx.fault_plan() {
                Some(plan) if !plan.crashes().is_empty() => {
                    let now = ctx.now();
                    (plan.crashes_through(nodes, now).len() as u64, true)
                }
                _ => (0, false),
            }
        };
        if !any_planned {
            return false;
        }
        let agreed = rank.allreduce(ReduceOp::Max, &[visible])[0];
        if agreed <= self.failures_handled {
            return false;
        }
        let all = {
            let ctx = rank.ctx();
            let plan = ctx.fault_plan().expect("plan checked above").clone();
            plan.crashes_through(nodes, SimTime(u64::MAX))
        };
        let newly = &all[self.failures_handled as usize..agreed as usize];
        for (node, at) in newly {
            // Rank 0 back-dates the crash itself into the trace so the
            // recovery SLOs (time-to-detect) have the true fault time.
            if rank.rank() == 0 {
                rank.ctx()
                    .record_fault_at(*at, FaultEvent::NodeCrash { node: *node });
            }
            rank.ctx().record_fault(FaultEvent::Recovery {
                runtime: "mpi",
                action: "rank_failure_detected",
                detail: u64::from(node.0),
            });
        }
        self.failures_handled = agreed;
        // Every rank replays the same agreed prefix of the same plan, so
        // the cutoff is identical job-wide without further consensus.
        self.last_crash_time = newly.last().map(|&(_, t)| t);
        match policy {
            FaultPolicy::Abort => {
                let (node, at) = newly[0];
                StructuredAbort::raise(
                    "mpi",
                    format!(
                        "MPI_Abort: node n{} failed at {at}; \
                         plain MPI has no run-time fault tolerance",
                        node.0
                    ),
                );
            }
            FaultPolicy::Restart { .. } => true,
        }
    }

    /// Call after finishing iteration `iter` (0-based). Checkpoints when
    /// the interval divides `iter + 1`. Coordinated mode: global barrier
    /// (quiesce in-flight messages), synchronous state write, barrier.
    /// Async mode: barrier, double-buffer copy at memory bandwidth, then
    /// a background drain registered with its device completion time —
    /// compute resumes immediately. Returns whether a checkpoint (or
    /// snapshot) was taken.
    pub fn after_iteration(&mut self, rank: &mut MpiRank, iter: u32) -> bool {
        if self.interval == 0 || !(iter + 1).is_multiple_of(self.interval) {
            return false;
        }
        rank.barrier();
        match self.mode {
            CheckpointMode::Coordinated => {
                let issue = rank.now();
                rank.ctx().disk_write(self.state_bytes_per_rank);
                let done = rank.now();
                rank.ctx().metric_observe(
                    "ckpt.drain_lag_ns",
                    "mode=coordinated",
                    (done - issue).nanos(),
                );
                rank.barrier();
                self.drains.register(iter, issue, done);
            }
            CheckpointMode::Async => {
                // Copy state into the drain buffer: memory traffic only
                // (read + write of the state), no barrier afterwards.
                rank.ctx()
                    .compute(Work::new(0.0, 2.0 * self.state_bytes_per_rank as f64), 1.0);
                let issue = rank.now();
                let done = rank.ctx().disk_write_background(self.state_bytes_per_rank);
                rank.ctx().metric_observe(
                    "ckpt.drain_lag_ns",
                    "mode=async",
                    (done - issue).nanos(),
                );
                self.drains.register(iter, issue, done);
            }
        }
        self.last_saved_iter = Some(iter);
        self.checkpoints_taken += 1;
        true
    }

    /// [`Checkpointer::after_iteration`] plus payload capture: when the
    /// checkpoint fires, `state` is evaluated and stored as the simulated
    /// contents of this rank's checkpoint file, retrievable by
    /// [`Checkpointer::restore_payload`] after a crash — but only if the
    /// drain made it durable in time.
    pub fn after_iteration_with<P: Clone + Send + Sync + 'static>(
        &mut self,
        rank: &mut MpiRank,
        iter: u32,
        state: impl FnOnce() -> P,
    ) -> bool {
        if !self.after_iteration(rank, iter) {
            return false;
        }
        // A restart rewound the counter: entries at or past `iter` are
        // stale pre-crash snapshots, replaced by the retaken one.
        self.payloads.retain(|&(i, _)| i < iter);
        self.payloads.push((iter, Arc::new(state())));
        true
    }

    /// The iteration execution resumes from after a failure: one past the
    /// last restartable checkpoint (or 0 when none was taken). In async
    /// mode this is the *local* view; [`Checkpointer::restart`] replaces
    /// it with the job-wide agreement.
    pub fn restart_iteration(&self) -> u32 {
        self.restart_watermark().map_or(0, |i| i + 1)
    }

    /// The checkpoint this rank would restart from, by mode (and by
    /// planted bug): coordinated → last synchronous write; async → last
    /// drain durable at the crash cutoff; buggy async → last snapshot,
    /// drained or not.
    fn restart_watermark(&self) -> Option<u32> {
        match self.mode {
            CheckpointMode::Coordinated => self.last_saved_iter,
            CheckpointMode::Async => match self.bug {
                Some(RecoveryBug::RestartUndrained) => self.drains.latest_snapshot(),
                None => self.drains.drained_through(self.crash_cutoff()),
            },
        }
    }

    /// Durability cutoff: state of the disks at the instant the handled
    /// crash happened (everything later never made it).
    fn crash_cutoff(&self) -> SimTime {
        self.last_crash_time.unwrap_or(SimTime(u64::MAX))
    }

    /// Model a restart: a job-relaunch stall, agreement on the restart
    /// point (async mode: MIN-allreduce over per-rank drained
    /// watermarks — drain completion times differ across ranks),
    /// re-reading state from scratch, and a barrier. The job resumes
    /// from the returned iteration.
    pub fn restart(&mut self, rank: &mut MpiRank, relaunch_stall: SimDuration) -> u32 {
        rank.ctx().advance(relaunch_stall);
        let resume = match self.mode {
            CheckpointMode::Coordinated => self.restart_iteration(),
            CheckpointMode::Async => {
                let local = f64::from(self.restart_iteration());
                rank.allreduce(ReduceOp::Min, &[local])[0] as u32
            }
        };
        if resume > 0 {
            rank.ctx().disk_read(self.state_bytes_per_rank);
        }
        rank.barrier();
        self.last_saved_iter = resume.checked_sub(1);
        resume
    }

    /// [`Checkpointer::restart`] plus the [`FaultEvent::Recovery`]
    /// record, for callers that *semantically re-execute* the lost
    /// iterations themselves (the campaign workloads do: they need the
    /// recomputed state, not just the recomputed cost). `failed_iter` is
    /// the iteration the failure interrupted; the caller loops from the
    /// returned iteration.
    pub fn restart_semantic(
        &mut self,
        rank: &mut MpiRank,
        relaunch_stall: SimDuration,
        failed_iter: u32,
    ) -> u32 {
        let resume = self.restart(rank, relaunch_stall);
        rank.ctx().record_fault(FaultEvent::Recovery {
            runtime: "mpi",
            action: "checkpoint_restart",
            detail: u64::from(failed_iter.saturating_sub(resume)),
        });
        resume
    }

    /// Recover the payload stored for the checkpoint `resume` points one
    /// past (`None` for `resume == 0`: initial state). Models the read
    /// of the checkpoint file: in async mode a payload whose drain was
    /// still in flight at the crash is a torn file and yields `None`
    /// even though the snapshot existed in (lost) memory — exactly the
    /// read a [`RecoveryBug::RestartUndrained`] restart attempts.
    pub fn restore_payload<P: Clone + Send + Sync + 'static>(&self, resume: u32) -> Option<P> {
        let iter = resume.checked_sub(1)?;
        let durable = match self.mode {
            CheckpointMode::Coordinated => true,
            CheckpointMode::Async => self
                .drains
                .drain_of(iter)
                .is_some_and(|d| d.done <= self.crash_cutoff()),
        };
        if !durable {
            return None;
        }
        self.payloads
            .iter()
            .find(|&&(i, _)| i == iter)
            .and_then(|(_, p)| p.downcast_ref::<P>().cloned())
    }

    /// Like [`Checkpointer::restart`], but also charges the *replay* of the
    /// iterations lost since the last checkpoint: each re-executed
    /// iteration pays its compute plus the same collective traffic
    /// (an `allreduce` of `allreduce_elems` doubles and the checkpoint
    /// barriers) that the lost progress had already paid once. Earlier
    /// versions only charged the state reload, undercounting MPI's
    /// recovery cost versus Spark's lineage recomputation. Returns
    /// `failed_iter`: replay is charged internally, so the caller resumes
    /// *after* the failed iteration's lost work without looping back.
    pub fn restart_replayed(
        &mut self,
        rank: &mut MpiRank,
        relaunch_stall: SimDuration,
        failed_iter: u32,
        work_per_iter: Work,
        allreduce_elems: usize,
    ) -> u32 {
        let resume = self.restart(rank, relaunch_stall);
        rank.ctx().record_fault(FaultEvent::Recovery {
            runtime: "mpi",
            action: "checkpoint_restart",
            detail: u64::from(failed_iter.saturating_sub(resume)),
        });
        let zeros = vec![0.0f64; allreduce_elems];
        for iter in resume..failed_iter {
            rank.ctx().compute(work_per_iter, 1.0);
            if allreduce_elems > 0 {
                rank.allreduce(ReduceOp::Sum, &zeros);
            }
            self.after_iteration(rank, iter);
        }
        failed_iter
    }

    /// Partial restart, for algorithms whose structure allows it (e.g.
    /// data-parallel iterations whose collective re-serves surviving
    /// ranks' contributions): only ranks homed on crashed nodes reload
    /// state and replay lost compute; surviving ranks keep their state,
    /// join the replayed collectives (their halves of the traffic), and
    /// skip the recompute. No checkpoints are retaken during the replay
    /// window — survivors' scratch copies are still valid, and the next
    /// naturally-fired interval re-checkpoints everyone. Returns
    /// `failed_iter`, like [`Checkpointer::restart_replayed`].
    pub fn restart_partial_replayed(
        &mut self,
        rank: &mut MpiRank,
        relaunch_stall: SimDuration,
        failed_iter: u32,
        work_per_iter: Work,
        allreduce_elems: usize,
    ) -> u32 {
        let my_node = rank.placement().node_of_rank(rank.rank());
        let affected = {
            let ctx = rank.ctx();
            match ctx.fault_plan() {
                Some(plan) => plan
                    .crash_time(my_node)
                    .is_some_and(|t| t <= self.crash_cutoff()),
                None => false,
            }
        };
        rank.ctx().advance(relaunch_stall);
        let resume = match self.mode {
            CheckpointMode::Coordinated => self.restart_iteration(),
            CheckpointMode::Async => {
                let local = f64::from(self.restart_iteration());
                rank.allreduce(ReduceOp::Min, &[local])[0] as u32
            }
        };
        if affected {
            if resume > 0 {
                rank.ctx().disk_read(self.state_bytes_per_rank);
            }
            rank.ctx().record_fault(FaultEvent::Recovery {
                runtime: "mpi",
                action: "partial_restart",
                detail: u64::from(failed_iter.saturating_sub(resume)),
            });
        }
        rank.barrier();
        self.last_saved_iter = resume.checked_sub(1);
        let zeros = vec![0.0f64; allreduce_elems];
        for _iter in resume..failed_iter {
            if affected {
                rank.ctx().compute(work_per_iter, 1.0);
            }
            if allreduce_elems > 0 {
                rank.allreduce(ReduceOp::Sum, &zeros);
            }
        }
        failed_iter
    }

    /// Number of checkpoints taken so far.
    pub fn taken(&self) -> u32 {
        self.checkpoints_taken
    }

    /// This rank's drain ledger (async mode; coordinated drains complete
    /// synchronously). The campaign generator reads the windows off an
    /// oracle run to aim crashes inside them.
    pub fn drain_windows(&self) -> Vec<(SimTime, SimTime)> {
        self.drains.windows()
    }

    /// Virtual time of `rank` (convenience for instrumentation).
    pub fn now(rank: &MpiRank) -> SimTime {
        rank.now()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::launch::mpirun;
    use hpcbd_cluster::Placement;
    use hpcbd_simnet::SimDuration;

    #[test]
    fn checkpoints_fire_on_interval() {
        let out = mpirun(Placement::new(1, 2), |rank| {
            let mut ck = Checkpointer::new(3, 1 << 20);
            let mut fired = vec![];
            for iter in 0..10 {
                if ck.after_iteration(rank, iter) {
                    fired.push(iter);
                }
            }
            (fired, ck.taken(), ck.restart_iteration())
        });
        for (fired, taken, resume) in out.results {
            assert_eq!(fired, vec![2, 5, 8]);
            assert_eq!(taken, 3);
            assert_eq!(resume, 9);
        }
    }

    #[test]
    fn zero_interval_never_checkpoints() {
        let out = mpirun(Placement::new(1, 2), |rank| {
            let mut ck = Checkpointer::new(0, 1 << 20);
            for iter in 0..5 {
                assert!(!ck.after_iteration(rank, iter));
            }
            ck.restart_iteration()
        });
        assert_eq!(out.results, vec![0, 0]);
    }

    #[test]
    fn checkpointing_costs_time() {
        let with = mpirun(Placement::new(2, 1), |rank| {
            let mut ck = Checkpointer::new(1, 256 << 20);
            for iter in 0..4 {
                ck.after_iteration(rank, iter);
            }
        })
        .elapsed();
        let without = mpirun(Placement::new(2, 1), |rank| {
            let mut ck = Checkpointer::new(0, 256 << 20);
            for iter in 0..4 {
                ck.after_iteration(rank, iter);
            }
        })
        .elapsed();
        assert!(
            with > without,
            "checkpointing must cost time: with={with} without={without}"
        );
    }

    #[test]
    #[should_panic(expected = "MPI_Abort")]
    fn abort_policy_panics_on_planned_failure() {
        use hpcbd_simnet::{FaultPlan, NodeId, Work};
        let _ = crate::launch::mpirun_faulty(
            Placement::new(2, 2),
            FaultPlan::new(1).crash_node(NodeId(1), SimTime(1_000)),
            |rank| {
                let mut ck = Checkpointer::new(2, 1 << 20);
                for iter in 0..10 {
                    rank.ctx().compute(Work::new(1_000_000.0, 0.0), 1.0);
                    rank.allreduce(ReduceOp::Sum, &[f64::from(iter)]);
                    ck.after_iteration(rank, iter);
                    ck.poll_plan_failure(rank, FaultPolicy::Abort);
                }
            },
        );
    }

    #[test]
    fn abort_is_a_structured_abort() {
        use hpcbd_simnet::{FaultPlan, NodeId, StructuredAbort, Work};
        let caught = std::panic::catch_unwind(|| {
            let _ = crate::launch::mpirun_faulty(
                Placement::new(2, 2),
                FaultPlan::new(1).crash_node(NodeId(1), SimTime(1_000)),
                |rank| {
                    let mut ck = Checkpointer::new(2, 1 << 20);
                    for iter in 0..10 {
                        rank.ctx().compute(Work::new(1_000_000.0, 0.0), 1.0);
                        rank.allreduce(ReduceOp::Sum, &[f64::from(iter)]);
                        ck.after_iteration(rank, iter);
                        ck.poll_plan_failure(rank, FaultPolicy::Abort);
                    }
                },
            );
        })
        .expect_err("MPI_Abort must unwind");
        let sa = StructuredAbort::from_panic(caught.as_ref() as &(dyn std::any::Any + Send))
            .expect("MPI_Abort must surface as a structured abort");
        assert_eq!(sa.runtime, "mpi");
        assert!(sa.reason.contains("MPI_Abort"), "reason: {}", sa.reason);
    }

    #[test]
    fn poll_is_free_without_a_plan() {
        let out = mpirun(Placement::new(2, 1), |rank| {
            let mut ck = Checkpointer::new(2, 1 << 10);
            let mut detected = 0u32;
            for iter in 0..4 {
                ck.after_iteration(rank, iter);
                if ck.poll_plan_failure(rank, FaultPolicy::Abort) {
                    detected += 1;
                }
            }
            detected
        });
        assert_eq!(out.results, vec![0, 0]);
    }

    #[test]
    fn planned_failure_restart_resumes_and_completes() {
        use hpcbd_simnet::{FaultPlan, NodeId, Work};
        let out = crate::launch::mpirun_faulty(
            Placement::new(2, 2),
            FaultPlan::new(9).crash_node(NodeId(1), SimTime(1_000)),
            |rank| {
                let mut ck = Checkpointer::new(2, 1 << 20);
                let work = Work::new(2_000_000.0, 0.0);
                let stall = SimDuration::from_secs(1);
                let mut sum = 0.0;
                let mut restarts = 0u32;
                let mut iter = 0u32;
                while iter < 8 {
                    rank.ctx().compute(work, 1.0);
                    sum = rank.allreduce(ReduceOp::Sum, &[f64::from(iter)])[0];
                    ck.after_iteration(rank, iter);
                    if ck.poll_plan_failure(
                        rank,
                        FaultPolicy::Restart {
                            relaunch_stall: stall,
                        },
                    ) {
                        restarts += 1;
                        iter = ck.restart_replayed(rank, stall, iter, work, 1);
                        continue;
                    }
                    iter += 1;
                }
                (sum, restarts)
            },
        );
        for (sum, restarts) in out.results {
            assert_eq!(restarts, 1, "exactly one planned failure handled");
            assert_eq!(sum, 7.0 * 4.0, "final allreduce correct after recovery");
        }
    }

    #[test]
    fn restart_replayed_charges_collective_replay() {
        use hpcbd_simnet::Work;
        fn run(replay: bool) -> SimTime {
            mpirun(Placement::new(2, 2), move |rank| {
                let mut ck = Checkpointer::new(4, 1 << 20);
                let work = Work::new(5_000_000.0, 0.0);
                for iter in 0..11 {
                    rank.ctx().compute(work, 1.0);
                    rank.allreduce(ReduceOp::Sum, &[f64::from(iter)]);
                    ck.after_iteration(rank, iter);
                }
                // The job fails at iteration 11 — three iterations past
                // the checkpoint taken after iteration 7.
                if replay {
                    ck.restart_replayed(rank, SimDuration::from_secs(2), 11, work, 1)
                } else {
                    ck.restart(rank, SimDuration::from_secs(2))
                }
            })
            .elapsed()
        }
        let plain = run(false);
        let replayed = run(true);
        assert!(
            replayed > plain,
            "replaying lost iterations (compute + collectives + retaken \
             checkpoints) must cost more than reloading state alone: \
             {replayed} vs {plain}"
        );
    }

    #[test]
    fn restart_resumes_after_last_checkpoint() {
        let out = mpirun(Placement::new(1, 2), |rank| {
            let mut ck = Checkpointer::new(2, 1 << 10);
            for iter in 0..5 {
                ck.after_iteration(rank, iter);
            }
            // Fail at iteration 5; restart.
            ck.restart(rank, SimDuration::from_secs(2))
        });
        assert_eq!(out.results, vec![4, 4]);
    }

    #[test]
    fn failure_on_a_checkpoint_iteration_replays_nothing() {
        use hpcbd_simnet::Work;
        let out = mpirun(Placement::new(1, 2), |rank| {
            let mut ck = Checkpointer::new(2, 1 << 10);
            let work = Work::new(1_000_000.0, 0.0);
            for iter in 0..4 {
                rank.ctx().compute(work, 1.0);
                ck.after_iteration(rank, iter);
            }
            // The checkpoint fired after iteration 3; the failure hits
            // on iteration 3 itself. Replay range is 4..3 = empty.
            let ret = ck.restart_replayed(rank, SimDuration::from_secs(1), 3, work, 0);
            (ret, ck.restart_iteration())
        });
        for (ret, resume) in out.results {
            assert_eq!(ret, 3, "restart_replayed returns the failed iteration");
            assert_eq!(resume, 4, "resume point is one past the checkpoint");
        }
    }

    #[test]
    fn failure_before_the_first_checkpoint_replays_from_zero() {
        use hpcbd_simnet::Work;
        let out = mpirun(Placement::new(1, 2), |rank| {
            let mut ck = Checkpointer::new(5, 1 << 10);
            let work = Work::new(1_000_000.0, 0.0);
            for iter in 0..3 {
                rank.ctx().compute(work, 1.0);
                assert!(!ck.after_iteration(rank, iter));
            }
            // No checkpoint exists; the failure at iteration 2 rewinds
            // the whole job to iteration 0 and replays everything.
            let before = rank.now();
            let ret = ck.restart_replayed(rank, SimDuration::from_secs(1), 2, work, 0);
            (ret, ck.restart_iteration(), rank.now() > before)
        });
        for (ret, resume, advanced) in out.results {
            assert_eq!(ret, 2);
            assert_eq!(resume, 0, "no checkpoint: resume from scratch");
            assert!(advanced, "stall + replay must cost time");
        }
    }

    #[test]
    fn async_steady_state_is_cheaper_than_coordinated() {
        use hpcbd_simnet::Work;
        fn run(mode: CheckpointMode) -> SimTime {
            mpirun(Placement::new(2, 2), move |rank| {
                let mut ck = Checkpointer::new(2, 64 << 20).with_mode(mode);
                let work = Work::new(5.0e7, 0.0);
                for iter in 0..12 {
                    rank.ctx().compute(work, 1.0);
                    rank.allreduce(ReduceOp::Sum, &[f64::from(iter)]);
                    ck.after_iteration(rank, iter);
                }
                ck.taken()
            })
            .elapsed()
        }
        let coordinated = run(CheckpointMode::Coordinated);
        let asynchronous = run(CheckpointMode::Async);
        assert!(
            asynchronous < coordinated,
            "background drains must beat stop-the-world writes at equal \
             interval: async={asynchronous} coordinated={coordinated}"
        );
    }

    /// The canonical async semantic-recovery workload: iterative state
    /// evolution with payload capture and full re-execution from the
    /// restored checkpoint. Used by the three async restart tests.
    fn async_sum_job(
        plan: Option<hpcbd_simnet::FaultPlan>,
        bug: Option<RecoveryBug>,
        iters: u32,
    ) -> Vec<f64> {
        use hpcbd_simnet::Work;
        let body = move |rank: &mut MpiRank| {
            let mut ck = Checkpointer::new(2, 64 << 20).with_mode(CheckpointMode::Async);
            if let Some(b) = bug {
                ck = ck.with_planted_bug(b);
            }
            let work = Work::new(5.0e7, 0.0);
            let stall = SimDuration::from_secs(1);
            let mut state = 0.0f64;
            let mut iter = 0u32;
            while iter < iters {
                rank.ctx().compute(work, 1.0);
                let v = rank.allreduce(ReduceOp::Sum, &[f64::from(iter) + 1.0])[0];
                state += v * f64::from(iter + 1);
                ck.after_iteration_with(rank, iter, || state);
                if ck.poll_plan_failure(
                    rank,
                    FaultPolicy::Restart {
                        relaunch_stall: stall,
                    },
                ) {
                    let resume = ck.restart_semantic(rank, stall, iter);
                    state = ck.restore_payload::<f64>(resume).unwrap_or(0.0);
                    iter = resume;
                    continue;
                }
                iter += 1;
            }
            state
        };
        match plan {
            Some(p) => crate::launch::mpirun_faulty(Placement::new(2, 2), p, body).results,
            None => mpirun(Placement::new(2, 2), body).results,
        }
    }

    /// Drain windows of the oracle (fault-free) run of `async_sum_job`.
    fn oracle_drain_windows(iters: u32) -> Vec<(SimTime, SimTime)> {
        use hpcbd_simnet::Work;
        let out = mpirun(Placement::new(2, 2), move |rank| {
            let mut ck = Checkpointer::new(2, 64 << 20).with_mode(CheckpointMode::Async);
            let work = Work::new(5.0e7, 0.0);
            let mut state = 0.0f64;
            for iter in 0..iters {
                rank.ctx().compute(work, 1.0);
                let v = rank.allreduce(ReduceOp::Sum, &[f64::from(iter) + 1.0])[0];
                state += v * f64::from(iter + 1);
                ck.after_iteration_with(rank, iter, || state);
            }
            ck.drain_windows()
        });
        out.results.into_iter().flatten().collect()
    }

    /// A crash time inside a mid-run drain window of the oracle: late
    /// enough that checkpoints exist, early enough that later
    /// iterations still poll and detect it.
    fn mid_drain_crash_time(iters: u32) -> SimTime {
        let windows = oracle_drain_windows(iters);
        assert!(windows.len() >= 4, "async job must drain repeatedly");
        let (issue, done) = windows[windows.len() / 2];
        SimTime(issue.nanos() + (done.nanos() - issue.nanos()) / 2)
    }

    #[test]
    fn async_restart_from_drained_checkpoint_preserves_the_result() {
        use hpcbd_simnet::{FaultPlan, NodeId};
        let oracle = async_sum_job(None, None, 10);
        // Aim the crash inside a drain window so the snapshot being
        // drained is torn and restart must fall back one checkpoint.
        let plan = FaultPlan::new(3).crash_node(NodeId(1), mid_drain_crash_time(10));
        let recovered = async_sum_job(Some(plan), None, 10);
        assert_eq!(
            recovered, oracle,
            "correct async recovery must be digest-equal to the fault-free run"
        );
    }

    #[test]
    fn planted_undrained_restart_bug_corrupts_the_result() {
        use hpcbd_simnet::{FaultPlan, NodeId};
        let oracle = async_sum_job(None, None, 10);
        let plan = FaultPlan::new(3).crash_node(NodeId(1), mid_drain_crash_time(10));
        let corrupted = async_sum_job(Some(plan), Some(RecoveryBug::RestartUndrained), 10);
        assert_ne!(
            corrupted, oracle,
            "trusting the snapshot counter over the drain watermark must \
             silently corrupt the result — this is the bug the campaign \
             explorer exists to catch"
        );
    }

    #[test]
    fn async_restart_before_any_drain_resumes_from_zero() {
        use hpcbd_simnet::{FaultPlan, NodeId};
        let oracle = async_sum_job(None, None, 6);
        // Crash before the first checkpoint interval completes.
        let plan = FaultPlan::new(3).crash_node(NodeId(1), SimTime(1_000));
        let recovered = async_sum_job(Some(plan), None, 6);
        assert_eq!(recovered, oracle, "full re-execution from iteration 0");
    }

    #[test]
    fn partial_restart_replays_less_aggregate_work() {
        use hpcbd_simnet::{FaultPlan, NodeId, Work};
        // Aggregate compute time across ranks: the crashed node's ranks
        // set the makespan either way (their replay is the critical
        // path), but partial restart spares the survivors' recompute —
        // the resource-usage win the MPI/GPI-2 study reports.
        // Probe the fault-free run's iteration boundaries so the crash
        // deterministically lands between polls 3 and 4 — one iteration
        // past the interval-3 checkpoint, leaving a non-empty replay.
        fn iteration_ends() -> Vec<SimTime> {
            let out = mpirun(Placement::new(4, 2), |rank| {
                let mut ck = Checkpointer::new(3, 32 << 20);
                let work = Work::new(2.0e8, 0.0);
                let mut ends = Vec::new();
                for iter in 0..9 {
                    rank.ctx().compute(work, 1.0);
                    rank.allreduce(ReduceOp::Sum, &[f64::from(iter)]);
                    ck.after_iteration(rank, iter);
                    ends.push(rank.now());
                }
                ends
            });
            out.results.into_iter().next().unwrap()
        }
        fn run(partial: bool) -> (SimDuration, u32) {
            let ends = iteration_ends();
            let crash = SimTime((ends[3].nanos() + ends[4].nanos()) / 2);
            let plan = FaultPlan::new(5).crash_node(NodeId(1), crash);
            let out = crate::launch::mpirun_faulty(Placement::new(4, 2), plan, move |rank| {
                let mut ck = Checkpointer::new(3, 32 << 20);
                let work = Work::new(2.0e8, 0.0);
                let stall = SimDuration::from_secs(1);
                let mut replayed = 0u32;
                let mut iter = 0u32;
                while iter < 9 {
                    rank.ctx().compute(work, 1.0);
                    rank.allreduce(ReduceOp::Sum, &[f64::from(iter)]);
                    ck.after_iteration(rank, iter);
                    if ck.poll_plan_failure(
                        rank,
                        FaultPolicy::Restart {
                            relaunch_stall: stall,
                        },
                    ) {
                        let resume = ck.restart_iteration();
                        replayed = iter - resume;
                        iter = if partial {
                            ck.restart_partial_replayed(rank, stall, iter, work, 1)
                        } else {
                            ck.restart_replayed(rank, stall, iter, work, 1)
                        };
                        continue;
                    }
                    iter += 1;
                }
                replayed
            });
            let total: SimDuration = out
                .report
                .procs
                .iter()
                .map(|p| p.stats.compute_time)
                .fold(SimDuration::ZERO, |a, b| a + b);
            (total, out.results[0])
        }
        let (full, replayed_full) = run(false);
        let (partial, replayed_partial) = run(true);
        assert_eq!(replayed_full, replayed_partial);
        assert!(
            replayed_full > 0,
            "the scenario must actually lose iterations"
        );
        assert!(
            partial < full,
            "replaying only crashed-node ranks must spend less aggregate \
             compute than whole-job replay: partial={partial} full={full}"
        );
    }
}
