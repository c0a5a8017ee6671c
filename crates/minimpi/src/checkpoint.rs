//! Checkpoint/restart for MPI jobs.
//!
//! The driver is [`hpcbd_simnet::Checkpointer`], shared with `minshmem`;
//! this module makes an [`MpiRank`] a [`TeamMember`] (barrier and
//! `allreduce` agreement, `mpi` trace vocabulary, `MPI_Abort`) and adds
//! the one recovery flavor only MPI uses: [`restart_replayed`], which
//! charges the replay of lost iterations instead of re-executing them.

use hpcbd_simnet::{Checkpointer, ProcCtx, SimDuration, TeamMember, Work};

use crate::datatype::ReduceOp;
use crate::rank::MpiRank;

impl TeamMember for MpiRank<'_> {
    const RUNTIME: &'static str = "mpi";
    const FAILURE_DETECTED: &'static str = "rank_failure_detected";
    const ABORT_CALL: &'static str = "MPI_Abort";
    const PARADIGM: &'static str = "plain MPI";

    fn index(&self) -> u32 {
        self.rank
    }

    fn nodes(&self) -> u32 {
        self.placement.nodes
    }

    fn proc_ctx(&mut self) -> &mut ProcCtx {
        self.ctx
    }

    fn barrier(&mut self) {
        MpiRank::barrier(self);
    }

    fn agree_max(&mut self, value: u64) -> u64 {
        self.allreduce(ReduceOp::Max, &[value])[0]
    }

    fn agree_min(&mut self, value: u64) -> u64 {
        self.allreduce(ReduceOp::Min, &[value])[0]
    }
}

/// [`Checkpointer::restart_semantic`], then the *replay* of the
/// iterations lost since the last checkpoint, charged rather than
/// re-executed: each replayed iteration pays its compute plus the same
/// collective traffic (an `allreduce` of `allreduce_elems` doubles and
/// the checkpoint barriers) that the lost progress had already paid
/// once. Returns `failed_iter`, so the caller resumes *after* the failed
/// iteration's lost work without looping back.
pub fn restart_replayed(
    ck: &mut Checkpointer,
    rank: &mut MpiRank,
    relaunch_stall: SimDuration,
    failed_iter: u32,
    work_per_iter: Work,
    allreduce_elems: usize,
) -> u32 {
    let resume = ck.restart_semantic(rank, relaunch_stall, failed_iter);
    let zeros = vec![0.0f64; allreduce_elems];
    for iter in resume..failed_iter {
        rank.ctx().compute(work_per_iter, 1.0);
        if allreduce_elems > 0 {
            rank.allreduce(ReduceOp::Sum, &zeros);
        }
        ck.after_iteration(rank, iter);
    }
    failed_iter
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::launch::mpirun;
    use hpcbd_cluster::Placement;
    use hpcbd_simnet::{CheckpointMode, FaultPolicy, RecoveryBug, SimTime};

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
        use hpcbd_simnet::{FaultPlan, NodeId};
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
        use hpcbd_simnet::{FaultPlan, NodeId, StructuredAbort};
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
        use hpcbd_simnet::{FaultPlan, NodeId};
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
                        iter = restart_replayed(&mut ck, rank, stall, iter, work, 1);
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
                    restart_replayed(&mut ck, rank, SimDuration::from_secs(2), 11, work, 1)
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
        let out = mpirun(Placement::new(1, 2), |rank| {
            let mut ck = Checkpointer::new(2, 1 << 10);
            let work = Work::new(1_000_000.0, 0.0);
            for iter in 0..4 {
                rank.ctx().compute(work, 1.0);
                ck.after_iteration(rank, iter);
            }
            // The checkpoint fired after iteration 3; the failure hits
            // on iteration 3 itself. Replay range is 4..3 = empty.
            let ret = restart_replayed(&mut ck, rank, SimDuration::from_secs(1), 3, work, 0);
            (ret, ck.restart_iteration())
        });
        for (ret, resume) in out.results {
            assert_eq!(ret, 3, "restart_replayed returns the failed iteration");
            assert_eq!(resume, 4, "resume point is one past the checkpoint");
        }
    }

    #[test]
    fn failure_before_the_first_checkpoint_replays_from_zero() {
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
            let ret = restart_replayed(&mut ck, rank, SimDuration::from_secs(1), 2, work, 0);
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

    /// Coordinated job (2x2 ranks, interval 2) that records every
    /// resume point and when its first checkpoint write began.
    fn coordinated_job(plan: Option<hpcbd_simnet::FaultPlan>) -> Vec<(Vec<u32>, Option<SimTime>)> {
        let body = |rank: &mut MpiRank| {
            let mut ck = Checkpointer::new(2, 64 << 20);
            let stall = SimDuration::from_secs(1);
            let mut resumes = Vec::new();
            let mut iter = 0u32;
            while iter < 4 {
                rank.ctx().compute(Work::new(5.0e7, 0.0), 1.0);
                rank.allreduce(ReduceOp::Sum, &[f64::from(iter)]);
                ck.after_iteration(rank, iter);
                if ck.poll_plan_failure(
                    rank,
                    FaultPolicy::Restart {
                        relaunch_stall: stall,
                    },
                ) {
                    iter = ck.restart(rank, stall);
                    resumes.push(iter);
                    continue;
                }
                iter += 1;
            }
            let first_write = ck.drain_windows().first().map(|&(issue, _)| issue);
            (resumes, first_write)
        };
        match plan {
            Some(p) => crate::launch::mpirun_faulty(Placement::new(2, 2), p, body).results,
            None => mpirun(Placement::new(2, 2), body).results,
        }
    }

    #[test]
    fn coordinated_restart_skips_a_write_finished_after_the_crash() {
        use hpcbd_simnet::{FaultPlan, NodeId};
        let first_write = coordinated_job(None)
            .into_iter()
            .filter_map(|(_, first_write)| first_write)
            .min()
            .expect("the oracle checkpoints");
        // The node dies 1 ns before the first coordinated write begins;
        // that write completes on the survivors' clocks, but it was
        // never durable job-wide, so the job must start over.
        let plan = FaultPlan::new(3).crash_node(NodeId(1), SimTime(first_write.nanos() - 1));
        for (resumes, _) in coordinated_job(Some(plan)) {
            assert_eq!(resumes, vec![0]);
        }
    }
}
