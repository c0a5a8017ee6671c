//! Checkpoint/restart for PE teams — the PGAS fault-tolerance story.
//!
//! OpenSHMEM, like MPI, has no run-time fault tolerance (Sec. VI-D):
//! a node failure kills the job (`shmem_global_exit`) unless the
//! application checkpoints. The driver is
//! [`hpcbd_simnet::Checkpointer`], shared with `minimpi`; this module
//! makes a [`PeCtx`] a [`TeamMember`].
//!
//! SHMEM has no min-reduce collective, so team agreement (failure
//! counts up, restart watermarks down) goes through `shmem_collect`
//! (allgather) with the fold applied locally — the PGAS-native way to
//! reach consensus without two-sided matching.

use hpcbd_simnet::{ProcCtx, TeamMember};

use crate::pe::PeCtx;

/// Team-wide agreement on a per-PE `u64`: allgather via
/// `shmem_collect`, fold locally. Collective — every PE must call.
fn allgather_u64(pe: &mut PeCtx, value: u64) -> Vec<u64> {
    let npes = pe.npes() as usize;
    let src = pe.malloc::<u64>("ck_agree_src", 1, 0);
    let dst = pe.malloc::<u64>("ck_agree_dst", npes, 0);
    pe.local_write(&src, 0, &[value]);
    pe.collect(&src, &dst);
    let all = pe.local_clone(&dst);
    pe.free(dst);
    pe.free(src);
    all
}

impl TeamMember for PeCtx<'_> {
    const RUNTIME: &'static str = "shmem";
    const FAILURE_DETECTED: &'static str = "pe_failure_detected";
    const ABORT_CALL: &'static str = "shmem_global_exit";
    const PARADIGM: &'static str = "OpenSHMEM";

    fn index(&self) -> u32 {
        self.pe
    }

    fn nodes(&self) -> u32 {
        self.placement.nodes
    }

    fn proc_ctx(&mut self) -> &mut ProcCtx {
        self.ctx
    }

    fn barrier(&mut self) {
        self.barrier_all();
    }

    fn agree_max(&mut self, value: u64) -> u64 {
        allgather_u64(self, value)
            .into_iter()
            .max()
            .expect("npes >= 1")
    }

    fn agree_min(&mut self, value: u64) -> u64 {
        allgather_u64(self, value)
            .into_iter()
            .min()
            .expect("npes >= 1")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::launch::{shmem_run, shmem_run_faulty};
    use hpcbd_cluster::Placement;
    use hpcbd_simnet::{
        CheckpointMode, Checkpointer, FaultPlan, FaultPolicy, NodeId, SimDuration, SimTime,
        StructuredAbort, Work,
    };
    use std::any::Any;

    #[test]
    fn checkpoints_fire_on_interval() {
        let out = shmem_run(Placement::new(1, 2), |pe| {
            let mut ck = Checkpointer::new(3, 1 << 20);
            let mut fired = vec![];
            for iter in 0..10 {
                if ck.after_iteration(pe, iter) {
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
    fn async_steady_state_is_cheaper_than_coordinated() {
        fn run(mode: CheckpointMode) -> hpcbd_simnet::SimTime {
            shmem_run(Placement::new(2, 2), move |pe| {
                let mut ck = Checkpointer::new(2, 64 << 20).with_mode(mode);
                let acc = pe.malloc::<f64>("acc", 1, 0.0);
                let work = Work::new(5.0e7, 0.0);
                for iter in 0..12 {
                    pe.ctx().compute(work, 1.0);
                    pe.local_write(&acc, 0, &[f64::from(iter)]);
                    pe.sum_to_all(&acc);
                    ck.after_iteration(pe, iter);
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

    #[test]
    fn abort_policy_is_a_structured_abort() {
        let caught = std::panic::catch_unwind(|| {
            let _ = shmem_run_faulty(
                Placement::new(2, 2),
                FaultPlan::new(1).crash_node(NodeId(1), SimTime(1_000)),
                |pe| {
                    let mut ck = Checkpointer::new(2, 1 << 20);
                    let acc = pe.malloc::<f64>("acc", 1, 0.0);
                    for iter in 0..10 {
                        pe.ctx().compute(Work::new(1_000_000.0, 0.0), 1.0);
                        pe.local_write(&acc, 0, &[f64::from(iter)]);
                        pe.sum_to_all(&acc);
                        ck.after_iteration(pe, iter);
                        ck.poll_plan_failure(pe, FaultPolicy::Abort);
                    }
                },
            );
        })
        .expect_err("shmem_global_exit must unwind");
        let sa = StructuredAbort::from_panic(caught.as_ref() as &(dyn Any + Send))
            .expect("global exit must surface as a structured abort");
        assert_eq!(sa.runtime, "shmem");
        assert!(
            sa.reason.contains("shmem_global_exit"),
            "reason: {}",
            sa.reason
        );
    }

    #[test]
    fn poll_is_free_without_a_plan() {
        let out = shmem_run(Placement::new(2, 1), |pe| {
            let mut ck = Checkpointer::new(2, 1 << 10);
            let mut detected = 0u32;
            for iter in 0..4 {
                ck.after_iteration(pe, iter);
                if ck.poll_plan_failure(pe, FaultPolicy::Abort) {
                    detected += 1;
                }
            }
            detected
        });
        assert_eq!(out.results, vec![0, 0]);
    }

    /// The canonical semantic-recovery workload: iterative state
    /// evolution over `sum_to_all` with payload capture and full
    /// re-execution from the restored checkpoint.
    fn shmem_sum_job(plan: Option<FaultPlan>, iters: u32) -> Vec<f64> {
        let body = move |pe: &mut PeCtx| {
            let mut ck = Checkpointer::new(2, 64 << 20).with_mode(CheckpointMode::Async);
            let acc = pe.malloc::<f64>("acc", 1, 0.0);
            let work = Work::new(5.0e7, 0.0);
            let stall = SimDuration::from_secs(1);
            let mut state = 0.0f64;
            let mut iter = 0u32;
            while iter < iters {
                pe.ctx().compute(work, 1.0);
                pe.local_write(&acc, 0, &[f64::from(iter) + 1.0]);
                pe.sum_to_all(&acc);
                let v = pe.local_clone(&acc)[0];
                state += v * f64::from(iter + 1);
                ck.after_iteration_with(pe, iter, || state);
                if ck.poll_plan_failure(
                    pe,
                    FaultPolicy::Restart {
                        relaunch_stall: stall,
                    },
                ) {
                    let resume = ck.restart_semantic(pe, stall, iter);
                    state = ck.restore_payload::<f64>(resume).unwrap_or(0.0);
                    iter = resume;
                    continue;
                }
                iter += 1;
            }
            state
        };
        match plan {
            Some(p) => shmem_run_faulty(Placement::new(2, 2), p, body).results,
            None => shmem_run(Placement::new(2, 2), body).results,
        }
    }

    /// Drain windows of the oracle (fault-free) run of `shmem_sum_job`.
    fn oracle_drain_windows(iters: u32) -> Vec<(SimTime, SimTime)> {
        let out = shmem_run(Placement::new(2, 2), move |pe| {
            let mut ck = Checkpointer::new(2, 64 << 20).with_mode(CheckpointMode::Async);
            let acc = pe.malloc::<f64>("acc", 1, 0.0);
            let work = Work::new(5.0e7, 0.0);
            let mut state = 0.0f64;
            for iter in 0..iters {
                pe.ctx().compute(work, 1.0);
                pe.local_write(&acc, 0, &[f64::from(iter) + 1.0]);
                pe.sum_to_all(&acc);
                state += pe.local_clone(&acc)[0] * f64::from(iter + 1);
                ck.after_iteration_with(pe, iter, || state);
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
        let oracle = shmem_sum_job(None, 10);
        // Aim the crash inside a drain window so the snapshot being
        // drained is torn and restart must fall back one checkpoint.
        let plan = FaultPlan::new(3).crash_node(NodeId(1), mid_drain_crash_time(10));
        let recovered = shmem_sum_job(Some(plan), 10);
        assert_eq!(
            recovered, oracle,
            "correct async recovery must be digest-equal to the fault-free run"
        );
    }

    #[test]
    fn async_restart_before_any_drain_resumes_from_zero() {
        let oracle = shmem_sum_job(None, 6);
        // Crash before the first checkpoint interval completes.
        let plan = FaultPlan::new(3).crash_node(NodeId(1), SimTime(1_000));
        let recovered = shmem_sum_job(Some(plan), 6);
        assert_eq!(recovered, oracle, "full re-execution from iteration 0");
    }

    /// Coordinated team (2x2 PEs, interval 2) that records every resume
    /// point and when its first checkpoint write began.
    fn coordinated_job(plan: Option<FaultPlan>) -> Vec<(Vec<u32>, Option<SimTime>)> {
        let body = |pe: &mut PeCtx| {
            let mut ck = Checkpointer::new(2, 64 << 20);
            let acc = pe.malloc::<f64>("acc", 1, 0.0);
            let stall = SimDuration::from_secs(1);
            let mut resumes = Vec::new();
            let mut iter = 0u32;
            while iter < 4 {
                pe.ctx().compute(Work::new(5.0e7, 0.0), 1.0);
                pe.local_write(&acc, 0, &[f64::from(iter)]);
                pe.sum_to_all(&acc);
                ck.after_iteration(pe, iter);
                if ck.poll_plan_failure(
                    pe,
                    FaultPolicy::Restart {
                        relaunch_stall: stall,
                    },
                ) {
                    iter = ck.restart(pe, stall);
                    resumes.push(iter);
                    continue;
                }
                iter += 1;
            }
            let first_write = ck.drain_windows().first().map(|&(issue, _)| issue);
            (resumes, first_write)
        };
        match plan {
            Some(p) => shmem_run_faulty(Placement::new(2, 2), p, body).results,
            None => shmem_run(Placement::new(2, 2), body).results,
        }
    }

    #[test]
    fn coordinated_restart_skips_a_write_finished_after_the_crash() {
        let first_write = coordinated_job(None)
            .into_iter()
            .filter_map(|(_, first_write)| first_write)
            .min()
            .expect("the oracle checkpoints");
        // The node dies 1 ns before the first coordinated write begins:
        // no checkpoint was durable job-wide, so the team starts over.
        let plan = FaultPlan::new(3).crash_node(NodeId(1), SimTime(first_write.nanos() - 1));
        for (resumes, _) in coordinated_job(Some(plan)) {
            assert_eq!(resumes, vec![0]);
        }
    }
}
