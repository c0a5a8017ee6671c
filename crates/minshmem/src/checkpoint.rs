//! Checkpoint/restart for PE teams — the PGAS fault-tolerance story.
//!
//! OpenSHMEM, like MPI, has no run-time fault tolerance (Sec. VI-D):
//! a node failure kills the job (`shmem_global_exit`) unless the
//! application checkpoints. [`ShmemCheckpointer`] mirrors
//! `hpcbd_minimpi::Checkpointer` over the one-sided surface, sharing
//! the protocol axis ([`CheckpointMode`]) and the drain ledger
//! ([`hpcbd_simnet::DrainSchedule`]) so the fault-campaign explorer
//! can sweep both runtimes identically:
//!
//! * [`CheckpointMode::Coordinated`] — barrier, synchronous state
//!   write, barrier, every interval.
//! * [`CheckpointMode::Async`] — double-buffer snapshot at the
//!   barrier, background drain overlapped with compute
//!   ([`hpcbd_simnet::ProcCtx::disk_write_background`]); restart falls
//!   back to the last **fully drained** checkpoint, agreed team-wide.
//!
//! SHMEM has no min-reduce collective, so team agreement (failure
//! counts up, restart watermarks down) goes through `shmem_collect`
//! (allgather) with the fold applied locally — the PGAS-native way to
//! reach consensus without two-sided matching.

use std::any::Any;
use std::sync::Arc;

use hpcbd_simnet::{
    CheckpointMode, DrainSchedule, FaultEvent, FaultPolicy, SimDuration, SimTime, StructuredAbort,
    Work,
};

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

/// Checkpointing driver for an iterative SHMEM application.
#[derive(Clone)]
pub struct ShmemCheckpointer {
    /// Take a checkpoint every this many iterations (0 = never).
    pub interval: u32,
    /// Bytes of application state each PE persists per checkpoint.
    pub state_bytes_per_pe: u64,
    mode: CheckpointMode,
    last_saved_iter: Option<u32>,
    checkpoints_taken: u32,
    failures_handled: u64,
    /// Virtual time of the most recent crash handled by
    /// [`ShmemCheckpointer::poll_plan_failure`] — identical on every PE
    /// (it comes from the agreed plan replay), and the cutoff against
    /// which drain durability is judged.
    last_crash_time: Option<SimTime>,
    drains: DrainSchedule,
    /// Snapshotted payloads by iteration (the simulated checkpoint file
    /// contents); restorable only when the matching drain was durable
    /// at the crash cutoff.
    payloads: Vec<(u32, Arc<dyn Any + Send + Sync>)>,
}

impl std::fmt::Debug for ShmemCheckpointer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShmemCheckpointer")
            .field("interval", &self.interval)
            .field("state_bytes_per_pe", &self.state_bytes_per_pe)
            .field("mode", &self.mode)
            .field("last_saved_iter", &self.last_saved_iter)
            .field("checkpoints_taken", &self.checkpoints_taken)
            .field("failures_handled", &self.failures_handled)
            .field("last_crash_time", &self.last_crash_time)
            .field("drains", &self.drains)
            .field("payloads", &self.payloads.len())
            .finish()
    }
}

impl ShmemCheckpointer {
    /// New coordinated-mode driver.
    pub fn new(interval: u32, state_bytes_per_pe: u64) -> ShmemCheckpointer {
        ShmemCheckpointer {
            interval,
            state_bytes_per_pe,
            mode: CheckpointMode::Coordinated,
            last_saved_iter: None,
            checkpoints_taken: 0,
            failures_handled: 0,
            last_crash_time: None,
            drains: DrainSchedule::new(),
            payloads: Vec::new(),
        }
    }

    /// Select the checkpoint protocol (builder style).
    pub fn with_mode(mut self, mode: CheckpointMode) -> ShmemCheckpointer {
        self.mode = mode;
        self
    }

    /// The active protocol.
    pub fn mode(&self) -> CheckpointMode {
        self.mode
    }

    /// SPMD failure detection against the installed
    /// [`hpcbd_simnet::FaultPlan`]: every PE counts the node crashes
    /// visible at its own clock, then the team agrees on the
    /// most-advanced view (max over an allgather — PE clocks differ;
    /// without consensus a fast PE would handle a failure its peers
    /// have not seen and the next collective would deadlock). Under
    /// [`FaultPolicy::Abort`] the call raises a [`StructuredAbort`]
    /// (`shmem_global_exit`); under [`FaultPolicy::Restart`] it returns
    /// `true` and the caller follows with
    /// [`ShmemCheckpointer::restart_semantic`].
    ///
    /// Call once per iteration, right after the iteration's collective.
    /// No fault plan installed (or no crashes in it) costs nothing.
    pub fn poll_plan_failure(&mut self, pe: &mut PeCtx, policy: FaultPolicy) -> bool {
        let nodes: u32 = {
            let placement = pe.placement();
            (0..pe.npes())
                .map(|p| placement.node_of_rank(p).0 + 1)
                .max()
                .unwrap_or(0)
        };
        let (visible, any_planned) = {
            let ctx = pe.ctx();
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
        let agreed = *allgather_u64(pe, visible).iter().max().expect("npes >= 1");
        if agreed <= self.failures_handled {
            return false;
        }
        let all = {
            let ctx = pe.ctx();
            let plan = ctx.fault_plan().expect("plan checked above").clone();
            plan.crashes_through(nodes, SimTime(u64::MAX))
        };
        let newly = &all[self.failures_handled as usize..agreed as usize];
        for (node, at) in newly {
            // PE 0 back-dates the crash itself into the trace so the
            // recovery SLOs (time-to-detect) have the true fault time.
            if pe.pe() == 0 {
                pe.ctx()
                    .record_fault_at(*at, FaultEvent::NodeCrash { node: *node });
            }
            pe.ctx().record_fault(FaultEvent::Recovery {
                runtime: "shmem",
                action: "pe_failure_detected",
                detail: u64::from(node.0),
            });
        }
        self.failures_handled = agreed;
        // Every PE replays the same agreed prefix of the same plan, so
        // the cutoff is identical team-wide without further consensus.
        self.last_crash_time = newly.last().map(|&(_, t)| t);
        match policy {
            FaultPolicy::Abort => {
                let (node, at) = newly[0];
                StructuredAbort::raise(
                    "shmem",
                    format!(
                        "shmem_global_exit: node n{} failed at {at}; \
                         OpenSHMEM has no run-time fault tolerance",
                        node.0
                    ),
                );
            }
            FaultPolicy::Restart { .. } => true,
        }
    }

    /// Call after finishing iteration `iter` (0-based). Checkpoints when
    /// the interval divides `iter + 1`; see [`CheckpointMode`] for the
    /// protocol cost each mode pays. Returns whether a checkpoint (or
    /// snapshot) was taken.
    pub fn after_iteration(&mut self, pe: &mut PeCtx, iter: u32) -> bool {
        if self.interval == 0 || !(iter + 1).is_multiple_of(self.interval) {
            return false;
        }
        pe.barrier_all();
        match self.mode {
            CheckpointMode::Coordinated => {
                let issue = pe.now();
                pe.ctx().disk_write(self.state_bytes_per_pe);
                let done = pe.now();
                pe.ctx().metric_observe(
                    "ckpt.drain_lag_ns",
                    "mode=coordinated",
                    (done - issue).nanos(),
                );
                pe.barrier_all();
                self.drains.register(iter, issue, done);
            }
            CheckpointMode::Async => {
                // Copy state into the drain buffer: memory traffic only
                // (read + write of the state), no barrier afterwards.
                pe.ctx()
                    .compute(Work::new(0.0, 2.0 * self.state_bytes_per_pe as f64), 1.0);
                let issue = pe.now();
                let done = pe.ctx().disk_write_background(self.state_bytes_per_pe);
                pe.ctx()
                    .metric_observe("ckpt.drain_lag_ns", "mode=async", (done - issue).nanos());
                self.drains.register(iter, issue, done);
            }
        }
        self.last_saved_iter = Some(iter);
        self.checkpoints_taken += 1;
        true
    }

    /// [`ShmemCheckpointer::after_iteration`] plus payload capture: when
    /// the checkpoint fires, `state` is evaluated and stored as the
    /// simulated contents of this PE's checkpoint file, retrievable by
    /// [`ShmemCheckpointer::restore_payload`] after a crash — but only
    /// if the drain made it durable in time.
    pub fn after_iteration_with<P: Clone + Send + Sync + 'static>(
        &mut self,
        pe: &mut PeCtx,
        iter: u32,
        state: impl FnOnce() -> P,
    ) -> bool {
        if !self.after_iteration(pe, iter) {
            return false;
        }
        // A restart rewound the counter: entries at or past `iter` are
        // stale pre-crash snapshots, replaced by the retaken one.
        self.payloads.retain(|&(i, _)| i < iter);
        self.payloads.push((iter, Arc::new(state())));
        true
    }

    /// The iteration execution resumes from after a failure: one past
    /// the last restartable checkpoint (or 0 when none was taken). In
    /// async mode this is the *local* view;
    /// [`ShmemCheckpointer::restart`] replaces it with the team-wide
    /// agreement.
    pub fn restart_iteration(&self) -> u32 {
        let watermark = match self.mode {
            CheckpointMode::Coordinated => self.last_saved_iter,
            CheckpointMode::Async => self.drains.drained_through(self.crash_cutoff()),
        };
        watermark.map_or(0, |i| i + 1)
    }

    /// Durability cutoff: state of the disks at the instant the handled
    /// crash happened (everything later never made it).
    fn crash_cutoff(&self) -> SimTime {
        self.last_crash_time.unwrap_or(SimTime(u64::MAX))
    }

    /// Model a restart: a job-relaunch stall, agreement on the restart
    /// point (async mode: min over an allgather of per-PE drained
    /// watermarks — drain completion times differ across PEs),
    /// re-reading state from scratch, and a barrier. The job resumes
    /// from the returned iteration.
    pub fn restart(&mut self, pe: &mut PeCtx, relaunch_stall: SimDuration) -> u32 {
        pe.ctx().advance(relaunch_stall);
        let resume = match self.mode {
            CheckpointMode::Coordinated => self.restart_iteration(),
            CheckpointMode::Async => {
                let local = u64::from(self.restart_iteration());
                *allgather_u64(pe, local).iter().min().expect("npes >= 1") as u32
            }
        };
        if resume > 0 {
            pe.ctx().disk_read(self.state_bytes_per_pe);
        }
        pe.barrier_all();
        self.last_saved_iter = resume.checked_sub(1);
        resume
    }

    /// [`ShmemCheckpointer::restart`] plus the
    /// [`FaultEvent::Recovery`] record, for callers that semantically
    /// re-execute the lost iterations themselves. `failed_iter` is the
    /// iteration the failure interrupted; the caller loops from the
    /// returned iteration.
    pub fn restart_semantic(
        &mut self,
        pe: &mut PeCtx,
        relaunch_stall: SimDuration,
        failed_iter: u32,
    ) -> u32 {
        let resume = self.restart(pe, relaunch_stall);
        pe.ctx().record_fault(FaultEvent::Recovery {
            runtime: "shmem",
            action: "checkpoint_restart",
            detail: u64::from(failed_iter.saturating_sub(resume)),
        });
        resume
    }

    /// Recover the payload stored for the checkpoint `resume` points one
    /// past (`None` for `resume == 0`: initial state). In async mode a
    /// payload whose drain was still in flight at the crash is a torn
    /// file and yields `None` even though the snapshot existed in
    /// (lost) memory.
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

    /// Number of checkpoints taken so far.
    pub fn taken(&self) -> u32 {
        self.checkpoints_taken
    }

    /// This PE's drain ledger (async mode; coordinated drains complete
    /// synchronously). The campaign generator reads the windows off an
    /// oracle run to aim crashes inside them.
    pub fn drain_windows(&self) -> Vec<(SimTime, SimTime)> {
        self.drains.windows()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::launch::{shmem_run, shmem_run_faulty};
    use hpcbd_cluster::Placement;
    use hpcbd_simnet::{FaultPlan, NodeId};

    #[test]
    fn checkpoints_fire_on_interval() {
        let out = shmem_run(Placement::new(1, 2), |pe| {
            let mut ck = ShmemCheckpointer::new(3, 1 << 20);
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
                let mut ck = ShmemCheckpointer::new(2, 64 << 20).with_mode(mode);
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
                    let mut ck = ShmemCheckpointer::new(2, 1 << 20);
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
            let mut ck = ShmemCheckpointer::new(2, 1 << 10);
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
            let mut ck = ShmemCheckpointer::new(2, 64 << 20).with_mode(CheckpointMode::Async);
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
            let mut ck = ShmemCheckpointer::new(2, 64 << 20).with_mode(CheckpointMode::Async);
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
}
