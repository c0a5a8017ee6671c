//! Checkpoint/restart for SPMD jobs — the one driver behind MPI's and
//! OpenSHMEM's fault tolerance.
//!
//! The paper's fault-tolerance discussion (Sec. VI-D) contrasts Spark's
//! lineage-based recomputation with the "different checkpointing/restarting
//! algorithms" of distributed HPC frameworks: neither MPI nor OpenSHMEM
//! recovers from faults at run time, so applications periodically write
//! checkpoints and, on failure, the *whole job* restarts from the last one.
//! [`Checkpointer`] is that driver. It runs against any [`TeamMember`]
//! (an MPI rank, a SHMEM PE), which supplies only a barrier, a max/min
//! agreement on a `u64`, and the runtime's trace vocabulary.
//!
//! Two protocols are modeled ([`CheckpointMode`], `DESIGN.md` §13):
//! a stop-the-world coordinated write, and algorithm-based asynchronous
//! checkpointing (per the mixed MPI/GPI-2 study, see `PAPERS.md`) that
//! decouples *snapshot* from *persistence*: at the interval boundary a
//! process copies its state into a double buffer and resumes compute
//! while the buffer drains to scratch in background I/O.
//!
//! Both obey one durability rule. A restart may only fall back to the
//! last checkpoint whose write had **completed by the crash time** on
//! every node — a write still in flight when the node died is a torn
//! file, not a checkpoint. [`DrainSchedule`] is the per-process ledger
//! of that distinction: every write is registered with its issue and
//! completion times, [`DrainSchedule::drained_through`] answers which
//! iteration was durable at the crash, and a MIN agreement settles the
//! resume point job-wide (per-node disks finish at different times).
//! Trusting the snapshot counter instead is the classic watermark bug,
//! plantable as [`RecoveryBug::RestartUndrained`] so the fault-campaign
//! explorer can prove it catches it; the explorer reads
//! [`DrainSchedule::windows`] from an oracle run to aim crashes *inside*
//! write intervals.

use std::any::Any;
use std::sync::Arc;

use crate::abort::StructuredAbort;
use crate::cost::Work;
use crate::engine::ProcCtx;
use crate::faults::FaultEvent;
use crate::time::{SimDuration, SimTime};

/// Which checkpoint protocol a [`Checkpointer`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointMode {
    /// Stop-the-world: barrier + synchronous write + barrier. The write
    /// sits on the critical path every interval.
    Coordinated,
    /// Snapshot at the barrier (memory-bandwidth copy into a double
    /// buffer), drain in background I/O overlapped with compute.
    Async,
}

/// What an SPMD job does when a node it occupies fails (the paper's
/// Sec. VI-D fault-tolerance contrast).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultPolicy {
    /// Default HPC semantics: the whole job aborts (`MPI_Abort` /
    /// `shmem_global_exit`) — the runtime itself does not recover from
    /// faults. Raised as a [`crate::StructuredAbort`] so harnesses can
    /// tell the deliberate abort from a runtime bug.
    Abort,
    /// Checkpoint/restart: the job relaunches from the last restartable
    /// checkpoint after a scheduler stall.
    Restart {
        /// Scheduler/relaunch stall charged before ranks reload state.
        relaunch_stall: SimDuration,
    },
}

/// A known recovery bug the harness can plant to prove the
/// fault-campaign explorer catches it (see `hpcbd-check`). Planted bugs
/// only change *recovery* decisions; fault-free runs are unaffected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryBug {
    /// Restart trusts the snapshot counter instead of the durability
    /// watermark: after a crash that interrupts a checkpoint write, the
    /// job resumes at an iteration whose state never made it to disk —
    /// the reload comes up empty and the skipped iterations silently
    /// corrupt the result.
    RestartUndrained,
}

/// One process of an SPMD job, as the [`Checkpointer`] sees it. The
/// runtimes implement this on their per-process handles; everything
/// else about checkpoint/restart is shared.
pub trait TeamMember {
    /// Runtime name in trace records and aborts (`"mpi"`, `"shmem"`).
    const RUNTIME: &'static str;
    /// Recovery action recorded when a failed node is detected.
    const FAILURE_DETECTED: &'static str;
    /// The runtime's job-abort call (`MPI_Abort`, `shmem_global_exit`).
    const ABORT_CALL: &'static str;
    /// How the abort text names the paradigm.
    const PARADIGM: &'static str;

    /// This process's index in the job (MPI rank, SHMEM PE number).
    fn index(&self) -> u32;
    /// Number of nodes the job occupies.
    fn nodes(&self) -> u32;
    /// The underlying simulation context.
    fn proc_ctx(&mut self) -> &mut ProcCtx;
    /// Job-wide barrier.
    fn barrier(&mut self);
    /// Job-wide maximum of `value`. Collective — every process calls.
    fn agree_max(&mut self, value: u64) -> u64;
    /// Job-wide minimum of `value`. Collective — every process calls.
    fn agree_min(&mut self, value: u64) -> u64;
}

/// Checkpointing driver for an iterative SPMD application.
#[derive(Clone)]
pub struct Checkpointer {
    /// Take a checkpoint every this many iterations (0 = never).
    interval: u32,
    /// Bytes of application state each process persists per checkpoint.
    state_bytes: u64,
    mode: CheckpointMode,
    bug: Option<RecoveryBug>,
    checkpoints_taken: u32,
    failures_handled: u64,
    /// Virtual time of the most recent crash handled by
    /// [`Checkpointer::poll_plan_failure`] — identical on every process
    /// (it comes from the agreed plan replay), and the cutoff against
    /// which write durability is judged.
    last_crash_time: Option<SimTime>,
    drains: DrainSchedule,
    /// Snapshotted application payloads by iteration (the simulated
    /// "checkpoint file contents"). Restorable only when the matching
    /// write was durable at the crash cutoff; see
    /// [`Checkpointer::restore_payload`].
    payloads: Vec<(u32, Arc<dyn Any + Send + Sync>)>,
}

impl std::fmt::Debug for Checkpointer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Checkpointer")
            .field("interval", &self.interval)
            .field("mode", &self.mode)
            .field("taken", &self.checkpoints_taken)
            .field("drains", &self.drains)
            .finish_non_exhaustive()
    }
}

impl Checkpointer {
    /// New coordinated-mode driver persisting `state_bytes` per process
    /// every `interval` iterations (0 = never).
    pub fn new(interval: u32, state_bytes: u64) -> Checkpointer {
        Checkpointer {
            interval,
            state_bytes,
            mode: CheckpointMode::Coordinated,
            bug: None,
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

    /// Plant a known recovery bug (harness self-tests only; see
    /// [`RecoveryBug`]).
    pub fn with_planted_bug(mut self, bug: RecoveryBug) -> Checkpointer {
        self.bug = Some(bug);
        self
    }

    /// SPMD failure detection against the installed
    /// [`crate::FaultPlan`]: every process counts the node crashes
    /// visible at its own clock, then a MAX agreement makes the job
    /// settle on the most-advanced view (clocks differ; without the
    /// consensus a fast process would handle a failure its peers have
    /// not seen and the next collective would deadlock). Returns `true`
    /// when a newly-failed node was detected — under
    /// [`FaultPolicy::Restart`], follow with [`Checkpointer::restart`]
    /// or [`Checkpointer::restart_semantic`]. Under
    /// [`FaultPolicy::Abort`] the call raises a [`StructuredAbort`],
    /// which is what `MPI_Abort` / `shmem_global_exit` does to a job.
    ///
    /// Call once per iteration, right after the iteration's collective.
    /// No fault plan installed (or no crashes in it) costs nothing.
    pub fn poll_plan_failure<T: TeamMember>(&mut self, team: &mut T, policy: FaultPolicy) -> bool {
        let nodes = team.nodes();
        let visible = {
            let ctx = team.proc_ctx();
            match ctx.fault_plan() {
                Some(plan) if !plan.crashes().is_empty() => {
                    plan.crashes_through(nodes, ctx.now()).len() as u64
                }
                _ => return false,
            }
        };
        let agreed = team.agree_max(visible);
        if agreed <= self.failures_handled {
            return false;
        }
        let all = {
            let ctx = team.proc_ctx();
            let plan = ctx.fault_plan().expect("plan checked above").clone();
            plan.crashes_through(nodes, SimTime(u64::MAX))
        };
        let newly = &all[self.failures_handled as usize..agreed as usize];
        for (node, at) in newly {
            // Process 0 back-dates the crash itself into the trace so the
            // recovery SLOs (time-to-detect) have the true fault time.
            if team.index() == 0 {
                team.proc_ctx()
                    .record_fault_at(*at, FaultEvent::NodeCrash { node: *node });
            }
            team.proc_ctx().record_fault(FaultEvent::Recovery {
                runtime: T::RUNTIME,
                action: T::FAILURE_DETECTED,
                detail: u64::from(node.0),
            });
        }
        self.failures_handled = agreed;
        // Every process replays the same agreed prefix of the same plan,
        // so the cutoff is identical job-wide without further consensus.
        self.last_crash_time = newly.last().map(|&(_, t)| t);
        match policy {
            FaultPolicy::Abort => {
                let (node, at) = newly[0];
                StructuredAbort::raise(
                    T::RUNTIME,
                    format!(
                        "{}: node n{} failed at {at}; \
                         {} has no run-time fault tolerance",
                        T::ABORT_CALL,
                        node.0,
                        T::PARADIGM
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
    /// a background drain — compute resumes immediately. Either way the
    /// write is registered with its completion time. Returns whether a
    /// checkpoint (or snapshot) was taken.
    pub fn after_iteration(&mut self, team: &mut impl TeamMember, iter: u32) -> bool {
        if self.interval == 0 || !(iter + 1).is_multiple_of(self.interval) {
            return false;
        }
        team.barrier();
        let ctx = team.proc_ctx();
        let (issue, done, label) = match self.mode {
            CheckpointMode::Coordinated => {
                let issue = ctx.now();
                ctx.disk_write(self.state_bytes);
                (issue, ctx.now(), "mode=coordinated")
            }
            CheckpointMode::Async => {
                // Copy state into the drain buffer: memory traffic only
                // (read + write of the state), no barrier afterwards.
                ctx.compute(Work::new(0.0, 2.0 * self.state_bytes as f64), 1.0);
                let issue = ctx.now();
                (
                    issue,
                    ctx.disk_write_background(self.state_bytes),
                    "mode=async",
                )
            }
        };
        ctx.metric_observe("ckpt.drain_lag_ns", label, (done - issue).nanos());
        if self.mode == CheckpointMode::Coordinated {
            team.barrier();
        }
        self.drains.register(iter, issue, done);
        self.checkpoints_taken += 1;
        true
    }

    /// [`Checkpointer::after_iteration`] plus payload capture: when the
    /// checkpoint fires, `state` is evaluated and stored as the simulated
    /// contents of this process's checkpoint file, retrievable by
    /// [`Checkpointer::restore_payload`] after a crash — but only if the
    /// write was durable in time.
    pub fn after_iteration_with<T: TeamMember, P: Clone + Send + Sync + 'static>(
        &mut self,
        team: &mut T,
        iter: u32,
        state: impl FnOnce() -> P,
    ) -> bool {
        if !self.after_iteration(team, iter) {
            return false;
        }
        // A restart rewound the counter: entries at or past `iter` are
        // stale pre-crash snapshots, replaced by the retaken one.
        self.payloads.retain(|&(i, _)| i < iter);
        self.payloads.push((iter, Arc::new(state())));
        true
    }

    /// The iteration execution resumes from after a failure: one past the
    /// last restartable checkpoint (or 0 when none was taken). This is
    /// the *local* view; [`Checkpointer::restart`] replaces it with the
    /// job-wide agreement.
    pub fn restart_iteration(&self) -> u32 {
        self.restart_watermark().map_or(0, |i| i + 1)
    }

    /// The checkpoint this process would restart from: the last write
    /// durable at the crash cutoff, in either mode — or, with the
    /// planted bug, the last snapshot taken, durable or not.
    fn restart_watermark(&self) -> Option<u32> {
        match self.bug {
            Some(RecoveryBug::RestartUndrained) => self.drains.latest_snapshot(),
            None => self.drains.drained_through(self.crash_cutoff()),
        }
    }

    /// Durability cutoff: state of the disks at the instant the handled
    /// crash happened (everything later never made it).
    fn crash_cutoff(&self) -> SimTime {
        self.last_crash_time.unwrap_or(SimTime(u64::MAX))
    }

    /// Model a restart: a job-relaunch stall, MIN agreement on the
    /// restart point over per-process durability watermarks (per-node
    /// disks finish the same checkpoint at different times),
    /// re-reading state from scratch, and a barrier. The job resumes
    /// from the returned iteration.
    pub fn restart<T: TeamMember>(&mut self, team: &mut T, relaunch_stall: SimDuration) -> u32 {
        team.proc_ctx().advance(relaunch_stall);
        let resume = team.agree_min(u64::from(self.restart_iteration())) as u32;
        if resume > 0 {
            team.proc_ctx().disk_read(self.state_bytes);
        }
        team.barrier();
        resume
    }

    /// [`Checkpointer::restart`] plus the [`FaultEvent::Recovery`]
    /// record, for callers that *semantically re-execute* the lost
    /// iterations themselves (the campaign workloads do: they need the
    /// recomputed state, not just the recomputed cost). `failed_iter` is
    /// the iteration the failure interrupted; the caller loops from the
    /// returned iteration.
    pub fn restart_semantic<T: TeamMember>(
        &mut self,
        team: &mut T,
        relaunch_stall: SimDuration,
        failed_iter: u32,
    ) -> u32 {
        let resume = self.restart(team, relaunch_stall);
        team.proc_ctx().record_fault(FaultEvent::Recovery {
            runtime: T::RUNTIME,
            action: "checkpoint_restart",
            detail: u64::from(failed_iter.saturating_sub(resume)),
        });
        resume
    }

    /// Recover the payload stored for the checkpoint `resume` points one
    /// past (`None` for `resume == 0`: initial state). Models the read
    /// of the checkpoint file: a payload whose write was still in flight
    /// at the crash is a torn file and yields `None` even though the
    /// snapshot existed in (lost) memory — exactly the read a
    /// [`RecoveryBug::RestartUndrained`] restart attempts.
    pub fn restore_payload<P: Clone + Send + Sync + 'static>(&self, resume: u32) -> Option<P> {
        let iter = resume.checked_sub(1)?;
        let durable = self
            .drains
            .drain_of(iter)
            .is_some_and(|d| d.done <= self.crash_cutoff());
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

    /// This process's `(issue, done)` write windows. The campaign
    /// generator reads them off an oracle run to aim crashes inside them.
    pub fn drain_windows(&self) -> Vec<(SimTime, SimTime)> {
        self.drains.windows()
    }
}

/// One registered checkpoint write: issued at `issue`, durable at `done`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Drain {
    /// Iteration the snapshot covers (0-based; state *after* it ran).
    pub iter: u32,
    /// Virtual time the write was issued (snapshot taken).
    pub issue: SimTime,
    /// Virtual time the write completes on the device; the checkpoint
    /// is restartable only at or after this instant.
    pub done: SimTime,
}

/// Per-process ledger of checkpoint writes, in issue order.
#[derive(Debug, Clone, Default)]
pub struct DrainSchedule {
    drains: Vec<Drain>,
}

impl DrainSchedule {
    /// Empty ledger.
    pub fn new() -> DrainSchedule {
        DrainSchedule::default()
    }

    /// Record a snapshot of iteration `iter` issued at `issue` whose
    /// write completes at `done`. Iterations must be registered in
    /// increasing order (re-registering an iteration after a restart
    /// replaces the stale entry and everything after it).
    pub fn register(&mut self, iter: u32, issue: SimTime, done: SimTime) {
        assert!(done >= issue, "drain completes before it was issued");
        // A restart rewinds the iteration counter; drop ledger entries
        // the rewind invalidated so the ledger stays sorted by iter.
        self.drains.retain(|d| d.iter < iter);
        self.drains.push(Drain { iter, issue, done });
    }

    /// Latest iteration whose write had completed by `at`, if any —
    /// the only legal restart point after a crash at `at`.
    pub fn drained_through(&self, at: SimTime) -> Option<u32> {
        self.drains
            .iter()
            .filter(|d| d.done <= at)
            .map(|d| d.iter)
            .max()
    }

    /// Latest snapshot taken (durable or not) — what a *buggy* restart
    /// trusts when it confuses the snapshot counter with the durability
    /// watermark.
    pub fn latest_snapshot(&self) -> Option<u32> {
        self.drains.last().map(|d| d.iter)
    }

    /// The write registered for `iter`, if any.
    pub fn drain_of(&self, iter: u32) -> Option<Drain> {
        self.drains.iter().find(|d| d.iter == iter).copied()
    }

    /// All `(issue, done)` write windows, in issue order. The campaign
    /// generator samples crash times inside these from an oracle run.
    pub fn windows(&self) -> Vec<(SimTime, SimTime)> {
        self.drains.iter().map(|d| (d.issue, d.done)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drained_watermark_respects_completion_times() {
        let mut d = DrainSchedule::new();
        d.register(1, SimTime(100), SimTime(500));
        d.register(3, SimTime(600), SimTime(1_200));
        assert_eq!(d.drained_through(SimTime(99)), None);
        assert_eq!(d.drained_through(SimTime(499)), None);
        assert_eq!(d.drained_through(SimTime(500)), Some(1));
        assert_eq!(d.drained_through(SimTime(1_199)), Some(1));
        assert_eq!(d.drained_through(SimTime(1_200)), Some(3));
        assert_eq!(d.latest_snapshot(), Some(3));
        assert_eq!(d.windows().len(), 2);
    }

    #[test]
    fn restart_rewind_replaces_stale_entries() {
        let mut d = DrainSchedule::new();
        d.register(1, SimTime(100), SimTime(200));
        d.register(3, SimTime(300), SimTime(400));
        // Restart rewound to iteration 2; the retaken checkpoint at
        // iteration 3 must replace the pre-crash entry.
        d.register(3, SimTime(900), SimTime(1_000));
        assert_eq!(d.windows().len(), 2);
        assert_eq!(d.drained_through(SimTime(450)), Some(1));
        assert_eq!(d.drained_through(SimTime(1_000)), Some(3));
    }

    #[test]
    fn empty_schedule_has_no_watermark() {
        let d = DrainSchedule::new();
        assert_eq!(d.drained_through(SimTime(u64::MAX)), None);
        assert_eq!(d.latest_snapshot(), None);
        assert!(d.windows().is_empty());
    }
}
