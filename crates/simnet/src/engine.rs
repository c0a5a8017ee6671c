//! The conservative virtual-time execution engine.
//!
//! Every simulated process is a stackful coroutine ([`crate::coro`])
//! executing real Rust code — a few hundred KiB of lazily-paged stack
//! instead of the 2 MiB OS thread of earlier versions, which is what
//! lets a full SDSC Comet (1984 nodes x 24 ≈ 48k processes) run on a
//! laptop-class host. The engine enforces a single invariant:
//! **whenever a process performs a simulation-visible operation
//! (message send/delivery, disk reservation, sleep), it is the process
//! with the minimum virtual clock among all runnable processes, and
//! those commit windows are totally ordered.** The commit token is
//! passed through explicit per-process wakers: a wake stores the grant
//! in the process's slot and enqueues its coroutine on the resume
//! queue; parking is an in-process context switch, not a condvar
//! wait. The ready queue is a calendar bucket queue
//! ([`crate::queue::CalendarQueue`]) ordered by
//! `(virtual time, pid, generation)`.
//!
//! The engine is single-threaded: [`Sim::run`] drains the resume queue
//! on the calling thread and at most one process runs at a time. A
//! process keeps the token from its commit window through the following
//! compute segment, exactly like a classic baton-passing conservative
//! simulator. Between simulation-visible operations a process runs
//! arbitrary real computation and advances its own clock locally
//! ([`ProcCtx::compute`]); the conservative yield happens lazily at the
//! next visible operation.
//!
//! # State layout (DESIGN.md §9)
//!
//! All mutable engine state is plain single-owner data in one
//! `RefCell<State>`: the ready queue and commit token, one record per
//! process (scheduling fields, wake slot, mailbox, final stats), the
//! per-node NIC and scratch-disk next-free times, the shared NFS
//! server, the resume queue and the result slots. The ready queue is
//! O(1)-amortized, and a *self-grant fast path* skips the queue and the
//! coroutine switch entirely when the aligning process is already
//! globally minimal.
//!
//! Every mutation happens inside a commit window (token held) and
//! borrows the state once. One rule replaces any lock ordering: **no
//! borrow is held across [`crate::coro::suspend`]** — breaking it
//! panics with `BorrowMutError` at the next borrow instead of
//! deadlocking. The engine is neither `Send` nor `Sync`, so the
//! compiler keeps every handle to it on the thread running
//! [`Sim::run`]; [`Sim`] and [`SimReport`] stay `Send`. Trace events
//! are buffered in a per-process `Vec` and merged at export
//! ([`crate::trace::Trace`]), so tracing costs one `Vec::push` per
//! event on the hot path.

use std::any::Any;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::Arc;

use crate::cost::Work;
use crate::error::{DeadlockNote, RecvTimeout};
use crate::fs::SimFs;
use crate::message::{MatchSpec, Message, Payload, Tag};
use crate::queue::{CalendarQueue, OrderKey};
use crate::stats::ProcStats;
use crate::time::{SimDuration, SimTime};
use crate::topology::{NodeId, Topology};
use crate::trace::TraceEvent;
use crate::transport::Transport;

/// Identifies a simulated process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Pid(pub u32);

impl Pid {
    /// Index into the process table.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for Pid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Immutable world state shared by every process: the hardware topology
/// and the storage namespace.
pub struct World {
    /// Hardware description of the cluster.
    pub topology: Topology,
    /// Simulated storage namespace.
    pub fs: SimFs,
    /// NFS share characteristics (one server for the whole cluster).
    pub nfs: crate::topology::DiskSpec,
    /// Trace sink (empty unless `Sim::enable_tracing` ran).
    pub(crate) trace: std::sync::OnceLock<Arc<crate::trace::Trace>>,
    /// Installed fault plan (empty unless `Sim::set_fault_plan` ran).
    pub(crate) faults: std::sync::OnceLock<Arc<crate::faults::FaultPlan>>,
}

impl World {
    /// Build a world over a topology with an empty filesystem.
    pub fn new(topology: Topology) -> World {
        World {
            topology,
            fs: SimFs::new(),
            nfs: crate::topology::DiskSpec::nfs_share(),
            trace: std::sync::OnceLock::new(),
            faults: std::sync::OnceLock::new(),
        }
    }

    /// The installed fault plan, if any.
    pub fn fault_plan(&self) -> Option<&Arc<crate::faults::FaultPlan>> {
        self.faults.get()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WakeReason {
    Turn,
    Message,
    Timeout,
    Deadlock,
}

#[derive(Debug)]
enum Status {
    Ready,
    Running,
    Blocked {
        spec: MatchSpec,
        deadline: Option<SimTime>,
    },
    Done,
}

/// Everything the engine knows about one process: its scheduling
/// fields, its wake slot and its mail.
struct Proc {
    name: String,
    clock: SimTime,
    gen: u64,
    status: Status,
    wake_reason: WakeReason,
    /// Pending grant, stored by [`State::wake`] and consumed by
    /// [`Engine::park`].
    wake: Option<(SimTime, WakeReason)>,
    /// True while the coroutine is suspended with no pending wake — the
    /// state in which a wake must enqueue it for resumption. Starts true:
    /// a coroutine first runs when its first wake enqueues it.
    parked: bool,
    mailbox: VecDeque<Message>,
    finish: Option<SimTime>,
    stats: ProcStats,
}

/// (pid, message, was_deadlock) of one unwound process.
type PanicRecord = (Pid, String, bool);

/// Per-node device state: next-free times of the node's NIC and scratch
/// disk.
struct NodeRes {
    nic_free: SimTime,
    disk_free: SimTime,
}

/// All mutable engine state, owned by the thread running [`Sim::run`].
struct State {
    procs: Vec<Proc>,
    runnable: CalendarQueue,
    live: usize,
    deadlocked: bool,
    /// Current commit-token holder: the one process allowed to mutate
    /// shared simulation state. `None` while the token is being passed.
    turn: Option<Pid>,
    /// (pid, message, was_deadlock) for every unwound process.
    panics: Vec<PanicRecord>,
    nodes: Vec<NodeRes>,
    nfs_free: SimTime,
    /// Messages sent to processes that had already finished.
    dropped_msgs: u64,
    /// Sequence numbers handed to inter-node messages for the fault
    /// plan's drop hash. Advanced inside send commit windows, which are
    /// totally ordered — the basis of faulty-run bit-determinism. Only
    /// advanced when the plan actually enables drops.
    fault_seq: u64,
    /// Metric points absorbed from per-process buffers at finish.
    /// Export order is recovered by [`crate::telemetry::sort_points`],
    /// so the absorb order is irrelevant.
    metric_sink: Vec<crate::telemetry::MetricPoint>,
    /// Processes whose coroutines have a pending wake and await
    /// [`resume_loop`].
    resume: VecDeque<Pid>,
    /// Per-process return values, indexed by pid.
    results: Vec<Option<Box<dyn Any + Send>>>,
}

struct Engine {
    state: RefCell<State>,
    /// Telemetry sampling interval resolved at run start (`None` off).
    /// Per-process contexts copy it into a `bool`; the report carries it
    /// so the observability layer knows the tick (see
    /// [`crate::telemetry`]).
    telemetry_interval: Option<u64>,
}

impl Engine {
    /// Wait (in the coroutine sense) until a wake is pending for `pid`.
    /// Must run inside that process's coroutine. If the wake raced in
    /// between the caller's last visible operation and this park (a
    /// self-dispatch), it is consumed without suspending at all.
    fn park(&self, pid: Pid) -> (SimTime, WakeReason) {
        loop {
            if let Some(v) = self.state.borrow_mut().procs[pid.index()].wake.take() {
                return v;
            }
            crate::coro::suspend();
        }
    }
}

impl State {
    /// Push `pid` as runnable at `time`, invalidating any earlier entry
    /// for it.
    fn push(&mut self, pid: Pid, time: SimTime) {
        crate::selfprof::host_count(crate::selfprof::HostOp::QueuePush);
        let p = &mut self.procs[pid.index()];
        p.gen += 1;
        let gen = p.gen;
        self.runnable.push(OrderKey { time, pid, gen });
    }

    /// Hand `pid` a wake, enqueuing its coroutine for resumption if it
    /// is parked. If the coroutine is currently running (e.g. it granted
    /// itself between pushing its ready-queue entry and parking), the
    /// wake alone suffices: its park loop consumes it without
    /// suspending.
    fn wake(&mut self, pid: Pid, clock: SimTime, reason: WakeReason) {
        crate::selfprof::host_count(crate::selfprof::HostOp::Wake);
        let p = &mut self.procs[pid.index()];
        debug_assert!(p.wake.is_none(), "second wake before {pid} parked");
        p.wake = Some((clock, reason));
        if p.parked {
            p.parked = false;
            self.resume.push_back(pid);
        }
    }

    /// Grant the commit token to the next runnable process; otherwise
    /// detect completion or deadlock. Idempotent: safe to call after any
    /// state change that might enable a grant.
    fn try_dispatch(&mut self) {
        if self.turn.is_some() || self.deadlocked {
            return;
        }
        while let Some(cand) = self.runnable.peek_min() {
            crate::selfprof::host_count(crate::selfprof::HostOp::QueuePop);
            self.runnable.pop_min();
            let p = &mut self.procs[cand.pid.index()];
            if p.gen != cand.gen {
                continue; // stale entry
            }
            match &p.status {
                Status::Ready => {
                    p.status = Status::Running;
                }
                Status::Blocked {
                    deadline: Some(_), ..
                } => {
                    // Generation matched, so this entry is the deadline
                    // pushed when blocking: the deadline fired before any
                    // matching message was delivered.
                    p.status = Status::Running;
                    p.wake_reason = WakeReason::Timeout;
                    p.clock = p.clock.max(cand.time);
                }
                _ => continue, // defensive: not grantable
            }
            crate::selfprof::host_count(crate::selfprof::HostOp::TokenGrant);
            let (clock, reason) = (p.clock, p.wake_reason);
            self.turn = Some(cand.pid);
            self.wake(cand.pid, clock, reason);
            return;
        }
        // Nothing grantable while processes are still live: a
        // distributed deadlock.
        if self.live > 0 {
            self.deadlocked = true;
            let mut diag = String::new();
            for (i, p) in self.procs.iter().enumerate() {
                if let Status::Blocked { spec, .. } = &p.status {
                    diag.push_str(&format!(
                        "{} ({}) blocked at {} on recv {:?}; ",
                        Pid(i as u32),
                        p.name,
                        p.clock,
                        spec
                    ));
                }
            }
            let mut doomed = Vec::new();
            for (i, p) in self.procs.iter_mut().enumerate() {
                if matches!(p.status, Status::Blocked { .. }) {
                    p.status = Status::Running;
                    p.wake_reason = WakeReason::Deadlock;
                    doomed.push((Pid(i as u32), p.clock));
                }
            }
            for (pid, clock) in doomed {
                self.wake(pid, clock, WakeReason::Deadlock);
            }
            // Stash the diagnostic through the panics channel.
            self.panics
                .push((Pid(u32::MAX), format!("deadlock: {diag}"), true));
        }
    }

    /// Deliver a message, waking the destination if it is blocked on a
    /// matching receive. The sender holds the commit token.
    fn deliver(&mut self, dst: Pid, msg: Message) {
        let arrival = msg.arrival;
        let p = &mut self.procs[dst.index()];
        match &p.status {
            Status::Done => {
                self.dropped_msgs += 1;
            }
            Status::Blocked { spec, .. } if spec.matches(&msg) => {
                p.status = Status::Ready;
                p.wake_reason = WakeReason::Message;
                // Clock stays at the block-time value; the receiver
                // recomputes its resume clock from the matched message.
                let t = p.clock.max(arrival);
                p.mailbox.push_back(msg);
                self.push(dst, t);
            }
            _ => p.mailbox.push_back(msg),
        }
    }
}

/// Reserve a device whose next-free time is `*free` for `dur`, starting
/// no earlier than `at`; returns the completion time.
fn reserve(free: &mut SimTime, at: SimTime, dur: SimDuration) -> SimTime {
    let done = at.max(*free) + dur;
    *free = done;
    done
}

/// The order-dependent part of a send's fault handling:
/// link degradation/partition delay and the drop-hash decision (which
/// consumes a `fault_seq` number). Adjusts `arrival` in place and
/// returns the fault events to attribute to the sender, each with its
/// delay for the stats counters.
#[allow(clippy::too_many_arguments)]
fn send_fault_adjust(
    plan: &crate::faults::FaultPlan,
    fault_seq: &mut u64,
    src_node: NodeId,
    dst_node: NodeId,
    dst: Pid,
    sent_at: SimTime,
    bytes: u64,
    wire: SimDuration,
    latency: SimDuration,
    arrival: &mut SimTime,
) -> Vec<(crate::faults::FaultEvent, SimDuration)> {
    use crate::faults::{FaultEvent, LinkFault};
    let mut evs = Vec::new();
    match plan.link_fault(src_node, dst_node, sent_at) {
        Some((LinkFault::Degrade(f), _)) => {
            let base = wire + latency;
            let extra = SimDuration::from_nanos((base.nanos() as f64 * (f - 1.0)).round() as u64);
            *arrival += extra;
            evs.push((
                FaultEvent::LinkDegraded {
                    dst_node,
                    bytes,
                    delay: extra,
                },
                extra,
            ));
        }
        Some((LinkFault::Partition, until)) => {
            let healed = until + plan.retransmit();
            if healed > *arrival {
                let extra = healed - *arrival;
                *arrival = healed;
                evs.push((
                    FaultEvent::LinkPartitioned {
                        dst_node,
                        bytes,
                        delay: extra,
                    },
                    extra,
                ));
            }
        }
        None => {}
    }
    if plan.has_drops() {
        let seq = *fault_seq;
        *fault_seq += 1;
        if plan.should_drop(seq) {
            let extra = plan.retransmit();
            *arrival += extra;
            evs.push((
                FaultEvent::MessageDropped {
                    dst,
                    bytes,
                    delay: extra,
                },
                extra,
            ));
        }
    }
    evs
}

/// Per-process context handed to each process closure. All simulation
/// operations go through this handle. Engine, trace and fault-plan
/// handles are resolved once at spawn — the hot path clones no `Arc`s.
pub struct ProcCtx {
    engine: Rc<Engine>,
    world: Arc<World>,
    proc_nodes: Arc<Vec<NodeId>>,
    pid: Pid,
    node: NodeId,
    clock: SimTime,
    stats: ProcStats,
    /// Preresolved fault plan (None on clean runs).
    faults: Option<Arc<crate::faults::FaultPlan>>,
    /// Whether tracing is enabled for this run (resolved at spawn).
    tracing: bool,
    /// Per-process append-only trace buffer; merged into the shared
    /// [`crate::trace::Trace`] once, at process finish.
    trace_buf: Vec<TraceEvent>,
    /// Open phase spans: `(label, open time)`, innermost last. Always
    /// empty when tracing is off (the span API is a no-op then).
    span_stack: Vec<(Arc<str>, SimTime)>,
    /// Whether telemetry is enabled for this run (resolved at spawn).
    telemetry: bool,
    /// Per-process append-only metric-point buffer; merged into the
    /// engine's sink at process finish. Always empty when telemetry is
    /// off (the metric API is a no-op then).
    metric_buf: Vec<crate::telemetry::MetricPoint>,
}

impl ProcCtx {
    /// This process's id.
    #[inline]
    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// The node this process is placed on.
    #[inline]
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Node a process is placed on.
    #[inline]
    pub fn node_of(&self, pid: Pid) -> NodeId {
        self.proc_nodes[pid.index()]
    }

    /// Whether `pid` shares this process's node.
    #[inline]
    pub fn is_local(&self, pid: Pid) -> bool {
        self.node_of(pid) == self.node
    }

    /// Total number of processes in the simulation.
    #[inline]
    pub fn num_procs(&self) -> usize {
        self.proc_nodes.len()
    }

    /// Current virtual time of this process.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// Shared world state (topology + filesystem).
    #[inline]
    pub fn world(&self) -> &World {
        &self.world
    }

    /// The simulated filesystem.
    #[inline]
    pub fn fs(&self) -> &SimFs {
        &self.world.fs
    }

    /// Statistics collected so far by this process.
    #[inline]
    pub fn stats(&self) -> &ProcStats {
        &self.stats
    }

    /// Append a span to this process's trace buffer (no locking; the
    /// buffer is merged into the shared trace at process finish).
    #[inline]
    fn trace_push(&mut self, start: SimTime, end: SimTime, kind: crate::trace::EventKind) {
        if self.tracing {
            self.trace_buf.push(TraceEvent {
                pid: self.pid,
                start,
                end,
                kind,
            });
        }
    }

    /// The simulation's fault plan, if one was installed.
    #[inline]
    pub fn fault_plan(&self) -> Option<&Arc<crate::faults::FaultPlan>> {
        self.faults.as_ref()
    }

    /// Whether tracing (and with it the span API) is active for this
    /// run. Lets callers skip building dynamic span labels when the
    /// result would be discarded.
    #[inline]
    pub fn tracing_enabled(&self) -> bool {
        self.tracing
    }

    /// Whether telemetry (and with it the metric API) is active for this
    /// run. Lets callers skip building dynamic label strings when the
    /// point would be discarded.
    #[inline]
    pub fn telemetry_enabled(&self) -> bool {
        self.telemetry
    }

    /// Append one metric point to this process's buffer (no locking; the
    /// buffer is merged into the engine's sink at process finish).
    #[inline]
    fn metric_push(
        &mut self,
        name: impl Into<Arc<str>>,
        labels: impl Into<Arc<str>>,
        op: crate::telemetry::MetricOp,
    ) {
        let seq = self.metric_buf.len() as u32;
        self.metric_buf.push(crate::telemetry::MetricPoint {
            time: self.clock,
            pid: self.pid,
            seq,
            name: name.into(),
            labels: labels.into(),
            op,
        });
    }

    /// Add `v` to the `(name, labels)` counter at the current virtual
    /// time. Counters saturate; they never wrap. No-op — including the
    /// argument conversions — when telemetry is off.
    #[inline]
    pub fn metric_counter(
        &mut self,
        name: impl Into<Arc<str>>,
        labels: impl Into<Arc<str>>,
        v: u64,
    ) {
        if self.telemetry {
            self.metric_push(name, labels, crate::telemetry::MetricOp::CounterAdd(v));
        }
    }

    /// Set the `(name, labels)` gauge to `v` at the current virtual
    /// time. No-op when telemetry is off.
    #[inline]
    pub fn metric_gauge(&mut self, name: impl Into<Arc<str>>, labels: impl Into<Arc<str>>, v: u64) {
        if self.telemetry {
            self.metric_push(name, labels, crate::telemetry::MetricOp::GaugeSet(v));
        }
    }

    /// Record one observation `v` into the `(name, labels)` fixed-bucket
    /// histogram at the current virtual time. No-op when telemetry is
    /// off.
    #[inline]
    pub fn metric_observe(
        &mut self,
        name: impl Into<Arc<str>>,
        labels: impl Into<Arc<str>>,
        v: u64,
    ) {
        if self.telemetry {
            self.metric_push(name, labels, crate::telemetry::MetricOp::Observe(v));
        }
    }

    /// Open a nestable phase span at the current virtual time. The span
    /// is recorded into the trace as a [`crate::trace::EventKind::Phase`]
    /// when the matching [`ProcCtx::span_close`] runs (any spans still
    /// open when the process finishes are closed at its finish time).
    /// No-op — including the label conversion — when tracing is off.
    #[inline]
    pub fn span_open(&mut self, label: impl Into<Arc<str>>) {
        if self.tracing {
            self.span_stack.push((label.into(), self.clock));
        }
    }

    /// Like [`ProcCtx::span_open`] but the label is built lazily, so
    /// `format!`-style labels cost nothing when tracing is off.
    #[inline]
    pub fn span_open_with(&mut self, label: impl FnOnce() -> String) {
        if self.tracing {
            self.span_stack.push((label().into(), self.clock));
        }
    }

    /// Close the innermost open phase span, recording it as a trace
    /// event covering `[open, now]`. No-op when tracing is off or no
    /// span is open.
    #[inline]
    pub fn span_close(&mut self) {
        if !self.tracing {
            return;
        }
        if let Some((label, start)) = self.span_stack.pop() {
            let depth = self.span_stack.len() as u32;
            let end = self.clock;
            self.trace_buf.push(TraceEvent {
                pid: self.pid,
                start,
                end,
                kind: crate::trace::EventKind::Phase { label, depth },
            });
        }
    }

    /// Run `f` inside a phase span: `span_open(label)`, `f`, `span_close`.
    #[inline]
    pub fn span<R>(&mut self, label: impl Into<Arc<str>>, f: impl FnOnce(&mut ProcCtx) -> R) -> R {
        self.span_open(label);
        let out = f(self);
        self.span_close();
        out
    }

    /// Close every span still open (process finish / unwind path).
    fn close_all_spans(&mut self) {
        while !self.span_stack.is_empty() {
            self.span_close();
        }
    }

    /// Earliest scheduled crash of this process's node, if any. Server
    /// loops use this as a receive deadline so everything hosted on the
    /// node dies at the plan's crash time.
    pub fn node_crash_time(&self) -> Option<SimTime> {
        self.crash_time_of(self.node)
    }

    /// Earliest scheduled crash of `node`, if any.
    pub fn crash_time_of(&self, node: NodeId) -> Option<SimTime> {
        self.faults.as_ref().and_then(|p| p.crash_time(node))
    }

    /// Record a structured fault / recovery event in the trace (a
    /// zero-length instant at the current virtual time) and count it in
    /// this process's statistics.
    pub fn record_fault(&mut self, ev: crate::faults::FaultEvent) {
        self.stats.fault_events += 1;
        let t = self.clock;
        self.trace_push(t, t, crate::trace::EventKind::Fault(ev));
    }

    /// Like [`ProcCtx::record_fault`], but stamped at an explicit
    /// virtual time — possibly in this process's past. Runtimes that
    /// *learn* of a fault after it happened (a checkpointer detecting a
    /// planned node crash at its next poll) use this so the trace shows
    /// the crash at the instant the node died, which is what recovery
    /// SLOs (time-to-detect, time-to-recover) are measured against.
    pub fn record_fault_at(&mut self, at: SimTime, ev: crate::faults::FaultEvent) {
        self.stats.fault_events += 1;
        self.trace_push(at, at, crate::trace::EventKind::Fault(ev));
    }

    /// Advance this process's clock by modeled computation: `work` executed
    /// at `runtime_factor` times native single-core cost (see
    /// [`crate::RuntimeClass`]). Purely local — no synchronization.
    pub fn compute(&mut self, work: Work, runtime_factor: f64) {
        let mut d = {
            let spec = &self.world.topology.node(self.node).spec;
            work.duration_on(spec, runtime_factor)
        };
        if let Some(plan) = &self.faults {
            let f = plan.compute_factor(self.node, self.clock);
            if f != 1.0 {
                d = SimDuration::from_nanos((d.nanos() as f64 * f).round() as u64);
            }
        }
        let t0 = self.clock;
        self.clock += d;
        self.stats.compute_time += d;
        self.trace_push(t0, self.clock, crate::trace::EventKind::Compute);
    }

    /// Advance this process's clock by a raw duration (framework-internal
    /// overheads). Purely local.
    pub fn advance(&mut self, d: SimDuration) {
        self.clock += d;
        self.stats.compute_time += d;
    }

    /// Advance the clock and yield, letting earlier processes run.
    pub fn sleep(&mut self, d: SimDuration) {
        self.clock += d;
        self.become_min();
    }

    /// Align: enter the ready queue at the current clock and wait for the
    /// commit token, i.e. until this process is the minimum-time runnable
    /// process. Returns `false` if the simulation is tearing down from a
    /// deadlock (the caller must not touch shared state).
    fn align_quiet(&mut self) -> bool {
        let me = self.pid;
        {
            let mut st = self.engine.state.borrow_mut();
            let g = &mut *st;
            if g.deadlocked {
                return false;
            }
            if g.turn == Some(me) {
                // Pass the token through the queue so the globally
                // minimal process gets it next.
                g.turn = None;
            }
            // Self-grant fast path: if this process would be the next
            // grant anyway — the token is free and every queued entry
            // orders after `(clock, me)` — take the token directly,
            // skipping the queue round-trip and the park/wake entirely.
            // The grant decision is the same one `try_dispatch` would
            // make for our pushed entry, so the schedule (and every
            // virtual-time result) is unchanged.
            if g.turn.is_none() {
                // Clean stale heads so the comparison sees a live entry.
                while let Some(k) = g.runnable.peek_min() {
                    if g.procs[k.pid.index()].gen != k.gen {
                        g.runnable.pop_min();
                    } else {
                        break;
                    }
                }
                let head_after_me = g
                    .runnable
                    .peek_min()
                    .is_none_or(|k| (k.time, k.pid) > (self.clock, me));
                if head_after_me {
                    let p = &mut g.procs[me.index()];
                    p.clock = self.clock;
                    p.status = Status::Running;
                    p.wake_reason = WakeReason::Turn;
                    g.turn = Some(me);
                    return true;
                }
            }
            {
                let p = &mut g.procs[me.index()];
                p.clock = self.clock;
                p.status = Status::Ready;
                p.wake_reason = WakeReason::Turn;
            }
            g.push(me, self.clock);
            g.try_dispatch();
        }
        let (clock, reason) = self.engine.park(me);
        self.clock = clock;
        reason != WakeReason::Deadlock
    }

    /// Yield until this process is the minimum-time runnable process and
    /// holds the commit token. All operations with global effects call
    /// this first, which is what makes resource-reservation order
    /// independent of OS scheduling.
    fn become_min(&mut self) {
        if !self.align_quiet() {
            panic::panic_any(DeadlockNote(format!(
                "{} woken during deadlock teardown",
                self.pid
            )));
        }
    }

    /// Run `f` inside this process's next commit window: at a
    /// deterministic point in the global visible-operation order, with
    /// the commit token held. Frameworks use this to order side effects
    /// on state shared *outside* the engine (symmetric heaps, RMA
    /// windows) by virtual time.
    pub fn ordered<R>(&mut self, f: impl FnOnce() -> R) -> R {
        self.become_min();
        f()
    }

    /// Send a message. The sender is charged the transport's endpoint CPU
    /// cost; the payload then occupies the sender NIC (serialized with
    /// other transfers from this node) and arrives `latency` later.
    /// Intra-node messages skip the NIC.
    pub fn send(
        &mut self,
        dst: Pid,
        tag: Tag,
        bytes: u64,
        payload: Payload,
        transport: &Transport,
    ) {
        let cpu = transport.endpoint_cpu(transport.send_overhead, bytes);
        let t0 = self.clock;
        self.clock += cpu;
        self.stats.compute_time += cpu;
        self.stats.msgs_sent += 1;
        self.stats.bytes_sent += bytes;
        self.trace_push(t0, self.clock, crate::trace::EventKind::Send { dst, bytes });
        self.become_min();
        // Commit window (token held): NIC reservation, fault decisions,
        // delivery.
        let sent_at = self.clock;
        let dst_node = self.node_of(dst);
        let same_node = dst_node == self.node;
        let wire = transport.wire_time(bytes);
        let mut st = self.engine.state.borrow_mut();
        let mut arrival = if same_node {
            sent_at + transport.latency + wire
        } else {
            reserve(&mut st.nodes[self.node.index()].nic_free, sent_at, wire) + transport.latency
        };
        // Fault injection, inside the commit window so every decision
        // (and the drop-hash sequence number) lands at a deterministic
        // point of the global order. Intra-node loopback is immune.
        let fault_events = match &self.faults {
            Some(plan) if !same_node => send_fault_adjust(
                plan,
                &mut st.fault_seq,
                self.node,
                dst_node,
                dst,
                sent_at,
                bytes,
                wire,
                transport.latency,
                &mut arrival,
            ),
            _ => Vec::new(),
        };
        let recv_cost = transport.endpoint_cpu(transport.recv_overhead, bytes);
        st.deliver(
            dst,
            Message {
                src: self.pid,
                dst,
                tag,
                bytes,
                payload,
                sent_at,
                arrival,
                recv_cost,
            },
        );
        drop(st);
        for (ev, extra) in fault_events {
            self.stats.fault_events += 1;
            self.stats.fault_delay += extra;
            self.trace_push(sent_at, sent_at, crate::trace::EventKind::Fault(ev));
        }
    }

    /// Take the earliest-arriving message matching `spec` that arrived
    /// by `by` (any arrival when `None`) out of this process's mailbox.
    fn take_match(&self, spec: MatchSpec, by: Option<SimTime>) -> Option<Message> {
        let mut st = self.engine.state.borrow_mut();
        let mailbox = &mut st.procs[self.pid.index()].mailbox;
        let best = mailbox
            .iter()
            .enumerate()
            .filter(|(_, m)| spec.matches(m) && by.is_none_or(|t| m.arrival <= t))
            .min_by_key(|(i, m)| (m.arrival, *i))
            .map(|(i, _)| i);
        best.and_then(|i| mailbox.remove(i))
    }

    fn finish_recv(&mut self, msg: Message, blocked_since: SimTime) -> Message {
        let resume = self.clock.max(msg.arrival);
        self.stats.wait_time += resume - blocked_since;
        self.clock = resume + msg.recv_cost;
        self.stats.compute_time += msg.recv_cost;
        self.stats.msgs_recvd += 1;
        self.stats.bytes_recvd += msg.bytes;
        self.trace_push(
            blocked_since,
            self.clock,
            crate::trace::EventKind::Recv {
                src: msg.src,
                bytes: msg.bytes,
            },
        );
        msg
    }

    /// Receive the earliest-arriving message matching `spec`, blocking in
    /// virtual time until one is delivered. Panics (unwinding the whole
    /// simulation with a diagnostic) if no such message can ever arrive.
    pub fn recv(&mut self, spec: MatchSpec) -> Message {
        self.recv_deadline(spec, None)
            .expect("recv without deadline cannot time out")
    }

    /// Like [`ProcCtx::recv`] but gives up at virtual `deadline`.
    pub fn recv_timeout(
        &mut self,
        spec: MatchSpec,
        timeout: SimDuration,
    ) -> Result<Message, RecvTimeout> {
        let deadline = self.clock + timeout;
        self.recv_deadline(spec, Some(deadline))
    }

    /// Like [`ProcCtx::recv`] but gives up at an absolute virtual deadline.
    pub fn recv_deadline(
        &mut self,
        spec: MatchSpec,
        deadline: Option<SimTime>,
    ) -> Result<Message, RecvTimeout> {
        let blocked_since = self.clock;
        // Align first so the mailbox is inspected at a deterministic
        // point of the visible-operation order.
        self.become_min();
        if let Some(m) = self.take_match(spec, None) {
            return Ok(self.finish_recv(m, blocked_since));
        }
        // Block, handing the token back.
        let me = self.pid;
        {
            let mut st = self.engine.state.borrow_mut();
            let g = &mut *st;
            if g.deadlocked {
                drop(st);
                panic::panic_any(DeadlockNote(format!(
                    "{} blocked during deadlock teardown",
                    self.pid
                )));
            }
            debug_assert_eq!(g.turn, Some(me), "blocking without the token");
            g.turn = None;
            {
                let p = &mut g.procs[me.index()];
                p.clock = self.clock;
                p.status = Status::Blocked { spec, deadline };
            }
            if let Some(d) = deadline {
                g.push(me, d.max(self.clock));
            } else {
                // No queue entry: only a matching delivery can wake us.
                g.procs[me.index()].gen += 1;
            }
            g.try_dispatch();
        }
        let (clock, reason) = self.engine.park(me);
        self.clock = clock;
        match reason {
            WakeReason::Message => {
                let m = self
                    .take_match(spec, None)
                    .expect("woken for message but no match in mailbox");
                Ok(self.finish_recv(m, blocked_since))
            }
            WakeReason::Timeout => {
                self.stats.wait_time += self.clock - blocked_since;
                Err(RecvTimeout)
            }
            WakeReason::Deadlock => panic::panic_any(DeadlockNote(format!(
                "{} blocked on {:?} forever",
                self.pid, spec
            ))),
            WakeReason::Turn => unreachable!("blocked process woken with a turn grant"),
        }
    }

    /// Non-blocking receive: a matching message whose arrival time is not
    /// after this process's current clock.
    pub fn try_recv(&mut self, spec: MatchSpec) -> Option<Message> {
        // Align so the arrival check happens at a deterministic point.
        self.become_min();
        let now = self.clock;
        self.take_match(spec, Some(now))
            .map(|m| self.finish_recv(m, now))
    }

    /// One-sided RDMA transfer (OpenSHMEM put/get, MPI RMA): the initiator
    /// pays the endpoint overhead, occupies its NIC for the payload, and
    /// blocks until remote completion (`latency` after the last byte).
    /// The target process is never involved — its CPU clock is untouched,
    /// which is exactly what RDMA hardware offload buys.
    ///
    /// `round_trips` is 1 for a put and 2 for a get or a fetching atomic.
    pub fn one_sided_transfer(
        &mut self,
        target_node: NodeId,
        bytes: u64,
        transport: &Transport,
        round_trips: u32,
    ) {
        self.one_sided_transfer_with(target_node, bytes, transport, round_trips, || ());
    }

    /// [`ProcCtx::one_sided_transfer`] with a data-plane `effect` executed
    /// inside the commit window, after the transfer's completion time is
    /// known. Frameworks pass the actual memory mutation (symmetric-heap
    /// store, window accumulate) here so that remote-memory effects are
    /// applied in deterministic virtual-time order.
    pub fn one_sided_transfer_with<R>(
        &mut self,
        target_node: NodeId,
        bytes: u64,
        transport: &Transport,
        round_trips: u32,
        effect: impl FnOnce() -> R,
    ) -> R {
        let cpu = transport.endpoint_cpu(transport.send_overhead, bytes);
        let t_op = self.clock;
        self.clock += cpu;
        self.stats.compute_time += cpu;
        self.stats.msgs_sent += 1;
        self.stats.bytes_sent += bytes;
        self.become_min();
        let wire = transport.wire_time(bytes);
        let lat = SimDuration::from_nanos(transport.latency.nanos() * round_trips.max(1) as u64);
        if target_node == self.node {
            self.clock += lat + wire;
        } else {
            let nic = &mut self.engine.state.borrow_mut().nodes[self.node.index()].nic_free;
            self.clock = reserve(nic, self.clock, wire) + lat;
        }
        let out = effect();
        let end = self.clock;
        self.trace_push(t_op, end, crate::trace::EventKind::OneSided { bytes });
        out
    }

    /// Service duration of a device request at the current clock (the
    /// straggler fault factor is clock-dependent).
    fn device_io_dur(&self, bytes: u64, is_nfs: bool, is_write: bool) -> SimDuration {
        let spec: crate::topology::DiskSpec = if is_nfs {
            self.world.nfs
        } else {
            self.world.topology.node(self.node).spec.disk
        };
        let bw = if is_write {
            spec.write_bw
        } else {
            spec.read_bw
        };
        let mut dur = spec.request_overhead + SimDuration::from_secs_f64(bytes as f64 / bw);
        // A straggling node is slow at everything local, its scratch
        // disk included; the shared NFS server is unaffected.
        if !is_nfs {
            if let Some(plan) = &self.faults {
                let f = plan.compute_factor(self.node, self.clock);
                if f != 1.0 {
                    dur = SimDuration::from_nanos((dur.nanos() as f64 * f).round() as u64);
                }
            }
        }
        dur
    }

    fn device_io(&mut self, bytes: u64, is_nfs: bool, is_write: bool) {
        self.become_min();
        let dur = self.device_io_dur(bytes, is_nfs, is_write);
        let t0 = self.clock;
        let finish = {
            let mut st = self.engine.state.borrow_mut();
            let free = if is_nfs {
                &mut st.nfs_free
            } else {
                &mut st.nodes[self.node.index()].disk_free
            };
            reserve(free, t0, dur)
        };
        self.stats.disk_time += finish - t0;
        self.clock = finish;
        if is_write {
            self.stats.disk_write_bytes += bytes;
        } else {
            self.stats.disk_read_bytes += bytes;
        }
        let kind = match (is_nfs, is_write) {
            (true, _) => crate::trace::EventKind::Nfs { bytes },
            (false, true) => crate::trace::EventKind::DiskWrite { bytes },
            (false, false) => crate::trace::EventKind::DiskRead { bytes },
        };
        self.trace_push(t0, finish, kind);
    }

    /// Read `bytes` from this node's scratch disk (serialized with other
    /// requests to the same device; the cost includes queueing).
    pub fn disk_read(&mut self, bytes: u64) {
        self.device_io(bytes, false, false);
    }

    /// Write `bytes` to this node's scratch disk.
    pub fn disk_write(&mut self, bytes: u64) {
        self.device_io(bytes, false, true);
    }

    /// Read `bytes` from the shared NFS server (one server, cluster-wide
    /// contention).
    pub fn nfs_read(&mut self, bytes: u64) {
        self.device_io(bytes, true, false);
    }

    /// Write `bytes` to the shared NFS server.
    pub fn nfs_write(&mut self, bytes: u64) {
        self.device_io(bytes, true, true);
    }

    /// Issue a *background* write of `bytes` to this node's scratch
    /// disk: the device is reserved (serialized with every other
    /// request to it, foreground or background) and the write appears
    /// in the trace, but the calling process does **not** block — its
    /// clock is unchanged and compute proceeds overlapped with the I/O.
    /// Returns the virtual time the write completes on the device;
    /// asynchronous checkpointing registers that instant as the drain
    /// watermark ([`crate::ckpt::DrainSchedule`]).
    ///
    /// Reservation happens inside a commit window (like every shared
    /// resource), so the returned completion time is deterministic. The
    /// queueing delay is *not* charged to this process's `disk_time` —
    /// it never waited — but the bytes count toward its write volume.
    pub fn disk_write_background(&mut self, bytes: u64) -> SimTime {
        self.become_min();
        // Straggling nodes drain slowly too (same rule as `device_io`).
        let dur = self.device_io_dur(bytes, false, true);
        let finish = reserve(
            &mut self.engine.state.borrow_mut().nodes[self.node.index()].disk_free,
            self.clock,
            dur,
        );
        self.stats.disk_write_bytes += bytes;
        self.trace_push(
            self.clock,
            finish,
            crate::trace::EventKind::DiskWrite { bytes },
        );
        finish
    }
}

type ProcFn = Box<dyn FnOnce(&mut ProcCtx) -> Box<dyn Any + Send> + Send>;

struct ProcSpawn {
    node: NodeId,
    name: String,
    f: ProcFn,
}

/// Simulation builder: define a topology, spawn processes, run.
pub struct Sim {
    world: Arc<World>,
    spawns: Vec<ProcSpawn>,
}

// A whole simulation, its world and its report may move between threads
// (a sweep may run each `Sim` on a worker); only the engine inside
// `Sim::run` is confined to the thread running it.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Sim>();
    assert_send::<SimReport>();
    assert_send::<World>();
};

/// Final report of one process.
#[derive(Debug)]
pub struct ProcReport {
    /// Process id.
    pub pid: Pid,
    /// Process name given at spawn.
    pub name: String,
    /// Node it ran on.
    pub node: NodeId,
    /// Virtual time its closure returned.
    pub finish: SimTime,
    /// Accumulated statistics.
    pub stats: ProcStats,
}

/// Result of a completed simulation.
pub struct SimReport {
    /// Per-process reports, indexed by pid.
    pub procs: Vec<ProcReport>,
    /// Per-process return values, indexed by pid.
    results: Vec<Option<Box<dyn Any + Send>>>,
    /// Messages that were sent to already-finished processes.
    pub dropped_msgs: u64,
    /// The execution trace, when tracing was enabled.
    pub trace: Option<Arc<crate::trace::Trace>>,
    /// Telemetry sampling interval this run used (`None` off; see
    /// [`crate::telemetry`]).
    pub telemetry_interval: Option<u64>,
    /// Metric points recorded by processes, in the canonical
    /// `(time, name, labels, pid, seq)` export order. Empty when
    /// telemetry is off.
    pub metric_points: Vec<crate::telemetry::MetricPoint>,
}

impl SimReport {
    /// The virtual time at which the last process finished — the paper's
    /// "execution time" of a run.
    pub fn makespan(&self) -> SimTime {
        self.procs
            .iter()
            .map(|p| p.finish)
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Take the typed return value of one process.
    pub fn result<T: 'static>(&mut self, pid: Pid) -> T {
        *self.results[pid.index()]
            .take()
            .unwrap_or_else(|| panic!("{pid} produced no result or it was already taken"))
            .downcast::<T>()
            .unwrap_or_else(|_| panic!("{pid} result is not a {}", std::any::type_name::<T>()))
    }

    /// Aggregate statistics over all processes.
    pub fn total_stats(&self) -> ProcStats {
        let mut total = ProcStats::default();
        for p in &self.procs {
            total.merge(&p.stats);
        }
        total
    }
}

impl Sim {
    /// New simulation over `topology`.
    pub fn new(topology: Topology) -> Sim {
        Sim {
            world: Arc::new(World::new(topology)),
            spawns: Vec::new(),
        }
    }

    /// Access the world (to pre-populate the filesystem).
    pub fn world(&self) -> &World {
        &self.world
    }

    /// Turn on execution tracing for this run; every simulation-visible
    /// operation records a timeline span. Returns the trace handle (also
    /// available on the final [`SimReport`]).
    pub fn enable_tracing(&mut self) -> Arc<crate::trace::Trace> {
        self.world
            .trace
            .get_or_init(|| Arc::new(crate::trace::Trace::new()))
            .clone()
    }

    /// Install a fault plan for this run (see [`crate::FaultPlan`]): node
    /// crashes, stragglers, link faults and message drops, all scheduled
    /// in virtual time and replayed bit-identically on every run. The
    /// first installed plan wins; later calls return it
    /// unchanged.
    pub fn set_fault_plan(
        &mut self,
        plan: crate::faults::FaultPlan,
    ) -> Arc<crate::faults::FaultPlan> {
        self.world.faults.get_or_init(|| Arc::new(plan)).clone()
    }

    /// Register a process on `node`. Processes start at virtual time zero
    /// in registration order. Returns the process id.
    pub fn spawn<T, F>(&mut self, node: NodeId, name: impl Into<String>, f: F) -> Pid
    where
        T: Send + 'static,
        F: FnOnce(&mut ProcCtx) -> T + Send + 'static,
    {
        assert!(
            node.index() < self.world.topology.len(),
            "spawn on unknown {node}"
        );
        let pid = Pid(self.spawns.len() as u32);
        self.spawns.push(ProcSpawn {
            node,
            name: name.into(),
            f: Box::new(move |ctx| Box::new(f(ctx)) as Box<dyn Any + Send>),
        });
        pid
    }

    /// Run the simulation to completion and return the report.
    ///
    /// Panics if any process panicked (with that panic's message) or if a
    /// distributed deadlock was detected (with a per-process diagnostic).
    pub fn run(self) -> SimReport {
        let n = self.spawns.len();
        assert!(n > 0, "simulation has no processes");
        // When a run capture is active (bench bins building a RunReport),
        // force tracing on so the capture sees the full event stream. One
        // relaxed atomic load on the cold setup path; nothing on the hot
        // path changes.
        let capturing = crate::observe::capture_active();
        if capturing {
            self.world
                .trace
                .get_or_init(|| Arc::new(crate::trace::Trace::new()));
        }
        // Telemetry feeds the capture (the obs layer builds time-series
        // from it), so it only collects while a capture window is open —
        // points recorded into the void would be dropped anyway.
        let telemetry_interval = if capturing {
            crate::telemetry::telemetry_interval()
        } else {
            None
        };
        let selfprof_t0 = crate::selfprof::selfprof_enabled().then(std::time::Instant::now);
        let proc_nodes: Arc<Vec<NodeId>> = Arc::new(self.spawns.iter().map(|s| s.node).collect());
        let engine = Rc::new(Engine {
            state: RefCell::new(State {
                procs: self
                    .spawns
                    .iter()
                    .map(|s| Proc {
                        name: s.name.clone(),
                        clock: SimTime::ZERO,
                        gen: 0,
                        status: Status::Ready,
                        wake_reason: WakeReason::Turn,
                        wake: None,
                        parked: true,
                        mailbox: VecDeque::new(),
                        finish: None,
                        stats: ProcStats::default(),
                    })
                    .collect(),
                runnable: CalendarQueue::new(),
                live: n,
                deadlocked: false,
                turn: None,
                panics: Vec::new(),
                nodes: (0..self.world.topology.len())
                    .map(|_| NodeRes {
                        nic_free: SimTime::ZERO,
                        disk_free: SimTime::ZERO,
                    })
                    .collect(),
                nfs_free: SimTime::ZERO,
                dropped_msgs: 0,
                fault_seq: 0,
                metric_sink: Vec::new(),
                resume: VecDeque::new(),
                results: (0..n).map(|_| None).collect(),
            }),
            telemetry_interval,
        });

        // One coroutine per process, each running the full process body
        // on its own lazily-paged stack. Bodies start suspended; the
        // scheduler's first wake enqueues them on the resume queue.
        let bodies: Vec<Box<dyn FnOnce()>> = self
            .spawns
            .into_iter()
            .enumerate()
            .map(|(i, spawn)| {
                let pid = Pid(i as u32);
                let engine = engine.clone();
                let world = self.world.clone();
                let proc_nodes = proc_nodes.clone();
                Box::new(move || {
                    // Wait for the first grant.
                    let (clock, reason) = engine.park(pid);
                    let tracing = world.trace.get().is_some();
                    let faults = world.faults.get().cloned();
                    let mut ctx = ProcCtx {
                        engine: engine.clone(),
                        world,
                        proc_nodes,
                        pid,
                        node: spawn.node,
                        clock,
                        stats: ProcStats::default(),
                        faults,
                        tracing,
                        trace_buf: Vec::new(),
                        span_stack: Vec::new(),
                        telemetry: engine.telemetry_interval.is_some(),
                        metric_buf: Vec::new(),
                    };
                    if reason == WakeReason::Deadlock {
                        // Simulation tore down before we ever ran.
                        finish_proc(&engine, &mut ctx, None);
                        return;
                    }
                    let f = spawn.f;
                    let outcome = panic::catch_unwind(AssertUnwindSafe(|| f(&mut ctx)));
                    match outcome {
                        Ok(val) => {
                            engine.state.borrow_mut().results[pid.index()] = Some(val);
                            finish_proc(&engine, &mut ctx, None);
                        }
                        Err(payload) => {
                            let (msg, was_deadlock) = describe_panic(payload.as_ref());
                            finish_proc(&engine, &mut ctx, Some((msg, was_deadlock)));
                        }
                    }
                }) as Box<dyn FnOnce()>
            })
            .collect();
        let coros = crate::coro::Coroutines::build(bodies);

        // Enqueue every process at its start time and kick off the first
        // grant; it lands on the resume queue drained below.
        {
            let mut st = engine.state.borrow_mut();
            for i in 0..n {
                let t = st.procs[i].clock;
                st.push(Pid(i as u32), t);
            }
            st.try_dispatch();
        }
        resume_loop(&engine, &coros);
        drop(coros);

        let mut st = engine.state.borrow_mut();
        // Report application panics first; deadlock only if nothing else.
        if let Some((pid, msg, _)) = st
            .panics
            .iter()
            .find(|(_, _, was_deadlock)| !*was_deadlock)
            .cloned()
        {
            panic!("simulated process {pid} panicked: {msg}");
        }
        if let Some((_, msg, _)) = st.panics.first().cloned() {
            panic!("{msg}");
        }
        assert_eq!(
            st.live, 0,
            "engine stalled: resume queue drained with processes still live"
        );
        let procs = st
            .procs
            .iter_mut()
            .enumerate()
            .map(|(i, p)| ProcReport {
                pid: Pid(i as u32),
                name: std::mem::take(&mut p.name),
                node: proc_nodes[i],
                finish: p.finish.unwrap_or(p.clock),
                stats: std::mem::take(&mut p.stats),
            })
            .collect();
        let results = std::mem::take(&mut st.results);
        let mut metric_points = std::mem::take(&mut st.metric_sink);
        crate::telemetry::sort_points(&mut metric_points);
        if let Some(t0) = selfprof_t0 {
            crate::selfprof::add_run_wall_ns(t0.elapsed().as_nanos() as u64);
        }
        let report = SimReport {
            procs,
            results,
            dropped_msgs: st.dropped_msgs,
            trace: self.world.trace.get().cloned(),
            telemetry_interval: engine.telemetry_interval,
            metric_points,
        };
        if capturing {
            crate::observe::record_run(&report, self.world.topology.len());
        }
        report
    }
}

fn describe_panic(payload: &(dyn Any + Send)) -> (String, bool) {
    if let Some(note) = payload.downcast_ref::<DeadlockNote>() {
        (note.0.clone(), true)
    } else if let Some(sa) = payload.downcast_ref::<crate::abort::StructuredAbort>() {
        // Keep the machine-recognizable marker: `Sim::run` re-panics
        // with this string and `StructuredAbort::from_message` parses
        // it back out (see `crate::abort`).
        (sa.to_string(), false)
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        ((*s).to_string(), false)
    } else if let Some(s) = payload.downcast_ref::<String>() {
        (s.clone(), false)
    } else {
        ("<non-string panic payload>".to_string(), false)
    }
}

fn finish_proc(engine: &Engine, ctx: &mut ProcCtx, panic_info: Option<(String, bool)>) {
    let pid = ctx.pid;
    if panic_info.is_none() {
        // Normal completion is itself a visible event: align so the
        // transition to Done happens at a deterministic point of the
        // global order (e.g. whether a message to this process is
        // dropped). During deadlock teardown the alignment is skipped.
        let _ = ctx.align_quiet();
    }
    // Merge this process's trace buffer into the shared trace exactly
    // once. Export order is recovered by the sort in `sorted_events`, so
    // the append order across processes is irrelevant. Spans left open
    // (early return, panic unwind) close at the finish time first so the
    // exported trace only ever contains well-formed phase events.
    ctx.close_all_spans();
    if ctx.tracing {
        if let Some(tr) = ctx.world.trace.get() {
            tr.absorb(std::mem::take(&mut ctx.trace_buf));
        }
    }
    let mut st = engine.state.borrow_mut();
    let g = &mut *st;
    g.metric_sink.append(&mut ctx.metric_buf);
    if g.turn == Some(pid) {
        g.turn = None;
    }
    {
        let p = &mut g.procs[pid.index()];
        p.finish = Some(ctx.clock);
        p.stats = std::mem::take(&mut ctx.stats);
        p.status = Status::Done;
        p.clock = ctx.clock;
        p.gen += 1; // invalidate any stale queue entries
    }
    if let Some((msg, was_deadlock)) = panic_info {
        g.panics.push((pid, msg, was_deadlock));
    }
    g.live -= 1;
    if g.live > 0 && !g.deadlocked {
        g.try_dispatch();
    }
}

/// Drain the resume queue on the calling thread, running each popped
/// coroutine until its next suspension. Every wake of a parked process
/// enqueues it, so the queue runs dry exactly when the last process has
/// finished.
fn resume_loop(engine: &Engine, coros: &crate::coro::Coroutines) {
    loop {
        let Some(pid) = engine.state.borrow_mut().resume.pop_front() else {
            return;
        };
        crate::selfprof::host_count(crate::selfprof::HostOp::CoroResume);
        if coros.resume(pid.index()) == crate::coro::SwitchOut::Parked {
            // Resumption is synchronous, so no wake can have arrived
            // between the coroutine's last wake check and its
            // suspension: publish the parked state.
            let p = &mut engine.state.borrow_mut().procs[pid.index()];
            debug_assert!(p.wake.is_none(), "{pid} parked with a pending wake");
            crate::selfprof::host_count(crate::selfprof::HostOp::Park);
            p.parked = true;
        }
    }
}
