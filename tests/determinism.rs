//! Bit-determinism regression tests.
//!
//! The engine's contract (DESIGN.md §2) is that a simulation is a pure
//! function of its inputs: same makespans, same per-process finish times
//! and statistics, same benchmark tables on every run. These tests run
//! whole paper pipelines (Fig. 3, Fig. 6) and an adversarial
//! engine-level workload twice in each of two host-observation modes —
//! plain, and with the host self-profiler on (the mode the benchmark's
//! per-layer ledger runs in) — and compare everything. Profiling counts
//! host operations and reads the wall clock; it must never move a
//! virtual-time result.
//!
//! The self-profiler switch is process-global state
//! ([`hpcbd::simnet::set_selfprof`]), so every test in this binary
//! serializes on one mutex and switches the profiler off before
//! releasing it.

use std::sync::Mutex;

use hpcbd::cluster::Placement;
use hpcbd::core::{bench_pagerank, bench_reduce};
use hpcbd::simnet::{set_selfprof, MatchSpec, Payload, Sim, SimTime, Topology, Transport, Work};

/// Serializes tests that flip the process-global profiler switch.
static MODE_GUARD: Mutex<()> = Mutex::new(());

/// Run `f` twice per mode (plain, self-profiled), returning the four
/// outputs in order [plain, plain, profiled, profiled].
fn four_runs<T>(mut f: impl FnMut() -> T) -> Vec<T> {
    let _g = MODE_GUARD.lock().unwrap_or_else(|e| e.into_inner());
    let mut out = Vec::with_capacity(4);
    for profiled in [false, false, true, true] {
        set_selfprof(profiled);
        out.push(f());
    }
    set_selfprof(false);
    out
}

/// Assert the four runs of [`four_runs`] agree, naming the pair that
/// does not.
fn assert_identical<T: PartialEq + std::fmt::Debug>(runs: &[T]) {
    assert_eq!(runs[0], runs[1], "plain runs differ");
    assert_eq!(runs[0], runs[2], "self-profiled run differs from plain");
    assert_eq!(runs[2], runs[3], "self-profiled runs differ");
}

#[test]
fn fig3_pipeline_is_bit_identical_across_modes() {
    let tables =
        four_runs(|| bench_reduce::figure3(Placement::new(2, 4), &[1usize, 4096], 3).to_csv());
    assert_identical(&tables);
}

#[test]
fn fig6_pipeline_is_bit_identical_across_modes() {
    let input = bench_pagerank::PagerankInput::small();
    let tables = four_runs(|| bench_pagerank::figure6(&input, &[1u32, 2], 4).to_csv());
    assert_identical(&tables);
}

/// An adversarial mixed workload exercising every visible-operation
/// class: point-to-point messaging with equal-time ties, timeouts,
/// try_recv polling, disk and NFS contention, one-sided transfers, and
/// uneven compute. Compares full per-process reports, not just the
/// makespan.
#[test]
fn engine_reports_are_bit_identical_across_modes() {
    #[derive(Debug, PartialEq)]
    struct RunDigest {
        finishes: Vec<(String, u64)>,
        stats: Vec<hpcbd::simnet::ProcStats>,
        makespan: SimTime,
        dropped: u64,
        results: Vec<u64>,
    }

    fn run_once() -> RunDigest {
        let mut sim = Sim::new(Topology::comet(3));
        let n = 6u32;
        let pids: Vec<_> = (0..n)
            .map(|i| {
                let node = hpcbd::simnet::NodeId(i % 3);
                sim.spawn(node, format!("w{i}"), move |ctx| {
                    let tr = Transport::ipoib_socket();
                    let me = ctx.pid();
                    let right = hpcbd::simnet::Pid((me.0 + 1) % n);
                    let mut acc = 0u64;
                    for round in 0..5u64 {
                        // Uneven compute: different per-process cost so
                        // clocks interleave; ring exchange creates ties.
                        ctx.compute(Work::new(1.0 + me.0 as f64 + round as f64, 64.0), 1.0);
                        ctx.send(right, 7, 128 + 64 * round, Payload::value(round), &tr);
                        let m = ctx.recv(MatchSpec::tag(7));
                        if let Payload::Value(v) = &m.payload {
                            acc += v.downcast_ref::<u64>().unwrap() + m.bytes;
                        }
                        if me.0 % 2 == 0 {
                            ctx.disk_write(1 << 16);
                        } else {
                            ctx.nfs_read(1 << 14);
                        }
                        if ctx.try_recv(MatchSpec::tag(99)).is_some() {
                            acc += 1_000_000;
                        }
                        ctx.one_sided_transfer(
                            hpcbd::simnet::NodeId((me.0 + 1) % 3),
                            256,
                            &Transport::rdma_verbs(),
                            1,
                        );
                    }
                    // A timeout that always fires (nobody sends tag 55).
                    assert!(ctx
                        .recv_timeout(
                            MatchSpec::tag(55),
                            hpcbd::simnet::SimDuration::from_micros(50)
                        )
                        .is_err());
                    acc
                })
            })
            .collect();
        let mut report = sim.run();
        RunDigest {
            finishes: report
                .procs
                .iter()
                .map(|p| (p.name.clone(), p.finish.nanos()))
                .collect(),
            stats: report.procs.iter().map(|p| p.stats.clone()).collect(),
            makespan: report.makespan(),
            dropped: report.dropped_msgs,
            results: pids.iter().map(|&p| report.result::<u64>(p)).collect(),
        }
    }

    let runs = four_runs(run_once);
    assert_identical(&runs);
}

/// Faulty runs must be exactly as deterministic as clean ones: the same
/// [`hpcbd::simnet::FaultPlan`] — a node crash, a straggler interval, a
/// degraded link, and heavy message drops all at once — replayed under
/// both observation modes must yield byte-identical traces (including the
/// injected `Fault` events) and identical per-process statistics.
#[test]
fn faulty_runs_are_bit_identical_across_modes() {
    use hpcbd::simnet::{FaultPlan, NodeId, Pid, SimDuration};

    #[derive(Debug, PartialEq)]
    struct RunDigest {
        trace_json: String,
        stats: Vec<hpcbd::simnet::ProcStats>,
        makespan: SimTime,
        dropped: u64,
        results: Vec<u64>,
    }

    fn run_once() -> RunDigest {
        let mut sim = Sim::new(Topology::comet(3));
        let trace = sim.enable_tracing();
        sim.set_fault_plan(
            FaultPlan::new(99)
                .crash_node(NodeId(1), SimTime(40_000_000))
                .slow_node(NodeId(2), SimTime(0), SimTime(u64::MAX), 3.0)
                .degrade_link(NodeId(0), NodeId(2), SimTime(0), SimTime(u64::MAX), 2.5)
                .drop_messages(100_000),
        );
        // A sink on node 1 that dies when its node's crash hits; workers
        // fire-and-forget to it (messages to the dead sink are dropped by
        // the engine, never blocking the senders).
        let sink = sim.spawn(NodeId(1), "sink".to_string(), move |ctx| {
            let crash = ctx.node_crash_time();
            let mut seen = 0u64;
            while let Ok(m) = ctx.recv_deadline(MatchSpec::tag(9), crash) {
                seen += m.bytes;
            }
            seen
        });
        let n = 4u32;
        let workers: Vec<_> = (0..n)
            .map(|i| {
                let node = hpcbd::simnet::NodeId(i % 3);
                sim.spawn(node, format!("w{i}"), move |ctx| {
                    let tr = Transport::ipoib_socket();
                    let me = ctx.pid();
                    let right = Pid(1 + (me.0 % n));
                    let mut acc = 0u64;
                    for round in 0..6u64 {
                        ctx.compute(Work::new(2.0e6 * (1.0 + me.0 as f64), 64.0), 1.0);
                        ctx.send(sink, 9, 256, Payload::Empty, &tr);
                        ctx.send(right, 7, 128 + 64 * round, Payload::value(round), &tr);
                        let m = ctx.recv(MatchSpec::tag(7));
                        if let Payload::Value(v) = &m.payload {
                            acc += v.downcast_ref::<u64>().unwrap() + m.bytes;
                        }
                        if ctx
                            .recv_timeout(MatchSpec::tag(55), SimDuration::from_micros(40))
                            .is_err()
                        {
                            acc += 1;
                        }
                    }
                    acc
                })
            })
            .collect();
        let mut report = sim.run();
        let names: Vec<String> = report.procs.iter().map(|p| p.name.clone()).collect();
        let fault_spans = trace
            .sorted_events()
            .iter()
            .filter(|e| matches!(e.kind, hpcbd::simnet::EventKind::Fault(_)))
            .count();
        assert!(
            fault_spans > 0,
            "the plan must actually inject faults into the trace"
        );
        RunDigest {
            trace_json: trace.to_chrome_json(&names),
            stats: report.procs.iter().map(|p| p.stats.clone()).collect(),
            makespan: report.makespan(),
            dropped: report.dropped_msgs,
            results: workers.iter().map(|&p| report.result::<u64>(p)).collect(),
        }
    }

    let runs = four_runs(run_once);
    assert!(
        runs[0].stats.iter().any(|s| s.fault_events > 0),
        "fault statistics must be populated"
    );
    assert_identical(&runs);
}

/// The observability layer must not disturb determinism, and its own
/// output must be deterministic: capturing a Fig. 6 quick run and
/// rendering the full [`hpcbd::obs::RunReport`] (phase attribution,
/// causal critical path, category breakdowns) must produce byte-identical
/// JSON in both observation modes.
#[test]
fn run_reports_are_byte_identical_across_modes() {
    fn run_once() -> String {
        hpcbd::simnet::begin_capture();
        let input = bench_pagerank::PagerankInput::small();
        let _ = bench_pagerank::figure6(&input, &[2u32], 4);
        let captures = hpcbd::simnet::end_capture();
        assert!(
            !captures.is_empty(),
            "figure6 must produce at least one captured run"
        );
        hpcbd::obs::RunReport::from_captures("fig6", true, &captures).to_json()
    }

    let reports = four_runs(run_once);
    assert_identical(&reports);
    // The report must actually contain phase attribution, not an empty
    // shell: PageRank iterations and runtime collectives are annotated.
    assert!(
        reports[0].contains("pagerank/iter/*"),
        "per-iteration spans missing from report"
    );
}
