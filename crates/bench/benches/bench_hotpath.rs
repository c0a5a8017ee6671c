//! Criterion microbenchmarks for the engine's host hot path.
//!
//! Complements `paper_benches` (whole-artifact wall clock) with the
//! individual mechanisms the perf work targets: the calendar ready
//! queue vs the `BinaryHeap` it replaced, raw message-handoff cost
//! through the engine, and the overhead of tracing, telemetry and the
//! host self-profiler.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use hpcbd_simnet::{
    CalendarQueue, MatchSpec, NodeId, OrderKey, Payload, Pid, Sim, SimTime, Topology, Transport,
    Work,
};

/// Queue churn modeling the engine's access pattern: a sliding window of
/// `window` keys, each pop followed by a push slightly in the future.
fn queue_churn(c: &mut Criterion) {
    let mut g = c.benchmark_group("queue_churn");
    g.sample_size(20);
    for window in [64usize, 4096] {
        let keys: Vec<OrderKey> = (0..window)
            .map(|i| OrderKey {
                time: SimTime(i as u64 * 1000),
                pid: Pid((i % 97) as u32),
                gen: i as u64,
            })
            .collect();
        g.bench_function(&format!("calendar_{window}"), |b| {
            b.iter(|| {
                let mut q = CalendarQueue::new();
                for &k in &keys {
                    q.push(k);
                }
                for i in 0..window * 4 {
                    let min = q.pop_min().unwrap();
                    q.push(OrderKey {
                        time: min.time + hpcbd_simnet::SimDuration::from_nanos(window as u64 * 500),
                        pid: min.pid,
                        gen: min.gen + 1,
                    });
                    black_box(i);
                }
                while q.pop_min().is_some() {}
            })
        });
        g.bench_function(&format!("binary_heap_{window}"), |b| {
            b.iter(|| {
                let mut q: BinaryHeap<Reverse<OrderKey>> = BinaryHeap::new();
                for &k in &keys {
                    q.push(Reverse(k));
                }
                for i in 0..window * 4 {
                    let Reverse(min) = q.pop().unwrap();
                    q.push(Reverse(OrderKey {
                        time: min.time + hpcbd_simnet::SimDuration::from_nanos(window as u64 * 500),
                        pid: min.pid,
                        gen: min.gen + 1,
                    }));
                    black_box(i);
                }
                while q.pop().is_some() {}
            })
        });
    }
    g.finish();
}

/// Raw engine handoff cost: a 2-process ping-pong, 200 rounds — almost
/// every cycle is align/dispatch/park/wake machinery.
fn pingpong(tracing: bool) -> u64 {
    let mut sim = Sim::new(Topology::comet(2));
    if tracing {
        sim.enable_tracing();
    }
    let tr = Transport::ipoib_socket();
    let a = sim.spawn(NodeId(0), "a", {
        move |ctx| {
            let peer = Pid(1);
            for i in 0..200u64 {
                ctx.send(peer, 1, 64, Payload::value(i), &tr);
                let _ = ctx.recv(MatchSpec::tag(2));
            }
            ctx.now().nanos()
        }
    });
    let _b = sim.spawn(NodeId(1), "b", {
        move |ctx| {
            let peer = Pid(0);
            for i in 0..200u64 {
                let _ = ctx.recv(MatchSpec::tag(1));
                ctx.send(peer, 2, 64, Payload::value(i), &tr);
            }
        }
    });
    let mut report = sim.run();
    report.result::<u64>(a)
}

fn engine_handoff(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine_handoff");
    g.sample_size(20);
    g.bench_function("pingpong", |b| b.iter(|| black_box(pingpong(false))));
    g.finish();
}

/// Tracing overhead: the same workload with the per-process trace
/// buffers on vs off. The delta is the cost the buffering must keep
/// near zero.
fn tracing_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("tracing_overhead");
    g.sample_size(20);
    g.bench_function("pingpong_untraced", |b| {
        b.iter(|| black_box(pingpong(false)))
    });
    g.bench_function("pingpong_traced", |b| b.iter(|| black_box(pingpong(true))));
    g.finish();
}

/// Telemetry overhead: the costs the live-telemetry subsystem must
/// keep invisible. `pingpong_metrics_off` is the plain uncaptured hot
/// path (one resolved `bool` per would-be metric call; must match
/// `engine_handoff/pingpong`). The captured pair prices the
/// sampler's collection cost against an identical capture without it,
/// and the selfprof pair prices the host profiler's relaxed counters.
fn telemetry_overhead(c: &mut Criterion) {
    fn captured_pingpong(interval: Option<u64>) -> u64 {
        hpcbd_simnet::set_telemetry_interval(interval);
        hpcbd_simnet::begin_capture();
        let r = pingpong(true);
        let caps = hpcbd_simnet::end_capture();
        hpcbd_simnet::set_telemetry_interval(None);
        black_box(caps.len());
        r
    }
    let mut g = c.benchmark_group("telemetry_overhead");
    g.sample_size(20);
    g.bench_function("pingpong_metrics_off", |b| {
        hpcbd_simnet::set_telemetry_interval(None);
        b.iter(|| black_box(pingpong(false)))
    });
    g.bench_function("pingpong_captured_no_telemetry", |b| {
        b.iter(|| black_box(captured_pingpong(None)))
    });
    g.bench_function("pingpong_captured_telemetry", |b| {
        b.iter(|| black_box(captured_pingpong(Some(1_000))))
    });
    g.bench_function("pingpong_selfprof_on", |b| {
        hpcbd_simnet::selfprof_reset();
        hpcbd_simnet::set_selfprof(true);
        b.iter(|| black_box(pingpong(false)));
        hpcbd_simnet::set_selfprof(false);
    });
    g.finish();
}

/// Compute-only segments: the self-grant fast path should make a pure
/// compute/sleep loop nearly queue-free.
fn compute_loop(c: &mut Criterion) {
    let mut g = c.benchmark_group("compute_loop");
    g.sample_size(20);
    g.bench_function("sleep_chain_1proc", |b| {
        b.iter(|| {
            let mut sim = Sim::new(Topology::comet(1));
            sim.spawn(NodeId(0), "w", |ctx| {
                for _ in 0..500 {
                    ctx.compute(Work::flops(1.0e6), 1.0);
                    ctx.sleep(hpcbd_simnet::SimDuration::from_nanos(100));
                }
                ctx.now().nanos()
            });
            black_box(sim.run().makespan())
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    queue_churn,
    engine_handoff,
    tracing_overhead,
    telemetry_overhead,
    compute_loop
);
criterion_main!(benches);
