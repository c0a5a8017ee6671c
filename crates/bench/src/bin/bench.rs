//! `bench` — the simulator's wall-clock trajectory emitter.
//!
//! Times the fig3 / fig4 / fig6 pipelines (the three artifacts that
//! stress the engine hardest: many-process collectives, disk-bound
//! scans, iterative allreduce) and the busy datacenter day at `--quick`
//! and paper scale, and writes the measurements to `BENCH_simnet.json`.
//! CI runs this and uploads the artifact so every PR leaves a data point
//! on the simulator's host-performance trajectory.
//!
//! Flags:
//! * `--quick` — measure only the quick-scale configurations (CI smoke).
//! * `--out PATH` — output path (default `BENCH_simnet.json`).
//! * `--digests` — skip timing entirely: run each configuration once
//!   and print only its table digest. The output is fully
//!   deterministic, which lets this bin join the golden registry the
//!   `conformance` gate checks (wall-clock numbers never could).
//!
//! Each run also records an FNV-1a digest of the produced table, and
//! the emitter asserts every run of a row produced the same digest, so
//! a determinism break surfaces here as well as in the test suite.

use std::fmt::Write as _;
use std::time::Instant;

use hpcbd_cluster::Placement;
use hpcbd_core::bench_answers;
use hpcbd_core::bench_pagerank::{figure6, PagerankInput};
use hpcbd_core::bench_reduce;
use hpcbd_workloads::StackExchangeDataset;

/// FNV-1a over the produced table, so runs can be compared for
/// bit-identity without storing the tables themselves.
fn digest(s: &str) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for b in s.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Per-simulated-process memory overhead, measured as the VmHWM delta
/// across a run of `procs` trivial processes divided by `procs`. Each
/// process still gets the full treatment — a coroutine stack, a wake
/// slot, a grant — so the number tracks what a 48k-process Comet run
/// actually charges per rank. Linux-only (`/proc/self/status`); returns
/// `None` elsewhere. Must run *before* the measurement cases: VmHWM is
/// a high-water mark, so anything bigger run first would mask the delta.
fn proc_mem_probe(procs: u32) -> Option<(u64, u64)> {
    fn vm_hwm_kib() -> Option<u64> {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
        line.split_whitespace().nth(1)?.parse().ok()
    }
    let before = vm_hwm_kib()?;
    let nodes = 64u32;
    let mut sim = hpcbd_simnet::Sim::new(hpcbd_simnet::Topology::comet(nodes));
    for i in 0..procs {
        sim.spawn(
            hpcbd_simnet::NodeId(i % nodes),
            format!("probe-{i}"),
            |_ctx| {},
        );
    }
    sim.run();
    let after = vm_hwm_kib()?;
    let delta_kib = after.saturating_sub(before);
    Some((delta_kib, delta_kib * 1024 / procs as u64))
}

struct Measurement {
    artifact: &'static str,
    scale: &'static str,
    runs: usize,
    wall_min_s: f64,
    wall_mean_s: f64,
    table_digest: u64,
    /// Extra JSON fields appended to the row (multi-tenant scheduler
    /// counters for the `datacenter` artifact; empty otherwise). Must
    /// start with ", " when non-empty.
    extra_json: String,
}

fn measure(
    artifact: &'static str,
    scale: &'static str,
    runs: usize,
    f: &dyn Fn() -> String,
) -> Measurement {
    let mut times = Vec::with_capacity(runs);
    let mut digests = Vec::with_capacity(runs);
    for _ in 0..runs {
        let t0 = Instant::now();
        let table = f();
        times.push(t0.elapsed().as_secs_f64());
        digests.push(digest(&table));
    }
    assert!(
        digests.windows(2).all(|w| w[0] == w[1]),
        "{artifact}/{scale}: runs produced different tables — determinism break"
    );
    let min = times.iter().cloned().fold(f64::INFINITY, f64::min);
    let mean = times.iter().sum::<f64>() / times.len() as f64;
    eprintln!("  {artifact}/{scale}: min {min:.3}s mean {mean:.3}s (x{runs})");
    Measurement {
        artifact,
        scale,
        runs,
        wall_min_s: min,
        wall_mean_s: mean,
        table_digest: digests[0],
        extra_json: String::new(),
    }
}

/// The multi-tenant counters attached to each `datacenter` row: the
/// contended section's per-queue latency quantiles, queueing delay,
/// preemption activity and SLO attainment. Deterministic (virtual-time)
/// values — identical across runs and hosts, unlike the wall clocks.
fn datacenter_extra(quick: bool) -> String {
    use hpcbd_sched::quantile_ns;
    let sections = hpcbd_bench::datacenter::run_all(quick);
    let (_, contended) = &sections[1];
    let mut s = String::from(", \"multi_tenant\": true, \"contended\": {\"queues\": [");
    for (i, q) in contended.stats.queues.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let attain_ppm = (q.slo_met * 1_000_000)
            .checked_div(q.completed)
            .unwrap_or(1_000_000);
        let _ = write!(
            s,
            "{{\"queue\": \"{}\", \"completed\": {}, \"p50_latency_ns\": {}, \"p99_latency_ns\": {}, \"wait_p99_ns\": {}, \"slo_attainment_ppm\": {}, \"preemptions\": {}, \"kills_sent\": {}, \"local\": {}, \"rack\": {}, \"any\": {}}}",
            q.name,
            q.completed,
            quantile_ns(&q.latency_ns, 0.5),
            quantile_ns(&q.latency_ns, 0.99),
            quantile_ns(&q.wait_ns, 0.99),
            attain_ppm,
            q.preemptions,
            q.kills_sent,
            q.local,
            q.rack,
            q.remote,
        );
    }
    let _ = write!(
        s,
        "], \"offered\": {}, \"makespan_ns\": {}}}",
        contended.offered, contended.makespan_ns
    );
    s
}

fn main() {
    let shared = hpcbd_bench::BenchArgs::parse_allowing(&[("--out", true), ("--digests", false)]);
    let quick_only = shared.quick;
    let args: Vec<String> = std::env::args().collect();
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_simnet.json".to_string());

    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    eprintln!("hpcbd bench: host_cores={host_cores}");

    // The three artifact pipelines at each scale. Configurations mirror
    // the `fig3` / `fig4` / `fig6` bins exactly.
    type ArtifactFn = Box<dyn Fn() -> String>;
    let mut cases: Vec<(&'static str, &'static str, usize, ArtifactFn)> = vec![
        (
            "fig3",
            "quick",
            3,
            Box::new(|| {
                bench_reduce::figure3(Placement::new(2, 4), &[1usize, 256, 16384], 5).to_csv()
            }),
        ),
        (
            "fig4",
            "quick",
            3,
            Box::new(|| {
                let size = 4u64 << 30;
                let records = size / hpcbd_workloads::stackexchange::RECORD_BYTES;
                let ds = StackExchangeDataset::new(0xA125, size, records / 20_000);
                bench_answers::figure4(&ds, &[1u32, 2], 4).to_csv()
            }),
        ),
        (
            "fig6",
            "quick",
            3,
            Box::new(|| figure6(&PagerankInput::small(), &[1u32, 2], 4).to_csv()),
        ),
    ];
    if !quick_only {
        cases.push((
            "fig3",
            "paper",
            2,
            Box::new(|| {
                bench_reduce::figure3(Placement::new(8, 8), &bench_reduce::standard_sizes(), 20)
                    .to_csv()
            }),
        ));
        cases.push((
            "fig4",
            "paper",
            2,
            Box::new(|| {
                bench_answers::figure4(&bench_answers::dataset(), &[1u32, 2, 4, 6, 8], 8).to_csv()
            }),
        ));
        cases.push((
            "fig6",
            "paper",
            2,
            Box::new(|| figure6(&PagerankInput::paper(), &[1u32, 2, 4, 8], 16).to_csv()),
        ));
    }

    if args.iter().any(|a| a == "--digests") {
        for (artifact, scale, _runs, f) in &cases {
            println!("{artifact}/{scale} table_digest={:016x}", digest(&f()));
        }
        return;
    }

    // Probe first (VmHWM only rises); 8192 processes is enough to
    // swamp the baseline yet costs well under a second.
    let probe_procs = 8192u32;
    let proc_mem = proc_mem_probe(probe_procs);
    match proc_mem {
        Some((delta_kib, per_proc)) => eprintln!(
            "  proc_mem: {probe_procs} procs, VmHWM delta {delta_kib} KiB, {per_proc} B/proc"
        ),
        None => eprintln!("  proc_mem: unavailable (no /proc/self/status)"),
    }

    // The multi-tenant pipeline rides along as its own rows (kept out of
    // `cases` so the `--digests` golden output is unchanged; its tables
    // are pinned by the golden registry directly).
    let dc_cases: Vec<(&'static str, bool, usize, ArtifactFn)> = {
        let render_all = |quick: bool| -> String {
            hpcbd_bench::datacenter::run_all(quick)
                .iter()
                .map(|(name, out)| hpcbd_bench::datacenter::render(out, name))
                .collect()
        };
        let mut v: Vec<(&'static str, bool, usize, ArtifactFn)> =
            vec![("quick", true, 3, Box::new(move || render_all(true)))];
        if !quick_only {
            v.push(("paper", false, 2, Box::new(move || render_all(false))));
        }
        v
    };

    let mut measurements = Vec::new();
    // Note: `--report` forces tracing on inside the engine, perturbing
    // the wall-clock numbers — use it to inspect phases, not to compare
    // trajectories.
    hpcbd_bench::run_with_report("bench", &shared, || {
        for (artifact, scale, runs, f) in &cases {
            measurements.push(measure(artifact, scale, *runs, f));
        }
        for (scale, quick, runs, f) in &dc_cases {
            let mut m = measure("datacenter", scale, *runs, f);
            m.extra_json = datacenter_extra(*quick);
            measurements.push(m);
        }
    });

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"schema\": 1,\n");
    let _ = writeln!(json, "  \"host_cores\": {host_cores},");
    // Top-level, not a results row: the trajectory gate iterates
    // `results` expecting wall-clock fields.
    match proc_mem {
        Some((delta_kib, per_proc)) => {
            let _ = writeln!(
                json,
                "  \"proc_mem\": {{\"procs\": {probe_procs}, \"vm_hwm_delta_kib\": {delta_kib}, \"per_proc_bytes\": {per_proc}}},"
            );
        }
        None => json.push_str("  \"proc_mem\": null,\n"),
    }
    json.push_str("  \"results\": [\n");
    for (i, m) in measurements.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"artifact\": \"{}\", \"scale\": \"{}\", \"runs\": {}, \"wall_min_s\": {:.6}, \"wall_mean_s\": {:.6}, \"table_digest\": \"{:016x}\"{}}}",
            m.artifact, m.scale, m.runs, m.wall_min_s, m.wall_mean_s, m.table_digest,
            m.extra_json
        );
        json.push_str(if i + 1 < measurements.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    json.push_str("  ]\n}\n");

    std::fs::write(&out_path, &json).expect("write BENCH_simnet.json");
    eprintln!("wrote {out_path}");
    print!("{json}");
}
