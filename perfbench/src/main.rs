//! Run one benchmark workload once, in this process, and print what it
//! cost as one JSON line.
//!
//! ```text
//! hpcbd-perfbench <workload> [--seed N] [--trace] [--setup-only]
//! ```
//!
//! The first line on stdout, `ready <simulations>`, is flushed as soon as
//! the inputs are built, so the caller can time process start-up plus
//! input set-up. The last line is a JSON object: the end-to-end figures
//! of the run, or with `--trace` the per-layer ones. With `--trace` the
//! workload then runs a second time inside an observation capture, to
//! price the observation layer. Exit status: 0 when every check passed,
//! 1 when one failed, 2 on a usage error.

use std::io::Write as _;
use std::time::Instant;

use hpcbd_perfbench::os::{peak_rss_kib, Usage};
use hpcbd_perfbench::trace::Tracer;
use hpcbd_perfbench::workloads::{digest, Inputs, Results, Workload, DEFAULT_SEED};

struct Opts {
    workload: Workload,
    seed: u64,
    trace: bool,
    setup_only: bool,
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut it = args.iter();
    let name = it.next().ok_or("missing workload")?;
    let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let mut opts = Opts {
        workload,
        seed: DEFAULT_SEED,
        trace: false,
        setup_only: false,
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                opts.seed = v.parse().map_err(|_| format!("bad --seed {v:?}"))?;
            }
            "--trace" => opts.trace = true,
            "--setup-only" => opts.setup_only = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(opts)
}

/// A flat JSON object of numbers and plain strings, in insertion order.
#[derive(Default)]
struct Json(Vec<(String, String)>);

impl Json {
    fn num(&mut self, key: &str, v: impl std::fmt::Display) {
        self.0.push((key.to_string(), v.to_string()));
    }
    fn str(&mut self, key: &str, v: &str) {
        self.0.push((key.to_string(), format!("\"{v}\"")));
    }
    fn render(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// Per-layer metrics of one traced run (names as in `BENCHMARK.json`).
fn layer_metrics(
    out: &mut Json,
    tracer: &Tracer,
    results: &Results,
    wall_s: f64,
    used: Usage,
    input_s: f64,
) {
    out.num("traced_wall_s", wall_s);
    out.num("unattributed_s", wall_s - tracer.total_host_s());
    out.num("os.user_s", used.user_s);
    out.num("os.sys_s", used.sys_s);
    out.num("os.minflt", used.minflt);
    for layer in ["minimpi", "minspark"] {
        let c = tracer.cost(layer);
        out.num(&format!("{layer}.host_s"), c.host_s);
        out.num(&format!("{layer}.sys_s"), c.sys_s);
        out.num(&format!("{layer}.minflt"), c.minflt);
        out.num(&format!("{layer}.calls"), c.calls);
    }
    out.num("minomp.host_s", tracer.cost("minomp").host_s);
    out.num("minmapreduce.host_s", tracer.cost("minmapreduce").host_s);

    let prof: std::collections::BTreeMap<&str, u64> =
        hpcbd_simnet::selfprof_snapshot().into_iter().collect();
    let run_ns = prof["run_wall_ns"];
    let resumes = prof["coro_resume"];
    out.num("simnet.run_s", run_ns as f64 * 1e-9);
    out.num("simnet.runs", prof["runs"]);
    out.num("simnet.coro_resume", resumes);
    out.num("simnet.queue_push", prof["queue_push"]);
    out.num("simnet.park", prof["park"]);
    out.num(
        "simnet.ns_per_resume",
        if resumes == 0 {
            0.0
        } else {
            run_ns as f64 / resumes as f64
        },
    );
    out.num("simnet.outside_s", wall_s - run_ns as f64 * 1e-9);

    for layer in ["sched.idle", "sched.contended", "sched.nopreempt"] {
        out.num(&format!("{layer}.host_s"), tracer.cost(layer).host_s);
    }
    let (completed, contended) = match results {
        Results::Datacenter(sections) => {
            let done = |o: &hpcbd_sched::ScenarioOutcome| {
                o.stats.queues.iter().map(|q| q.completed).sum::<u64>()
            };
            let contended = sections.iter().find(|(n, _)| *n == "contended");
            (
                sections.iter().map(|(_, o)| done(o)).sum(),
                contended.map_or(0, |(_, o)| done(o)),
            )
        }
        _ => (0, 0),
    };
    out.num("sched.jobs_completed", completed);
    out.num(
        "sched.contended.us_per_job",
        if contended == 0 {
            0.0
        } else {
            tracer.cost("sched.contended").host_s * 1e6 / contended as f64
        },
    );
    out.num("workloads.input_s", input_s);
}

/// Run the workload again inside an observation capture and build its
/// run report. Returns the capture window and report seconds, the
/// captured event count, and the captured run's output digest.
fn observe(name: &str, inputs: &Inputs) -> (f64, f64, u64, u64) {
    let t = Instant::now();
    hpcbd_simnet::begin_capture();
    let results = inputs.run(&mut Tracer::off());
    let captures = hpcbd_simnet::end_capture();
    let capture_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let report = hpcbd_obs::RunReport::from_captures(name, false, &captures);
    let report_s = t.elapsed().as_secs_f64();
    std::hint::black_box(&report);
    let events = captures.iter().map(|c| c.events.len() as u64).sum();
    (
        capture_s,
        report_s,
        events,
        digest(&inputs.render(&results)),
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = parse(&args).unwrap_or_else(|e| {
        eprintln!(
            "error: {e}\nusage: hpcbd-perfbench <reduce_sweep|pagerank_iter|datacenter_day|answers_scan> \
             [--seed N] [--trace] [--setup-only]"
        );
        std::process::exit(2);
    });
    let w = opts.workload;

    let t = Instant::now();
    let inputs = w.setup(opts.seed, false);
    let input_s = t.elapsed().as_secs_f64();
    {
        let mut stdout = std::io::stdout().lock();
        writeln!(stdout, "ready {}", inputs.simulations()).expect("stdout is writable");
        stdout.flush().expect("stdout is writable");
    }
    if opts.setup_only {
        return;
    }

    let mut tracer = if opts.trace {
        hpcbd_simnet::selfprof_reset();
        hpcbd_simnet::set_selfprof(true);
        Tracer::on()
    } else {
        Tracer::off()
    };
    let u0 = Usage::now();
    let t0 = Instant::now();
    let results = inputs.run(&mut tracer);
    let wall_s = t0.elapsed().as_secs_f64();
    let used = Usage::now().since(&u0);
    let peak_kib = peak_rss_kib();
    if opts.trace {
        hpcbd_simnet::set_selfprof(false);
    }

    let rendered = inputs.render(&results);
    let mut checks = inputs.check(&results);
    checks.expect_digest(w.pinned_digest(opts.seed, false), &rendered);

    let mut out = Json::default();
    out.str("workload", w.name());
    out.num("seed", opts.seed);
    out.str("digest", &format!("{:016x}", digest(&rendered)));
    if opts.trace {
        layer_metrics(&mut out, &tracer, &results, wall_s, used, input_s);
        let (capture_s, report_s, events, captured) = observe(w.name(), &inputs);
        if captured != digest(&rendered) {
            checks.fail_all(format!(
                "the captured run's output digest {captured:016x} differs from the traced run's"
            ));
        }
        out.num("obs.capture_s", capture_s);
        out.num("obs.report_s", report_s);
        out.num("obs.events", events);
    } else {
        out.num("wall_s", wall_s);
        out.num("peak_rss_kib", peak_kib);
    }
    out.num("attempted", checks.simulations());
    out.num("failed", checks.failed());
    for reason in &checks.reasons {
        eprintln!("check failed: {} seed {}: {reason}", w.name(), opts.seed);
    }
    println!("{}", out.render());
    std::process::exit(if checks.failed() == 0 { 0 } else { 1 });
}
