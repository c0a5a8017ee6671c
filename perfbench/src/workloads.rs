//! The four paper-scale workloads: input set-up from a seed, the run
//! (with a span around every call into a runtime or the scheduler), the
//! rendered output, and the invariants each result must satisfy.
//!
//! Each run calls the same public per-runtime functions, in the same
//! order and with the same arguments, as the figure it reproduces, and
//! renders the same table (as CSV, the form `BENCH_simnet.json`
//! digests). Calling them one by one, instead of through `figure3`,
//! `figure4` and `figure6`, is what lets a span time each runtime.

use std::collections::BTreeSet;

use hpcbd_bench::datacenter::{self, Load};
use hpcbd_cluster::Placement;
use hpcbd_core::bench_answers::{self, hadoop_answers, mpi_answers, openmp_answers, spark_answers};
use hpcbd_core::bench_pagerank::{
    mpi_pagerank, spark_pagerank, spark_semantics_oracle, PagerankInput, SparkVariant,
};
use hpcbd_core::bench_reduce::{self, mpi_reduce_latency, spark_reduce_latency, ReducePoint};
use hpcbd_core::table::{fmt_micros, fmt_secs};
use hpcbd_core::ResultTable;
use hpcbd_minspark::ShuffleEngine;
use hpcbd_sched::{ScenarioOutcome, ScenarioSpec};
use hpcbd_workloads::{pagerank_reference, StackExchangeDataset};

use crate::trace::Tracer;

/// The seed whose inputs are the paper's own (dataset seed `0x5EAC`).
pub const DEFAULT_SEED: u64 = 0;

/// FNV-1a digests of the rendered output at paper scale, taken from the
/// program's own output. Only `answers_scan` takes input from the seed,
/// so only its digest is pinned at [`DEFAULT_SEED`] alone.
const PINNED: [(Workload, u64); 4] = [
    (Workload::ReduceSweep, 0xf39e_e335_0384_c744),
    (Workload::PagerankIter, 0xcbdb_b5da_646c_5be0),
    (Workload::DatacenterDay, 0x29ca_d144_307b_9da0),
    (Workload::AnswersScan, 0x14b0_e16c_f155_80d6),
];

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 3 at paper scale: payload allocation dominates.
    ReduceSweep,
    /// Fig. 6 at paper scale: the engine dominates.
    PagerankIter,
    /// The busy datacenter day: the only path through `sched`.
    DatacenterDay,
    /// Fig. 4 at paper scale: the only path through `minhdfs`, `minomp`
    /// and MPI-IO.
    AnswersScan,
}

impl Workload {
    /// Every workload, in the order the benchmark lists them.
    pub const ALL: [Workload; 4] = [
        Workload::ReduceSweep,
        Workload::PagerankIter,
        Workload::DatacenterDay,
        Workload::AnswersScan,
    ];

    /// The workload's benchmark name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ReduceSweep => "reduce_sweep",
            Workload::PagerankIter => "pagerank_iter",
            Workload::DatacenterDay => "datacenter_day",
            Workload::AnswersScan => "answers_scan",
        }
    }

    /// Look a workload up by its benchmark name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The digest the rendered output must have, if it is pinned for
    /// this seed and scale.
    pub fn pinned_digest(self, seed: u64, smoke: bool) -> Option<u64> {
        if smoke || (self == Workload::AnswersScan && seed != DEFAULT_SEED) {
            return None;
        }
        PINNED.iter().find(|(w, _)| *w == self).map(|(_, d)| *d)
    }

    /// Build the workload's inputs. `smoke` selects the sizes of the
    /// figures' `--quick` runs.
    pub fn setup(self, seed: u64, smoke: bool) -> Inputs {
        match self {
            Workload::ReduceSweep => {
                let (placement, sizes, iters) = if smoke {
                    (Placement::new(2, 4), vec![1usize, 256, 16384], 5)
                } else {
                    (Placement::new(8, 8), bench_reduce::standard_sizes(), 20)
                };
                Inputs::Reduce {
                    placement,
                    sizes,
                    iters,
                }
            }
            // The graph and the busy day's arrivals stay the paper's at
            // every seed: other draws change the amount of work, by up to
            // a fifth for the graph and 2x for the busy day (NOTES.md).
            Workload::PagerankIter => {
                let (input, nodes, ppn) = if smoke {
                    (PagerankInput::small(), vec![1u32, 2], 4)
                } else {
                    (PagerankInput::paper(), vec![1u32, 2, 4, 8], 16)
                };
                Inputs::Pagerank { input, nodes, ppn }
            }
            Workload::DatacenterDay => Inputs::Datacenter {
                specs: vec![
                    datacenter::scenario(Load::Idle, true, smoke),
                    datacenter::scenario(Load::Rush, true, smoke),
                    datacenter::scenario(Load::Rush, false, smoke),
                ],
            },
            Workload::AnswersScan => {
                let (mut ds, nodes, ppn) = if smoke {
                    let size = 4u64 << 30;
                    let records = size / hpcbd_workloads::stackexchange::RECORD_BYTES;
                    (
                        StackExchangeDataset::new(0xA125, size, records / 20_000),
                        vec![1u32, 2],
                        4,
                    )
                } else {
                    (bench_answers::dataset(), vec![1u32, 2, 4, 6, 8], 8)
                };
                // Another seed keeps the dump's size and re-draws its posts.
                if seed != DEFAULT_SEED {
                    let drawn = hpcbd_simnet::det_hash(&(seed, self.name()));
                    ds = StackExchangeDataset::new(drawn, ds.logical_size, ds.scale);
                }
                Inputs::Answers { ds, nodes, ppn }
            }
        }
    }
}

/// A workload's inputs.
pub enum Inputs {
    /// Fig. 3: placement, per-rank element counts, MPI iterations.
    Reduce {
        /// Ranks and executors.
        placement: Placement,
        /// f32 elements per rank, one row each.
        sizes: Vec<usize>,
        /// Timed MPI reduce iterations.
        iters: u32,
    },
    /// Fig. 6: graph and node counts.
    Pagerank {
        /// Sample graph, scale and iterations.
        input: PagerankInput,
        /// Node counts, one row each.
        nodes: Vec<u32>,
        /// Processes per node.
        ppn: u32,
    },
    /// The busy day: idle, contended and contended-nopreempt sections.
    Datacenter {
        /// One scenario per section.
        specs: Vec<ScenarioSpec>,
    },
    /// Fig. 4: dataset and node counts.
    Answers {
        /// The AnswersCount dump.
        ds: StackExchangeDataset,
        /// Node counts, one row each.
        nodes: Vec<u32>,
        /// Processes per node.
        ppn: u32,
    },
}

/// One Fig. 6 row: MPI, Spark and Spark-RDMA times and ranks.
pub struct PagerankRow {
    nodes: u32,
    mpi: (f64, Vec<f64>),
    spark: (f64, Vec<(u32, f64)>),
    rdma: (f64, Vec<(u32, f64)>),
}

/// One Fig. 4 row: `(seconds, average answers per question)` per arm.
pub struct AnswersRow {
    procs: u32,
    openmp: Option<(f64, f64)>,
    mpi: Result<(f64, f64), String>,
    spark: (f64, f64),
    hadoop: (f64, f64),
}

/// What a workload run produced.
pub enum Results {
    /// Per size: elements and the MPI, Spark and Spark-RDMA points.
    Reduce(Vec<(usize, [ReducePoint; 3])>),
    /// Per node count.
    Pagerank(Vec<PagerankRow>),
    /// Per section: name and outcome.
    Datacenter(Vec<(&'static str, ScenarioOutcome)>),
    /// Per node count.
    Answers(Vec<AnswersRow>),
}

impl Inputs {
    /// Simulations one run performs (one per runtime call).
    pub fn simulations(&self) -> u64 {
        match self {
            Inputs::Reduce { sizes, .. } => 3 * sizes.len() as u64,
            Inputs::Pagerank { nodes, .. } => 3 * nodes.len() as u64,
            Inputs::Datacenter { specs } => specs.len() as u64,
            Inputs::Answers { nodes, .. } => {
                3 * nodes.len() as u64 + nodes.iter().filter(|&&n| n == 1).count() as u64
            }
        }
    }

    /// Run the workload, one span per runtime or scheduler call.
    pub fn run(&self, tr: &mut Tracer) -> Results {
        match self {
            Inputs::Reduce {
                placement,
                sizes,
                iters,
            } => Results::Reduce(
                sizes
                    .iter()
                    .map(|&elements| {
                        let p = *placement;
                        let mpi = tr.span("minimpi", || mpi_reduce_latency(p, elements, *iters));
                        let spark =
                            tr.span("minspark", || spark_reduce_latency(p, elements, false));
                        let rdma = tr.span("minspark", || spark_reduce_latency(p, elements, true));
                        (elements, [mpi, spark, rdma])
                    })
                    .collect(),
            ),
            Inputs::Pagerank { input, nodes, ppn } => Results::Pagerank(
                nodes
                    .iter()
                    .map(|&n| {
                        let p = Placement::new(n, *ppn);
                        let tuned = SparkVariant::BigDataBenchTuned;
                        PagerankRow {
                            nodes: n,
                            mpi: tr.span("minimpi", || mpi_pagerank(input, p)),
                            spark: tr.span("minspark", || {
                                spark_pagerank(input, p, tuned, ShuffleEngine::Socket)
                            }),
                            rdma: tr.span("minspark", || {
                                spark_pagerank(input, p, tuned, ShuffleEngine::Rdma)
                            }),
                        }
                    })
                    .collect(),
            ),
            Inputs::Datacenter { specs } => Results::Datacenter(
                specs
                    .iter()
                    .map(|spec| {
                        let out = tr.span(sched_layer(spec.name), || hpcbd_sched::run(spec));
                        (spec.name, out)
                    })
                    .collect(),
            ),
            Inputs::Answers { ds, nodes, ppn } => Results::Answers(
                nodes
                    .iter()
                    .map(|&n| {
                        let p = Placement::new(n, *ppn);
                        let procs = p.total();
                        // As in Fig. 4: OpenMP only on one node, at most
                        // 16 threads.
                        let openmp = (n == 1)
                            .then(|| tr.span("minomp", || openmp_answers(ds, procs.min(16))));
                        AnswersRow {
                            procs,
                            openmp,
                            mpi: tr.span("minimpi", || mpi_answers(ds, p)),
                            spark: tr.span("minspark", || spark_answers(ds, p)),
                            hadoop: tr.span("minmapreduce", || hadoop_answers(ds, p)),
                        }
                    })
                    .collect(),
            ),
        }
    }

    /// The run's output as the figure renders it: the table as CSV, or
    /// the busy day's section tables.
    pub fn render(&self, results: &Results) -> String {
        match (self, results) {
            (Inputs::Reduce { placement, .. }, Results::Reduce(rows)) => {
                let mut t = ResultTable::new(
                    format!(
                        "Fig. 3 — Reduce microbenchmark, {} processes ({} nodes x {} ppn)",
                        placement.total(),
                        placement.nodes,
                        placement.per_node
                    ),
                    &["bytes", "MPI", "Spark", "Spark-RDMA"],
                );
                for (elements, [mpi, spark, rdma]) in rows {
                    t.push_row(vec![
                        (elements * 4).to_string(),
                        fmt_micros(mpi.latency_us),
                        fmt_micros(spark.latency_us),
                        fmt_micros(rdma.latency_us),
                    ]);
                }
                t.to_csv()
            }
            (Inputs::Pagerank { input, ppn, .. }, Results::Pagerank(rows)) => {
                let mut t = ResultTable::new(
                    format!(
                        "Fig. 6 — BigDataBench PageRank, {} logical vertices, {ppn} procs/node",
                        input.graph.vertices as u64 * input.scale
                    ),
                    &["nodes", "MPI", "Spark", "Spark-RDMA"],
                );
                for r in rows {
                    t.push_row(vec![
                        r.nodes.to_string(),
                        fmt_secs(r.mpi.0),
                        fmt_secs(r.spark.0),
                        fmt_secs(r.rdma.0),
                    ]);
                }
                t.to_csv()
            }
            (Inputs::Datacenter { .. }, Results::Datacenter(sections)) => sections
                .iter()
                .map(|(name, out)| datacenter::render(out, name))
                .collect(),
            (Inputs::Answers { ppn, .. }, Results::Answers(rows)) => {
                let mut t = ResultTable::new(
                    format!("Fig. 4 — StackExchange AnswersCount, 80 GB, {ppn} processes/node"),
                    &["processes", "OpenMP", "MPI", "Spark", "Hadoop"],
                );
                for r in rows {
                    t.push_row(vec![
                        r.procs.to_string(),
                        r.openmp
                            .map_or_else(|| "-".to_string(), |(s, _)| fmt_secs(s)),
                        match &r.mpi {
                            Ok((s, _)) => fmt_secs(*s),
                            Err(_) => "fail (>MAX_INT chunk)".to_string(),
                        },
                        fmt_secs(r.spark.0),
                        fmt_secs(r.hadoop.0),
                    ]);
                }
                t.to_csv()
            }
            _ => unreachable!("results come from running these inputs"),
        }
    }

    /// Check every result against the workload's invariants, which hold
    /// at any seed.
    pub fn check(&self, results: &Results) -> Checks {
        let mut c = Checks::new(self.simulations());
        match (self, results) {
            (Inputs::Reduce { .. }, Results::Reduce(rows)) => check_reduce(&mut c, rows),
            (Inputs::Pagerank { input, .. }, Results::Pagerank(rows)) => {
                check_pagerank(&mut c, input, rows)
            }
            (Inputs::Datacenter { specs }, Results::Datacenter(sections)) => {
                check_datacenter(&mut c, specs, sections)
            }
            (Inputs::Answers { ds, .. }, Results::Answers(rows)) => check_answers(&mut c, ds, rows),
            _ => unreachable!("results come from running these inputs"),
        }
        c
    }
}

/// The span name of a busy-day section.
fn sched_layer(section: &str) -> &'static str {
    match section {
        "idle" => "sched.idle",
        "contended" => "sched.contended",
        "contended-nopreempt" => "sched.nopreempt",
        other => panic!("unknown busy-day section {other:?}"),
    }
}

/// FNV-1a over the rendered output, as `BENCH_simnet.json` digests
/// its tables.
pub fn digest(rendered: &str) -> u64 {
    rendered.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Failed simulations of one run, by index, with the reasons.
#[derive(Debug)]
pub struct Checks {
    simulations: u64,
    failed: BTreeSet<u64>,
    /// One line per failed check.
    pub reasons: Vec<String>,
}

impl Checks {
    /// No failures yet among `simulations`.
    pub fn new(simulations: u64) -> Checks {
        Checks {
            simulations,
            failed: BTreeSet::new(),
            reasons: Vec::new(),
        }
    }

    /// Simulations checked.
    pub fn simulations(&self) -> u64 {
        self.simulations
    }

    /// Simulations that failed a check.
    pub fn failed(&self) -> u64 {
        self.failed.len() as u64
    }

    /// Fail simulation `sim` unless `ok`.
    pub fn expect(&mut self, sim: u64, ok: bool, reason: impl FnOnce() -> String) {
        if !ok {
            self.failed.insert(sim);
            self.reasons.push(format!("simulation {sim}: {}", reason()));
        }
    }

    /// Fail every simulation of the run (its output as a whole is wrong).
    pub fn fail_all(&mut self, reason: String) {
        self.failed.extend(0..self.simulations);
        self.reasons.push(reason);
    }

    /// Fail the whole run unless `rendered` has the pinned digest.
    pub fn expect_digest(&mut self, pinned: Option<u64>, rendered: &str) {
        let got = digest(rendered);
        if let Some(want) = pinned.filter(|&want| want != got) {
            self.fail_all(format!(
                "output digest {got:016x} differs from the pinned {want:016x}"
            ));
        }
    }
}

fn positive(x: f64) -> bool {
    x.is_finite() && x > 0.0
}

fn check_reduce(c: &mut Checks, rows: &[(usize, [ReducePoint; 3])]) {
    let mut prev_mpi = 0.0;
    for (i, (elements, [mpi, spark, rdma])) in rows.iter().enumerate() {
        let base = 3 * i as u64;
        let bytes = *elements as u64 * 4;
        for (k, p) in [mpi, spark, rdma].into_iter().enumerate() {
            c.expect(
                base + k as u64,
                p.bytes == bytes && positive(p.latency_us),
                || format!("{elements} elements: point {p:?}"),
            );
        }
        // MPI grows with the message; Spark's driver round trip dwarfs it
        // at every size; RDMA cannot help a reduce action, which shuffles
        // nothing.
        c.expect(base, mpi.latency_us >= prev_mpi, || {
            format!("MPI latency fell to {} us at {bytes} B", mpi.latency_us)
        });
        prev_mpi = mpi.latency_us;
        c.expect(base + 1, spark.latency_us > 10.0 * mpi.latency_us, || {
            format!("Spark {} us vs MPI {} us", spark.latency_us, mpi.latency_us)
        });
        let ratio = spark.latency_us / rdma.latency_us;
        c.expect(base + 2, (0.8..1.25).contains(&ratio), || {
            format!("Spark/Spark-RDMA ratio {ratio}")
        });
    }
}

fn check_pagerank(c: &mut Checks, input: &PagerankInput, rows: &[PagerankRow]) {
    let reference = pagerank_reference(&input.graph, input.iters);
    let dataflow = spark_semantics_oracle(&input.graph, input.iters);
    let close = |a: f64, b: f64| (a - b).abs() < 1e-9;
    for (i, r) in rows.iter().enumerate() {
        let base = 3 * i as u64;
        let (t, ranks) = &r.mpi;
        let ok = positive(*t)
            && ranks.len() == reference.len()
            && ranks.iter().zip(&reference).all(|(a, b)| close(*a, *b));
        c.expect(base, ok, || {
            format!("{} nodes: MPI ranks differ from the reference", r.nodes)
        });
        for (k, (t, ranks)) in [&r.spark, &r.rdma].into_iter().enumerate() {
            let ok = positive(*t)
                && ranks.len() == dataflow.len()
                && ranks
                    .iter()
                    .all(|(v, x)| dataflow.get(v).is_some_and(|o| close(*x, *o)));
            c.expect(base + 1 + k as u64, ok, || {
                format!(
                    "{} nodes: Spark ranks differ from the dataflow oracle",
                    r.nodes
                )
            });
        }
    }
}

fn check_datacenter(c: &mut Checks, specs: &[ScenarioSpec], sections: &[(&str, ScenarioOutcome)]) {
    for (i, ((name, out), spec)) in sections.iter().zip(specs).enumerate() {
        let sim = i as u64;
        let completed: u64 = out.stats.queues.iter().map(|q| q.completed).sum();
        c.expect(sim, out.offered > 0 && completed == out.offered, || {
            format!(
                "{name}: {completed} of {} offered jobs completed",
                out.offered
            )
        });
        for q in &out.stats.queues {
            let n = q.completed as usize;
            let ok = q.submitted == q.completed
                && q.latency_ns.len() == n
                && q.wait_ns.len() == n
                && q.wait_ns.iter().zip(&q.latency_ns).all(|(w, l)| w <= l)
                && q.slo_met <= q.completed
                && q.local + q.rack + q.remote == q.tasks_dispatched
                && q.preemptions <= q.kills_sent
                && (spec.preemption || q.kills_sent == 0);
            c.expect(sim, ok, || {
                format!("{name}: queue {} counters {q:?}", q.name)
            });
        }
    }
}

fn check_answers(c: &mut Checks, ds: &StackExchangeDataset, rows: &[AnswersRow]) {
    let (q, a) = ds.oracle_counts(0, ds.logical_size);
    let oracle = a as f64 / q as f64;
    let agrees = |(t, avg): (f64, f64)| positive(t) && (avg - oracle).abs() / oracle < 0.02;
    let mut sim = 0u64;
    for r in rows {
        if let Some(omp) = r.openmp {
            c.expect(sim, agrees(omp), || {
                format!("{} procs: OpenMP {omp:?} vs oracle {oracle}", r.procs)
            });
            sim += 1;
        }
        // MPI-IO reads one chunk per rank with an `int` count, so it must
        // fail exactly when a chunk exceeds MAX_INT.
        let too_big = ds.logical_size.div_ceil(r.procs as u64) > i32::MAX as u64;
        let ok = match &r.mpi {
            Ok(res) => !too_big && agrees(*res),
            Err(e) => too_big && e.contains("MAX_INT"),
        };
        c.expect(sim, ok, || format!("{} procs: MPI {:?}", r.procs, r.mpi));
        for (k, (arm, res)) in [("Spark", r.spark), ("Hadoop", r.hadoop)]
            .into_iter()
            .enumerate()
        {
            c.expect(sim + 1 + k as u64, agrees(res), || {
                format!("{} procs: {arm} {res:?} vs oracle {oracle}", r.procs)
            });
        }
        sim += 3;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcbd_core::bench_answers::figure4;
    use hpcbd_core::bench_pagerank::figure6;
    use hpcbd_core::bench_reduce::figure3;

    fn smoke(w: Workload, seed: u64) -> (Inputs, String, Checks) {
        let inputs = w.setup(seed, true);
        let results = inputs.run(&mut Tracer::off());
        let rendered = inputs.render(&results);
        let checks = inputs.check(&results);
        (inputs, rendered, checks)
    }

    #[test]
    fn fnv1a_matches_the_published_vectors() {
        assert_eq!(digest(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(digest("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(digest("foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("fig3"), None);
    }

    #[test]
    fn pins_apply_at_paper_scale_and_the_default_seed() {
        assert!(Workload::PagerankIter.pinned_digest(7, false).is_some());
        assert!(Workload::AnswersScan.pinned_digest(7, false).is_none());
        assert!(Workload::AnswersScan
            .pinned_digest(DEFAULT_SEED, false)
            .is_some());
        assert!(Workload::AnswersScan
            .pinned_digest(DEFAULT_SEED, true)
            .is_none());
    }

    #[test]
    fn smoke_runs_render_the_figures_quick_tables() {
        let quick = [
            (
                Workload::ReduceSweep,
                figure3(Placement::new(2, 4), &[1, 256, 16384], 5).to_csv(),
            ),
            (
                Workload::PagerankIter,
                figure6(&PagerankInput::small(), &[1, 2], 4).to_csv(),
            ),
            (
                Workload::AnswersScan,
                figure4(
                    &StackExchangeDataset::new(0xA125, 4 << 30, (4 << 30) / 800 / 20_000),
                    &[1, 2],
                    4,
                )
                .to_csv(),
            ),
            (
                Workload::DatacenterDay,
                datacenter::run_all(true)
                    .iter()
                    .map(|(name, out)| datacenter::render(out, name))
                    .collect(),
            ),
        ];
        for (w, want) in quick {
            let (inputs, rendered, checks) = smoke(w, DEFAULT_SEED);
            assert_eq!(rendered, want, "{}", w.name());
            assert_eq!(checks.simulations(), inputs.simulations());
            assert_eq!(checks.failed(), 0, "{}: {:?}", w.name(), checks.reasons);
        }
    }

    #[test]
    fn smoke_invariants_hold_at_another_seed() {
        for w in Workload::ALL {
            let (_, _, checks) = smoke(w, 12345);
            assert_eq!(checks.failed(), 0, "{}: {:?}", w.name(), checks.reasons);
        }
    }

    #[test]
    fn the_seed_redraws_the_dataset_only() {
        let posts = |seed| match Workload::AnswersScan.setup(seed, true) {
            Inputs::Answers { ds, .. } => ds.oracle_counts(0, ds.logical_size),
            _ => unreachable!(),
        };
        assert_ne!(posts(1), posts(2));
        for w in [
            Workload::ReduceSweep,
            Workload::PagerankIter,
            Workload::DatacenterDay,
        ] {
            let (_, a, _) = smoke(w, 1);
            let (_, b, _) = smoke(w, 2);
            assert_eq!(a, b, "{}", w.name());
        }
    }

    /// A scheduler defect the busy day shows under another arrival draw:
    /// a slot worker receives a message tag it does not expect and
    /// panics. Run with `cargo test --release -- --ignored`.
    #[test]
    #[ignore = "known defect: hpcbd-sched slot worker panics on an unexpected tag"]
    fn busy_day_survives_another_arrival_seed() {
        for (load, preemption) in [(Load::Idle, true), (Load::Rush, true), (Load::Rush, false)] {
            let mut spec = datacenter::scenario(load, preemption, false);
            spec.seed = hpcbd_simnet::det_hash(&(3u64, "datacenter_day"));
            eprintln!("section {} seed {:#x}", spec.name, spec.seed);
            let out = hpcbd_sched::run(&spec);
            let completed: u64 = out.stats.queues.iter().map(|q| q.completed).sum();
            assert_eq!(completed, out.offered);
        }
    }

    #[test]
    fn answers_scan_matches_its_pin_and_rejects_a_perturbed_table() {
        let w = Workload::AnswersScan;
        let inputs = w.setup(DEFAULT_SEED, false);
        let rendered = inputs.render(&inputs.run(&mut Tracer::off()));
        let pinned = w.pinned_digest(DEFAULT_SEED, false);

        let mut good = Checks::new(inputs.simulations());
        good.expect_digest(pinned, &rendered);
        assert_eq!(good.failed(), 0, "{:?}", good.reasons);

        // One digit of one cell changed.
        let at = rendered.rfind('s').expect("a seconds cell") - 1;
        let mut perturbed = rendered.clone().into_bytes();
        perturbed[at] = if perturbed[at] == b'9' {
            b'8'
        } else {
            perturbed[at] + 1
        };
        let perturbed = String::from_utf8(perturbed).expect("ascii digit swap");
        let mut bad = Checks::new(inputs.simulations());
        bad.expect_digest(pinned, &perturbed);
        assert_eq!(bad.failed(), inputs.simulations());
        assert!(bad.reasons[0].contains("differs from the pinned"));
    }

    #[test]
    fn a_broken_result_fails_its_simulation() {
        let rows = vec![(
            1usize,
            [
                ReducePoint {
                    bytes: 4,
                    latency_us: 2.0,
                },
                ReducePoint {
                    bytes: 4,
                    latency_us: 3.0,
                },
                ReducePoint {
                    bytes: 4,
                    latency_us: 3.0,
                },
            ],
        )];
        let mut c = Checks::new(3);
        check_reduce(&mut c, &rows);
        assert_eq!(c.failed(), 1, "Spark within 10x of MPI: {:?}", c.reasons);
    }
}
