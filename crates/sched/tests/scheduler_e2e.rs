//! End-to-end scheduler tests: the full submit/dispatch/ack protocol
//! through the simnet engine, including preemption accounting, delay
//! scheduling and run-to-run determinism.

use std::sync::Arc;

use hpcbd_sched::{
    factory, quantile_ns, run, run_trace, JobSpec, QueueSpec, RateProcess, ScenarioOutcome,
    ScenarioSpec, Segment, SourceSpec, TaskSpec, Wave,
};
use hpcbd_simnet::{NodeId, SimDuration, Work};

/// A task that charges `ms` of compute per segment, `segments` times.
fn compute_task(ms: u64, segments: usize, preferred: Option<NodeId>) -> TaskSpec {
    let seg: Segment = Arc::new(move |ctx, _env| {
        // Comet's effective scalar rate is 3 GFlop/s per core.
        ctx.compute(Work::flops(3.0e6 * ms as f64), 1.0);
    });
    TaskSpec {
        segments: vec![seg; segments],
        preferred,
        preemptable: true,
    }
}

fn one_queue_spec(preemption: bool) -> ScenarioSpec {
    ScenarioSpec {
        name: "test",
        nodes: 2,
        per_node: 2,
        rack_size: 2,
        horizon_s: 1.0,
        seed: 1,
        locality_delay: SimDuration::from_millis(50),
        preemption,
        queues: vec![QueueSpec::new("only", 1)],
        sources: vec![],
    }
}

fn job(queue: &'static str, waves: Vec<Wave>) -> JobSpec {
    JobSpec {
        template: "test/compute",
        queue,
        tenant: "t0",
        waves,
    }
}

#[test]
fn elastic_jobs_complete_with_wave_barriers() {
    let spec = one_queue_spec(false);
    let trace: Vec<(u64, JobSpec)> = (0..3)
        .map(|i| {
            (
                i * 1_000_000,
                job(
                    "only",
                    vec![
                        Wave {
                            tasks: vec![compute_task(10, 1, None), compute_task(10, 1, None)],
                            gang: false,
                        },
                        Wave {
                            tasks: vec![compute_task(5, 1, None), compute_task(5, 1, None)],
                            gang: false,
                        },
                    ],
                ),
            )
        })
        .collect();
    let out = run_trace(&spec, trace);
    let q = &out.stats.queues[0];
    assert_eq!(q.submitted, 3);
    assert_eq!(q.completed, 3);
    assert_eq!(q.tasks_dispatched, 12);
    assert_eq!(q.latency_ns.len(), 3);
    // Two barrier-separated waves of >= 10 + 5 ms of compute.
    assert!(q.latency_ns.iter().all(|l| *l >= 15_000_000));
    assert_eq!(q.preemptions, 0);
    assert_eq!(q.requeues, 0);
    assert!(out.stats.fairness_x1000.is_some());
}

#[test]
fn gang_wave_allocates_atomically() {
    let mut spec = one_queue_spec(false);
    spec.nodes = 2;
    spec.per_node = 2;
    // A 4-wide gang on a 4-slot cluster: must wait for all slots.
    let trace = vec![
        (
            0,
            job(
                "only",
                vec![Wave {
                    tasks: vec![compute_task(20, 1, None); 2],
                    gang: false,
                }],
            ),
        ),
        (
            1_000_000,
            job(
                "only",
                vec![Wave {
                    tasks: vec![compute_task(10, 1, None); 4],
                    gang: true,
                }],
            ),
        ),
    ];
    let out = run_trace(&spec, trace);
    let q = &out.stats.queues[0];
    assert_eq!(q.completed, 2);
    assert_eq!(q.tasks_dispatched, 6);
    // The gang could not start until the elastic job's ~20 ms tasks
    // finished, so its latency includes that queueing delay.
    assert!(
        q.latency_ns[1] >= 28_000_000,
        "gang latency {:?}",
        q.latency_ns
    );
}

/// Preemption accounting: preempted work is re-queued exactly once per
/// kill, no slot leaks, and every job still completes.
#[test]
fn preemption_requeues_exactly_once_and_leaks_no_slots() {
    let mut spec = one_queue_spec(true);
    spec.queues = vec![QueueSpec::new("batch", 1), QueueSpec::new("urgent", 1)];
    // Batch fills all 4 slots with long checkpointed tasks; urgent
    // arrives needing its fair share (2 slots).
    let trace = vec![
        (
            0,
            job(
                "batch",
                vec![Wave {
                    tasks: vec![compute_task(20, 10, None); 4],
                    gang: false,
                }],
            ),
        ),
        (
            50_000_000,
            job(
                "urgent",
                vec![Wave {
                    tasks: vec![compute_task(20, 1, None); 2],
                    gang: false,
                }],
            ),
        ),
    ];
    let out = run_trace(&spec, trace);
    let batch = &out.stats.queues[0];
    let urgent = &out.stats.queues[1];
    assert_eq!(batch.completed, 1);
    assert_eq!(urgent.completed, 1);
    assert!(urgent.wait_ns[0] > 0, "urgent had to wait for a kill");
    // Two slots were reclaimed: each kill produced exactly one re-queue
    // and one re-dispatch.
    assert_eq!(batch.preemptions, 2, "stats: {batch:?}");
    assert_eq!(batch.requeues, batch.preemptions);
    assert_eq!(batch.kills_sent, batch.preemptions);
    assert_eq!(batch.tasks_dispatched, 4 + batch.requeues);
    // Urgent jumped the line: its latency is far below the batch job's.
    assert!(urgent.latency_ns[0] < batch.latency_ns[0]);
}

#[test]
fn no_preemption_means_no_kills() {
    let mut spec = one_queue_spec(false);
    spec.queues = vec![QueueSpec::new("batch", 1), QueueSpec::new("urgent", 1)];
    let trace = vec![
        (
            0,
            job(
                "batch",
                vec![Wave {
                    tasks: vec![compute_task(20, 10, None); 4],
                    gang: false,
                }],
            ),
        ),
        (
            50_000_000,
            job(
                "urgent",
                vec![Wave {
                    tasks: vec![compute_task(20, 1, None); 2],
                    gang: false,
                }],
            ),
        ),
    ];
    let out = run_trace(&spec, trace);
    let batch = &out.stats.queues[0];
    let urgent = &out.stats.queues[1];
    assert_eq!(batch.kills_sent + batch.preemptions + batch.requeues, 0);
    assert_eq!(urgent.completed, 1);
    // Without preemption the urgent job waits out the batch tasks.
    assert!(
        urgent.wait_ns[0] >= 100_000_000,
        "wait {:?}",
        urgent.wait_ns
    );
}

#[test]
fn delay_scheduling_escalates_node_rack_any() {
    let mut spec = one_queue_spec(false);
    spec.nodes = 2;
    spec.per_node = 1;
    spec.rack_size = 1; // two single-node racks: rack level never helps
    spec.locality_delay = SimDuration::from_millis(50);
    let trace = vec![
        (
            0,
            job(
                "only",
                vec![Wave {
                    tasks: vec![compute_task(400, 1, Some(NodeId(0)))],
                    gang: false,
                }],
            ),
        ),
        // Prefers busy node 0; node 1 is free the whole time.
        (
            10_000_000,
            job(
                "only",
                vec![Wave {
                    tasks: vec![compute_task(10, 1, Some(NodeId(0)))],
                    gang: false,
                }],
            ),
        ),
    ];
    let out = run_trace(&spec, trace);
    let q = &out.stats.queues[0];
    assert_eq!(q.completed, 2);
    assert_eq!(q.local, 1, "first job ran on its preferred node");
    assert_eq!(q.remote, 1, "second job escalated to the free node");
    // The second job waited the full two delay levels (2 x 50 ms) before
    // giving up on locality — not the 400 ms the busy node would cost.
    // Waits are recorded in completion order: the short second job
    // finishes first, so its wait is at index 0.
    let wait = q.wait_ns[0];
    assert!(
        (100_000_000..200_000_000).contains(&wait),
        "wait {wait} outside the delay-scheduling window"
    );
}

fn mixed_scenario(preemption: bool) -> ScenarioSpec {
    ScenarioSpec {
        name: "mixed",
        nodes: 4,
        per_node: 2,
        rack_size: 2,
        horizon_s: 60.0,
        seed: 42,
        locality_delay: SimDuration::from_millis(100),
        preemption,
        queues: vec![
            QueueSpec::new("interactive", 3).slo_ns(2_000_000_000),
            QueueSpec::new("batch", 1),
        ],
        sources: vec![
            SourceSpec {
                name: "queries",
                process: RateProcess::Diurnal {
                    base_per_s: 0.05,
                    peak_per_s: 0.6,
                    period_s: 60.0,
                },
                factory: factory(|k| JobSpec {
                    template: "query",
                    queue: "interactive",
                    tenant: if k % 2 == 0 { "web" } else { "mobile" },
                    waves: vec![Wave {
                        tasks: (0..3)
                            .map(|i| compute_task(30, 2, Some(NodeId((k as u32 + i) % 4))))
                            .collect(),
                        gang: false,
                    }],
                }),
            },
            SourceSpec {
                name: "backbone",
                process: RateProcess::Poisson { rate_per_s: 0.05 },
                factory: factory(|_k| JobSpec {
                    template: "backbone",
                    queue: "batch",
                    tenant: "science",
                    waves: vec![Wave {
                        tasks: vec![compute_task(200, 1, None); 4],
                        gang: true,
                    }],
                }),
            },
        ],
    }
}

fn digest(out: &ScenarioOutcome) -> String {
    let mut s = format!(
        "offered={} makespan={} fairness={:?} slots={}",
        out.offered, out.makespan_ns, out.stats.fairness_x1000, out.stats.total_slots
    );
    for q in &out.stats.queues {
        s.push_str(&format!(
            "\n{} sub={} done={} disp={} loc={}/{}/{} kills={} pre={} req={} slo={} share={} lat={:?} wait={:?}",
            q.name,
            q.submitted,
            q.completed,
            q.tasks_dispatched,
            q.local,
            q.rack,
            q.remote,
            q.kills_sent,
            q.preemptions,
            q.requeues,
            q.slo_met,
            q.share_slot_ns,
            q.latency_ns,
            q.wait_ns,
        ));
    }
    s
}

/// The determinism claim: rerunning a scenario reproduces its
/// schedules, latencies and counters bit for bit.
#[test]
fn mixed_scenario_is_identical_across_runs() {
    let spec = mixed_scenario(true);
    let base = digest(&run(&spec));
    assert!(base.contains("done="), "sanity: {base}");
    assert_eq!(base, digest(&run(&spec)), "rerun diverged");
}

#[test]
fn mixed_scenario_latency_quantiles_are_ordered() {
    let spec = mixed_scenario(true);
    let out = run(&spec);
    let q = &out.stats.queues[0];
    assert!(q.completed > 5, "diurnal source offered too little");
    let p50 = quantile_ns(&q.latency_ns, 0.5);
    let p99 = quantile_ns(&q.latency_ns, 0.99);
    let p999 = quantile_ns(&q.latency_ns, 0.999);
    assert!(p50 > 0 && p50 <= p99 && p99 <= p999);
}
