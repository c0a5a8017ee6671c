//! Acceptance test: the harness must *catch* a planted nondeterminism,
//! not just pass clean workloads.
//!
//! The plant is the classic leak this harness exists to find: a reduce
//! that iterates a `std::collections::HashMap` and lets the iteration
//! order — randomized per map instance by `RandomState` — decide the
//! order of simulation-visible operations. Every run permutes the
//! compute schedule, so the lint's very first comparison diverges, and
//! the report must name the first differing event index.

use std::collections::HashMap;

use hpcbd_check::lint_workload;
use hpcbd_simnet::{NodeId, Sim, Topology, Work};

/// A single-process "reduce" whose visible-op order follows HashMap
/// iteration order. 16 distinct durations make any non-identity
/// permutation shift a prefix sum, i.e. move some event's start time.
fn planted_hashmap_reduce() {
    let mut sim = Sim::new(Topology::comet(1));
    sim.spawn(NodeId(0), "reduce", |ctx| {
        let mut acc: HashMap<u64, u64> = HashMap::new();
        for i in 0..16u64 {
            acc.insert(i, i + 1);
        }
        // The planted bug: host hash-seed-dependent iteration order
        // decides the schedule of visible compute operations.
        for v in acc.values() {
            ctx.compute(Work::flops(1.0e6 * *v as f64), 1.0);
        }
    });
    sim.run();
}

#[test]
fn lint_catches_planted_hashmap_iteration_order() {
    let report = lint_workload(planted_hashmap_reduce);
    let d = report
        .divergence
        .expect("lint must catch the planted nondeterminism");
    // The very first skew condition (sequential replay) already exposes
    // a fresh-hash-seed leak.
    assert_eq!(d.condition, "sequential replay");
    assert!(
        d.event_index.is_some(),
        "report must name the first differing event index:\n{}",
        d.render()
    );
    assert!(d.order_key.is_some(), "report must carry the order key");
    let rendered = d.render();
    assert!(rendered.contains("event index:"), "render: {rendered}");
    assert!(rendered.contains("order key:"), "render: {rendered}");
}
