//! Fault tolerance, both ways (the paper's Sec. VI-D): kill an HDFS
//! datanode under a reader and an executor under a Spark job, and watch
//! both runs finish with correct answers; then contrast with the MPI
//! checkpoint/restart protocol.
//!
//! Run with: `cargo run --example fault_tolerance`

use hpcbd::cluster::Placement;
use hpcbd::minhdfs::{Hdfs, HdfsConfig};
use hpcbd::minimpi::mpirun;
use hpcbd::minspark::{SparkCluster, SparkConfig, StorageLevel};
use hpcbd::simnet::{Checkpointer, NodeId, Sim, SimDuration, SimTime, Topology};

fn main() {
    println!("== Failure injection across the stack ==\n");

    // --- HDFS: a datanode dies; the read fails over transparently. -----
    let mut sim = Sim::new(Topology::comet(3));
    let hdfs = Hdfs::deploy(
        &mut sim,
        HdfsConfig::with_replication(2),
        Some((NodeId(1), SimTime(5_000_000))),
    );
    hdfs.load_file_instant("/data", 512 << 20, None);
    let h = hdfs.clone();
    let reader = sim.spawn(NodeId(0), "reader", move |ctx| {
        ctx.sleep(SimDuration::from_millis(50)); // let the failure land
        let bytes = h.read_file(ctx, "/data");
        h.shutdown(ctx);
        bytes
    });
    let mut report = sim.run();
    let bytes = report.result::<u64>(reader);
    println!("HDFS : datanode@node1 killed at t=5ms; read still returned {bytes} bytes");

    // --- Spark: an executor dies mid-job; lineage recomputes. ----------
    let mut config = SparkConfig {
        executors_per_node: 2,
        task_timeout: SimDuration::from_secs(3),
        ..Default::default()
    };
    let _ = &mut config;
    // The app starts at ~0.9s (context startup); kill the executor right
    // between the first and second action so its cached and shuffle
    // state is genuinely lost and must be recomputed from lineage.
    config.fail_executor = Some((1, SimTime(1_300_000_000)));
    let r = SparkCluster::new(2, config).run(|sc| {
        let pairs: Vec<(u32, u64)> = (0..50_000).map(|i| (i % 97, 1)).collect();
        let rdd = sc.parallelize(pairs, 8);
        // A deliberately expensive map keeps the job running across the
        // injected failure.
        let heavy = rdd.map_with_cost(hpcbd::simnet::Work::new(3.0e4, 1.0e4), 16, |kv| *kv);
        let counts = heavy
            .reduce_by_key(4, |a, b| a + b)
            .persist(StorageLevel::MemoryAndDisk);
        let first: u64 = sc.collect(&counts).iter().map(|(_, c)| *c).sum();
        // Re-read the cached RDD after the failure: lost partitions
        // recompute transparently.
        let second: u64 = sc.collect(&counts).iter().map(|(_, c)| *c).sum();
        (first, second)
    });
    println!(
        "Spark: executor 1 killed at t=1.3s; both passes counted {}/{} records, done at {}",
        r.value.0, r.value.1, r.elapsed
    );
    assert_eq!(r.value.0, 50_000);
    assert_eq!(r.value.1, 50_000);

    // --- MPI: coordinated checkpoints + whole-job restart. -------------
    let out = mpirun(Placement::new(2, 2), |rank| {
        let mut ck = Checkpointer::new(2, 8 << 20);
        let mut iter = 0;
        let mut failed = false;
        while iter < 8 {
            rank.ctx()
                .compute(hpcbd::simnet::Work::new(1.0e8, 4.0e8), 1.0);
            ck.after_iteration(rank, iter);
            if iter == 5 && !failed {
                failed = true;
                iter = ck.restart(rank, SimDuration::from_secs(1));
                continue;
            }
            iter += 1;
        }
        rank.now()
    });
    println!(
        "MPI  : rank failure at iteration 5 replayed from the last checkpoint; finished at {}",
        out.elapsed()
    );

    println!("\nLineage recomputes exactly what was lost; checkpointing pays");
    println!("up front and replays whole iterations — the paper's Sec. VI-D.");
}
