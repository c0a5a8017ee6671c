//! Ablation A4 — fault tolerance (Sec. VI-D): Spark's lineage
//! recomputation vs the HPC checkpoint/restart protocol, on the same
//! iterative workload with one injected failure.

use hpcbd_cluster::Placement;
use hpcbd_core::bench_pagerank::{PagerankInput, SparkVariant};
use hpcbd_minimpi::{mpirun, ReduceOp};
use hpcbd_minspark::{ShuffleEngine, SparkCluster, SparkConfig, StorageLevel};
use hpcbd_simnet::{Checkpointer, SimDuration, SimTime, Work};
use std::sync::Arc;

/// MPI iterative job with coordinated checkpoints; rank behavior after
/// the "failure" at iteration `fail_iter`: whole job restarts from the
/// last checkpoint (relaunch stall + state reload + replay).
fn mpi_with_checkpoint(
    placement: Placement,
    iters: u32,
    interval: u32,
    fail_iter: Option<u32>,
) -> f64 {
    let out = mpirun(placement, move |rank| {
        let state_bytes = 24u64 << 20;
        let mut ck = Checkpointer::new(interval, state_bytes);
        let per_iter = Work::new(2.0e8, 8.0e8);
        let mut iter = 0;
        let mut failed = false;
        while iter < iters {
            rank.ctx().compute(per_iter, 1.0);
            let _ = rank.allreduce(ReduceOp::Sum, &[iter as f64]);
            ck.after_iteration(rank, iter);
            if Some(iter) == fail_iter && !failed {
                failed = true;
                // Whole-job restart: relaunch + reload + replay.
                iter = ck.restart(rank, SimDuration::from_secs(4));
                continue;
            }
            iter += 1;
        }
        rank.now()
    });
    out.results
        .iter()
        .map(|t| t.as_secs_f64())
        .fold(0.0, f64::max)
}

/// Spark PageRank with one executor killed mid-run: the driver detects
/// the loss, invalidates its state, and re-executes only the lost
/// lineage.
fn spark_with_executor_loss(
    input: &PagerankInput,
    placement: Placement,
    fail_at: Option<SimTime>,
) -> f64 {
    let input = input.clone();
    let parts = 32u32;
    let mut config = SparkConfig::with_shuffle(ShuffleEngine::Socket);
    config.executors_per_node = placement.per_node;
    config.task_timeout = SimDuration::from_secs(10);
    if let Some(t) = fail_at {
        config.fail_executor = Some((1, t));
    }
    let file = hpcbd_workloads::graph::EdgeListFile::new((*input.graph).clone(), input.scale);
    let logical_size = file.logical_size();
    SparkCluster::new(placement.nodes, config)
        .with_hdfs(hpcbd_minhdfs::HdfsConfig::default())
        .hdfs_file("/graph/edges", logical_size, None)
        .run(move |sc| {
            let t0 = sc.now();
            let edges = sc.hadoop_file("/graph/edges", Arc::new(file));
            let links = edges
                .group_by_key(parts)
                .persist(StorageLevel::MemoryAndDisk);
            let mut ranks = links.map_values(|_| 1.0f64);
            for _ in 0..input.iters {
                let contribs = links.join(&ranks, parts).values().flat_map_with_cost(
                    hpcbd_simnet::Work::new(8.0, 48.0),
                    24,
                    |(d, r)| {
                        let share = r / d.len() as f64;
                        d.iter().map(|x| (*x, share)).collect()
                    },
                );
                ranks = contribs
                    .reduce_by_key(parts, |a, b| a + b)
                    .map_values(|c| 0.15 + 0.85 * c);
            }
            let _ = sc.count(&ranks);
            (sc.now() - t0).as_secs_f64()
        })
        .value
}

fn main() {
    let args = hpcbd_bench::BenchArgs::parse();
    hpcbd_bench::banner("Ablation A4 (lineage vs checkpoint/restart)");
    let (input, placement, iters) = if args.quick {
        (PagerankInput::small(), Placement::new(2, 4), 6u32)
    } else {
        (PagerankInput::paper(), Placement::new(4, 8), 10)
    };
    let _ = SparkVariant::BigDataBenchTuned;
    hpcbd_bench::run_with_report("ablation_fault", &args, || {
        let spark_clean = spark_with_executor_loss(&input, placement, None);
        // Kill executor 1 midway through the clean runtime (plus the ~0.9s
        // app startup that precedes the measured span).
        let fail_at = SimTime(((0.9 + spark_clean * 0.5) * 1e9) as u64);
        let spark_fault = spark_with_executor_loss(&input, placement, Some(fail_at));
        let mpi_clean = mpi_with_checkpoint(placement, iters, 3, None);
        let mpi_fault = mpi_with_checkpoint(placement, iters, 3, Some(iters / 2));
        let mpi_no_ck_clean = mpi_with_checkpoint(placement, iters, 0, None);
        println!("Spark PageRank          clean: {spark_clean:.3}s   with executor loss: {spark_fault:.3}s  (+{:.0}%)",
            (spark_fault / spark_clean - 1.0) * 100.0);
        println!("MPI iterative           clean: {mpi_clean:.3}s   with rank failure:  {mpi_fault:.3}s  (+{:.0}%)",
            (mpi_fault / mpi_clean - 1.0) * 100.0);
        println!(
            "MPI without checkpoints clean: {mpi_no_ck_clean:.3}s  (checkpoint overhead {:.0}%)",
            (mpi_clean / mpi_no_ck_clean - 1.0) * 100.0
        );
        println!();
        println!("shape: Spark recovers by recomputing only the lost partitions");
        println!("(lineage), paying nothing in the failure-free run; MPI pays the");
        println!("checkpoint tax on every run and replays whole iterations on");
        println!("failure.");
    });
}
