//! Determinism conformance: a PGAS workload with one-sided puts and a
//! global barrier must reproduce its oracle run bit-identically under
//! every determinism-lint condition.

use hpcbd_check::lint_workload;
use hpcbd_cluster::Placement;
use hpcbd_minshmem::shmem_run;

fn pgas_workload() {
    let out = shmem_run(Placement::new(2, 2), |pe| {
        let arr = pe.malloc::<u64>("slots", 4, 0);
        let me = pe.pe();
        // Every PE writes into PE 0's symmetric array, then reads a
        // neighbour's slot back after the barrier.
        pe.put(&arr, me as usize, &[me as u64 * 7], 0);
        pe.barrier_all();
        pe.local_clone(&arr)
    });
    assert_eq!(out.results[0], vec![0, 7, 14, 21]);
}

#[test]
fn shmem_puts_are_deterministic() {
    lint_workload(pgas_workload).assert_clean();
}
