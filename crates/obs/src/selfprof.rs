//! Report-side bridge to the engine's host self-profiler
//! ([`hpcbd_simnet::selfprof`]): folds the counter snapshot into the
//! `host_profile` rows attached to the report's `telemetry` section.
//!
//! Everything here is host-dependent by design (the run wall time is a
//! wall-clock reading), so the section exists to explain *why a BENCH
//! row moved*, not to be compared across runs. It is emitted only when
//! `HPCBD_SELFPROF` is on, keeping default telemetry byte-identical
//! from run to run.

/// Build the `host_profile` rows, or `None` when the self-profiler is
/// off. Rows are the engine's counter snapshot, in
/// [`hpcbd_simnet::HOST_OP_NAMES`] order plus `run_wall_ns` and `runs`.
pub fn host_profile() -> Option<Vec<(String, u64)>> {
    if !hpcbd_simnet::selfprof_enabled() {
        return None;
    }
    Some(
        hpcbd_simnet::selfprof_snapshot()
            .into_iter()
            .map(|(name, v)| (name.to_string(), v))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_rows_follow_the_snapshot() {
        // The profiler flag is process-global; drive it explicitly and
        // restore the off state afterwards.
        hpcbd_simnet::set_selfprof(false);
        assert!(host_profile().is_none());
        hpcbd_simnet::set_selfprof(true);
        let rows = host_profile().expect("profiler on");
        hpcbd_simnet::set_selfprof(false);
        assert_eq!(rows.len(), hpcbd_simnet::HOST_OP_NAMES.len() + 2);
        for (row, &name) in rows.iter().zip(hpcbd_simnet::HOST_OP_NAMES.iter()) {
            assert_eq!(row.0, name);
        }
        assert_eq!(rows[rows.len() - 2].0, "run_wall_ns");
        assert_eq!(rows[rows.len() - 1].0, "runs");
    }
}
