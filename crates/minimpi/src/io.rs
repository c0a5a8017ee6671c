//! MPI parallel I/O (MPI-2 style), including its famous limitation.
//!
//! `MPI_File_read_at_all` takes the element count as a C `int`. The paper
//! (Sec. V-C) shows this forces the 80 GB AnswersCount input to be split
//! across **more than 40 processes** — each process's chunk must fit in
//! 2 GB — and calls it "a fundamental issue with the parallel I/Os of MPI
//! that cannot be overcome by using MPI-3 features". [`MpiFile::read_at_all`]
//! reproduces the exact failure mode: a count above `i32::MAX` returns
//! [`MpiIoError::CountOverflow`] instead of reading.
//!
//! Files are opened from the node-local scratch mount (the paper's MPI
//! configuration replicates the input to every node's SSD).

use std::any::Any;
use std::sync::Arc;

use hpcbd_simnet::Mount;

use crate::rank::MpiRank;

/// Errors surfaced by the parallel I/O routines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MpiIoError {
    /// The per-process element count exceeds `i32::MAX` — the `int`-typed
    /// count parameter of the MPI standard cannot express it.
    CountOverflow {
        /// The requested per-process byte count.
        requested: u64,
    },
    /// The file does not exist on this rank's scratch filesystem.
    FileNotFound(String),
}

impl std::fmt::Display for MpiIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MpiIoError::CountOverflow { requested } => write!(
                f,
                "MPI_File_read_at_all count {requested} exceeds MAX_INT ({})",
                i32::MAX
            ),
            MpiIoError::FileNotFound(p) => write!(f, "no such file: {p}"),
        }
    }
}

impl std::error::Error for MpiIoError {}

/// An open parallel file handle.
#[derive(Clone)]
pub struct MpiFile {
    path: String,
    logical_size: u64,
    data: Option<Arc<dyn Any + Send + Sync>>,
}

impl MpiFile {
    /// Logical file size in bytes.
    #[inline]
    pub fn size(&self) -> u64 {
        self.logical_size
    }

    /// Path this handle was opened from.
    #[inline]
    pub fn path(&self) -> &str {
        &self.path
    }

    /// Content handle attached to the file (a `hpcbd-workloads` dataset
    /// sample, for benchmarks that parse what they read).
    pub fn data_as<T: Any + Send + Sync>(&self) -> Option<Arc<T>> {
        self.data.clone().and_then(|d| d.downcast::<T>().ok())
    }

    /// `MPI_File_read_at_all`: collectively read `count` bytes at `offset`
    /// on each rank. Charges the local SSD for the bytes actually read
    /// (reads past EOF truncate). Returns the number of bytes read.
    ///
    /// Fails with [`MpiIoError::CountOverflow`] when `count` cannot be
    /// represented as a C `int`.
    pub fn read_at_all(
        &self,
        rank: &mut MpiRank,
        offset: u64,
        count: u64,
    ) -> Result<u64, MpiIoError> {
        if count > i32::MAX as u64 {
            return Err(MpiIoError::CountOverflow { requested: count });
        }
        let end = (offset + count).min(self.logical_size);
        let actual = end.saturating_sub(offset.min(self.logical_size));
        if actual > 0 {
            rank.ctx().disk_read(actual);
        }
        Ok(actual)
    }

    /// Read the whole file collectively with one even contiguous chunk per
    /// rank — the access pattern of the paper's MPI benchmarks. Returns
    /// this rank's `(offset, len)`.
    ///
    /// Propagates the `int`-count limitation: with too few ranks for a
    /// large file (e.g. 40 or fewer for 80 GB) the per-rank chunk
    /// overflows and the read fails, exactly as on Comet.
    pub fn read_chunked_all(&self, rank: &mut MpiRank) -> Result<(u64, u64), MpiIoError> {
        let n = rank.size() as u64;
        let me = rank.rank() as u64;
        let chunk = self.logical_size.div_ceil(n);
        let offset = (me * chunk).min(self.logical_size);
        let len = chunk.min(self.logical_size - offset);
        let read = self.read_at_all(rank, offset, len.max(1).min(chunk))?;
        debug_assert!(read <= chunk);
        Ok((offset, read))
    }
}

impl MpiRank<'_> {
    /// `MPI_File_open` on the node-local scratch copy of `path`
    /// (collective: includes a barrier, like opening with a communicator).
    pub fn file_open_all(&mut self, path: &str) -> Result<MpiFile, MpiIoError> {
        self.barrier();
        let mount = Mount::Scratch(self.ctx.node());
        let entry = self
            .ctx
            .fs()
            .stat(mount, path)
            .ok_or_else(|| MpiIoError::FileNotFound(path.to_string()))?;
        // Open cost: one metadata request.
        let overhead = self
            .ctx
            .world()
            .topology
            .node(self.ctx.node())
            .spec
            .disk
            .request_overhead;
        self.ctx.advance(overhead);
        Ok(MpiFile {
            path: path.to_string(),
            logical_size: entry.logical_size,
            data: entry.data,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use hpcbd_cluster::Placement;
    use hpcbd_simnet::NodeId;

    fn with_file<T, F>(placement: Placement, size: u64, f: F) -> hpcbd_cluster::SpmdOutput<T>
    where
        T: Send + 'static,
        F: Fn(&mut MpiRank) -> T + Send + Sync + 'static,
    {
        let cluster = hpcbd_cluster::ClusterSpec::comet(placement.nodes);
        let mut sim = hpcbd_simnet::Sim::new(cluster.topology());
        sim.world().fs.replicate_to_scratch(
            (0..placement.nodes).map(NodeId),
            "input.dat",
            size,
            None,
        );
        let job = crate::launch::MpiJob::spawn(&mut sim, placement, f);
        let mut report = sim.run();
        let results = job.results::<T>(&mut report);
        hpcbd_cluster::SpmdOutput { results, report }
    }

    #[test]
    fn open_and_chunked_read_covers_file() {
        let size = 1u64 << 20;
        let out = with_file(Placement::new(2, 2), size, move |rank| {
            let f = rank.file_open_all("input.dat").unwrap();
            assert_eq!(f.size(), size);
            f.read_chunked_all(rank).unwrap()
        });
        let mut total = 0;
        let mut offsets: Vec<u64> = vec![];
        for (off, len) in out.results {
            offsets.push(off);
            total += len;
        }
        assert_eq!(total, size);
        offsets.sort();
        assert_eq!(offsets[0], 0);
    }

    #[test]
    fn count_overflow_reproduces_the_2gb_limit() {
        // One rank reading an 8 GB file must fail: 8 GB > MAX_INT.
        let size = 8u64 << 30;
        let out = with_file(Placement::new(1, 1), size, move |rank| {
            let f = rank.file_open_all("input.dat").unwrap();
            f.read_chunked_all(rank)
        });
        assert_eq!(
            out.results[0],
            Err(MpiIoError::CountOverflow { requested: 8 << 30 })
        );
    }

    #[test]
    fn eighty_gb_needs_more_than_40_ranks() {
        // The paper's exact observation: ceil(80e9 / nranks) must be
        // <= MAX_INT, which first holds at 41 ranks.
        let gb80 = 80u64 << 30;
        assert!(gb80.div_ceil(40) > i32::MAX as u64);
        assert!(gb80.div_ceil(41) <= i32::MAX as u64);
    }

    #[test]
    fn missing_file_is_reported() {
        let out = with_file(Placement::new(1, 2), 10, |rank| {
            rank.file_open_all("not-there").err().map(|e| e.to_string())
        });
        assert!(out.results[0].as_ref().unwrap().contains("no such file"));
    }

    #[test]
    fn read_past_eof_truncates() {
        let out = with_file(Placement::new(1, 1), 100, |rank| {
            let f = rank.file_open_all("input.dat").unwrap();
            f.read_at_all(rank, 80, 50).unwrap()
        });
        assert_eq!(out.results[0], 20);
    }
}
