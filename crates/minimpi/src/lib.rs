//! `hpcbd-minimpi` — an MPI-like message-passing runtime on `simnet`.
//!
//! Reproduces the MPI surface the paper's benchmarks use (Sec. II-B):
//! SPMD launch (`mpirun`), two-sided point-to-point communication, tuned
//! collectives (binomial broadcast/reduce, recursive-doubling and ring
//! all-reduce, dissemination barrier), and MPI parallel I/O — including
//! the `int`-typed element-count limitation of `MPI_File_read_at_all`
//! that the paper shows forcing more than 40 processes for an 80 GB file.
//!
//! All communication uses the native RDMA transport (MPI on Comet runs
//! verbs for every message), with shared memory for intra-node peers.
//!
//! # Example
//!
//! ```
//! use hpcbd_minimpi::{mpirun, ReduceOp};
//! use hpcbd_cluster::Placement;
//!
//! let out = mpirun(Placement::new(2, 2), |rank| {
//!     let v = vec![rank.rank() as f64; 4];
//!     rank.allreduce(ReduceOp::Sum, &v)
//! });
//! // 0+1+2+3 = 6 in every slot on every rank.
//! assert!(out.results.iter().all(|r| r == &vec![6.0; 4]));
//! ```

#![warn(missing_docs)]

pub mod checkpoint;
pub mod collectives;
pub mod datatype;
pub mod io;
pub mod launch;
pub mod nonblocking;
pub mod rank;
pub mod rma;
pub mod scheduled;
pub mod subcomm;

pub use checkpoint::restart_replayed;
pub use datatype::{MpiScalar, ReduceOp};
pub use io::{MpiFile, MpiIoError};
pub use launch::{mpirun, mpirun_faulty, mpirun_on, MpiJob};
pub use nonblocking::MpiRequest;
pub use rank::MpiRank;
pub use rma::{MpiWin, WinStore};
pub use scheduled::{scheduled_answers, scheduled_pagerank};
pub use subcomm::SubComm;
