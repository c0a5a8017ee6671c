//! `hpcbd-perfbench` — the host-performance benchmark of the simulator.
//!
//! The `hpcbd-perfbench` binary runs one workload once, in a fresh
//! process, and prints one JSON line; `run.py` beside this crate runs it
//! repeatedly and reports medians. See `NOTES.md` for the workloads, the
//! metrics and the layer each metric belongs to.

pub mod os;
pub mod trace;
pub mod workloads;
