//! End-to-end and per-layer benchmark of the parallel-dp cordon engine.
//!
//! See `perfbench/README.md` for the workloads, the metrics, and which layer
//! metric is expected to move which end-to-end metric.

pub mod alloc;
pub mod bench;
pub mod trace;
pub mod workloads;

#[global_allocator]
static GLOBAL: alloc::CountingAllocator = alloc::CountingAllocator;
