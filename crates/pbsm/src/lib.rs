//! Partition Based Spatial-Merge Join (PBSM).
//!
//! PBSM ([PD 96]) is the divide-&-conquer spatial join for unindexed inputs:
//!
//! 1. **Partitioning** — an equidistant grid of `NT ≥ P` tiles is laid over
//!    the data space; tiles are hashed onto `P` partitions (formula (1):
//!    `P = ⌈t·(‖R‖+‖S‖)·sizeof(KPE)/M⌉`, with the safety factor `t > 1` of
//!    paper §3.2.3). A KPE is *replicated* into every partition owning a tile
//!    its MBR overlaps.
//! 2. **Repartitioning** — partition pairs that exceed memory are split
//!    recursively (the larger side first, §3.2.3) by refining the grid.
//! 3. **Join** — each partition pair is loaded and joined in memory with a
//!    pluggable internal algorithm ([`sweep::InternalAlgo`]).
//! 4. **Duplicate handling** — replication makes duplicate results
//!    unavoidable. The original PBSM sorts the complete candidate set in a
//!    final phase ([`Dedup::SortPhase`]); this paper's contribution is the
//!    online **Reference Point Method** ([`Dedup::ReferencePoint`]): report a
//!    pair only if its reference point lies inside the region of the
//!    partition being processed — at most six extra comparisons, no
//!    materialisation, no blocking.
//!
//! Entry point: [`pbsm_join`]; all phase timings, I/O breakdowns and
//! counters land in [`PbsmStats`].

mod grid;
mod join;

pub use grid::{PartitionMap, RegionChain, TileGrid, TileScheme};
pub use join::{pbsm_join, try_pbsm_join_ctl, Dedup, PbsmConfig, PbsmStats};
