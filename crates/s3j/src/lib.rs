//! Size Separation Spatial Join (S³J), original and with controlled
//! replication.
//!
//! S³J ([KS 97]) partitions each input over a hierarchy of equidistant grids
//! (the levels of an MX-CIF quadtree) and joins them with a synchronized
//! linear scan, avoiding replication entirely:
//!
//! 1. **Partitioning** — each rectangle is assigned a *level* and a
//!    *locational code* and appended to that level's file.
//! 2. **Sorting** — every level file is sorted by locational code
//!    (externally if necessary). Only the scan needs both relations at
//!    once: with [`S3jConfig::threads`] ≥ 2 each relation is partitioned,
//!    then sorted, in a lane of its own.
//! 3. **Join** — a synchronized scan of all level files simulates a pre-order
//!    traversal of the two implicit quadtrees; a partition (one cell's
//!    rectangles) is joined with the other relation's partitions on the
//!    current root path. A heap over the file cursors skips empty partitions
//!    (§4.4.3).
//!
//! The paper's contribution (§4.3): the original covering-cell assignment
//! drops *small* rectangles that merely straddle a grid line into *coarse*
//! levels, where they are tested against nearly everything. **Size
//! separation with replication** assigns each rectangle to the level whose
//! cell size matches its edge lengths (`size_level`) and replicates it into
//! the ≤ 4 cells it overlaps; duplicates in the response set are eliminated
//! online by a modified Reference Point Method: report a pair only when the
//! reference point lies in the cell of the *deeper* of the two partitions.
//!
//! Entry point: [`s3j_join`] with [`S3jConfig`]; measurements in
//! [`S3jStats`].

mod levels;
mod scan;

pub use levels::{rebuild_level_sorted, LevelFiles, LevelRecord};
pub use scan::{s3j_join, try_s3j_join_ctl, S3jConfig, S3jStats, ScanMode};
