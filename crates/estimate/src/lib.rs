//! Spatial statistics for join planning.
//!
//! PBSM's formula (1) needs `‖R‖ + ‖S‖` up front, and the paper notes
//! (§3.2.3, quoting [KS 97]) that "computing the number of partitions is
//! generally difficult when the input relations do not refer to base
//! relations of the underlying DBMS. Then, the DBMS has to provide
//! statistics about the intermediate results of operators." This crate is
//! that statistics provider — [`planner`], the cost-based planner:
//!
//! * [`DatasetProfile`] — one input condensed into statistics (cardinality,
//!   coverage, an MBR-size histogram, a tile-occupancy sketch), buildable
//!   from a full scan or a sample,
//! * [`JointEstimate`] — what two profiles say about their join: result
//!   pairs and the duplicates a tile grid or level assignment would add,
//! * [`Planner`] — an analytical per-algorithm cost model (formula (1)
//!   driven by estimated cardinalities included), and ranked [`Plan`]s
//!   behind `sjoin --plan auto`.

pub mod planner;
pub use planner::{
    DatasetProfile, JointEstimate, Plan, PlanAlgo, PlanCandidate, PlanChoice, PlanMode, PlanSpace,
    Planner, Prediction, PROFILE_GRID,
};
