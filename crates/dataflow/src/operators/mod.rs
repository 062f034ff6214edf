//! Operator implementations.
//!
//! Every operator is a small struct implementing [`crate::plan::DynOp`]:
//! `execute` downcasts its erased inputs, runs the user function over
//! partitions (in parallel where profitable), and erases its output. Keyed
//! operators shuffle first and account the records that moved partitions.

pub mod aggregate;
pub mod binary;
pub mod elementwise;
pub mod keyed;
pub mod source;

pub use aggregate::{CountOp, GlobalFoldOp};
pub use binary::{
    BroadcastMapOp, CoGroupOp, CrossOp, IndexJoinOp, JoinOp, SolutionJoinOp, UnionOp,
};
pub use elementwise::{FilterOp, FlatMapOp, MapOp, MapPartitionOp, MeasuredOp};
pub use keyed::{DistinctByOp, ReduceByKeyOp};
pub use source::{InjectedSource, SourceSlot, VecSource};
