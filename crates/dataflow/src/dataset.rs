//! Partitioned datasets and their type-erased representation.
//!
//! Every dataset flowing through the engine is a [`Partitions<T>`]: `p`
//! vectors of records, one per simulated worker. Operator outputs are cached
//! in the executor as [`Erased`] handles (an `Arc<dyn Any>`), so the dataflow
//! graph itself is untyped while the fluent API stays fully typed.

use std::any::Any;
use std::sync::{Arc, Weak};

use crate::error::{EngineError, Result};

/// Marker trait for record types the engine can process.
///
/// Blanket-implemented: anything `Clone + Send + Sync + 'static` qualifies.
/// `Send + Sync` is required because partition work runs on pool threads;
/// `Clone` because checkpoints, compensation functions and multi-consumer
/// plan edges duplicate records.
pub trait Data: Clone + Send + Sync + 'static {}
impl<T: Clone + Send + Sync + 'static> Data for T {}

/// A dataset split into a fixed number of partitions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partitions<T> {
    parts: Vec<Vec<T>>,
}

impl<T> Partitions<T> {
    /// `p` empty partitions.
    pub fn empty(p: usize) -> Self {
        assert!(p > 0, "a dataset needs at least one partition");
        Partitions { parts: (0..p).map(|_| Vec::new()).collect() }
    }

    /// Wrap pre-partitioned data.
    pub fn from_parts(parts: Vec<Vec<T>>) -> Self {
        assert!(!parts.is_empty(), "a dataset needs at least one partition");
        Partitions { parts }
    }

    /// Distribute `data` round-robin over `p` partitions (a *rebalance* in
    /// dataflow terms — used for un-keyed sources).
    pub fn round_robin(data: Vec<T>, p: usize) -> Self {
        let mut parts = Partitions::empty(p);
        for (i, record) in data.into_iter().enumerate() {
            parts.parts[i % p].push(record);
        }
        parts
    }

    /// Distribute `data` over `p` partitions by the hash partition of each
    /// record's key, so keyed operators on the same key shuffle nothing.
    pub fn keyed<K: std::hash::Hash>(data: Vec<T>, p: usize, key_of: impl Fn(&T) -> K) -> Self {
        let mut parts = Partitions::empty(p);
        for record in data {
            let pid = crate::partition::hash_partition(&key_of(&record), p);
            parts.parts[pid].push(record);
        }
        parts
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        self.parts.len()
    }

    /// Total number of records across all partitions.
    pub fn total_len(&self) -> usize {
        self.parts.iter().map(Vec::len).sum()
    }

    /// True when every partition is empty.
    pub fn is_empty(&self) -> bool {
        self.parts.iter().all(Vec::is_empty)
    }

    /// Records of one partition.
    pub fn partition(&self, pid: usize) -> &[T] {
        &self.parts[pid]
    }

    /// Mutable records of one partition.
    pub fn partition_mut(&mut self, pid: usize) -> &mut Vec<T> {
        &mut self.parts[pid]
    }

    /// Drop the contents of one partition, as a worker failure would.
    /// Returns the number of records lost.
    pub fn clear_partition(&mut self, pid: usize) -> usize {
        let lost = self.parts[pid].len();
        self.parts[pid] = Vec::new();
        lost
    }

    /// Iterate over `(partition_id, records)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &[T])> {
        self.parts.iter().enumerate().map(|(pid, v)| (pid, v.as_slice()))
    }

    /// Iterate over all records, partition by partition.
    pub fn iter_records(&self) -> impl Iterator<Item = &T> {
        self.parts.iter().flatten()
    }

    /// Flatten into a single vector (partition order, then record order).
    pub fn into_vec(self) -> Vec<T> {
        let mut out = Vec::with_capacity(self.total_len());
        for p in self.parts {
            out.extend(p);
        }
        out
    }

    /// Consume into the raw per-partition vectors.
    pub fn into_parts(self) -> Vec<Vec<T>> {
        self.parts
    }

    /// Borrow the raw per-partition vectors.
    pub fn as_parts(&self) -> &[Vec<T>] {
        &self.parts
    }

    /// Sizes of all partitions.
    pub fn partition_sizes(&self) -> Vec<usize> {
        self.parts.iter().map(Vec::len).collect()
    }
}

impl<T> IntoIterator for Partitions<T> {
    type Item = Vec<T>;
    type IntoIter = std::vec::IntoIter<Vec<T>>;

    fn into_iter(self) -> Self::IntoIter {
        self.parts.into_iter()
    }
}

/// A type-erased, cheaply clonable handle to a [`Partitions<T>`] — or, for
/// the few plan edges that carry something else (the solution sets a delta
/// iteration lends its body, an index [`crate::api::DataSet::join_index`]
/// probes), to any
/// shareable value ([`Erased::of`]).
///
/// Plan edges may fan out to several consumers, so executor results are
/// shared behind an `Arc`. Downcasting back to the concrete record type is
/// checked and reports the operator that made the mistake.
#[derive(Clone)]
pub struct Erased {
    inner: Arc<dyn Any + Send + Sync>,
}

impl Erased {
    /// Erase a typed dataset.
    pub fn new<T: Data>(parts: Partitions<T>) -> Self {
        Erased { inner: Arc::new(parts) }
    }

    /// Borrow the typed dataset back.
    pub fn downcast<T: Data>(&self, at: &str) -> Result<&Partitions<T>> {
        self.inner.downcast_ref::<Partitions<T>>().ok_or_else(|| EngineError::TypeMismatch {
            at: at.to_string(),
            expected: std::any::type_name::<T>(),
        })
    }

    /// Recover an owned typed dataset, cloning only if the handle is shared.
    pub fn take<T: Data>(self, at: &str) -> Result<Partitions<T>> {
        let arc = self.inner.downcast::<Partitions<T>>().map_err(|_| {
            EngineError::TypeMismatch { at: at.to_string(), expected: std::any::type_name::<T>() }
        })?;
        Ok(Arc::try_unwrap(arc).unwrap_or_else(|shared| (*shared).clone()))
    }
}

impl Erased {
    /// Erase a value that is not a partitioned dataset.
    pub fn of<T: Any + Send + Sync>(value: T) -> Self {
        Erased { inner: Arc::new(value) }
    }

    /// Borrow a value erased with [`Erased::of`] back.
    pub fn downcast_ref<T: Any>(&self, at: &str) -> Result<&T> {
        self.inner.downcast_ref::<T>().ok_or_else(|| EngineError::TypeMismatch {
            at: at.to_string(),
            expected: std::any::type_name::<T>(),
        })
    }

    /// Recover a value erased with [`Erased::of`], cloning only if the
    /// handle is shared.
    pub fn into_inner<T: Any + Send + Sync + Clone>(self, at: &str) -> Result<T> {
        let arc = self.inner.downcast::<T>().map_err(|_| EngineError::TypeMismatch {
            at: at.to_string(),
            expected: std::any::type_name::<T>(),
        })?;
        Ok(Arc::try_unwrap(arc).unwrap_or_else(|shared| (*shared).clone()))
    }

    /// The identity of the allocation behind this handle, to recognise the
    /// same value arriving again (see [`ErasedId`]).
    pub fn id(&self) -> ErasedId {
        ErasedId(Arc::downgrade(&self.inner))
    }
}

/// Remembers which allocation an [`Erased`] handle pointed at without
/// keeping the value alive. The weak reference pins the address, so a later
/// handle matches only if it is a clone of the remembered one — never a new
/// value that happens to reuse the memory.
#[derive(Debug, Clone)]
pub struct ErasedId(Weak<dyn Any + Send + Sync>);

impl ErasedId {
    /// True when `handle` is a clone of the handle this identity was taken
    /// from.
    pub fn is(&self, handle: &Erased) -> bool {
        Weak::ptr_eq(&self.0, &Arc::downgrade(&handle.inner))
    }
}

impl std::fmt::Debug for Erased {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Erased(..)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_distributes_evenly() {
        let p = Partitions::round_robin((0..10).collect::<Vec<u32>>(), 3);
        assert_eq!(p.partition_sizes(), vec![4, 3, 3]);
        assert_eq!(p.total_len(), 10);
        assert_eq!(p.partition(0), &[0, 3, 6, 9]);
    }

    #[test]
    fn clear_partition_reports_loss() {
        let mut p = Partitions::round_robin((0..9).collect::<Vec<u32>>(), 3);
        assert_eq!(p.clear_partition(1), 3);
        assert_eq!(p.partition(1), &[] as &[u32]);
        assert_eq!(p.total_len(), 6);
        assert_eq!(p.clear_partition(1), 0);
    }

    #[test]
    fn empty_and_len() {
        let p: Partitions<u8> = Partitions::empty(2);
        assert!(p.is_empty());
        assert_eq!(p.total_len(), 0);
        let q = Partitions::from_parts(vec![vec![1u8], vec![]]);
        assert!(!q.is_empty());
    }

    #[test]
    fn into_vec_preserves_partition_order() {
        let p = Partitions::from_parts(vec![vec![1, 2], vec![3], vec![4, 5]]);
        assert_eq!(p.into_vec(), vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn erased_roundtrip() {
        let p = Partitions::round_robin(vec![1u64, 2, 3], 2);
        let e = Erased::new(p.clone());
        let back = e.clone().take::<u64>("test").unwrap();
        assert_eq!(back, p);
        assert_eq!(e.downcast::<u64>("test").unwrap().total_len(), 3);
    }

    #[test]
    fn erased_wrong_type_is_reported() {
        let e = Erased::new(Partitions::round_robin(vec![1u64], 1));
        let err = e.downcast::<String>("join[7]").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("join[7]"), "{msg}");
        assert!(msg.contains("String"), "{msg}");
    }

    #[test]
    fn erased_values_roundtrip_and_keep_their_identity() {
        let e = Erased::of(vec![1u64, 2, 3]);
        assert_eq!(e.downcast_ref::<Vec<u64>>("t").unwrap(), &[1, 2, 3]);
        assert!(e.downcast_ref::<String>("t").is_err());
        assert!(e.downcast::<u64>("t").is_err(), "not a partitioned dataset");
        let id = e.id();
        assert!(id.is(&e.clone()));
        assert!(!id.is(&Erased::of(vec![1u64, 2, 3])), "equal value, other allocation");
        let addr = e.downcast_ref::<Vec<u64>>("t").unwrap().as_ptr();
        let back = e.into_inner::<Vec<u64>>("t").unwrap();
        assert_eq!(back.as_ptr(), addr, "a unique handle gives its value back unmoved");
        // The value is gone; the identity still refuses every other handle.
        assert!(!id.is(&Erased::of(back)));
    }

    #[test]
    fn take_unique_does_not_clone_shared_state() {
        // A uniquely-held Erased must hand back the same allocation.
        let p = Partitions::round_robin(vec![7u64; 100], 4);
        let addr_before = p.partition(0).as_ptr();
        let e = Erased::new(p);
        let back = e.take::<u64>("t").unwrap();
        assert_eq!(back.partition(0).as_ptr(), addr_before);
    }
}
