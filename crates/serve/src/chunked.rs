//! The served solution's storage: a vector dense by vertex, split into
//! fixed-size copy-on-write chunks.
//!
//! A snapshot clones chunk handles only, O(n / [`CHUNK`]), and a write
//! copies only the chunk it lands in, and only while a snapshot still
//! shares that chunk. So publishing an epoch costs nothing of the size of
//! the graph, and a commit that patches a few vertices copies a few chunks.

use std::fmt;
use std::sync::Arc;

use graphs::VertexId;

/// Entries per chunk.
pub const CHUNK: usize = 4096;

/// A vector of `T` indexed by vertex, in [`CHUNK`]-entry chunks shared
/// between clones until one of them writes.
#[derive(Clone)]
pub struct ChunkedVec<T> {
    /// Every chunk but the last holds exactly [`CHUNK`] entries.
    chunks: Vec<Arc<Vec<T>>>,
    len: usize,
}

impl<T> Default for ChunkedVec<T> {
    fn default() -> Self {
        ChunkedVec { chunks: Vec::new(), len: 0 }
    }
}

impl<T> ChunkedVec<T> {
    /// Entries held.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is held.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The entry of vertex `v`, `None` past the last one.
    pub fn get(&self, v: VertexId) -> Option<&T> {
        let i = usize::try_from(v).ok()?;
        self.chunks.get(i / CHUNK)?.get(i % CHUNK)
    }

    /// The entries in vertex order.
    pub fn iter(&self) -> impl Iterator<Item = &T> + '_ {
        self.chunks.iter().flat_map(|chunk| chunk.iter())
    }

    /// The chunks, for telling which of them two clones still share.
    #[cfg(test)]
    pub(crate) fn chunks(&self) -> &[Arc<Vec<T>>] {
        &self.chunks
    }
}

impl<T: Clone> ChunkedVec<T> {
    /// Overwrite the entry of vertex `v`, copying its chunk first if a
    /// clone still shares it.
    ///
    /// # Panics
    /// Panics when `v` is past the last entry.
    pub fn set(&mut self, v: VertexId, value: T) {
        assert!(v < self.len as VertexId, "vertex {v} is past the {} entries held", self.len);
        let i = v as usize;
        Arc::make_mut(&mut self.chunks[i / CHUNK])[i % CHUNK] = value;
    }

    /// Append the entry of the next vertex, copying the last chunk first if
    /// it has room and a clone still shares it.
    pub fn push(&mut self, value: T) {
        match self.chunks.last_mut() {
            Some(last) if last.len() < CHUNK => Arc::make_mut(last).push(value),
            _ => {
                let mut chunk = Vec::with_capacity(CHUNK);
                chunk.push(value);
                self.chunks.push(Arc::new(chunk));
            }
        }
        self.len += 1;
    }

    /// `(vertex, entry)` pairs in vertex order.
    pub fn entries(&self) -> impl Iterator<Item = (VertexId, T)> + '_ {
        self.iter().cloned().enumerate().map(|(v, value)| (v as VertexId, value))
    }
}

impl<T> FromIterator<T> for ChunkedVec<T> {
    fn from_iter<I: IntoIterator<Item = T>>(entries: I) -> Self {
        let mut entries = entries.into_iter();
        let mut vec = ChunkedVec::default();
        loop {
            let chunk: Vec<T> = entries.by_ref().take(CHUNK).collect();
            if chunk.is_empty() {
                return vec;
            }
            vec.len += chunk.len();
            vec.chunks.push(Arc::new(chunk));
        }
    }
}

impl<T: PartialEq> PartialEq for ChunkedVec<T> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl<T: fmt::Debug> fmt::Debug for ChunkedVec<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entries_are_indexed_by_vertex_across_chunks() {
        let n = 2 * CHUNK + 5;
        let vec: ChunkedVec<u64> = (0..n as u64).map(|v| v * 3).collect();
        assert_eq!(vec.len(), n);
        assert_eq!(vec.chunks().len(), 3);
        assert_eq!(vec.get(0), Some(&0));
        assert_eq!(vec.get(CHUNK as u64), Some(&(3 * CHUNK as u64)));
        assert_eq!(vec.get(n as u64 - 1), Some(&(3 * (n as u64 - 1))));
        assert_eq!(vec.get(n as u64), None);
        assert_eq!(vec.get(u64::MAX), None);
        let pairs: Vec<(u64, u64)> = vec.entries().collect();
        assert_eq!(pairs, (0..n as u64).map(|v| (v, v * 3)).collect::<Vec<_>>());
    }

    #[test]
    fn a_write_copies_only_the_chunk_a_clone_shares() {
        let mut vec: ChunkedVec<u64> = (0..3 * CHUNK as u64).collect();
        let snapshot = vec.clone();
        vec.set(CHUNK as u64 + 1, 7);
        vec.push(9);
        let shared: Vec<bool> =
            vec.chunks().iter().zip(snapshot.chunks()).map(|(a, b)| Arc::ptr_eq(a, b)).collect();
        assert_eq!(shared, [true, false, true]);
        assert_eq!(vec.chunks().len(), 4, "the full last chunk stays shared; a new one opens");
        assert_eq!(snapshot.get(CHUNK as u64 + 1), Some(&(CHUNK as u64 + 1)));
        assert_eq!(snapshot.get(3 * CHUNK as u64), None);
        assert_eq!(vec.get(CHUNK as u64 + 1), Some(&7));
        assert_eq!(vec.get(3 * CHUNK as u64), Some(&9));
        assert_ne!(vec, snapshot);

        // An unshared chunk is written in place.
        let before = Arc::as_ptr(&vec.chunks()[1]);
        vec.set(CHUNK as u64, 1);
        assert_eq!(Arc::as_ptr(&vec.chunks()[1]), before);
    }

    #[test]
    #[should_panic(expected = "past the 3 entries")]
    fn a_write_past_the_end_panics() {
        let mut vec: ChunkedVec<u64> = (0..3).collect();
        vec.set(3, 0);
    }
}
