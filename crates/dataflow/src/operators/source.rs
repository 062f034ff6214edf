//! Source operators: in-memory collections and injected slots.

use std::cell::RefCell;
use std::rc::Rc;

use crate::dataset::{Data, Erased, Partitions};
use crate::error::{EngineError, Result};
use crate::exec::ExecContext;
use crate::plan::DynOp;

/// A source backed by an already-partitioned in-memory dataset.
///
/// The data is erased once at construction, so repeated executions (e.g. an
/// import evaluated inside every superstep of an iteration) only bump a
/// reference count.
pub struct VecSource {
    data: Erased,
}

impl VecSource {
    /// Source over explicit partitions.
    pub fn new<T: Data>(parts: Partitions<T>) -> Self {
        VecSource { data: Erased::new(parts) }
    }

    /// Source over an already-erased value (e.g. a shared index,
    /// [`crate::api::Environment::from_index`]).
    pub fn erased(data: Erased) -> Self {
        VecSource { data }
    }
}

impl DynOp for VecSource {
    fn execute(&mut self, _inputs: Vec<Erased>, _ctx: &ExecContext) -> Result<Erased> {
        Ok(self.data.clone())
    }

    fn kind(&self) -> &'static str {
        "Source"
    }
}

/// A shared, refillable slot connecting an iteration executor to the head
/// nodes of its loop body.
///
/// The iteration operator owns the loop-body plan; before each superstep it
/// stores the current iteration state (and, once, the imported outer
/// datasets) into slots that [`InjectedSource`] nodes inside the body read.
#[derive(Clone, Default)]
pub struct SourceSlot {
    value: Rc<RefCell<Option<Erased>>>,
}

impl SourceSlot {
    /// A new, empty slot.
    pub fn new() -> Self {
        SourceSlot::default()
    }

    /// Store a dataset for the next body execution.
    pub fn fill(&self, value: Erased) {
        *self.value.borrow_mut() = Some(value);
    }

    /// Read the current dataset (cheap `Arc` clone).
    pub fn get(&self) -> Option<Erased> {
        self.value.borrow().clone()
    }

    /// Empty the slot, handing back what it held: the way an iteration
    /// recovers state it lent to its body without copying it.
    pub fn take(&self) -> Option<Erased> {
        self.value.borrow_mut().take()
    }
}

/// Loop-body head node reading from a [`SourceSlot`].
pub struct InjectedSource {
    slot: SourceSlot,
}

impl InjectedSource {
    /// Head node over the given slot.
    pub fn new(slot: SourceSlot) -> Self {
        InjectedSource { slot }
    }
}

impl DynOp for InjectedSource {
    fn execute(&mut self, _inputs: Vec<Erased>, _ctx: &ExecContext) -> Result<Erased> {
        self.slot.get().ok_or_else(|| {
            EngineError::Plan(
                "iteration head executed outside its iteration (slot is empty)".into(),
            )
        })
    }

    fn kind(&self) -> &'static str {
        "IterationHead"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EnvConfig;

    #[test]
    fn vec_source_emits_its_data_repeatedly() {
        let ctx = ExecContext::new(EnvConfig::new(2));
        let mut src = VecSource::new(Partitions::round_robin(vec![1u32, 2, 3], 2));
        for _ in 0..3 {
            let out = src.execute(vec![], &ctx).unwrap();
            assert_eq!(out.downcast::<u32>("t").unwrap().total_len(), 3);
        }
    }

    #[test]
    fn injected_source_requires_filled_slot() {
        let ctx = ExecContext::new(EnvConfig::new(1));
        let slot = SourceSlot::new();
        let mut head = InjectedSource::new(slot.clone());
        assert!(head.execute(vec![], &ctx).is_err());
        slot.fill(Erased::new(Partitions::round_robin(vec![7u8], 1)));
        let out = head.execute(vec![], &ctx).unwrap();
        assert_eq!(out.downcast::<u8>("t").unwrap().total_len(), 1);
    }

    #[test]
    fn slot_take_hands_the_value_back_unshared() {
        let slot = SourceSlot::new();
        let lent = vec![1u64, 2, 3];
        let addr = lent.as_ptr();
        slot.fill(Erased::of(lent));
        let back = slot.take().unwrap().into_inner::<Vec<u64>>("t").unwrap();
        assert_eq!(back.as_ptr(), addr, "nothing else held the value, so nothing was copied");
        assert!(slot.get().is_none());
    }

    #[test]
    fn slot_refill_replaces_value() {
        let slot = SourceSlot::new();
        slot.fill(Erased::new(Partitions::round_robin(vec![1u8], 1)));
        slot.fill(Erased::new(Partitions::round_robin(vec![2u8, 3], 1)));
        let v = slot.get().unwrap().take::<u8>("t").unwrap().into_vec();
        assert_eq!(v, vec![2, 3]);
    }
}
