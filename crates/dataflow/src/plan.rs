//! The dataflow graph: named operator nodes connected into a DAG.
//!
//! The fluent [`crate::api`] layer is fully typed; here, operators are
//! type-erased trait objects ([`DynOp`]) whose `execute` method downcasts its
//! inputs, does the work, and erases the output again. Iterations are
//! ordinary nodes that own a *nested* plan graph for their loop body.

use crate::dataset::Erased;
use crate::error::{EngineError, Result};
use crate::exec::ExecContext;

/// Index of a node within its [`PlanGraph`].
pub type NodeId = usize;

/// A type-erased operator.
pub trait DynOp {
    /// Execute over the (already computed) inputs, producing the output
    /// dataset. Takes `&mut self` because stateful nodes (iterations with
    /// fault handlers) update internal state. The inputs are the node's
    /// own handles: an input no later node reads is handed over unshared,
    /// so taking it moves the value instead of copying it.
    fn execute(&mut self, inputs: Vec<Erased>, ctx: &ExecContext) -> Result<Erased>;

    /// Operator kind, e.g. `"Map"`, `"Join"`, `"DeltaIteration"` — used by
    /// [`PlanGraph::explain`] to render dataflows like the paper's Figure 1.
    fn kind(&self) -> &'static str;

    /// Pre-rendered explanation of a nested loop-body plan, for iteration
    /// operators. Used only by [`PlanGraph::explain`].
    fn body_explain(&self) -> Option<String> {
        None
    }
}

/// One operator node.
pub struct Node {
    /// Node index within the graph.
    pub id: NodeId,
    /// Human-readable operator name (e.g. `"candidate-label"`).
    pub name: String,
    /// Upstream nodes whose outputs feed this operator, in argument order.
    pub inputs: Vec<NodeId>,
    /// The operator implementation.
    pub op: Box<dyn DynOp>,
}

/// A directed acyclic graph of operators.
#[derive(Default)]
pub struct PlanGraph {
    nodes: Vec<Node>,
}

impl PlanGraph {
    /// An empty plan.
    pub fn new() -> Self {
        PlanGraph::default()
    }

    /// Append a node and return its id. Inputs must already exist.
    pub fn add(
        &mut self,
        name: impl Into<String>,
        inputs: Vec<NodeId>,
        op: Box<dyn DynOp>,
    ) -> NodeId {
        let id = self.nodes.len();
        for &i in &inputs {
            assert!(i < id, "plan node references unknown input {i}");
        }
        self.nodes.push(Node { id, name: name.into(), inputs, op });
        id
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the plan has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Borrow a node.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id]
    }

    /// Mutably borrow a node.
    pub fn node_mut(&mut self, id: NodeId) -> &mut Node {
        &mut self.nodes[id]
    }

    /// Execution order covering `targets` and all their ancestors.
    ///
    /// Nodes are appended in increasing id order, which is a valid
    /// topological order because [`PlanGraph::add`] only permits edges from
    /// lower to higher ids (the builder API cannot create cycles; feedback
    /// edges live inside iteration operators instead).
    pub fn schedule(&self, targets: &[NodeId]) -> Result<Vec<NodeId>> {
        let mut needed = vec![false; self.nodes.len()];
        let mut stack: Vec<NodeId> = Vec::new();
        for &t in targets {
            if t >= self.nodes.len() {
                return Err(EngineError::Plan(format!("unknown target node {t}")));
            }
            stack.push(t);
        }
        while let Some(id) = stack.pop() {
            if needed[id] {
                continue;
            }
            needed[id] = true;
            stack.extend(self.nodes[id].inputs.iter().copied());
        }
        Ok((0..self.nodes.len()).filter(|&id| needed[id]).collect())
    }

    /// Mark every node that (transitively) depends on one of the
    /// `volatile_roots` — i.e. the loop-body nodes that must be recomputed
    /// each superstep because they read the iteration state.
    pub fn volatility(&self, volatile_roots: &[NodeId]) -> Vec<bool> {
        let mut volatile = vec![false; self.nodes.len()];
        for &root in volatile_roots {
            volatile[root] = true;
        }
        // Node ids are topologically ordered (inputs < id), so one pass
        // suffices.
        for id in 0..self.nodes.len() {
            if !volatile[id] && self.nodes[id].inputs.iter().any(|&i| volatile[i]) {
                volatile[id] = true;
            }
        }
        volatile
    }

    /// Render the sub-plan rooted at `target` as an indented tree, annotating
    /// each operator with its kind — the textual equivalent of the paper's
    /// Figure 1 dataflow diagrams.
    pub fn explain(&self, target: NodeId) -> String {
        let mut out = String::new();
        self.explain_into(target, 0, &mut out);
        out
    }

    fn explain_into(&self, id: NodeId, depth: usize, out: &mut String) {
        let node = &self.nodes[id];
        for _ in 0..depth {
            out.push_str("  ");
        }
        out.push_str(&format!("{} [{}]\n", node.name, node.op.kind()));
        if let Some(body) = node.op.body_explain() {
            let indent = "  ".repeat(depth + 1);
            out.push_str(&format!("{indent}(iteration body)\n"));
            for line in body.lines() {
                out.push_str(&format!("{indent}  {line}\n"));
            }
        }
        for &input in &node.inputs {
            self.explain_into(input, depth + 1, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Partitions;

    struct ConstOp(u64);
    impl DynOp for ConstOp {
        fn execute(&mut self, _inputs: Vec<Erased>, _ctx: &ExecContext) -> Result<Erased> {
            Ok(Erased::new(Partitions::round_robin(vec![self.0], 1)))
        }
        fn kind(&self) -> &'static str {
            "Const"
        }
    }

    #[test]
    fn schedule_covers_ancestors_only() {
        let mut g = PlanGraph::new();
        let a = g.add("a", vec![], Box::new(ConstOp(1)));
        let b = g.add("b", vec![a], Box::new(ConstOp(2)));
        let _c = g.add("c", vec![a], Box::new(ConstOp(3)));
        let d = g.add("d", vec![b], Box::new(ConstOp(4)));
        let order = g.schedule(&[d]).unwrap();
        assert_eq!(order, vec![a, b, d]);
    }

    #[test]
    fn schedule_multiple_targets_dedupes() {
        let mut g = PlanGraph::new();
        let a = g.add("a", vec![], Box::new(ConstOp(1)));
        let b = g.add("b", vec![a], Box::new(ConstOp(2)));
        let c = g.add("c", vec![a], Box::new(ConstOp(3)));
        let order = g.schedule(&[b, c]).unwrap();
        assert_eq!(order, vec![a, b, c]);
    }

    #[test]
    fn schedule_rejects_unknown_target() {
        let g = PlanGraph::new();
        assert!(g.schedule(&[0]).is_err());
    }

    #[test]
    fn explain_renders_tree() {
        let mut g = PlanGraph::new();
        let a = g.add("labels", vec![], Box::new(ConstOp(1)));
        let b = g.add("candidate-label", vec![a], Box::new(ConstOp(2)));
        let text = g.explain(b);
        assert!(text.contains("candidate-label [Const]"));
        assert!(text.contains("  labels [Const]"));
    }

    #[test]
    fn volatility_propagates_downstream_only() {
        let mut g = PlanGraph::new();
        let imports = g.add("imports", vec![], Box::new(ConstOp(0)));
        let head = g.add("head", vec![], Box::new(ConstOp(1)));
        let static_prep = g.add("prep", vec![imports], Box::new(ConstOp(2)));
        let joined = g.add("join", vec![static_prep, head], Box::new(ConstOp(3)));
        let tail = g.add("tail", vec![joined], Box::new(ConstOp(4)));
        let volatile = g.volatility(&[head]);
        assert!(!volatile[imports]);
        assert!(!volatile[static_prep]);
        assert!(volatile[head] && volatile[joined] && volatile[tail]);
    }

    #[test]
    #[should_panic(expected = "unknown input")]
    fn forward_edges_rejected() {
        let mut g = PlanGraph::new();
        g.add("bad", vec![5], Box::new(ConstOp(0)));
    }
}
