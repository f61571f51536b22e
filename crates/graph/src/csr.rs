//! The frozen CSR graph representation.

use crate::NodeId;

/// An undirected graph in compressed-sparse-row form.
///
/// Invariants (established by [`crate::GraphBuilder`] and preserved by
/// every operation in this crate):
///
/// - node ids are dense: `0..num_nodes()`,
/// - each adjacency list is sorted ascending with no duplicates,
/// - adjacency is symmetric (`u∈adj(v)` ⇔ `v∈adj(u)`),
/// - no self-loops.
///
/// `num_edges()` counts *undirected* edges (the paper's `m`); the
/// underlying arrays store each edge twice (once per endpoint).
#[derive(Clone, PartialEq, Eq)]
pub struct Graph {
    /// `offsets[v]..offsets[v+1]` indexes `targets` for node `v`.
    offsets: Vec<usize>,
    /// Concatenated sorted adjacency lists.
    targets: Vec<NodeId>,
}

impl Graph {
    /// Builds a graph directly from CSR parts.
    ///
    /// This is the low-level constructor used by [`crate::GraphBuilder`]
    /// and the binary loader; it debug-asserts the invariants rather
    /// than repairing input. Prefer [`crate::GraphBuilder`].
    ///
    /// # Panics
    ///
    /// Panics if the arrays are structurally inconsistent: offsets that
    /// do not run non-decreasing from 0 to `targets.len()`, or a target
    /// id that is not a node. The matvec kernels index without bounds
    /// checks on the strength of these two checks. Semantic invariants
    /// (sortedness, symmetry) are checked only under
    /// `debug_assertions`; use [`Graph::validate`] to check them
    /// explicitly on untrusted input.
    pub fn from_csr(offsets: Vec<usize>, targets: Vec<NodeId>) -> Self {
        assert!(!offsets.is_empty(), "offsets must have n+1 entries");
        assert_eq!(offsets[0], 0, "offsets must start at 0");
        assert_eq!(
            *offsets.last().unwrap(),
            targets.len(),
            "offsets must end at targets.len()"
        );
        assert!(
            offsets.windows(2).all(|w| w[0] <= w[1]),
            "offsets must be non-decreasing"
        );
        let n = offsets.len() - 1;
        assert!(
            targets.iter().all(|&t| (t as usize) < n),
            "target ids must be below the node count"
        );
        let g = Graph { offsets, targets };
        debug_assert!(g.validate().is_ok(), "{:?}", g.validate());
        g
    }

    /// Constructs from CSR parts without any semantic checking. Only
    /// for loaders that run [`Graph::validate`] themselves on the
    /// result before handing it out.
    pub(crate) fn from_csr_unchecked(offsets: Vec<usize>, targets: Vec<NodeId>) -> Self {
        Graph { offsets, targets }
    }

    /// An empty graph with `n` isolated nodes.
    pub fn empty(n: usize) -> Self {
        Graph {
            offsets: vec![0; n + 1],
            targets: Vec::new(),
        }
    }

    /// Number of nodes (the paper's `n`).
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges (the paper's `m`).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.targets.len() / 2
    }

    /// Sum of all degrees, i.e. `2m`.
    #[inline]
    pub fn total_degree(&self) -> usize {
        self.targets.len()
    }

    /// Degree of node `v`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        let v = v as usize;
        self.offsets[v + 1] - self.offsets[v]
    }

    /// The sorted neighbors of `v`.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        let v = v as usize;
        &self.targets[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Whether the undirected edge `{u, v}` exists (binary search).
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        let (probe, list) = if self.degree(u) <= self.degree(v) {
            (v, self.neighbors(u))
        } else {
            (u, self.neighbors(v))
        };
        list.binary_search(&probe).is_ok()
    }

    /// Iterates every undirected edge once, as `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        (0..self.num_nodes() as NodeId).flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// Iterates node ids `0..n`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        0..self.num_nodes() as NodeId
    }

    /// Maximum degree, or 0 for an empty graph.
    pub fn max_degree(&self) -> usize {
        self.nodes().map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Minimum degree, or 0 for an empty graph.
    pub fn min_degree(&self) -> usize {
        self.nodes().map(|v| self.degree(v)).min().unwrap_or(0)
    }

    /// Average degree `2m/n`, or 0.0 for an empty graph.
    pub fn avg_degree(&self) -> f64 {
        if self.num_nodes() == 0 {
            0.0
        } else {
            self.total_degree() as f64 / self.num_nodes() as f64
        }
    }

    /// The raw offsets array (`n+1` entries). Exposed for zero-copy
    /// consumers such as the linear-operator wrappers.
    #[inline]
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// The raw concatenated adjacency array (`2m` entries).
    #[inline]
    pub fn raw_targets(&self) -> &[NodeId] {
        &self.targets
    }

    /// Checks all semantic invariants, returning the first violation.
    pub fn validate(&self) -> Result<(), GraphInvariantError> {
        use GraphInvariantError::*;
        let n = self.num_nodes();
        for v in 0..n as NodeId {
            let adj = self.neighbors(v);
            for w in adj.windows(2) {
                if w[0] >= w[1] {
                    return Err(UnsortedOrDuplicate { node: v });
                }
            }
            for &u in adj {
                if u as usize >= n {
                    return Err(TargetOutOfRange { node: v, target: u });
                }
                if u == v {
                    return Err(SelfLoop { node: v });
                }
                if self.neighbors(u).binary_search(&v).is_err() {
                    return Err(Asymmetric { from: v, to: u });
                }
            }
        }
        Ok(())
    }
}

impl std::fmt::Debug for Graph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Graph")
            .field("nodes", &self.num_nodes())
            .field("edges", &self.num_edges())
            .finish()
    }
}

/// An invariant violation found by [`Graph::validate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphInvariantError {
    /// An adjacency list is unsorted or contains a duplicate.
    UnsortedOrDuplicate { node: NodeId },
    /// A target id is ≥ the node count.
    TargetOutOfRange { node: NodeId, target: NodeId },
    /// A node lists itself as a neighbor.
    SelfLoop { node: NodeId },
    /// `to ∈ adj(from)` but `from ∉ adj(to)`.
    Asymmetric { from: NodeId, to: NodeId },
}

impl std::fmt::Display for GraphInvariantError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::UnsortedOrDuplicate { node } => {
                write!(
                    f,
                    "adjacency list of node {node} is unsorted or has duplicates"
                )
            }
            Self::TargetOutOfRange { node, target } => {
                write!(f, "node {node} points to out-of-range target {target}")
            }
            Self::SelfLoop { node } => write!(f, "node {node} has a self-loop"),
            Self::Asymmetric { from, to } => {
                write!(f, "edge {from}->{to} present but {to}->{from} missing")
            }
        }
    }
}

impl std::error::Error for GraphInvariantError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn triangle() -> Graph {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(0, 2);
        b.build()
    }

    #[test]
    fn counts() {
        let g = triangle();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.total_degree(), 6);
    }

    #[test]
    fn degrees_and_neighbors() {
        let g = triangle();
        for v in 0..3 {
            assert_eq!(g.degree(v), 2);
        }
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(2), &[0, 1]);
    }

    #[test]
    fn has_edge_both_directions() {
        let g = triangle();
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1);
        b.add_edge(2, 3);
        let g = b.build();
        assert!(!g.has_edge(0, 2));
        assert!(!g.has_edge(1, 3));
    }

    #[test]
    fn edges_iterates_each_once() {
        let g = triangle();
        let e: Vec<_> = g.edges().collect();
        assert_eq!(e, vec![(0, 1), (0, 2), (1, 2)]);
    }

    #[test]
    fn empty_graph() {
        let g = Graph::empty(5);
        assert_eq!(g.num_nodes(), 5);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.avg_degree(), 0.0);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn zero_node_graph() {
        let g = Graph::empty(0);
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.min_degree(), 0);
        assert_eq!(g.edges().count(), 0);
    }

    #[test]
    fn degree_extremes() {
        let mut b = GraphBuilder::new();
        // star: center 0 with 4 leaves
        for v in 1..=4 {
            b.add_edge(0, v);
        }
        let g = b.build();
        assert_eq!(g.max_degree(), 4);
        assert_eq!(g.min_degree(), 1);
        assert!((g.avg_degree() - 8.0 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn validate_rejects_asymmetric() {
        let g = Graph {
            offsets: vec![0, 1, 1],
            targets: vec![1],
        };
        assert!(matches!(
            g.validate(),
            Err(GraphInvariantError::Asymmetric { from: 0, to: 1 })
        ));
    }

    #[test]
    fn validate_rejects_self_loop() {
        let g = Graph {
            offsets: vec![0, 1],
            targets: vec![0],
        };
        assert!(matches!(
            g.validate(),
            Err(GraphInvariantError::SelfLoop { node: 0 })
        ));
    }

    #[test]
    fn validate_rejects_unsorted() {
        let g = Graph {
            offsets: vec![0, 2, 3, 4],
            targets: vec![2, 1, 0, 0],
        };
        assert!(matches!(
            g.validate(),
            Err(GraphInvariantError::UnsortedOrDuplicate { node: 0 })
        ));
    }

    #[test]
    fn validate_rejects_out_of_range() {
        let g = Graph {
            offsets: vec![0, 1],
            targets: vec![9],
        };
        assert!(matches!(
            g.validate(),
            Err(GraphInvariantError::TargetOutOfRange { node: 0, target: 9 })
        ));
    }

    #[test]
    #[should_panic]
    fn from_csr_rejects_bad_offsets() {
        let _ = Graph::from_csr(vec![0, 5], vec![1]);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn from_csr_rejects_decreasing_offsets() {
        let _ = Graph::from_csr(vec![0, 2, 1, 2], vec![1, 2]);
    }

    #[test]
    #[should_panic(expected = "below the node count")]
    fn from_csr_rejects_out_of_range_target() {
        let _ = Graph::from_csr(vec![0, 1, 1], vec![5]);
    }
}
