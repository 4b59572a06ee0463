//! Graphs, treewidth, pathwidth, and (nice) tree decompositions.
//!
//! This crate is the graph substrate behind the paper's Lemma 1: a circuit of
//! treewidth `k` is turned into a vtree by walking a **nice tree
//! decomposition** of the circuit's primal graph. It provides:
//!
//! * a compact undirected [`Graph`] with the generators used by tests and
//!   benchmarks;
//! * elimination-order machinery: width of an order, min-degree and min-fill
//!   heuristics ([`elimination`]);
//! * exact treewidth and pathwidth via subset dynamic programming for small
//!   graphs ([`exact`]), plus the MMD (degeneracy) lower bound;
//! * [`TreeDecomposition`] with full validation, built from elimination
//!   orders ([`decomposition`]);
//! * [`NiceTd`]: nice tree decompositions with explicit Leaf / Introduce /
//!   Forget / Join nodes, rooted at an empty bag so that every vertex is
//!   forgotten exactly once — the property Lemma 1 consumes ([`nice`]).

pub mod decomposition;
pub mod elimination;
pub mod exact;
pub mod graph;
pub mod nice;

pub use decomposition::{TdError, TreeDecomposition};
pub use elimination::{
    greedy_order, min_degree_order, min_fill_order, mmd_lower_bound, width_of_order,
    EliminationOrder, Heuristic,
};
pub use exact::{exact_pathwidth, exact_treewidth, ExactError};
pub use graph::Graph;
pub use nice::{NiceNodeKind, NiceTd};

/// Treewidth of a graph: exact when feasible, otherwise the best heuristic.
///
/// Returns `(width, order)` where `order` is an elimination order witnessing
/// `width`. Exact search (subset DP) is used when `g.num_vertices() <=
/// exact_limit`; otherwise the better of min-fill and min-degree.
pub fn treewidth(g: &Graph, exact_limit: usize) -> (usize, EliminationOrder) {
    if g.num_vertices() == 0 {
        return (0, Vec::new());
    }
    if g.num_vertices() <= exact_limit {
        if let Ok((w, order)) = exact_treewidth(g) {
            return (w, order);
        }
    }
    let fill = greedy_order(g, Heuristic::MinFill);
    let degree = greedy_order(g, Heuristic::MinDegree);
    if fill.0 <= degree.0 {
        fill
    } else {
        degree
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn treewidth_dispatch_small_exact() {
        let g = Graph::cycle(6);
        let (w, order) = treewidth(&g, 10);
        assert_eq!(w, 2);
        assert_eq!(width_of_order(&g, &order), 2);
    }

    #[test]
    fn treewidth_dispatch_heuristic() {
        let g = Graph::grid(3, 3);
        let (w, order) = treewidth(&g, 4); // force heuristic path
        assert!(w >= 3, "grid 3x3 has treewidth 3, heuristic found {w}");
        assert_eq!(width_of_order(&g, &order), w);
    }

    #[test]
    fn empty_graph() {
        let g = Graph::new(0);
        let (w, order) = treewidth(&g, 10);
        assert_eq!(w, 0);
        assert!(order.is_empty());
    }
}
