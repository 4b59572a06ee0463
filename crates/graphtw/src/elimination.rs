//! Elimination orders: widths, heuristics, and lower bounds.
//!
//! Treewidth equals the minimum, over all vertex elimination orders, of the
//! maximum number of higher-ordered neighbors encountered when vertices are
//! eliminated in order (each elimination turning the neighborhood into a
//! clique). The heuristics below are the standard min-degree and min-fill
//! rules; the MMD bound is the classical degeneracy lower bound.

use crate::graph::Graph;
use vtree::fxhash::FxHashSet;

/// A permutation of the vertices `0..n`, eliminated left to right.
pub type EliminationOrder = Vec<u32>;

/// A greedy elimination rule: which vertex to eliminate next.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Heuristic {
    /// A vertex of minimum current degree.
    MinDegree,
    /// A vertex whose elimination adds the fewest fill edges.
    MinFill,
}

/// Vacant entry of [`ElimState::mark`].
const UNMARKED: u32 = u32::MAX;

/// Dynamic adjacency structure for elimination simulations.
struct ElimState {
    adj: Vec<FxHashSet<u32>>,
    alive: Vec<bool>,
    /// Per-vertex scratch marker: a vertex's position in the neighbourhood
    /// being scanned ([`greedy_order`] marks `N(v)` with zeros), or
    /// [`UNMARKED`]. All entries are [`UNMARKED`] between uses.
    mark: Vec<u32>,
    /// Scratch neighbourhood list for [`ElimState::fill_count`].
    scratch: Vec<u32>,
    /// The fill edges inserted by the last [`ElimState::eliminate`].
    fill: Vec<(u32, u32)>,
}

impl ElimState {
    fn new(g: &Graph) -> Self {
        let n = g.num_vertices();
        let adj = (0..n as u32)
            .map(|u| g.neighbors(u).iter().copied().collect())
            .collect();
        ElimState {
            adj,
            alive: vec![true; n],
            mark: vec![UNMARKED; n],
            scratch: Vec::new(),
            fill: Vec::new(),
        }
    }

    /// Eliminate `v`: connect its surviving neighbors into a clique, remove it.
    /// Returns the neighbors of `v` at elimination time; the fill edges
    /// this inserted are left in `self.fill`.
    fn eliminate(&mut self, v: u32) -> Vec<u32> {
        let ns: Vec<u32> = self.adj[v as usize].drain().collect();
        self.fill.clear();
        for (i, &a) in ns.iter().enumerate() {
            for &b in &ns[i + 1..] {
                if self.adj[a as usize].insert(b) {
                    self.adj[b as usize].insert(a);
                    self.fill.push((a, b));
                }
            }
        }
        for &a in &ns {
            self.adj[a as usize].remove(&v);
        }
        self.alive[v as usize] = false;
        ns
    }

    /// The number of fill edges eliminating `v` would add: `C(d, 2)` minus
    /// the edges inside `N(v)`. Each inner edge `{a, b}` is counted once,
    /// from whichever endpoint comes first in the neighbour list, by the
    /// cheaper of two scans: `N(a)` against the marked positions of `N(v)`,
    /// or the later members of `N(v)` probed in `N(a)`. The cost is the sum
    /// over `a` of `min(deg a, d)`, never more than the `C(d, 2)` probes of
    /// the plain pair loop — a hub whose neighbours have small degree is
    /// scored in time linear in its degree.
    fn fill_count(&mut self, v: u32) -> usize {
        let mut ns = std::mem::take(&mut self.scratch);
        ns.clear();
        ns.extend(self.adj[v as usize].iter().copied());
        for (i, &a) in ns.iter().enumerate() {
            self.mark[a as usize] = i as u32;
        }
        let mut inner = 0;
        for (i, &a) in ns.iter().enumerate() {
            let later = &ns[i + 1..];
            let na = &self.adj[a as usize];
            inner += if na.len() < later.len() {
                na.iter()
                    .filter(|&&b| {
                        let at = self.mark[b as usize];
                        at != UNMARKED && at as usize > i
                    })
                    .count()
            } else {
                later.iter().filter(|&b| na.contains(b)).count()
            };
        }
        for &a in &ns {
            self.mark[a as usize] = UNMARKED;
        }
        let d = ns.len();
        self.scratch = ns;
        d * d.saturating_sub(1) / 2 - inner
    }

    fn score(&mut self, heuristic: Heuristic, v: u32) -> usize {
        match heuristic {
            Heuristic::MinDegree => self.adj[v as usize].len(),
            Heuristic::MinFill => self.fill_count(v),
        }
    }
}

/// The width of an elimination order: the maximum elimination-time degree.
pub fn width_of_order(g: &Graph, order: &[u32]) -> usize {
    assert_eq!(
        order.len(),
        g.num_vertices(),
        "order must cover all vertices"
    );
    let mut st = ElimState::new(g);
    let mut width = 0;
    for &v in order {
        width = width.max(st.eliminate(v).len());
    }
    width
}

/// Min-degree heuristic: always eliminate a vertex of minimum current degree.
pub fn min_degree_order(g: &Graph) -> EliminationOrder {
    greedy_order(g, Heuristic::MinDegree).1
}

/// Min-fill heuristic: always eliminate a vertex adding the fewest fill edges.
pub fn min_fill_order(g: &Graph) -> EliminationOrder {
    greedy_order(g, Heuristic::MinFill).1
}

/// Greedy elimination by minimum `(score, vertex)` under `heuristic`.
/// Returns `(width, order)`: the width is the maximum elimination-time
/// degree, so it equals [`width_of_order`] of the order without a second
/// simulation.
///
/// Scores live in a lazy binary heap: stale entries (score changed since
/// push) are skipped on pop, and every alive vertex always has an
/// up-to-date entry, so the first valid pop is the global minimum under the
/// `(score, vertex)` tie-break. After eliminating `v`, only scores that can
/// have changed are touched:
///
/// * `N(v)` lost `v` and gained fill neighbours, so its members are
///   re-scored (a degree read, or [`ElimState::fill_count`]).
/// * Outside `N[v]` degrees and neighbourhoods are unchanged, and the only
///   new edges are the fill edges, all inside `N(v)`. A vertex's fill count
///   therefore falls by exactly the number of fill edges inside its own
///   neighbourhood, i.e. by the fill edges `{a, b}` it is a common
///   neighbour of. These are found by scanning the smaller of `N(a)` and
///   `N(b)`; an elimination that adds no fill touches nothing outside
///   `N(v)`.
///
/// Eliminating a degree-`d` vertex thus costs `C(d, 2)` fill insertions,
/// one re-score per neighbour (each at most the sum over its own neighbours
/// `a` of `min(deg a, its degree)`), and `min(deg a, deg b)` per fill edge.
/// A hub adjacent to many low-degree vertices costs time linear in its
/// degree per re-score, not quadratic.
pub fn greedy_order(g: &Graph, heuristic: Heuristic) -> (usize, EliminationOrder) {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let n = g.num_vertices();
    let mut st = ElimState::new(g);
    let mut current: Vec<usize> = (0..n as u32).map(|v| st.score(heuristic, v)).collect();
    let mut heap: BinaryHeap<Reverse<(usize, u32)>> = (0..n as u32)
        .map(|v| Reverse((current[v as usize], v)))
        .collect();
    let mut order = Vec::with_capacity(n);
    let mut width = 0;
    let mut lowered: Vec<u32> = Vec::new();
    while order.len() < n {
        let Reverse((s, v)) = heap.pop().expect("an alive vertex remains");
        if !st.alive[v as usize] || s != current[v as usize] {
            continue; // dead or stale entry
        }
        let ns = st.eliminate(v);
        order.push(v);
        width = width.max(ns.len());
        if heuristic == Heuristic::MinFill && !st.fill.is_empty() {
            for &a in &ns {
                st.mark[a as usize] = 0;
            }
            for &(a, b) in &st.fill {
                let (na, nb) = (&st.adj[a as usize], &st.adj[b as usize]);
                let (small, large) = if na.len() <= nb.len() {
                    (na, nb)
                } else {
                    (nb, na)
                };
                for &u in small {
                    if st.mark[u as usize] == UNMARKED && large.contains(&u) {
                        current[u as usize] -= 1;
                        lowered.push(u);
                    }
                }
            }
            for &a in &ns {
                st.mark[a as usize] = UNMARKED;
            }
            lowered.sort_unstable();
            lowered.dedup();
            for u in lowered.drain(..) {
                heap.push(Reverse((current[u as usize], u)));
            }
        }
        for &u in &ns {
            let s = st.score(heuristic, u);
            if s != current[u as usize] {
                current[u as usize] = s;
                heap.push(Reverse((s, u)));
            }
        }
    }
    (width, order)
}

/// Maximum-minimum-degree (degeneracy) lower bound on treewidth:
/// `tw(G) >= max over subgraphs H of (min degree of H)`, computed by
/// repeatedly deleting a minimum-degree vertex.
pub fn mmd_lower_bound(g: &Graph) -> usize {
    let n = g.num_vertices();
    let mut adj: Vec<FxHashSet<u32>> = (0..n as u32)
        .map(|u| g.neighbors(u).iter().copied().collect())
        .collect();
    let mut alive = vec![true; n];
    let mut bound = 0;
    for _ in 0..n {
        let v = (0..n as u32)
            .filter(|&v| alive[v as usize])
            .min_by_key(|&v| adj[v as usize].len())
            .expect("some vertex alive");
        bound = bound.max(adj[v as usize].len());
        let ns: Vec<u32> = adj[v as usize].iter().copied().collect();
        for a in ns {
            adj[a as usize].remove(&v);
        }
        adj[v as usize].clear();
        alive[v as usize] = false;
    }
    bound
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::reference::reference_order;
    use super::*;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    /// Both heuristics pick the reference's orders element for element, and
    /// the width they report is the width of that order.
    fn assert_matches_reference(g: &Graph) {
        for (heuristic, min_fill) in [(Heuristic::MinFill, true), (Heuristic::MinDegree, false)] {
            let (width, order) = greedy_order(g, heuristic);
            assert_eq!(order, reference_order(g, min_fill), "{heuristic:?}");
            assert_eq!(width, width_of_order(g, &order), "{heuristic:?}");
        }
    }

    /// A hub adjacent to `spokes` vertices; each spoke links to the next
    /// with probability one half and carries up to one private leaf, so
    /// spokes have degree 1 to 4 and the hub's neighbourhood is sparse.
    fn hub_and_spoke(spokes: usize, seed: u64) -> Graph {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut g = Graph::new(1 + spokes);
        for s in 1..=spokes as u32 {
            g.add_edge(0, s);
            if s < spokes as u32 && rng.gen_bool(0.5) {
                g.add_edge(s, s + 1);
            }
            if rng.gen_bool(0.5) {
                let leaf = g.add_vertex();
                g.add_edge(s, leaf);
            }
        }
        g
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn gnp_orders_match_reference(seed in 0u64..1000, n in 2usize..70, p in 0.02f64..0.6) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            assert_matches_reference(&Graph::random_gnp(n, p, &mut rng));
        }
    }

    #[test]
    fn gnp_density_sweep_matches_reference() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for (n, p) in [(120, 0.02), (100, 0.05), (60, 0.15), (40, 0.3), (25, 0.7)] {
            assert_matches_reference(&Graph::random_gnp(n, p, &mut rng));
        }
    }

    #[test]
    fn stars_and_hubs_match_reference() {
        for leaves in [0, 1, 2, 5, 40] {
            let mut star = Graph::new(leaves + 1);
            for v in 1..=leaves as u32 {
                star.add_edge(0, v);
            }
            assert_matches_reference(&star);
        }
        for seed in 0..6 {
            assert_matches_reference(&hub_and_spoke(150, seed));
        }
        // Two hubs sharing their spokes: every spoke elimination adds the
        // hub-hub fill edge until it exists.
        let mut g = hub_and_spoke(80, 11);
        let second = g.add_vertex();
        for s in (1..=80).step_by(3) {
            g.add_edge(second, s);
        }
        assert_matches_reference(&g);
    }

    #[test]
    fn structured_families_match_reference() {
        for g in [
            Graph::path(30),
            Graph::cycle(17),
            Graph::complete(9),
            Graph::grid(6, 7),
            Graph::band(40, 4),
            Graph::complete_binary_tree(5),
        ] {
            assert_matches_reference(&g);
        }
    }

    #[test]
    fn path_has_width_one() {
        let g = Graph::path(8);
        let o = min_degree_order(&g);
        assert_eq!(width_of_order(&g, &o), 1);
        let o = min_fill_order(&g);
        assert_eq!(width_of_order(&g, &o), 1);
    }

    #[test]
    fn cycle_has_width_two() {
        let g = Graph::cycle(9);
        assert_eq!(width_of_order(&g, &min_fill_order(&g)), 2);
        assert_eq!(mmd_lower_bound(&g), 2);
    }

    #[test]
    fn complete_graph_width() {
        let g = Graph::complete(6);
        assert_eq!(width_of_order(&g, &min_degree_order(&g)), 5);
        assert_eq!(mmd_lower_bound(&g), 5);
    }

    #[test]
    fn grid_heuristics_reasonable() {
        let g = Graph::grid(4, 4);
        let w = width_of_order(&g, &min_fill_order(&g));
        assert!(w >= 4, "4x4 grid treewidth is 4, got {w}");
        assert!(w <= 6, "min-fill should be close to optimal, got {w}");
        assert!(mmd_lower_bound(&g) >= 2);
    }

    #[test]
    fn bad_order_still_measured() {
        // Eliminating the center of a star first yields width n-1.
        let mut g = Graph::new(5);
        for v in 1..5 {
            g.add_edge(0, v);
        }
        assert_eq!(width_of_order(&g, &[0, 1, 2, 3, 4]), 4);
        assert_eq!(width_of_order(&g, &[1, 2, 3, 4, 0]), 1);
    }

    #[test]
    #[should_panic(expected = "order must cover")]
    fn partial_order_rejected() {
        let g = Graph::path(3);
        width_of_order(&g, &[0, 1]);
    }

    #[test]
    fn band_graph_width_equals_band() {
        let g = Graph::band(12, 3);
        let o: Vec<u32> = (0..12).collect();
        assert_eq!(width_of_order(&g, &o), 3);
    }
}
