//! Reference greedy elimination for differential tests: the plain
//! formulation the optimised [`greedy_order`](crate::elimination) must match
//! element for element. Every score is a full recount — degree, or the
//! `C(d, 2)` pair loop for fill — and after each elimination every vertex
//! in `N(v) ∪ N(N(v))` is re-scored. Shared by the crate's unit tests and
//! the workspace's lineage tests (included there by path), so it names
//! only `super::Graph` and the standard library.

use super::Graph;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};

/// The greedy min-fill (`min_fill = true`) or min-degree order of `g`,
/// minimum `(score, vertex)` first.
pub fn reference_order(g: &Graph, min_fill: bool) -> Vec<u32> {
    let n = g.num_vertices();
    let mut adj: Vec<HashSet<u32>> = (0..n as u32)
        .map(|u| g.neighbors(u).iter().copied().collect())
        .collect();
    let mut alive = vec![true; n];
    let score = |adj: &[HashSet<u32>], v: u32| -> usize {
        let ns: Vec<u32> = adj[v as usize].iter().copied().collect();
        if !min_fill {
            return ns.len();
        }
        let mut fill = 0;
        for (i, &a) in ns.iter().enumerate() {
            for &b in &ns[i + 1..] {
                if !adj[a as usize].contains(&b) {
                    fill += 1;
                }
            }
        }
        fill
    };
    let mut current: Vec<usize> = (0..n as u32).map(|v| score(&adj, v)).collect();
    let mut heap: BinaryHeap<Reverse<(usize, u32)>> = (0..n as u32)
        .map(|v| Reverse((current[v as usize], v)))
        .collect();
    let mut order = Vec::with_capacity(n);
    while order.len() < n {
        let Reverse((s, v)) = heap.pop().expect("an alive vertex remains");
        if !alive[v as usize] || s != current[v as usize] {
            continue;
        }
        let ns: Vec<u32> = adj[v as usize].iter().copied().collect();
        let mut affected: Vec<u32> = Vec::new();
        for &a in &ns {
            affected.push(a);
            affected.extend(adj[a as usize].iter().copied());
        }
        for (i, &a) in ns.iter().enumerate() {
            for &b in &ns[i + 1..] {
                adj[a as usize].insert(b);
                adj[b as usize].insert(a);
            }
        }
        for &a in &ns {
            adj[a as usize].remove(&v);
        }
        adj[v as usize].clear();
        alive[v as usize] = false;
        order.push(v);
        affected.sort_unstable();
        affected.dedup();
        for &u in &affected {
            if u == v || !alive[u as usize] {
                continue;
            }
            let s = score(&adj, u);
            if s != current[u as usize] {
                current[u as usize] = s;
                heap.push(Reverse((s, u)));
            }
        }
    }
    order
}
