//! Reduced ordered binary decision diagrams (Bryant 1986).
//!
//! The baseline compilation target of the paper: OBDDs are canonical SDDs
//! over *right-linear* vtrees (paper §3.2.2), and bounded OBDD width
//! characterizes bounded circuit **pathwidth** (Jha & Suciu; paper Eq. 2).
//! This crate provides a classic hash-consed manager:
//!
//! * apply with memoization ([`Obdd::and`], [`Obdd::or`], [`Obdd::xor`]),
//!   [`Obdd::not`], [`Obdd::ite`];
//! * compilation [`Obdd::from_boolfn`] (Shannon expansion against the
//!   truth-table kernel) and [`Obdd::from_circuit`] (bottom-up apply);
//! * model counting, weighted model counting, size and the paper's **OBDD
//!   width** (max nodes per level) — [`Obdd::width`];
//! * variable-order search: exhaustive for small supports, adjacent-swap
//!   hill climbing otherwise ([`order`]).

pub mod order;

use boolfunc::{BoolFn, VarSet};
use vtree::fxhash::{FxHashMap, FxHashSet};
use vtree::VarId;

/// Index of an OBDD node. `FALSE = 0`, `TRUE = 1`.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct NodeId(pub u32);

/// The ⊥ terminal.
pub const FALSE: NodeId = NodeId(0);
/// The ⊤ terminal.
pub const TRUE: NodeId = NodeId(1);

impl NodeId {
    #[inline]
    fn index(self) -> usize {
        self.0 as usize
    }

    /// Is this a terminal?
    #[inline]
    pub fn is_terminal(self) -> bool {
        self.0 <= 1
    }
}

#[derive(Copy, Clone, Debug)]
struct Node {
    level: u32,
    lo: NodeId,
    hi: NodeId,
}

#[derive(Copy, Clone, PartialEq, Eq, Hash)]
enum Op {
    And,
    Or,
    Xor,
}

/// A reduced ordered BDD manager over a fixed variable order.
pub struct Obdd {
    order: Vec<VarId>,
    level_of: FxHashMap<VarId, u32>,
    nodes: Vec<Node>,
    unique: FxHashMap<(u32, NodeId, NodeId), NodeId>,
    cache: FxHashMap<(Op, NodeId, NodeId), NodeId>,
}

impl Obdd {
    /// Fresh manager respecting `order` (level 0 first / topmost).
    pub fn new(order: Vec<VarId>) -> Self {
        let level_of = order
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, i as u32))
            .collect();
        let sentinel = order.len() as u32;
        Obdd {
            order,
            level_of,
            nodes: vec![
                Node {
                    level: sentinel,
                    lo: FALSE,
                    hi: FALSE,
                },
                Node {
                    level: sentinel,
                    lo: TRUE,
                    hi: TRUE,
                },
            ],
            unique: FxHashMap::default(),
            cache: FxHashMap::default(),
        }
    }

    /// The variable order.
    pub fn order(&self) -> &[VarId] {
        &self.order
    }

    /// Number of levels (= variables in the order).
    pub fn num_levels(&self) -> u32 {
        self.order.len() as u32
    }

    /// Total nodes allocated in the manager (including both terminals).
    pub fn num_allocated(&self) -> usize {
        self.nodes.len()
    }

    #[inline]
    fn level(&self, n: NodeId) -> u32 {
        self.nodes[n.index()].level
    }

    /// Reduced node constructor.
    fn mk(&mut self, level: u32, lo: NodeId, hi: NodeId) -> NodeId {
        if lo == hi {
            return lo;
        }
        if let Some(&id) = self.unique.get(&(level, lo, hi)) {
            return id;
        }
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node { level, lo, hi });
        self.unique.insert((level, lo, hi), id);
        id
    }

    /// The node for a positive literal.
    pub fn var(&mut self, v: VarId) -> NodeId {
        let level = self.level_of[&v];
        self.mk(level, FALSE, TRUE)
    }

    /// The node for a literal of either polarity.
    pub fn literal(&mut self, v: VarId, positive: bool) -> NodeId {
        let level = self.level_of[&v];
        if positive {
            self.mk(level, FALSE, TRUE)
        } else {
            self.mk(level, TRUE, FALSE)
        }
    }

    fn apply(&mut self, op: Op, a: NodeId, b: NodeId) -> NodeId {
        // Terminal / identity shortcuts.
        match op {
            Op::And => {
                if a == FALSE || b == FALSE {
                    return FALSE;
                }
                if a == TRUE {
                    return b;
                }
                if b == TRUE || a == b {
                    return a;
                }
            }
            Op::Or => {
                if a == TRUE || b == TRUE {
                    return TRUE;
                }
                if a == FALSE {
                    return b;
                }
                if b == FALSE || a == b {
                    return a;
                }
            }
            Op::Xor => {
                if a == b {
                    return FALSE;
                }
                if a == FALSE {
                    return b;
                }
                if b == FALSE {
                    return a;
                }
                if a == TRUE && b == TRUE {
                    return FALSE;
                }
            }
        }
        // Commutative: normalize operand order for the cache.
        let key = if a <= b { (op, a, b) } else { (op, b, a) };
        if let Some(&r) = self.cache.get(&key) {
            return r;
        }
        let (la, lb) = (self.level(a), self.level(b));
        let top = la.min(lb);
        let (a0, a1) = if la == top {
            (self.nodes[a.index()].lo, self.nodes[a.index()].hi)
        } else {
            (a, a)
        };
        let (b0, b1) = if lb == top {
            (self.nodes[b.index()].lo, self.nodes[b.index()].hi)
        } else {
            (b, b)
        };
        let lo = self.apply(op, a0, b0);
        let hi = self.apply(op, a1, b1);
        let r = self.mk(top, lo, hi);
        self.cache.insert(key, r);
        r
    }

    /// Conjunction.
    pub fn and(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.apply(Op::And, a, b)
    }

    /// Disjunction.
    pub fn or(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.apply(Op::Or, a, b)
    }

    /// Exclusive or.
    pub fn xor(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.apply(Op::Xor, a, b)
    }

    /// Negation.
    pub fn not(&mut self, a: NodeId) -> NodeId {
        self.apply(Op::Xor, a, TRUE)
    }

    /// If-then-else.
    pub fn ite(&mut self, f: NodeId, g: NodeId, h: NodeId) -> NodeId {
        let fg = self.and(f, g);
        let nf = self.not(f);
        let nfh = self.and(nf, h);
        self.or(fg, nfh)
    }

    /// Existentially quantify one variable: `∃v. f = f|_{v=0} ∨ f|_{v=1}`.
    pub fn exists(&mut self, f: NodeId, v: VarId) -> NodeId {
        let level = self.level_of[&v];
        let f0 = self.restrict_node(f, level, false);
        let f1 = self.restrict_node(f, level, true);
        self.or(f0, f1)
    }

    /// Existentially quantify a set of variables (used by the Petke–Razgon
    /// route, paper Eq. 3: `C(X) ≡ ∃Z. D_T(X, Z)`).
    pub fn exists_many(&mut self, f: NodeId, vars: &[VarId]) -> NodeId {
        let mut cur = f;
        for &v in vars {
            cur = self.exists(cur, v);
        }
        cur
    }

    /// Cofactor of a diagram on `level := value`.
    fn restrict_node(&mut self, f: NodeId, level: u32, value: bool) -> NodeId {
        // Iterative-friendly memoized recursion keyed by (node, level, value)
        // through the generic cache is not possible (different op shape), so
        // use a local memo.
        let mut memo: FxHashMap<NodeId, NodeId> = FxHashMap::default();
        self.restrict_rec(f, level, value, &mut memo)
    }

    fn restrict_rec(
        &mut self,
        f: NodeId,
        level: u32,
        value: bool,
        memo: &mut FxHashMap<NodeId, NodeId>,
    ) -> NodeId {
        if f.is_terminal() || self.level(f) > level {
            return f;
        }
        if let Some(&r) = memo.get(&f) {
            return r;
        }
        let node = self.nodes[f.index()];
        let r = if node.level == level {
            if value {
                node.hi
            } else {
                node.lo
            }
        } else {
            let lo = self.restrict_rec(node.lo, level, value, memo);
            let hi = self.restrict_rec(node.hi, level, value, memo);
            self.mk(node.level, lo, hi)
        };
        memo.insert(f, r);
        r
    }

    /// Compile a truth table by Shannon expansion along the order. The order
    /// must cover the support.
    pub fn from_boolfn(&mut self, f: &BoolFn) -> NodeId {
        assert!(
            f.vars().iter().all(|v| self.level_of.contains_key(&v)),
            "order must cover the support"
        );
        let mut memo: FxHashMap<BoolFn, NodeId> = FxHashMap::default();
        self.from_boolfn_rec(f, 0, &mut memo)
    }

    #[allow(clippy::wrong_self_convention)] // recursive helper of from_boolfn
    fn from_boolfn_rec(
        &mut self,
        f: &BoolFn,
        level: u32,
        memo: &mut FxHashMap<BoolFn, NodeId>,
    ) -> NodeId {
        if let Some(c) = f.as_constant() {
            return if c { TRUE } else { FALSE };
        }
        if let Some(&n) = memo.get(f) {
            return n;
        }
        // Find the first order level whose variable is in the support.
        let mut l = level;
        loop {
            let v = self.order[l as usize];
            if f.vars().contains(v) && f.depends_on(v) {
                let f0 = f.restrict(v, false);
                let f1 = f.restrict(v, true);
                let lo = self.from_boolfn_rec(&f0, l + 1, memo);
                let hi = self.from_boolfn_rec(&f1, l + 1, memo);
                let n = self.mk(l, lo, hi);
                memo.insert(f.clone(), n);
                return n;
            }
            l += 1;
            debug_assert!(
                (l as usize) < self.order.len(),
                "non-constant function must depend on some ordered var"
            );
        }
    }

    /// Compile a circuit bottom-up with `apply`.
    /// Left fold on purpose: an oracle for the SDD vtree-order fold, it shares no code or order.
    pub fn from_circuit(&mut self, c: &circuit::Circuit) -> NodeId {
        use circuit::GateKind;
        let mut val: Vec<NodeId> = Vec::with_capacity(c.size());
        for (_, g) in c.iter() {
            let n = match g {
                GateKind::Var(v) => self.var(*v),
                GateKind::Const(b) => {
                    if *b {
                        TRUE
                    } else {
                        FALSE
                    }
                }
                GateKind::Not(x) => {
                    let x = val[x.index()];
                    self.not(x)
                }
                GateKind::And(xs) => {
                    let mut acc = TRUE;
                    for x in xs.iter() {
                        let xv = val[x.index()];
                        acc = self.and(acc, xv);
                    }
                    acc
                }
                GateKind::Or(xs) => {
                    let mut acc = FALSE;
                    for x in xs.iter() {
                        let xv = val[x.index()];
                        acc = self.or(acc, xv);
                    }
                    acc
                }
            };
            val.push(n);
        }
        val[c.output().index()]
    }

    /// Nodes reachable from `root`, excluding terminals.
    pub fn reachable(&self, root: NodeId) -> Vec<NodeId> {
        let mut seen: FxHashSet<NodeId> = FxHashSet::default();
        let mut stack = vec![root];
        let mut out = Vec::new();
        while let Some(n) = stack.pop() {
            if n.is_terminal() || !seen.insert(n) {
                continue;
            }
            out.push(n);
            stack.push(self.nodes[n.index()].lo);
            stack.push(self.nodes[n.index()].hi);
        }
        out
    }

    /// OBDD size: number of reachable decision nodes plus the two terminals.
    pub fn size(&self, root: NodeId) -> usize {
        self.reachable(root).len() + 2
    }

    /// Per-level node counts for the diagram rooted at `root`.
    pub fn level_profile(&self, root: NodeId) -> Vec<usize> {
        let mut counts = vec![0usize; self.order.len()];
        for n in self.reachable(root) {
            counts[self.level(n) as usize] += 1;
        }
        counts
    }

    /// The paper's **OBDD width**: the largest number of nodes labeled by the
    /// same variable.
    pub fn width(&self, root: NodeId) -> usize {
        self.level_profile(root).into_iter().max().unwrap_or(0)
    }

    /// Exact model count over all `num_levels()` ordered variables.
    pub fn count_models(&self, root: NodeId) -> u128 {
        let mut memo: FxHashMap<NodeId, u128> = FxHashMap::default();
        let l = self.count_rec(root, &mut memo);
        l << self.level(root).min(self.num_levels())
    }

    /// Models over the levels strictly below (and including) `n`'s level.
    fn count_rec(&self, n: NodeId, memo: &mut FxHashMap<NodeId, u128>) -> u128 {
        if n == FALSE {
            return 0;
        }
        if n == TRUE {
            return 1;
        }
        if let Some(&c) = memo.get(&n) {
            return c;
        }
        let node = self.nodes[n.index()];
        let lo = self.count_rec(node.lo, memo);
        let hi = self.count_rec(node.hi, memo);
        let c = (lo << (self.level(node.lo) - node.level - 1))
            + (hi << (self.level(node.hi) - node.level - 1));
        memo.insert(n, c);
        c
    }

    /// Weighted model count: `weight(v)` gives `(w⁻, w⁺)`. Skipped levels
    /// contribute the factor `w⁻ + w⁺` (so probabilities need no smoothing).
    pub fn weighted_count(&self, root: NodeId, weight: impl Fn(VarId) -> (f64, f64)) -> f64 {
        let w: Vec<(f64, f64)> = self.order.iter().map(|&v| weight(v)).collect();
        // skip_prod[i] = ∏_{l >= i} (w⁻ + w⁺): suffix products for level gaps.
        let mut suffix = vec![1.0; self.order.len() + 1];
        for i in (0..self.order.len()).rev() {
            suffix[i] = suffix[i + 1] * (w[i].0 + w[i].1);
        }
        let gap = |from: u32, to: u32| -> f64 {
            // product over levels in (from, to)
            suffix[(from + 1) as usize] / suffix[to as usize]
        };
        let mut memo: FxHashMap<NodeId, f64> = FxHashMap::default();
        fn rec(
            o: &Obdd,
            n: NodeId,
            w: &[(f64, f64)],
            gap: &dyn Fn(u32, u32) -> f64,
            memo: &mut FxHashMap<NodeId, f64>,
        ) -> f64 {
            if n == FALSE {
                return 0.0;
            }
            if n == TRUE {
                return 1.0;
            }
            if let Some(&x) = memo.get(&n) {
                return x;
            }
            let node = o.nodes[n.index()];
            let l = node.level as usize;
            let lo = rec(o, node.lo, w, gap, memo) * gap(node.level, o.level(node.lo));
            let hi = rec(o, node.hi, w, gap, memo) * gap(node.level, o.level(node.hi));
            let x = w[l].0 * lo + w[l].1 * hi;
            memo.insert(n, x);
            x
        }
        let top_gap = suffix[0] / suffix[self.level(root) as usize];
        rec(self, root, &w, &gap, &mut memo) * top_gap
    }

    /// Probability under independent `P(v=1) = prob(v)`.
    pub fn probability(&self, root: NodeId, prob: impl Fn(VarId) -> f64) -> f64 {
        self.weighted_count(root, |v| {
            let p = prob(v);
            (1.0 - p, p)
        })
    }

    /// Read back the function (over the ordered vars seen from `root`).
    pub fn to_boolfn(&self, root: NodeId) -> BoolFn {
        let vars = VarSet::from_slice(&self.order);
        let order = &self.order;
        BoolFn::from_fn(vars.clone(), |idx| {
            let mut n = root;
            while !n.is_terminal() {
                let node = self.nodes[n.index()];
                let v = order[node.level as usize];
                let bit = idx >> vars.position(v).expect("ordered var") & 1;
                n = if bit == 1 { node.hi } else { node.lo };
            }
            n == TRUE
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use boolfunc::families;

    fn v(i: u32) -> VarId {
        VarId(i)
    }

    fn order(n: u32) -> Vec<VarId> {
        (0..n).map(VarId).collect()
    }

    #[test]
    fn literals_and_apply() {
        let mut m = Obdd::new(order(2));
        let x = m.var(v(0));
        let y = m.var(v(1));
        let a = m.and(x, y);
        assert_eq!(m.count_models(a), 1);
        let o = m.or(x, y);
        assert_eq!(m.count_models(o), 3);
        let n = m.not(x);
        assert_eq!(m.count_models(n), 2);
        let xo = m.xor(x, y);
        assert_eq!(m.count_models(xo), 2);
    }

    #[test]
    fn reduction_shares_nodes() {
        let mut m = Obdd::new(order(2));
        let x = m.var(v(0));
        let x2 = m.var(v(0));
        assert_eq!(x, x2);
        let t = m.or(x, x);
        assert_eq!(t, x);
    }

    #[test]
    fn from_boolfn_parity_has_width_two() {
        let vars = order(8);
        let f = families::parity(&vars);
        let mut m = Obdd::new(vars);
        let root = m.from_boolfn(&f);
        assert_eq!(m.width(root), 2);
        assert_eq!(m.count_models(root), 128);
        assert!(m.to_boolfn(root).equivalent(&f));
    }

    #[test]
    fn from_circuit_matches_from_boolfn() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(41);
        for _ in 0..10 {
            let c = circuit::families::random_circuit(5, 14, &mut rng);
            let f = c.to_boolfn().unwrap();
            let mut m = Obdd::new(order(5));
            let r1 = m.from_circuit(&c);
            let r2 = m.from_boolfn(&f);
            assert_eq!(r1, r2, "canonicity: same function, same node");
        }
    }

    #[test]
    fn model_count_with_level_jumps() {
        // f = x0 ∧ x3 over 4 levels: jumps across levels 1, 2.
        let mut m = Obdd::new(order(4));
        let x0 = m.var(v(0));
        let x3 = m.var(v(3));
        let f = m.and(x0, x3);
        assert_eq!(m.count_models(f), 4);
    }

    #[test]
    fn top_gap_counted() {
        // f = x2 over 3 levels: root at level 2; two free vars above.
        let mut m = Obdd::new(order(3));
        let x2 = m.var(v(2));
        assert_eq!(m.count_models(x2), 4);
    }

    #[test]
    fn weighted_count_matches_kernel() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(4242);
        let vars = order(7);
        let f = boolfunc::BoolFn::random(boolfunc::VarSet::from_slice(&vars), &mut rng);
        let mut m = Obdd::new(vars);
        let root = m.from_boolfn(&f);
        let probs = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7];
        let a = m.probability(root, |u| probs[u.index()]);
        let b = f.probability(|u| probs[u.index()]);
        assert!((a - b).abs() < 1e-12, "obdd {a} vs kernel {b}");
    }

    #[test]
    fn disjointness_interleaved_vs_separated_width() {
        // D_n has constant width under the interleaved order x1 y1 x2 y2 …
        // and exponential width under x1..xn y1..yn.
        let n = 5;
        let (f, xs, ys) = families::disjointness(n);
        let mut interleaved = Vec::new();
        for i in 0..n {
            interleaved.push(xs[i]);
            interleaved.push(ys[i]);
        }
        let mut m1 = Obdd::new(interleaved);
        let r1 = m1.from_boolfn(&f);
        let w1 = m1.width(r1);
        let mut separated = Vec::new();
        separated.extend_from_slice(&xs);
        separated.extend_from_slice(&ys);
        let mut m2 = Obdd::new(separated);
        let r2 = m2.from_boolfn(&f);
        let w2 = m2.width(r2);
        assert!(w1 <= 3, "interleaved width {w1}");
        assert!(w2 >= 1 << (n - 1), "separated width {w2} should be ~2^n");
    }

    #[test]
    fn ite_consistency() {
        let mut m = Obdd::new(order(3));
        let x = m.var(v(0));
        let y = m.var(v(1));
        let z = m.var(v(2));
        let a = m.ite(x, y, z);
        // ite(x,y,z) has 4 models: x&y (2 z-free... enumerated = 4).
        let f = m.to_boolfn(a);
        let expect = boolfunc::BoolFn::from_fn(boolfunc::VarSet::from_slice(&order(3)), |i| {
            if i & 1 == 1 {
                i >> 1 & 1 == 1
            } else {
                i >> 2 & 1 == 1
            }
        });
        assert!(f.equivalent(&expect));
    }
}
