//! The smoothed arithmetic circuit behind the KB's two-pass queries.
//!
//! The semiring engine (`sdd::eval`) walks the SDD *implicitly*, recomputing
//! smoothing products from vtree paths on every visit. Marginals and MPE
//! witnesses need more than a single bottom-up value: they need the
//! **derivative** of the weighted count with respect to every literal
//! weight (Darwiche's differential approach to inference), which requires a
//! downward pass over an *explicit* computation graph. [`Ac`] is that
//! graph: the SDD unfolded — once, at KB construction — into a plain DAG of
//! `⊕`/`⊗` nodes with one shared leaf per literal and shared smoothing
//! subcircuits per vtree node, stored in topological order so the upward
//! pass is a forward sweep and the downward pass a reverse sweep.
//!
//! The graph is stored **CSR-style** — parallel `kinds`/`meta` arrays plus
//! one flat `children` array that per-gate `(start, end)` ranges tile — so
//! a circuit is four contiguous buffers with no per-gate allocation. That
//! is both the fast layout for the sweeps (no pointer chasing) and the
//! serialization layout: a snapshot writes the buffers as raw sections and
//! a load reads them straight back.
//!
//! Everything here is generic over [`Semiring`]:
//!
//! * forward sweep + [`Ac::backprop`] in a sum-product carrier (`LogF64`)
//!   → every variable's unnormalized marginal pair in two passes;
//! * forward sweep in `MaxPlus` + [`Ac::mpe`]'s argmax descent → the most
//!   probable explanation *with* its witnessing assignment;
//! * [`Ac::top_k`] — the same sweep over lists of partial models → the `k`
//!   heaviest models, each materialized as a complete assignment.
//!
//! Everything here honors the workspace's **iterative-engine invariant**:
//! the unfold walks decisions in interning order (children before parents
//! — ascending [`SddId`] is topological), the up/down passes are indexed
//! sweeps over the stored topological order, and the MPE/top-k decoders
//! walk with explicit stacks — no pass recurses on input-sized structure,
//! so 100k-variable circuits sweep on a default-size thread stack.

use arith::{LaneSemiring, MaxPlus, Semiring};
use sdd::{SddId, SddManager, SddNode};
use vtree::fxhash::FxHashMap;
use vtree::{VarId, VtreeNodeId};

/// Index into the gate arrays of [`Ac`].
pub(crate) type AcId = u32;

/// Result of [`Ac::marginals`]: the root value and, per dense variable,
/// the unnormalized `(m⁻, m⁺)` pair.
pub(crate) type Marginals<E> = (E, Vec<(E, E)>);

/// The widest lane block [`Ac::marginals_lanes`] sweeps at once. Wider
/// batches run as tiles: on a 2-vCPU Xeon (AVX-512) the per-lane cost of
/// a 64-lane sweep was about twice that of 32-lane tiles on chain
/// circuits of 1k–34k gates, and equal on a 2.7k-gate band circuit.
const LANE_TILE: usize = 32;

/// A session keeps its sweep tables between queries up to this size
/// ([`SweepBufs::trim`]).
const RETAINED_SWEEP_BYTES: usize = 64 << 20;

/// The value and derivative tables of the two-pass sweeps, kept by a
/// session between queries. Allocating them per query costs more than
/// the sweep once the allocator maps large blocks fresh from the OS: on
/// a 2-vCPU Xeon a 64-lane marginal batch over a 4k-gate chain ran at
/// 60 µs per lane on fresh tables and 25 µs on reused ones.
pub(crate) struct SweepBufs<E> {
    vals: Vec<E>,
    dr: Vec<E>,
    seen: Vec<bool>,
}

impl<E> Default for SweepBufs<E> {
    fn default() -> Self {
        SweepBufs {
            vals: Vec::new(),
            dr: Vec::new(),
            seen: Vec::new(),
        }
    }
}

impl<E> SweepBufs<E> {
    /// Free the tables once they outgrow [`RETAINED_SWEEP_BYTES`], so one
    /// wide batch over a huge circuit does not stay resident in the
    /// session.
    fn trim(&mut self) {
        let bytes = (self.vals.capacity() + self.dr.capacity()) * std::mem::size_of::<E>()
            + self.seen.capacity();
        if bytes > RETAINED_SWEEP_BYTES {
            *self = SweepBufs::default();
        }
    }
}

/// Gate kinds (the `kinds` byte per gate).
pub(crate) const K_ZERO: u8 = 0;
/// A literal-weight leaf; `meta` = (dense var index, positive as 0/1).
pub(crate) const K_LEAF: u8 = 1;
/// `⊕` over a `children` range; `meta` = (start, end).
pub(crate) const K_ADD: u8 = 2;
/// `⊗` over a `children` range; `meta` = (start, end).
pub(crate) const K_MUL: u8 = 3;

/// The unfolded, smoothed arithmetic circuit of one compiled SDD root.
///
/// Gate ids are a topological order (children strictly below parents), so
/// evaluation is a single indexed sweep in either direction. Gate `0` is
/// the shared constant-zero gate.
///
/// The circuit is plain owned data with no back-reference into the manager
/// it was unfolded from (gate ids are its own dense ids), so a
/// [`crate::FrozenKb`] carries it into the `Send + Sync` serving tier
/// unchanged, branch sessions clone it instead of re-unfolding, and a
/// snapshot persists the four buffers verbatim.
#[derive(Clone)]
pub(crate) struct Ac {
    /// One kind byte per gate ([`K_ZERO`]…[`K_MUL`]).
    pub(crate) kinds: Vec<u8>,
    /// Per gate: leaf `(var, positive)`, or child range `(start, end)`.
    pub(crate) meta: Vec<(u32, u32)>,
    /// Flattened child lists; each `⊕`/`⊗` gate owns one contiguous range.
    pub(crate) children: Vec<AcId>,
    pub(crate) root: AcId,
    /// The vtree variables, defining the dense index.
    pub(crate) vars: Vec<VarId>,
    /// Per dense variable: the shared `(¬v, v)` leaf ids.
    pub(crate) leaves: Vec<(AcId, AcId)>,
}

/// Transient state while unfolding the SDD (see [`Ac::build`]).
struct Builder<'m> {
    mgr: &'m SddManager,
    kinds: Vec<u8>,
    meta: Vec<(u32, u32)>,
    children: Vec<AcId>,
    /// Per vtree node: the shared smoothing subcircuit `⊗ (w⁻ ⊕ w⁺)`.
    gapc: Vec<AcId>,
    /// Per decision node: its unsmoothed `⊕ (prime ⊗ sub)` gate.
    rawc: FxHashMap<SddId, AcId>,
    var_index: FxHashMap<VarId, u32>,
    leaves: Vec<(AcId, AcId)>,
}

impl<'m> Builder<'m> {
    /// Push a childless gate (zero or leaf).
    fn push(&mut self, kind: u8, meta: (u32, u32)) -> AcId {
        let id = self.kinds.len() as AcId;
        self.kinds.push(kind);
        self.meta.push(meta);
        id
    }

    /// Push an `⊕`/`⊗` gate, appending its child list to the flat array.
    fn push_gate(&mut self, kind: u8, ch: &[AcId]) -> AcId {
        let start = self.children.len() as u32;
        self.children.extend_from_slice(ch);
        self.push(kind, (start, self.children.len() as u32))
    }

    /// AC gate computing `a`'s value over the scope of vtree node `scope`.
    fn scoped(&mut self, a: SddId, scope: VtreeNodeId) -> AcId {
        match self.mgr.node(a) {
            SddNode::False => 0,
            SddNode::True => self.gapc[scope.index()],
            SddNode::Literal { var, positive } => {
                let vi = self.var_index[var] as usize;
                let leaf = if *positive {
                    self.leaves[vi].1
                } else {
                    self.leaves[vi].0
                };
                let target = self.mgr.vtree().leaf_of_var(*var).expect("var in vtree");
                self.smoothed(leaf, scope, target)
            }
            SddNode::Decision { vnode, .. } => {
                let (vnode, raw) = (*vnode, self.rawc[&a]);
                self.smoothed(raw, scope, vnode)
            }
        }
    }

    /// Multiply `base` by the smoothing gaps of every subtree branched away
    /// from on the vtree walk `scope → target` ([`vtree::Vtree::branched_away`]).
    fn smoothed(&mut self, base: AcId, scope: VtreeNodeId, target: VtreeNodeId) -> AcId {
        let mut factors = vec![base];
        let gapc = &self.gapc;
        self.mgr
            .vtree()
            .branched_away(scope, target, |t| factors.push(gapc[t.index()]));
        if factors.len() == 1 {
            base
        } else {
            self.push_gate(K_MUL, &factors)
        }
    }
}

impl Ac {
    /// Unfold the SDD rooted at `root` into its smoothed arithmetic
    /// circuit. Runs once per knowledge base; every query afterwards is a
    /// sweep (or two) over the result.
    pub fn build(mgr: &SddManager, root: SddId) -> Ac {
        let vt = mgr.vtree();
        let vars: Vec<VarId> = vt.vars().to_vec();
        let mut b = Builder {
            mgr,
            kinds: vec![K_ZERO],
            meta: vec![(0, 0)],
            children: Vec::new(),
            gapc: vec![0; vt.num_nodes()],
            rawc: FxHashMap::default(),
            var_index: vars
                .iter()
                .enumerate()
                .map(|(i, &v)| (v, i as u32))
                .collect(),
            leaves: Vec::with_capacity(vars.len()),
        };
        // Shared literal leaves, one pair per variable.
        for i in 0..vars.len() as u32 {
            let neg = b.push(K_LEAF, (i, 0));
            let pos = b.push(K_LEAF, (i, 1));
            b.leaves.push((neg, pos));
        }
        // Smoothing subcircuits, bottom-up over the vtree.
        for n in vt.bottom_up_order() {
            b.gapc[n.index()] = match vt.children(n) {
                None => {
                    let v = vt.leaf_var(n).expect("leaf");
                    let (neg, pos) = b.leaves[b.var_index[&v] as usize];
                    b.push_gate(K_ADD, &[neg, pos])
                }
                Some((l, r)) => {
                    let (gl, gr) = (b.gapc[l.index()], b.gapc[r.index()]);
                    b.push_gate(K_MUL, &[gl, gr])
                }
            };
        }
        // Decision nodes in ascending id order — the manager creates
        // children before parents, so this is a topological order.
        let mut decisions = mgr.reachable_decisions(root);
        decisions.sort_unstable();
        for d in decisions {
            let SddNode::Decision { vnode, .. } = mgr.node(d) else {
                unreachable!("reachable_decisions returns decisions");
            };
            let vnode = *vnode;
            let (lv, rv) = vt.children(vnode).expect("internal vnode");
            // The element slice is borrowed straight from the manager's
            // arena — the unfold never clones element lists. An element
            // with a `⊥` sub contributes the semiring zero, which every
            // `⊕`-fold absorbs exactly (`lse(x, -∞) = x` bit-for-bit), so
            // it is left out: no gate, no derivative, no wasted ⊕-kernel
            // in either sweep.
            let parts: Vec<AcId> = mgr
                .elements_of(d)
                .iter()
                .filter(|&&(_, s)| !matches!(mgr.node(s), SddNode::False))
                .map(|&(p, s)| {
                    let pa = b.scoped(p, lv);
                    let sa = b.scoped(s, rv);
                    b.push_gate(K_MUL, &[pa, sa])
                })
                .collect();
            let raw = b.push_gate(K_ADD, &parts);
            b.rawc.insert(d, raw);
        }
        let root_ac = b.scoped(root, vt.root());
        Ac {
            kinds: b.kinds,
            meta: b.meta,
            children: b.children,
            root: root_ac,
            vars,
            leaves: b.leaves,
        }
    }

    /// Gates in the unfolded circuit.
    pub fn size(&self) -> usize {
        self.kinds.len()
    }

    /// The child slice of gate `id` (empty for zero/leaf gates).
    #[inline]
    fn ch(&self, id: usize) -> &[AcId] {
        match self.kinds[id] {
            K_ADD | K_MUL => {
                let (start, end) = self.meta[id];
                &self.children[start as usize..end as usize]
            }
            _ => &[],
        }
    }

    /// Upward pass: the value of every gate under `weights` (indexed by
    /// dense variable, `(w⁻, w⁺)`). A gate's fold starts from its first
    /// child's value rather than from the identity — exact in every carrier
    /// this crate evaluates in (`lse(-∞, x) = x` and `0 + x = x`
    /// bit-for-bit in [`arith::LogF64`], `max(-∞, x) = x` in
    /// [`MaxPlus`]) and one ⊕-kernel cheaper per gate; the same fold
    /// [`Ac::eval_lanes`] runs per lane.
    /// Writes into `vals`, reusing its allocation.
    pub fn eval<S: Semiring>(
        &self,
        s: &S,
        weights: &[(S::Elem, S::Elem)],
        vals: &mut Vec<S::Elem>,
    ) {
        vals.clear();
        vals.reserve(self.kinds.len());
        for id in 0..self.kinds.len() {
            let (a, b) = self.meta[id];
            let v = match self.kinds[id] {
                K_ZERO => s.zero(),
                K_LEAF => {
                    let (wn, wp) = &weights[a as usize];
                    if b == 1 {
                        wp.clone()
                    } else {
                        wn.clone()
                    }
                }
                kind => match self.children[a as usize..b as usize].split_first() {
                    None if kind == K_ADD => s.zero(),
                    None => s.one(),
                    Some((&c0, rest)) => {
                        let mut acc = vals[c0 as usize].clone();
                        for &c in rest {
                            acc = if kind == K_ADD {
                                s.add(&acc, &vals[c as usize])
                            } else {
                                s.mul(&acc, &vals[c as usize])
                            };
                        }
                        acc
                    }
                },
            };
            vals.push(v);
        }
    }

    /// Downward pass: `dr[g]` = ∂(root)/∂(gate g), the semiring
    /// generalization of backpropagation. `⊕`-gates pass their derivative
    /// through; `⊗`-gates multiply it by the product of the *other*
    /// children's values (computed with prefix/suffix products, so the pass
    /// stays linear even for wide gates). A gate's first parent
    /// contribution is written, not ⊕-folded into the zero it starts
    /// from — exact, as in [`Ac::eval`], and on chain-shaped circuits,
    /// where most gates have one parent, nearly the whole downward ⊕ cost.
    /// Per gate the same operation sequence as [`Ac::backprop_lanes`].
    /// Writes into `dr`, with `seen` recording whether a parent has
    /// written a gate's derivative yet; both allocations are reused.
    pub fn backprop<S: Semiring>(
        &self,
        s: &S,
        vals: &[S::Elem],
        dr: &mut Vec<S::Elem>,
        seen: &mut Vec<bool>,
    ) {
        let n = self.kinds.len();
        dr.clear();
        dr.resize(n, s.zero());
        dr[self.root as usize] = s.one();
        seen.clear();
        seen.resize(n, false);
        seen[self.root as usize] = true;
        let mut credit = |dr: &mut [S::Elem], c: usize, x: S::Elem| {
            dr[c] = if seen[c] { s.add(&dr[c], &x) } else { x };
            seen[c] = true;
        };
        for id in (0..n).rev() {
            match self.kinds[id] {
                K_ADD => {
                    let d = dr[id].clone();
                    for &c in self.ch(id) {
                        credit(dr, c as usize, d.clone());
                    }
                }
                K_MUL => {
                    let d = dr[id].clone();
                    let ch = self.ch(id);
                    match ch.len() {
                        0 => {}
                        1 => credit(dr, ch[0] as usize, d),
                        2 => {
                            let (a, b) = (ch[0] as usize, ch[1] as usize);
                            credit(dr, a, s.mul(&d, &vals[b]));
                            credit(dr, b, s.mul(&d, &vals[a]));
                        }
                        k => {
                            // prefix[i] = v₀⊗…⊗vᵢ₋₁, built left to right;
                            // suffix runs right to left.
                            let mut prefix = Vec::with_capacity(k);
                            let mut acc = s.one();
                            for &c in ch {
                                prefix.push(acc.clone());
                                acc = s.mul(&acc, &vals[c as usize]);
                            }
                            let mut suffix = s.one();
                            for i in (0..k).rev() {
                                let c = ch[i] as usize;
                                let other = s.mul(&prefix[i], &suffix);
                                credit(dr, c, s.mul(&d, &other));
                                suffix = s.mul(&suffix, &vals[c]);
                            }
                        }
                    }
                }
                _ => {}
            }
        }
    }

    /// Two-pass marginals: returns the root value plus, per dense variable,
    /// the unnormalized pair `(m⁻, m⁺)` — the total weight of models
    /// setting the variable false resp. true. Smoothness guarantees
    /// `m⁻ ⊕ m⁺ = root value` for every variable.
    pub fn marginals<S: Semiring>(
        &self,
        s: &S,
        weights: &[(S::Elem, S::Elem)],
        bufs: &mut SweepBufs<S::Elem>,
    ) -> Marginals<S::Elem> {
        let SweepBufs { vals, dr, seen } = bufs;
        self.eval(s, weights, vals);
        self.backprop(s, vals, dr, seen);
        let pairs = self
            .leaves
            .iter()
            .enumerate()
            .map(|(i, &(neg, pos))| {
                let (wn, wp) = &weights[i];
                (s.mul(wn, &dr[neg as usize]), s.mul(wp, &dr[pos as usize]))
            })
            .collect();
        let root = vals[self.root as usize].clone();
        bufs.trim();
        (root, pairs)
    }

    /// Batched upward pass: `lanes` weight rows per gate visit. `weights`
    /// holds lane columns at `var * lanes + l`; the returned value table
    /// holds gate columns at `gate * lanes + l`. Per lane the *values* are
    /// bit-identical to a scalar [`Ac::eval`] sweep under that lane's
    /// weights: the same fold over children, starting from a copy of the
    /// first child column. The gate dispatch (kind match, CSR range walk,
    /// bounds checks) is paid once per gate instead of once per gate per
    /// query.
    pub fn eval_lanes<S: LaneSemiring>(
        &self,
        s: &S,
        lanes: usize,
        weights: &[(S::Elem, S::Elem)],
        vals: &mut Vec<S::Elem>,
    ) {
        let n = self.kinds.len();
        vals.clear();
        vals.reserve(n * lanes);
        for id in 0..n {
            let (a, b) = self.meta[id];
            let start = vals.len();
            match self.kinds[id] {
                K_ZERO => vals.resize(start + lanes, s.zero()),
                K_LEAF => {
                    let base = a as usize * lanes;
                    if b == 1 {
                        vals.extend(weights[base..base + lanes].iter().map(|w| w.1.clone()));
                    } else {
                        vals.extend(weights[base..base + lanes].iter().map(|w| w.0.clone()));
                    }
                }
                K_ADD => {
                    let ch = &self.children[a as usize..b as usize];
                    match ch.split_first() {
                        None => vals.resize(start + lanes, s.zero()),
                        Some((&c0, rest)) => {
                            let c0b = c0 as usize * lanes;
                            vals.extend_from_within(c0b..c0b + lanes);
                            let (below, col) = vals.split_at_mut(start);
                            for &c in rest {
                                let cb = c as usize * lanes;
                                s.add_assign_lanes(col, &below[cb..cb + lanes]);
                            }
                        }
                    }
                }
                _ => {
                    let ch = &self.children[a as usize..b as usize];
                    match ch.split_first() {
                        None => vals.resize(start + lanes, s.one()),
                        Some((&c0, rest)) => {
                            let c0b = c0 as usize * lanes;
                            vals.extend_from_within(c0b..c0b + lanes);
                            let (below, col) = vals.split_at_mut(start);
                            for &c in rest {
                                let cb = c as usize * lanes;
                                s.mul_assign_lanes(col, &below[cb..cb + lanes]);
                            }
                        }
                    }
                }
            }
        }
    }

    /// Batched downward pass over a [`Ac::eval_lanes`] value table: the
    /// column form of [`Ac::backprop`]: same prefix/suffix handling of wide
    /// `⊗`-gates, same per-lane fold order, and a gate's first parent
    /// contribution likewise written into its (still all-zero) derivative
    /// column rather than ⊕-folded into it.
    pub fn backprop_lanes<S: LaneSemiring>(
        &self,
        s: &S,
        lanes: usize,
        vals: &[S::Elem],
        dr: &mut Vec<S::Elem>,
        seen: &mut Vec<bool>,
    ) {
        let n = self.kinds.len();
        dr.clear();
        dr.resize(n * lanes, s.zero());
        let rb = self.root as usize * lanes;
        s.one_fill(&mut dr[rb..rb + lanes]);
        // Per-gate "has a parent written here yet" flags: the first write
        // to a column is a copy, later writes ⊕-fold.
        seen.clear();
        seen.resize(n, false);
        seen[self.root as usize] = true;
        // Scratch columns, allocated once for the whole sweep.
        let mut prefix: Vec<S::Elem> = Vec::new();
        let mut acc: Vec<S::Elem> = vec![s.zero(); lanes];
        let mut suffix: Vec<S::Elem> = vec![s.zero(); lanes];
        let mut other: Vec<S::Elem> = vec![s.zero(); lanes];
        let mut dother: Vec<S::Elem> = vec![s.zero(); lanes];
        for id in (0..n).rev() {
            match self.kinds[id] {
                K_ADD => {
                    // Children sit strictly below the gate, so the gate's
                    // derivative column and the child columns never alias.
                    let (below, d) = dr.split_at_mut(id * lanes);
                    let d = &d[..lanes];
                    for &c in self.ch(id) {
                        let cb = c as usize * lanes;
                        if seen[c as usize] {
                            s.add_assign_lanes(&mut below[cb..cb + lanes], d);
                        } else {
                            below[cb..cb + lanes].clone_from_slice(d);
                            seen[c as usize] = true;
                        }
                    }
                }
                K_MUL => {
                    let ch_range = {
                        let (start, end) = self.meta[id];
                        start as usize..end as usize
                    };
                    let (below, d) = dr.split_at_mut(id * lanes);
                    let d = &d[..lanes];
                    let ch = &self.children[ch_range];
                    match ch.len() {
                        0 => {}
                        1 => {
                            let c = ch[0] as usize;
                            let cb = c * lanes;
                            if seen[c] {
                                s.add_assign_lanes(&mut below[cb..cb + lanes], d);
                            } else {
                                below[cb..cb + lanes].clone_from_slice(d);
                                seen[c] = true;
                            }
                        }
                        2 => {
                            let (ca, cb2) = (ch[0] as usize, ch[1] as usize);
                            let (ab, bb) = (ca * lanes, cb2 * lanes);
                            if seen[ca] {
                                s.mul_lanes_into(&mut other, d, &vals[bb..bb + lanes]);
                                s.add_assign_lanes(&mut below[ab..ab + lanes], &other);
                            } else {
                                s.mul_lanes_into(
                                    &mut below[ab..ab + lanes],
                                    d,
                                    &vals[bb..bb + lanes],
                                );
                                seen[ca] = true;
                            }
                            if seen[cb2] {
                                s.mul_lanes_into(&mut other, d, &vals[ab..ab + lanes]);
                                s.add_assign_lanes(&mut below[bb..bb + lanes], &other);
                            } else {
                                s.mul_lanes_into(
                                    &mut below[bb..bb + lanes],
                                    d,
                                    &vals[ab..ab + lanes],
                                );
                                seen[cb2] = true;
                            }
                        }
                        k => {
                            prefix.clear();
                            s.one_fill(&mut acc);
                            for &c in ch {
                                prefix.extend_from_slice(&acc);
                                let cb = c as usize * lanes;
                                s.mul_assign_lanes(&mut acc, &vals[cb..cb + lanes]);
                            }
                            s.one_fill(&mut suffix);
                            for i in (0..k).rev() {
                                let c = ch[i] as usize;
                                let cb = c * lanes;
                                s.mul_lanes_into(
                                    &mut other,
                                    &prefix[i * lanes..(i + 1) * lanes],
                                    &suffix,
                                );
                                if seen[c] {
                                    s.mul_lanes_into(&mut dother, d, &other);
                                    s.add_assign_lanes(&mut below[cb..cb + lanes], &dother);
                                } else {
                                    s.mul_lanes_into(&mut below[cb..cb + lanes], d, &other);
                                    seen[c] = true;
                                }
                                s.mul_assign_lanes(&mut suffix, &vals[cb..cb + lanes]);
                            }
                        }
                    }
                }
                _ => {}
            }
        }
    }

    /// Batched two-pass marginals: the root column plus, per dense
    /// variable, the unnormalized `(m⁻, m⁺)` lane columns (pairs at
    /// `var * lanes + l`). Per lane bit-identical to [`Ac::marginals`].
    /// A batch wider than [`LANE_TILE`] sweeps as consecutive tiles of at
    /// most that many lanes — lanes never interact, so no value changes.
    #[allow(clippy::type_complexity)]
    pub fn marginals_lanes<S: LaneSemiring>(
        &self,
        s: &S,
        lanes: usize,
        weights: &[(S::Elem, S::Elem)],
        bufs: &mut SweepBufs<S::Elem>,
    ) -> (Vec<S::Elem>, Vec<(S::Elem, S::Elem)>) {
        if lanes > LANE_TILE {
            let nv = self.vars.len();
            let mut total = Vec::with_capacity(lanes);
            let mut pairs = vec![(s.zero(), s.zero()); nv * lanes];
            for l0 in (0..lanes).step_by(LANE_TILE) {
                let w = LANE_TILE.min(lanes - l0);
                let cols = |i: usize| i * lanes + l0..i * lanes + l0 + w;
                let tile: Vec<(S::Elem, S::Elem)> = (0..nv)
                    .flat_map(|i| weights[cols(i)].iter().cloned())
                    .collect();
                let (t, p) = self.marginals_lanes(s, w, &tile, bufs);
                total.extend(t);
                for i in 0..nv {
                    pairs[cols(i)].clone_from_slice(&p[i * w..(i + 1) * w]);
                }
            }
            return (total, pairs);
        }
        let SweepBufs { vals, dr, seen } = bufs;
        self.eval_lanes(s, lanes, weights, vals);
        self.backprop_lanes(s, lanes, vals, dr, seen);
        let mut pairs = Vec::with_capacity(self.vars.len() * lanes);
        for (i, &(neg, pos)) in self.leaves.iter().enumerate() {
            let (nb, pb) = (neg as usize * lanes, pos as usize * lanes);
            for l in 0..lanes {
                let (wn, wp) = &weights[i * lanes + l];
                pairs.push((s.mul(wn, &dr[nb + l]), s.mul(wp, &dr[pb + l])));
            }
        }
        let rb = self.root as usize * lanes;
        let total = vals[rb..rb + lanes].to_vec();
        bufs.trim();
        (total, pairs)
    }

    /// Most probable explanation: evaluate in [`MaxPlus`] over
    /// **log**-weights, then descend from the root following the argmax
    /// child of every `⊕`-gate (and every child of every `⊗`-gate) to read
    /// off the witnessing assignment. Returns `None` when no model has
    /// nonzero weight (root value `-∞`). The returned log-weight is the
    /// witness's exact log-weight; each variable's polarity appears exactly
    /// once because the circuit is smooth and decomposable.
    pub fn mpe(&self, log_weights: &[(f64, f64)]) -> Option<(f64, Vec<bool>)> {
        let s = MaxPlus;
        let mut vals = Vec::new();
        self.eval(&s, log_weights, &mut vals);
        let best = vals[self.root as usize];
        if best == f64::NEG_INFINITY {
            return None;
        }
        let mut assignment: Vec<Option<bool>> = vec![None; self.vars.len()];
        let mut stack = vec![self.root];
        while let Some(id) = stack.pop() {
            let (a, b) = self.meta[id as usize];
            match self.kinds[id as usize] {
                K_ZERO => unreachable!("finite-valued gates have no Zero children"),
                K_LEAF => {
                    let slot = &mut assignment[a as usize];
                    debug_assert!(
                        slot.is_none() || *slot == Some(b == 1),
                        "decomposability: one polarity per variable"
                    );
                    *slot = Some(b == 1);
                }
                K_ADD => {
                    // The argmax back-pointer: the child carrying the gate's
                    // value (max_by keeps the last maximal element, so ties
                    // resolve to the last child).
                    let &arg = self.children[a as usize..b as usize]
                        .iter()
                        .max_by(|&&x, &&y| {
                            vals[x as usize]
                                .partial_cmp(&vals[y as usize])
                                .expect("log-weights are never NaN")
                        })
                        .expect("decisions and gaps have children");
                    stack.push(arg);
                }
                _ => stack.extend_from_slice(&self.children[a as usize..b as usize]),
            }
        }
        let witness = assignment
            .into_iter()
            .map(|b| b.expect("smoothness: every variable decided"))
            .collect();
        Some((best, witness))
    }

    /// Batched MPE: one lane-parallel [`MaxPlus`] sweep (`log_weights`
    /// holds lane columns of log pairs at `var * lanes + l`, the
    /// [`Ac::eval_lanes`] layout), then a per-lane argmax descent over the
    /// shared value table. Lane `l` is **bit-identical** to
    /// `self.mpe(&weights_l)`: the lane sweep's identity elision is exact
    /// in `MaxPlus` (`max(-∞, x) = x`, and `0 + x = x` — log-weights are
    /// `ln` images, never `-0.0`), and the descent resolves `⊕`-gate ties
    /// through the same `max_by` (last maximal child wins), so even
    /// tie-broken witnesses agree.
    pub fn mpe_lanes(
        &self,
        lanes: usize,
        log_weights: &[(f64, f64)],
    ) -> Vec<Option<(f64, Vec<bool>)>> {
        let mut vals = Vec::new();
        self.eval_lanes(&MaxPlus, lanes, log_weights, &mut vals);
        (0..lanes)
            .map(|l| {
                let best = vals[self.root as usize * lanes + l];
                if best == f64::NEG_INFINITY {
                    return None;
                }
                let mut assignment: Vec<Option<bool>> = vec![None; self.vars.len()];
                let mut stack = vec![self.root];
                while let Some(id) = stack.pop() {
                    let (a, b) = self.meta[id as usize];
                    match self.kinds[id as usize] {
                        K_ZERO => unreachable!("finite-valued gates have no Zero children"),
                        K_LEAF => {
                            let slot = &mut assignment[a as usize];
                            debug_assert!(
                                slot.is_none() || *slot == Some(b == 1),
                                "decomposability: one polarity per variable"
                            );
                            *slot = Some(b == 1);
                        }
                        K_ADD => {
                            let &arg = self.children[a as usize..b as usize]
                                .iter()
                                .max_by(|&&x, &&y| {
                                    vals[x as usize * lanes + l]
                                        .partial_cmp(&vals[y as usize * lanes + l])
                                        .expect("log-weights are never NaN")
                                })
                                .expect("decisions and gaps have children");
                            stack.push(arg);
                        }
                        _ => stack.extend_from_slice(&self.children[a as usize..b as usize]),
                    }
                }
                let witness = assignment
                    .into_iter()
                    .map(|b| b.expect("smoothness: every variable decided"))
                    .collect();
                Some((best, witness))
            })
            .collect()
    }

    /// The `k` heaviest models by log-weight, each as `(log-weight,
    /// assignment over the dense variables)`, heaviest first. The sweep
    /// carries a top-`k` list per gate: `⊕` merges its children's lists
    /// (determinism — branches share no model, so no deduplication is
    /// needed), `⊗` crosses them (decomposability — scopes are disjoint, so
    /// assignments union). Models of weight zero are never materialized.
    ///
    /// Partial assignments live in a **shared cell arena** (a literal, or
    /// the disjoint union of two earlier cells) and candidates carry only a
    /// cell index; the full assignments are decoded for the `k` survivors
    /// at the very end. Materializing an `n`-bit mask per candidate per
    /// gate — the previous representation — costs Θ(size · k · n) memory,
    /// which a 100k-variable chain turns into tens of gigabytes; the arena
    /// stays linear in the number of candidates ever produced.
    pub fn top_k(&self, log_weights: &[(f64, f64)], k: usize) -> Vec<(f64, Vec<bool>)> {
        if k == 0 {
            return Vec::new();
        }
        /// One arena cell of a partial assignment.
        enum Cell {
            Lit { var: u32, positive: bool },
            Join(u32, u32),
        }
        /// The empty partial assignment (the unit of `⊗`).
        const EMPTY: u32 = u32::MAX;
        let mut cells: Vec<Cell> = Vec::new();
        // A candidate: log-weight plus its assignment cell.
        type Cand = (f64, u32);
        let by_weight_desc =
            |x: &Cand, y: &Cand| y.0.partial_cmp(&x.0).expect("no NaN log-weights");
        let mut lists: Vec<Vec<Cand>> = Vec::with_capacity(self.kinds.len());
        for id in 0..self.kinds.len() {
            let (a, b) = self.meta[id];
            let l: Vec<Cand> = match self.kinds[id] {
                K_ZERO => Vec::new(),
                K_LEAF => {
                    let (wn, wp) = log_weights[a as usize];
                    let w = if b == 1 { wp } else { wn };
                    if w == f64::NEG_INFINITY {
                        Vec::new()
                    } else {
                        let c = cells.len() as u32;
                        cells.push(Cell::Lit {
                            var: a,
                            positive: b == 1,
                        });
                        vec![(w, c)]
                    }
                }
                K_ADD => {
                    let mut merged: Vec<Cand> = Vec::new();
                    for &c in &self.children[a as usize..b as usize] {
                        merged.extend_from_slice(&lists[c as usize]);
                    }
                    merged.sort_by(by_weight_desc);
                    merged.truncate(k);
                    merged
                }
                _ => {
                    let mut acc: Vec<Cand> = vec![(0.0, EMPTY)];
                    for &c in &self.children[a as usize..b as usize] {
                        let other = &lists[c as usize];
                        let mut out: Vec<Cand> = Vec::with_capacity(acc.len() * other.len());
                        for &(wa, ca) in &acc {
                            for &(wb, cb) in other {
                                let cell = if ca == EMPTY {
                                    cb
                                } else if cb == EMPTY {
                                    ca
                                } else {
                                    let id = cells.len() as u32;
                                    cells.push(Cell::Join(ca, cb));
                                    id
                                };
                                out.push((wa + wb, cell));
                            }
                        }
                        out.sort_by(by_weight_desc);
                        out.truncate(k);
                        acc = out;
                        if acc.is_empty() {
                            break;
                        }
                    }
                    acc
                }
            };
            lists.push(l);
        }
        // Decode the survivors: walk each candidate's cell tree (scopes are
        // disjoint, so every variable is assigned exactly once; smoothness
        // guarantees every variable is assigned at all).
        lists[self.root as usize]
            .iter()
            .map(|&(w, cell)| {
                let mut asg: Vec<Option<bool>> = vec![None; self.vars.len()];
                if cell != EMPTY {
                    let mut stack = vec![cell];
                    while let Some(c) = stack.pop() {
                        match cells[c as usize] {
                            Cell::Lit { var, positive } => {
                                debug_assert!(
                                    asg[var as usize].is_none()
                                        || asg[var as usize] == Some(positive),
                                    "decomposability: one polarity per variable"
                                );
                                asg[var as usize] = Some(positive);
                            }
                            Cell::Join(a, b) => {
                                stack.push(a);
                                stack.push(b);
                            }
                        }
                    }
                }
                let assignment = asg
                    .into_iter()
                    .map(|b| b.expect("smoothness: every variable decided"))
                    .collect();
                (w, assignment)
            })
            .collect()
    }
}
