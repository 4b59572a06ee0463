//! Property tests pinning the element-arena kernel to the semantics of
//! the node-owned-storage kernel it replaced: interning must be
//! observationally identical — structurally equal decisions get the same
//! `SddId` (canonicity), model counts match brute force, `sdd_size`
//! is stable across recompilation, and the structural invariants validate.
//! A differential test pins `from_circuit`'s vtree-order gate fold to the
//! sequential left fold it replaced.

use boolfunc::{BoolFn, VarSet};
use circuit::{Circuit, GateId, GateKind};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sdd::{SddId, SddManager, SddNode, FALSE, TRUE};
use vtree::{VarId, Vtree};

fn vars(n: u32) -> Vec<VarId> {
    (0..n).map(VarId).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Canonicity under the open-addressed unique table: compiling the
    /// same function again — and re-interning every reachable decision
    /// through the public constructor — returns the *same* node ids.
    #[test]
    fn interning_is_canonical(n in 2u32..=10, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let f = BoolFn::random(VarSet::from_slice(&vars(n)), &mut rng);
        let vt = Vtree::random(&vars(n), &mut rng).unwrap();
        let mut m = SddManager::new(vt);
        let r1 = m.from_boolfn(&f);
        let r2 = m.from_boolfn(&f);
        prop_assert_eq!(r1, r2, "same function, same node");
        // Structurally equal decisions intern to the same id: rebuild each
        // reachable decision from its own element list.
        for d in m.reachable_decisions(r1) {
            let SddNode::Decision { vnode, .. } = m.node(d) else { unreachable!() };
            let vnode = *vnode;
            let elems = m.elements_of(d).to_vec();
            let again = m.decision(vnode, elems);
            prop_assert_eq!(again, d, "re-interned decision must dedupe");
        }
    }

    /// Model counts and structure agree with the truth-table kernel, and
    /// `sdd_size` is reproducible in a fresh manager (the arena layout
    /// cannot change what is reachable).
    #[test]
    fn counts_and_size_match_brute_force(n in 1u32..=9, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let f = BoolFn::random(VarSet::from_slice(&vars(n)), &mut rng);
        let vt = Vtree::random(&vars(n), &mut rng).unwrap();
        let mut m = SddManager::new(vt.clone());
        let r = m.from_boolfn(&f);
        prop_assert_eq!(m.count_models(r), f.count_models() as u128);
        m.validate(r).unwrap();

        let mut m2 = SddManager::new(vt);
        let r2 = m2.from_boolfn(&f);
        prop_assert_eq!(m.size(r), m2.size(r2), "size is a function of (f, vtree)");
        prop_assert_eq!(m.width(r), m2.width(r2));
    }

    /// The apply route at the issue's full 16-variable bound: random
    /// circuits compile through `from_circuit` and count exactly what the
    /// brute-force kernel counts (structural validation stays on — the
    /// semantic partition checks are what need the small-n test above).
    #[test]
    fn circuit_route_counts_match_brute_force_at_16_vars(n in 10u32..=16, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let c = circuit::families::random_circuit(n as usize, 3 * n as usize, &mut rng);
        let f = c.to_boolfn().unwrap();
        let vt = Vtree::random(&vars(n), &mut rng).unwrap();
        let mut m = SddManager::new(vt);
        let r = m.from_circuit(&c);
        // Count over the full vtree scope (the circuit may not mention
        // every variable; the SDD smooths over all of them).
        let scope = VarSet::from_slice(&vars(n));
        prop_assert_eq!(m.count_models(r), f.count_models_over(&scope) as u128);
        m.validate_structure(r).unwrap();
    }

    /// Negation and conditioning stay observationally identical: they
    /// agree with the kernel's `not`/`restrict`, and the double negation
    /// returns the original id (the neg cache round-trips through the
    /// arena-backed builds).
    #[test]
    fn negate_and_condition_agree_with_kernel(n in 2u32..=8, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let f = BoolFn::random(VarSet::from_slice(&vars(n)), &mut rng);
        let vt = Vtree::random(&vars(n), &mut rng).unwrap();
        let mut m = SddManager::new(vt);
        let r = m.from_boolfn(&f);
        let nr = m.negate(r);
        prop_assert_eq!(m.negate(nr), r, "double negation is the identity");
        prop_assert!(m.to_boolfn(nr).equivalent(&f.not()));
        let v = VarId(seed as u32 % n);
        for value in [false, true] {
            let c = m.condition(r, v, value);
            prop_assert!(m.to_boolfn(c).equivalent(&f.restrict(v, value)));
        }
    }

    /// The arena stores every interned decision's elements exactly once,
    /// and `elements_of` exposes them sorted by prime — the kernel-storage
    /// invariants the module documents.
    #[test]
    fn arena_holds_each_element_exactly_once(n in 2u32..=10, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let f = BoolFn::random(VarSet::from_slice(&vars(n)), &mut rng);
        let vt = Vtree::random(&vars(n), &mut rng).unwrap();
        let mut m = SddManager::new(vt);
        let _ = m.from_boolfn(&f);
        let mut total = 0usize;
        for id in 0..m.num_allocated() as u32 {
            let id = sdd::SddId(id);
            if let SddNode::Decision { elems, .. } = m.node(id) {
                prop_assert!(elems.start < elems.end);
                prop_assert!(elems.end as usize <= m.num_elements());
                total += elems.len();
                let slice = m.elements_of(id);
                prop_assert!(slice.windows(2).all(|w| w[0].0 < w[1].0));
            }
        }
        prop_assert_eq!(total, m.num_elements());
    }
}

// ----------------------------------------------------------------------
// The gate fold of `from_circuit` against a sequential left fold.
// ----------------------------------------------------------------------

/// The sequential left fold `from_circuit` replaced, kept as the
/// reference: every And/Or gate runs one accumulator through its operands
/// in input order, using only the public `and`/`or`/`negate`/`literal`.
fn left_fold_reference(m: &mut SddManager, c: &Circuit) -> SddId {
    let mut val: Vec<SddId> = Vec::with_capacity(c.size());
    for (_, g) in c.iter() {
        let n = match g {
            GateKind::Var(v) => m.literal(*v, true),
            GateKind::Const(b) => {
                if *b {
                    TRUE
                } else {
                    FALSE
                }
            }
            GateKind::Not(x) => m.negate(val[x.index()]),
            GateKind::And(xs) => xs.iter().fold(TRUE, |acc, x| m.and(acc, val[x.index()])),
            GateKind::Or(xs) => xs.iter().fold(FALSE, |acc, x| m.or(acc, val[x.index()])),
        };
        val.push(n);
    }
    val[c.output().index()]
}

/// A random circuit over `n` variables whose And/Or gates have fan-in
/// 3–12, drawn with repetition from everything built so far (so subgates
/// are shared and operands repeat), with negations and constant operands
/// mixed in. The output is a wide Or over the last gates.
fn wide_gate_circuit(n: u32, rng: &mut StdRng) -> Circuit {
    let mut gates: Vec<GateKind> = (0..n).map(|i| GateKind::Var(VarId(i))).collect();
    gates.push(GateKind::Const(false));
    gates.push(GateKind::Const(true));
    let consts = [GateId(n), GateId(n + 1)];
    let mut pool: Vec<GateId> = (0..n).map(GateId).collect();
    for _ in 0..rng.gen_range(4..=14) {
        let g = if rng.gen_bool(0.25) {
            GateKind::Not(pool[rng.gen_range(0..pool.len())])
        } else {
            let fan_in = rng.gen_range(3..=12);
            let xs: Vec<GateId> = (0..fan_in)
                .map(|_| {
                    if rng.gen_bool(0.08) {
                        consts[rng.gen_range(0..2usize)]
                    } else {
                        pool[rng.gen_range(0..pool.len())]
                    }
                })
                .collect();
            if rng.gen_bool(0.5) {
                GateKind::And(xs.into_boxed_slice())
            } else {
                GateKind::Or(xs.into_boxed_slice())
            }
        };
        pool.push(GateId(gates.len() as u32));
        gates.push(g);
    }
    let tail = pool.len().saturating_sub(4);
    gates.push(GateKind::Or(pool[tail..].to_vec().into_boxed_slice()));
    let out = GateId(gates.len() as u32 - 1);
    Circuit::from_parts(gates, out)
}

/// The vtrees the fold is checked on: balanced, right-linear, random, and
/// the Lemma-1 vtree of the circuit itself.
fn fold_vtrees(c: &Circuit, n: u32, rng: &mut StdRng) -> Vec<Vtree> {
    let vs = vars(n);
    vec![
        Vtree::balanced(&vs).unwrap(),
        Vtree::right_linear(&vs).unwrap(),
        Vtree::random(&vs, rng).unwrap(),
        sentential_core::vtree_from_circuit(c, 0).unwrap().0,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `from_circuit` returns the very node the left fold returns, in the
    /// same manager, on every vtree kind.
    #[test]
    fn vtree_fold_matches_left_fold(n in 3u32..=10, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let c = wide_gate_circuit(n, &mut rng);
        for vt in fold_vtrees(&c, n, &mut rng) {
            let mut m = SddManager::new(vt);
            let folded = m.from_circuit(&c);
            let reference = left_fold_reference(&mut m, &c);
            prop_assert_eq!(folded, reference);
        }
    }
}

/// Fixed edge cases: empty gates, all-identity operands, an absorbing
/// constant among wide operands, complementary operands (an absorbing
/// intermediate result), and duplicate operands.
#[test]
fn vtree_fold_edge_cases() {
    use GateKind::{And, Const, Not, Or, Var};
    let g = |ids: &[u32]| ids.iter().map(|&i| GateId(i)).collect::<Box<[GateId]>>();
    // Gates 0–3: x0..x3; 4: ⊥; 5: ⊤; 6: ¬x1.
    let base = || {
        let mut gates: Vec<GateKind> = (0..4).map(|i| Var(VarId(i))).collect();
        gates.extend([Const(false), Const(true), Not(GateId(1))]);
        gates
    };
    let cases: Vec<(&str, GateKind, Option<SddId>)> = vec![
        ("empty and", And(g(&[])), Some(TRUE)),
        ("empty or", Or(g(&[])), Some(FALSE)),
        ("and of ⊤s", And(g(&[5, 5, 5, 5])), Some(TRUE)),
        ("or of ⊥s", Or(g(&[4, 4, 4])), Some(FALSE)),
        (
            "⊥ among and operands",
            And(g(&[0, 2, 3, 4, 1, 6])),
            Some(FALSE),
        ),
        (
            "⊤ among or operands",
            Or(g(&[3, 0, 6, 2, 5, 1])),
            Some(TRUE),
        ),
        ("and with x1 and ¬x1", And(g(&[3, 1, 0, 2, 6])), Some(FALSE)),
        ("or with x1 and ¬x1", Or(g(&[0, 6, 2, 3, 1])), Some(TRUE)),
        (
            "duplicate and operands",
            And(g(&[2, 0, 2, 3, 0, 5, 2])),
            None,
        ),
        ("duplicate or operands", Or(g(&[1, 1, 3, 4, 1, 3, 0])), None),
        ("identities around one operand", Or(g(&[4, 4, 2, 4])), None),
    ];
    for (name, gate, expect) in cases {
        let mut gates = base();
        gates.push(gate);
        let c = Circuit::from_parts(gates, GateId(7));
        let mut rng = StdRng::seed_from_u64(7);
        for vt in fold_vtrees(&c, 4, &mut rng) {
            let mut m = SddManager::new(vt);
            let folded = m.from_circuit(&c);
            assert_eq!(folded, left_fold_reference(&mut m, &c), "{name}");
            if let Some(e) = expect {
                assert_eq!(folded, e, "{name}");
            }
        }
    }
}
