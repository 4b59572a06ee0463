//! Property-based tests exploiting SDD canonicity: algebraic laws hold as
//! *node identities*, not just semantic equivalences.

use boolfunc::{BoolFn, VarSet};
use proptest::prelude::*;
use sdd::SddEval;
use sdd::{SddManager, FALSE, TRUE};
use vtree::{VarId, Vtree};

const N: usize = 5;

fn table() -> impl Strategy<Value = BoolFn> {
    prop::collection::vec(any::<bool>(), 1 << N).prop_map(|bs| {
        let vars = VarSet::from_iter((0..N as u32).map(VarId));
        BoolFn::from_fn(vars, |i| bs[i as usize])
    })
}

fn manager(seed: u64) -> SddManager {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let vars: Vec<VarId> = (0..N as u32).map(VarId).collect();
    SddManager::new(Vtree::random(&vars, &mut rng).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn apply_laws_as_node_identities(f in table(), g in table(), seed in 0u64..500) {
        let mut m = manager(seed);
        let a = m.from_boolfn(&f);
        let b = m.from_boolfn(&g);
        // Commutativity.
        let ab = m.and(a, b);
        let ba = m.and(b, a);
        prop_assert_eq!(ab, ba);
        let oab = m.or(a, b);
        let oba = m.or(b, a);
        prop_assert_eq!(oab, oba);
        // Idempotence and identities.
        let aa = m.and(a, a);
        prop_assert_eq!(aa, a);
        let at = m.and(a, TRUE);
        prop_assert_eq!(at, a);
        let of = m.or(a, FALSE);
        prop_assert_eq!(of, a);
        // Complement laws.
        let na = m.negate(a);
        let contradiction = m.and(a, na);
        prop_assert_eq!(contradiction, FALSE);
        let excluded_middle = m.or(a, na);
        prop_assert_eq!(excluded_middle, TRUE);
        // De Morgan as node identity.
        let lhs0 = m.and(a, b);
        let lhs = m.negate(lhs0);
        let na2 = m.negate(a);
        let nb = m.negate(b);
        let rhs = m.or(na2, nb);
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn associativity(f in table(), g in table(), h in table(), seed in 0u64..500) {
        let mut m = manager(seed);
        let a = m.from_boolfn(&f);
        let b = m.from_boolfn(&g);
        let c = m.from_boolfn(&h);
        let ab = m.and(a, b);
        let ab_c = m.and(ab, c);
        let bc = m.and(b, c);
        let a_bc = m.and(a, bc);
        prop_assert_eq!(ab_c, a_bc);
    }

    #[test]
    fn compilation_respects_ops(f in table(), g in table(), seed in 0u64..500) {
        // Compiling f∧g directly equals applying ∧ to compiled halves.
        let mut m = manager(seed);
        let a = m.from_boolfn(&f);
        let b = m.from_boolfn(&g);
        let applied = m.and(a, b);
        let direct = m.from_boolfn(&f.and(&g));
        prop_assert_eq!(applied, direct);
    }

    #[test]
    fn condition_then_count(f in table(), v in 0u32..N as u32, seed in 0u64..500) {
        let mut m = manager(seed);
        let a = m.from_boolfn(&f);
        let hi = m.condition(a, VarId(v), true);
        let lo = m.condition(a, VarId(v), false);
        // Total models split across the two branches.
        let total = m.count_models(hi) + m.count_models(lo);
        prop_assert_eq!(total, 2 * f.count_models() as u128);
    }

    #[test]
    fn sizes_are_consistent(f in table(), seed in 0u64..500) {
        let mut m = manager(seed);
        let a = m.from_boolfn(&f);
        let size = m.size(a);
        let width = m.width(a);
        prop_assert!(width <= size.max(1));
        // Negation preserves per-decision element counts, but NOT reachable
        // sharing (primes stay un-negated while subs flip, so the negated
        // DAG can share more or fewer nodes). Sound invariants: negation is
        // an involution by node identity, with complementary counts, and its
        // size stays within the structural envelope.
        let na = m.negate(a);
        let nna = m.negate(na);
        prop_assert_eq!(nna, a);
        prop_assert_eq!(
            m.count_models(a) + m.count_models(na),
            1u128 << N
        );
        prop_assert!(m.size(na) <= 2 * size.max(1));
    }
}
