//! The snapshot tier's contract, tested end to end: a saved-and-loaded
//! [`FrozenKb`] answers every query **bit-identically** to the original
//! (proptest over random weighted instances), and every corrupted artifact
//! — truncation at any prefix, any flipped byte, a wrong version, an
//! oversized range — fails with a typed [`SnapError`], never a panic.

use cnf::CnfFormula;
use kb::{FrozenKb, KnowledgeBase};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sentential_core::Compiler;
use snap::SnapError;
use std::sync::Arc;
use vtree::VarId;

/// A seeded random low-treewidth instance (the props.rs recipe) plus
/// probabilities bounded away from 0 and 1.
fn random_instance(n: u32, m: usize, seed: u64) -> (CnfFormula, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let w = 3u32.min(n);
    let mut f = CnfFormula::new(n);
    for _ in 0..m {
        let start = rng.gen_range(0..n - w + 1);
        let k = rng.gen_range(1..=w);
        let mut vars: Vec<u32> = (start..start + w).collect();
        for i in (1..vars.len()).rev() {
            vars.swap(i, rng.gen_range(0..i as u32 + 1) as usize);
        }
        f.add_clause(
            vars.into_iter()
                .take(k as usize)
                .map(|v| (VarId(v), rng.gen_bool(0.5)))
                .collect(),
        );
    }
    let probs = (0..n)
        .map(|_| 0.05 + 0.9 * rng.gen_range(0.0..1.0))
        .collect();
    (f, probs)
}

fn frozen_instance(n: u32, m: usize, seed: u64) -> Arc<FrozenKb> {
    let (f, probs) = random_instance(n, m, seed);
    let mut kb = KnowledgeBase::compile_cnf(&Compiler::new(), &f).expect("compiles");
    for (i, &p) in probs.iter().enumerate() {
        kb.set_probability(VarId(i as u32), p).unwrap();
    }
    // Freeze some evidence in when it stays consistent, so snapshots carry
    // a nontrivial pin table.
    let _ = kb.condition(&[(VarId(0), seed.is_multiple_of(2))]);
    Arc::new(kb.freeze())
}

fn save(kb: &FrozenKb) -> Vec<u8> {
    let mut bytes = Vec::new();
    kb.save(&mut bytes).unwrap();
    bytes
}

/// Every query answer of `b`, asserted bit-identical to `a`'s. Weighted
/// answers are compared with `to_bits` — same floats, not close floats.
fn assert_bit_identical(a: &Arc<FrozenKb>, b: &Arc<FrozenKb>) {
    let (mut sa, mut sb) = (a.session(), b.session());
    assert_eq!(a.vars(), b.vars());
    assert_eq!(a.evidence(), b.evidence());
    assert_eq!(sa.count_models(), sb.count_models());
    assert_eq!(sa.is_consistent(), sb.is_consistent());
    assert_eq!(sa.log_weight().to_bits(), sb.log_weight().to_bits());
    match (sa.all_marginals(), sb.all_marginals()) {
        (Ok(ma), Ok(mb)) => {
            assert_eq!(ma.len(), mb.len());
            for ((va, pa), (vb, pb)) in ma.iter().zip(mb.iter()) {
                assert_eq!(va, vb);
                assert_eq!(pa.to_bits(), pb.to_bits());
            }
        }
        (ra, rb) => assert_eq!(ra.is_err(), rb.is_err()),
    }
    match (sa.mpe(), sb.mpe()) {
        (Ok(ma), Ok(mb)) => {
            assert_eq!(ma.log_weight.to_bits(), mb.log_weight.to_bits());
            assert_eq!(ma.assignment, mb.assignment);
        }
        (ra, rb) => assert_eq!(ra.is_err(), rb.is_err()),
    }
    for &v in a.vars() {
        assert_eq!(sa.entails(&[(v, true)]), sb.entails(&[(v, true)]));
    }
    // And with fresh session-local evidence on both sides.
    if let Some(&v) = a.vars().first() {
        let ra = sa.condition(&[(v, true)]);
        let rb = sb.condition(&[(v, true)]);
        assert_eq!(ra.is_err(), rb.is_err());
        if ra.is_ok() {
            assert_eq!(sa.log_weight().to_bits(), sb.log_weight().to_bits());
            assert_eq!(sa.count_models(), sb.count_models());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// save → load is the identity as far as any query can tell, down to
    /// the last mantissa bit.
    #[test]
    fn save_load_roundtrip_is_bit_identical(n in 2u32..=12, m in 0usize..16, seed: u64) {
        let kb = frozen_instance(n, m, seed);
        let loaded = Arc::new(FrozenKb::load(save(&kb).as_slice()).unwrap());
        assert_bit_identical(&kb, &loaded);
    }

    /// Truncating a valid artifact anywhere fails with a typed error.
    #[test]
    fn truncation_never_panics(seed: u64, frac in 0.0f64..1.0) {
        let kb = frozen_instance(6, 8, seed);
        let bytes = save(&kb);
        let cut = (bytes.len() as f64 * frac) as usize;
        prop_assert!(FrozenKb::load(&bytes[..cut.min(bytes.len() - 1)]).is_err());
    }

    /// Flipping any single byte fails with a typed error (the per-section
    /// checksum catches payload damage; header fields are validated).
    #[test]
    fn any_flipped_byte_is_rejected(seed in 0u64..8, pos_seed: u64) {
        let kb = frozen_instance(6, 8, seed);
        let mut bytes = save(&kb);
        let pos = (pos_seed as usize) % bytes.len();
        bytes[pos] ^= 0x01;
        prop_assert!(FrozenKb::load(bytes.as_slice()).is_err());
    }
}

#[test]
fn wrong_version_and_kind_are_typed() {
    let kb = frozen_instance(5, 6, 7);
    let mut bytes = save(&kb);
    // Format version lives right after the magic.
    bytes[8..12].copy_from_slice(&999u32.to_le_bytes());
    assert!(matches!(
        FrozenKb::load(bytes.as_slice()),
        Err(SnapError::UnsupportedVersion { found: 999 })
    ));

    let mut bytes = save(&kb);
    bytes[0] = b'X';
    assert!(matches!(
        FrozenKb::load(bytes.as_slice()),
        Err(SnapError::BadMagic)
    ));

    // An SDD container is not a KB container.
    let mut sdd_bytes = Vec::new();
    kb.sdd().write_to(&mut sdd_bytes).unwrap();
    assert!(matches!(
        FrozenKb::load(sdd_bytes.as_slice()),
        Err(SnapError::WrongKind {
            expected: snap::KIND_KB,
            ..
        })
    ));
}

#[test]
fn empty_and_garbage_inputs_are_typed() {
    assert!(matches!(
        FrozenKb::load(&[][..]),
        Err(SnapError::Truncated { .. })
    ));
    let garbage = vec![0xABu8; 4096];
    assert!(FrozenKb::load(garbage.as_slice()).is_err());

    // A section whose declared length lies far beyond the file must fail
    // with truncation, not an attempted huge allocation. Byte 12 starts
    // the section count; the first section header follows at 16.
    let kb = frozen_instance(4, 4, 1);
    let mut bytes = save(&kb);
    // Oversize the first section's length field (tag u32 at 16, len u64 at 20).
    bytes[20..28].copy_from_slice(&u64::MAX.to_le_bytes());
    assert!(FrozenKb::load(bytes.as_slice()).is_err());
}

/// The loaded base is fully serviceable as a branching base too: reopening
/// the builder over an overlay, asserting fresh evidence and refreezing
/// works on top of a loaded slab exactly as on a frozen one.
#[test]
fn loaded_kb_branches_and_reconditions() {
    let kb = frozen_instance(8, 10, 42);
    let loaded = Arc::new(FrozenKb::load(save(&kb).as_slice()).unwrap());
    let mut branch = loaded.branch();
    let before = loaded.session().count_models();
    if branch.condition(&[(VarId(2), true)]).is_ok() {
        let mut reconditioned = Arc::new(branch.freeze()).session();
        assert!(reconditioned.count_models() <= before);
    }
    // A second generation survives: save the loaded KB again and reload.
    let again = Arc::new(FrozenKb::load(save(&loaded).as_slice()).unwrap());
    assert_bit_identical(&loaded, &again);
}

/// Rewrite the retired second kbmeta slot (section tag 16) of a saved
/// artifact to `value`, re-checksumming the section. Walks the container
/// framing documented in the `snap` crate: a 20-byte header, then per
/// section `tag u32, len u64, checksum u64, payload`.
fn with_retired_slot(mut bytes: Vec<u8>, value: u32) -> Vec<u8> {
    let u32_at = |b: &[u8], at: usize| u32::from_le_bytes(b[at..at + 4].try_into().unwrap());
    let mut at = 20;
    loop {
        let tag = u32_at(&bytes, at);
        let len = u64::from_le_bytes(bytes[at + 4..at + 12].try_into().unwrap()) as usize;
        let payload = at + 20;
        if tag == 16 {
            bytes[payload + 4..payload + 8].copy_from_slice(&value.to_le_bytes());
            let sum = snap::checksum(&bytes[payload..payload + len]);
            bytes[at + 12..at + 20].copy_from_slice(&sum.to_le_bytes());
            return bytes;
        }
        at = payload + len;
    }
}

/// Artifacts written when the second kbmeta slot held the root restricted
/// by the frozen evidence still load: the slot is bounds-checked and then
/// ignored, because the evidence pins carry the same information.
#[test]
fn retired_restricted_root_slot_is_validated_then_ignored() {
    let kb = frozen_instance(8, 10, 7);
    let bytes = save(&kb);
    // Any in-bounds node id (0 is ⊥) loads and answers like the original.
    let older = Arc::new(FrozenKb::load(with_retired_slot(bytes.clone(), 0).as_slice()).unwrap());
    assert_bit_identical(&kb, &older);
    // An out-of-bounds id is still a typed error.
    assert!(matches!(
        FrozenKb::load(with_retired_slot(bytes, u32::MAX).as_slice()),
        Err(SnapError::Invalid { .. })
    ));
}
