//! Exact model counting over CNF, end to end — the walkthrough for the
//! `crates/cnf` + `crates/arith` subsystem.
//!
//! A DIMACS formula (here with MC-competition weight directives) goes
//! through the paper's pipeline: primal graph → tree decomposition →
//! Lemma-1 vtree → canonical SDD; the generic semiring engine then reads
//! off the exact model count (`BigUint`), the exact weighted count
//! (`Rational`), and the fast `f64` approximation from the *same* compiled
//! form.
//!
//! Run: `cargo run --example model_count`

use sdd::SddEval;
use sentential::prelude::*;

fn main() {
    // A weighted 2-CNF over 4 variables, in DIMACS with `c p weight`
    // directives (Cachet-style `w` lines parse too).
    let dimacs = "\
c toy weighted chain
p cnf 4 3
c p weight 1 0.9 0
c p weight -1 0.1 0
c p weight 2 0.5 0
c p weight -2 0.5 0
1 2 0
2 3 0
3 4 0
";
    let f = CnfFormula::from_dimacs(dimacs).expect("well-formed DIMACS");
    println!("parsed: {f}");

    // One session call: decomposition backend and validation level are the
    // Compiler's usual knobs; the CNF route reuses them unchanged.
    let counted = Compiler::new().compile_cnf(&f).expect("compiles");
    println!("\n{}\n", counted.report);

    // Exact #SAT. The chain (x1∨x2)(x2∨x3)(x3∨x4) has 8 models.
    assert_eq!(counted.count().unwrap().to_u128(), Some(8));

    // Exact WMC: weights parsed as exact rationals (0.9 = 9/10), unweighted
    // variables default to (1, 1).
    let wmc = counted.weighted().expect("formula carries weights");
    println!("exact weighted count  {wmc} = {}", wmc.to_f64());

    // The same compiled SDD answers under any semiring: here the fast f64
    // path, which must agree with the exact value up to rounding.
    let approx = counted.sdd.weighted_count(counted.root, |v| {
        let (wn, wp) = f.weight(v);
        (wn.to_f64(), wp.to_f64())
    });
    assert!((approx - wmc.to_f64()).abs() < 1e-12);
    println!("f64 fast path         {approx}");

    // Scale: a 200-variable chain has more models than u128 can hold — the
    // old counter silently overflowed there; the BigUint semiring is exact.
    let big = cnf::families::chain_cnf(200);
    let counted = Compiler::new().compile_cnf(&big).expect("tw-1 formula");
    let count = counted.count().expect("counting stage on");
    assert!(count.to_u128().is_none(), "beyond 2^128");
    assert_eq!(*count, cnf::families::chain_count(200));
    println!(
        "\n200-var chain: {} models ({} bits — past u128) in {:.2?}",
        count,
        count.bits(),
        counted.report.timings.total,
    );
}
