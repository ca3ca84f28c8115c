//! Deeper properties of the containment engine: bound robustness, the
//! hom-gap family, canonical-model counter-examples, and the figures'
//! containment facts under both deciders.

mod common;

use xpath_views::prelude::*;
use xpath_views::semantics::{
    contained_by_models, contained_with, expansion_bound, tau, CanonicalModels,
};
use xpath_views::workload::{hom_gap_instance, Fragment};

use common::{pattern_from_seed, weaken};

#[test]
fn expansion_bound_is_robust_on_random_pairs() {
    // Raising the per-edge expansion bound must never change a verdict.
    for seed in 0..24u64 {
        let p = pattern_from_seed(seed * 3 + 1, Fragment::Full);
        let q = if seed % 2 == 0 {
            weaken(&p, seed)
        } else {
            pattern_from_seed(seed * 5 + 2, Fragment::Full)
        };
        let bound = expansion_bound(&q);
        assert_eq!(
            contained_by_models(&p, &q, false, bound).holds,
            contained_by_models(&p, &q, false, bound + 2).holds,
            "bound padding changed the verdict for {p} vs {q}"
        );
    }
}

#[test]
fn hom_fast_path_agrees_with_canonical_loop() {
    for seed in 0..24u64 {
        let p = pattern_from_seed(seed * 7 + 1, Fragment::Full);
        let q = weaken(&p, seed ^ 0xABCD);
        assert_eq!(
            contained(&p, &q),
            contained_by_models(&p, &q, false, expansion_bound(&q)).holds,
            "fast path changed the verdict for {p} vs {q}"
        );
    }
}

#[test]
fn hom_negatives_agree_with_the_canonical_loop() {
    // The staged procedure (homomorphism witness, homomorphism-complete
    // negatives, then the loop) against the pure canonical loop, both
    // directions: strong through the shared oracle, which counts the
    // stages, and weak through the free function, which runs the same
    // stages. Correlated instances and independent draws, each fragment
    // against itself and against the next one.
    const FRAGMENTS: [Fragment; 4] =
        [Fragment::Full, Fragment::NoWildcard, Fragment::NoDescendant, Fragment::NoBranch];
    let reference = |l: &Pattern, r: &Pattern, weak: bool| {
        contained_by_models(l, r, weak, expansion_bound(r)).holds
    };
    let rounds = if cfg!(debug_assertions) { 170 } else { 1700 };
    let oracle = ContainmentOracle::new();
    let mut pairs = 0u64;
    for (i, fragment) in FRAGMENTS.into_iter().enumerate() {
        let gen = |fragment, seed| {
            let cfg = PatternGenConfig {
                depth: (1, 3),
                max_branch_size: 2,
                fragment,
                ..PatternGenConfig::default()
            };
            PatternGen::new(cfg, seed)
        };
        let mut own = gen(fragment, 0xD1FF + i as u64);
        let mut other = gen(FRAGMENTS[(i + 1) % 4], 0xD1FF_0000 + i as u64);
        for _ in 0..rounds {
            let (p, v) = own.instance();
            let q = own.pattern();
            let mixed = other.pattern();
            for (l, r) in [(&p, &v), (&p, &q), (&p, &mixed)] {
                for (l, r) in [(l, r), (r, l)] {
                    assert_eq!(oracle.contained(l, r), reference(l, r, false), "{l} ⊑ {r}");
                    assert_eq!(weakly_contained(l, r), reference(l, r, true), "{l} ⊑w {r}");
                    pairs += 1;
                }
            }
        }
    }
    let s = oracle.stats();
    assert!(pairs >= 4000, "{pairs} pairs");
    // Every stage answered some of them, so the rule is known to have fired
    // and the loop to have stayed in play.
    assert!(s.hom_negatives > pairs / 4 && s.hom_fast_path_hits > 0 && s.canonical_runs > 0, "{s}");
}

#[test]
fn hom_gap_family_scales() {
    for n in 1..=4 {
        let (p1, p2) = hom_gap_instance(n);
        let out = contained_with(&p1, &p2);
        assert!(out.holds, "gap containment must hold at n={n}");
        assert!(!out.via_homomorphism, "gap must not be hom-witnessed at n={n}");
        assert!(out.models_checked >= 1);
    }
}

#[test]
fn counter_models_falsify_on_real_documents() {
    // When containment fails, the returned counter-model is a concrete
    // document witnessing P1(t) ⊄ P2(t).
    for seed in 0..24u64 {
        let p1 = pattern_from_seed(seed * 9 + 4, Fragment::Full);
        let p2 = pattern_from_seed(seed * 11 + 6, Fragment::Full);
        let out = contained_with(&p1, &p2);
        if let Some(cm) = &out.counter_model {
            assert!(!out.holds);
            assert!(evaluate(&p1, &cm.tree).contains(&cm.output));
            assert!(!evaluate(&p2, &cm.tree).contains(&cm.output));
        }
    }
}

#[test]
fn tau_is_minimal_canonical_model() {
    for seed in 0..20u64 {
        let p = pattern_from_seed(seed * 13 + 2, Fragment::Full);
        let m = tau(&p);
        // τ(P) has exactly |P| nodes (descendant edges become single edges).
        assert_eq!(m.tree.len(), p.len());
        // It is the smallest canonical model in the bounded enumeration.
        let min = CanonicalModels::new(&p, 2)
            .map(|cm| cm.tree.len())
            .min()
            .expect("nonempty enumeration");
        assert_eq!(min, m.tree.len());
        // And P answers its canonical output on it.
        assert!(evaluate(&p, &m.tree).contains(&m.output));
    }
}

#[test]
fn equivalence_is_an_equivalence_relation_on_samples() {
    let a = parse_xpath("a[b][b/c]/d").unwrap();
    let b = parse_xpath("a[b/c]/d").unwrap();
    let c = parse_xpath("a[b/c][b]/d").unwrap();
    assert!(equivalent(&a, &a));
    assert!(equivalent(&a, &b) && equivalent(&b, &a));
    assert!(equivalent(&b, &c));
    assert!(equivalent(&a, &c), "transitivity");
}

#[test]
fn star_descendant_absorption_identities() {
    // The identities behind Figure 2 and Theorem 4.10's relaxation argument.
    let id = |a: &str, b: &str| equivalent(&parse_xpath(a).unwrap(), &parse_xpath(b).unwrap());
    assert!(id("a/*//e", "a//*/e"));
    assert!(id("a//*//e", "a//*//e"));
    // a/*//*/e vs a//*/*/e: both place e at depth >= 3 (child+desc+child vs
    // desc+child+child) — genuinely equivalent.
    assert!(id("a/*//*/e", "a//*/*/e"));
    // But child chains do not absorb: a/*/e pins depth exactly.
    assert!(!id("a/*/e", "a//*/e"));
}
