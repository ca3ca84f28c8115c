//! The paper's figures and core propositions, exercised end to end through
//! the facade crate (parser → ops → semantics → planner → engine).

use xpath_views::prelude::*;
use xpath_views::rewrite::{figure1, figure2, figure3, figure4, Method, RewritePlanner};
use xpath_views::semantics::weakly_equivalent;

#[test]
fn figure1_through_engine() {
    // Materialize Figure 1's view over a document containing matches and
    // answer P through R.
    let f = figure1();
    let doc = parse_xml("<a><b/><x><y><e><d/></e></y></x><z><e><d/></e></z><w><e/></w></a>")
        .expect("well-formed");
    let cache = ShardedViewCache::new(doc);
    cache.add_view("v", f.v.clone());
    let ans = cache.answer(&f.p);
    assert_eq!(ans.nodes, cache.answer_direct(&f.p));
    match ans.route {
        xpath_views::engine::Route::ViaView { rewriting, .. } => {
            assert_eq!(rewriting, f.r.to_string());
        }
        other => panic!("expected the Figure 1 rewriting, got {other:?}"),
    }
}

#[test]
fn figure2_planner_chooses_relaxed_candidate() {
    let f = figure2();
    match RewritePlanner::default().decide(&f.p, &f.v) {
        RewriteAnswer::Rewriting(rw) => {
            assert_eq!(rw.method, Method::NaturalCandidate { relaxed: true });
            assert!(rw.pattern().structurally_eq(&f.cand_relaxed));
        }
        other => panic!("expected rewriting, got {other:?}"),
    }
}

#[test]
fn figure3_all_three_equivalent() {
    let f = figure3();
    assert!(equivalent(&f.b, &f.b_relaxed));
    assert!(equivalent(&f.b_relaxed, &f.b_prime));
}

#[test]
fn figure4_full_story() {
    let f = figure4();
    let planner = RewritePlanner::default();
    for p in [&f.p1, &f.p2, &f.p3] {
        let ans = planner.decide(p, &f.v);
        let r = ans.rewriting().expect("rewriting exists");
        let rv = compose(r, &f.v).expect("composes");
        assert!(equivalent(&rv, p));
    }
}

#[test]
fn proposition_3_2_subpattern_replacement() {
    // If a descendant edge enters the k-node and P≥k ≡w Q, then
    // P ≡ (P<k (k-1)⇒ Q).
    let p = parse_xpath("a[x]//b[c]/d").unwrap(); // descendant enters 1-node
    let q = parse_xpath("b[c]/d").unwrap(); // ≡w P>=1 (identical)
    let rebuilt = p.upper_pattern_lt(1).combine(0, &q);
    assert!(equivalent(&p, &rebuilt));

    // A weakly equivalent (but not identical) replacement: the identity
    // */e ≡w *//e from Section 2 gives a genuine test.
    let p2 = parse_xpath("a//*/e").unwrap();
    let q2 = parse_xpath("*//e").unwrap();
    assert!(weakly_equivalent(&p2.sub_pattern_geq(1), &q2));
    let rebuilt2 = p2.upper_pattern_lt(1).combine(0, &q2);
    assert!(equivalent(&p2, &rebuilt2), "Prop 3.2 failed: {p2} vs {rebuilt2}");
}

#[test]
fn corollary_3_3_cross_replacement() {
    // For equivalent P1 ≡ P2 with a descendant edge entering P1's k-node,
    // P1<k (k-1)⇒ P2>=k ≡ P1.
    let p1 = parse_xpath("a[b][b/c]//d/e").unwrap();
    let p2 = parse_xpath("a[b/c]//d/e").unwrap();
    assert!(equivalent(&p1, &p2));
    let rebuilt = p1.upper_pattern_lt(1).combine(0, &p2.sub_pattern_geq(1));
    assert!(equivalent(&rebuilt, &p1));
}

#[test]
fn proposition_3_5_root_output_views() {
    // If root(V) = out(V) and R∘V ≡ P then R∘V ≡ P∘V.
    // V = a[w] (output at root). P = a[w]/b/c. R = P (any rewriting works
    // here: R∘V = a[w]/b/c ≡ P).
    let v = parse_xpath("a[w]").unwrap();
    let p = parse_xpath("a[w]/b/c").unwrap();
    let r = p.clone();
    let rv = compose(&r, &v).expect("composes");
    assert!(equivalent(&rv, &p));
    let pv = compose(&p, &v).expect("composes");
    assert!(equivalent(&rv, &pv), "Prop 3.5: R∘V ≡ P∘V");
}

#[test]
fn proposition_3_7_weak_variant_of_root_output_views() {
    // If root(V) = out(V) and R∘V ≡w P, then R∘V ≡w P∘V.
    let v = parse_xpath("*[w]").unwrap(); // output at root
    let p = parse_xpath("a[w]/b").unwrap();
    let r = parse_xpath("a/b").unwrap();
    let rv = compose(&r, &v).expect("composes");
    assert!(weakly_equivalent(&rv, &p), "premise: R∘V ≡w P");
    let pv = compose(&p, &v).expect("composes");
    assert!(weakly_equivalent(&rv, &pv), "Prop 3.7: R∘V ≡w P∘V");
}

#[test]
fn proposition_4_5_child_prefix_subpattern_equivalence() {
    // Equivalent patterns whose first i selection edges are child edges have
    // equivalent i-sub-patterns.
    let q1 = parse_xpath("a/x[b][b/c]/d").unwrap();
    let q2 = parse_xpath("a/x[b/c]/d").unwrap();
    assert!(equivalent(&q1, &q2));
    for i in 0..=1 {
        assert!(
            equivalent(&q1.sub_pattern_geq(i), &q2.sub_pattern_geq(i)),
            "Prop 4.5 failed at i={i}"
        );
    }
}

#[test]
fn proposition_4_2_suffix_rewriting_transfer() {
    // If R is a rewriting and (R∘V)≥k ≡ P≥k, then P≥k is a rewriting.
    let p = parse_xpath("a[b]//*/e[d]").unwrap();
    let v = parse_xpath("a[b]/*").unwrap();
    let k = v.depth();
    // The Figure 1 rewriting R = *//e[d].
    let r = parse_xpath("*//e[d]").unwrap();
    let rv = compose(&r, &v).expect("composes");
    assert!(equivalent(&rv, &p));
    // Here (R∘V)≥k = *//e[d] is NOT equivalent to P≥k = */e[d] — and indeed
    // P≥k is not a rewriting: the proposition's contrapositive.
    assert!(!equivalent(&rv.sub_pattern_geq(k), &p.sub_pattern_geq(k)));
    let cand = compose(&p.sub_pattern_geq(k), &v).expect("composes");
    assert!(!equivalent(&cand, &p));
    // A positive instance: V a pure prefix.
    let p2 = parse_xpath("a/b//c[x]/d").unwrap();
    let v2 = parse_xpath("a/b").unwrap();
    let r2 = p2.sub_pattern_geq(1);
    let r2v = compose(&r2, &v2).expect("composes");
    assert!(equivalent(&r2v.sub_pattern_geq(1), &p2.sub_pattern_geq(1)));
    assert!(equivalent(&r2v, &p2), "Prop 4.2: P≥k is a rewriting");
}

#[test]
fn redundancy_reduction_preserves_equivalence_on_random_patterns() {
    use xpath_views::semantics::{is_non_redundant, remove_redundant_branches};
    use xpath_views::workload::{Fragment, PatternGen, PatternGenConfig};
    let cfg = PatternGenConfig {
        depth: (1, 3),
        branch_prob: 0.8,
        max_branch_size: 3,
        fragment: Fragment::Full,
        ..Default::default()
    };
    let mut g = PatternGen::new(cfg, 0xBADC0DE);
    for _ in 0..20 {
        let p = g.pattern();
        let r = remove_redundant_branches(&p);
        assert!(equivalent(&p, &r), "reduction changed meaning of {p}");
        assert!(is_non_redundant(&r), "reduction not a fixpoint for {p}");
        assert!(r.len() <= p.len());
    }
}

#[test]
fn proposition_5_5_descendant_prefix_respects_weak_equivalence() {
    // P1 ≡w P2 implies l//P1 ≡ l//P2.
    let p1 = parse_xpath("*/e").unwrap();
    let p2 = parse_xpath("*//e").unwrap();
    assert!(weakly_equivalent(&p1, &p2));
    for l in ["a", "*"] {
        let l1 = Pattern::prefix_descendant(
            if l == "*" { NodeTest::Wildcard } else { NodeTest::label(l) },
            &p1,
        );
        let l2 = Pattern::prefix_descendant(
            if l == "*" { NodeTest::Wildcard } else { NodeTest::label(l) },
            &p2,
        );
        assert!(equivalent(&l1, &l2), "Prop 5.5 failed for l={l}");
    }
}

#[test]
fn proposition_5_8_extension_equivalence_transfer() {
    let mu = NodeTest::Label(xpath_views::model::Label::fresh("µ-test"));
    let pairs =
        [("a[b][b/c]/d", "a[b/c]/d", true), ("a/b", "a//b", false), ("a/*//e", "a//*/e", true)];
    for (l, r, expect) in pairs {
        let pl = parse_xpath(l).unwrap();
        let pr = parse_xpath(r).unwrap();
        assert_eq!(equivalent(&pl, &pr), expect, "{l} vs {r}");
        assert_eq!(
            equivalent(&pl.extend(mu), &pr.extend(mu)),
            expect,
            "extension broke equivalence transfer for {l} vs {r}"
        );
    }
}

#[test]
fn stability_examples_from_prop_4_1() {
    use xpath_views::pattern::stability_witness;
    // Stable: labeled root.
    assert!(stability_witness(&parse_xpath("a//*").unwrap()).is_some());
    // Stable: depth 0.
    assert!(stability_witness(&parse_xpath("*[a][b]").unwrap()).is_some());
    // Stable: fresh branch label.
    assert!(stability_witness(&parse_xpath("*[q]//e").unwrap()).is_some());
    // Unknown: the classic unstable shape — and indeed */e ≡w *//e yet
    // */e ≢ *//e, witnessing genuine instability.
    let q = parse_xpath("*/e").unwrap();
    assert!(stability_witness(&q).is_none());
    let q2 = parse_xpath("*//e").unwrap();
    assert!(weakly_equivalent(&q, &q2) && !equivalent(&q, &q2));
}
