//! Containment and equivalence (Definitions 2.2 and 2.3).
//!
//! * `P1 ⊑ P2` ([`contained`]): `P1(t) ⊆ P2(t)` for all trees `t`;
//! * `P1 ⊑w P2` ([`weakly_contained`]): `P1^w(t) ⊆ P2^w(t)` for all `t`;
//! * equivalence / weak equivalence are two-sided containments.
//!
//! The decision procedure is staged, and spelled out once ([`decide`]; the
//! free functions here and the memoizing [`crate::ContainmentOracle`] all
//! call it):
//!
//! 1. **Homomorphism fast path** (PTIME, sound for the full fragment): a
//!    homomorphism `P2 → P1` witnesses containment immediately.
//! 2. **Homomorphism-complete negatives** (PTIME): when `P1` has no
//!    descendant edge or `P2` has no wildcard — which covers `XP{[],*}` and
//!    `XP{//,[]}` — "no homomorphism" already *is* "not contained"
//!    ([`homomorphism_decides`]).
//! 3. **Canonical-model test** (the coNP-complete procedure of \[14\], used by
//!    the paper in Section 2.2): `P1 ⊑ P2` iff for every canonical model
//!    `t` of `P1` with per-edge expansions bounded by
//!    [`expansion_bound`]`(P2)`, the canonical output of `t` is an answer of
//!    `P2` on `t`. A counter-model is a certificate of non-containment.
//!    [`contained_by_models`] runs this stage alone: it is the reference
//!    the staged procedure is tested against.
//!
//! Weak containment uses the identity `P1 ⊑w P2 ⟺ ∀u: P1(u) ⊆ P2^w(u)`
//! (a weak embedding into `t` is a strong embedding into a subtree of `t`),
//! so it runs the same stages with free homomorphisms and weak embeddings
//! of `P2`.

use crate::canonical::{expansion_bound, uniform_model, CanonicalModel, CanonicalModels};
use crate::embed::{embeds_with_output, weakly_embeds_with_output};
use crate::hom::{homomorphism_exists, HomMode};
use xpv_pattern::{Axis, Pattern};

/// The outcome of a containment check, with the evidence trail used by the
/// benchmark harness.
#[derive(Clone, Debug)]
pub struct ContainmentOutcome {
    /// Whether the containment holds.
    pub holds: bool,
    /// `true` if a homomorphism stage settled it — a witness when `holds`,
    /// its absence where that is complete otherwise — without the loop.
    pub via_homomorphism: bool,
    /// Canonical models examined by the complete test.
    pub models_checked: u64,
    /// A counter-model (canonical model of the left pattern on which the
    /// right pattern misses the output), when the containment fails.
    pub counter_model: Option<CanonicalModel>,
}

/// Is "no homomorphism `p2 → p1`" already "`p1 ⋢ p2`" for this pair? Yes in
/// two cases, strong (root-anchored homomorphisms) and weak (free ones)
/// alike. Let `t` be the canonical model of `p1` that turns every `*` into
/// `⊥` and every descendant edge into a two-edge path through one fresh
/// `⊥` node; `p1 ⊑ p2` makes `p2` embed into `t` with its output on `t`'s.
///
/// * **`p1` has no descendant edge.** Then `t` is `p1` itself with `*`
///   relabeled `⊥`, and its only canonical model. A labeled node of `p2`
///   lands on the same label, hence not on `⊥`, hence on a labeled node of
///   `p1`; child edges land on edges of `t`, which are child edges of `p1`;
///   descendant edges on proper-descendant pairs. The embedding *is* a
///   homomorphism.
/// * **`p2` has no wildcard.** Every node of `p2` is labeled, so it lands on
///   a non-`⊥` node of `t`: the image of a labeled node of `p1`. Two such
///   nodes are parent and child in `t` only across a child edge of `p1` (a
///   descendant edge has a `⊥` node in between), and ancestor and descendant
///   in `t` only if they are in `p1`. Again a homomorphism.
///
/// This is a fact about the *pair*, and no per-pattern fragment flag can
/// stand in for it: "at most two of `//`, `[]`, `*`" admits `XP{//,*}`, where
/// `a/*//e ⊑ a//*/e` holds with no homomorphism.
fn homomorphism_decides(p1: &Pattern, p2: &Pattern) -> bool {
    p1.node_ids().skip(1).all(|n| p1.axis(n) == Axis::Child)
        || p2.node_ids().all(|n| !p2.test(n).is_wildcard())
}

/// The staged containment procedure, uncached: `p1 ⊑ p2`, or `p1 ⊑w p2`
/// when `weak`. A negative of stage 2 carries no counter-model; the model
/// of [`homomorphism_decides`] is one, and [`contained_with`] builds it.
pub(crate) fn decide(p1: &Pattern, p2: &Pattern, weak: bool) -> ContainmentOutcome {
    // A free homomorphism p2 → p1 (output onto output) witnesses weak
    // containment: compose it with the strong embedding of p1 into the
    // subtree that realizes a weak embedding.
    let mode = if weak { HomMode::Free } else { HomMode::RootAnchored };
    let holds = homomorphism_exists(p2, p1, mode);
    if holds || homomorphism_decides(p1, p2) {
        return ContainmentOutcome {
            holds,
            via_homomorphism: true,
            models_checked: 0,
            counter_model: None,
        };
    }
    contained_by_models(p1, p2, weak, expansion_bound(p2))
}

/// Stage 3 alone, the pure canonical-model test that the staged procedure
/// is checked against: `p1 ⊑ p2` (`p1 ⊑w p2` when `weak`) over every
/// canonical model of `p1` whose per-edge expansions are at most `bound`.
/// With `bound` at least [`expansion_bound`]`(p2)` the verdict is exact.
pub fn contained_by_models(
    p1: &Pattern,
    p2: &Pattern,
    weak: bool,
    bound: usize,
) -> ContainmentOutcome {
    let mut outcome = ContainmentOutcome {
        holds: true,
        via_homomorphism: false,
        models_checked: 0,
        counter_model: None,
    };
    for m in CanonicalModels::new(p1, bound) {
        outcome.models_checked += 1;
        let ok = if weak {
            weakly_embeds_with_output(p2, &m.tree, m.output)
        } else {
            embeds_with_output(p2, &m.tree, m.output)
        };
        if !ok {
            outcome.holds = false;
            outcome.counter_model = Some(m);
            break;
        }
    }
    outcome
}

/// [`decide`] with the counter-model of a stage-2 negative filled in.
fn diagnose(p1: &Pattern, p2: &Pattern, weak: bool) -> ContainmentOutcome {
    let mut outcome = decide(p1, p2, weak);
    if outcome.via_homomorphism && !outcome.holds {
        outcome.counter_model = Some(uniform_model(p1, 2));
    }
    outcome
}

/// Decides `p1 ⊑ p2` with full diagnostics.
pub fn contained_with(p1: &Pattern, p2: &Pattern) -> ContainmentOutcome {
    diagnose(p1, p2, false)
}

/// Decides weak containment `p1 ⊑w p2` with full diagnostics.
pub fn weakly_contained_with(p1: &Pattern, p2: &Pattern) -> ContainmentOutcome {
    diagnose(p1, p2, true)
}

/// `p1 ⊑ p2`.
///
/// One-shot entry point: runs the staged procedure directly, with no
/// memoization overhead — verdict-identical to asking a fresh
/// [`crate::ContainmentOracle`] (the oracle runs this same procedure on a
/// memo miss). Components that decide containment repeatedly should hold a
/// long-lived oracle instead so verdicts are shared across calls.
pub fn contained(p1: &Pattern, p2: &Pattern) -> bool {
    decide(p1, p2, false).holds
}

/// `p1 ⊑w p2` (one-shot; see [`contained`]).
pub fn weakly_contained(p1: &Pattern, p2: &Pattern) -> bool {
    decide(p1, p2, true).holds
}

/// `p1 ≡ p2` (two-sided containment; one-shot, see [`contained`]).
pub fn equivalent(p1: &Pattern, p2: &Pattern) -> bool {
    contained(p1, p2) && contained(p2, p1)
}

/// `p1 ≡w p2` (two-sided weak containment; one-shot, see [`contained`]).
pub fn weakly_equivalent(p1: &Pattern, p2: &Pattern) -> bool {
    weakly_contained(p1, p2) && weakly_contained(p2, p1)
}

/// Equivalence where either side may be the empty pattern `Υ`
/// (`None`). `Υ ≡ Υ`, and `Υ` is never equivalent to a (satisfiable)
/// pattern — every nonempty pattern has a canonical model.
pub fn equivalent_opt(p1: Option<&Pattern>, p2: Option<&Pattern>) -> bool {
    match (p1, p2) {
        (None, None) => true,
        (Some(a), Some(b)) => equivalent(a, b),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpv_pattern::parse_xpath;

    fn pat(s: &str) -> Pattern {
        parse_xpath(s).expect("pattern parses")
    }

    fn c(a: &str, b: &str) -> bool {
        contained(&pat(a), &pat(b))
    }

    #[test]
    fn reflexive_and_basic() {
        for s in ["a", "a//b", "a[*]//b/*", "*[x]//y"] {
            assert!(c(s, s), "{s}");
        }
        assert!(c("a/b/c", "a//c"));
        assert!(!c("a//c", "a/b/c"));
        assert!(c("a/b", "a/*"));
        assert!(!c("a/*", "a/b"));
    }

    #[test]
    fn branch_containment() {
        assert!(c("a[b][c]/d", "a[b]/d"));
        assert!(!c("a[b]/d", "a[b][c]/d"));
        // Deeper branch requirements.
        assert!(c("a[b/c]/d", "a[b]/d"));
        assert!(!c("a[b]/d", "a[b/c]/d"));
    }

    #[test]
    fn miklau_suciu_interaction_case() {
        // The classic non-homomorphism containment from [14] (Fig. 4 there):
        // p = a[b[c]][b[d]] // *-free variant has a hom, but the wildcard
        // interplay needs the canonical test. Here: a//*[b] vs a//*//b etc.
        // P1 = a/*/b  ⊑  P2 = a/*/*? depths differ so not comparable; use:
        assert!(c("a/*/b", "a//b"));
        assert!(!c("a//b", "a/*/b"));
    }

    #[test]
    fn containment_not_witnessed_by_homomorphism() {
        // Miklau–Suciu's celebrated example (JACM 2004, Figure 6, adapted to
        // our output convention): containment holds but no homomorphism
        // exists. P1 = a[.//b[c/*]][b[*/d]]  ⊑  P2 = a[.//b[c/*][*/d]]? That
        // containment does NOT hold; the true one is:
        //   P1 = a[b[c/*]][b[*/d]] ... still no.
        // We use the standard star-absorption instance instead:
        //   P1 = a/b[.//c]    P2 = a/*[.//c]
        // has a homomorphism; a genuinely hom-free containment is
        //   P1 = a//b   ⊑   P2 = a//*  -- hom exists too.
        // The simplest verified hom-gap in this fragment:
        //   P1 = a[x/y][x/z]   P2 = a[x[y][z]] does not hold. So instead we
        // check the two directions around *-chains where homs do exist but
        // the canonical path is exercised by running the loop alone.
        let (l, r) = (pat("a/b/c"), pat("a//c"));
        let out = contained_by_models(&l, &r, false, expansion_bound(&r));
        assert!(out.holds);
        assert!(!out.via_homomorphism);
        assert!(out.models_checked >= 1);
    }

    #[test]
    fn counter_model_is_reported() {
        let out = contained_with(&pat("a//c"), &pat("a/b/c"));
        assert!(!out.holds);
        let cm = out.counter_model.expect("counter model");
        // The counter model is a model of the left but its output is not an
        // answer of the right.
        assert!(crate::embed::evaluate(&pat("a//c"), &cm.tree).contains(&cm.output));
        assert!(!crate::embed::evaluate(&pat("a/b/c"), &cm.tree).contains(&cm.output));
    }

    #[test]
    fn equivalence_basics() {
        assert!(equivalent(&pat("a/b"), &pat("a/b")));
        assert!(!equivalent(&pat("a/b"), &pat("a//b")));
        // Sibling order is irrelevant.
        assert!(equivalent(&pat("a[b][c]/d"), &pat("a[c][b]/d")));
        // Redundant branch: a[b][b/c] ≡ a[b/c].
        assert!(equivalent(&pat("a[b][b/c]/d"), &pat("a[b/c]/d")));
    }

    #[test]
    fn star_slash_star_equivalences() {
        // a/*//e ≡ a//*/e: both say "an e at depth ≥ 2 below a" (with output e).
        assert!(equivalent(&pat("a/*//e"), &pat("a//*/e")));
        // But a/*/e is strictly stronger.
        assert!(contained(&pat("a/*/e"), &pat("a//*/e")));
        assert!(!contained(&pat("a//*/e"), &pat("a/*/e")));
    }

    #[test]
    fn homomorphism_negatives_are_a_fact_about_the_pair() {
        // a/*//e ⊑ a//*/e holds with no homomorphism, and both patterns lie
        // in XP{//,*}: "uses at most two of the three constructs" cannot be
        // the test for trusting a missing homomorphism. The pairwise rule
        // declines here (the left side has `//`, the right side `*`) …
        let (l, r) = (pat("a/*//e"), pat("a//*/e"));
        assert!(!homomorphism_exists(&r, &l, HomMode::RootAnchored));
        assert!(!homomorphism_decides(&l, &r));
        let out = contained_with(&l, &r);
        assert!(out.holds && !out.via_homomorphism && out.models_checked >= 1);
        // … and fires when the left side has no `//` or the right side no
        // `*`, settling the negative without a single canonical model.
        for (l, r) in [("a/*/e", "a/b/e"), ("a//*/e", "a//b/e"), ("a/*[b]", "a//*/b")] {
            let (l, r) = (pat(l), pat(r));
            assert!(homomorphism_decides(&l, &r), "{l} vs {r}");
            for weak in [false, true] {
                let out = diagnose(&l, &r, weak);
                assert!(!out.holds && out.via_homomorphism, "{l} vs {r}");
                assert_eq!(out.models_checked, 0);
                // The counter-model is real: the reference arm agrees on it.
                let cm = out.counter_model.expect("counter model");
                assert!(crate::embed::evaluate(&l, &cm.tree).contains(&cm.output));
                assert!(!crate::embed::evaluate(&r, &cm.tree).contains(&cm.output));
                assert!(!contained_by_models(&l, &r, weak, expansion_bound(&r)).holds);
            }
        }
    }

    #[test]
    fn figure2_candidate_gap() {
        // Our reconstructed Figure 1/2 instance: V = a[b]/*, P = a[b]//*/e[d].
        // P>=1 composed with V is a[b]/*/e[d], NOT equivalent to P;
        // the relaxed candidate composes to a[b]/*//e[d], which IS.
        assert!(!equivalent(&pat("a[b]/*/e[d]"), &pat("a[b]//*/e[d]")));
        assert!(equivalent(&pat("a[b]/*//e[d]"), &pat("a[b]//*/e[d]")));
    }

    #[test]
    fn weak_containment_shifts_roots() {
        // b/c ⊑w a/b/c? Left weak outputs: c under any b. Right weak outputs:
        // c under b under a... no wait: weak embeddings of a/b/c anchor a
        // anywhere; left b/c anchors b anywhere. A tree with b/c but no a
        // above: left produces c, right produces nothing. So not weakly cont.
        assert!(!weakly_contained(&pat("b/c"), &pat("a/b/c")));
        // The other way: any weak a/b/c output is a weak b/c output.
        assert!(weakly_contained(&pat("a/b/c"), &pat("b/c")));
        // Strong containment of incomparable-root patterns fails while weak
        // holds: P1 = a/b/c vs P2 = b/c strongly: embeddings of P1 map root a,
        // of P2 root b — strong containment fails at the root.
        assert!(!contained(&pat("a/b/c"), &pat("b/c")));
    }

    #[test]
    fn weak_equivalence_is_coarser() {
        // P ≡ Q implies P ≡w Q (Section 2.2).
        let p = pat("a[b][b/c]/d");
        let q = pat("a[b/c]/d");
        assert!(equivalent(&p, &q));
        assert!(weakly_equivalent(&p, &q));
        // Weakly equivalent but not equivalent: *//e vs */e?? No...
        // The paper's canonical source of weak-equivalence collapses is root
        // relaxation of all-wildcard spines: */*//e and *//*/e and *//*//e?
        // */*//e ≡w *//*/e? Both weakly produce "e with ≥2 ancestors".
        assert!(weakly_equivalent(&pat("*/*//e"), &pat("*//*/e")));
        assert!(equivalent(&pat("*/*//e"), &pat("*//*/e")));
        // A genuine gap: Q = */e vs Q' = *//e... weak: "e child of something"
        // vs "e proper desc of something" = "e has an ancestor chain >= 1" —
        // same sets? e child of x: weak *//e picks x=parent: yes. e desc of x
        // at distance 2: weak */e picks the parent as root image: yes! So
        // weakly equivalent, but NOT equivalent (*/e pins e at depth 1).
        assert!(weakly_equivalent(&pat("*/e"), &pat("*//e")));
        assert!(!equivalent(&pat("*/e"), &pat("*//e")));
    }

    #[test]
    fn equivalent_opt_handles_empty() {
        assert!(equivalent_opt(None, None));
        assert!(!equivalent_opt(Some(&pat("a")), None));
        assert!(!equivalent_opt(None, Some(&pat("a"))));
        assert!(equivalent_opt(Some(&pat("a/b")), Some(&pat("a/b"))));
    }

    #[test]
    fn bound_robustness_spot_check() {
        // Raising the expansion bound never changes the verdict.
        let pairs =
            [("a/*//e", "a//*/e"), ("a//b", "a/*/b"), ("*[a]//b", "*//b"), ("a[*/c]//d", "a//d")];
        for (l, r) in pairs {
            let base = contained(&pat(l), &pat(r));
            let padded = contained_by_models(&pat(l), &pat(r), false, expansion_bound(&pat(r)) + 2);
            assert_eq!(padded.holds, base, "{l} vs {r}");
        }
    }

    #[test]
    fn prop31_weak_equivalence_implies_same_depth() {
        // Sanity for Proposition 3.1(1) on a worked pair.
        let p1 = pat("a//b/c");
        let p2 = pat("a//*/c");
        if weakly_equivalent(&p1, &p2) {
            assert_eq!(p1.depth(), p2.depth());
        }
    }
}
