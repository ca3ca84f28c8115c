//! Completeness conditions: when are the natural candidates *potential*
//! rewritings?
//!
//! A pattern `R'` is a **potential rewriting** w.r.t. `(P, V)` if the
//! existence of any rewriting implies that `R'` is one (Section 4). The paper
//! proves that under each of the following conditions at least one natural
//! candidate is potential, so testing the (at most two) candidates decides
//! the rewriting-existence problem:
//!
//! | tag | source | condition |
//! |-----|--------|-----------|
//! | `StableSubpattern` | Thm 4.3 | `P≥k` is stable (Prop 4.1 witnesses) |
//! | `QueryPrefixAllChild` | Thm 4.4 | the selection path of `P≤k` has only child edges |
//! | `DescendantIntoViewOutput` | Thm 4.9 | a descendant edge enters `out(V)` |
//! | `ViewSelectionAllChild` | Thm 4.10 | the selection path of `V` has only child edges |
//! | `CorrespondingLastDescendant` | Thm 4.16 | the last descendant selection edge of `P` corresponds to a descendant edge of `V` |
//! | `StableSuffixReduction` | §5.1, Prop 5.1 | `P≥i` stable for some `i ≤ k`, and the reduced instance `(P≥i, V≥i)` satisfies a condition |
//! | `SlashSlashReduction` | §5.2, Prop 5.6 | the reduced instance `(∗//P≥i, ∗//V≥i)` (for `i` = deepest descendant edge of `V`) satisfies a condition |
//! | `ExtensionLifting` | §5.3, Thm 5.9 / Cor 5.11 | the transformed instance `((P^{+µ})^{j→}, V^{+∗})` satisfies a condition |
//! | `GnfStar` | Thm 5.4 | `P` is in the generalized normal form GNF/* |
//!
//! All three Section 5 transformations preserve the *set of natural
//! candidates* (`P≥k` / `P≥k_r//` are unchanged), so a nested certificate
//! still justifies testing the original candidates — the planner relies on
//! this.
//!
//! Only the library decision looks for a condition: the serving engine
//! routes verified candidates only, so it never needs to tell "no
//! rewriting" from "unknown".

use std::fmt;
use std::sync::RwLock;

use xpv_model::Label;
use xpv_pattern::{
    deepest_descendant_selection_edge, is_gnf_star, selection_prefix_all_child, stability_witness,
    Axis, NodeTest, Pattern,
};

/// A certificate naming the theorem (or reduction chain) under which the
/// natural candidates are complete for an instance `(P, V)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Condition {
    /// The view is exactly as deep as the query (`k = d`; Section 4 preamble).
    EqualDepth,
    /// Theorem 4.3 — `P≥k` is stable.
    StableSubpattern,
    /// Theorem 4.4 — the selection path of `P≤k` has only child edges.
    QueryPrefixAllChild,
    /// Theorem 4.9 — a descendant edge enters `out(V)`.
    DescendantIntoViewOutput,
    /// Theorem 4.10 — the selection path of `V` has only child edges.
    ViewSelectionAllChild,
    /// Theorem 4.16 — the last descendant selection edge of `P` (at depth
    /// `j ≤ k`) corresponds to a descendant selection edge of `V`.
    CorrespondingLastDescendant {
        /// The shared depth of the corresponding edges.
        depth: usize,
    },
    /// Section 5.1 — reduce to `(P≥i, V≥i)` for a stable `P≥i`, then apply
    /// the inner condition.
    StableSuffixReduction {
        /// The reduction depth `i` (1 ≤ i ≤ k).
        at: usize,
        /// The condition holding on the reduced instance.
        inner: Box<Condition>,
    },
    /// Section 5.2 — reduce to `(∗//P≥i, ∗//V≥i)` where `i` is the deepest
    /// descendant selection edge of `V`, then apply the inner condition.
    SlashSlashReduction {
        /// The reduction depth `i`.
        at: usize,
        /// The condition holding on the reduced instance.
        inner: Box<Condition>,
    },
    /// Section 5.3 — transform to `((P^{+µ})^{j→}, V^{+∗})` for a `Σ`-labeled
    /// j-node of `P` (`k ≤ j ≤ d`), then apply the inner condition.
    ExtensionLifting {
        /// The lifting depth `j`.
        at: usize,
        /// The condition holding on the transformed instance.
        inner: Box<Condition>,
    },
    /// Theorem 5.4 — `P` is in GNF/*.
    GnfStar,
}

impl Condition {
    /// The paper reference for this certificate (outermost step).
    pub fn source(&self) -> &'static str {
        match self {
            Condition::EqualDepth => "Section 4 (k = d)",
            Condition::StableSubpattern => "Theorem 4.3",
            Condition::QueryPrefixAllChild => "Theorem 4.4",
            Condition::DescendantIntoViewOutput => "Theorem 4.9",
            Condition::ViewSelectionAllChild => "Theorem 4.10",
            Condition::CorrespondingLastDescendant { .. } => "Theorem 4.16",
            Condition::StableSuffixReduction { .. } => "Proposition 5.1",
            Condition::SlashSlashReduction { .. } => "Proposition 5.6 / Corollary 5.7",
            Condition::ExtensionLifting { .. } => "Theorem 5.9 / Corollary 5.11",
            Condition::GnfStar => "Theorem 5.4",
        }
    }

    /// Nesting depth of the certificate (1 for a base condition).
    pub fn chain_len(&self) -> usize {
        match self {
            Condition::StableSuffixReduction { inner, .. }
            | Condition::SlashSlashReduction { inner, .. }
            | Condition::ExtensionLifting { inner, .. } => 1 + inner.chain_len(),
            _ => 1,
        }
    }
}

impl fmt::Display for Condition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Condition::EqualDepth => write!(f, "k=d"),
            Condition::StableSubpattern => write!(f, "stable-P≥k [Thm 4.3]"),
            Condition::QueryPrefixAllChild => write!(f, "P-prefix-child [Thm 4.4]"),
            Condition::DescendantIntoViewOutput => write!(f, "desc-into-out(V) [Thm 4.9]"),
            Condition::ViewSelectionAllChild => write!(f, "V-path-child [Thm 4.10]"),
            Condition::CorrespondingLastDescendant { depth } => {
                write!(f, "corresponding-desc@{depth} [Thm 4.16]")
            }
            Condition::StableSuffixReduction { at, inner } => {
                write!(f, "stable-suffix@{at} [Prop 5.1] -> {inner}")
            }
            Condition::SlashSlashReduction { at, inner } => {
                write!(f, "*//-reduction@{at} [Prop 5.6] -> {inner}")
            }
            Condition::ExtensionLifting { at, inner } => {
                write!(f, "extend+lift@{at} [Thm 5.9] -> {inner}")
            }
            Condition::GnfStar => write!(f, "GNF/* [Thm 5.4]"),
        }
    }
}

/// Searches for a completeness certificate for the instance `(p, v)`:
/// the Section 4 conditions first, then GNF/*, then the Section 5
/// reductions (each of which recurses on a transformed instance with the
/// *same* natural candidates).
///
/// `fuel` bounds the reduction-chain length; reductions can otherwise cycle
/// (e.g. the `∗//` reduction maps its own output to itself).
pub fn find_condition(p: &Pattern, v: &Pattern, fuel: usize) -> Option<Condition> {
    let d = p.depth();
    let k = v.depth();
    if k == d {
        return Some(Condition::EqualDepth);
    }
    // Theorem 4.3.
    if stability_witness(&p.sub_pattern_geq(k)).is_some() {
        return Some(Condition::StableSubpattern);
    }
    // Theorem 4.4.
    if selection_prefix_all_child(p, k) {
        return Some(Condition::QueryPrefixAllChild);
    }
    // Theorem 4.9.
    if k >= 1 && p_axis_at(v, k) == Axis::Descendant {
        return Some(Condition::DescendantIntoViewOutput);
    }
    // Theorem 4.10.
    if selection_prefix_all_child(v, k) {
        return Some(Condition::ViewSelectionAllChild);
    }
    // Theorem 4.16.
    if let Some(j) = deepest_descendant_selection_edge(p) {
        if j <= k && p_axis_at(v, j) == Axis::Descendant {
            return Some(Condition::CorrespondingLastDescendant { depth: j });
        }
    }
    // Theorem 5.4 — cheap and syntactic, so it is tried before the
    // instance-transforming reductions.
    if is_gnf_star(p) {
        return Some(Condition::GnfStar);
    }
    if fuel > 0 {
        // Section 5.1: reduce at the deepest stable suffix P≥i, i ≤ k.
        for i in (1..=k).rev() {
            let p_red = p.sub_pattern_geq(i);
            if stability_witness(&p_red).is_some() {
                let v_red = v.sub_pattern_geq(i);
                if let Some(inner) = find_condition(&p_red, &v_red, fuel - 1) {
                    return Some(Condition::StableSuffixReduction {
                        at: i,
                        inner: Box::new(inner),
                    });
                }
            }
        }
        // Section 5.2: cut above the deepest descendant selection edge of V.
        if let Some(i) = deepest_descendant_selection_edge(v) {
            let p_red = Pattern::prefix_descendant(NodeTest::Wildcard, &p.sub_pattern_geq(i));
            let v_red = Pattern::prefix_descendant(NodeTest::Wildcard, &v.sub_pattern_geq(i));
            // The reduced instance reproduces itself under this reduction;
            // only recurse if it differs from (p, v).
            if !p_red.structurally_eq(p) || !v_red.structurally_eq(v) {
                if let Some(inner) = find_condition(&p_red, &v_red, fuel - 1) {
                    return Some(Condition::SlashSlashReduction { at: i, inner: Box::new(inner) });
                }
            }
        }
        // Section 5.3: extension + output lifting at a Σ-labeled j-node.
        // Every j tries the same µ: it only has to be absent from the
        // instance.
        let mut unused = None;
        for j in (k..=d).rev() {
            if !p.test(p.k_node(j)).is_wildcard() {
                let mu = *unused.get_or_insert_with(|| unused_label(p, v));
                let p_tr = p.extend(NodeTest::Label(mu)).lift_output(j);
                let v_tr = v.extend(NodeTest::Wildcard);
                if let Some(inner) = find_condition(&p_tr, &v_tr, fuel - 1) {
                    return Some(Condition::ExtensionLifting { at: j, inner: Box::new(inner) });
                }
            }
        }
    }
    None
}

fn p_axis_at(q: &Pattern, i: usize) -> Axis {
    q.axis(q.k_node(i))
}

/// A label that neither `p` nor `v` uses: the `µ` of Section 5.3. It is the
/// first entry of a process-wide reserved list that neither uses, and the
/// list grows by one [`Label::fresh`] only when the instance uses every
/// entry. A condition search interns no label once the list is as long as
/// its deepest nesting of Section 5.3 steps; only equality with the
/// instance's own labels matters to the search, so which absent label it
/// gets changes no verdict.
fn unused_label(p: &Pattern, v: &Pattern) -> Label {
    static RESERVED: RwLock<Vec<Label>> = RwLock::new(Vec::new());
    let (in_p, in_v) = (p.label_set(), v.label_set());
    let free = |l: &&Label| in_p.binary_search(l).is_err() && in_v.binary_search(l).is_err();
    if let Some(&mu) = RESERVED.read().expect("reserved labels poisoned").iter().find(free) {
        return mu;
    }
    let mut reserved = RESERVED.write().expect("reserved labels poisoned");
    if let Some(&mu) = reserved.iter().find(free) {
        return mu;
    }
    // Fresh: distinct from every label interned so far, so from every label
    // of `p` and `v`.
    let mu = Label::fresh("µ");
    reserved.push(mu);
    mu
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpv_pattern::parse_xpath;

    fn pat(s: &str) -> Pattern {
        parse_xpath(s).expect("pattern parses")
    }

    fn cond(ps: &str, vs: &str) -> Option<Condition> {
        find_condition(&pat(ps), &pat(vs), 3)
    }

    #[test]
    fn equal_depth() {
        assert_eq!(cond("a/b[c]", "a/*"), Some(Condition::EqualDepth));
    }

    #[test]
    fn thm_4_3_stable_subpattern() {
        // P>=1 = b//c has a labeled root => stable.
        let c = cond("a//b//c", "a//*");
        assert_eq!(c, Some(Condition::StableSubpattern));
    }

    #[test]
    fn thm_4_4_query_prefix() {
        // P's first selection edge is a child edge; P>=1 = *//* unstable.
        let c = cond("a/*//*", "a//*");
        assert_eq!(c, Some(Condition::QueryPrefixAllChild));
    }

    #[test]
    fn thm_4_9_descendant_into_view_output() {
        // P>=1 = *//* unstable; P's prefix has a descendant edge; V's last
        // edge is descendant.
        let c = cond("a//*//*", "a//*");
        assert_eq!(c, Some(Condition::DescendantIntoViewOutput));
    }

    #[test]
    fn thm_4_10_view_all_child() {
        let c = cond("a//*/e[d]", "a/*");
        assert_eq!(c, Some(Condition::ViewSelectionAllChild));
    }

    #[test]
    fn thm_4_16_corresponding_descendant() {
        // Figure 4 shape: V = a/*//*/*; P1 = a/*//*/*/e.
        // P1's last descendant selection edge is at depth 2; V's depth-2 edge
        // is descendant. None of the earlier conditions fire:
        //  - P>=3 = */e... wait that is stable? root * depth 1, labels {e} in
        //    Q>=1 too; not stable. P1 prefix has a descendant edge; V's last
        //    edge is child; V has a descendant edge on its path.
        let c = cond("a/*//*/*/e", "a/*//*/*");
        assert_eq!(c, Some(Condition::CorrespondingLastDescendant { depth: 2 }));
    }

    #[test]
    fn fig4_linear_patterns_fall_under_gnf() {
        // The literal Figure 4 patterns P2 and P3 are linear, so the broad
        // syntactic net of Theorem 5.4 (GNF/*, via linear suffixes) already
        // certifies them; the planner prefers it over the reductions. The
        // Section 5 transformations themselves are exercised on non-linear
        // instances below and through the Theorem 5.9 transfer tests in the
        // `figures` module.
        assert_eq!(cond("a//*/*/*/e", "a/*//*/*"), Some(Condition::GnfStar));
        assert_eq!(cond("a/*//*/*/c//e", "a/*//*/*"), Some(Condition::GnfStar));
    }

    #[test]
    fn sec_5_2_reduction_needed_for_branching_query() {
        // P = a//*[*/e]/*/*/e, V = a/*//*/* (k = 3).
        // Base conditions: P>=3 = */e is unstable; P's prefix and V's path
        // both mix axes; P's deepest descendant selection edge (depth 1) has
        // a child-edge counterpart in V — Thm 4.16 fails. GNF/* dies at the
        // descendant entry into the unstable, branching P>=1. No stable
        // suffix exists at i ≤ k. The ∗// reduction at i = 2 (V's deepest
        // descendant edge) produces P' = *//*/*/e, V' = *//*/*, where the
        // last descendant edges correspond at depth 1 (Thm 4.16).
        let c = cond("a//*[*/e]/*/*/e", "a/*//*/*").expect("certificate exists");
        match &c {
            Condition::SlashSlashReduction { at, inner } => {
                assert_eq!(*at, 2);
                assert_eq!(**inner, Condition::CorrespondingLastDescendant { depth: 1 });
            }
            other => panic!("expected *// reduction, got {other}"),
        }
    }

    #[test]
    fn sec_5_3_extension_lifting_needed_for_branching_query() {
        // P = *//*[*/c]/*/c//e, V = *//*/* (k = 2).
        // Every base condition fails; GNF/* dies at depth 1 (unstable,
        // branching suffix); the ∗// reduction reproduces the instance
        // verbatim (the guard skips it); but the c-labeled 3-node admits the
        // Section 5.3 transformation, after which the depths agree (the
        // extended view gains one selection step).
        let c = cond("*//*[*/c]/*/c//e", "*//*/*").expect("certificate exists");
        match &c {
            Condition::ExtensionLifting { at, .. } => {
                // The search tries the deepest eligible j first (the e-labeled
                // 4-node); the chain bottoms out in a Thm 4.16 correspondence
                // after a second lift onto the c-node.
                assert_eq!(*at, 4);
                assert!(c.chain_len() >= 2, "got {c}");
            }
            other => panic!("expected extension+lifting, got {other}"),
        }
    }

    #[test]
    #[allow(unused_variables)]
    fn gnf_star_fallback() {
        // Linear all-wildcard suffixes: GNF/* via linearity. Construct an
        // instance dodging every earlier condition:
        //   P = a//*//*  (suffixes at 1, 2 are linear wildcards, unstable)
        //   V = a//*     -> Thm 4.9 fires (desc into out(V)). Use V with a
        //   child last edge and a descendant first edge: V = a//*/*.
        //   Then P must have depth > 2... P = a//*//*/*? Its deepest desc
        //   edge (depth 2... wait axes [D,D,C]); j=2 <= k=2, V's 2nd edge is
        //   child -> 4.16 fails. P>=2 = *[]... linear => GNF.
        let p = pat("a//*//*/*");
        let v = pat("a//*/*");
        // Base conditions all fail:
        assert!(stability_witness(&p.sub_pattern_geq(2)).is_none());
        let c = cond("a//*//*/*", "a//*/*");
        assert_eq!(c, Some(Condition::GnfStar));
    }

    #[test]
    fn no_condition_for_adversarial_instance() {
        // Build (P, V) dodging everything:
        //   V = a//*/*                      (k = 2, axes [D, C])
        //   P = a//*[*/m]/*[*/m]//*[m]      (axes [D, C, D], depth 3)
        // P's selection nodes below the root are all wildcards (killing the
        // 5.3 transformation and the stability conditions — the branch label
        // m also appears in every suffix), P>=1 is branching (killing GNF at
        // the descendant entry), P's deepest descendant edge (depth 3) is
        // deeper than V (killing Thm 4.16), V mixes axes (killing 4.9/4.10),
        // and the ∗// reduction reproduces an instance that fails for the
        // same reasons.
        let c = cond("a//*[*/m]/*[*/m]//*[m]", "a//*/*");
        assert_eq!(c, None);
    }

    #[test]
    fn condition_display_and_source() {
        let c = cond("a//*[*/e]/*/*/e", "a/*//*/*").expect("certificate");
        assert!(c.source().contains("5.6"));
        assert!(c.to_string().contains("->"));
        assert!(c.chain_len() >= 2);
    }

    #[test]
    fn fuel_zero_limits_to_base_conditions() {
        // The P2/V instance needs the 5.3 transformation; with fuel 0 only
        // base conditions + GNF are available and GNF fails (descendant entry
        // into branching unstable suffix? P2 is linear actually... P2 =
        // a/*//*/*/c//e is linear, so GNF/* holds via linearity!).
        // GNF via linear suffixes still fires — use the adversarial P.
        assert_eq!(find_condition(&pat("a//*[*/m]/*[*/m]//m[*/m]"), &pat("a//*/*"), 0), None);
        // And P2 with fuel 0 falls back to GNF/*.
        assert_eq!(
            find_condition(&pat("a/*//*/*/c//e"), &pat("a/*//*/*"), 0),
            Some(Condition::GnfStar)
        );
    }

    #[test]
    fn repeated_condition_searches_intern_a_constant_number_of_labels() {
        // The adversarial instance tries a Section 5.3 step at every
        // labelled j-node, nested up to the fuel.
        let (p, v) = (pat("a//*[*/m]/*[*/m]//c[m]"), pat("a//*/*"));
        let first = find_condition(&p, &v, 3);
        let probe = Label::fresh("probe").id();
        for _ in 0..1000 {
            assert_eq!(find_condition(&p, &v, 3), first);
        }
        // Label ids count interned labels, and each probe interns one.
        // Other tests of this binary may intern a few meanwhile.
        let interned = Label::fresh("probe").id() - probe - 1;
        assert!(interned <= 16, "1000 searches interned {interned} labels");
    }

    #[test]
    fn a_query_that_spells_a_reserved_label_gets_the_same_condition() {
        let v = pat("*//*/*");
        // The first reserved label, spelled by the query at the j-node the
        // search lifts first, and in a branch; the reference spells a label
        // no reserved entry has instead.
        let mu = unused_label(&pat("a"), &v);
        for shape in ["*//*[*/c]/*/c//X", "*//*[*/c]/*[X]/c//e", "*//*[*/X]/*/X//e"] {
            let plain = pat(&shape.replace('X', "x"));
            let p = pat(&shape.replace('X', mu.name()));
            assert_ne!(unused_label(&p, &v), mu, "{p} uses {mu}");
            assert_eq!(find_condition(&p, &v, 3), find_condition(&plain, &v, 3), "{p}");
        }
        // The first shape needs the Section 5.3 step.
        let lifted = find_condition(&pat("*//*[*/c]/*/c//x"), &v, 3);
        assert!(matches!(lifted, Some(Condition::ExtensionLifting { .. })), "{lifted:?}");
    }
}
