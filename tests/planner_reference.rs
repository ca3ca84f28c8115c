//! The planner against a reference built from its definition: the gates of
//! Proposition 3.1, then the natural candidates tested one by one with
//! `compose` and `equivalent`, then `find_condition(p, v, 3)`.
//!
//! The planner refutes both candidates without testing them when the query
//! has a label that neither `P≥k` nor the view has, and checks the
//! conditions that read only the query once per view depth. Both shortcuts
//! must leave every answer what the reference makes it: the same variant,
//! rewriting text, method and `Condition`. The instances span every
//! fragment over at least 64 distinct labels, so that labels share bits of
//! the hashed label masks, and one stream draws its labels from groups that
//! share a bit on purpose.

use xpath_views::pattern::label_mask;
use xpath_views::prelude::*;
use xpath_views::rewrite::{find_condition, natural_candidates, Method, NoRewriteReason};
use xpath_views::workload::Fragment;

/// What the comparison reads of an answer.
#[derive(Debug, PartialEq)]
enum Summary {
    Rewriting { text: String, method: Method, condition: Option<Condition> },
    ViewDeeperThanQuery,
    KNodeLabelClash,
    CandidatesFailUnderCondition(Condition),
    Unknown,
}

fn summary(answer: &RewriteAnswer) -> Summary {
    match answer {
        RewriteAnswer::Rewriting(rw) => Summary::Rewriting {
            text: rw.pattern().to_string(),
            method: rw.method.clone(),
            condition: rw.condition.clone(),
        },
        RewriteAnswer::NoRewriting(NoRewriteReason::ViewDeeperThanQuery) => {
            Summary::ViewDeeperThanQuery
        }
        RewriteAnswer::NoRewriting(NoRewriteReason::KNodeLabelClash { .. }) => {
            Summary::KNodeLabelClash
        }
        RewriteAnswer::NoRewriting(NoRewriteReason::CandidatesFailUnderCondition(c)) => {
            Summary::CandidatesFailUnderCondition(c.clone())
        }
        RewriteAnswer::Unknown(_) => Summary::Unknown,
    }
}

/// The paper's procedure without the brute-force fallback, spelled out.
fn reference(p: &Pattern, v: &Pattern) -> Summary {
    let k = v.depth();
    if k > p.depth() {
        return Summary::ViewDeeperThanQuery;
    }
    let clash = match (p.test(p.k_node(k)), v.test(v.output())) {
        (NodeTest::Wildcard, NodeTest::Label(_)) => true,
        (NodeTest::Label(a), NodeTest::Label(b)) => a != b,
        _ => false,
    };
    if clash {
        return Summary::KNodeLabelClash;
    }
    let condition = find_condition(p, v, 3);
    for cand in natural_candidates(p, v) {
        if compose(&cand.pattern, v).is_some_and(|rv| equivalent(&rv, p)) {
            return Summary::Rewriting {
                text: cand.pattern.to_string(),
                method: Method::NaturalCandidate { relaxed: cand.relaxed },
                condition,
            };
        }
    }
    condition.map_or(Summary::Unknown, Summary::CandidatesFailUnderCondition)
}

/// What the run saw, so that it can check it tested what it claims to.
#[derive(Debug, Default)]
struct Seen {
    rewritings: usize,
    /// Pairs whose label sets refute the candidates.
    refutable: usize,
    /// Of those, pairs whose masks let the tests through anyway (a label
    /// shares its bit with one the view or `P≥k` has).
    masked_by_collisions: usize,
}

fn check(p: &Pattern, v: &Pattern, seen: &mut Seen) {
    let got = summary(&RewritePlanner::without_fallback().decide(p, v));
    let want = reference(p, v);
    assert_eq!(got, want, "P = {p}, V = {v}");
    seen.rewritings += usize::from(matches!(want, Summary::Rewriting { .. }));
    let k = v.depth();
    if k <= p.depth() {
        let base = p.sub_pattern_geq(k);
        let (base_labels, v_labels) = (base.label_set(), v.label_set());
        let refutable =
            p.label_set().iter().any(|l| !base_labels.contains(l) && !v_labels.contains(l));
        let masked = label_mask(p) & !label_mask(&base) & !label_mask(v) == 0;
        seen.refutable += usize::from(refutable);
        seen.masked_by_collisions += usize::from(refutable && masked);
    }
}

const FRAGMENTS: [Fragment; 4] =
    [Fragment::Full, Fragment::NoWildcard, Fragment::NoDescendant, Fragment::NoBranch];

fn config(fragment: Fragment, label_count: usize) -> PatternGenConfig {
    PatternGenConfig {
        depth: (1, 4),
        max_branch_size: 2,
        label_count,
        fragment,
        ..Default::default()
    }
}

#[test]
fn planner_answers_equal_the_reference_over_many_labels() {
    let mut seen = Seen::default();
    for fragment in FRAGMENTS {
        for seed in 0..400u64 {
            let mut gen = PatternGen::new(config(fragment, 80), seed);
            // A correlated pair, and the query over an unrelated view.
            let (p, v) = gen.instance();
            check(&p, &v, &mut seen);
            let other = gen.pattern();
            check(&p, &gen.derived_view(&other), &mut seen);
        }
    }
    assert!(seen.rewritings >= 1000, "{seen:?}");
    assert!(seen.refutable >= 500, "{seen:?}");
}

/// Relabels `p`: label `l{i}` becomes `alphabet[i]`.
fn relabel(p: &Pattern, alphabet: &[Label]) -> Pattern {
    let mut out = p.clone();
    for n in p.node_ids() {
        if let Some(l) = p.test(n).as_label() {
            let i: usize = l.name()[1..].parse().expect("generated labels are l0, l1, ...");
            out.set_test(n, NodeTest::Label(alphabet[i]));
        }
    }
    out
}

#[test]
fn planner_answers_equal_the_reference_when_labels_share_mask_bits() {
    // Eight labels in four pairs, each pair on one bit of the label masks.
    let pool: Vec<Label> = (0..160).map(|i| Label::new(&format!("mask-bit-{i}"))).collect();
    let mut alphabet = Vec::new();
    for bit in 0..64 {
        let group: Vec<Label> = pool.iter().copied().filter(|l| l.id() % 64 == bit).collect();
        if group.len() >= 2 && alphabet.len() < 8 {
            alphabet.extend(&group[..2]);
        }
    }
    assert_eq!(alphabet.len(), 8);
    let mut seen = Seen::default();
    for fragment in FRAGMENTS {
        for seed in 0..400u64 {
            let mut gen = PatternGen::new(config(fragment, alphabet.len()), seed);
            let (p, v) = gen.instance();
            let (p, v) = (relabel(&p, &alphabet), relabel(&v, &alphabet));
            check(&p, &v, &mut seen);
            let other = relabel(&gen.pattern(), &alphabet);
            check(&p, &gen.derived_view(&other), &mut seen);
        }
    }
    assert!(seen.rewritings >= 1000, "{seen:?}");
    assert!(seen.refutable - seen.masked_by_collisions >= 300, "{seen:?}");
    assert!(seen.masked_by_collisions >= 100, "{seen:?}");
}
