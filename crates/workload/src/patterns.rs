//! Seeded random pattern generation, fragment-restricted.
//!
//! The theorem-validation suites (`tests/planner_audit.rs` and the
//! property tests) need large supplies of patterns with controllable shape:
//! selection depth, branching, wildcard/descendant density, and fragment
//! restrictions matching the paper's sub-fragments. Everything is driven by
//! an explicit seed so every run is reproducible bit for bit.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use xpv_model::Label;
use xpv_pattern::{Axis, NodeTest, PatId, Pattern};

/// Which fragment the generator must stay inside.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fragment {
    /// The full fragment `XP{//,[],*}`.
    Full,
    /// `XP{//,[]}` — no wildcards.
    NoWildcard,
    /// `XP{[],*}` — no descendant edges.
    NoDescendant,
    /// `XP{//,*}` — no branches (linear patterns with the output at the
    /// deepest node).
    NoBranch,
}

/// Configuration for [`PatternGen`].
#[derive(Clone, Debug)]
pub struct PatternGenConfig {
    /// Selection depth is drawn uniformly from this inclusive range.
    pub depth: (usize, usize),
    /// Probability that a selection edge is a descendant edge.
    pub descendant_prob: f64,
    /// Probability that a node test is the wildcard.
    pub wildcard_prob: f64,
    /// Probability of attaching a branch at each selection node.
    pub branch_prob: f64,
    /// Maximum nodes per attached branch.
    pub max_branch_size: usize,
    /// Number of distinct labels (`l0`, `l1`, …).
    pub label_count: usize,
    /// Fragment restriction.
    pub fragment: Fragment,
}

impl Default for PatternGenConfig {
    fn default() -> Self {
        PatternGenConfig {
            depth: (1, 4),
            descendant_prob: 0.4,
            wildcard_prob: 0.35,
            branch_prob: 0.5,
            max_branch_size: 3,
            label_count: 4,
            fragment: Fragment::Full,
        }
    }
}

/// A reproducible random pattern generator.
#[derive(Clone, Debug)]
pub struct PatternGen {
    cfg: PatternGenConfig,
    rng: StdRng,
    labels: Vec<Label>,
}

impl PatternGen {
    /// Creates a generator from a config and a seed.
    pub fn new(cfg: PatternGenConfig, seed: u64) -> PatternGen {
        let labels = workload_labels(cfg.label_count);
        PatternGen { cfg, rng: StdRng::seed_from_u64(seed), labels }
    }

    fn axis(&mut self) -> Axis {
        let allow_desc = self.cfg.fragment != Fragment::NoDescendant;
        if allow_desc && self.rng.gen_bool(self.cfg.descendant_prob) {
            Axis::Descendant
        } else {
            Axis::Child
        }
    }

    fn test(&mut self) -> NodeTest {
        let allow_wild = self.cfg.fragment != Fragment::NoWildcard;
        if allow_wild && self.rng.gen_bool(self.cfg.wildcard_prob) {
            NodeTest::Wildcard
        } else {
            let i = self.rng.gen_range(0..self.labels.len());
            NodeTest::Label(self.labels[i])
        }
    }

    fn attach_branch(&mut self, p: &mut Pattern, at: PatId) {
        let size = self.rng.gen_range(1..=self.cfg.max_branch_size);
        let mut nodes = vec![at];
        for _ in 0..size {
            let parent = nodes[self.rng.gen_range(0..nodes.len())];
            let axis = self.axis();
            let test = self.test();
            let id = p.add_child(parent, axis, test);
            nodes.push(id);
        }
    }

    /// Draws one pattern.
    pub fn pattern(&mut self) -> Pattern {
        let depth = self.rng.gen_range(self.cfg.depth.0..=self.cfg.depth.1);
        let mut p = Pattern::single(self.test());
        let mut cur = p.root();
        let mut spine = vec![cur];
        for _ in 0..depth {
            let axis = self.axis();
            let test = self.test();
            cur = p.add_child(cur, axis, test);
            spine.push(cur);
        }
        p.set_output(cur);
        if self.cfg.fragment != Fragment::NoBranch {
            // Attach branches to selection nodes other than the output (the
            // output may get one too; it stays a valid pattern).
            for node in spine {
                if self.rng.gen_bool(self.cfg.branch_prob) {
                    self.attach_branch(&mut p, node);
                }
            }
        }
        p
    }

    /// Draws a view correlated with `p`: a prefix `P≤k` for a random
    /// `k ≤ depth(P)`, optionally generalized by turning some labels into
    /// wildcards and some child edges into descendant edges. Correlated
    /// views make rewritability reasonably likely, which the experiments
    /// need (uncorrelated random pairs almost never admit rewritings).
    pub fn derived_view(&mut self, p: &Pattern) -> Pattern {
        let d = p.depth();
        let k = self.rng.gen_range(0..=d);
        let mut v = p.upper_pattern_leq(k);
        // Generalize some tests to wildcards (keeps V ⊒-ish of P's prefix).
        if self.cfg.fragment != Fragment::NoWildcard {
            for n in v.node_ids().collect::<Vec<PatId>>() {
                if !v.test(n).is_wildcard() && self.rng.gen_bool(0.2) {
                    // Never generalize the output test: rewritability gates
                    // on it matching P's k-node exactly in the common case.
                    if n != v.output() {
                        v.set_test(n, NodeTest::Wildcard);
                    }
                }
            }
        }
        v
    }

    /// Draws a (query, view) instance by generating a pattern and a
    /// correlated view.
    pub fn instance(&mut self) -> (Pattern, Pattern) {
        let p = self.pattern();
        let v = self.derived_view(&p);
        (p, v)
    }
}

/// The deterministic label universe `l0..l{n-1}` used by all generators.
pub fn workload_labels(n: usize) -> Vec<Label> {
    (0..n).map(|i| Label::new(&format!("l{i}"))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpv_pattern::FragmentFlags;

    #[test]
    fn generation_is_deterministic() {
        let cfg = PatternGenConfig::default();
        let mut g1 = PatternGen::new(cfg.clone(), 42);
        let mut g2 = PatternGen::new(cfg, 42);
        for _ in 0..20 {
            assert!(g1.pattern().structurally_eq(&g2.pattern()));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = PatternGenConfig::default();
        let mut g1 = PatternGen::new(cfg.clone(), 1);
        let mut g2 = PatternGen::new(cfg, 2);
        let same = (0..20).filter(|_| g1.pattern().structurally_eq(&g2.pattern())).count();
        assert!(same < 20, "independent seeds should diverge");
    }

    #[test]
    fn depth_bounds_respected() {
        let cfg = PatternGenConfig { depth: (2, 5), ..Default::default() };
        let mut g = PatternGen::new(cfg, 7);
        for _ in 0..50 {
            let d = g.pattern().depth();
            assert!((2..=5).contains(&d), "depth {d} out of range");
        }
    }

    #[test]
    fn fragment_restrictions_hold() {
        for (fragment, check) in
            [(Fragment::NoWildcard, 0usize), (Fragment::NoDescendant, 1), (Fragment::NoBranch, 2)]
        {
            let cfg = PatternGenConfig { fragment, ..Default::default() };
            let mut g = PatternGen::new(cfg, 11);
            for _ in 0..50 {
                let p = g.pattern();
                let f = FragmentFlags::of(&p);
                match check {
                    0 => assert!(!f.wildcard, "wildcard leaked into {p}"),
                    1 => assert!(!f.descendant, "descendant leaked into {p}"),
                    _ => assert!(!f.branching, "branch leaked into {p}"),
                }
            }
        }
    }

    #[test]
    fn derived_views_are_shallower_and_gated_correctly() {
        let mut g = PatternGen::new(PatternGenConfig::default(), 23);
        for _ in 0..50 {
            let (p, v) = g.instance();
            assert!(v.depth() <= p.depth());
        }
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(workload_labels(3), workload_labels(3));
        assert_eq!(workload_labels(2)[1].name(), "l1");
    }
}
