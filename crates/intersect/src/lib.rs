//! # xpv-intersect — rewriting queries over view **intersections**
//!
//! The source paper's open problem 5 asks for rewritings that combine
//! *several* views. Following Cautis, Deutsch, Ileana & Onose (*Rewriting
//! XPath Queries using View Intersections: Tractability versus
//! Completeness*), this crate answers a query from the **node-set
//! intersection** of a small subset of materialized views: a pool in which
//! no single view suffices can still serve the query jointly.
//!
//! The pipeline:
//!
//! 1. **Subset selection** ([`plan_intersection_in`]): enumerate
//!    merge-compatible pairs/triples of pool views (equal selection depth,
//!    child-only spines below the root edge), cheapest subsets first, under
//!    a fixed budget ([`MAX_ARITY`], [`MAX_CANDIDATES`]).
//! 2. **Anchor construction**: each subset's views are merged into the
//!    *exact intersection pattern* `M` ([`xpv_pattern::intersect_patterns`])
//!    with `M(t) = ∩ Vi(t)` on every document — `M` is the anchor the
//!    rewriting is planned against. Subsets whose anchor collapses onto a
//!    single participant (`Vi ⊑ M`, decided by the shared
//!    [`xpv_semantics::ContainmentOracle`]) are skipped as redundant: the
//!    single-view planner already covers them. Anchors depend on the pool
//!    alone, so an [`AnchorTable`] keeps them per pool version: each is
//!    merged and checked the first time a search needs it, and later
//!    searches over the same pool reuse it.
//! 3. **Compensation planning**: `p`'s natural candidates are tested
//!    against `M` ([`xpv_core::QueryContext::verify`]), unless `p`'s labels
//!    refute them first ([`xpv_core::QueryContext::refutes`]). A verified
//!    candidate becomes the [`IntersectAnswer::compensation`].
//! 4. **Evaluation** is the engine's, not this crate's: the compensation is
//!    evaluated **anchored on the node-set intersection** of the
//!    participants, which the engine takes as word-ANDs of its views' slot
//!    bitsets inside the flat evaluator's seed
//!    (`xpv_semantics::BatchEval::evaluate_seeded_into`). Views' answers
//!    are needed only as sets to intersect.
//!
//! ## Soundness / completeness contract
//!
//! * **Soundness is unconditional**: an [`IntersectAnswer`] satisfies
//!   `R ◦ M ≡ P` where `M(t) = ∩ Vi(t)`, so the anchored evaluation
//!   returns **exactly** `P(t)` — never a wrong node, never a missing one.
//! * **Completeness is bounded** (the Cautis et al. tractability trade-off):
//!   only tree-expressible intersections are attempted — participants must
//!   share a forced selection spine; DAG-shaped intersections (differing
//!   view depths, descendant edges below the root of the spine — the
//!   "interleavings" of the full algorithm) are out of scope — and the
//!   subset enumeration is budgeted. A `None` from the planner therefore
//!   does **not** prove that no multi-view rewriting exists.
//!
//! ```
//! use xpv_core::RewritePlanner;
//! use xpv_intersect::plan_intersection_in;
//! use xpv_pattern::parse_xpath;
//!
//! let v1 = parse_xpath("site/region/item[bids]/name").unwrap();
//! let v2 = parse_xpath("site/region/item[shipping]/name").unwrap();
//! let p = parse_xpath("site/region/item[bids][shipping]/name").unwrap();
//! let session = RewritePlanner::default().session();
//! // No single view rewrites p...
//! assert!(session.decide(&p, &v1).rewriting().is_none());
//! assert!(session.decide(&p, &v2).rewriting().is_none());
//! // ...but the pair does, jointly.
//! let (answer, stats) = plan_intersection_in(&session, &p, &[&v1, &v2]);
//! let answer = answer.expect("the pair serves the query");
//! assert_eq!(answer.views, vec![0, 1]);
//! assert!(stats.candidates_tried >= 1);
//! ```

pub mod plan;

pub use plan::{
    plan_intersection_in, plan_intersection_sig, AnchorTable, IntersectAnswer, IntersectStats,
    MAX_ARITY, MAX_CANDIDATES,
};
