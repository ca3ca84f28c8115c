//! # xpv-core — rewriting XPath queries using views
//!
//! The primary contribution of *On Rewriting XPath Queries Using Views*
//! (Afrati et al., EDBT 2009), as a library:
//!
//! * [`natural_candidates`] — the two linear-time candidates `P≥k`,
//!   `P≥k_r//` (Section 4);
//! * [`find_condition`] — the completeness certificates of Theorems
//!   4.3 / 4.4 / 4.9 / 4.10 / 4.16, the Section 5 reductions (stable-suffix,
//!   `∗//`, extension + output-lifting) and GNF/* (Theorem 5.4);
//! * [`RewritePlanner`] — the end-to-end decision procedure: gates,
//!   candidate tests, certificates, and the budgeted Proposition 3.4
//!   brute force ([`brute_force_rewrite`]);
//! * [`PlanningSession`] — a planner bound to a long-lived
//!   [`xpv_semantics::ContainmentOracle`] and a memo of whole decisions,
//!   so each `(query, view)` pair the session sees is decided once
//!   ([`PlannerStats`] reports per-call decision-memo hits / misses and
//!   coNP work); a [`QueryContext`] carries what one query's decisions
//!   against many views have in common;
//! * [`multiview`] — view chains (Proposition 2.4) and contained
//!   rewritings (sound partial answers, the paper's open problem 3);
//! * [`figures`] — executable reconstructions of the paper's Figures 1–4.

pub mod brute;
pub mod candidates;
pub mod conditions;
pub mod figures;
pub mod multiview;
pub mod planner;

pub use brute::{
    brute_force_rewrite, brute_force_rewrite_with_oracle, BruteForceConfig, BruteForceOutcome,
    BruteForceStats,
};
pub use candidates::{natural_candidates, Candidate, CandidateTestStats, QueryContext};
pub use conditions::{find_condition, Condition};
pub use figures::{figure1, figure2, figure3, figure4, Figure1, Figure2, Figure3, Figure4};
pub use multiview::{
    contained_rewriting, rewrite_using_chain, rewrite_using_chain_in, ChainAnswer,
};
pub use planner::{
    Method, NoRewriteReason, PlannerStats, PlanningSession, RewriteAnswer, RewritePlanner,
    Rewriting, UnknownInfo, DECISION_MEMO_MAX_BYTES, DECISION_MEMO_MAX_ENTRIES,
};
