//! # xpv-semantics — embeddings, evaluation, containment
//!
//! The semantic layer of the `xpath-views` workspace (Afrati et al., EDBT
//! 2009 reproduction). It implements:
//!
//! * **embeddings / weak embeddings** (Definition 2.1) and query evaluation
//!   `P(t)`, `P^w(t)` as output-node sets ([`evaluate`], [`evaluate_weak`]);
//! * the **word-parallel flat matcher** ([`evaluate_flat`], [`BatchEval`])
//!   — one spine-and-branch evaluator over frozen [`xpv_model::FlatTree`]
//!   snapshots: branch witness sets are memoized on the snapshot, the
//!   selection spine runs top-down from the anchors; the `Tree`-based path
//!   above stays as its reference oracle;
//! * **canonical models** (Section 2.1): the minimal model `τ(P)` ([`tau`])
//!   and bounded enumeration ([`CanonicalModels`]);
//! * **pattern homomorphisms** ([`homomorphism_exists`]) — the PTIME
//!   containment witness, complete on `XP{//,[]}` and `XP{[],*}`;
//! * **containment / equivalence**, strong and weak ([`contained`],
//!   [`equivalent`], [`weakly_contained`], [`weakly_equivalent`]), via the
//!   staged procedure described in DESIGN.md §3;
//! * the **memoizing containment oracle** ([`ContainmentOracle`]) — the
//!   shared decision service every planning layer routes through: patterns
//!   are interned to structural keys and the full containment verdicts
//!   are memoized ([`OracleStats`] counts hits, misses, which stage settled
//!   each miss, and coNP work). The free containment functions run the
//!   same staged procedure one-shot, so oracle and free-function verdicts
//!   always agree.

pub mod canonical;
pub mod contain;
pub mod embed;
pub mod flat;
pub mod hom;
pub mod oracle;
pub mod reduce;

pub use canonical::{
    descendant_edge_targets, expansion_bound, tau, CanonicalModel, CanonicalModels,
};
pub use contain::{
    contained, contained_by_models, contained_with, equivalent, equivalent_opt, weakly_contained,
    weakly_contained_with, weakly_equivalent, ContainmentOutcome,
};
pub use embed::{
    check_embedding, embeds_with_output, enumerate_embeddings, evaluate, evaluate_anchored,
    evaluate_weak, find_embedding, find_weak_embedding, sub_match_sets, weakly_embeds_with_output,
    Embedding,
};
pub use flat::{
    evaluate_anchored_flat, evaluate_batch_flat, evaluate_flat, BatchEval, RegionScanner,
};
pub use hom::{check_homomorphism, find_homomorphism, homomorphism_exists, HomMode};
pub use oracle::{ContainmentOracle, OracleStats, DEFAULT_ORACLE_SHARDS};
pub use reduce::{is_non_redundant, redundant_branches, remove_redundant_branches};
