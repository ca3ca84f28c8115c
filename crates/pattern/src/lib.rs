//! # xpv-pattern — tree patterns for `XP{//,[],*}`
//!
//! Queries and views in *On Rewriting XPath Queries Using Views* (Afrati et
//! al., EDBT 2009) are **tree patterns**: rooted trees labeled over
//! `Σ ∪ {*}` with child and descendant edges and a distinguished output node
//! (Section 2.1 of the paper). This crate provides:
//!
//! * the arena [`Pattern`] type with selection-path machinery ([`Pattern::k_node`],
//!   [`Pattern::sub_pattern_geq`], [`Pattern::upper_pattern_leq`], …);
//! * every structural operation of the paper: composition
//!   ([`compose`], Section 2.3), combination ([`Pattern::combine`]),
//!   root relaxation ([`Pattern::relax_root_edges`]), `l`-extension
//!   ([`Pattern::extend`]), output lifting ([`Pattern::lift_output`]) and the
//!   `l//Q` prefix ([`Pattern::prefix_descendant`]);
//! * the **exact intersection pattern** ([`intersect_patterns`]): a single
//!   pattern whose answer set equals the node-set intersection of several
//!   patterns' answers, in the tree-expressible case (the algebraic core of
//!   the `xpv-intersect` multi-view rewriter);
//! * a parser ([`parse_xpath`]) and printer ([`to_xpath`]) for the fragment's
//!   XPath syntax `q ::= q/q | q//q | q[q] | l | *`, and a bounded
//!   text → pattern cache in front of the parser ([`TextCache`]) for
//!   callers that see the same texts again and again;
//! * structural hashing and interning ([`Pattern::fingerprint`],
//!   [`PatternInterner`] / [`PatternKey`]) — stable under sibling
//!   reordering — so patterns can serve as cheap memo keys for the
//!   containment oracle in `xpv-semantics`;
//! * the one bounded table shape ([`BoundedMap`]: two generations, bounded
//!   in entries and bytes) that the text cache, the interner and the
//!   memos above them share;
//! * word-sized **signatures** ([`ViewSignature`] / [`QuerySignature`]):
//!   necessary conditions for an equivalent rewriting, used by the serving
//!   layer to reject most candidate views before any containment call (the
//!   soundness argument lives in the [`signature`] module docs);
//! * syntactic classification: fragments ([`FragmentFlags`]), linearity,
//!   the Proposition 4.1 stability witnesses ([`stability_witness`]) and the
//!   GNF/* normal form of Definition 5.3 ([`is_gnf_star`]).
//!
//! Semantics (embeddings, evaluation, containment) live in `xpv-semantics`.

pub mod bounded_map;
pub mod classify;
pub mod intern;
pub mod ops;
pub mod parse;
pub mod pattern;
pub mod print;
pub mod signature;
pub mod text_cache;

pub use bounded_map::{BoundedMap, Held};
pub use classify::{
    deepest_descendant_selection_edge, gnf_star_certificate, is_gnf_star, is_linear,
    selection_node_labeled, selection_prefix_all_child, stability_witness, star_chain_len,
    FragmentFlags, GnfCase, StabilityWitness,
};
pub use intern::{PatternInterner, PatternKey, INTERNER_MAX_BYTES, INTERNER_MAX_ENTRIES};
pub use ops::{compose, compose_chain, intersect_patterns};
pub use parse::{parse_xpath, ParseError, MAX_BRANCH_DEPTH};
pub use pattern::{Axis, NodeTest, PatId, Pattern, PatternBuilder};
pub use print::to_xpath;
pub use signature::{label_bit, label_mask, OutClass, QuerySignature, ViewSignature};
pub use text_cache::TextCache;
