//! # xpv-model — documents for the XPath-views system
//!
//! This crate is the lowest layer of the `xpath-views` workspace, a Rust
//! reproduction of *On Rewriting XPath Queries Using Views* (Afrati et al.,
//! EDBT 2009). It provides the paper's **data model**:
//!
//! * [`Label`] — interned labels from the alphabet `Σ`, including the reserved
//!   canonical-model label `⊥` and fresh-label generation (for `µ`);
//! * [`Tree`] — rooted, labeled, unordered trees (XML documents `T_Σ`), stored
//!   as arenas with cheap navigation and unordered-isomorphism keys;
//! * [`parse_xml`] / [`to_xml`] — an element-only XML subset;
//! * [`BitSet`] — the set representation used by the embedding matcher;
//! * [`FlatTree`] — a frozen struct-of-arrays snapshot of a tree (label
//!   array, CSR children, parent array, live mask, per-label postings) that
//!   the word-parallel matcher in `xpv-semantics` runs against;
//! * [`AnswerArena`] — the per-batch store of answer slot sets with `Copy`
//!   [`AnswerRef`] handles, node lists built only on demand: the serving
//!   layer's zero-allocation return lane.
//!
//! Patterns (queries and views) live one layer up, in `xpv-pattern`.

pub mod arena;
pub mod bitset;
pub mod flat;
pub mod label;
pub mod tree;
pub mod xml;

pub use arena::{AnswerArena, AnswerRef};
pub use bitset::BitSet;
pub use flat::{FlatTree, Prior, WitnessKey, NO_PARENT, WITNESS_MEMO_BOUND};
pub use label::{Label, BOTTOM_NAME};
pub use tree::{GraftMark, NodeId, Tree, TreeBuilder};
pub use xml::{parse_xml, to_xml, XmlError};
