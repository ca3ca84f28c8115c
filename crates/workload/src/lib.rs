//! # xpv-workload — generators for the reproduction experiments
//!
//! Seeded, reproducible workload generation for the `xpath-views` project:
//!
//! * [`PatternGen`] — random patterns with fragment restrictions
//!   ([`Fragment`]) and correlated (query, view) instances;
//! * [`TreeGen`] — random documents for falsification and scaling;
//! * [`site_doc`] / [`bib_doc`] — XMark/DBLP-shaped synthetic documents with
//!   query/view catalogs ([`site_catalog`], [`bib_catalog`], and the
//!   overlapping-view [`site_intersect_catalog`] whose joint queries only
//!   multi-view intersections can serve; [`split_into_overlapping_views`]
//!   generates such pools from any query);
//! * [`adversarial`] — hom-gap and certificate-free families;
//! * [`zipf`] — Zipf-skewed query streams over the catalogs;
//! * [`edits`] — Zipf-skewed, replayable document **edit streams** over a
//!   configurable insert/delete/relabel mix;
//! * [`socket_load`] — a wire-protocol load generator over `xpv-net`
//!   client connections.

pub mod adversarial;
pub mod edits;
pub mod patterns;
pub mod scenarios;
pub mod socket_load;
pub mod trees;
pub mod zipf;

pub use adversarial::{hom_gap_instance, no_condition_instance};
pub use edits::{edit_batches, edit_stream, edit_stream_clustered, EditLocality, EditMix};
pub use patterns::{workload_labels, Fragment, PatternGen, PatternGenConfig};
pub use scenarios::{
    bib_catalog, bib_doc, site_catalog, site_doc, site_intersect_catalog,
    split_into_overlapping_views, Catalog,
};
pub use socket_load::{run_socket_load, SocketLoadReport};
pub use trees::{TreeGen, TreeGenConfig};
pub use zipf::{catalog_zipf_stream, zipf_indices, zipf_stream};
