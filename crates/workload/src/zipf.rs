//! Zipf-distributed query streams over scenario catalogs.
//!
//! Production caches see heavily skewed traffic: a few hot queries dominate
//! while a long tail trickles in. These helpers produce that regime
//! reproducibly — the property suites and the concurrency stress test draw
//! their streams from here so every consumer sees the same workload.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xpv_pattern::Pattern;

use crate::scenarios::Catalog;

/// Zipf(s = 1) ranks over `n` items: item `i` has weight `1 / (i + 1)`.
/// Returns `count` sampled indices in `0..n` (empty when `n == 0`).
pub fn zipf_indices(n: usize, count: usize, seed: u64) -> Vec<usize> {
    if n == 0 {
        return Vec::new();
    }
    let weights: Vec<f64> = (0..n).map(|i| 1.0 / (i + 1) as f64).collect();
    let total: f64 = weights.iter().sum();
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let mut x = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * total;
            for (i, w) in weights.iter().enumerate() {
                if x < *w {
                    return i;
                }
                x -= w;
            }
            n - 1
        })
        .collect()
}

/// A Zipf-repeated stream of `count` queries drawn from `queries` (hot
/// queries first: `queries[0]` is the heaviest rank).
pub fn zipf_stream(queries: &[Pattern], count: usize, seed: u64) -> Vec<Pattern> {
    zipf_indices(queries.len(), count, seed).into_iter().map(|i| queries[i].clone()).collect()
}

/// [`zipf_stream`] over a scenario catalog's query set.
pub fn catalog_zipf_stream(catalog: &Catalog, count: usize, seed: u64) -> Vec<Pattern> {
    let queries: Vec<Pattern> = catalog.queries.iter().map(|(_, q)| q.clone()).collect();
    zipf_stream(&queries, count, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::site_catalog;

    #[test]
    fn indices_are_deterministic_and_in_range() {
        let a = zipf_indices(6, 200, 0x21F);
        let b = zipf_indices(6, 200, 0x21F);
        assert_eq!(a, b);
        assert!(a.iter().all(|&i| i < 6));
        assert_ne!(a, zipf_indices(6, 200, 0x220), "seed must matter");
    }

    #[test]
    fn hot_ranks_dominate() {
        let idx = zipf_indices(6, 3000, 7);
        let count0 = idx.iter().filter(|&&i| i == 0).count();
        let count5 = idx.iter().filter(|&&i| i == 5).count();
        assert!(count0 > 3 * count5, "rank 0 ({count0}) must dwarf rank 5 ({count5})");
    }

    #[test]
    fn catalog_stream_draws_catalog_queries() {
        let catalog = site_catalog();
        let stream = catalog_zipf_stream(&catalog, 50, 1);
        assert_eq!(stream.len(), 50);
        for q in &stream {
            assert!(
                catalog.queries.iter().any(|(_, c)| c.structurally_eq(q)),
                "stream query {q} not in catalog"
            );
        }
    }

    #[test]
    fn empty_universe_yields_empty_stream() {
        assert!(zipf_indices(0, 10, 3).is_empty());
        assert!(zipf_stream(&[], 10, 3).is_empty());
    }
}
