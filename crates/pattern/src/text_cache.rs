//! A bounded cache from query text to parsed pattern.
//!
//! A server receives the same few query texts over and over; [`TextCache`]
//! parses each distinct text once and hands out clones of the result.
//! It is keyed by the text itself, byte for byte: two spellings of one
//! pattern (whitespace, sibling order) are two entries, each holding
//! exactly what [`parse_xpath`] makes of its own text.

use crate::bounded_map::BoundedMap;
use crate::parse::{parse_xpath, ParseError};
use crate::pattern::Pattern;

/// The most entries a [`TextCache`] holds, both generations together.
pub const TEXT_CACHE_MAX_ENTRIES: usize = 2048;

/// The most bytes a [`TextCache`]'s entries hold, both generations
/// together: each entry's text, its pattern's nodes and child lists, and
/// its map slot.
pub const TEXT_CACHE_MAX_BYTES: usize = 2 << 20;

/// The longest text a [`TextCache`] keeps. A longer one is parsed on
/// every call and never stored.
pub const TEXT_CACHE_MAX_TEXT_LEN: usize = 1024;

/// A bounded map from query text to the [`Pattern`] [`parse_xpath`] makes
/// of it, for a caller that parses the same texts again and again.
///
/// [`TextCache::parse`] returns a clone of the stored pattern on a hit and
/// calls [`parse_xpath`] on a miss. Only successful parses are stored: a
/// text that fails is parsed, and refused with the same offset and
/// message, on every call.
///
/// **Bound.** At most [`TEXT_CACHE_MAX_ENTRIES`] entries holding at most
/// [`TEXT_CACHE_MAX_BYTES`] bytes, whatever the caller sends; a text
/// longer than [`TEXT_CACHE_MAX_TEXT_LEN`] is never stored. Entries age
/// out two generations at a time ([`BoundedMap`]): a hot set that fits in
/// one generation is parsed once and never again, and a text is parsed
/// again only after two flips passed it by. An entry fits in an empty
/// generation: its text is at most [`TEXT_CACHE_MAX_TEXT_LEN`] bytes, so
/// its pattern has at most as many nodes, a few dozen kilobytes against
/// half the byte bound.
#[derive(Default)]
pub struct TextCache {
    map: BoundedMap<Box<str>, Pattern, TEXT_CACHE_MAX_ENTRIES, TEXT_CACHE_MAX_BYTES>,
    misses: u64,
}

impl TextCache {
    /// An empty cache.
    pub fn new() -> TextCache {
        TextCache::default()
    }

    /// Parses `text`: a clone of the stored pattern if `text` was parsed
    /// before and is still held, [`parse_xpath`]'s answer otherwise.
    pub fn parse(&mut self, text: &str) -> Result<Pattern, ParseError> {
        if let Some(p) = self.map.get(text) {
            return Ok(p.clone());
        }
        self.misses += 1;
        let p = parse_xpath(text)?;
        if text.len() <= TEXT_CACHE_MAX_TEXT_LEN {
            self.map.insert(text.into(), p.clone(), text.len() + p.heap_bytes());
        }
        Ok(p)
    }

    /// Entries held, both generations together.
    pub fn len(&self) -> usize {
        self.map.held().entries
    }

    /// Whether the cache holds no entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes the entries hold, counted as [`TEXT_CACHE_MAX_BYTES`] counts
    /// them.
    pub fn bytes(&self) -> usize {
        self.map.held().bytes
    }

    /// Calls [`TextCache::parse`] answered by running [`parse_xpath`].
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Times the current generation filled and became the older one.
    pub fn flips(&self) -> u64 {
        self.map.flips()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::MAX_BRANCH_DEPTH;
    use crate::pattern::{Axis, NodeTest, PatId};
    use crate::print::to_xpath;

    type Layout = (PatId, Vec<(NodeTest, Axis, Option<PatId>, Vec<PatId>)>);

    /// Every node of `p` in arena order, and the output: equal layouts
    /// are equal patterns down to node ids.
    fn layout(p: &Pattern) -> Layout {
        let nodes = (0..p.len() as u32)
            .map(PatId)
            .map(|n| (p.test(n), p.axis(n), p.parent(n), p.children(n).to_vec()))
            .collect();
        (p.output(), nodes)
    }

    /// Isomorphs under sibling reordering, whitespace variants, `.//`
    /// predicates, the branch-depth bound and one past it, and texts that
    /// do not parse.
    fn texts() -> Vec<String> {
        let nested = |n: usize| format!("a{}{}", "[b".repeat(n), "]".repeat(n));
        let mut texts: Vec<String> = [
            "a[b][c]/d",
            "a[c][b]/d",
            "a[c]/d[b]",
            "a/b//c",
            " a / b // c ",
            "a/b//c ",
            "\ta[ b ]//c",
            "a[.//b]/c",
            "a[./b]/c",
            "a[.//b[.//c]/d]//e",
            "*//*[*]/x",
            "site/region//item[.//name][desc]/name",
            "",
            "a[",
            "a]",
            "/a",
            "//a",
            "a b",
            "a[.b]",
            "a/\u{22a5}",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        texts.push(nested(MAX_BRANCH_DEPTH));
        texts.push(nested(MAX_BRANCH_DEPTH + 1));
        texts.push(format!("a[{}]", vec!["b"; MAX_BRANCH_DEPTH].join("/")));
        texts.push(format!("a[{}]", vec!["b"; MAX_BRANCH_DEPTH + 1].join("//")));
        // Longer than the cache keeps, valid and not.
        texts.push(format!("r{}", "/x".repeat(TEXT_CACHE_MAX_TEXT_LEN)));
        texts.push(format!("r{}[", "/x".repeat(TEXT_CACHE_MAX_TEXT_LEN)));
        // Seeded random patterns over a small alphabet, each also with
        // its predicates written in the other order.
        let mut seed = 0x9E37_79B9_7F4A_7C15_u64;
        let mut next = move |bound: u64| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed % bound
        };
        for _ in 0..200 {
            let steps: Vec<(&str, &str, Vec<String>)> = (0..1 + next(4))
                .map(|_| {
                    let sep = ["/", "//"][next(2) as usize];
                    let test = ["a", "b", "c", "*"][next(4) as usize];
                    let preds = (0..next(3))
                        .map(|_| {
                            let axis = ["", "./", ".//"][next(3) as usize];
                            format!("[{axis}{}]", ["a", "b/c", "*//d", "e[f]"][next(4) as usize])
                        })
                        .collect();
                    (sep, test, preds)
                })
                .collect();
            for reversed in [false, true] {
                let mut text = String::new();
                for (i, (sep, test, preds)) in steps.iter().enumerate() {
                    if i > 0 {
                        text.push_str(sep);
                    }
                    text.push_str(test);
                    if reversed {
                        text.extend(preds.iter().rev().map(String::as_str));
                    } else {
                        text.extend(preds.iter().map(String::as_str));
                    }
                }
                texts.push(text);
            }
        }
        texts
    }

    #[test]
    fn cached_parses_equal_fresh_ones() {
        let texts = texts();
        let mut cache = TextCache::new();
        for round in 0..2 {
            for text in &texts {
                match (cache.parse(text), parse_xpath(text)) {
                    (Ok(cached), Ok(fresh)) => {
                        assert_eq!(to_xpath(&cached), to_xpath(&fresh), "{text:?}, round {round}");
                        assert_eq!(layout(&cached), layout(&fresh), "{text:?}, round {round}");
                    }
                    (Err(cached), Err(fresh)) => assert_eq!(cached, fresh, "{text:?}"),
                    (cached, fresh) => panic!("{text:?}: cache {cached:?}, parser {fresh:?}"),
                }
            }
        }
        // Each stored text was parsed once; each other text on both rounds.
        let stored = texts
            .iter()
            .filter(|t| t.len() <= TEXT_CACHE_MAX_TEXT_LEN && parse_xpath(t).is_ok())
            .collect::<std::collections::HashSet<_>>()
            .len();
        let unique = texts.iter().collect::<std::collections::HashSet<_>>().len();
        assert_eq!(cache.len(), stored);
        assert_eq!(cache.misses(), (unique + (unique - stored)) as u64);
        assert_eq!(cache.flips(), 0);
    }

    #[test]
    fn a_text_that_fails_is_refused_every_time_and_never_stored() {
        let mut cache = TextCache::new();
        cache.parse("a/b").expect("parses");
        let bomb = format!("a{}{}", "[b".repeat(100_000), "]".repeat(100_000));
        for text in ["a[[[", "a/b/", bomb.as_str()] {
            let fresh = parse_xpath(text).unwrap_err();
            for _ in 0..3 {
                let misses = cache.misses();
                assert_eq!(cache.parse(text).unwrap_err(), fresh);
                assert_eq!(cache.misses(), misses + 1, "{text:.40}");
            }
        }
        assert_eq!(cache.len(), 1);
    }

    /// The `i`-th of 100 000 distinct texts, spelled in ten labels.
    fn unique(i: usize) -> String {
        let digits = format!("{i:05}");
        digits.chars().fold(String::from("u"), |mut s, d| {
            s.push_str("/d");
            s.push(d);
            s
        })
    }

    fn hot(j: usize) -> String {
        format!("h/k{}[.//p{}]", j % 12, j / 12)
    }

    #[test]
    fn a_flood_of_distinct_texts_stays_within_the_bounds() {
        const HOT: usize = 48;
        // Dense: a hot text after every distinct one. Each hot text comes
        // back well within a generation, so it is never parsed again.
        // Sparse: one after every 100, so each hot text is evicted
        // between its visits; it is then parsed at most once per flip.
        for every in [1, 100] {
            let mut cache = TextCache::new();
            for j in 0..HOT {
                cache.parse(&hot(j)).expect("hot text parses");
            }
            let warm_flips = cache.flips();
            let mut reparsed = [0u64; HOT];
            let mut j = 0;
            for i in 0..100_000 {
                cache.parse(&unique(i)).expect("distinct text parses");
                if i % every == 0 {
                    let misses = cache.misses();
                    cache.parse(&hot(j % HOT)).expect("hot text parses");
                    reparsed[j % HOT] += cache.misses() - misses;
                    j += 1;
                }
                assert!(cache.len() <= TEXT_CACHE_MAX_ENTRIES, "{} entries", cache.len());
                assert!(cache.bytes() <= TEXT_CACHE_MAX_BYTES, "{} bytes", cache.bytes());
            }
            let flips = cache.flips() - warm_flips;
            assert!(flips >= 100_000 / TEXT_CACHE_MAX_ENTRIES as u64, "{flips} flips");
            if every == 1 {
                assert_eq!(reparsed, [0; HOT]);
            } else {
                assert!(reparsed.iter().all(|&n| n <= flips), "{reparsed:?} in {flips} flips");
                assert!(reparsed.iter().any(|&n| n > 0), "the sparse stream evicts");
            }
        }
    }

    #[test]
    fn long_texts_flip_on_bytes_before_entries() {
        let mut cache = TextCache::new();
        let len = TEXT_CACHE_MAX_TEXT_LEN - 8;
        for i in 0..600 {
            let text = format!("{}{}", unique(i), "/x".repeat((len - 13) / 2));
            assert!(text.len() <= TEXT_CACHE_MAX_TEXT_LEN);
            cache.parse(&text).expect("parses");
            assert!(cache.bytes() <= TEXT_CACHE_MAX_BYTES, "{} bytes", cache.bytes());
        }
        assert!(cache.flips() > 0 && cache.len() < 600, "{} flips", cache.flips());
    }
}
