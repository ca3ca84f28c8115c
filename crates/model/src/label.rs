//! Interned node labels.
//!
//! The paper draws document labels from an infinite alphabet `Σ`. We model `Σ`
//! with a global, thread-safe string interner: a [`Label`] is a small integer
//! handle, so label comparison (the innermost operation of every embedding
//! test) is a single integer compare.
//!
//! Two labels receive special treatment, mirroring the paper:
//!
//! * `⊥` ([`Label::bottom`]) — the reserved label used when building canonical
//!   models (Section 2.1 of the paper). Patterns are forbidden from using it.
//! * fresh labels ([`Label::fresh`]) — labels guaranteed to differ from every
//!   label interned so far, used for the `µ` label of Section 5.3 and for the
//!   "new label" constructions inside proofs (e.g. Lemma 4.11).
//!
//! Interned strings are leaked, which lets [`Label::name`] hand out
//! `&'static str` without reference-counting. The table is never shrunk: it
//! holds every distinct name that any parsed query, view or document has
//! spelled, and every fresh label, so it grows with the variety of the input
//! (a server sent ever-new names grows without bound), not with the size of
//! a workload. Callers that need a label absent from an instance over and
//! over should reuse one rather than call [`Label::fresh`] each time, as the
//! condition search of `xpv-core` does for its `µ`.

use std::collections::HashMap;
use std::fmt;
use std::num::NonZeroU32;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{OnceLock, RwLock};

/// An interned node label (an element of the paper's alphabet `Σ`).
///
/// Labels are cheap to copy and compare. The wildcard `*` is **not** a label:
/// it belongs to patterns, not documents, and is represented by
/// `xpv_pattern::NodeTest::Wildcard`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Label(NonZeroU32);

struct Interner {
    by_name: HashMap<&'static str, Label>,
    names: Vec<&'static str>,
}

fn interner() -> &'static RwLock<Interner> {
    static INTERNER: OnceLock<RwLock<Interner>> = OnceLock::new();
    INTERNER.get_or_init(|| RwLock::new(Interner { by_name: HashMap::new(), names: Vec::new() }))
}

/// The reserved spelling of the canonical-model label `⊥`.
pub const BOTTOM_NAME: &str = "\u{22a5}";

impl Label {
    /// Interns `name` and returns its handle. Idempotent.
    ///
    /// # Panics
    ///
    /// Panics if `name` is empty or contains characters that the XPath/XML
    /// grammars of this crate family reserve (`/`, `[`, `]`, `*`, `<`, `>`,
    /// whitespace). The label `⊥` is allowed here (documents may use it) but is
    /// rejected by pattern constructors.
    pub fn new(name: &str) -> Label {
        Self::try_new(name).unwrap_or_else(|| {
            panic!("invalid label name: {name:?} (must be nonempty, without /[]*<> or whitespace)")
        })
    }

    /// Interns `name` if it is an acceptable spelling
    /// ([`Label::is_valid_name`]), checking it once; `None` otherwise.
    pub fn try_new(name: &str) -> Option<Label> {
        Self::is_valid_name(name).then(|| Self::intern(name))
    }

    /// Returns whether `name` is an acceptable label spelling.
    pub fn is_valid_name(name: &str) -> bool {
        !name.is_empty()
            && !name
                .chars()
                .any(|c| c.is_whitespace() || matches!(c, '/' | '[' | ']' | '*' | '<' | '>' | '"'))
    }

    fn intern(name: &str) -> Label {
        // Fast path: already interned.
        if let Some(&l) = interner().read().expect("label interner poisoned").by_name.get(name) {
            return l;
        }
        let mut w = interner().write().expect("label interner poisoned");
        if let Some(&l) = w.by_name.get(name) {
            return l;
        }
        let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
        let id = u32::try_from(w.names.len() + 1).expect("label space exhausted");
        let label = Label(NonZeroU32::new(id).expect("nonzero by construction"));
        w.names.push(leaked);
        w.by_name.insert(leaked, label);
        label
    }

    /// The reserved label `⊥` used by canonical models (Section 2.1).
    pub fn bottom() -> Label {
        static BOTTOM: OnceLock<Label> = OnceLock::new();
        *BOTTOM.get_or_init(|| Self::intern(BOTTOM_NAME))
    }

    /// Returns `true` if this is the reserved canonical-model label `⊥`.
    pub fn is_bottom(self) -> bool {
        self == Self::bottom()
    }

    /// Returns a label that is distinct from every label interned so far
    /// (and therefore from every label appearing in any pattern or document
    /// built before this call). Used for the `µ` label of Section 5.3 and for
    /// the fresh labels inside proofs.
    pub fn fresh(prefix: &str) -> Label {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        loop {
            let n = COUNTER.fetch_add(1, Ordering::Relaxed);
            let candidate = format!("{prefix}\u{00b7}{n}");
            if interner()
                .read()
                .expect("label interner poisoned")
                .by_name
                .contains_key(candidate.as_str())
            {
                continue;
            }
            return Self::intern(&candidate);
        }
    }

    /// The spelling of this label.
    pub fn name(self) -> &'static str {
        interner().read().expect("label interner poisoned").names[(self.0.get() - 1) as usize]
    }

    /// A stable integer id (useful as an index key in hot paths).
    pub fn id(self) -> u32 {
        self.0.get()
    }
}

impl fmt::Debug for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Label({})", self.name())
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl From<&str> for Label {
    fn from(s: &str) -> Label {
        Label::new(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let a1 = Label::new("a");
        let a2 = Label::new("a");
        assert_eq!(a1, a2);
        assert_eq!(a1.name(), "a");
    }

    #[test]
    fn distinct_names_distinct_labels() {
        assert_ne!(Label::new("x1"), Label::new("x2"));
    }

    #[test]
    fn bottom_is_reserved_and_recognized() {
        assert!(Label::bottom().is_bottom());
        assert!(!Label::new("a").is_bottom());
        assert_eq!(Label::bottom(), Label::new(BOTTOM_NAME));
    }

    #[test]
    fn fresh_labels_are_unique() {
        let f1 = Label::fresh("mu");
        let f2 = Label::fresh("mu");
        assert_ne!(f1, f2);
        assert_ne!(f1, Label::new("mu\u{00b7}x"));
    }

    #[test]
    fn fresh_label_differs_from_existing() {
        let existing = Label::new("q");
        let f = Label::fresh("q");
        assert_ne!(existing, f);
    }

    #[test]
    #[should_panic(expected = "invalid label name")]
    fn empty_name_rejected() {
        let _ = Label::new("");
    }

    #[test]
    #[should_panic(expected = "invalid label name")]
    fn wildcard_name_rejected() {
        let _ = Label::new("*");
    }

    #[test]
    #[should_panic(expected = "invalid label name")]
    fn slash_name_rejected() {
        let _ = Label::new("a/b");
    }

    #[test]
    fn display_and_debug() {
        let l = Label::new("venue");
        assert_eq!(l.to_string(), "venue");
        assert_eq!(format!("{l:?}"), "Label(venue)");
    }

    #[test]
    fn ids_are_stable() {
        let l = Label::new("stable-id-check");
        assert_eq!(l.id(), Label::new("stable-id-check").id());
    }
}
