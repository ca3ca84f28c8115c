//! Pretty-printer for patterns (the inverse of [`crate::parse`]).
//!
//! The printer renders the selection path as the main XPath spine and every
//! non-selection subtree as a predicate. Descendant-axis predicate
//! attachments use the `.//` prefix. `parse_xpath(to_xpath(p))` is
//! structurally equal to `p` for every pattern (property-tested).

use crate::pattern::{Axis, NodeTest, PatId, Pattern};

/// Writes `n`'s node test straight into `out`.
fn push_test(p: &Pattern, n: PatId, out: &mut String) {
    match p.test(n) {
        NodeTest::Wildcard => out.push('*'),
        NodeTest::Label(l) => out.push_str(l.name()),
    }
}

fn push_branch(p: &Pattern, n: PatId, out: &mut String) {
    if p.axis(n) == Axis::Descendant {
        out.push_str(".//");
    }
    push_branch_node(p, n, out);
}

/// Renders the subtree at `n` (a non-selection subtree) without the leading
/// axis marker.
fn push_branch_node(p: &Pattern, n: PatId, out: &mut String) {
    push_test(p, n, out);
    let kids = p.children(n);
    if kids.len() == 1 {
        let c = kids[0];
        out.push_str(p.axis(c).separator());
        push_branch_node(p, c, out);
    } else {
        for &c in kids {
            out.push('[');
            push_branch(p, c, out);
            out.push(']');
        }
    }
}

/// Renders a pattern in the fragment's XPath syntax.
pub fn to_xpath(p: &Pattern) -> String {
    let path = p.selection_path();
    let mut out = String::new();
    for (i, &n) in path.iter().enumerate() {
        if i > 0 {
            out.push_str(p.axis(n).separator());
        }
        push_test(p, n, &mut out);
        let sel_child = path.get(i + 1).copied();
        for &c in p.children(n) {
            if Some(c) == sel_child {
                continue;
            }
            out.push('[');
            push_branch(p, c, &mut out);
            out.push(']');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_xpath;
    use crate::pattern::{NodeTest, Pattern, PatternBuilder};

    fn roundtrip(s: &str) {
        let p = parse_xpath(s).expect("parse");
        let printed = to_xpath(&p);
        let p2 = parse_xpath(&printed).expect("reparse");
        assert!(p.structurally_eq(&p2), "roundtrip failed: {s} -> {printed}");
    }

    #[test]
    fn roundtrips() {
        for s in [
            "a",
            "*",
            "a/b",
            "a//b",
            "a[b]//c[e]/d",
            "a[.//b]/c",
            "a[b[c]/d]//e",
            "*//*[*]/x",
            "a[b/c][.//d//e]/f//g[h]",
            "root[x[y][z]]//mid[.//deep/leaf]/out",
        ] {
            roundtrip(s);
        }
    }

    #[test]
    fn exact_rendering() {
        let cases = ["a", "a/b", "a//b", "a[b]//c[e]/d", "a[.//b]/c", "a[b/c]/d"];
        for s in cases {
            assert_eq!(to_xpath(&parse_xpath(s).expect("parse")), s);
        }
    }

    #[test]
    fn output_in_the_middle_renders_remaining_as_predicates() {
        // Build a/b where output is a and b is a branch: prints a[b].
        let mut p = Pattern::single(NodeTest::label("a"));
        let root = p.root();
        p.add_child(root, Axis::Child, NodeTest::label("b"));
        assert_eq!(to_xpath(&p), "a[b]");
        // Output at root of deeper pattern.
        let p2 = PatternBuilder::root_label("a", |b| {
            b.child(Axis::Descendant, "c", |b| {
                b.leaf(Axis::Child, "d");
            });
        });
        // Single-child branches render path-style inside the predicate.
        assert_eq!(to_xpath(&p2), "a[.//c/d]");
    }

    #[test]
    fn multi_child_branch_uses_nested_predicates() {
        let p = parse_xpath("a[b[c][.//d]]/e").expect("parse");
        let printed = to_xpath(&p);
        let p2 = parse_xpath(&printed).expect("reparse");
        assert!(p.structurally_eq(&p2));
        assert_eq!(printed, "a[b[c][.//d]]/e");
    }
}
