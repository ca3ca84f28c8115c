//! Parser for the XPath fragment `XP{//,[],*}`.
//!
//! The grammar is the paper's `q ::= q/q | q//q | q[q] | l | *`, concretely:
//!
//! ```text
//! pattern  := step (sep step)*
//! sep      := "//" | "/"
//! step     := nodetest pred*
//! nodetest := "*" | NAME
//! pred     := "[" ("." sep)? pattern "]"
//! ```
//!
//! The output node is the last step of the main path. Predicates attach to
//! their step with a **child** edge by default; the XPath-style prefixes
//! `./` (child, explicit) and `.//` (descendant) select the attachment axis.
//! Absolute paths (leading `/` or `//`) are rejected with a hint: in the
//! paper's semantics the pattern root *is* the document root, so `//a` should
//! be written `*//a` (a wildcard root) instead.
//!
//! The main path may be as long as the text (it is parsed by a loop, and
//! consumers walk a spine by a loop). Predicates may not reach more than
//! [`MAX_BRANCH_DEPTH`] levels below it — nested, or as steps of a
//! predicate's own path: this parser and every consumer of a pattern
//! (witness sets, fingerprints, the printer, the interner) recurse once per
//! branch level, and pattern text arrives from the wire.
//!
//! There is no third-party XPath crate involved (see DESIGN.md §1).

use std::fmt;

use crate::pattern::{Axis, NodeTest, PatId, Pattern};
use xpv_model::Label;

/// An error raised while parsing a pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the error in the input.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "XPath parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

/// The deepest a predicate may reach below the main path, in pattern edges.
pub const MAX_BRANCH_DEPTH: usize = 64;

struct Parser<'a> {
    input: &'a str,
    pos: usize,
}

const NAME_STOP: &[char] = &['/', '[', ']', '*', '.', '<', '>', '"', '(', ')'];

impl<'a> Parser<'a> {
    fn err<T>(&self, message: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError { offset: self.pos, message: message.into() })
    }

    fn rest(&self) -> &'a str {
        &self.input[self.pos..]
    }

    fn skip_ws(&mut self) {
        let trimmed = self.rest().trim_start();
        self.pos = self.input.len() - trimmed.len();
    }

    fn eat(&mut self, tok: &str) -> bool {
        if self.rest().starts_with(tok) {
            self.pos += tok.len();
            true
        } else {
            false
        }
    }

    fn peek(&self, tok: &str) -> bool {
        self.rest().starts_with(tok)
    }

    /// Parses a separator if present. `//` must be tried before `/`.
    fn parse_sep(&mut self) -> Option<Axis> {
        if self.eat("//") {
            Some(Axis::Descendant)
        } else if self.eat("/") {
            Some(Axis::Child)
        } else {
            None
        }
    }

    fn parse_nodetest(&mut self) -> Result<NodeTest, ParseError> {
        self.skip_ws();
        if self.eat("*") {
            return Ok(NodeTest::Wildcard);
        }
        let rest = self.rest();
        let end = rest
            .char_indices()
            .find(|(_, c)| c.is_whitespace() || NAME_STOP.contains(c))
            .map(|(i, _)| i)
            .unwrap_or(rest.len());
        if end == 0 {
            return self.err("expected a node test (label or '*')");
        }
        let name = &rest[..end];
        let Some(label) = Label::try_new(name) else {
            return self.err(format!("invalid label {name:?}"));
        };
        if label.is_bottom() {
            return self.err("the reserved label ⊥ cannot appear in patterns");
        }
        self.pos += end;
        Ok(NodeTest::Label(label))
    }

    /// Parses `pattern` (a step sequence), attaching its first step to
    /// `parent` via `axis` (or making it the root when `parent` is `None`).
    /// `level` is how far below the main path the first step sits (`0`: it
    /// is the main path). Returns the id of the **last** step of the path.
    fn parse_path(
        &mut self,
        pat: &mut Option<Pattern>,
        parent: Option<PatId>,
        axis: Axis,
        mut level: usize,
    ) -> Result<PatId, ParseError> {
        let mut cur = self.parse_step(pat, parent, axis, level)?;
        loop {
            self.skip_ws();
            if self.peek("]") || self.rest().is_empty() {
                return Ok(cur);
            }
            let Some(next_axis) = self.parse_sep() else {
                return self.err("expected '/', '//', '[' or end of pattern");
            };
            level += usize::from(level > 0);
            cur = self.parse_step(pat, Some(cur), next_axis, level)?;
        }
    }

    /// Parses `step` (node test plus predicates), attaching it under
    /// `parent` via `axis`, `level` edges below the main path.
    fn parse_step(
        &mut self,
        pat: &mut Option<Pattern>,
        parent: Option<PatId>,
        axis: Axis,
        level: usize,
    ) -> Result<PatId, ParseError> {
        if level > MAX_BRANCH_DEPTH {
            return self.err(format!(
                "a predicate reaches more than {MAX_BRANCH_DEPTH} levels below the main path"
            ));
        }
        let test = self.parse_nodetest()?;
        let id = match (pat.as_mut(), parent) {
            (None, None) => {
                *pat = Some(Pattern::single(test));
                pat.as_ref().expect("just set").root()
            }
            (Some(p), Some(par)) => p.add_child(par, axis, test),
            _ => unreachable!("root/child bookkeeping"),
        };
        loop {
            self.skip_ws();
            if !self.eat("[") {
                return Ok(id);
            }
            self.skip_ws();
            let pred_axis = if self.eat(".") {
                match self.parse_sep() {
                    Some(a) => a,
                    None => return self.err("expected '/' or '//' after '.' in predicate"),
                }
            } else {
                Axis::Child
            };
            self.parse_path(pat, Some(id), pred_axis, level + 1)?;
            self.skip_ws();
            if !self.eat("]") {
                return self.err("expected ']' to close predicate");
            }
        }
    }
}

/// Parses a pattern from the fragment's XPath syntax.
pub fn parse_xpath(input: &str) -> Result<Pattern, ParseError> {
    let mut p = Parser { input, pos: 0 };
    p.skip_ws();
    if p.peek("/") {
        return p.err(
            "absolute paths are not part of the pattern model; the pattern root is the \
             document root — write '*//a' instead of '//a' and 'a' instead of '/a'",
        );
    }
    let mut pat = None;
    let out = p.parse_path(&mut pat, None, Axis::Child, 0)?;
    p.skip_ws();
    if !p.rest().is_empty() {
        return p.err("trailing content after pattern");
    }
    let mut pat = pat.expect("parse_path sets the pattern on success");
    pat.set_output(out);
    Ok(pat)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_label() {
        let p = parse_xpath("a").expect("parse");
        assert_eq!(p.len(), 1);
        assert_eq!(p.depth(), 0);
        assert_eq!(p.test(p.root()), NodeTest::label("a"));
        assert_eq!(p.output(), p.root());
    }

    #[test]
    fn single_wildcard() {
        let p = parse_xpath("*").expect("parse");
        assert!(p.test(p.root()).is_wildcard());
    }

    #[test]
    fn child_and_descendant_separators() {
        let p = parse_xpath("a/b//c").expect("parse");
        assert_eq!(p.depth(), 2);
        assert_eq!(p.selection_axes(), vec![Axis::Child, Axis::Descendant]);
    }

    #[test]
    fn predicates_attach_with_child_axis_by_default() {
        let p = parse_xpath("a[b][c]/d").expect("parse");
        assert_eq!(p.depth(), 1);
        let kids = p.children(p.root());
        assert_eq!(kids.len(), 3);
        assert!(kids.iter().all(|&c| {
            // b and c branches: child axis; d selection child: child axis.
            p.axis(c) == Axis::Child
        }));
    }

    #[test]
    fn dot_slashslash_predicate_is_descendant() {
        let p = parse_xpath("a[.//b]/c").expect("parse");
        let kids = p.children(p.root());
        let b = kids.iter().copied().find(|&c| p.test(c) == NodeTest::label("b")).expect("b child");
        assert_eq!(p.axis(b), Axis::Descendant);
        let p2 = parse_xpath("a[./b]/c").expect("parse");
        let b2 = p2.children(p2.root())[0];
        assert_eq!(p2.axis(b2), Axis::Child);
    }

    #[test]
    fn nested_predicates() {
        let p = parse_xpath("a[b[c]/d]//e").expect("parse");
        assert_eq!(p.len(), 5);
        assert_eq!(p.depth(), 1);
        // b has two children: c (branch) and d (path continuation).
        let b = p.children(p.root())[0];
        assert_eq!(p.children(b).len(), 2);
    }

    #[test]
    fn predicate_paths_do_not_move_output() {
        let p = parse_xpath("a[b/c/d]").expect("parse");
        assert_eq!(p.depth(), 0);
        assert_eq!(p.output(), p.root());
    }

    #[test]
    fn whitespace_tolerated() {
        let p = parse_xpath("  a [ b ] // c ").expect("parse");
        assert_eq!(p.depth(), 1);
        assert_eq!(p.len(), 3);
    }

    #[test]
    fn rejects_absolute_paths() {
        let e = parse_xpath("/a/b").unwrap_err();
        assert!(e.message.contains("absolute"), "{e}");
        let e = parse_xpath("//a").unwrap_err();
        assert!(e.message.contains("absolute"), "{e}");
    }

    #[test]
    fn rejects_malformed() {
        assert!(parse_xpath("").is_err());
        assert!(parse_xpath("a[").is_err());
        assert!(parse_xpath("a[b").is_err());
        assert!(parse_xpath("a]").is_err());
        assert!(parse_xpath("a/").is_err());
        assert!(parse_xpath("a//").is_err());
        assert!(parse_xpath("a b").is_err());
        assert!(parse_xpath("[b]").is_err());
    }

    #[test]
    fn rejects_bottom_label() {
        let e = parse_xpath(xpv_model::BOTTOM_NAME).unwrap_err();
        assert!(e.message.contains("⊥"), "{e}");
    }

    #[test]
    fn deeply_nested_predicates_parse() {
        let mut s = String::from("a");
        for _ in 0..30 {
            s.push_str("[b");
        }
        for _ in 0..30 {
            s.push(']');
        }
        let p = parse_xpath(&s).expect("nested predicates parse");
        assert_eq!(p.len(), 31);
        assert_eq!(p.depth(), 0);
        // Round-trips through the printer.
        let printed = crate::print::to_xpath(&p);
        assert!(parse_xpath(&printed).expect("reparse").structurally_eq(&p));
    }

    /// `a[b[b[…]]]` with `nest` predicates inside one another.
    fn nested(nest: usize) -> String {
        format!("a{}{}", "[b".repeat(nest), "]".repeat(nest))
    }

    #[test]
    fn predicates_are_bounded_in_depth_not_in_number() {
        // Exactly at the bound: parses, prints and parses back.
        let p = parse_xpath(&nested(MAX_BRANCH_DEPTH)).expect("the bound itself is allowed");
        assert_eq!((p.len(), p.depth()), (MAX_BRANCH_DEPTH + 1, 0));
        let printed = crate::print::to_xpath(&p);
        assert!(parse_xpath(&printed).expect("reparse").structurally_eq(&p));
        // One deeper is an error that names the bound — by nesting, by the
        // steps of one predicate's path, or by a mix of the two.
        let steps = format!("a[{}]", vec!["b"; MAX_BRANCH_DEPTH + 1].join("/"));
        let mixed = format!("a[b/b[{}]]", vec!["b"; MAX_BRANCH_DEPTH - 1].join("//"));
        for text in [nested(MAX_BRANCH_DEPTH + 1), steps, mixed] {
            let e = parse_xpath(&text).unwrap_err();
            assert!(e.message.contains(&MAX_BRANCH_DEPTH.to_string()), "{e}");
        }
        // The bomb (300 KB, 100 000 levels) stops at the bound: on the
        // default 2 MiB test stack this used to abort the process.
        let e = parse_xpath(&nested(100_000)).unwrap_err();
        assert_eq!(e.offset, 1 + 2 * MAX_BRANCH_DEPTH + 1, "{e}");
        // Width is free: many predicates on one step, and on a deep one.
        let wide = format!("a{}/c{}", "[b]".repeat(10_000), "[d/e]".repeat(10_000));
        assert_eq!(parse_xpath(&wide).expect("wide").len(), 2 + 10_000 + 20_000);
    }

    #[test]
    fn long_spines_parse() {
        // The main path is unbounded: 200 000 steps, with a predicate (whose
        // depth counts from its own step) at the far end.
        let s = format!("r{}[y[z]]", "/x".repeat(200_000));
        let p = parse_xpath(&s).expect("long spine parses");
        assert_eq!(p.depth(), 200_000);
        assert_eq!(p.selection_axes().len(), 200_000);
        assert_eq!(p.len(), 200_003);
    }

    #[test]
    fn fig4_style_patterns() {
        let v = parse_xpath("a/*//*/*").expect("parse");
        assert_eq!(v.depth(), 3);
        assert_eq!(v.selection_axes(), vec![Axis::Child, Axis::Descendant, Axis::Child]);
        let p2 = parse_xpath("a/*//*/*/c//e").expect("parse");
        assert_eq!(p2.depth(), 5);
        assert_eq!(p2.selection_axes().last(), Some(&Axis::Descendant));
    }
}
