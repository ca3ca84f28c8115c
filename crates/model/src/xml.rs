//! A minimal XML subset parser and serializer.
//!
//! The paper's data model is element-only trees, so this module supports
//! exactly that: nested elements `<a>...</a>` and self-closing elements
//! `<a/>`. Attributes, text content, comments, processing instructions and
//! namespaces are rejected with a descriptive error — the rewriting theory
//! never inspects them, and accepting-and-dropping content would silently
//! change query answers. (This is the documented substitution for a
//! third-party XML crate; see DESIGN.md §1.)

use std::fmt;

use crate::label::Label;
use crate::tree::{NodeId, Tree};

/// An error raised while parsing the XML subset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XmlError {
    /// Byte offset of the error in the input.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for XmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "XML parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for XmlError {}

struct Parser<'a> {
    input: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err<T>(&self, message: impl Into<String>) -> Result<T, XmlError> {
        Err(XmlError { offset: self.pos, message: message.into() })
    }

    fn rest(&self) -> &'a str {
        &self.input[self.pos..]
    }

    fn skip_ws(&mut self) {
        let trimmed = self.rest().trim_start();
        self.pos = self.input.len() - trimmed.len();
    }

    fn eat(&mut self, prefix: &str) -> bool {
        if self.rest().starts_with(prefix) {
            self.pos += prefix.len();
            true
        } else {
            false
        }
    }

    fn parse_name(&mut self) -> Result<&'a str, XmlError> {
        let rest = self.rest();
        let end = rest
            .char_indices()
            .find(|(_, c)| c.is_whitespace() || matches!(c, '>' | '/' | '<'))
            .map(|(i, _)| i)
            .unwrap_or(rest.len());
        if end == 0 {
            return self.err("expected element name");
        }
        let name = &rest[..end];
        if !Label::is_valid_name(name) {
            return self.err(format!("invalid element name {name:?}"));
        }
        self.pos += end;
        Ok(name)
    }
}

/// Parses the element-only XML subset into a [`Tree`]. Iterative: the open
/// elements sit on an explicit stack, so nesting depth (peer-supplied, on
/// the wire path) costs heap, not call stack.
pub fn parse_xml(input: &str) -> Result<Tree, XmlError> {
    let mut p = Parser { input, pos: 0 };
    p.skip_ws();
    let mut tree: Option<Tree> = None;
    let mut open: Vec<(NodeId, &str)> = Vec::new();
    'element: loop {
        if !p.eat("<") {
            return p.err("expected '<'");
        }
        let name = p.parse_name()?;
        p.skip_ws();
        let label = Label::new(name);
        let id = match (&mut tree, open.last()) {
            (Some(t), Some(&(parent, _))) => t.add_child(parent, label),
            _ => tree.insert(Tree::new(label)).root(),
        };
        if !p.eat("/>") {
            if !p.eat(">") {
                return p.err("expected '>' or '/>' (attributes are not supported)");
            }
            open.push((id, name));
        }
        // Close what ends here, up to the next child or the document's end.
        while let Some(&(_, name)) = open.last() {
            p.skip_ws();
            if p.eat("</") {
                let close = p.parse_name()?;
                if close != name {
                    return p.err(format!(
                        "mismatched close tag: expected </{name}>, found </{close}>"
                    ));
                }
                p.skip_ws();
                if !p.eat(">") {
                    return p.err("expected '>' after close tag name");
                }
                open.pop();
            } else if p.rest().starts_with('<') {
                continue 'element;
            } else if p.rest().is_empty() {
                return p.err(format!("unexpected end of input inside <{name}>"));
            } else {
                return p.err("text content is not supported by the element-only XML subset");
            }
        }
        break;
    }
    p.skip_ws();
    if !p.rest().is_empty() {
        return p.err("trailing content after document element");
    }
    Ok(tree.expect("the loop parsed the document element"))
}

/// Serializes a [`Tree`] to the element-only XML subset (no whitespace).
/// Iterative, like [`parse_xml`]: a stack entry is a node still to open, or
/// (flagged) an open one still to close.
pub fn to_xml(t: &Tree) -> String {
    let mut out = String::new();
    let mut stack = vec![(t.root(), false)];
    while let Some((n, close)) = stack.pop() {
        let name = t.label(n).name();
        if close {
            out.extend(["</", name, ">"]);
        } else if t.is_leaf(n) {
            out.extend(["<", name, "/>"]);
        } else {
            out.extend(["<", name, ">"]);
            stack.push((n, true));
            stack.extend(t.children(n).iter().rev().map(|&c| (c, false)));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::TreeBuilder;

    #[test]
    fn roundtrip_simple() {
        let t = TreeBuilder::root("a", |b| {
            b.leaf("b");
            b.child("c", |b| {
                b.leaf("d");
            });
        });
        let xml = to_xml(&t);
        assert_eq!(xml, "<a><b/><c><d/></c></a>");
        let t2 = parse_xml(&xml).expect("roundtrip parse");
        assert!(t.structurally_eq(&t2));
    }

    #[test]
    fn parses_whitespace_between_elements() {
        let t = parse_xml("  <a>\n  <b/>\n  <c></c>\n</a>\n").expect("parse");
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn self_closing_root() {
        let t = parse_xml("<solo/>").expect("parse");
        assert_eq!(t.len(), 1);
        assert_eq!(t.label(t.root()).name(), "solo");
    }

    #[test]
    fn rejects_mismatched_close() {
        let e = parse_xml("<a><b></a></a>").unwrap_err();
        assert!(e.message.contains("mismatched"), "{e}");
    }

    #[test]
    fn rejects_text_content() {
        let e = parse_xml("<a>hello</a>").unwrap_err();
        assert!(e.message.contains("text content"), "{e}");
    }

    #[test]
    fn rejects_attributes() {
        let e = parse_xml("<a x=\"1\"/>").unwrap_err();
        assert!(e.message.contains("attributes"), "{e}");
    }

    #[test]
    fn rejects_trailing_garbage() {
        let e = parse_xml("<a/><b/>").unwrap_err();
        assert!(e.message.contains("trailing"), "{e}");
    }

    #[test]
    fn rejects_unclosed() {
        assert!(parse_xml("<a><b/>").is_err());
        assert!(parse_xml("<a").is_err());
        assert!(parse_xml("").is_err());
    }

    #[test]
    fn unicode_labels_roundtrip() {
        let t = parse_xml("<caf\u{e9}><\u{3b1}\u{3b2}/></caf\u{e9}>").expect("unicode parse");
        assert_eq!(t.len(), 2);
        let xml = to_xml(&t);
        assert!(parse_xml(&xml).expect("reparse").structurally_eq(&t));
    }

    #[test]
    fn wide_fanout_roundtrip() {
        let mut xml = String::from("<root>");
        for _ in 0..500 {
            xml.push_str("<kid/>");
        }
        xml.push_str("</root>");
        let t = parse_xml(&xml).expect("wide parse");
        assert_eq!(t.len(), 501);
        assert_eq!(t.children(t.root()).len(), 500);
        assert_eq!(to_xml(&t), xml);
    }

    #[test]
    fn rejects_reserved_chars_in_names() {
        assert!(parse_xml("<a*b/>").is_err());
        assert!(parse_xml("<a[b]/>").is_err());
        assert!(parse_xml("<>").is_err());
    }

    #[test]
    fn deep_nesting_roundtrip() {
        let mut xml = String::new();
        for _ in 0..200 {
            xml.push_str("<d>");
        }
        xml.push_str("<leaf/>");
        for _ in 0..200 {
            xml.push_str("</d>");
        }
        let t = parse_xml(&xml).expect("deep parse");
        assert_eq!(t.len(), 201);
        assert_eq!(t.height(), 200);
        assert_eq!(to_xml(&t), xml);
    }
}
