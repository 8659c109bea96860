//! RDF terms: IRIs, blank nodes, and literals.

use crate::iri::Iri;
use crate::literal::{Literal, LiteralKind};
use std::fmt;

/// A blank node, identified by a label local to one document/graph.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlankNode(String);

impl BlankNode {
    /// Create a blank node with the given label (without the `_:` prefix).
    pub fn new(label: impl Into<String>) -> Self {
        BlankNode(label.into())
    }

    /// The label without the `_:` prefix.
    pub fn label(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for BlankNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "_:{}", self.0)
    }
}

/// Any RDF term.
///
/// The `Ord` implementation orders IRIs < blank nodes < literals and then
/// lexicographically, giving graphs a deterministic iteration order (which
/// keeps translated SQL statement order stable across runs).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Term {
    /// An IRI term.
    Iri(Iri),
    /// A blank node.
    Blank(BlankNode),
    /// A literal value.
    Literal(Literal),
}

impl Term {
    /// Shorthand: IRI term parsed from a string. Panics on invalid input —
    /// intended for tests and fixtures; use `Iri::parse` for data paths.
    pub fn iri(s: &str) -> Term {
        Term::Iri(Iri::parse(s).expect("Term::iri called with invalid IRI"))
    }

    /// Shorthand: blank node term.
    pub fn blank(label: &str) -> Term {
        Term::Blank(BlankNode::new(label))
    }

    /// Shorthand: plain literal term.
    pub fn plain(s: &str) -> Term {
        Term::Literal(Literal::plain(s))
    }

    /// The IRI if this term is one.
    pub fn as_iri(&self) -> Option<&Iri> {
        match self {
            Term::Iri(iri) => Some(iri),
            _ => None,
        }
    }

    /// The literal if this term is one.
    pub fn as_literal(&self) -> Option<&Literal> {
        match self {
            Term::Literal(lit) => Some(lit),
            _ => None,
        }
    }

    /// The blank node if this term is one.
    pub fn as_blank(&self) -> Option<&BlankNode> {
        match self {
            Term::Blank(b) => Some(b),
            _ => None,
        }
    }

    /// Whether this term may appear in subject position (IRI or blank).
    pub fn is_subject_term(&self) -> bool {
        !matches!(self, Term::Literal(_))
    }

    /// Whether this term is a literal.
    pub fn is_literal(&self) -> bool {
        matches!(self, Term::Literal(_))
    }

    /// The borrowed view of this term.
    pub fn as_ref(&self) -> TermRef<'_> {
        match self {
            Term::Iri(iri) => TermRef::Iri(iri.as_str()),
            Term::Blank(b) => TermRef::Blank(b.label()),
            Term::Literal(lit) => TermRef::Literal {
                lexical: lit.lexical(),
                kind: match lit.kind() {
                    LiteralKind::Plain => LiteralKindRef::Plain,
                    LiteralKind::LanguageTagged(tag) => LiteralKindRef::Language(tag),
                    LiteralKind::Typed(dt) => LiteralKindRef::Datatype(dt.as_str()),
                },
            },
        }
    }
}

/// A borrowed RDF term: what serializers consume, so a term can be
/// written out of whatever holds its text — an owned [`Term`], an
/// interned string, a scratch buffer — without being built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TermRef<'a> {
    /// An IRI; the string passes [`Iri::check`].
    Iri(&'a str),
    /// A blank node label (without `_:`).
    Blank(&'a str),
    /// A literal.
    Literal {
        /// The lexical form, verbatim.
        lexical: &'a str,
        /// Plain, language-tagged or typed.
        kind: LiteralKindRef<'a>,
    },
}

/// The borrowed counterpart of [`LiteralKind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LiteralKindRef<'a> {
    /// No language tag, no datatype.
    Plain,
    /// A (lower-case) language tag.
    Language(&'a str),
    /// A datatype IRI that passes [`Iri::check`].
    Datatype(&'a str),
}

impl TermRef<'_> {
    /// The owned term.
    pub fn to_owned(&self) -> Term {
        match *self {
            TermRef::Iri(iri) => Term::Iri(Iri::new_unchecked(iri)),
            TermRef::Blank(label) => Term::Blank(BlankNode::new(label)),
            TermRef::Literal { lexical, kind } => Term::Literal(match kind {
                LiteralKindRef::Plain => Literal::plain(lexical),
                LiteralKindRef::Language(tag) => Literal::lang(lexical, tag),
                LiteralKindRef::Datatype(dt) => Literal::typed(lexical, Iri::new_unchecked(dt)),
            }),
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Iri(iri) => iri.fmt(f),
            Term::Blank(b) => b.fmt(f),
            Term::Literal(lit) => lit.fmt(f),
        }
    }
}

impl From<Iri> for Term {
    fn from(iri: Iri) -> Self {
        Term::Iri(iri)
    }
}

impl From<Literal> for Term {
    fn from(lit: Literal) -> Self {
        Term::Literal(lit)
    }
}

impl From<BlankNode> for Term {
    fn from(b: BlankNode) -> Self {
        Term::Blank(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert_eq!(Term::iri("http://x.org/a").to_string(), "<http://x.org/a>");
        assert_eq!(Term::blank("b0").to_string(), "_:b0");
        assert_eq!(Term::plain("hi").to_string(), "\"hi\"");
    }

    #[test]
    fn ordering_groups_kinds() {
        let iri = Term::iri("http://x.org/a");
        let blank = Term::blank("a");
        let lit = Term::plain("a");
        assert!(iri < blank);
        assert!(blank < lit);
    }

    #[test]
    fn accessors() {
        let t = Term::iri("http://x.org/a");
        assert!(t.as_iri().is_some());
        assert!(t.as_literal().is_none());
        assert!(t.is_subject_term());
        assert!(!Term::plain("x").is_subject_term());
    }

    #[test]
    fn borrowed_view_round_trips() {
        for term in [
            Term::iri("mailto:a@b.org"),
            Term::blank("b0"),
            Term::plain("say \"hi\""),
            Term::Literal(Literal::lang("café", "FR")),
            Term::Literal(Literal::integer(-7)),
        ] {
            assert_eq!(term.as_ref().to_owned(), term);
        }
        assert_eq!(
            Term::Literal(Literal::boolean(true)).as_ref(),
            TermRef::Literal {
                lexical: "true",
                kind: LiteralKindRef::Datatype("http://www.w3.org/2001/XMLSchema#boolean"),
            }
        );
    }

    #[test]
    fn conversions() {
        let iri = Iri::parse("http://x.org/a").unwrap();
        let t: Term = iri.clone().into();
        assert_eq!(t.as_iri(), Some(&iri));
        let t: Term = Literal::plain("v").into();
        assert!(t.is_literal());
    }
}
