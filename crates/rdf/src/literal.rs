//! RDF literals: plain (optionally language-tagged) and typed.

use crate::iri::Iri;
use crate::namespace::{xsd, xsd_is_integer};
use std::borrow::Cow;
use std::fmt;

/// An RDF literal value.
///
/// The lexical form is stored verbatim; typed accessors ([`Literal::as_int`]
/// etc.) parse on demand. Equality is structural (same lexical form, same
/// datatype/language), matching RDF term equality as used by
/// `DELETE DATA` — the paper removes *known* triples, so `"5"` and `"05"`
/// are distinct terms even though they denote the same integer.
///
/// The lexical form is a `Cow<'static, str>` so literals materialized
/// out of dictionary-interned storage ([`Literal::plain_shared`],
/// [`Literal::string_shared`]) borrow the single interned copy instead
/// of cloning; parser-built literals own their form as before. `Cow`
/// compares and hashes by content, so equality semantics are unchanged.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Literal {
    lexical: Cow<'static, str>,
    kind: LiteralKind,
}

/// Datatype or language qualification of a literal.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LiteralKind {
    /// Plain literal without language tag: `"abc"`.
    Plain,
    /// Plain literal with language tag: `"abc"@en`.
    LanguageTagged(String),
    /// Typed literal: `"5"^^xsd:int`.
    Typed(Iri),
}

impl Literal {
    /// A plain literal (no language tag, no datatype).
    pub fn plain(lexical: impl Into<String>) -> Self {
        Literal {
            lexical: Cow::Owned(lexical.into()),
            kind: LiteralKind::Plain,
        }
    }

    /// A plain literal borrowing a `'static` lexical form — used when
    /// materializing results out of the string dictionary, where the
    /// interned copy outlives the process and cloning would be waste.
    pub fn plain_shared(lexical: &'static str) -> Self {
        Literal {
            lexical: Cow::Borrowed(lexical),
            kind: LiteralKind::Plain,
        }
    }

    /// An `xsd:string`-typed literal borrowing a `'static` lexical form
    /// (dictionary-backed counterpart of [`Literal::string`]).
    pub fn string_shared(lexical: &'static str) -> Self {
        Literal {
            lexical: Cow::Borrowed(lexical),
            kind: LiteralKind::Typed(xsd::string()),
        }
    }

    /// A language-tagged literal. Tags are normalized to lowercase per
    /// RDF concepts §6.
    pub fn lang(lexical: impl Into<String>, tag: impl Into<String>) -> Self {
        let mut tag = tag.into();
        tag.make_ascii_lowercase();
        Literal {
            lexical: Cow::Owned(lexical.into()),
            kind: LiteralKind::LanguageTagged(tag),
        }
    }

    /// A typed literal with an explicit datatype IRI.
    pub fn typed(lexical: impl Into<String>, datatype: Iri) -> Self {
        Literal {
            lexical: Cow::Owned(lexical.into()),
            kind: LiteralKind::Typed(datatype),
        }
    }

    /// An `xsd:integer`-typed literal.
    pub fn integer(value: i64) -> Self {
        Literal::typed(value.to_string(), xsd::integer())
    }

    /// An `xsd:int`-typed literal (the datatype Figure 2 uses).
    pub fn int(value: i32) -> Self {
        Literal::typed(value.to_string(), xsd::int())
    }

    /// An `xsd:boolean`-typed literal.
    pub fn boolean(value: bool) -> Self {
        Literal::typed(value.to_string(), xsd::boolean())
    }

    /// An `xsd:double`-typed literal, in the lexical form
    /// [`push_double`] writes.
    pub fn double(value: f64) -> Self {
        let mut lexical = String::new();
        push_double(value, &mut lexical);
        Literal::typed(lexical, xsd::double())
    }

    /// An `xsd:string`-typed literal.
    pub fn string(value: impl Into<String>) -> Self {
        Literal::typed(value, xsd::string())
    }

    /// The lexical form, verbatim.
    pub fn lexical(&self) -> &str {
        &self.lexical
    }

    /// The datatype/language qualification.
    pub fn kind(&self) -> &LiteralKind {
        &self.kind
    }

    /// The datatype IRI if this is a typed literal.
    pub fn datatype(&self) -> Option<&Iri> {
        match &self.kind {
            LiteralKind::Typed(dt) => Some(dt),
            _ => None,
        }
    }

    /// The language tag if present.
    pub fn language(&self) -> Option<&str> {
        match &self.kind {
            LiteralKind::LanguageTagged(tag) => Some(tag),
            _ => None,
        }
    }

    /// Whether this literal is plain or `xsd:string`-typed — both map to
    /// `VARCHAR` attributes in R3M.
    pub fn is_stringy(&self) -> bool {
        match &self.kind {
            LiteralKind::Plain | LiteralKind::LanguageTagged(_) => true,
            LiteralKind::Typed(dt) => dt == &xsd::string(),
        }
    }

    /// Parse the lexical form as a 64-bit integer if the datatype is one of
    /// the XSD integer types (or the literal is plain and numeric).
    pub fn as_int(&self) -> Option<i64> {
        match &self.kind {
            LiteralKind::Typed(dt) if xsd_is_integer(dt) => self.lexical.trim().parse().ok(),
            LiteralKind::Plain => self.lexical.trim().parse().ok(),
            _ => None,
        }
    }

    /// Parse the lexical form as a double if numeric.
    pub fn as_double(&self) -> Option<f64> {
        match &self.kind {
            LiteralKind::Typed(dt)
                if xsd_is_integer(dt)
                    || dt == &xsd::double()
                    || dt == &xsd::decimal()
                    || dt == &xsd::float() =>
            {
                self.lexical.trim().parse().ok()
            }
            LiteralKind::Plain => self.lexical.trim().parse().ok(),
            _ => None,
        }
    }

    /// Parse the lexical form as a boolean if `xsd:boolean`.
    pub fn as_bool(&self) -> Option<bool> {
        match &self.kind {
            LiteralKind::Typed(dt) if dt == &xsd::boolean() => match self.lexical.trim() {
                "true" | "1" => Some(true),
                "false" | "0" => Some(false),
                _ => None,
            },
            _ => None,
        }
    }

    /// "Value equality" used by SPARQL `FILTER (?x = ...)`: numeric
    /// literals compare by value, everything else by term equality.
    pub fn value_eq(&self, other: &Literal) -> bool {
        if let (Some(a), Some(b)) = (self.as_int(), other.as_int()) {
            return a == b;
        }
        if let (Some(a), Some(b)) = (self.as_double(), other.as_double()) {
            return a == b;
        }
        self == other
    }
}

/// Append the `xsd:double` lexical form of `value`: the shortest
/// rendering that reads back as the same double (`1.5`, `1e21`), and
/// `INF`, `-INF` and `NaN` for the non-finite values, which Rust alone
/// would write as `inf`, `-inf` and `NaN`.
pub fn push_double(value: f64, out: &mut String) {
    use std::fmt::Write;
    if value.is_infinite() {
        out.push_str(if value > 0.0 { "INF" } else { "-INF" });
    } else {
        let _ = write!(out, "{value:?}");
    }
}

/// Escape a string for output inside double quotes (Turtle/N-Triples/SQL
/// feedback messages share this).
pub fn escape_literal(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            _ => out.push(c),
        }
    }
    out
}

impl fmt::Display for Literal {
    /// N-Triples/Turtle-compatible rendering.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "\"{}\"", escape_literal(&self.lexical))?;
        match &self.kind {
            LiteralKind::Plain => Ok(()),
            LiteralKind::LanguageTagged(tag) => write!(f, "@{tag}"),
            LiteralKind::Typed(dt) => write!(f, "^^{dt}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_display() {
        assert_eq!(Literal::plain("Mr").to_string(), "\"Mr\"");
    }

    #[test]
    fn lang_display_and_normalization() {
        let lit = Literal::lang("Hallo", "DE");
        assert_eq!(lit.to_string(), "\"Hallo\"@de");
        assert_eq!(lit.language(), Some("de"));
    }

    #[test]
    fn typed_display() {
        let lit = Literal::integer(2009);
        assert_eq!(
            lit.to_string(),
            "\"2009\"^^<http://www.w3.org/2001/XMLSchema#integer>"
        );
    }

    #[test]
    fn escaping() {
        let lit = Literal::plain("a\"b\\c\nd");
        assert_eq!(lit.to_string(), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn as_int_typed() {
        assert_eq!(Literal::integer(42).as_int(), Some(42));
        assert_eq!(Literal::int(7).as_int(), Some(7));
    }

    #[test]
    fn as_int_plain() {
        // The paper's Listing 15 writes `ont:pubYear "2009"` as a plain
        // literal that must land in an INTEGER column.
        assert_eq!(Literal::plain("2009").as_int(), Some(2009));
        assert_eq!(Literal::plain("abc").as_int(), None);
    }

    #[test]
    fn as_bool() {
        assert_eq!(Literal::boolean(true).as_bool(), Some(true));
        assert_eq!(Literal::plain("true").as_bool(), None);
    }

    #[test]
    fn term_equality_is_structural() {
        assert_ne!(Literal::plain("5"), Literal::integer(5));
        assert_ne!(Literal::integer(5), Literal::typed("05", xsd::integer()));
    }

    #[test]
    fn value_equality_is_numeric() {
        assert!(Literal::integer(5).value_eq(&Literal::typed("05", xsd::integer())));
        assert!(Literal::plain("5").value_eq(&Literal::integer(5)));
        assert!(!Literal::plain("x").value_eq(&Literal::plain("y")));
    }

    #[test]
    fn stringy() {
        assert!(Literal::plain("a").is_stringy());
        assert!(Literal::string("a").is_stringy());
        assert!(!Literal::integer(1).is_stringy());
    }
}
