//! Conversions between RDF terms and SQL values, fixed by the mapping.
//!
//! These conversions define the *canonical RDF view* of the database: the
//! same functions are used by the translator (term → value on the way
//! in) and by [`mod@crate::materialize`] (value → term on the way out), so
//! the two directions compose to the identity on the supported types —
//! the bijectivity that, per the paper's §2 discussion of view updates,
//! sidesteps the hardest parts of the view update problem.

use crate::error::OntoError;
use rdf::{Literal, LiteralKind, LiteralKindRef, Term, TermRef};
use rel::{SqlType, Value};
use std::borrow::Cow;
use std::fmt::Write;

/// Convert an RDF literal to a SQL value for a column of type `ty`.
///
/// Plain literals are accepted for every type when their lexical form
/// parses (the paper's Listing 15 writes `ont:pubYear "2009"` into an
/// INTEGER column); typed literals must be of a compatible datatype.
pub fn literal_to_value(lit: &Literal, ty: SqlType) -> Result<Value, String> {
    literal_value_with(lit, ty, |s| Value::text(s))
}

/// [`literal_to_value`] for a value a query compares against: text the
/// dictionary lacks becomes NULL instead of being interned (see
/// [`lookup_text`]).
pub(crate) fn literal_to_probe(lit: &Literal, ty: SqlType) -> Result<Value, String> {
    literal_value_with(lit, ty, lookup_text)
}

/// The value a read compares a string against: its symbol if the
/// dictionary has one, else NULL. A string that was never interned
/// equals no stored text, and `column = NULL` holds for no row, so the
/// read answers the same without growing the dictionary.
pub(crate) fn lookup_text(s: &str) -> Value {
    rel::Sym::lookup(s).map_or(Value::Null, Value::Text)
}

// `text` makes the value of a VARCHAR: interning for what is stored,
// a lookup for what is only compared.
fn literal_value_with(
    lit: &Literal,
    ty: SqlType,
    text: fn(&str) -> Value,
) -> Result<Value, String> {
    match ty {
        SqlType::Integer => lit
            .as_int()
            .map(Value::Int)
            .ok_or_else(|| format!("{lit} is not an integer")),
        SqlType::Double => lit
            .as_double()
            .map(Value::Double)
            .ok_or_else(|| format!("{lit} is not a number")),
        SqlType::Boolean => match lit.as_bool() {
            Some(b) => Ok(Value::Bool(b)),
            None => match lit.lexical() {
                "true" if plainish(lit) => Ok(Value::Bool(true)),
                "false" if plainish(lit) => Ok(Value::Bool(false)),
                _ => Err(format!("{lit} is not a boolean")),
            },
        },
        SqlType::Varchar => {
            if lit.is_stringy() {
                Ok(text(lit.lexical()))
            } else {
                Err(format!("{lit} is not a string"))
            }
        }
    }
}

fn plainish(lit: &Literal) -> bool {
    matches!(lit.kind(), LiteralKind::Plain)
}

const XSD_INTEGER: &str = "http://www.w3.org/2001/XMLSchema#integer";
const XSD_BOOLEAN: &str = "http://www.w3.org/2001/XMLSchema#boolean";
const XSD_DOUBLE: &str = "http://www.w3.org/2001/XMLSchema#double";

/// The canonical RDF literal of a SQL value, borrowed: text is a plain
/// literal over its interned string; integers, booleans and doubles
/// format their lexical form into `scratch` (cleared first) and carry
/// a static `xsd:` datatype. Query results, owned solutions and the
/// materialized view all read literals through this one mapping.
///
/// NULL has no triple (the attribute is simply absent from the RDF
/// view), so this returns `None` for NULL.
pub fn value_literal<'s>(value: &Value, scratch: &'s mut String) -> Option<TermRef<'s>> {
    let datatype = match value {
        Value::Null => return None,
        Value::Text(s) => {
            return Some(TermRef::Literal {
                lexical: s.as_str(),
                kind: LiteralKindRef::Plain,
            })
        }
        Value::Int(_) => XSD_INTEGER,
        Value::Bool(_) => XSD_BOOLEAN,
        Value::Double(_) => XSD_DOUBLE,
    };
    scratch.clear();
    push_lexical(value, scratch);
    Some(TermRef::Literal {
        lexical: scratch,
        kind: LiteralKindRef::Datatype(datatype),
    })
}

/// Convert a SQL value to its canonical RDF literal, owned: the literal
/// [`value_literal`] views. `None` for NULL.
pub fn value_to_literal(value: &Value) -> Option<Literal> {
    if let Value::Text(s) = value {
        // Borrow the interned copy out of the dictionary — result
        // materialization decodes without cloning string bytes.
        return Some(Literal::plain_shared(s.as_str()));
    }
    match value_literal(value, &mut String::new())?.to_owned() {
        Term::Literal(lit) => Some(lit),
        _ => unreachable!("a value's view is a literal"),
    }
}

/// Convert a SQL value to an RDF term (literal form).
pub fn value_to_term(value: &Value) -> Option<Term> {
    value_to_literal(value).map(Term::Literal)
}

// Append the lexical form of a value: the text itself, `6`, `true`,
// `1.5` — what a literal carries and what a URI pattern substitutes.
// NULL appends nothing.
pub(crate) fn push_lexical(value: &Value, out: &mut String) {
    match value {
        Value::Null => {}
        Value::Text(s) => out.push_str(s.as_str()),
        Value::Int(i) => {
            let _ = write!(out, "{i}");
        }
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Double(d) => {
            let _ = write!(out, "{d:?}");
        }
    }
}

/// Parse a URI-pattern-extracted string (always textual) into the value
/// of a typed key column. Used when Algorithm 1 extracts `"1"` from
/// `…/author1` for the INTEGER attribute `id`.
pub fn pattern_value(raw: &str, ty: SqlType) -> Result<Value, String> {
    pattern_value_with(raw, ty, |s| Value::text(s))
}

/// [`pattern_value`] for a value a query compares against (see
/// [`lookup_text`]).
pub(crate) fn pattern_probe(raw: &str, ty: SqlType) -> Result<Value, String> {
    pattern_value_with(raw, ty, lookup_text)
}

fn pattern_value_with(raw: &str, ty: SqlType, text: fn(&str) -> Value) -> Result<Value, String> {
    match ty {
        SqlType::Integer => raw
            .parse::<i64>()
            .map(Value::Int)
            .map_err(|_| format!("{raw:?} is not an integer key")),
        SqlType::Varchar => Ok(text(raw)),
        SqlType::Boolean => match raw {
            "true" | "1" => Ok(Value::Bool(true)),
            "false" | "0" => Ok(Value::Bool(false)),
            _ => Err(format!("{raw:?} is not a boolean key")),
        },
        SqlType::Double => raw
            .parse::<f64>()
            .map(Value::Double)
            .map_err(|_| format!("{raw:?} is not a numeric key")),
    }
}

/// Render a value for URI pattern substitution (inverse of
/// [`pattern_value`] on the lexical level). Text values borrow out of
/// the dictionary; other values format as their literal's lexical form.
pub fn value_to_pattern(value: &Value) -> Option<Cow<'static, str>> {
    match value {
        Value::Null => None,
        Value::Text(s) => Some(Cow::Borrowed(s.as_str())),
        other => {
            let mut out = String::new();
            push_lexical(other, &mut out);
            Some(Cow::Owned(out))
        }
    }
}

/// "Does the stored value equal the literal in the request?" — the
/// comparison DELETE DATA uses to verify the triple it removes actually
/// exists (value semantics: plain `"5"` matches stored integer 5).
pub fn literal_matches_value(lit: &Literal, value: &Value) -> bool {
    match value {
        Value::Null => false,
        Value::Int(i) => lit.as_int() == Some(*i),
        Value::Text(s) => lit.is_stringy() && lit.lexical() == s.as_str(),
        Value::Bool(b) => {
            lit.as_bool() == Some(*b)
                || (plainish(lit) && lit.lexical() == if *b { "true" } else { "false" })
        }
        Value::Double(d) => lit.as_double() == Some(*d),
    }
}

/// Helper composing [`literal_to_value`] with an [`OntoError`] payload.
pub fn object_literal_to_value(
    object: &Term,
    table: &str,
    attribute: &str,
    ty: SqlType,
) -> Result<Value, OntoError> {
    let lit = object
        .as_literal()
        .ok_or_else(|| OntoError::ValueIncompatible {
            table: table.to_owned(),
            attribute: attribute.to_owned(),
            value: object.clone(),
            reason: "a data property requires a literal object".into(),
        })?;
    literal_to_value(lit, ty).map_err(|reason| OntoError::ValueIncompatible {
        table: table.to_owned(),
        attribute: attribute.to_owned(),
        value: object.clone(),
        reason,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_literal_into_integer_column() {
        // Listing 15: ont:pubYear "2009" lands in INTEGER year.
        assert_eq!(
            literal_to_value(&Literal::plain("2009"), SqlType::Integer),
            Ok(Value::Int(2009))
        );
        assert!(literal_to_value(&Literal::plain("soon"), SqlType::Integer).is_err());
    }

    #[test]
    fn typed_literal_conversions() {
        assert_eq!(
            literal_to_value(&Literal::integer(5), SqlType::Integer),
            Ok(Value::Int(5))
        );
        assert_eq!(
            literal_to_value(&Literal::boolean(true), SqlType::Boolean),
            Ok(Value::Bool(true))
        );
        assert_eq!(
            literal_to_value(&Literal::string("Mr"), SqlType::Varchar),
            Ok(Value::text("Mr"))
        );
        // Integer literal does not silently become a string.
        assert!(literal_to_value(&Literal::integer(5), SqlType::Varchar).is_err());
    }

    #[test]
    fn round_trip_value_literal_value() {
        for v in [
            Value::Int(42),
            Value::text("Hert"),
            Value::Bool(false),
            Value::Double(1.5),
        ] {
            let lit = value_to_literal(&v).unwrap();
            let ty = v.sql_type().unwrap();
            assert_eq!(literal_to_value(&lit, ty), Ok(v));
        }
    }

    #[test]
    fn literal_view_is_the_canonical_literal() {
        for (v, expected) in [
            (Value::Int(-42), Literal::integer(-42)),
            (Value::text("Hert"), Literal::plain("Hert")),
            (Value::Bool(true), Literal::boolean(true)),
            (Value::Double(1e21), Literal::double(1e21)),
        ] {
            let mut scratch = String::from("stale");
            let view = value_literal(&v, &mut scratch).unwrap();
            assert_eq!(view, Term::Literal(expected.clone()).as_ref());
            assert_eq!(value_to_literal(&v), Some(expected));
        }
    }

    #[test]
    fn text_literals_borrow_the_interned_string() {
        let v = Value::text("Hert");
        let Value::Text(s) = &v else { unreachable!() };
        let lit = value_to_literal(&v).unwrap();
        assert_eq!(lit.lexical().as_ptr(), s.as_str().as_ptr());
    }

    #[test]
    fn null_has_no_literal() {
        assert_eq!(value_to_literal(&Value::Null), None);
        assert_eq!(value_literal(&Value::Null, &mut String::new()), None);
    }

    #[test]
    fn pattern_value_round_trip() {
        let v = pattern_value("6", SqlType::Integer).unwrap();
        assert_eq!(v, Value::Int(6));
        assert_eq!(value_to_pattern(&v).as_deref(), Some("6"));
        assert!(pattern_value("abc", SqlType::Integer).is_err());
    }

    #[test]
    fn literal_matching_is_by_value() {
        assert!(literal_matches_value(&Literal::plain("5"), &Value::Int(5)));
        assert!(literal_matches_value(&Literal::integer(5), &Value::Int(5)));
        assert!(!literal_matches_value(&Literal::plain("5"), &Value::Int(6)));
        assert!(literal_matches_value(
            &Literal::plain("Hert"),
            &Value::text("Hert")
        ));
        assert!(!literal_matches_value(&Literal::plain("x"), &Value::Null));
    }

    #[test]
    fn object_literal_error_payload() {
        let err = object_literal_to_value(
            &Term::iri("http://example.org/x"),
            "author",
            "lastname",
            SqlType::Varchar,
        )
        .unwrap_err();
        assert!(matches!(err, OntoError::ValueIncompatible { .. }));
    }
}
