//! The one conversion between the cells of a mapped column and the RDF
//! terms of the view, fixed by the mapping.
//!
//! A [`Codec`] is derived from the mapping and the schema for one
//! column: a data attribute's cells are literals; a key, foreign-key or
//! value-pattern attribute's cells are substituted into a URI pattern.
//! The query compiler (pattern constants and result cells), Algorithm 1
//! (subject keys, objects and DELETE DATA's existence check) and the
//! materialized view all convert through it, so each direction is
//! written once and the two compose to the identity on the supported
//! types — the bijectivity that, per the paper's §2 discussion of view
//! updates, sidesteps the hardest parts of the view update problem.
//!
//! An IRI decodes only from the rendering its cell encodes to:
//! `ex:author06` and `ex:author+6` are not `ex:author6`, because the
//! view never contains them.

use crate::error::{OntoError, OntoResult};
use r3m::{AttributeMap, Mapping, PropertyMapping, Segment, TableMap, UriPattern};
use rdf::{Iri, Literal, LiteralKind, LiteralKindRef, Term, TermRef};
use rel::{SqlType, Value};
use std::borrow::Cow;

/// What a decoded string becomes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Text {
    /// Interned: the value is stored.
    Intern,
    /// Looked up: the value is only compared. A string the dictionary
    /// lacks becomes NULL: it equals no stored text, and `column = NULL`
    /// holds for no row, so a read answers the same without growing the
    /// dictionary.
    Lookup,
}

impl Text {
    fn value(self, s: &str) -> Value {
        match self {
            Text::Intern => Value::text(s),
            Text::Lookup => rel::Sym::lookup(s).map_or(Value::Null, Value::Text),
        }
    }
}

/// How the cells of one mapped column and their RDF terms convert into
/// each other. Derived from the mapping, it borrows from it; a compiled
/// query keeps owned copies, one per result column.
#[derive(Debug, Clone)]
pub struct Codec<'m> {
    // Where the cells live, for errors.
    table: Cow<'m, str>,
    attribute: Cow<'m, str>,
    ty: SqlType,
    // `None`: the cells are literals.
    iri: Option<IriForm<'m>>,
}

// A cell substituted into a URI pattern: placeholder `slot` of
// `pattern`, under `prefix`.
#[derive(Debug, Clone)]
struct IriForm<'m> {
    pattern: Cow<'m, UriPattern>,
    prefix: Option<Cow<'m, str>>,
    slot: Cow<'m, str>,
    // Fixed by the three above when the codec is made: the constant
    // text of the IRI before and after the cell's, or why no IRI can be
    // generated.
    frame: Result<(String, String), String>,
    // Also fixed then: whether the constant parts of the IRI (the
    // prefix, unless the pattern is absolute, and the literal segments)
    // pass `Iri::check` on their own terms — every character allowed and
    // a `:` among them — so that an IRI is valid exactly when its
    // substituted text is allowed.
    constants_checked: bool,
}

impl<'m> IriForm<'m> {
    fn new(pattern: &'m UriPattern, prefix: Option<&'m str>, slot: &'m str) -> Self {
        let literals = pattern
            .segments()
            .iter()
            .filter_map(|segment| match segment {
                Segment::Literal(text) => Some(text.as_str()),
                Segment::Attribute(_) => None,
            });
        let mut constants = (!pattern.is_absolute())
            .then(|| prefix.unwrap_or(""))
            .into_iter()
            .chain(literals);
        let constants_checked =
            constants.clone().all(Iri::allows) && constants.any(|c| c.contains(':'));
        IriForm {
            pattern: Cow::Borrowed(pattern),
            prefix: prefix.map(Cow::Borrowed),
            slot: Cow::Borrowed(slot),
            frame: frame(pattern, prefix, slot),
            constants_checked,
        }
    }

    // The frame around the cell's text; the error is the pattern's.
    fn frame(&self) -> OntoResult<(&str, &str)> {
        match &self.frame {
            Ok((before, after)) => Ok((before, after)),
            Err(message) => Err(unsupported(message.clone())),
        }
    }

    // Whether the IRI of a non-NULL cell is valid without checking it
    // whole: the constants vouch for themselves and the cell's text is
    // allowed. Numbers and booleans render to digits, signs, `.`, `e`,
    // `INF`, `NaN`, `true` and `false`: always allowed.
    fn vouches_for(&self, value: &Value) -> bool {
        self.constants_checked
            && match value {
                Value::Text(s) => Iri::allows(s.as_str()),
                _ => true,
            }
    }
}

// The constant text of a pattern's IRIs before and after placeholder
// `slot`. Generation needs a value for every placeholder and the codec
// has one for `slot` only, so the first other placeholder fails it,
// with the error the pattern reports; so does a `slot` that does not
// occur exactly once, since a cell's text goes in one place.
fn frame(
    pattern: &UriPattern,
    prefix: Option<&str>,
    slot: &str,
) -> Result<(String, String), String> {
    let placeholders = pattern
        .segments()
        .iter()
        .filter_map(|segment| match segment {
            Segment::Attribute(name) => Some(name.as_str()),
            Segment::Literal(_) => None,
        });
    if let Some(other) = placeholders.clone().find(|&name| name != slot) {
        return Err(r3m::PatternError {
            message: format!("no value for pattern attribute {other:?}"),
        }
        .to_string());
    }
    if placeholders.count() != 1 {
        return Err(format!(
            "URI pattern {pattern} must hold placeholder {slot:?} exactly once"
        ));
    }
    let mut before = String::new();
    if !pattern.is_absolute() {
        before.push_str(prefix.unwrap_or(""));
    }
    let mut after = String::new();
    let mut side = &mut before;
    for segment in pattern.segments() {
        match segment {
            Segment::Literal(text) => side.push_str(text),
            Segment::Attribute(_) => side = &mut after,
        }
    }
    Ok((before, after))
}

fn unsupported(message: String) -> OntoError {
    OntoError::Unsupported { message }
}

fn column_type(table: &rel::Table, attribute: &str) -> OntoResult<SqlType> {
    table
        .column(attribute)
        .map(|column| column.ty)
        .ok_or_else(|| unsupported(format!("attribute {}.{attribute} missing", table.name)))
}

impl<'m> Codec<'m> {
    /// The cells of key attribute `slot` of `table_map`'s rows, written
    /// as the rows' instance IRIs. `table` is the table's schema.
    pub(crate) fn key(
        mapping: &'m Mapping,
        table_map: &'m TableMap,
        table: &rel::Table,
        slot: &'m str,
    ) -> OntoResult<Self> {
        Ok(Codec {
            table: Cow::Borrowed(&table_map.table_name),
            attribute: Cow::Borrowed(slot),
            ty: column_type(table, slot)?,
            iri: Some(IriForm::new(
                &table_map.uri_pattern,
                mapping.uri_prefix.as_deref(),
                slot,
            )),
        })
    }

    /// The cells of `attr`, an attribute of `table` (a table map's or a
    /// link table's): a data property's are literals, a value pattern's
    /// are derived IRIs (`mailto:%%email%%`), and a foreign key's are the
    /// referenced rows' instance IRIs.
    pub(crate) fn attribute(
        mapping: &'m Mapping,
        table: &'m rel::Table,
        attr: &'m AttributeMap,
    ) -> OntoResult<Self> {
        let name = attr.attribute_name.as_str();
        let iri = match (
            &attr.property,
            &attr.value_pattern,
            attr.foreign_key_target(),
        ) {
            (Some(PropertyMapping::Data(_)), _, _) => None,
            (_, Some(pattern), _) => Some(IriForm::new(pattern, None, name)),
            (_, None, Some(target)) => {
                let target = mapping.table_by_id(target).ok_or_else(|| {
                    unsupported(format!("foreign key references unknown map node {target}"))
                })?;
                let mut slots =
                    target
                        .uri_pattern
                        .segments()
                        .iter()
                        .filter_map(|segment| match segment {
                            Segment::Attribute(slot) => Some(slot.as_str()),
                            Segment::Literal(_) => None,
                        });
                let (Some(slot), None) = (slots.next(), slots.next()) else {
                    return Err(unsupported(format!(
                        "foreign key to composite-key table {:?} is not supported",
                        target.table_name
                    )));
                };
                Some(IriForm::new(
                    &target.uri_pattern,
                    mapping.uri_prefix.as_deref(),
                    slot,
                ))
            }
            (_, None, None) => {
                return Err(unsupported(format!(
                    "{}.{name} is neither a data property nor has a ForeignKey constraint or \
                     a value pattern",
                    table.name
                )))
            }
        };
        Ok(Codec {
            table: Cow::Borrowed(&table.name),
            attribute: Cow::Borrowed(name),
            ty: column_type(table, name)?,
            iri,
        })
    }

    /// The column's SQL type.
    pub(crate) fn ty(&self) -> SqlType {
        self.ty
    }

    /// This codec with everything it borrows copied.
    pub(crate) fn into_owned(self) -> Codec<'static> {
        fn own<T: ToOwned + ?Sized>(cow: Cow<'_, T>) -> Cow<'static, T> {
            Cow::Owned(cow.into_owned())
        }
        Codec {
            table: own(self.table),
            attribute: own(self.attribute),
            ty: self.ty,
            iri: self.iri.map(|iri| IriForm {
                pattern: own(iri.pattern),
                prefix: iri.prefix.map(own),
                slot: own(iri.slot),
                frame: iri.frame,
                constants_checked: iri.constants_checked,
            }),
        }
    }

    /// The RDF term of one cell, borrowed; `None` for NULL (the
    /// attribute has no triple). Text literals borrow their interned
    /// string; IRIs expand into `scratch` (cleared first) and must pass
    /// [`Iri::check`]; numbers and booleans format into `scratch` under
    /// a static `xsd:` datatype.
    ///
    /// An IRI's constant parts were checked when the codec was made, so
    /// only a text cell is checked here; the whole IRI is checked again
    /// only if that fails (or the constants could not vouch for it), so
    /// the error names the whole IRI.
    pub fn encode<'s>(
        &self,
        value: &Value,
        scratch: &'s mut String,
    ) -> OntoResult<Option<TermRef<'s>>> {
        let Some(iri) = &self.iri else {
            return Ok(literal(value, scratch));
        };
        if value.is_null() {
            return Ok(None);
        }
        let (before, after) = iri.frame()?;
        scratch.clear();
        scratch.push_str(before);
        push_lexical(value, scratch);
        scratch.push_str(after);
        if !iri.vouches_for(value) {
            Iri::check(scratch).map_err(|e| unsupported(e.to_string()))?;
        }
        Ok(Some(TermRef::Iri(scratch)))
    }

    /// The one part of a cell's term that depends on more than the
    /// codec and the cell's kind (its [`Value`] variant): its lexical
    /// text, which [`Codec::term_with`] puts back into the term. `None`
    /// for NULL. A text cell borrows its interned string; numbers and
    /// booleans format into `scratch` (cleared first). Fails as
    /// [`Codec::encode`] fails.
    pub fn cell_text<'s>(
        &self,
        value: &'s Value,
        scratch: &'s mut String,
    ) -> OntoResult<Option<&'s str>> {
        let text = match value {
            Value::Null => return Ok(None),
            Value::Text(s) => s.as_str(),
            other => {
                scratch.clear();
                push_lexical(other, scratch);
                scratch.as_str()
            }
        };
        if let Some(iri) = &self.iri {
            let (before, after) = iri.frame()?;
            if !iri.vouches_for(value) {
                Iri::check(&[before, text, after].concat())
                    .map_err(|e| unsupported(e.to_string()))?;
            }
        }
        Ok(Some(text))
    }

    /// The term [`Codec::encode`] renders for a cell of `like`'s kind
    /// whose lexical text is `text`; `None` if `like` is NULL. An IRI
    /// expands into `scratch` (cleared first) without a check: `text`
    /// is what [`Codec::cell_text`] returned, or text chosen by the
    /// caller.
    pub fn term_with<'s>(
        &self,
        like: &Value,
        text: &'s str,
        scratch: &'s mut String,
    ) -> Option<TermRef<'s>> {
        if like.is_null() {
            return None;
        }
        let Some(iri) = &self.iri else {
            return Some(TermRef::Literal {
                lexical: text,
                kind: literal_kind(like),
            });
        };
        let (before, after) = iri.frame.as_ref().ok()?;
        scratch.clear();
        scratch.push_str(before);
        scratch.push_str(text);
        scratch.push_str(after);
        Some(TermRef::Iri(scratch))
    }

    /// [`Codec::encode`], owned. A text literal borrows the interned
    /// string instead of copying it.
    pub(crate) fn term(&self, value: &Value) -> OntoResult<Option<Term>> {
        if let (None, Value::Text(s)) = (&self.iri, value) {
            return Ok(Some(Term::Literal(Literal::plain_shared(s.as_str()))));
        }
        Ok(self
            .encode(value, &mut String::new())?
            .map(|term| term.to_owned()))
    }

    /// The cell `term` denotes, the inverse of [`Codec::encode`]. A
    /// literal converts by value (plain `"2009"` fills an INTEGER
    /// column, Listing 15); an IRI must match the pattern and be the
    /// rendering of the cell it yields. `text` says whether a string is
    /// interned or only looked up.
    pub(crate) fn decode(&self, term: &Term, text: Text) -> OntoResult<Value> {
        let value = match (&self.iri, term) {
            (None, Term::Literal(lit)) => literal_value(lit, self.ty, text),
            (None, _) => Err("a data property requires a literal object".to_owned()),
            (Some(iri), Term::Iri(uri)) => iri
                .pattern
                .match_uri(iri.prefix.as_deref(), uri.as_str())
                .and_then(|values| values.into_iter().find(|&(name, _)| name == iri.slot))
                .ok_or_else(|| format!("does not match the URI pattern {}", iri.pattern))
                .and_then(|(_, raw)| self.slot_value(raw, text)),
            (Some(_), _) => Err("an object property requires an IRI object".to_owned()),
        };
        self.checked(value, term)
    }

    /// [`Codec::decode`] of the text `raw` that the placeholder matched
    /// in the IRI `term` (a subject already identified against its URI
    /// pattern).
    pub(crate) fn decode_slot(&self, raw: &str, term: &Term, text: Text) -> OntoResult<Value> {
        self.checked(self.slot_value(raw, text), term)
    }

    fn checked(&self, value: Result<Value, String>, term: &Term) -> OntoResult<Value> {
        value.map_err(|reason| OntoError::ValueIncompatible {
            table: self.table.to_string(),
            attribute: self.attribute.to_string(),
            value: term.clone(),
            reason,
        })
    }

    /// Whether the stored cell `value` is `term` in the view: a literal
    /// compares by value (plain `"5"` is the stored 5), an IRI by its
    /// rendering. DELETE DATA removes only triples that hold.
    pub(crate) fn holds(&self, value: &Value, term: &Term) -> bool {
        !value.is_null()
            && self
                .decode(term, Text::Lookup)
                .is_ok_and(|cell| cell == *value)
    }

    // The cell behind the text a URI pattern placeholder matched: only
    // the rendering `encode` writes denotes it.
    fn slot_value(&self, raw: &str, text: Text) -> Result<Value, String> {
        let value = match self.ty {
            SqlType::Varchar => return Ok(text.value(raw)),
            SqlType::Integer => raw
                .parse::<i64>()
                .map(Value::Int)
                .map_err(|_| format!("{raw:?} is not an integer key"))?,
            SqlType::Boolean => match raw {
                "true" => Value::Bool(true),
                "false" => Value::Bool(false),
                _ => return Err(format!("{raw:?} is not a boolean key")),
            },
            SqlType::Double => raw
                .parse::<f64>()
                .map(Value::Double)
                .map_err(|_| format!("{raw:?} is not a numeric key"))?,
        };
        let canonical = match value {
            // Not `+6`, `06` or `-0`.
            Value::Int(_) => {
                let digits = raw.strip_prefix('-').unwrap_or(raw);
                raw == "0" || !(raw.starts_with('+') || digits.starts_with('0'))
            }
            _ => {
                let mut rendered = String::new();
                push_lexical(&value, &mut rendered);
                rendered == raw
            }
        };
        if canonical {
            Ok(value)
        } else {
            Err(format!("{raw:?} is not the canonical form of its key"))
        }
    }
}

/// The instance IRI of a row of `table_map`: its URI pattern with each
/// placeholder's cell substituted. `table` is the table's schema.
pub(crate) fn instance_iri(
    mapping: &Mapping,
    table_map: &TableMap,
    table: &rel::Table,
    row: &[Value],
) -> OntoResult<Iri> {
    let mut uri = String::new();
    table_map
        .uri_pattern
        .generate_into(
            mapping.uri_prefix.as_deref(),
            &mut uri,
            |name, out| match table.column_index(name).map(|idx| &row[idx]) {
                Some(value) if !value.is_null() => {
                    push_lexical(value, out);
                    true
                }
                _ => false,
            },
        )
        .and_then(|()| {
            Iri::parse(uri).map_err(|e| r3m::PatternError {
                message: format!("generated URI is invalid: {e}"),
            })
        })
        .map_err(|e| unsupported(format!("cannot build instance URI for {}: {e}", table.name)))
}

/// Convert an RDF literal to a value of a column of type `ty`.
///
/// Plain literals are accepted for every type when their lexical form
/// parses (the paper's Listing 15 writes `ont:pubYear "2009"` into an
/// INTEGER column); typed literals must be of a compatible datatype.
pub(crate) fn literal_value(lit: &Literal, ty: SqlType, text: Text) -> Result<Value, String> {
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
                Ok(text.value(lit.lexical()))
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

// The literal of a cell: text is a plain literal over its interned
// string; integers, booleans and doubles format their lexical form into
// `scratch` (cleared first) under a static `xsd:` datatype. NULL has no
// triple.
fn literal<'s>(value: &Value, scratch: &'s mut String) -> Option<TermRef<'s>> {
    let lexical = match value {
        Value::Null => return None,
        Value::Text(s) => s.as_str(),
        _ => {
            scratch.clear();
            push_lexical(value, scratch);
            scratch
        }
    };
    Some(TermRef::Literal {
        lexical,
        kind: literal_kind(value),
    })
}

// The kind of a non-NULL cell's literal: text is plain, the others carry
// their `xsd:` datatype.
fn literal_kind(value: &Value) -> LiteralKindRef<'static> {
    match value {
        Value::Text(_) | Value::Null => LiteralKindRef::Plain,
        Value::Int(_) => LiteralKindRef::Datatype(XSD_INTEGER),
        Value::Bool(_) => LiteralKindRef::Datatype(XSD_BOOLEAN),
        Value::Double(_) => LiteralKindRef::Datatype(XSD_DOUBLE),
    }
}

// Append the lexical form of a value: the text itself, `6`, `true`,
// `1.5` — what a literal carries and what a URI pattern substitutes.
// NULL appends nothing.
fn push_lexical(value: &Value, out: &mut String) {
    match value {
        Value::Null => {}
        Value::Text(s) => out.push_str(s.as_str()),
        Value::Int(i) => push_int(*i, out),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Double(d) => rdf::literal::push_double(*d, out),
    }
}

// Append the decimal digits of `i`, without the formatting machinery:
// every key and year of a result passes through here.
fn push_int(i: i64, out: &mut String) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    let mut n = i.unsigned_abs();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    if i < 0 {
        out.push('-');
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::fixture_db_with_rows;

    fn literal_to_value(lit: &Literal, ty: SqlType) -> Result<Value, String> {
        literal_value(lit, ty, Text::Intern)
    }

    // The codec of `table.attribute` in the use-case mapping.
    fn with_codec<R>(table: &str, attribute: &str, f: impl FnOnce(Codec<'_>) -> R) -> R {
        let (db, mapping) = fixture_db_with_rows();
        let schema = db.schema().table(table).unwrap();
        let codec = match mapping.table(table) {
            Some(table_map) if attribute == "id" => {
                Codec::key(&mapping, table_map, schema, "id").unwrap()
            }
            Some(table_map) => {
                Codec::attribute(&mapping, schema, table_map.attribute(attribute).unwrap()).unwrap()
            }
            None => {
                let link = mapping.link_table(table).unwrap();
                let attr = [&link.subject_attribute, &link.object_attribute]
                    .into_iter()
                    .find(|a| a.attribute_name == attribute)
                    .unwrap();
                Codec::attribute(&mapping, schema, attr).unwrap()
            }
        };
        f(codec)
    }

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
        for (table, attribute, v) in [
            ("publication", "year", Value::Int(42)),
            ("author", "lastname", Value::text("Hert")),
            ("author", "email", Value::text("x@y.ch")),
            ("author", "team", Value::Int(5)),
            ("publication_author", "author", Value::Int(7)),
            ("team", "id", Value::Int(-3)),
        ] {
            with_codec(table, attribute, |codec| {
                let term = codec.term(&v).unwrap().unwrap();
                assert_eq!(codec.decode(&term, Text::Intern), Ok(v), "{term}");
                assert!(codec.holds(&v, &term), "{term}");
            });
        }
        for v in [Value::Bool(false), Value::Double(1.5)] {
            let mut scratch = String::new();
            let Some(TermRef::Literal { lexical, .. }) = literal(&v, &mut scratch) else {
                unreachable!("a value's view is a literal")
            };
            let ty = v.sql_type().unwrap();
            assert_eq!(literal_to_value(&Literal::plain(lexical), ty), Ok(v));
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
            let view = literal(&v, &mut scratch).unwrap();
            assert_eq!(view, Term::Literal(expected.clone()).as_ref());
        }
        with_codec("publication", "year", |codec| {
            assert_eq!(
                codec.term(&Value::Int(2009)).unwrap(),
                Some(Term::Literal(Literal::integer(2009)))
            );
        });
    }

    #[test]
    fn non_finite_doubles_render_their_xsd_lexical_forms() {
        for (d, lexical) in [
            (f64::INFINITY, "INF"),
            (f64::NEG_INFINITY, "-INF"),
            (f64::NAN, "NaN"),
        ] {
            let mut scratch = String::new();
            let view = literal(&Value::Double(d), &mut scratch).unwrap();
            assert_eq!(view, Term::Literal(Literal::double(d)).as_ref());
            let TermRef::Literal {
                lexical: written, ..
            } = view
            else {
                unreachable!("a double's view is a literal")
            };
            assert_eq!(written, lexical);
            // What is served reads back as the stored double.
            let read = literal_to_value(&Literal::double(d), SqlType::Double).unwrap();
            let Value::Double(read) = read else {
                unreachable!("a DOUBLE column reads doubles")
            };
            assert!(read == d || (read.is_nan() && d.is_nan()), "{lexical}");
        }
    }

    #[test]
    fn integers_render_without_the_formatter() {
        for i in [0, 7, -7, 10, 2009, i64::MAX, i64::MIN] {
            let mut out = String::from("x");
            push_int(i, &mut out);
            assert_eq!(out, format!("x{i}"));
        }
    }

    #[test]
    fn a_pattern_that_cannot_place_the_cell_fails_every_cell() {
        // The frame around the slot is fixed when the codec is made; a
        // pattern it cannot be fixed for fails each cell with the
        // pattern's error, through both ways a cell renders.
        let (db, mapping) = fixture_db_with_rows();
        let table = db.schema().table("author").unwrap();
        let email = mapping.table("author").unwrap().attribute("email").unwrap();
        for (pattern, error) in [
            (
                "mailto:%%other%%",
                "invalid URI pattern: no value for pattern attribute \"other\"",
            ),
            (
                "mailto:%%email%%@%%email%%",
                "URI pattern mailto:%%email%%@%%email%% must hold placeholder \"email\" \
                 exactly once",
            ),
            (
                "mailto:nobody",
                "URI pattern mailto:nobody must hold placeholder \"email\" exactly once",
            ),
        ] {
            let mut attr = email.clone();
            attr.value_pattern = Some(UriPattern::parse(pattern).unwrap());
            let codec = Codec::attribute(&mapping, table, &attr).unwrap();
            let cell = Value::text("x");
            let expected = format!("unsupported request: {error}");
            let encoded = codec.encode(&cell, &mut String::new()).map(|_| ());
            assert_eq!(encoded.unwrap_err().to_string(), expected);
            let text = codec.cell_text(&cell, &mut String::new()).map(|_| ());
            assert_eq!(text.unwrap_err().to_string(), expected);
        }
    }

    #[test]
    fn iris_check_the_cell_and_report_the_whole_iri() {
        // The template's constants were checked when the codec was
        // made; a cell that breaks the IRI fails with the whole IRI.
        with_codec("author", "email", |codec| {
            let mut scratch = String::new();
            let ok = codec.encode(&Value::text("x@y.ch"), &mut scratch).unwrap();
            assert_eq!(ok, Some(TermRef::Iri("mailto:x@y.ch")));
            let err = codec
                .encode(&Value::text("hert at uzh.ch"), &mut scratch)
                .unwrap_err();
            assert_eq!(
                err.to_string(),
                "unsupported request: invalid IRI \"mailto:hert at uzh.ch\": contains \
                 whitespace or a forbidden character"
            );
            // The writers' split of a cell fails the same way, and puts
            // the text back into the same term.
            let cell = Value::text("hert at uzh.ch");
            let split = codec.cell_text(&cell, &mut scratch).unwrap_err();
            assert_eq!(split.to_string(), err.to_string());
            let cell = Value::text("x@y.ch");
            let text = codec.cell_text(&cell, &mut scratch).unwrap().unwrap();
            let mut expanded = String::new();
            let term = codec.term_with(&cell, text, &mut expanded);
            assert_eq!(term, Some(TermRef::Iri("mailto:x@y.ch")));
        });
        with_codec("author", "team", |codec| {
            let term = codec.term(&Value::Int(-12)).unwrap();
            assert_eq!(term, Some(Term::iri("http://example.org/db/team-12")));
            let mut scratch = String::new();
            let text = codec.cell_text(&Value::Int(-12), &mut scratch).unwrap();
            assert_eq!(text, Some("-12"));
        });
    }

    #[test]
    fn text_literals_borrow_the_interned_string() {
        let v = Value::text("Hert");
        let Value::Text(s) = &v else { unreachable!() };
        with_codec("author", "lastname", |codec| {
            let Some(Term::Literal(lit)) = codec.term(&v).unwrap() else {
                panic!("a data attribute's term is a literal")
            };
            assert_eq!(lit.lexical().as_ptr(), s.as_str().as_ptr());
        });
    }

    #[test]
    fn null_has_no_literal() {
        assert_eq!(literal(&Value::Null, &mut String::new()), None);
        for (table, attribute) in [
            ("author", "lastname"),
            ("author", "email"),
            ("author", "team"),
        ] {
            with_codec(table, attribute, |codec| {
                assert_eq!(codec.term(&Value::Null).unwrap(), None);
                assert!(!codec.holds(&Value::Null, &Term::plain("")));
            });
        }
    }

    #[test]
    fn pattern_value_round_trip() {
        with_codec("author", "id", |codec| {
            let six = Term::iri("http://example.org/db/author6");
            let v = codec.decode(&six, Text::Intern).unwrap();
            assert_eq!(v, Value::Int(6));
            assert_eq!(codec.term(&v).unwrap(), Some(six));
            let bad = Term::iri("http://example.org/db/authorabc");
            assert!(codec.decode(&bad, Text::Intern).is_err());
        });
    }

    #[test]
    fn iris_decode_only_from_their_canonical_form() {
        with_codec("author", "id", |codec| {
            for raw in ["06", "+6", "-0", "00"] {
                let alias = Term::iri(&format!("http://example.org/db/author{raw}"));
                assert!(
                    matches!(
                        codec.decode(&alias, Text::Intern),
                        Err(OntoError::ValueIncompatible { .. })
                    ),
                    "{alias} decoded"
                );
            }
            for v in [0, -6, 60] {
                let term = codec.term(&Value::Int(v)).unwrap().unwrap();
                assert_eq!(codec.decode(&term, Text::Intern), Ok(Value::Int(v)));
            }
        });
    }

    #[test]
    fn lookup_never_interns() {
        with_codec("author", "email", |codec| {
            let fresh = Term::iri("mailto:never-stored-by-anyone@example.org");
            assert_eq!(codec.decode(&fresh, Text::Lookup), Ok(Value::Null));
            assert!(rel::Sym::lookup("never-stored-by-anyone@example.org").is_none());
        });
    }

    #[test]
    fn literal_matching_is_by_value() {
        with_codec("publication", "year", |codec| {
            let year = Value::Int(5);
            assert!(codec.holds(&year, &Term::plain("5")));
            assert!(codec.holds(&year, &Term::Literal(Literal::integer(5))));
            assert!(!codec.holds(&Value::Int(6), &Term::plain("5")));
        });
        with_codec("author", "lastname", |codec| {
            assert!(codec.holds(&Value::text("Hert"), &Term::plain("Hert")));
            assert!(!codec.holds(&Value::Null, &Term::plain("x")));
        });
        with_codec("author", "team", |codec| {
            let team5 = Term::iri("http://example.org/db/team5");
            assert!(codec.holds(&Value::Int(5), &team5));
            assert!(!codec.holds(&Value::Int(4), &team5));
            assert!(!codec.holds(&Value::Int(5), &Term::plain("5")));
        });
    }

    #[test]
    fn object_literal_error_payload() {
        with_codec("author", "lastname", |codec| {
            let err = codec
                .decode(&Term::iri("http://example.org/x"), Text::Intern)
                .unwrap_err();
            assert!(matches!(
                err,
                OntoError::ValueIncompatible { ref table, ref attribute, .. }
                    if table == "author" && attribute == "lastname"
            ));
        });
    }
}
