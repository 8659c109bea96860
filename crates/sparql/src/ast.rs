//! Abstract syntax for the SPARQL fragment OntoAccess consumes and the
//! three SPARQL/Update operations of the 2008 member submission the
//! paper targets (§5): `INSERT DATA`, `DELETE DATA`, and `MODIFY`.

use rdf::{Iri, Literal, Term, Triple};
use std::fmt;

/// A SPARQL variable name (without the `?`/`$` sigil).
pub type Variable = String;

/// Subject/predicate/object position in a triple pattern: a concrete RDF
/// term or a variable.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TermPattern {
    /// Concrete term.
    Term(Term),
    /// Variable.
    Variable(Variable),
}

impl TermPattern {
    /// Variable shorthand.
    pub fn var(name: &str) -> TermPattern {
        TermPattern::Variable(name.to_owned())
    }

    /// IRI shorthand.
    pub fn iri(iri: Iri) -> TermPattern {
        TermPattern::Term(Term::Iri(iri))
    }

    /// Literal shorthand.
    pub fn literal(lit: Literal) -> TermPattern {
        TermPattern::Term(Term::Literal(lit))
    }

    /// The variable name if this is a variable.
    pub fn as_variable(&self) -> Option<&str> {
        match self {
            TermPattern::Variable(v) => Some(v),
            TermPattern::Term(_) => None,
        }
    }

    /// The concrete term if this is one.
    pub fn as_term(&self) -> Option<&Term> {
        match self {
            TermPattern::Term(t) => Some(t),
            TermPattern::Variable(_) => None,
        }
    }
}

impl fmt::Display for TermPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TermPattern::Term(t) => t.fmt(f),
            TermPattern::Variable(v) => write!(f, "?{v}"),
        }
    }
}

/// A triple pattern (template position in MODIFY, or WHERE-clause
/// pattern).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TriplePattern {
    /// Subject position.
    pub subject: TermPattern,
    /// Predicate position.
    pub predicate: TermPattern,
    /// Object position.
    pub object: TermPattern,
}

impl TriplePattern {
    /// Build a pattern.
    pub fn new(subject: TermPattern, predicate: TermPattern, object: TermPattern) -> Self {
        TriplePattern {
            subject,
            predicate,
            object,
        }
    }

    /// Convert to a ground [`Triple`], moving the terms, if all positions
    /// are concrete terms with an IRI predicate and a non-literal
    /// subject; otherwise the pattern comes back unchanged.
    pub fn into_triple(self) -> Result<Triple, Box<TriplePattern>> {
        match self {
            TriplePattern {
                subject: TermPattern::Term(s),
                predicate: TermPattern::Term(Term::Iri(p)),
                object: TermPattern::Term(o),
            } if s.is_subject_term() => Ok(Triple::new(s, p, o)),
            other => Err(Box::new(other)),
        }
    }

    /// Variables mentioned by this pattern.
    pub fn variables(&self) -> Vec<&str> {
        [&self.subject, &self.predicate, &self.object]
            .into_iter()
            .filter_map(TermPattern::as_variable)
            .collect()
    }
}

impl fmt::Display for TriplePattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {} .", self.subject, self.predicate, self.object)
    }
}

/// Comparison operators usable in `FILTER`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompareOp {
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl fmt::Display for CompareOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CompareOp::Eq => "=",
            CompareOp::Ne => "!=",
            CompareOp::Lt => "<",
            CompareOp::Le => "<=",
            CompareOp::Gt => ">",
            CompareOp::Ge => ">=",
        };
        write!(f, "{s}")
    }
}

/// A `FILTER` expression (boolean combination of comparisons and
/// `BOUND`).
#[derive(Debug, Clone, PartialEq)]
pub enum FilterExpr {
    /// `lhs OP rhs`.
    Compare {
        /// Operator.
        op: CompareOp,
        /// Left operand.
        left: TermPattern,
        /// Right operand.
        right: TermPattern,
    },
    /// `BOUND(?v)`.
    Bound(Variable),
    /// `expr && expr`.
    And(Box<FilterExpr>, Box<FilterExpr>),
    /// `expr || expr`.
    Or(Box<FilterExpr>, Box<FilterExpr>),
    /// `!expr`.
    Not(Box<FilterExpr>),
}

impl FilterExpr {
    /// Variables mentioned by this filter.
    pub fn variables(&self) -> Vec<&str> {
        match self {
            FilterExpr::Compare { left, right, .. } => [left, right]
                .into_iter()
                .filter_map(TermPattern::as_variable)
                .collect(),
            FilterExpr::Bound(v) => vec![v],
            FilterExpr::And(a, b) | FilterExpr::Or(a, b) => {
                let mut vars = a.variables();
                vars.extend(b.variables());
                vars
            }
            FilterExpr::Not(inner) => inner.variables(),
        }
    }
}

/// A group graph pattern: a basic graph pattern plus filters.
///
/// This is the fragment Algorithm 2 needs (the MODIFY `WHERE` clause);
/// `OPTIONAL`/`UNION` are outside the paper's scope.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct GroupPattern {
    /// Triple patterns, joined.
    pub patterns: Vec<TriplePattern>,
    /// FILTER constraints.
    pub filters: Vec<FilterExpr>,
}

impl GroupPattern {
    /// All variables mentioned in patterns (filter-only variables are
    /// not solution variables).
    pub fn variables(&self) -> Vec<String> {
        let mut seen = std::collections::BTreeSet::new();
        let mut out = Vec::new();
        for p in &self.patterns {
            for v in p.variables() {
                if seen.insert(v.to_owned()) {
                    out.push(v.to_owned());
                }
            }
        }
        out
    }
}

/// Projection of a SELECT query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Projection {
    /// `SELECT *` — all pattern variables.
    Star,
    /// Explicit variable list.
    Variables(Vec<Variable>),
}

/// `SELECT` query.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectQuery {
    /// `DISTINCT` modifier.
    pub distinct: bool,
    /// Projected variables.
    pub projection: Projection,
    /// WHERE clause.
    pub pattern: GroupPattern,
    /// `LIMIT n`.
    pub limit: Option<usize>,
}

/// `ASK` query.
#[derive(Debug, Clone, PartialEq)]
pub struct AskQuery {
    /// WHERE clause.
    pub pattern: GroupPattern,
}

/// Any read query.
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    /// `SELECT`.
    Select(SelectQuery),
    /// `ASK`.
    Ask(AskQuery),
}

/// One SPARQL/Update operation (2008 member submission §5; the paper's
/// Listings 6-8).
#[derive(Debug, Clone, PartialEq)]
pub enum UpdateOp {
    /// `INSERT DATA { triples }` — ground triples to add.
    InsertData {
        /// Triples to insert.
        triples: Vec<Triple>,
    },
    /// `DELETE DATA { triples }` — ground triples to remove.
    DeleteData {
        /// Triples to remove.
        triples: Vec<Triple>,
    },
    /// `MODIFY DELETE { template } INSERT { template } WHERE { pattern }`.
    ///
    /// Also produced by the SPARQL 1.1 spelling
    /// `DELETE { … } INSERT { … } WHERE { … }` and the one-sided
    /// `DELETE WHERE` / `INSERT WHERE` forms.
    Modify {
        /// DELETE template (may be empty).
        delete: Vec<TriplePattern>,
        /// INSERT template (may be empty).
        insert: Vec<TriplePattern>,
        /// Shared WHERE clause.
        pattern: GroupPattern,
    },
}

impl UpdateOp {
    /// Human-readable operation name (used in feedback documents).
    pub fn name(&self) -> &'static str {
        match self {
            UpdateOp::InsertData { .. } => "INSERT DATA",
            UpdateOp::DeleteData { .. } => "DELETE DATA",
            UpdateOp::Modify { .. } => "MODIFY",
        }
    }
}

/// Prints a filter fully parenthesized, so the parser rebuilds the same
/// tree: `(a && b)`, `(a || b)`, `!(a)`, `BOUND(?v)`, `left op right`.
impl fmt::Display for FilterExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FilterExpr::Compare { op, left, right } => write!(f, "{left} {op} {right}"),
            FilterExpr::Bound(v) => write!(f, "BOUND(?{v})"),
            FilterExpr::And(a, b) => write!(f, "({a} && {b})"),
            FilterExpr::Or(a, b) => write!(f, "({a} || {b})"),
            FilterExpr::Not(inner) => write!(f, "!({inner})"),
        }
    }
}

impl fmt::Display for GroupPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("{ ")?;
        for p in &self.patterns {
            write!(f, "{p} ")?;
        }
        for filter in &self.filters {
            write!(f, "FILTER ({filter}) ")?;
        }
        f.write_str("}")
    }
}

// `{ item item … }` with one space around each item.
fn block<T: fmt::Display>(f: &mut fmt::Formatter<'_>, items: &[T]) -> fmt::Result {
    f.write_str("{ ")?;
    for item in items {
        write!(f, "{item} ")?;
    }
    f.write_str("}")
}

/// Prints the operation as SPARQL/Update text with full IRIs, which
/// parses back to an equal operation: `MODIFY` is always printed in the
/// member-submission form, whatever spelling it was parsed from.
impl fmt::Display for UpdateOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UpdateOp::InsertData { triples } => {
                f.write_str("INSERT DATA ")?;
                block(f, triples)
            }
            UpdateOp::DeleteData { triples } => {
                f.write_str("DELETE DATA ")?;
                block(f, triples)
            }
            UpdateOp::Modify {
                delete,
                insert,
                pattern,
            } => {
                f.write_str("MODIFY DELETE ")?;
                block(f, delete)?;
                f.write_str(" INSERT ")?;
                block(f, insert)?;
                write!(f, " WHERE {pattern}")
            }
        }
    }
}

/// A whole update request (the operations of
/// [`crate::parse_update_script`]), printed one operation per line with
/// `;` between them.
#[derive(Debug, Clone, Copy)]
pub struct UpdateScript<'a>(pub &'a [UpdateOp]);

impl fmt::Display for UpdateScript<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, op) in self.0.iter().enumerate() {
            if i > 0 {
                f.write_str(" ;\n")?;
            }
            write!(f, "{op}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdf::namespace::foaf;

    #[test]
    fn ground_pattern_converts_to_triple() {
        let p = TriplePattern::new(
            TermPattern::Term(Term::iri("http://example.org/db/author6")),
            TermPattern::iri(foaf::mbox()),
            TermPattern::Term(Term::iri("mailto:hert@ifi.uzh.ch")),
        );
        let t = p.into_triple().unwrap();
        assert_eq!(t.predicate, foaf::mbox());
    }

    #[test]
    fn variable_pattern_does_not_convert() {
        let p = TriplePattern::new(
            TermPattern::var("x"),
            TermPattern::iri(foaf::mbox()),
            TermPattern::var("mbox"),
        );
        assert_eq!(p.clone().into_triple(), Err(Box::new(p)));
    }

    #[test]
    fn literal_subject_does_not_convert() {
        let p = TriplePattern::new(
            TermPattern::literal(Literal::plain("bad")),
            TermPattern::iri(foaf::mbox()),
            TermPattern::var("o"),
        );
        assert_eq!(p.clone().into_triple(), Err(Box::new(p)));
    }

    #[test]
    fn pattern_variables_deduplicated_in_group() {
        let group = GroupPattern {
            patterns: vec![
                TriplePattern::new(
                    TermPattern::var("x"),
                    TermPattern::iri(foaf::firstName()),
                    TermPattern::var("n"),
                ),
                TriplePattern::new(
                    TermPattern::var("x"),
                    TermPattern::iri(foaf::mbox()),
                    TermPattern::var("mbox"),
                ),
            ],
            filters: vec![],
        };
        assert_eq!(group.variables(), vec!["x", "n", "mbox"]);
    }

    #[test]
    fn display_forms() {
        assert_eq!(TermPattern::var("x").to_string(), "?x");
        let p = TriplePattern::new(
            TermPattern::var("x"),
            TermPattern::iri(foaf::mbox()),
            TermPattern::var("m"),
        );
        assert_eq!(p.to_string(), "?x <http://xmlns.com/foaf/0.1/mbox> ?m .");
    }

    #[test]
    fn filter_variables() {
        let f = FilterExpr::And(
            Box::new(FilterExpr::Compare {
                op: CompareOp::Gt,
                left: TermPattern::var("year"),
                right: TermPattern::literal(Literal::integer(2000)),
            }),
            Box::new(FilterExpr::Bound("x".into())),
        );
        assert_eq!(f.variables(), vec!["year", "x"]);
    }

    #[test]
    fn update_display_is_sparql_that_parses_back() {
        let op = UpdateOp::InsertData {
            triples: vec![Triple::new(
                Term::iri("http://example.org/db/author6"),
                foaf::name(),
                Term::Literal(Literal::lang("O'Brien \"Pat\"", "EN")),
            )],
        };
        assert_eq!(
            op.to_string(),
            "INSERT DATA { <http://example.org/db/author6> <http://xmlns.com/foaf/0.1/name> \
             \"O'Brien \\\"Pat\\\"\"@en . }"
        );
        let text = "PREFIX foaf: <http://xmlns.com/foaf/0.1/>\n\
                    INSERT DATA { _:b foaf:name \"x\\ty\" ; foaf:title \"3\"^^<http://x.org/t> . } ;\n\
                    DELETE WHERE { ?x foaf:name ?n } ;\n\
                    MODIFY DELETE { ?x foaf:mbox ?m } INSERT { } WHERE { ?x foaf:mbox ?m . \
                    FILTER (!(?m = <mailto:a@b>) && (BOUND(?x) || ?n >= 2.5)) }";
        let ops = crate::parse_update_script(text, rdf::namespace::PrefixMap::new()).unwrap();
        let printed = UpdateScript(&ops).to_string();
        assert_eq!(
            crate::parse_update_script(&printed, rdf::namespace::PrefixMap::new()).unwrap(),
            ops,
            "{printed}"
        );
    }

    #[test]
    fn update_names() {
        assert_eq!(
            UpdateOp::InsertData { triples: vec![] }.name(),
            "INSERT DATA"
        );
        assert_eq!(
            UpdateOp::Modify {
                delete: vec![],
                insert: vec![],
                pattern: GroupPattern::default()
            }
            .name(),
            "MODIFY"
        );
    }
}
