//! Parser for SPARQL queries (`SELECT`, `ASK`) and SPARQL/Update
//! operations (`INSERT DATA`, `DELETE DATA`, `MODIFY`, plus the SPARQL
//! 1.1 `DELETE/INSERT … WHERE` spellings, normalized to `MODIFY`).
//!
//! The parser pulls tokens from the lexer one at a time and takes each
//! by move, so a term's text is copied once: from the request bytes into
//! the AST. DATA blocks become triples by moving the parsed terms.

use crate::ast::{
    AskQuery, CompareOp, FilterExpr, GroupPattern, Projection, Query, SelectQuery, TermPattern,
    TriplePattern, UpdateOp, Variable,
};
use crate::lexer::{LexError, Lexer, Token, TokenKind};
use rdf::namespace::{rdf_type, xsd, PrefixMap};
use rdf::{BlankNode, Iri, Literal, Term, Triple};
use std::fmt;

/// Parse error with position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
    /// Line.
    pub line: usize,
    /// Column.
    pub column: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sparql:{}:{}: {}", self.line, self.column, self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError {
            message: e.message,
            line: e.line,
            column: e.column,
        }
    }
}

/// Parse a SPARQL query (`SELECT` or `ASK`) with an empty initial prefix
/// map.
pub fn parse_query(input: &str) -> Result<Query, ParseError> {
    parse_query_with_prefixes(input, PrefixMap::new())
}

/// Parse a SPARQL query starting from the given prefixes.
pub fn parse_query_with_prefixes(input: &str, prefixes: PrefixMap) -> Result<Query, ParseError> {
    let mut p = Parser::new(input, prefixes)?;
    p.parse_prologue()?;
    let query = p.parse_query_body()?;
    p.expect_eof()?;
    Ok(query)
}

/// Parse one SPARQL/Update operation with an empty initial prefix map.
pub fn parse_update(input: &str) -> Result<UpdateOp, ParseError> {
    parse_update_with_prefixes(input, PrefixMap::new())
}

/// Parse one SPARQL/Update operation starting from the given prefixes.
pub fn parse_update_with_prefixes(
    input: &str,
    prefixes: PrefixMap,
) -> Result<UpdateOp, ParseError> {
    let mut p = Parser::new(input, prefixes)?;
    p.parse_prologue()?;
    let update = p.parse_update_body()?;
    // A single trailing ';' is tolerated (SPARQL 1.1 request style).
    p.accept_punct(";")?;
    p.expect_eof()?;
    Ok(update)
}

/// Parse a SPARQL 1.1 style update *request*: one prologue followed by
/// one or more operations separated by `;`. Prefix declarations may
/// also appear between operations (each prologue extends the previous
/// scope, as in SPARQL 1.1).
pub fn parse_update_script(input: &str, prefixes: PrefixMap) -> Result<Vec<UpdateOp>, ParseError> {
    let mut p = Parser::new(input, prefixes)?;
    let mut ops = Vec::new();
    loop {
        p.parse_prologue()?;
        if p.at_eof() {
            if ops.is_empty() {
                return Err(p.err_here("empty update request"));
            }
            return Ok(ops);
        }
        ops.push(p.parse_update_body()?);
        if !p.accept_punct(";")? {
            p.expect_eof()?;
            return Ok(ops);
        }
    }
}

struct Parser<'a> {
    lexer: Lexer<'a>,
    // The one token of look-ahead.
    token: Token<'a>,
    prefixes: PrefixMap,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str, prefixes: PrefixMap) -> Result<Self, ParseError> {
        let mut lexer = Lexer::new(input);
        let token = lexer.next_token()?;
        Ok(Parser {
            lexer,
            token,
            prefixes,
        })
    }

    fn peek(&self) -> &Token<'a> {
        &self.token
    }

    // Take the look-ahead token by move and lex the next one.
    fn bump(&mut self) -> Result<Token<'a>, ParseError> {
        let next = self.lexer.next_token()?;
        Ok(std::mem::replace(&mut self.token, next))
    }

    fn err_here(&self, message: impl Into<String>) -> ParseError {
        let t = self.peek();
        ParseError {
            message: message.into(),
            line: t.line,
            column: t.column,
        }
    }

    fn at_eof(&self) -> bool {
        self.peek().kind == TokenKind::Eof
    }

    fn expect_eof(&self) -> Result<(), ParseError> {
        if self.at_eof() {
            Ok(())
        } else {
            Err(self.err_here(format!("trailing input: {}", self.peek().kind)))
        }
    }

    fn peek_keyword(&self, kw: &str) -> bool {
        matches!(&self.peek().kind, TokenKind::Word(w) if w.eq_ignore_ascii_case(kw))
    }

    fn accept_keyword(&mut self, kw: &str) -> Result<bool, ParseError> {
        let found = self.peek_keyword(kw);
        if found {
            self.bump()?;
        }
        Ok(found)
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        if self.accept_keyword(kw)? {
            Ok(())
        } else {
            Err(self.err_here(format!("expected {kw}, found {}", self.peek().kind)))
        }
    }

    fn peek_punct(&self, p: &str) -> bool {
        matches!(&self.peek().kind, TokenKind::Punct(x) if *x == p)
    }

    fn accept_punct(&mut self, p: &str) -> Result<bool, ParseError> {
        let found = self.peek_punct(p);
        if found {
            self.bump()?;
        }
        Ok(found)
    }

    fn expect_punct(&mut self, p: &str) -> Result<(), ParseError> {
        if self.accept_punct(p)? {
            Ok(())
        } else {
            Err(self.err_here(format!("expected {p:?}, found {}", self.peek().kind)))
        }
    }

    // ------------------------------------------------------------------
    // Prologue
    // ------------------------------------------------------------------

    fn parse_prologue(&mut self) -> Result<(), ParseError> {
        loop {
            if self.accept_keyword("PREFIX")? {
                let token = self.bump()?;
                let prefix = match token.kind {
                    TokenKind::PrefixedName { prefix, local: "" } => prefix,
                    other => {
                        return Err(ParseError {
                            message: format!("expected prefix name, found {other}"),
                            line: token.line,
                            column: token.column,
                        })
                    }
                };
                let token = self.bump()?;
                let ns = match token.kind {
                    TokenKind::IriRef(iri) => iri,
                    other => {
                        return Err(ParseError {
                            message: format!("expected namespace IRI, found {other}"),
                            line: token.line,
                            column: token.column,
                        })
                    }
                };
                // Re-declaring a prefix as the map already has it (clients
                // often send the common ones) keeps the shared map.
                if self.prefixes.namespace(prefix) != Some(ns) {
                    self.prefixes.insert(prefix, ns);
                }
            } else if self.accept_keyword("BASE")? {
                // BASE is accepted but IRIs in our fragment are absolute.
                let token = self.bump()?;
                if !matches!(token.kind, TokenKind::IriRef(_)) {
                    return Err(ParseError {
                        message: "expected IRI after BASE".into(),
                        line: token.line,
                        column: token.column,
                    });
                }
            } else {
                return Ok(());
            }
        }
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    fn parse_query_body(&mut self) -> Result<Query, ParseError> {
        if self.accept_keyword("SELECT")? {
            let distinct = self.accept_keyword("DISTINCT")?;
            let projection = if self.accept_punct("*")? {
                Projection::Star
            } else {
                let mut vars: Vec<Variable> = Vec::new();
                while let TokenKind::Variable(v) = self.peek().kind {
                    vars.push(v.to_owned());
                    self.bump()?;
                }
                if vars.is_empty() {
                    return Err(self.err_here("SELECT requires '*' or at least one variable"));
                }
                Projection::Variables(vars)
            };
            // WHERE keyword is optional in SPARQL.
            self.accept_keyword("WHERE")?;
            let pattern = self.parse_group_pattern()?;
            let limit = if self.accept_keyword("LIMIT")? {
                match self.bump()?.kind {
                    TokenKind::Integer(n) if n >= 0 => Some(n as usize),
                    other => {
                        return Err(
                            self.err_here(format!("expected non-negative LIMIT, found {other}"))
                        )
                    }
                }
            } else {
                None
            };
            Ok(Query::Select(SelectQuery {
                distinct,
                projection,
                pattern,
                limit,
            }))
        } else if self.accept_keyword("ASK")? {
            self.accept_keyword("WHERE")?;
            let pattern = self.parse_group_pattern()?;
            Ok(Query::Ask(AskQuery { pattern }))
        } else {
            Err(self.err_here("expected SELECT or ASK"))
        }
    }

    // ------------------------------------------------------------------
    // Updates
    // ------------------------------------------------------------------

    fn parse_update_body(&mut self) -> Result<UpdateOp, ParseError> {
        if self.accept_keyword("MODIFY")? {
            // Member-submission MODIFY [ <graph> ] DELETE {..} INSERT {..} WHERE {..}
            if let TokenKind::IriRef(_) = self.peek().kind {
                self.bump()?; // graph IRI — single-graph store, accepted and ignored
            }
            self.expect_keyword("DELETE")?;
            let delete = self.parse_template_block()?;
            self.expect_keyword("INSERT")?;
            let insert = self.parse_template_block()?;
            self.expect_keyword("WHERE")?;
            let pattern = self.parse_group_pattern()?;
            Ok(UpdateOp::Modify {
                delete,
                insert,
                pattern,
            })
        } else if self.accept_keyword("INSERT")? {
            if self.accept_keyword("DATA")? {
                let triples = self.parse_ground_block()?;
                Ok(UpdateOp::InsertData { triples })
            } else {
                // INSERT { template } WHERE { pattern }
                let insert = self.parse_template_block()?;
                self.expect_keyword("WHERE")?;
                let pattern = self.parse_group_pattern()?;
                Ok(UpdateOp::Modify {
                    delete: Vec::new(),
                    insert,
                    pattern,
                })
            }
        } else if self.accept_keyword("DELETE")? {
            if self.accept_keyword("DATA")? {
                let triples = self.parse_ground_block()?;
                Ok(UpdateOp::DeleteData { triples })
            } else if self.accept_keyword("WHERE")? {
                // DELETE WHERE { pattern }: pattern doubles as template.
                let pattern = self.parse_group_pattern()?;
                if !pattern.filters.is_empty() {
                    return Err(self.err_here("DELETE WHERE must not contain FILTER"));
                }
                Ok(UpdateOp::Modify {
                    delete: pattern.patterns.clone(),
                    insert: Vec::new(),
                    pattern,
                })
            } else {
                // DELETE { template } [INSERT { template }] WHERE { pattern }
                let delete = self.parse_template_block()?;
                let insert = if self.accept_keyword("INSERT")? {
                    self.parse_template_block()?
                } else {
                    Vec::new()
                };
                self.expect_keyword("WHERE")?;
                let pattern = self.parse_group_pattern()?;
                Ok(UpdateOp::Modify {
                    delete,
                    insert,
                    pattern,
                })
            }
        } else {
            Err(self.err_here("expected INSERT, DELETE, or MODIFY"))
        }
    }

    // `{ ground triples }` for INSERT DATA / DELETE DATA: the patterns'
    // terms move into the triples.
    fn parse_ground_block(&mut self) -> Result<Vec<Triple>, ParseError> {
        let patterns = self.parse_triples_block(false)?;
        let mut triples = Vec::with_capacity(patterns.len());
        for p in patterns {
            match p.into_triple() {
                Ok(t) => triples.push(t),
                Err(p) => {
                    return Err(
                        self.err_here(format!("variables are not allowed in a DATA block: {p}"))
                    )
                }
            }
        }
        Ok(triples)
    }

    // `{ template triples }` for MODIFY DELETE/INSERT.
    fn parse_template_block(&mut self) -> Result<Vec<TriplePattern>, ParseError> {
        self.parse_triples_block(true)
    }

    // `{ triples [FILTER …] }` — the WHERE clause.
    fn parse_group_pattern(&mut self) -> Result<GroupPattern, ParseError> {
        self.expect_punct("{")?;
        let mut group = GroupPattern::default();
        loop {
            if self.accept_punct("}")? {
                return Ok(group);
            }
            if self.accept_keyword("FILTER")? {
                group.filters.push(self.parse_filter_constraint()?);
                self.accept_punct(".")?;
                continue;
            }
            self.parse_triples_same_subject(true, &mut group.patterns)?;
            if !self.accept_punct(".")? {
                // A '.' is required between statements but optional
                // before '}'.
                if !self.peek_punct("}") && !self.peek_keyword("FILTER") {
                    return Err(self.err_here("expected '.', FILTER, or '}'"));
                }
            }
        }
    }

    // `{ triples }` without FILTER (templates, DATA blocks).
    fn parse_triples_block(&mut self, allow_vars: bool) -> Result<Vec<TriplePattern>, ParseError> {
        self.expect_punct("{")?;
        let mut patterns = Vec::new();
        loop {
            if self.accept_punct("}")? {
                return Ok(patterns);
            }
            self.parse_triples_same_subject(allow_vars, &mut patterns)?;
            if !self.accept_punct(".")? && !self.peek_punct("}") {
                return Err(self.err_here("expected '.' or '}'"));
            }
        }
    }

    // subject (predicate object (',' object)*) (';' predicate objects)*
    //
    // A pattern is pushed once the token after its object is known, so
    // the subject and predicate move into their last pattern and are
    // cloned only for the ones before it.
    fn parse_triples_same_subject(
        &mut self,
        allow_vars: bool,
        out: &mut Vec<TriplePattern>,
    ) -> Result<(), ParseError> {
        let subject = self.parse_term_pattern(allow_vars)?;
        if let TermPattern::Term(t) = &subject {
            if !t.is_subject_term() {
                return Err(self.err_here("literal in subject position"));
            }
        }
        let mut predicate = self.parse_predicate_pattern(allow_vars)?;
        let mut object = self.parse_term_pattern(allow_vars)?;
        loop {
            if self.accept_punct(",")? {
                let next = self.parse_term_pattern(allow_vars)?;
                let object = std::mem::replace(&mut object, next);
                out.push(TriplePattern::new(
                    subject.clone(),
                    predicate.clone(),
                    object,
                ));
                continue;
            }
            // Tolerate a dangling ';' before '.'/'}' as in Turtle.
            if self.accept_punct(";")? && !self.peek_punct(".") && !self.peek_punct("}") {
                let next_predicate = self.parse_predicate_pattern(allow_vars)?;
                let next_object = self.parse_term_pattern(allow_vars)?;
                out.push(TriplePattern::new(
                    subject.clone(),
                    std::mem::replace(&mut predicate, next_predicate),
                    std::mem::replace(&mut object, next_object),
                ));
                continue;
            }
            out.push(TriplePattern::new(subject, predicate, object));
            return Ok(());
        }
    }

    fn parse_predicate_pattern(&mut self, allow_vars: bool) -> Result<TermPattern, ParseError> {
        if self.peek().kind == TokenKind::Word("a") {
            self.bump()?;
            return Ok(TermPattern::iri(rdf_type()));
        }
        let p = self.parse_term_pattern(allow_vars)?;
        match &p {
            TermPattern::Term(Term::Iri(_)) | TermPattern::Variable(_) => Ok(p),
            _ => Err(self.err_here("predicate must be an IRI or variable")),
        }
    }

    fn parse_term_pattern(&mut self, allow_vars: bool) -> Result<TermPattern, ParseError> {
        let token = self.bump()?;
        let (line, column) = (token.line, token.column);
        let fail = |message: String| ParseError {
            message,
            line,
            column,
        };
        match token.kind {
            TokenKind::Variable(v) => {
                if allow_vars {
                    Ok(TermPattern::Variable(v.to_owned()))
                } else {
                    Err(fail(format!("variable ?{v} not allowed here")))
                }
            }
            TokenKind::IriRef(iri) => {
                let iri = Iri::parse(iri).map_err(|e| fail(e.to_string()))?;
                Ok(TermPattern::iri(iri))
            }
            TokenKind::PrefixedName { prefix, local } => self
                .prefixes
                .resolve(prefix, local)
                .map(TermPattern::iri)
                .ok_or_else(|| fail(format!("undeclared prefix {prefix:?}"))),
            TokenKind::BlankNodeLabel(label) => {
                Ok(TermPattern::Term(Term::Blank(BlankNode::new(label))))
            }
            TokenKind::StringLiteral(lexical) => match self.peek().kind {
                TokenKind::LangTag(tag) => {
                    self.bump()?;
                    Ok(TermPattern::literal(Literal::lang(lexical, tag)))
                }
                TokenKind::DatatypeMarker => {
                    self.bump()?;
                    let token = self.bump()?;
                    let dt = match token.kind {
                        TokenKind::IriRef(iri) => {
                            Iri::parse(iri).map_err(|e| fail(e.to_string()))?
                        }
                        TokenKind::PrefixedName { prefix, local } => self
                            .prefixes
                            .resolve(prefix, local)
                            .ok_or_else(|| fail(format!("undeclared prefix {prefix:?}")))?,
                        other => return Err(fail(format!("expected datatype IRI, found {other}"))),
                    };
                    Ok(TermPattern::literal(Literal::typed(lexical, dt)))
                }
                _ => Ok(TermPattern::literal(Literal::plain(lexical))),
            },
            TokenKind::Integer(i) => Ok(TermPattern::literal(Literal::integer(i))),
            TokenKind::Decimal(d) => Ok(TermPattern::literal(Literal::typed(d, xsd::decimal()))),
            TokenKind::Word(w)
                if w.eq_ignore_ascii_case("true") || w.eq_ignore_ascii_case("false") =>
            {
                Ok(TermPattern::literal(Literal::boolean(
                    w.eq_ignore_ascii_case("true"),
                )))
            }
            other => Err(fail(format!("expected RDF term, found {other}"))),
        }
    }

    // ------------------------------------------------------------------
    // FILTER
    // ------------------------------------------------------------------

    // FILTER '(' expr ')'  — also accepts FILTER BOUND(?v).
    fn parse_filter_constraint(&mut self) -> Result<FilterExpr, ParseError> {
        if self.peek_keyword("BOUND") {
            return self.parse_filter_primary();
        }
        self.expect_punct("(")?;
        let expr = self.parse_filter_or()?;
        self.expect_punct(")")?;
        Ok(expr)
    }

    fn parse_filter_or(&mut self) -> Result<FilterExpr, ParseError> {
        let mut left = self.parse_filter_and()?;
        while self.accept_punct("||")? {
            let right = self.parse_filter_and()?;
            left = FilterExpr::Or(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn parse_filter_and(&mut self) -> Result<FilterExpr, ParseError> {
        let mut left = self.parse_filter_unary()?;
        while self.accept_punct("&&")? {
            let right = self.parse_filter_unary()?;
            left = FilterExpr::And(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn parse_filter_unary(&mut self) -> Result<FilterExpr, ParseError> {
        if self.accept_punct("!")? {
            Ok(FilterExpr::Not(Box::new(self.parse_filter_unary()?)))
        } else {
            self.parse_filter_primary()
        }
    }

    fn parse_filter_primary(&mut self) -> Result<FilterExpr, ParseError> {
        if self.accept_keyword("BOUND")? {
            self.expect_punct("(")?;
            let token = self.bump()?;
            let v = match token.kind {
                TokenKind::Variable(v) => v.to_owned(),
                other => {
                    return Err(ParseError {
                        message: format!("BOUND expects a variable, found {other}"),
                        line: token.line,
                        column: token.column,
                    })
                }
            };
            self.expect_punct(")")?;
            return Ok(FilterExpr::Bound(v));
        }
        if self.accept_punct("(")? {
            let inner = self.parse_filter_or()?;
            self.expect_punct(")")?;
            return Ok(inner);
        }
        let left = self.parse_term_pattern(true)?;
        let op = match &self.peek().kind {
            TokenKind::Punct("=") => CompareOp::Eq,
            TokenKind::Punct("!=") => CompareOp::Ne,
            TokenKind::Punct("<") => CompareOp::Lt,
            TokenKind::Punct("<=") => CompareOp::Le,
            TokenKind::Punct(">") => CompareOp::Gt,
            TokenKind::Punct(">=") => CompareOp::Ge,
            other => return Err(self.err_here(format!("expected comparison, found {other}"))),
        };
        self.bump()?;
        let right = self.parse_term_pattern(true)?;
        Ok(FilterExpr::Compare { op, left, right })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdf::namespace::{dc, foaf, ont};

    const PREFIXES: &str = "PREFIX foaf: <http://xmlns.com/foaf/0.1/>\n\
                            PREFIX dc: <http://purl.org/dc/elements/1.1/>\n\
                            PREFIX ont: <http://example.org/ontology#>\n\
                            PREFIX ex: <http://example.org/db/>\n\
                            PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\n";

    fn with_prefixes(body: &str) -> String {
        format!("{PREFIXES}{body}")
    }

    #[test]
    fn parses_listing_9_insert_data() {
        let op = parse_update(&with_prefixes(
            "INSERT DATA {\n\
               ex:author6 foaf:title \"Mr\" ;\n\
                 foaf:firstName \"Matthias\" ;\n\
                 foaf:family_name \"Hert\" ;\n\
                 foaf:mbox <mailto:hert@ifi.uzh.ch> ;\n\
                 ont:team ex:team5 .\n\
             }",
        ))
        .unwrap();
        let UpdateOp::InsertData { triples } = op else {
            panic!("expected INSERT DATA")
        };
        assert_eq!(triples.len(), 5);
        assert!(triples
            .iter()
            .all(|t| t.subject == Term::iri("http://example.org/db/author6")));
        assert!(triples.iter().any(
            |t| t.predicate == foaf::mbox() && t.object == Term::iri("mailto:hert@ifi.uzh.ch")
        ));
    }

    #[test]
    fn parses_listing_17_delete_data() {
        let op = parse_update(&with_prefixes(
            "DELETE DATA { ex:author6 foaf:mbox <mailto:hert@ifi.uzh.ch> . }",
        ))
        .unwrap();
        let UpdateOp::DeleteData { triples } = op else {
            panic!("expected DELETE DATA")
        };
        assert_eq!(triples.len(), 1);
    }

    #[test]
    fn parses_listing_11_modify() {
        let op = parse_update(&with_prefixes(
            "MODIFY\n\
             DELETE { ?x foaf:mbox ?mbox . }\n\
             INSERT { ?x foaf:mbox <mailto:hert@example.com> . }\n\
             WHERE {\n\
               ?x rdf:type foaf:Person ;\n\
                  foaf:firstName \"Matthias\" ;\n\
                  foaf:family_name \"Hert\" ;\n\
                  foaf:mbox ?mbox .\n\
             }",
        ))
        .unwrap();
        let UpdateOp::Modify {
            delete,
            insert,
            pattern,
        } = op
        else {
            panic!("expected MODIFY")
        };
        assert_eq!(delete.len(), 1);
        assert_eq!(insert.len(), 1);
        assert_eq!(pattern.patterns.len(), 4);
        assert_eq!(pattern.variables(), vec!["x", "mbox"]);
    }

    #[test]
    fn sparql11_delete_insert_where_normalizes_to_modify() {
        let op = parse_update(&with_prefixes(
            "DELETE { ?x foaf:mbox ?m . } INSERT { ?x foaf:mbox <mailto:new@x.ch> . } \
             WHERE { ?x foaf:mbox ?m . }",
        ))
        .unwrap();
        assert!(matches!(op, UpdateOp::Modify { .. }));
    }

    #[test]
    fn delete_where_shorthand() {
        let op = parse_update(&with_prefixes("DELETE WHERE { ?x foaf:mbox ?m . }")).unwrap();
        let UpdateOp::Modify {
            delete,
            insert,
            pattern,
        } = op
        else {
            panic!()
        };
        assert_eq!(delete, pattern.patterns);
        assert!(insert.is_empty());
    }

    #[test]
    fn insert_where_form() {
        let op = parse_update(&with_prefixes(
            "INSERT { ?x a foaf:Person . } WHERE { ?x foaf:family_name \"Hert\" . }",
        ))
        .unwrap();
        let UpdateOp::Modify { delete, insert, .. } = op else {
            panic!()
        };
        assert!(delete.is_empty());
        assert_eq!(insert.len(), 1);
        assert_eq!(insert[0].predicate, TermPattern::iri(rdf_type()));
    }

    #[test]
    fn variables_rejected_in_data_blocks() {
        let err = parse_update(&with_prefixes("INSERT DATA { ?x foaf:name \"X\" . }")).unwrap_err();
        assert!(err.message.contains("not allowed"));
    }

    #[test]
    fn parses_select_with_filter() {
        let q = parse_query(&with_prefixes(
            "SELECT DISTINCT ?x ?year WHERE {\n\
               ?x a foaf:Document ;\n\
                  ont:pubYear ?year .\n\
               FILTER (?year >= 2005 && ?year != 2007)\n\
             } LIMIT 10",
        ))
        .unwrap();
        let Query::Select(s) = q else { panic!() };
        assert!(s.distinct);
        assert_eq!(
            s.projection,
            Projection::Variables(vec!["x".into(), "year".into()])
        );
        assert_eq!(s.pattern.patterns.len(), 2);
        assert_eq!(s.pattern.filters.len(), 1);
        assert_eq!(s.limit, Some(10));
    }

    #[test]
    fn parses_select_star_without_where_keyword() {
        let q = parse_query(&with_prefixes("SELECT * { ?s ?p ?o }")).unwrap();
        let Query::Select(s) = q else { panic!() };
        assert_eq!(s.projection, Projection::Star);
        assert_eq!(s.pattern.patterns.len(), 1);
    }

    #[test]
    fn parses_ask() {
        let q = parse_query(&with_prefixes(
            "ASK { ex:author6 foaf:family_name \"Hert\" . }",
        ))
        .unwrap();
        assert!(matches!(q, Query::Ask(_)));
    }

    #[test]
    fn object_lists_and_typed_literals() {
        let op = parse_update(&with_prefixes(
            "INSERT DATA { ex:pub12 dc:title \"a\" , \"b\" ; ont:pubYear \"2009\"^^<http://www.w3.org/2001/XMLSchema#integer> . }",
        ))
        .unwrap();
        let UpdateOp::InsertData { triples } = op else {
            panic!()
        };
        assert_eq!(triples.len(), 3);
        assert!(triples.iter().any(|t| t.predicate == ont::pubYear()
            && t.object == Term::Literal(Literal::typed("2009", xsd::integer()))));
        assert!(triples.iter().any(|t| t.predicate == dc::title()));
    }

    #[test]
    fn undeclared_prefix_is_error() {
        let err = parse_update("INSERT DATA { nope:x nope:y nope:z . }").unwrap_err();
        assert!(err.message.contains("undeclared prefix"));
    }

    #[test]
    fn preloaded_prefixes() {
        let op = parse_update_with_prefixes(
            "INSERT DATA { <http://example.org/db/a1> foaf:name \"N\" . }",
            PrefixMap::common(),
        )
        .unwrap();
        assert!(matches!(op, UpdateOp::InsertData { .. }));
    }

    #[test]
    fn filter_bound_and_not() {
        let q = parse_query(&with_prefixes(
            "SELECT ?x WHERE { ?x foaf:mbox ?m . FILTER (!(?m = <mailto:a@b.c>)) FILTER BOUND(?x) }",
        ))
        .unwrap();
        let Query::Select(s) = q else { panic!() };
        assert_eq!(s.pattern.filters.len(), 2);
        assert!(matches!(s.pattern.filters[0], FilterExpr::Not(_)));
        assert!(matches!(s.pattern.filters[1], FilterExpr::Bound(_)));
    }

    #[test]
    fn missing_where_in_modify_is_error() {
        assert!(parse_update(&with_prefixes(
            "MODIFY DELETE { ?x foaf:mbox ?m . } INSERT { }"
        ))
        .is_err());
    }

    #[test]
    fn literal_subject_rejected() {
        assert!(parse_update(&with_prefixes("INSERT DATA { \"lit\" foaf:name \"X\" . }")).is_err());
    }

    #[test]
    fn trailing_input_rejected() {
        assert!(parse_query(&with_prefixes("ASK { ?s ?p ?o } garbage")).is_err());
    }

    #[test]
    fn blank_nodes_in_data_block() {
        let op = parse_update(&with_prefixes("INSERT DATA { _:b foaf:name \"X\" . }")).unwrap();
        let UpdateOp::InsertData { triples } = op else {
            panic!()
        };
        assert!(triples[0].subject.as_blank().is_some());
    }

    #[test]
    fn modify_with_graph_iri_accepted() {
        let op = parse_update(&with_prefixes(
            "MODIFY <http://example.org/graph> DELETE { ?x foaf:mbox ?m . } INSERT { } WHERE { ?x foaf:mbox ?m . }",
        ))
        .unwrap();
        assert!(matches!(op, UpdateOp::Modify { .. }));
    }

    #[test]
    fn script_with_multiple_operations() {
        let ops = parse_update_script(
            &with_prefixes(
                "INSERT DATA { ex:team9 foaf:name \"A\" . } ;\n\
                 DELETE DATA { ex:team9 foaf:name \"A\" . } ;\n\
                 PREFIX x: <http://example.org/extra#>\n\
                 INSERT DATA { ex:team9 x:note \"n\" . }",
            ),
            PrefixMap::new(),
        )
        .unwrap();
        assert_eq!(ops.len(), 3);
        assert!(matches!(ops[0], UpdateOp::InsertData { .. }));
        assert!(matches!(ops[1], UpdateOp::DeleteData { .. }));
    }

    #[test]
    fn script_single_operation_and_trailing_semicolon() {
        let ops = parse_update_script(
            &with_prefixes("INSERT DATA { ex:team9 foaf:name \"A\" . } ;"),
            PrefixMap::new(),
        )
        .unwrap();
        assert_eq!(ops.len(), 1);
        // Single-op parser also tolerates the trailing semicolon.
        assert!(parse_update(&with_prefixes(
            "INSERT DATA { ex:team9 foaf:name \"A\" . } ;"
        ))
        .is_ok());
    }

    #[test]
    fn empty_script_rejected() {
        assert!(parse_update_script("", PrefixMap::new()).is_err());
        assert!(parse_update_script(
            "PREFIX foaf: <http://xmlns.com/foaf/0.1/>",
            PrefixMap::new()
        )
        .is_err());
    }

    #[test]
    fn empty_templates_allowed() {
        let op = parse_update(&with_prefixes(
            "MODIFY DELETE { } INSERT { ?x foaf:name \"X\" . } WHERE { ?x a foaf:Person . }",
        ))
        .unwrap();
        let UpdateOp::Modify { delete, .. } = op else {
            panic!()
        };
        assert!(delete.is_empty());
    }
}
