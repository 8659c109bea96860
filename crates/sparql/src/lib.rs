//! SPARQL and SPARQL/Update front end for the OntoAccess reproduction
//! (Hert, Reif, Gall: *Updating Relational Data via SPARQL/Update*,
//! EDBT 2010).
//!
//! Implements the fragment the paper needs: `SELECT`/`ASK` queries over
//! basic graph patterns with `FILTER`, and the three update operations of
//! the 2008 SPARQL/Update member submission — `INSERT DATA`,
//! `DELETE DATA`, and `MODIFY` (paper Listings 6-8) — plus the SPARQL 1.1
//! `DELETE/INSERT … WHERE` spellings normalized to `MODIFY`.
//!
//! [`eval`] and [`update`] implement *native triple store* semantics over
//! an [`rdf::Graph`]: the baseline the paper contrasts against (§3) and
//! the reference semantics for OntoAccess's correctness properties.

#![warn(missing_docs)]

pub mod ast;
pub mod eval;
pub mod lexer;
pub mod parser;
pub mod update;

pub use ast::{
    AskQuery, CompareOp, FilterExpr, GroupPattern, Projection, Query, SelectQuery, TermPattern,
    TriplePattern, UpdateOp, UpdateScript, Variable,
};
pub use eval::{
    evaluate, evaluate_ask, evaluate_select, match_group, Binding, QueryOutcome, Solutions,
};
pub use parser::{
    parse_query, parse_query_with_prefixes, parse_update, parse_update_script,
    parse_update_with_prefixes, ParseError,
};
pub use update::{apply, instantiate, instantiate_all, UpdateError, UpdateStats};
