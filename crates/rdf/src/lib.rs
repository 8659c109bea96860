//! RDF substrate for the OntoAccess reproduction (Hert, Reif, Gall:
//! *Updating Relational Data via SPARQL/Update*, EDBT 2010).
//!
//! Provides the RDF 1.0 term model ([`Iri`], [`Literal`], [`BlankNode`],
//! [`Term`], [`Triple`]), an indexed in-memory [`Graph`], well-known
//! vocabularies including the paper's R3M mapping vocabulary
//! ([`namespace`]), and Turtle / N-Triples I/O ([`turtle`], [`ntriples`]).
//!
//! The paper's Java prototype relied on a Jena-style RDF stack; this crate
//! is its from-scratch Rust replacement, sized to exactly what the
//! mediator, the R3M mapping loader, and the native triple store baseline
//! need.

#![warn(missing_docs)]

pub mod graph;
pub mod iri;
pub mod literal;
pub mod namespace;
pub mod ntriples;
pub mod term;
pub mod triple;

/// Turtle parsing and serialization.
pub mod turtle {
    pub mod lexer;
    pub mod parser;
    pub mod writer;

    pub use lexer::{LexError, Lexer, Token, TokenKind};
    pub use parser::{parse, parse_with_prefixes, ParseError};
    pub use writer::{render_iri, render_literal, render_term, write};
}

pub use graph::Graph;
pub use iri::{Iri, IriParseError};
pub use literal::{Literal, LiteralKind};
pub use namespace::PrefixMap;
pub use term::{BlankNode, LiteralKindRef, Term, TermRef};
pub use triple::Triple;
