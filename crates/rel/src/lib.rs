//! In-memory relational database engine — the RDB substrate of the
//! OntoAccess reproduction (Hert, Reif, Gall: *Updating Relational Data
//! via SPARQL/Update*, EDBT 2010).
//!
//! The paper ran against MySQL over JDBC; this crate replaces it with a
//! from-scratch engine reproducing the two behaviours the paper's
//! translation algorithms depend on:
//!
//! 1. **Declared integrity constraints are enforced** — PRIMARY KEY,
//!    FOREIGN KEY, NOT NULL, DEFAULT, and UNIQUE (the constraint kinds
//!    R3M records, §4).
//! 2. **Constraints are checked immediately, during a transaction** —
//!    which is why Algorithm 1 (§5.1) must sort generated statements by
//!    foreign-key dependencies before executing them.
//!
//! Layers: typed values ([`value`]), schema ([`schema`]), storage with PK
//! and unique indexes ([`storage`]), the transactional [`Database`], and
//! a SQL DML front end ([`sql`]) with parser, printer (paper-listing
//! style), and executor.

#![warn(missing_docs)]

pub mod database;
pub mod dict;
pub mod error;
pub mod pmap;
pub mod schema;
pub mod storage;
pub mod value;

/// SQL DML: AST, parser, printer, executor.
pub mod sql {
    pub mod ast;
    pub mod exec;
    pub mod parser;
    pub mod printer;

    pub use ast::{
        BinOp, BulkRow, BulkUpdateStmt, ColumnRef, DeleteStmt, Expr, InsertStmt, SelectItem,
        SelectStmt, Statement, TableRef, UpdateStmt,
    };
    pub use exec::{
        eval, eval_on_row, execute, execute_plan, execute_select, execute_select_reference,
        execute_sql, plan_select, Access, ExecOutcome, FlatRows, LevelColumn, PlanLevel, ResultSet,
        SelectPlan,
    };
    pub use parser::{parse, parse_script};
}

pub use database::{Database, LogicalOp, ProbeIds};
pub use dict::{dictionary_stats, DictionaryStats, Sym};
pub use error::{RelError, RelResult};
pub use pmap::PMap;
pub use schema::{Check, Column, ForeignKey, Schema, Table, TableBuilder};
pub use storage::{RowId, TableData};
pub use value::{IndexKey, SqlType, Value};
