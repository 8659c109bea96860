//! OntoAccess — ontology-based **write** access to relational databases
//! via SPARQL/Update, reproducing Hert, Reif, Gall: *Updating Relational
//! Data via SPARQL/Update* (EDBT 2010).
//!
//! The mediator translates SPARQL/Update operations into SQL DML using
//! an update-aware R3M mapping and executes them transactionally:
//!
//! * [`translate`] — Algorithm 1: `INSERT DATA` / `DELETE DATA` → SQL
//! * [`modify`] — Algorithm 2: `MODIFY` → SELECT + per-binding DATA ops
//! * [`query`] — SPARQL `SELECT`/`ASK` → SQL (needed by Algorithm 2,
//!   and the read path of the endpoint)
//! * [`mod@materialize`] — the virtual RDF view of the database
//! * [`convert`] — the one cell ⇄ term [`Codec`] that [`translate`],
//!   [`query`] and [`mod@materialize`] convert through
//! * [`feedback`] — the semantically rich feedback protocol (§3/§8)
//! * [`mediator`] — the concurrent mediator core: a shared [`Mediator`]
//!   handing out [`ReadSession`]s and [`WriteTxn`]s
//! * [`usecase`] — the paper's publication use case (Figs. 1-2, Table 1)
//!
//! # Example
//!
//! One shared mediator; writes go through an exclusive transaction,
//! which a rejected operation rolls back whole, reads through cheap
//! `Send + Sync` sessions:
//!
//! ```
//! use ontoaccess::{usecase, Mediator};
//!
//! let mediator = Mediator::new(usecase::database(), usecase::mapping()).unwrap();
//!
//! // Write: one transaction, all-or-nothing; after a rejection only
//! // `rollback` is accepted.
//! let mut txn = mediator.write();
//! txn.update(
//!     "INSERT DATA { ex:team4 foaf:name \"Database Technology\" ; \
//!      ont:teamCode \"DBTG\" . }",
//! )
//! .unwrap();
//! txn.commit().unwrap();
//!
//! // Read: any number of sessions, `&self`, in parallel.
//! let session = mediator.read();
//! let sols = session
//!     .select("SELECT ?code WHERE { ex:team4 ont:teamCode ?code . }")
//!     .unwrap();
//! assert_eq!(sols.len(), 1);
//! ```

#![warn(missing_docs)]
// Rejections are this system's *product* (the feedback protocol turns
// them into client-facing RDF documents), so OntoError deliberately
// carries rich payloads; boxing every error would buy nothing here.
#![allow(clippy::result_large_err)]

pub mod convert;
pub mod error;
pub mod feedback;
pub mod materialize;
pub mod mediator;
pub mod modify;
pub mod query;
pub mod translate;
pub mod usecase;

mod testutil;

// Request-level tests of the paper's §6 endpoint, through `Mediator`.
#[cfg(test)]
#[path = "endpoint_tests.rs"]
mod endpoint;

pub use convert::Codec;
pub use error::{OntoError, OntoResult};
pub use feedback::Feedback;
pub use materialize::materialize;
pub use mediator::{
    CacheProbe, ConcurrencyStats, DatabaseReadGuard, DatabaseVersion, Mediator, QueryCacheStats,
    QueryExplain, QueryProfile, QueryRun, QueryStop, ReadSession, ScriptError, UpdateOutcome,
    UpdateProfile, WriteTxn,
};
pub use modify::{
    execute_modify, execute_modify_reference, execute_update_op, execute_update_op_reference,
    ModifyReport,
};
pub use query::{
    compile_select, ensure_join_indexes, execute_query, execute_select, run_compiled,
    CompiledQuery, QueryAnswer, SolutionRows,
};
pub use translate::{
    emit_grouped, emit_per_row, execute_sorted, execute_sorted_reference, execute_sorted_timed,
    group_by_subject, identify, ExecutionReport, RowOp, TranslateOptions,
};
