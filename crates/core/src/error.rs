//! The mediator's error type.
//!
//! Every rejection reason is a distinct, data-carrying variant because
//! the paper's feedback protocol (§3, §8) promises "semantically rich
//! feedback": the cause of a rejection and directions for improvement,
//! in a machine-readable format. [`crate::feedback`] turns these
//! variants into RDF documents.

use rdf::{Iri, Term};
use std::fmt;

/// Convenience result alias.
pub type OntoResult<T> = Result<T, OntoError>;

/// Everything the mediator can reject or fail on.
#[derive(Debug, Clone, PartialEq)]
pub enum OntoError {
    /// The SPARQL/Update or SPARQL text did not parse.
    Parse {
        /// Parser message with position.
        message: String,
    },
    /// A subject URI matches no TableMap URI pattern (Algorithm 1,
    /// step 2 failure).
    UnknownSubject {
        /// The unidentifiable subject.
        subject: Term,
    },
    /// Blank node subjects cannot be mapped to rows (no primary key can
    /// be derived).
    BlankNodeSubject {
        /// The blank node label.
        label: String,
    },
    /// A property is not mapped for the subject's table (and is no link
    /// table property either).
    UnknownProperty {
        /// The unmapped property.
        property: Iri,
        /// Table identified for the subject.
        table: String,
    },
    /// An `rdf:type` triple names a class that differs from the class
    /// the subject's table maps to.
    ClassMismatch {
        /// Table identified for the subject.
        table: String,
        /// Class the table maps to.
        expected: Iri,
        /// Class in the request.
        found: Term,
    },
    /// A literal/IRI object cannot be stored in the mapped attribute
    /// (type error, or literal where an instance IRI is required and
    /// vice versa).
    ValueIncompatible {
        /// Target table.
        table: String,
        /// Target attribute.
        attribute: String,
        /// Offending object term.
        value: Term,
        /// Why it does not fit.
        reason: String,
    },
    /// An object-property object does not identify a row of the
    /// referenced table.
    DanglingObject {
        /// Referencing table.
        table: String,
        /// Referencing attribute.
        attribute: String,
        /// Expected referenced table.
        expected_table: String,
        /// The object term.
        object: Term,
    },
    /// INSERT DATA for a new entity lacks a property whose attribute is
    /// NOT NULL without default (§5: "a triple must be present containing
    /// a property for every corresponding database attribute that has a
    /// NotNull constraint but no Default value").
    MissingRequiredProperty {
        /// Target table.
        table: String,
        /// The NOT NULL attribute.
        attribute: String,
        /// The property that must be supplied, if the attribute is
        /// mapped to one.
        property: Option<Iri>,
    },
    /// INSERT DATA supplies a second, different value for an attribute
    /// that is already set — a tuple holds one value per attribute, so
    /// the triple-level insert has no relational counterpart.
    AttributeAlreadySet {
        /// Target table.
        table: String,
        /// The attribute.
        attribute: String,
        /// Value currently stored (rendered).
        existing: String,
        /// Value in the request.
        requested: Term,
    },
    /// DELETE DATA names a triple that is not present in the (virtual)
    /// RDF view of the database.
    TripleNotPresent {
        /// Target table.
        table: String,
        /// Explanation (attribute and value comparison).
        detail: String,
    },
    /// DELETE DATA would set a NOT NULL attribute to NULL without
    /// removing the whole row.
    NotNullDelete {
        /// Target table.
        table: String,
        /// The protected attribute.
        attribute: String,
    },
    /// DELETE DATA removes the `rdf:type` triple while keeping other
    /// data — entities cannot lose their class membership in the
    /// relational model without being deleted.
    CannotRemoveType {
        /// Target table.
        table: String,
    },
    /// The SPARQL fragment is outside what the translation supports
    /// (e.g. a predicate variable over unmapped space).
    Unsupported {
        /// Explanation.
        message: String,
    },
    /// A WHERE-clause subject variable cannot be resolved to exactly one
    /// table.
    AmbiguousPattern {
        /// The variable.
        variable: String,
        /// Candidate tables (empty = none).
        candidates: Vec<String>,
    },
    /// The database engine rejected a translated statement (constraint
    /// violation the early check could not see, e.g. concurrent state).
    Database(rel::RelError),
    /// The durability layer failed to persist a commit (WAL append or
    /// fsync error, poisoned log). The transaction was rolled back (or,
    /// for a post-commit fsync failure, its durability cannot be
    /// acknowledged); the request itself is fine and may be retried
    /// once the storage fault is resolved. Also a commit sequence out
    /// of order — a replicated unit or base at or below the current
    /// version — which publishes nothing.
    Storage {
        /// What the durability layer reported.
        message: String,
    },
    /// This mediator is a read replica: it applies the leader's WAL and
    /// accepts no local writes (the one-durable-writer topology). The
    /// request itself may be valid — resend it to the leader.
    ReadOnlyReplica {
        /// Address of the leader that accepts writes.
        leader: String,
    },
}

impl fmt::Display for OntoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OntoError::Parse { message } => write!(f, "parse error: {message}"),
            OntoError::UnknownSubject { subject } => write!(
                f,
                "subject {subject} matches no URI pattern of the mapping"
            ),
            OntoError::BlankNodeSubject { label } => write!(
                f,
                "blank node subject _:{label} cannot be mapped to a database row"
            ),
            OntoError::UnknownProperty { property, table } => write!(
                f,
                "property {property} is not mapped for table {table:?}"
            ),
            OntoError::ClassMismatch {
                table,
                expected,
                found,
            } => write!(
                f,
                "rdf:type {found} conflicts with table {table:?} (maps to {expected})"
            ),
            OntoError::ValueIncompatible {
                table,
                attribute,
                value,
                reason,
            } => write!(
                f,
                "value {value} does not fit {table}.{attribute}: {reason}"
            ),
            OntoError::DanglingObject {
                table,
                attribute,
                expected_table,
                object,
            } => write!(
                f,
                "object {object} of {table}.{attribute} does not identify a row of {expected_table:?}"
            ),
            OntoError::MissingRequiredProperty {
                table,
                attribute,
                property,
            } => match property {
                Some(p) => write!(
                    f,
                    "insert into {table:?} lacks required property {p} ({table}.{attribute} is NOT NULL without default)"
                ),
                None => write!(
                    f,
                    "insert into {table:?} lacks a value for {table}.{attribute} (NOT NULL without default, not derivable from the subject URI)"
                ),
            },
            OntoError::AttributeAlreadySet {
                table,
                attribute,
                existing,
                requested,
            } => write!(
                f,
                "{table}.{attribute} already holds {existing}; inserting {requested} would need a multi-valued attribute"
            ),
            OntoError::TripleNotPresent { table, detail } => {
                write!(f, "triple not present in table {table:?}: {detail}")
            }
            OntoError::NotNullDelete { table, attribute } => write!(
                f,
                "cannot delete value of {table}.{attribute}: attribute is NOT NULL (delete the whole entity instead)"
            ),
            OntoError::CannotRemoveType { table } => write!(
                f,
                "cannot remove the rdf:type triple of a {table:?} row while keeping its data"
            ),
            OntoError::Unsupported { message } => write!(f, "unsupported request: {message}"),
            OntoError::AmbiguousPattern {
                variable,
                candidates,
            } => {
                if candidates.is_empty() {
                    write!(
                        f,
                        "variable ?{variable} cannot be resolved to any mapped table"
                    )
                } else {
                    write!(
                        f,
                        "variable ?{variable} is ambiguous over tables {candidates:?}; add an rdf:type pattern"
                    )
                }
            }
            OntoError::Database(e) => write!(f, "database error: {e}"),
            OntoError::Storage { message } => write!(f, "durable storage error: {message}"),
            OntoError::ReadOnlyReplica { leader } => write!(
                f,
                "this endpoint is a read replica of {leader}; it accepts no writes"
            ),
        }
    }
}

impl std::error::Error for OntoError {}

impl From<rel::RelError> for OntoError {
    fn from(e: rel::RelError) -> Self {
        OntoError::Database(e)
    }
}

impl From<sparql::ParseError> for OntoError {
    fn from(e: sparql::ParseError) -> Self {
        OntoError::Parse {
            message: e.to_string(),
        }
    }
}

impl From<dur::DurError> for OntoError {
    fn from(e: dur::DurError) -> Self {
        OntoError::Storage {
            message: e.to_string(),
        }
    }
}

impl OntoError {
    /// Stable machine-readable code for the feedback protocol.
    pub fn code(&self) -> &'static str {
        match self {
            OntoError::Parse { .. } => "ParseError",
            OntoError::UnknownSubject { .. } => "UnknownSubject",
            OntoError::BlankNodeSubject { .. } => "BlankNodeSubject",
            OntoError::UnknownProperty { .. } => "UnknownProperty",
            OntoError::ClassMismatch { .. } => "ClassMismatch",
            OntoError::ValueIncompatible { .. } => "ValueIncompatible",
            OntoError::DanglingObject { .. } => "DanglingObject",
            OntoError::MissingRequiredProperty { .. } => "MissingRequiredProperty",
            OntoError::AttributeAlreadySet { .. } => "AttributeAlreadySet",
            OntoError::TripleNotPresent { .. } => "TripleNotPresent",
            OntoError::NotNullDelete { .. } => "NotNullDelete",
            OntoError::CannotRemoveType { .. } => "CannotRemoveType",
            OntoError::Unsupported { .. } => "Unsupported",
            OntoError::AmbiguousPattern { .. } => "AmbiguousPattern",
            OntoError::Database(_) => "DatabaseError",
            OntoError::Storage { .. } => "StorageError",
            OntoError::ReadOnlyReplica { .. } => "ReadOnlyReplica",
        }
    }

    /// A human-readable hint on how to fix the request (the "directions
    /// for improvement" the paper's feedback protocol promises).
    pub fn hint(&self) -> Option<String> {
        match self {
            OntoError::UnknownSubject { .. } => {
                Some("use an instance URI built from a TableMap uriPattern of this mapping".into())
            }
            OntoError::MissingRequiredProperty { property, .. } => property
                .as_ref()
                .map(|p| format!("add a triple with property {p} to the request")),
            OntoError::NotNullDelete { .. } => {
                Some("delete every remaining triple of the entity to remove the whole row".into())
            }
            OntoError::AmbiguousPattern { .. } => {
                Some("add an rdf:type triple pattern for the variable".into())
            }
            OntoError::AttributeAlreadySet { .. } => {
                Some("use MODIFY (DELETE/INSERT) to replace the existing value".into())
            }
            OntoError::ReadOnlyReplica { leader } => {
                Some(format!("send the update to the leader at {leader}"))
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_distinct_for_distinct_variants() {
        let a = OntoError::Unsupported {
            message: "x".into(),
        };
        let b = OntoError::Parse {
            message: "x".into(),
        };
        assert_ne!(a.code(), b.code());
    }

    #[test]
    fn display_mentions_payload() {
        let e = OntoError::UnknownProperty {
            property: rdf::namespace::foaf::mbox(),
            table: "author".into(),
        };
        let msg = e.to_string();
        assert!(msg.contains("mbox"));
        assert!(msg.contains("author"));
    }

    #[test]
    fn hints_exist_for_actionable_errors() {
        let e = OntoError::MissingRequiredProperty {
            table: "author".into(),
            attribute: "lastname".into(),
            property: Some(rdf::namespace::foaf::family_name()),
        };
        assert!(e.hint().unwrap().contains("family_name"));
    }
}
