//! The read set of one Algorithm 1 translation.
//!
//! Translating `INSERT DATA` / `DELETE DATA` consults the schema, the
//! mapping and the request — and the database only through three
//! per-key lookups, the methods of [`ReadSet`]:
//!
//! * [`ReadSet::row`] — the image of the row a subject denotes, or none
//!   (the existence check that picks an INSERT or an UPDATE plan, and
//!   the row DELETE DATA checks its triples against);
//! * [`ReadSet::exists`] — whether a row with a key exists (an FK or
//!   link object's referent);
//! * [`ReadSet::link`] — whether a link-table row joins two keys
//!   (DELETE DATA of a link triple).
//!
//! Each lookup answers from the database the set was made over and
//! records the answer. Translation is a pure function of the mapping,
//! the schema, the request and these answers, so the statements it
//! produced are exactly what translating against another state of the
//! database would produce whenever [`ReadSet::holds`] there: every
//! recorded lookup, asked again, answers the same. That is the validation phase
//! of optimistic concurrency control (Kung & Robinson, TODS 1981): the
//! mediator translates against a pinned snapshot before the write lock
//! and only re-asks these questions under it.

use crate::error::OntoResult;
use r3m::LinkTableMap;
use rel::{Database, Schema, Value};

// One recorded lookup and the answer translation took from it. Table
// and column names borrow from the schema and the mapping.
#[derive(Debug)]
enum Read<'a> {
    Row {
        table: &'a str,
        pk: Vec<Value>,
        image: Option<Vec<Value>>,
    },
    Exists {
        table: &'a str,
        pk: Vec<Value>,
        exists: bool,
    },
    Link {
        link: &'a LinkTableMap,
        subject: Value,
        object: Value,
        exists: bool,
    },
}

/// A translation's view of one database: it answers the lookups from
/// that database and records every answer it gave.
#[derive(Debug)]
pub struct ReadSet<'a> {
    db: &'a Database,
    reads: Vec<Read<'a>>,
}

impl<'a> ReadSet<'a> {
    /// An empty read set answering from `db`.
    pub fn new(db: &'a Database) -> Self {
        ReadSet {
            db,
            reads: Vec::new(),
        }
    }

    /// The schema of the database the lookups answer from. Nothing else
    /// of that database is exposed: a new kind of read has to become a
    /// lookup of its own, recorded and re-asked by [`ReadSet::holds`].
    pub fn schema(&self) -> &'a Schema {
        self.db.schema()
    }

    /// The image of the row of `table` whose primary key is `pk`, if
    /// any, recorded.
    pub fn row(&mut self, table: &'a str, pk: Vec<Value>) -> OntoResult<Option<Vec<Value>>> {
        let image = row_of(self.db, table, &pk)?.cloned();
        self.reads.push(Read::Row {
            table,
            pk,
            image: image.clone(),
        });
        Ok(image)
    }

    /// Whether a row of `table` has primary key `pk`, recorded.
    pub fn exists(&mut self, table: &'a str, pk: &[Value]) -> OntoResult<bool> {
        let exists = self.db.find_by_pk(table, pk)?.is_some();
        self.reads.push(Read::Exists {
            table,
            pk: pk.to_vec(),
            exists,
        });
        Ok(exists)
    }

    /// Whether a row of `link` joins `subject` to `object`, recorded.
    pub fn link(
        &mut self,
        link: &'a LinkTableMap,
        subject: Value,
        object: Value,
    ) -> OntoResult<bool> {
        let exists = link_exists(self.db, link, subject, object)?;
        self.reads.push(Read::Link {
            link,
            subject,
            object,
            exists,
        });
        Ok(exists)
    }

    /// Ask every recorded lookup again against `db` — another state of
    /// the database the set was recorded from — in recording
    /// order, stopping at the first that answers differently. Returns
    /// how many were asked and whether all answered as recorded.
    /// Values compare by identity (interned symbol, double bits), the
    /// way the statements carry them.
    pub fn holds(&self, db: &Database) -> OntoResult<(usize, bool)> {
        for (asked, read) in self.reads.iter().enumerate() {
            let same = match read {
                Read::Row { table, pk, image } => match (row_of(db, table, pk)?, image) {
                    (None, None) => true,
                    (Some(now), Some(then)) => identical(now, then),
                    _ => false,
                },
                Read::Exists { table, pk, exists } => {
                    db.find_by_pk(table, pk)?.is_some() == *exists
                }
                Read::Link {
                    link,
                    subject,
                    object,
                    exists,
                } => link_exists(db, link, *subject, *object)? == *exists,
            };
            if !same {
                return Ok((asked + 1, false));
            }
        }
        Ok((self.reads.len(), true))
    }
}

fn row_of<'d>(db: &'d Database, table: &str, pk: &[Value]) -> OntoResult<Option<&'d Vec<Value>>> {
    Ok(match db.find_by_pk(table, pk)? {
        Some(id) => db.row(table, id)?,
        None => None,
    })
}

fn identical(a: &[Value], b: &[Value]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.index_key() == y.index_key())
}

// The link row must exist for DELETE DATA to remove it. The subject
// column is a FK column and therefore hash-indexed: resolve its
// candidates by index and check the object side only on those, instead
// of scanning the whole link table per triple.
fn link_exists(db: &Database, link: &LinkTableMap, s: Value, o: Value) -> OntoResult<bool> {
    let table = db.schema().table(&link.table_name)?;
    let s_column = &link.subject_attribute.attribute_name;
    let s_idx = table.column_index(s_column).expect("validated mapping");
    let o_idx = table
        .column_index(&link.object_attribute.attribute_name)
        .expect("validated mapping");
    let links = |row: &[Value]| row[o_idx].sql_eq(&o) == Some(true);
    let Some(ids) = db.index_probe(&link.table_name, s_column, &s)? else {
        return Ok(db
            .scan(&link.table_name)?
            .any(|(_, row)| row[s_idx].sql_eq(&s) == Some(true) && links(row)));
    };
    for id in ids {
        if links(db.row(&link.table_name, id)?.expect("probe id is live")) {
            return Ok(true);
        }
    }
    Ok(false)
}
