//! Materialize the database's virtual RDF view as a concrete graph.
//!
//! R3M defines how "each row in a database table is mapped to a set of
//! RDF triples" (§4): one `rdf:type` triple identifying the instance,
//! one triple per non-NULL attribute, and one triple per link-table row.
//! This module executes that reading over a whole database — the dump a
//! read-only RDB2RDF tool (D2R-style) would publish, and the reference
//! point of the semantic-equivalence property: an OntoAccess update
//! followed by materialization equals materialization followed by a
//! native triple store update.

use crate::convert::{value_to_pattern, value_to_term};
use crate::error::{OntoError, OntoResult};
use r3m::{Mapping, PropertyMapping, TableMap};
use rdf::namespace::rdf_type;
use rdf::{Graph, Iri, Term, Triple};
use rel::{Database, Value};

/// Materialize the whole database as RDF.
pub fn materialize(db: &Database, mapping: &Mapping) -> OntoResult<Graph> {
    let mut graph = Graph::new();
    for table_map in &mapping.tables {
        let table = db.schema().table(&table_map.table_name)?;
        for (_, row) in db.scan(&table_map.table_name)? {
            let subject = instance_uri(mapping, table_map, table, row)?;
            emit_row(&mut graph, mapping, table_map, table, row, &subject)?;
        }
    }
    for link in &mapping.link_tables {
        let table = db.schema().table(&link.table_name)?;
        let s_idx = table
            .column_index(&link.subject_attribute.attribute_name)
            .ok_or_else(|| OntoError::Unsupported {
                message: format!("link table {:?}: bad subject attribute", link.table_name),
            })?;
        let o_idx = table
            .column_index(&link.object_attribute.attribute_name)
            .ok_or_else(|| OntoError::Unsupported {
                message: format!("link table {:?}: bad object attribute", link.table_name),
            })?;
        let subject_target = link
            .subject_attribute
            .foreign_key_target()
            .and_then(|id| mapping.table_by_id(id))
            .ok_or_else(|| OntoError::Unsupported {
                message: format!(
                    "link table {:?}: unresolved subject target",
                    link.table_name
                ),
            })?;
        let object_target = link
            .object_attribute
            .foreign_key_target()
            .and_then(|id| mapping.table_by_id(id))
            .ok_or_else(|| OntoError::Unsupported {
                message: format!("link table {:?}: unresolved object target", link.table_name),
            })?;
        for (_, row) in db.scan(&link.table_name)? {
            let (s_val, o_val) = (&row[s_idx], &row[o_idx]);
            if s_val.is_null() || o_val.is_null() {
                continue;
            }
            let s = key_instance_uri(mapping, subject_target, s_val)?;
            let o = key_instance_uri(mapping, object_target, o_val)?;
            graph.insert(Triple::new(
                Term::Iri(s),
                link.property.clone(),
                Term::Iri(o),
            ));
        }
    }
    Ok(graph)
}

/// Materialize a single row (used by the endpoint's describe feature).
pub fn materialize_row(
    db: &Database,
    mapping: &Mapping,
    table_map: &TableMap,
    row: &[Value],
) -> OntoResult<Graph> {
    let table = db.schema().table(&table_map.table_name)?;
    let subject = instance_uri(mapping, table_map, table, row)?;
    let mut graph = Graph::new();
    emit_row(&mut graph, mapping, table_map, table, row, &subject)?;
    Ok(graph)
}

fn emit_row(
    graph: &mut Graph,
    mapping: &Mapping,
    table_map: &TableMap,
    table: &rel::Table,
    row: &[Value],
    subject: &Iri,
) -> OntoResult<()> {
    graph.insert(Triple::new(
        Term::Iri(subject.clone()),
        rdf_type(),
        Term::Iri(table_map.class.clone()),
    ));
    for attr in &table_map.attributes {
        let Some(property) = &attr.property else {
            continue;
        };
        let idx =
            table
                .column_index(&attr.attribute_name)
                .ok_or_else(|| OntoError::Unsupported {
                    message: format!(
                        "mapped attribute {}.{} missing",
                        table.name, attr.attribute_name
                    ),
                })?;
        let value = &row[idx];
        if value.is_null() {
            continue;
        }
        let object: Term = match property {
            PropertyMapping::Data(_) => value_to_term(value).expect("non-null value has a term"),
            PropertyMapping::Object(_) => {
                if let Some(pattern) = &attr.value_pattern {
                    let raw = value_to_pattern(value).expect("non-null");
                    let uri = pattern
                        .generate(None, &|name| {
                            (name == attr.attribute_name).then(|| raw.clone())
                        })
                        .map_err(|e| OntoError::Unsupported {
                            message: format!(
                                "value pattern of {}.{}: {e}",
                                table.name, attr.attribute_name
                            ),
                        })?;
                    Term::Iri(Iri::parse(uri).map_err(|e| OntoError::Unsupported {
                        message: e.to_string(),
                    })?)
                } else {
                    let target = attr
                        .foreign_key_target()
                        .and_then(|id| mapping.table_by_id(id))
                        .ok_or_else(|| OntoError::Unsupported {
                            message: format!(
                                "object property on {}.{} lacks FK target",
                                table.name, attr.attribute_name
                            ),
                        })?;
                    Term::Iri(key_instance_uri(mapping, target, value)?)
                }
            }
        };
        graph.insert(Triple::new(
            Term::Iri(subject.clone()),
            property.property().clone(),
            object,
        ));
    }
    Ok(())
}

/// Instance URI of a row (pattern attributes looked up in the row).
pub fn instance_uri(
    mapping: &Mapping,
    table_map: &TableMap,
    table: &rel::Table,
    row: &[Value],
) -> OntoResult<Iri> {
    mapping
        .instance_uri(table_map, &|attr| {
            table
                .column_index(attr)
                .and_then(|idx| value_to_pattern(&row[idx]))
        })
        .map_err(|e| OntoError::Unsupported {
            message: format!("cannot build instance URI for {}: {e}", table.name),
        })
}

/// Instance URI of the row of `target` whose single-column key is
/// `key` — used for FK objects and link-table endpoints, where only the
/// key value is at hand.
pub fn key_instance_uri(mapping: &Mapping, target: &TableMap, key: &Value) -> OntoResult<Iri> {
    let raw = value_to_pattern(key).ok_or_else(|| OntoError::Unsupported {
        message: "NULL key".into(),
    })?;
    mapping
        .instance_uri(target, &|_| Some(raw.clone()))
        .map_err(|e| OntoError::Unsupported {
            message: format!("cannot build instance URI for {}: {e}", target.table_name),
        })
}

// DESCRIBE one instance URI over a snapshot: the row's triples plus its
// link-table triples in either role (behind `ReadSession::describe`).
pub(crate) fn describe(db: &Database, mapping: &Mapping, uri: &Iri) -> OntoResult<Graph> {
    let subject = Term::Iri(uri.clone());
    let identified = crate::translate::identify(db, mapping, &subject)?;
    let table = db.schema().table(&identified.table_map.table_name)?;
    let Some(row_id) = crate::translate::find_row(db, &identified)? else {
        return Ok(Graph::new()); // mapped but absent: empty description
    };
    let row = db
        .row(&identified.table_map.table_name, row_id)?
        .expect("row id valid")
        .clone();
    let mut graph = materialize_row(db, mapping, identified.table_map, &row)?;
    // Link-table triples where this instance is subject or object.
    let key = identified.pk_values(table)?;
    if key.len() == 1 {
        let key = &key[0];
        for link in &mapping.link_tables {
            let link_table = db.schema().table(&link.table_name)?;
            let s_idx = link_table
                .column_index(&link.subject_attribute.attribute_name)
                .expect("validated mapping");
            let o_idx = link_table
                .column_index(&link.object_attribute.attribute_name)
                .expect("validated mapping");
            let s_target = link
                .subject_attribute
                .foreign_key_target()
                .and_then(|id| mapping.table_by_id(id));
            let o_target = link
                .object_attribute
                .foreign_key_target()
                .and_then(|id| mapping.table_by_id(id));
            let (Some(s_target), Some(o_target)) = (s_target, o_target) else {
                continue;
            };
            let as_subject = s_target.table_name == identified.table_map.table_name;
            let as_object = o_target.table_name == identified.table_map.table_name;
            // Candidate link rows by index on whichever endpoint
            // columns reference this instance (both are FK columns,
            // so normally indexed); a failed probe falls back to
            // scanning.
            let mut candidates: Option<Vec<rel::RowId>> = Some(Vec::new());
            for (role_active, column) in [
                (as_subject, &link.subject_attribute.attribute_name),
                (as_object, &link.object_attribute.attribute_name),
            ] {
                if !role_active {
                    continue;
                }
                match db.index_probe(&link.table_name, column, key)? {
                    Some(ids) => {
                        if let Some(c) = &mut candidates {
                            c.extend(ids);
                        }
                    }
                    None => candidates = None,
                }
            }
            let link_rows: Vec<&Vec<rel::Value>> = match candidates {
                Some(mut ids) => {
                    ids.sort_unstable();
                    ids.dedup();
                    let mut rows = Vec::with_capacity(ids.len());
                    for id in ids {
                        rows.push(db.row(&link.table_name, id)?.expect("live id"));
                    }
                    rows
                }
                None => db.scan(&link.table_name)?.map(|(_, r)| r).collect(),
            };
            for link_row in link_rows {
                let s_val = &link_row[s_idx];
                let o_val = &link_row[o_idx];
                if s_val.is_null() || o_val.is_null() {
                    continue;
                }
                let relevant = (as_subject && s_val.sql_eq(key) == Some(true))
                    || (as_object && o_val.sql_eq(key) == Some(true));
                if relevant {
                    let s = key_instance_uri(mapping, s_target, s_val)?;
                    let o = key_instance_uri(mapping, o_target, o_val)?;
                    graph.insert(Triple::new(
                        Term::Iri(s),
                        link.property.clone(),
                        Term::Iri(o),
                    ));
                }
            }
        }
    }
    Ok(graph)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::fixture_db_with_rows;
    use rdf::namespace::{dc, foaf, ont};

    #[test]
    fn materializes_rows_links_and_types() {
        let (db, mapping) = fixture_db_with_rows();
        let g = materialize(&db, &mapping).unwrap();
        let author6 = Term::iri("http://example.org/db/author6");
        // Type triple.
        assert_eq!(
            g.object(&author6, &rdf_type()),
            Some(Term::Iri(foaf::Person()))
        );
        // Data attribute.
        assert_eq!(
            g.object(&author6, &foaf::family_name()),
            Some(Term::plain("Hert"))
        );
        // Derived-IRI attribute (mbox).
        assert_eq!(
            g.object(&author6, &foaf::mbox()),
            Some(Term::iri("mailto:hert@ifi.uzh.ch"))
        );
        // FK object attribute.
        assert_eq!(
            g.object(&author6, &ont::team()),
            Some(Term::iri("http://example.org/db/team5"))
        );
        // Link table row.
        assert!(g.contains(&Triple::new(
            Term::iri("http://example.org/db/pub1"),
            dc::creator(),
            author6,
        )));
    }

    #[test]
    fn null_attributes_produce_no_triples() {
        let (db, mapping) = fixture_db_with_rows();
        let g = materialize(&db, &mapping).unwrap();
        // author7 (Reif) has no email/title.
        let author7 = Term::iri("http://example.org/db/author7");
        assert_eq!(g.object(&author7, &foaf::mbox()), None);
        assert_eq!(g.object(&author7, &foaf::title()), None);
        assert_eq!(
            g.object(&author7, &foaf::firstName()),
            Some(Term::plain("Gerald"))
        );
    }

    #[test]
    fn typed_column_values_materialize_as_typed_literals() {
        let (db, mapping) = fixture_db_with_rows();
        let g = materialize(&db, &mapping).unwrap();
        let pub1 = Term::iri("http://example.org/db/pub1");
        assert_eq!(
            g.object(&pub1, &ont::pubYear()),
            Some(Term::Literal(rdf::Literal::integer(2009)))
        );
        assert_eq!(
            g.object(&pub1, &ont::pubType()),
            Some(Term::iri("http://example.org/db/pubtype4"))
        );
    }

    #[test]
    fn empty_database_materializes_empty() {
        let (db, mapping) = crate::testutil::endpoint_fixture();
        assert!(materialize(&db, &mapping).unwrap().is_empty());
    }

    #[test]
    fn triple_count_matches_row_contents() {
        let (db, mapping) = fixture_db_with_rows();
        let g = materialize(&db, &mapping).unwrap();
        // team4: type+name+code=3, team5: 3, author6: type+5 attrs=6,
        // author7: type+firstname+lastname+team=4, pubtype4: 2,
        // publisher3: 2, pub1: type+title+year+type+publisher=5, link: 1.
        assert_eq!(g.len(), 3 + 3 + 6 + 4 + 2 + 2 + 5 + 1);
    }
}
