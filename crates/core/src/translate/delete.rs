//! `DELETE DATA` → SQL (paper §5.1).
//!
//! Per subject group: if the request covers *all* remaining (non-NULL)
//! data of the row — including its `rdf:type` triple — the row is
//! removed with `DELETE FROM`; if it covers a proper subset, the
//! mentioned attributes are set to NULL with an `UPDATE` (Listing 17 →
//! Listing 18), rejected early when an attribute is NOT NULL. Link
//! triples delete the corresponding link-table row. The default
//! emission groups row plans per (table, column-shape) — pk deletes
//! fold into `WHERE pk IN (…)`, null-updates into the grouped
//! `UPDATE … BY …` — while the per-row reference emission reproduces
//! the seed's one-statement-per-row stream.

use crate::convert::Codec;
use crate::error::{OntoError, OntoResult};
use crate::translate::insert::pk_key_pairs;
use crate::translate::reads::ReadSet;
use crate::translate::{
    emit_grouped, emit_per_row, group_by_subject, identify, link_ends, IdentifiedSubject, RowOp,
};
use r3m::Mapping;
use rdf::namespace::RDF_TYPE;
use rdf::{Term, Triple};
use rel::sql::Statement;
use rel::{Database, Value};

/// Translate a full `DELETE DATA` operation into unsorted, grouped SQL
/// statements (one per table and column shape).
pub fn translate_delete_data(
    db: &Database,
    mapping: &Mapping,
    triples: &[Triple],
) -> OntoResult<Vec<Statement>> {
    translate_delete_data_reading(&mut ReadSet::new(db), mapping, triples)
}

/// [`translate_delete_data`] against the database `reads` answers from,
/// recording every answer the translation took from it.
pub fn translate_delete_data_reading<'a>(
    reads: &mut ReadSet<'a>,
    mapping: &'a Mapping,
    triples: &'a [Triple],
) -> OntoResult<Vec<Statement>> {
    let plans = delete_plans(reads, mapping, triples)?;
    Ok(emit_grouped(reads.db().schema(), plans))
}

/// Reference translation: the same row plans emitted one statement per
/// row, exactly as the pre-batching pipeline did.
pub fn translate_delete_data_per_row(
    db: &Database,
    mapping: &Mapping,
    triples: &[Triple],
) -> OntoResult<Vec<Statement>> {
    Ok(emit_per_row(delete_plans(
        &mut ReadSet::new(db),
        mapping,
        triples,
    )?))
}

fn delete_plans<'a>(
    reads: &mut ReadSet<'a>,
    mapping: &'a Mapping,
    triples: &'a [Triple],
) -> OntoResult<Vec<RowOp<'a>>> {
    let mut plans = Vec::new();
    for (subject, group) in group_by_subject(triples) {
        plans.extend(translate_group(reads, mapping, subject, &group)?);
    }
    Ok(plans)
}

fn translate_group<'a>(
    reads: &mut ReadSet<'a>,
    mapping: &'a Mapping,
    subject: &'a Term,
    triples: &[&Triple],
) -> OntoResult<Vec<RowOp<'a>>> {
    let identified = identify(reads.db(), mapping, subject)?;
    let table = reads
        .db()
        .schema()
        .table(&identified.table_map.table_name)?;
    let table_name = table.name.as_str();

    let row = reads
        .row(table_name, identified.pk_values(table)?)?
        .ok_or_else(|| OntoError::TripleNotPresent {
            table: table_name.to_owned(),
            detail: format!("no row for subject {subject}"),
        })?;

    let mut has_type = false;
    let mut mentioned: Vec<(&str, Value)> = Vec::new();
    let mut link_plans: Vec<RowOp> = Vec::new();

    for triple in triples {
        if triple.predicate.as_str() == RDF_TYPE {
            if triple.object.as_iri() != Some(&identified.table_map.class) {
                return Err(OntoError::TripleNotPresent {
                    table: table_name.to_owned(),
                    detail: format!(
                        "subject is a {} instance, not {}",
                        identified.table_map.class, triple.object
                    ),
                });
            }
            has_type = true;
            continue;
        }
        if let Some(attr) = identified
            .table_map
            .attribute_for_property(&triple.predicate)
        {
            let idx = table
                .column_index(&attr.attribute_name)
                .expect("validated mapping");
            let stored = &row[idx];
            // The triple must be in the view: the stored cell is its
            // object.
            if !Codec::attribute(mapping, table, attr)?.holds(stored, &triple.object) {
                return Err(OntoError::TripleNotPresent {
                    table: table_name.to_owned(),
                    detail: format!(
                        "{table_name}.{} holds {stored}, not {}",
                        attr.attribute_name, triple.object
                    ),
                });
            }
            if table.is_primary_key(&attr.attribute_name) {
                return Err(OntoError::Unsupported {
                    message: format!(
                        "cannot delete the key attribute {}.{} of an existing row",
                        table_name, attr.attribute_name
                    ),
                });
            }
            if !mentioned.iter().any(|(n, _)| *n == attr.attribute_name) {
                mentioned.push((&attr.attribute_name, *stored));
            }
            continue;
        }
        if let Some(link) = mapping.link_table_by_property(&triple.predicate) {
            link_plans.push(translate_link_delete(
                reads,
                mapping,
                &identified,
                link,
                triple,
            )?);
            continue;
        }
        return Err(OntoError::UnknownProperty {
            property: triple.predicate.clone(),
            table: table_name.to_owned(),
        });
    }

    let mut plans = Vec::new();
    if !mentioned.is_empty() || has_type {
        // All non-NULL, non-key mapped attributes of the row.
        let all_set: Vec<&str> = identified
            .table_map
            .attributes
            .iter()
            .filter(|a| a.property.is_some())
            .filter(|a| !table.is_primary_key(&a.attribute_name))
            .filter(|a| {
                let idx = table.column_index(&a.attribute_name).expect("validated");
                !row[idx].is_null()
            })
            .map(|a| a.attribute_name.as_str())
            .collect();
        let covered_all = all_set
            .iter()
            .all(|name| mentioned.iter().any(|(n, _)| n == name));

        if has_type && covered_all {
            // The request equals all remaining data → remove the row.
            plans.push(RowOp::Delete {
                table: table_name,
                key: pk_key_pairs(table, &identified)?,
            });
        } else if has_type {
            return Err(OntoError::CannotRemoveType {
                table: table_name.to_owned(),
            });
        } else {
            // Subset → UPDATE … SET attr = NULL (Listing 18), guarded by
            // the NOT NULL check of step 3.
            for &(name, _) in &mentioned {
                let column = table.column(name).expect("validated");
                if column.not_null {
                    return Err(OntoError::NotNullDelete {
                        table: table_name.to_owned(),
                        attribute: name.to_owned(),
                    });
                }
            }
            // Key: pk = … plus attr = current-value … (paper's Listing
            // 18 includes the value equality as a guard).
            let mut key = pk_key_pairs(table, &identified)?;
            key.extend(mentioned.iter().copied());
            plans.push(RowOp::Update {
                table: table_name,
                key,
                sets: mentioned.iter().map(|&(n, _)| (n, Value::Null)).collect(),
            });
        }
    }
    plans.extend(link_plans);
    Ok(plans)
}

fn translate_link_delete<'a>(
    reads: &mut ReadSet<'a>,
    mapping: &Mapping,
    identified: &IdentifiedSubject<'_>,
    link: &'a r3m::LinkTableMap,
    triple: &Triple,
) -> OntoResult<RowOp<'a>> {
    let [subject_target, object_target] = link_ends(mapping, link)?;
    if identified.table_map.table_name != subject_target.table_name {
        return Err(OntoError::UnknownProperty {
            property: triple.predicate.clone(),
            table: identified.table_map.table_name.clone(),
        });
    }
    let db = reads.db();
    let object_identified =
        identify(db, mapping, &triple.object).map_err(|_| OntoError::TripleNotPresent {
            table: link.table_name.clone(),
            detail: format!("object {} is not a mapped instance", triple.object),
        })?;
    if object_identified.table_map.table_name != object_target.table_name {
        return Err(OntoError::TripleNotPresent {
            table: link.table_name.clone(),
            detail: format!(
                "object {} is a {} instance, expected {}",
                triple.object, object_identified.table_map.table_name, object_target.table_name
            ),
        });
    }
    let subject_table = db.schema().table(&identified.table_map.table_name)?;
    let object_table = db.schema().table(&object_identified.table_map.table_name)?;
    let s_val = identified.pk_values(subject_table)?;
    let o_val = object_identified.pk_values(object_table)?;
    if s_val.len() != 1 || o_val.len() != 1 {
        return Err(OntoError::Unsupported {
            message: "link tables over composite keys are not supported".into(),
        });
    }
    let (s_val, o_val) = (
        s_val.into_iter().next().unwrap(),
        o_val.into_iter().next().unwrap(),
    );

    // The link row must exist (DELETE DATA removes *known* triples).
    if !reads.link(link, s_val, o_val)? {
        return Err(OntoError::TripleNotPresent {
            table: link.table_name.clone(),
            detail: format!(
                "no {} row links {} to {}",
                link.table_name, identified.uri, triple.object
            ),
        });
    }
    Ok(RowOp::Delete {
        table: &link.table_name,
        key: vec![
            (&link.subject_attribute.attribute_name, s_val),
            (&link.object_attribute.attribute_name, o_val),
        ],
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{delete_data, fixture_db_with_rows, parse_update, render};

    #[test]
    fn listing_17_translates_to_listing_18() {
        let (db, mapping) = fixture_db_with_rows();
        let op = parse_update("DELETE DATA { ex:author6 foaf:mbox <mailto:hert@ifi.uzh.ch> . }");
        let stmts = translate_delete_data(&db, &mapping, &delete_data(&op)).unwrap();
        assert_eq!(
            render(&stmts),
            vec!["UPDATE author SET email = NULL WHERE id = 6 AND email = 'hert@ifi.uzh.ch';"]
        );
    }

    #[test]
    fn full_coverage_with_type_becomes_row_delete() {
        let (db, mapping) = fixture_db_with_rows();
        // team4 row: id=4, name='Database Technology', code='DBTG'.
        let op = parse_update(
            "DELETE DATA { ex:team4 a foaf:Group ; \
               foaf:name \"Database Technology\" ; ont:teamCode \"DBTG\" . }",
        );
        let stmts = translate_delete_data(&db, &mapping, &delete_data(&op)).unwrap();
        assert_eq!(render(&stmts), vec!["DELETE FROM team WHERE id = 4;"]);
    }

    #[test]
    fn type_with_partial_coverage_rejected() {
        let (db, mapping) = fixture_db_with_rows();
        let op = parse_update("DELETE DATA { ex:team4 a foaf:Group ; ont:teamCode \"DBTG\" . }");
        let err = translate_delete_data(&db, &mapping, &delete_data(&op)).unwrap_err();
        assert!(matches!(err, OntoError::CannotRemoveType { .. }));
    }

    #[test]
    fn deleting_not_null_attribute_rejected() {
        let (db, mapping) = fixture_db_with_rows();
        let op = parse_update("DELETE DATA { ex:author6 foaf:family_name \"Hert\" . }");
        let err = translate_delete_data(&db, &mapping, &delete_data(&op)).unwrap_err();
        assert!(matches!(
            err,
            OntoError::NotNullDelete { ref attribute, .. } if attribute == "lastname"
        ));
    }

    #[test]
    fn deleting_absent_triple_rejected() {
        let (db, mapping) = fixture_db_with_rows();
        // author6's email is hert@ifi.uzh.ch, not this one.
        let op = parse_update("DELETE DATA { ex:author6 foaf:mbox <mailto:other@x.ch> . }");
        let err = translate_delete_data(&db, &mapping, &delete_data(&op)).unwrap_err();
        assert!(matches!(err, OntoError::TripleNotPresent { .. }));
    }

    #[test]
    fn deleting_from_missing_row_rejected() {
        let (db, mapping) = fixture_db_with_rows();
        let op = parse_update("DELETE DATA { ex:author999 foaf:title \"Dr\" . }");
        let err = translate_delete_data(&db, &mapping, &delete_data(&op)).unwrap_err();
        assert!(matches!(err, OntoError::TripleNotPresent { .. }));
    }

    #[test]
    fn multiple_attributes_nulled_in_one_update() {
        let (db, mapping) = fixture_db_with_rows();
        let op = parse_update(
            "DELETE DATA { ex:author6 foaf:title \"Mr\" ; foaf:firstName \"Matthias\" . }",
        );
        let stmts = translate_delete_data(&db, &mapping, &delete_data(&op)).unwrap();
        assert_eq!(
            render(&stmts),
            vec![
                "UPDATE author SET title = NULL, firstname = NULL \
             WHERE id = 6 AND title = 'Mr' AND firstname = 'Matthias';"
            ]
        );
    }

    #[test]
    fn full_row_deletes_fold_into_one_in_list() {
        let (db, mapping) = fixture_db_with_rows();
        // Remove publication 1's link first so teams are deletable in
        // isolation — here both team rows, fully covered.
        let op = parse_update(
            "DELETE DATA { ex:team4 a foaf:Group ; \
               foaf:name \"Database Technology\" ; ont:teamCode \"DBTG\" . \
               ex:team5 a foaf:Group ; \
               foaf:name \"Software Engineering\" ; ont:teamCode \"SEAL\" . }",
        );
        let stmts = translate_delete_data(&db, &mapping, &delete_data(&op)).unwrap();
        assert_eq!(render(&stmts), vec!["DELETE FROM team WHERE id IN (4, 5);"]);
        // Per-row reference path: one DELETE per row.
        let per_row = translate_delete_data_per_row(&db, &mapping, &delete_data(&op)).unwrap();
        assert_eq!(
            render(&per_row),
            vec![
                "DELETE FROM team WHERE id = 4;",
                "DELETE FROM team WHERE id = 5;",
            ]
        );
    }

    #[test]
    fn same_shape_null_updates_fold_into_grouped_update() {
        let (db, mapping) = fixture_db_with_rows();
        let op = parse_update(
            "DELETE DATA { ex:author6 foaf:firstName \"Matthias\" . \
             ex:author7 foaf:firstName \"Gerald\" . }",
        );
        let stmts = translate_delete_data(&db, &mapping, &delete_data(&op)).unwrap();
        assert_eq!(
            render(&stmts),
            vec![
                "UPDATE author BY (id, firstname) SET (firstname) \
             VALUES (6, 'Matthias', NULL), (7, 'Gerald', NULL);"
            ]
        );
    }

    #[test]
    fn link_deletes_sharing_a_subject_fold_into_an_in_list() {
        let (mut db, mapping) = fixture_db_with_rows();
        // Give pub1 a second author so two links share the subject side.
        db.insert(
            "publication_author",
            &[
                ("publication".to_owned(), Value::Int(1)),
                ("author".to_owned(), Value::Int(7)),
            ],
        )
        .unwrap();
        let op =
            parse_update("DELETE DATA { ex:pub1 dc:creator ex:author6 ; dc:creator ex:author7 . }");
        let stmts = translate_delete_data(&db, &mapping, &delete_data(&op)).unwrap();
        assert_eq!(
            render(&stmts),
            vec!["DELETE FROM publication_author WHERE publication = 1 AND author IN (6, 7);"]
        );
    }

    #[test]
    fn link_triple_deletes_link_row() {
        let (db, mapping) = fixture_db_with_rows();
        let op = parse_update("DELETE DATA { ex:pub1 dc:creator ex:author6 . }");
        let stmts = translate_delete_data(&db, &mapping, &delete_data(&op)).unwrap();
        assert_eq!(
            render(&stmts),
            vec!["DELETE FROM publication_author WHERE publication = 1 AND author = 6;"]
        );
    }

    #[test]
    fn absent_link_row_rejected() {
        let (db, mapping) = fixture_db_with_rows();
        // pub1 is not linked to author7.
        let op = parse_update("DELETE DATA { ex:pub1 dc:creator ex:author7 . }");
        let err = translate_delete_data(&db, &mapping, &delete_data(&op)).unwrap_err();
        assert!(matches!(err, OntoError::TripleNotPresent { .. }));
    }

    #[test]
    fn object_property_triple_verified() {
        let (db, mapping) = fixture_db_with_rows();
        // author6 belongs to team5, not team4.
        let op = parse_update("DELETE DATA { ex:author6 ont:team ex:team4 . }");
        let err = translate_delete_data(&db, &mapping, &delete_data(&op)).unwrap_err();
        assert!(matches!(err, OntoError::TripleNotPresent { .. }));
        let ok = parse_update("DELETE DATA { ex:author6 ont:team ex:team5 . }");
        let stmts = translate_delete_data(&db, &mapping, &delete_data(&ok)).unwrap();
        assert_eq!(
            render(&stmts),
            vec!["UPDATE author SET team = NULL WHERE id = 6 AND team = 5;"]
        );
    }
}
