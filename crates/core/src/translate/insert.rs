//! `INSERT DATA` → SQL (paper §5.1).
//!
//! Per subject group the translation produces either an insert row plan
//! (entity not yet in the database) or an update plan filling NULL
//! attributes (entity exists — the paper's "second INSERT DATA with the
//! additional data" case). Link-table triples (`dc:creator`) become
//! separate insert plans for the link table. The default emission folds
//! plans of one (table, column-shape) into one set-based statement
//! ([`crate::translate::emit_grouped`]); the per-row reference emission
//! reproduces the seed's one-statement-per-row stream.

use crate::convert::{Codec, Text};
use crate::error::{OntoError, OntoResult};
use crate::translate::reads::ReadSet;
use crate::translate::{
    emit_grouped, emit_per_row, group_by_subject, identify, link_ends, IdentifiedSubject, RowOp,
    TranslateOptions,
};
use r3m::{Mapping, PropertyMapping};
use rdf::namespace::RDF_TYPE;
use rdf::{Term, Triple};
use rel::sql::Statement;
use rel::{Database, Value};
use std::collections::BTreeMap;

/// Translate a full `INSERT DATA` operation (all subject groups) into
/// unsorted, grouped SQL statements (one per table and column shape).
pub fn translate_insert_data(
    db: &Database,
    mapping: &Mapping,
    triples: &[Triple],
    options: TranslateOptions,
) -> OntoResult<Vec<Statement>> {
    translate_insert_data_reading(&mut ReadSet::new(db), mapping, triples, options)
}

/// [`translate_insert_data`] against the database `reads` answers from,
/// recording every answer the translation took from it.
pub fn translate_insert_data_reading<'a>(
    reads: &mut ReadSet<'a>,
    mapping: &'a Mapping,
    triples: &'a [Triple],
    options: TranslateOptions,
) -> OntoResult<Vec<Statement>> {
    let plans = insert_plans(reads, mapping, triples, options)?;
    Ok(emit_grouped(reads.schema(), plans))
}

/// Reference translation: the same row plans emitted one statement per
/// row, exactly as the pre-batching pipeline did. Baseline for the
/// batched-vs-per-row differential tests and the `bulk_update` bench.
pub fn translate_insert_data_per_row(
    db: &Database,
    mapping: &Mapping,
    triples: &[Triple],
    options: TranslateOptions,
) -> OntoResult<Vec<Statement>> {
    Ok(emit_per_row(insert_plans(
        &mut ReadSet::new(db),
        mapping,
        triples,
        options,
    )?))
}

// Instance IRI → table name of every subject an `INSERT DATA` creates
// or touches, borrowed from the request and the mapping.
type Touched<'a> = BTreeMap<&'a str, &'a str>;

// Steps 1-4 of Algorithm 1 for `INSERT DATA`: group, identify, check,
// and plan one row operation per subject (plus link rows).
fn insert_plans<'a>(
    reads: &mut ReadSet<'a>,
    mapping: &'a Mapping,
    triples: &'a [Triple],
    options: TranslateOptions,
) -> OntoResult<Vec<RowOp<'a>>> {
    let schema = reads.schema();
    let groups = group_by_subject(triples);
    // Step 2 runs once per subject. A subject that does not identify
    // fails its own group below, in subject order.
    let identified: Vec<OntoResult<IdentifiedSubject<'_>>> = groups
        .iter()
        .map(|&(subject, _)| identify(schema, mapping, subject))
        .collect();
    // Entities this operation creates or touches: FK targets may be
    // satisfied by rows that a sibling group inserts (Listing 15 inserts
    // author6 and team5 together; the FK check must accept team5).
    let touched: Touched<'_> = identified
        .iter()
        .flatten()
        .map(|s| (s.uri.as_str(), s.table_map.table_name.as_str()))
        .collect();
    let mut plans = Vec::new();
    for ((_, group), identified) in groups.iter().zip(identified) {
        plans.extend(translate_group(
            reads,
            mapping,
            &identified?,
            group,
            &touched,
            options,
        )?);
    }
    Ok(plans)
}

// One subject group: every triple in `triples` has the same subject.
fn translate_group<'a>(
    reads: &mut ReadSet<'a>,
    mapping: &'a Mapping,
    identified: &IdentifiedSubject<'a>,
    triples: &[&Triple],
    touched: &Touched<'_>,
    options: TranslateOptions,
) -> OntoResult<Vec<RowOp<'a>>> {
    let subject = &triples[0].subject;
    let table = reads.schema().table(&identified.table_map.table_name)?;
    let table_name = table.name.as_str();

    let mut assignments: Vec<(&str, Value)> = Vec::with_capacity(triples.len());
    let mut link_plans: Vec<RowOp> = Vec::new();

    for triple in triples {
        if triple.predicate.as_str() == RDF_TYPE {
            check_type_triple(identified, table_name, &triple.object)?;
            continue;
        }
        if let Some(attr) = identified
            .table_map
            .attribute_for_property(&triple.predicate)
        {
            let value = object_value(reads, mapping, table, attr, &triple.object, touched)?;
            match assignments
                .iter()
                .find(|(name, _)| *name == attr.attribute_name)
            {
                Some((_, existing)) if existing == &value => {} // duplicate triple
                Some((_, existing)) => {
                    return Err(OntoError::AttributeAlreadySet {
                        table: table_name.to_owned(),
                        attribute: attr.attribute_name.clone(),
                        existing: format!("{existing} (earlier in this request)"),
                        requested: triple.object.clone(),
                    })
                }
                None => assignments.push((&attr.attribute_name, value)),
            }
            continue;
        }
        if let Some(link) = mapping.link_table_by_property(&triple.predicate) {
            link_plans.push(translate_link_insert(
                reads, mapping, identified, link, triple, touched,
            )?);
            continue;
        }
        return Err(OntoError::UnknownProperty {
            property: triple.predicate.clone(),
            table: table_name.to_owned(),
        });
    }

    // Key attributes extracted from the URI may not be contradicted by a
    // mapped property (rare but possible when a key attribute also maps
    // to a property).
    for (attr, key_value) in &identified.key {
        if let Some((_, assigned)) = assignments.iter().find(|(name, _)| name == attr) {
            if assigned != key_value {
                return Err(OntoError::ValueIncompatible {
                    table: table_name.to_owned(),
                    attribute: (*attr).to_owned(),
                    value: subject.clone(),
                    reason: format!(
                        "subject URI encodes {key_value} but the request supplies {assigned}"
                    ),
                });
            }
        }
    }
    let assignments: Vec<(&str, Value)> = assignments
        .into_iter()
        .filter(|(name, _)| !identified.key.iter().any(|(k, _)| k == name))
        .collect();

    let existing_row = reads.row(table_name, identified.pk_values(table)?)?;
    let mut plans = Vec::new();
    match existing_row {
        None => {
            // New entity: NOT NULL attributes without default must be
            // covered (step 3's completeness check).
            for column in &table.columns {
                let supplied = assignments.iter().any(|(n, _)| *n == column.name)
                    || identified.key.iter().any(|(n, _)| *n == column.name);
                let required = column.not_null || table.is_primary_key(&column.name);
                if required && !supplied && column.default.is_none() && !column.auto_increment {
                    let property = identified
                        .table_map
                        .attribute(&column.name)
                        .and_then(|a| a.property.as_ref())
                        .map(|p| p.property().clone());
                    return Err(OntoError::MissingRequiredProperty {
                        table: table_name.to_owned(),
                        attribute: column.name.clone(),
                        property,
                    });
                }
            }
            // Columns in schema order: key attributes first as they
            // appear, then the mapped assignments (Listing 10 layout).
            let mut columns = Vec::with_capacity(table.columns.len());
            let mut values = Vec::with_capacity(table.columns.len());
            for column in &table.columns {
                let from_key = identified.key.iter().find(|(n, _)| *n == column.name);
                let from_assign = assignments.iter().find(|(n, _)| *n == column.name);
                if let Some(&(name, value)) = from_key.or(from_assign) {
                    columns.push(name);
                    values.push(value);
                }
            }
            plans.push(RowOp::Insert {
                table: table_name,
                columns,
                values,
            });
        }
        Some(current) => {
            // Existing entity: only fill attributes; a differing
            // non-NULL current value is a conflict unless Algorithm 2
            // explicitly allows overwriting (§5.2 optimization).
            let mut updates = Vec::new();
            for (name, value) in assignments {
                let idx = table.column_index(name).expect("validated");
                let stored = &current[idx];
                if stored.is_null() {
                    updates.push((name, value));
                } else if stored.sql_eq(&value) == Some(true) {
                    // Triple already present in the RDF view — no-op.
                } else if options.allow_overwrite {
                    updates.push((name, value));
                } else {
                    return Err(OntoError::AttributeAlreadySet {
                        table: table_name.to_owned(),
                        attribute: name.to_owned(),
                        existing: stored.to_string(),
                        requested: subject.clone(),
                    });
                }
            }
            if !updates.is_empty() {
                plans.push(RowOp::Update {
                    table: table_name,
                    key: pk_key_pairs(table, identified)?,
                    sets: updates,
                });
            }
        }
    }
    plans.extend(link_plans);
    Ok(plans)
}

/// The `(pk column, value)` pairs identifying a subject's row — the
/// plan key behind the paper's `WHERE pk1 = v1 AND pk2 = v2 …`.
pub fn pk_key_pairs<'a>(
    table: &'a rel::Table,
    identified: &IdentifiedSubject<'_>,
) -> OntoResult<Vec<(&'a str, Value)>> {
    let pk_values = identified.pk_values(table)?;
    if table.primary_key.is_empty() {
        return Err(OntoError::Unsupported {
            message: format!("table {:?} has no primary key", table.name),
        });
    }
    Ok(table
        .primary_key
        .iter()
        .map(String::as_str)
        .zip(pk_values)
        .collect())
}

fn check_type_triple(
    identified: &IdentifiedSubject<'_>,
    table_name: &str,
    object: &Term,
) -> OntoResult<()> {
    if object.as_iri() == Some(&identified.table_map.class) {
        Ok(())
    } else {
        Err(OntoError::ClassMismatch {
            table: table_name.to_owned(),
            expected: identified.table_map.class.clone(),
            found: object.clone(),
        })
    }
}

// Resolve the object term of a mapped attribute to a column value: a
// foreign key's object must be an instance this operation may
// reference; every other object converts through the attribute's codec.
fn object_value(
    reads: &mut ReadSet<'_>,
    mapping: &Mapping,
    table: &rel::Table,
    attr: &r3m::AttributeMap,
    object: &Term,
    touched: &Touched<'_>,
) -> OntoResult<Value> {
    let target = attr
        .foreign_key_target()
        .and_then(|id| mapping.table_by_id(id));
    match (&attr.property, &attr.value_pattern, target) {
        (Some(PropertyMapping::Object(_)), None, Some(target)) => {
            resolve_instance_ref(reads, mapping, table, attr, target, object, touched)
        }
        _ => Codec::attribute(mapping, table, attr)?.decode(object, Text::Intern),
    }
}

// Resolve an instance IRI used as an FK/link endpoint: decode it
// through the attribute's codec (the target's URI pattern and key
// slot), verify the row exists (in the database or among the entities
// this operation creates), and return its key value. A key string the
// dictionary lacks decodes to NULL: it names no stored row, nor one
// created here, since every subject was identified (and so interned)
// first.
fn resolve_instance_ref(
    reads: &mut ReadSet<'_>,
    mapping: &Mapping,
    table: &rel::Table,
    attr: &r3m::AttributeMap,
    target: &r3m::TableMap,
    object: &Term,
    touched: &Touched<'_>,
) -> OntoResult<Value> {
    let dangling = || OntoError::DanglingObject {
        table: table.name.clone(),
        attribute: attr.attribute_name.clone(),
        expected_table: target.table_name.clone(),
        object: object.clone(),
    };
    let key = Codec::attribute(mapping, table, attr)?
        .decode(object, Text::Lookup)
        .map_err(|_| dangling())?;
    if key.is_null() {
        return Err(dangling());
    }
    let target_table = reads.schema().table(&target.table_name)?;
    let exists_in_db = reads.exists(&target_table.name, std::slice::from_ref(&key))?;
    let created_here = object
        .as_iri()
        .and_then(|iri| touched.get(iri.as_str()))
        .is_some_and(|t| *t == target.table_name);
    if !exists_in_db && !created_here {
        return Err(dangling());
    }
    Ok(key)
}

// A link triple inside a subject group: subject is this group's entity,
// the object an instance of the table the link's object attribute
// references.
fn translate_link_insert<'a>(
    reads: &mut ReadSet<'_>,
    mapping: &Mapping,
    identified: &IdentifiedSubject<'_>,
    link: &'a r3m::LinkTableMap,
    triple: &Triple,
    touched: &Touched<'_>,
) -> OntoResult<RowOp<'a>> {
    let [subject_target, object_target] = link_ends(mapping, link)?;
    // The group's entity must be on the subject side of this property.
    if identified.table_map.table_name != subject_target.table_name {
        return Err(OntoError::UnknownProperty {
            property: triple.predicate.clone(),
            table: identified.table_map.table_name.clone(),
        });
    }
    let table = reads.schema().table(&identified.table_map.table_name)?;
    let subject_pk = identified.pk_values(table)?;
    if subject_pk.len() != 1 {
        return Err(OntoError::Unsupported {
            message: "link tables over composite keys are not supported".into(),
        });
    }
    let object_value = resolve_instance_ref(
        reads,
        mapping,
        reads.schema().table(&link.table_name)?,
        &link.object_attribute,
        object_target,
        &triple.object,
        touched,
    )?;
    Ok(RowOp::Insert {
        table: &link.table_name,
        columns: vec![
            &link.subject_attribute.attribute_name,
            &link.object_attribute.attribute_name,
        ],
        values: vec![
            subject_pk.into_iter().next().expect("len checked"),
            object_value,
        ],
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{
        fixture_db_teams_only, fixture_db_with_rows, insert_data, parse_update, render,
    };

    #[test]
    fn listing_9_translates_to_listing_10() {
        // team5 must exist for the FK (the paper's running example
        // assumes it); author6 must not exist yet.
        let (db, mapping) = fixture_db_teams_only();
        let op = parse_update(
            "INSERT DATA {
               ex:author6 foaf:title \"Mr\" ;
                 foaf:firstName \"Matthias\" ;
                 foaf:family_name \"Hert\" ;
                 foaf:mbox <mailto:hert@ifi.uzh.ch> ;
                 ont:team ex:team5 .
             }",
        );
        let stmts = translate_insert_data(
            &db,
            &mapping,
            &insert_data(&op),
            TranslateOptions::default(),
        )
        .unwrap();
        assert_eq!(
            render(&stmts),
            vec![
                "INSERT INTO author (id, title, firstname, lastname, email, team) \
             VALUES (6, 'Mr', 'Matthias', 'Hert', 'hert@ifi.uzh.ch', 5);"
            ]
        );
    }

    #[test]
    fn listing_13_translates_to_listing_14() {
        let (db, mapping) = fixture_db_teams_only();
        let op = parse_update(
            "INSERT DATA {
               ex:team4 foaf:name \"Database Technology\" ;
                 ont:teamCode \"DBTG\" .
             }",
        );
        let stmts = translate_insert_data(
            &db,
            &mapping,
            &insert_data(&op),
            TranslateOptions::default(),
        )
        .unwrap();
        assert_eq!(
            render(&stmts),
            vec!["INSERT INTO team (id, name, code) VALUES (4, 'Database Technology', 'DBTG');"]
        );
    }

    #[test]
    fn second_insert_becomes_update_filling_nulls() {
        // §5.1: "The second INSERT DATA operation (with the additional
        // data) translates to an SQL UPDATE statement that replaces the
        // NULLs with actual values."
        let (mut db, mapping) = fixture_db_with_rows();
        let first = parse_update("INSERT DATA { ex:author9 foaf:family_name \"Gall\" . }");
        let stmts = translate_insert_data(
            &db,
            &mapping,
            &insert_data(&first),
            TranslateOptions::default(),
        )
        .unwrap();
        assert_eq!(
            render(&stmts),
            vec!["INSERT INTO author (id, lastname) VALUES (9, 'Gall');"]
        );
        crate::translate::execute_sorted(&mut db, stmts).unwrap();

        let second = parse_update(
            "INSERT DATA { ex:author9 foaf:firstName \"Harald\" ; \
             foaf:mbox <mailto:gall@ifi.uzh.ch> . }",
        );
        let stmts = translate_insert_data(
            &db,
            &mapping,
            &insert_data(&second),
            TranslateOptions::default(),
        )
        .unwrap();
        assert_eq!(
            render(&stmts),
            vec!["UPDATE author SET firstname = 'Harald', email = 'gall@ifi.uzh.ch' WHERE id = 9;"]
        );
    }

    #[test]
    fn missing_not_null_property_rejected() {
        let (db, mapping) = fixture_db_with_rows();
        // A new author without foaf:family_name (lastname NOT NULL).
        let op = parse_update("INSERT DATA { ex:author9 foaf:firstName \"X\" . }");
        let err = translate_insert_data(
            &db,
            &mapping,
            &insert_data(&op),
            TranslateOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            OntoError::MissingRequiredProperty { ref attribute, .. } if attribute == "lastname"
        ));
    }

    #[test]
    fn dangling_fk_object_rejected() {
        let (db, mapping) = fixture_db_with_rows();
        // A missing row, a row of another table, a non-canonical key
        // rendering of a stored row, and a literal.
        for object in ["ex:team99", "ex:author6", "ex:team05", "\"5\""] {
            let op = parse_update(&format!(
                "INSERT DATA {{ ex:author9 foaf:family_name \"X\" ; ont:team {object} . }}"
            ));
            let err = translate_insert_data(
                &db,
                &mapping,
                &insert_data(&op),
                TranslateOptions::default(),
            )
            .unwrap_err();
            assert!(
                matches!(err, OntoError::DanglingObject { .. }),
                "{object}: {err}"
            );
        }
    }

    #[test]
    fn same_shape_subjects_fold_into_one_multi_row_insert() {
        let (db, mapping) = fixture_db_with_rows();
        let op = parse_update(
            "INSERT DATA {
               ex:team7 foaf:name \"T7\" ; ont:teamCode \"C7\" .
               ex:team8 foaf:name \"T8\" ; ont:teamCode \"C8\" .
               ex:team9 foaf:name \"T9\" ; ont:teamCode \"C9\" .
             }",
        );
        let stmts = translate_insert_data(
            &db,
            &mapping,
            &insert_data(&op),
            TranslateOptions::default(),
        )
        .unwrap();
        assert_eq!(
            render(&stmts),
            vec![
                "INSERT INTO team (id, name, code) \
             VALUES (7, 'T7', 'C7'), (8, 'T8', 'C8'), (9, 'T9', 'C9');"
            ]
        );
        // The per-row reference path still emits one statement per row.
        let per_row = translate_insert_data_per_row(
            &db,
            &mapping,
            &insert_data(&op),
            TranslateOptions::default(),
        )
        .unwrap();
        assert_eq!(per_row.len(), 3);
    }

    #[test]
    fn shape_change_breaks_the_insert_run() {
        // A different column shape in the middle closes the table's
        // open group: rows must keep plan order so the physical heap
        // matches the per-row reference emission byte for byte.
        let (db, mapping) = fixture_db_with_rows();
        let op = parse_update(
            "INSERT DATA {
               ex:team7 foaf:name \"T7\" ; ont:teamCode \"C7\" .
               ex:team8 foaf:name \"T8\" .
               ex:team9 foaf:name \"T9\" ; ont:teamCode \"C9\" .
             }",
        );
        let stmts = translate_insert_data(
            &db,
            &mapping,
            &insert_data(&op),
            TranslateOptions::default(),
        )
        .unwrap();
        assert_eq!(
            render(&stmts),
            vec![
                "INSERT INTO team (id, name, code) VALUES (7, 'T7', 'C7');",
                "INSERT INTO team (id, name) VALUES (8, 'T8');",
                "INSERT INTO team (id, name, code) VALUES (9, 'T9', 'C9');",
            ]
        );
    }

    #[test]
    fn existing_subjects_fold_into_one_grouped_update() {
        let (db, mapping) = fixture_db_with_rows();
        // Both authors exist; both get their title filled.
        let op = parse_update(
            "INSERT DATA {
               ex:author6 foaf:mbox <mailto:six@x.ch> .
               ex:author7 foaf:mbox <mailto:seven@x.ch> .
             }",
        );
        let stmts = translate_insert_data(
            &db,
            &mapping,
            &insert_data(&op),
            TranslateOptions {
                allow_overwrite: true,
            },
        )
        .unwrap();
        assert_eq!(
            render(&stmts),
            vec![
                "UPDATE author BY (id) SET (email) \
             VALUES (6, 'six@x.ch'), (7, 'seven@x.ch');"
            ]
        );
    }

    #[test]
    fn link_inserts_fold_into_one_multi_row_insert() {
        let (db, mapping) = fixture_db_with_rows();
        let op = parse_update(
            "INSERT DATA { ex:pub1 dc:creator ex:author7 . \
             ex:author7 foaf:mbox <mailto:seven@x.ch> . }",
        );
        let stmts = translate_insert_data(
            &db,
            &mapping,
            &insert_data(&op),
            TranslateOptions::default(),
        )
        .unwrap();
        assert_eq!(
            render(&stmts),
            vec![
                "UPDATE author SET email = 'seven@x.ch' WHERE id = 7;",
                "INSERT INTO publication_author (publication, author) VALUES (1, 7);",
            ]
        );
    }

    #[test]
    fn fk_satisfied_by_sibling_group() {
        // Listing 15's shape: the team is created in the same operation.
        let (db, mapping) = fixture_db_with_rows();
        let op = parse_update(
            "INSERT DATA {
               ex:author9 foaf:family_name \"New\" ; ont:team ex:team7 .
               ex:team7 foaf:name \"Fresh Team\" .
             }",
        );
        let stmts = translate_insert_data(
            &db,
            &mapping,
            &insert_data(&op),
            TranslateOptions::default(),
        )
        .unwrap();
        assert_eq!(stmts.len(), 2);
    }

    #[test]
    fn conflicting_value_for_set_attribute_rejected() {
        let (db, mapping) = fixture_db_with_rows();
        // author6 exists with lastname 'Hert'.
        let op = parse_update("INSERT DATA { ex:author6 foaf:family_name \"Other\" . }");
        let err = translate_insert_data(
            &db,
            &mapping,
            &insert_data(&op),
            TranslateOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, OntoError::AttributeAlreadySet { .. }));
        // …but allowed with the MODIFY overwrite option.
        let stmts = translate_insert_data(
            &db,
            &mapping,
            &insert_data(&op),
            TranslateOptions {
                allow_overwrite: true,
            },
        )
        .unwrap();
        assert_eq!(
            render(&stmts),
            vec!["UPDATE author SET lastname = 'Other' WHERE id = 6;"]
        );
    }

    #[test]
    fn reasserting_existing_triple_is_noop() {
        let (db, mapping) = fixture_db_with_rows();
        let op = parse_update("INSERT DATA { ex:author6 foaf:family_name \"Hert\" . }");
        let stmts = translate_insert_data(
            &db,
            &mapping,
            &insert_data(&op),
            TranslateOptions::default(),
        )
        .unwrap();
        assert!(stmts.is_empty());
    }

    #[test]
    fn type_triple_checked_against_class() {
        let (db, mapping) = fixture_db_with_rows();
        let ok = parse_update("INSERT DATA { ex:team7 a foaf:Group ; foaf:name \"T\" . }");
        assert!(translate_insert_data(
            &db,
            &mapping,
            &insert_data(&ok),
            TranslateOptions::default()
        )
        .is_ok());
        let bad = parse_update("INSERT DATA { ex:team7 a foaf:Person ; foaf:name \"T\" . }");
        let err = translate_insert_data(
            &db,
            &mapping,
            &insert_data(&bad),
            TranslateOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, OntoError::ClassMismatch { .. }));
    }

    #[test]
    fn unknown_property_rejected() {
        let (db, mapping) = fixture_db_with_rows();
        let op =
            parse_update("INSERT DATA { ex:team7 foaf:name \"T\" ; foaf:mbox <mailto:t@x.ch> . }");
        // foaf:mbox is an author property, not a team property.
        let err = translate_insert_data(
            &db,
            &mapping,
            &insert_data(&op),
            TranslateOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            OntoError::UnknownProperty { ref table, .. } if table == "team"
        ));
    }

    #[test]
    fn link_triple_translates_to_link_table_insert() {
        let (db, mapping) = fixture_db_with_rows();
        let op = parse_update("INSERT DATA { ex:pub1 dc:creator ex:author6 . }");
        let stmts = translate_insert_data(
            &db,
            &mapping,
            &insert_data(&op),
            TranslateOptions::default(),
        )
        .unwrap();
        assert_eq!(
            render(&stmts),
            vec!["INSERT INTO publication_author (publication, author) VALUES (1, 6);"]
        );
    }

    #[test]
    fn type_mismatch_in_literal_rejected() {
        let (db, mapping) = fixture_db_with_rows();
        let op =
            parse_update("INSERT DATA { ex:pub9 dc:title \"T\" ; ont:pubYear \"not-a-year\" . }");
        let err = translate_insert_data(
            &db,
            &mapping,
            &insert_data(&op),
            TranslateOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, OntoError::ValueIncompatible { .. }));
    }

    #[test]
    fn mbox_value_pattern_extracts_email() {
        let (db, mapping) = fixture_db_with_rows();
        let op = parse_update(
            "INSERT DATA { ex:author9 foaf:family_name \"G\" ; \
             foaf:mbox <mailto:g@ifi.uzh.ch> . }",
        );
        let stmts = translate_insert_data(
            &db,
            &mapping,
            &insert_data(&op),
            TranslateOptions::default(),
        )
        .unwrap();
        assert_eq!(
            render(&stmts),
            vec!["INSERT INTO author (id, lastname, email) VALUES (9, 'G', 'g@ifi.uzh.ch');"]
        );
        // Non-mailto object rejected.
        let bad = parse_update(
            "INSERT DATA { ex:author9 foaf:family_name \"G\" ; \
             foaf:mbox <http://not-a-mailbox.org/> . }",
        );
        assert!(matches!(
            translate_insert_data(
                &db,
                &mapping,
                &insert_data(&bad),
                TranslateOptions::default()
            ),
            Err(OntoError::ValueIncompatible { .. })
        ));
    }
}
