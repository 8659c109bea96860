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

use crate::convert::{instance_iri, Codec};
use crate::error::OntoResult;
use crate::translate::{find_row, identify, link_ends};
use r3m::{AttributeMap, LinkTableMap, Mapping, TableMap};
use rdf::namespace::rdf_type;
use rdf::{Graph, Iri, Term, Triple};
use rel::{Database, Value};

/// Materialize the whole database as RDF.
pub fn materialize(db: &Database, mapping: &Mapping) -> OntoResult<Graph> {
    let mut graph = Graph::new();
    for table_map in &mapping.tables {
        let view = RowView::new(db, mapping, table_map)?;
        for (_, row) in db.scan(&table_map.table_name)? {
            view.emit(&mut graph, row)?;
        }
    }
    for link in &mapping.link_tables {
        let view = LinkView::new(db, mapping, link)?;
        for (_, row) in db.scan(&link.table_name)? {
            view.emit(&mut graph, row)?;
        }
    }
    Ok(graph)
}

// The triples of a concept table's rows: the type triple, and one per
// non-NULL mapped attribute through the attribute's codec.
struct RowView<'a> {
    mapping: &'a Mapping,
    table_map: &'a TableMap,
    table: &'a rel::Table,
    attributes: Vec<(&'a Iri, usize, Codec<'a>)>,
}

impl<'a> RowView<'a> {
    fn new(db: &'a Database, mapping: &'a Mapping, table_map: &'a TableMap) -> OntoResult<Self> {
        let table = db.schema().table(&table_map.table_name)?;
        let mut attributes = Vec::new();
        for attr in &table_map.attributes {
            let Some(property) = &attr.property else {
                continue;
            };
            let codec = Codec::attribute(mapping, table, attr)?;
            let idx = table
                .column_index(&attr.attribute_name)
                .expect("the codec found the column");
            attributes.push((property.property(), idx, codec));
        }
        Ok(RowView {
            mapping,
            table_map,
            table,
            attributes,
        })
    }

    fn emit(&self, graph: &mut Graph, row: &[Value]) -> OntoResult<()> {
        let subject = Term::Iri(instance_iri(self.mapping, self.table_map, self.table, row)?);
        graph.insert(Triple::new(
            subject.clone(),
            rdf_type(),
            Term::Iri(self.table_map.class.clone()),
        ));
        for (property, idx, codec) in &self.attributes {
            if let Some(object) = codec.term(&row[*idx])? {
                graph.insert(Triple::new(subject.clone(), (*property).clone(), object));
            }
        }
        Ok(())
    }
}

// The triples of a link table's rows: one per row whose two ends are
// non-NULL.
struct LinkView<'a> {
    link: &'a LinkTableMap,
    subject: LinkEnd<'a>,
    object: LinkEnd<'a>,
}

// One end of a link row: its column, the table its foreign key
// references, and the codec writing the referenced instance IRI.
struct LinkEnd<'a> {
    column: usize,
    target: &'a str,
    codec: Codec<'a>,
}

impl<'a> LinkView<'a> {
    fn new(db: &'a Database, mapping: &'a Mapping, link: &'a LinkTableMap) -> OntoResult<Self> {
        let table = db.schema().table(&link.table_name)?;
        let [subject, object] = link_ends(mapping, link)?;
        let end = |attr: &'a AttributeMap, target: &'a TableMap| -> OntoResult<LinkEnd<'a>> {
            let codec = Codec::attribute(mapping, table, attr)?;
            Ok(LinkEnd {
                column: table
                    .column_index(&attr.attribute_name)
                    .expect("the codec found the column"),
                target: &target.table_name,
                codec,
            })
        };
        Ok(LinkView {
            link,
            subject: end(&link.subject_attribute, subject)?,
            object: end(&link.object_attribute, object)?,
        })
    }

    fn emit(&self, graph: &mut Graph, row: &[Value]) -> OntoResult<()> {
        let subject = self.subject.codec.term(&row[self.subject.column])?;
        let object = self.object.codec.term(&row[self.object.column])?;
        if let (Some(subject), Some(object)) = (subject, object) {
            graph.insert(Triple::new(subject, self.link.property.clone(), object));
        }
        Ok(())
    }
}

// DESCRIBE one instance URI over a snapshot: the row's triples plus its
// link-table triples in either role (behind `ReadSession::describe`).
pub(crate) fn describe(db: &Database, mapping: &Mapping, uri: &Iri) -> OntoResult<Graph> {
    let subject = Term::Iri(uri.clone());
    let identified = identify(db.schema(), mapping, &subject)?;
    let table = db.schema().table(&identified.table_map.table_name)?;
    let mut graph = Graph::new();
    let Some(row_id) = find_row(db, &identified)? else {
        return Ok(graph); // mapped but absent: empty description
    };
    let row = db
        .row(&identified.table_map.table_name, row_id)?
        .expect("row id valid");
    RowView::new(db, mapping, identified.table_map)?.emit(&mut graph, row)?;
    // Link-table triples where this instance is subject or object.
    let [key] = identified.pk_values(table)?[..] else {
        return Ok(graph);
    };
    for link in &mapping.link_tables {
        let view = LinkView::new(db, mapping, link)?;
        let this = identified.table_map.table_name.as_str();
        // The link rows whose endpoint columns reference this instance,
        // through each column's probe, once each and in row-id order.
        let link_table = db.schema().table(&link.table_name)?;
        let mut ids = Vec::new();
        for end in [&view.subject, &view.object] {
            if end.target == this {
                let probe = db.probe(link_table, end.column);
                ids.extend_from_slice(probe.rows(&key).as_slice());
            }
        }
        ids.sort_unstable();
        ids.dedup();
        for id in ids {
            let link_row = db.row(&link.table_name, id)?.expect("probed id is live");
            view.emit(&mut graph, link_row)?;
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
