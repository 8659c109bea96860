//! The paper's publication use case (§3, §7): the Figure 1 relational
//! schema, the Figure 2 domain ontology, and the Table 1 R3M mapping.
//!
//! Living in the core crate so the translator's own tests, the fixtures
//! crate, examples, and benches all share one definition.
//!
//! Two documented reconciliations with the paper's figures:
//!
//! * **`pubtype.type` is `VARCHAR`**, not the `INTEGER` Figure 1 shows —
//!   Listing 16 inserts `'inproceedings'` into it, so the figure's type
//!   annotation is taken as a typo.
//! * **`author` column order follows Listing 10** (`id, title,
//!   firstname, lastname, email, team`); Figure 1 lists `email` before
//!   `firstname`, but the paper's own generated SQL uses this order.

use r3m::{
    AttributeMap, ConstraintInfo, LinkTableMap, Mapping, PropertyMapping, TableMap, UriPattern,
};
use rdf::namespace::{dc, foaf, ont, ont_type, owl, rdf_type, rdfs, xsd};
use rdf::{Graph, Iri, Term, Triple};
use rel::{Column, Schema, SqlType, Table};

/// Instance URI prefix used throughout the paper (`ex:` in the
/// listings).
pub const URI_PREFIX: &str = "http://example.org/db/";

/// Namespace for the mapping document nodes (`map:` in the listings).
pub const MAP_NS: &str = "http://example.org/map#";

/// Figure 1 — the publication system's relational schema: six tables
/// with primary keys, foreign keys, and NOT NULL constraints.
pub fn schema() -> Schema {
    let mut schema = Schema::new();
    schema
        .add_table(
            Table::builder("publication")
                .column(Column::new("id", SqlType::Integer).not_null())
                .column(Column::new("title", SqlType::Varchar).not_null())
                .column(Column::new("year", SqlType::Integer).not_null())
                .column(Column::new("type", SqlType::Integer))
                .column(Column::new("publisher", SqlType::Integer))
                .primary_key(&["id"])
                .foreign_key("type", "pubtype", "id")
                .foreign_key("publisher", "publisher", "id")
                .build(),
        )
        .expect("fresh schema");
    schema
        .add_table(
            Table::builder("author")
                .column(Column::new("id", SqlType::Integer).not_null())
                .column(Column::new("title", SqlType::Varchar))
                .column(Column::new("firstname", SqlType::Varchar))
                .column(Column::new("lastname", SqlType::Varchar).not_null())
                .column(Column::new("email", SqlType::Varchar))
                .column(Column::new("team", SqlType::Integer))
                .primary_key(&["id"])
                .foreign_key("team", "team", "id")
                .build(),
        )
        .expect("fresh schema");
    schema
        .add_table(
            Table::builder("publisher")
                .column(Column::new("id", SqlType::Integer).not_null())
                .column(Column::new("name", SqlType::Varchar))
                .primary_key(&["id"])
                .build(),
        )
        .expect("fresh schema");
    schema
        .add_table(
            Table::builder("pubtype")
                .column(Column::new("id", SqlType::Integer).not_null())
                .column(Column::new("type", SqlType::Varchar))
                .primary_key(&["id"])
                .build(),
        )
        .expect("fresh schema");
    schema
        .add_table(
            Table::builder("team")
                .column(Column::new("id", SqlType::Integer).not_null())
                .column(Column::new("name", SqlType::Varchar))
                .column(Column::new("code", SqlType::Varchar))
                .primary_key(&["id"])
                .build(),
        )
        .expect("fresh schema");
    schema
        .add_table(
            Table::builder("publication_author")
                .column(
                    Column::new("id", SqlType::Integer)
                        .not_null()
                        .auto_increment(),
                )
                .column(Column::new("publication", SqlType::Integer).not_null())
                .column(Column::new("author", SqlType::Integer).not_null())
                .primary_key(&["id"])
                .foreign_key("publication", "publication", "id")
                .foreign_key("author", "author", "id")
                .build(),
        )
        .expect("fresh schema");
    schema
}

/// An empty [`rel::Database`] over the Figure 1 schema.
pub fn database() -> rel::Database {
    rel::Database::new(schema()).expect("Figure 1 schema is valid")
}

fn map_iri(local: &str) -> Iri {
    Iri::new_unchecked(format!("{MAP_NS}{local}"))
}

fn pattern(text: &str) -> UriPattern {
    UriPattern::parse(text).expect("use case patterns are valid")
}

fn attr(
    table: &str,
    name: &str,
    property: Option<PropertyMapping>,
    constraints: Vec<ConstraintInfo>,
) -> AttributeMap {
    AttributeMap {
        id: map_iri(&format!("{table}_{name}")),
        attribute_name: name.to_owned(),
        property,
        value_pattern: None,
        constraints,
    }
}

/// Table 1 — the use case mapping: tables → classes (FOAF/DC/ONT) and
/// attributes → properties, with all constraints of Figure 1 recorded.
pub fn mapping() -> Mapping {
    let fk = |target: &str| ConstraintInfo::ForeignKey {
        references: map_iri(target),
    };
    let publication = TableMap {
        id: map_iri("publication"),
        table_name: "publication".into(),
        class: foaf::Document(),
        uri_pattern: pattern("pub%%id%%"),
        attributes: vec![
            attr("publication", "id", None, vec![ConstraintInfo::PrimaryKey]),
            attr(
                "publication",
                "title",
                Some(PropertyMapping::Data(dc::title())),
                vec![ConstraintInfo::NotNull],
            ),
            attr(
                "publication",
                "year",
                Some(PropertyMapping::Data(ont::pubYear())),
                vec![ConstraintInfo::NotNull],
            ),
            attr(
                "publication",
                "type",
                Some(PropertyMapping::Object(ont::pubType())),
                vec![fk("pubtype")],
            ),
            attr(
                "publication",
                "publisher",
                Some(PropertyMapping::Object(dc::publisher())),
                vec![fk("publisher")],
            ),
        ],
    };
    let mut email = attr(
        "author",
        "email",
        Some(PropertyMapping::Object(foaf::mbox())),
        vec![],
    );
    // foaf:mbox objects are mailto: IRIs derived from the email value
    // (Listing 9 ↔ Listing 10).
    email.value_pattern = Some(pattern("mailto:%%email%%"));
    let author = TableMap {
        id: map_iri("author"),
        table_name: "author".into(),
        class: foaf::Person(),
        uri_pattern: pattern("author%%id%%"),
        attributes: vec![
            attr("author", "id", None, vec![ConstraintInfo::PrimaryKey]),
            attr(
                "author",
                "title",
                Some(PropertyMapping::Data(foaf::title())),
                vec![],
            ),
            attr(
                "author",
                "firstname",
                Some(PropertyMapping::Data(foaf::firstName())),
                vec![],
            ),
            attr(
                "author",
                "lastname",
                Some(PropertyMapping::Data(foaf::family_name())),
                vec![ConstraintInfo::NotNull],
            ),
            email,
            attr(
                "author",
                "team",
                Some(PropertyMapping::Object(ont::team())),
                vec![fk("team")],
            ),
        ],
    };
    let publisher = TableMap {
        id: map_iri("publisher"),
        table_name: "publisher".into(),
        class: ont::Publisher(),
        uri_pattern: pattern("publisher%%id%%"),
        attributes: vec![
            attr("publisher", "id", None, vec![ConstraintInfo::PrimaryKey]),
            attr(
                "publisher",
                "name",
                Some(PropertyMapping::Data(ont::name())),
                vec![],
            ),
        ],
    };
    let pubtype = TableMap {
        id: map_iri("pubtype"),
        table_name: "pubtype".into(),
        class: ont::PubType(),
        uri_pattern: pattern("pubtype%%id%%"),
        attributes: vec![
            attr("pubtype", "id", None, vec![ConstraintInfo::PrimaryKey]),
            attr(
                "pubtype",
                "type",
                Some(PropertyMapping::Data(ont_type())),
                vec![],
            ),
        ],
    };
    let team = TableMap {
        id: map_iri("team"),
        table_name: "team".into(),
        class: foaf::Group(),
        uri_pattern: pattern("team%%id%%"),
        attributes: vec![
            attr("team", "id", None, vec![ConstraintInfo::PrimaryKey]),
            attr(
                "team",
                "name",
                Some(PropertyMapping::Data(foaf::name())),
                vec![],
            ),
            attr(
                "team",
                "code",
                Some(PropertyMapping::Data(ont::teamCode())),
                vec![],
            ),
        ],
    };
    let publication_author = LinkTableMap {
        id: map_iri("publication_author"),
        table_name: "publication_author".into(),
        property: dc::creator(),
        subject_attribute: attr(
            "pa",
            "publication",
            None,
            vec![
                ConstraintInfo::NotNull,
                ConstraintInfo::ForeignKey {
                    references: map_iri("publication"),
                },
            ],
        ),
        object_attribute: attr(
            "pa",
            "author",
            None,
            vec![
                ConstraintInfo::NotNull,
                ConstraintInfo::ForeignKey {
                    references: map_iri("author"),
                },
            ],
        ),
    };
    Mapping {
        id: map_iri("database"),
        jdbc_driver: Some("com.mysql.jdbc.Driver".into()),
        jdbc_url: Some("jdbc:mysql://localhost/db".into()),
        username: Some("user".into()),
        password: Some("pw".into()),
        uri_prefix: Some(URI_PREFIX.to_owned()),
        tables: vec![publication, author, publisher, pubtype, team],
        link_tables: vec![publication_author],
    }
}

/// Figure 2 — the domain ontology as an RDF graph: the five classes with
/// their properties' domains and ranges (FOAF, DC, and ONT terms).
pub fn ontology() -> Graph {
    let mut g = Graph::new();
    let class = |g: &mut Graph, c: Iri| {
        g.insert(Triple::new(
            Term::Iri(c.clone()),
            rdf_type(),
            Term::Iri(owl::Class()),
        ));
        g.insert(Triple::new(
            Term::Iri(c),
            rdfs::subClassOf(),
            Term::Iri(owl::Thing()),
        ));
    };
    class(&mut g, foaf::Document());
    class(&mut g, foaf::Person());
    class(&mut g, foaf::Group());
    class(&mut g, ont::Publisher());
    class(&mut g, ont::PubType());

    let prop = |g: &mut Graph, p: Iri, kind: Iri, domain: Iri, range: Iri| {
        g.insert(Triple::new(
            Term::Iri(p.clone()),
            rdf_type(),
            Term::Iri(kind),
        ));
        g.insert(Triple::new(
            Term::Iri(p.clone()),
            rdfs::domain(),
            Term::Iri(domain),
        ));
        g.insert(Triple::new(Term::Iri(p), rdfs::range(), Term::Iri(range)));
    };
    // foaf:Document properties.
    prop(
        &mut g,
        dc::title(),
        owl::DatatypeProperty(),
        foaf::Document(),
        xsd::string(),
    );
    prop(
        &mut g,
        ont::pubYear(),
        owl::DatatypeProperty(),
        foaf::Document(),
        xsd::int(),
    );
    prop(
        &mut g,
        ont::pubType(),
        owl::ObjectProperty(),
        foaf::Document(),
        ont::PubType(),
    );
    prop(
        &mut g,
        dc::publisher(),
        owl::ObjectProperty(),
        foaf::Document(),
        ont::Publisher(),
    );
    prop(
        &mut g,
        dc::creator(),
        owl::ObjectProperty(),
        foaf::Document(),
        foaf::Person(),
    );
    // foaf:Person properties.
    prop(
        &mut g,
        foaf::title(),
        owl::DatatypeProperty(),
        foaf::Person(),
        xsd::string(),
    );
    prop(
        &mut g,
        foaf::mbox(),
        owl::ObjectProperty(),
        foaf::Person(),
        owl::Thing(),
    );
    prop(
        &mut g,
        foaf::firstName(),
        owl::DatatypeProperty(),
        foaf::Person(),
        xsd::string(),
    );
    prop(
        &mut g,
        foaf::family_name(),
        owl::DatatypeProperty(),
        foaf::Person(),
        xsd::string(),
    );
    prop(
        &mut g,
        ont::team(),
        owl::ObjectProperty(),
        foaf::Person(),
        foaf::Group(),
    );
    // foaf:Group properties.
    prop(
        &mut g,
        foaf::name(),
        owl::DatatypeProperty(),
        foaf::Group(),
        xsd::string(),
    );
    prop(
        &mut g,
        ont::teamCode(),
        owl::DatatypeProperty(),
        foaf::Group(),
        xsd::string(),
    );
    // ont:Publisher / ont:PubType properties.
    prop(
        &mut g,
        ont::name(),
        owl::DatatypeProperty(),
        ont::Publisher(),
        xsd::string(),
    );
    prop(
        &mut g,
        ont_type(),
        owl::DatatypeProperty(),
        ont::PubType(),
        xsd::string(),
    );
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_is_valid_and_complete() {
        let s = schema();
        s.validate().unwrap();
        assert_eq!(s.len(), 6);
        let author = s.table("author").unwrap();
        assert_eq!(
            author
                .columns
                .iter()
                .map(|c| c.name.as_str())
                .collect::<Vec<_>>(),
            vec!["id", "title", "firstname", "lastname", "email", "team"]
        );
        assert!(author.column("lastname").unwrap().not_null);
        assert!(
            s.table("publication")
                .unwrap()
                .column("title")
                .unwrap()
                .not_null
        );
        assert!(
            s.table("publication")
                .unwrap()
                .column("year")
                .unwrap()
                .not_null
        );
        assert!(
            s.table("publication_author")
                .unwrap()
                .column("id")
                .unwrap()
                .auto_increment
        );
    }

    #[test]
    fn mapping_validates_against_schema() {
        let issues = r3m::validate_strict(&mapping(), &schema()).unwrap();
        // Only benign warnings allowed (none expected for the use case).
        assert!(issues.is_empty(), "unexpected warnings: {issues:?}");
    }

    #[test]
    fn mapping_matches_table_1() {
        let m = mapping();
        // Table 1, column 1: tables → classes.
        for (table, class) in [
            ("publication", foaf::Document()),
            ("publisher", ont::Publisher()),
            ("pubtype", ont::PubType()),
            ("author", foaf::Person()),
            ("team", foaf::Group()),
        ] {
            assert_eq!(m.table(table).unwrap().class, class, "class of {table}");
        }
        // Table 1, column 2 (spot checks): attributes → properties.
        let check = |table: &str, attr: &str, prop: Iri| {
            assert_eq!(
                m.table(table)
                    .unwrap()
                    .attribute(attr)
                    .unwrap()
                    .property
                    .as_ref()
                    .map(|p| p.property().clone()),
                Some(prop),
                "{table}.{attr}"
            );
        };
        check("publication", "title", dc::title());
        check("publication", "year", ont::pubYear());
        check("publication", "type", ont::pubType());
        check("publication", "publisher", dc::publisher());
        check("author", "title", foaf::title());
        check("author", "email", foaf::mbox());
        check("author", "firstname", foaf::firstName());
        check("author", "lastname", foaf::family_name());
        check("author", "team", ont::team());
        check("team", "name", foaf::name());
        check("team", "code", ont::teamCode());
        check("pubtype", "type", ont_type());
        check("publisher", "name", ont::name());
        // Link table → dc:creator, not a class.
        assert_eq!(m.link_tables.len(), 1);
        assert_eq!(m.link_tables[0].property, dc::creator());
    }

    #[test]
    fn mapping_round_trips_through_turtle() {
        let mut m = mapping();
        let text = r3m::to_turtle(&m);
        let reloaded = r3m::from_turtle(&text).unwrap();
        m.normalize();
        assert_eq!(reloaded, m);
    }

    #[test]
    fn ontology_covers_figure_2() {
        let g = ontology();
        use rdf::Term;
        let classes = g.subjects_with(&rdf_type(), &Term::Iri(owl::Class()));
        assert_eq!(classes.len(), 5);
        // Every mapped property appears in the ontology.
        let m = mapping();
        for p in m.properties() {
            assert!(
                !g.triples_for_subject(&Term::Iri(p.clone())).is_empty(),
                "property {p} missing from ontology"
            );
        }
    }

    #[test]
    fn instance_uris_follow_paper_examples() {
        let m = mapping();
        let author6 = Iri::parse("http://example.org/db/author6").unwrap();
        let (t, vals) = m.identify(&author6).unwrap();
        assert_eq!(t.table_name, "author");
        assert_eq!(vals, vec![("id", "6")]);
        let pub12 = Iri::parse("http://example.org/db/pub12").unwrap();
        assert_eq!(m.identify(&pub12).unwrap().0.table_name, "publication");
        // "publisher3" must not be swallowed by the "pub%%id%%" pattern.
        let publisher3 = Iri::parse("http://example.org/db/publisher3").unwrap();
        assert_eq!(m.identify(&publisher3).unwrap().0.table_name, "publisher");
        let pubtype4 = Iri::parse("http://example.org/db/pubtype4").unwrap();
        assert_eq!(m.identify(&pubtype4).unwrap().0.table_name, "pubtype");
    }
}
