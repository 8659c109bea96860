//! The R3M mapping model (paper §4): `DatabaseMap`, `TableMap`,
//! `AttributeMap`, `LinkTableMap`, and recorded integrity constraints.
//!
//! R3M is *update-aware*: unlike read-only RDB2RDF languages it records
//! the schema's integrity constraints so the translator can detect
//! invalid update requests before they reach the database and produce
//! semantically rich feedback.

use crate::uri_pattern::UriPattern;
use rdf::Iri;

/// Constraint information recorded on an [`AttributeMap`]
/// (`r3m:hasConstraint`, Listing 3). Mirrors the paper's supported set:
/// `r3m:PrimaryKey`, `r3m:ForeignKey`, `r3m:NotNull`, `r3m:Default`
/// (plus `r3m:Unique`, which the engine supports).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConstraintInfo {
    /// Attribute is (part of) the primary key.
    PrimaryKey,
    /// Attribute must not be NULL.
    NotNull,
    /// Attribute has a schema default; inserts may omit it.
    Default {
        /// Rendered default value, when recorded.
        value: Option<String>,
    },
    /// Attribute is unique.
    Unique,
    /// Attribute references another mapped table (`r3m:references`
    /// points at the target `TableMap`/`LinkTableMap` node).
    ForeignKey {
        /// IRI of the referenced map node.
        references: Iri,
    },
    /// Row-level CHECK constraint recorded for feedback purposes
    /// (an answer to the paper's §8 question about "other database
    /// constraints such as assertions"). The predicate is carried as
    /// SQL text; enforcement happens in the engine.
    Check {
        /// Constraint name.
        name: String,
        /// SQL predicate text.
        predicate: String,
    },
}

impl ConstraintInfo {
    /// Short name matching the R3M vocabulary class.
    pub fn kind_name(&self) -> &'static str {
        match self {
            ConstraintInfo::PrimaryKey => "PrimaryKey",
            ConstraintInfo::NotNull => "NotNull",
            ConstraintInfo::Default { .. } => "Default",
            ConstraintInfo::Unique => "Unique",
            ConstraintInfo::ForeignKey { .. } => "ForeignKey",
            ConstraintInfo::Check { .. } => "Check",
        }
    }
}

/// Whether an attribute maps to a data or an object property
/// (`r3m:mapsToDataProperty` vs `r3m:mapsToObjectProperty`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PropertyMapping {
    /// Attribute values become literals.
    Data(Iri),
    /// Attribute values become instance IRIs (foreign keys).
    Object(Iri),
}

impl PropertyMapping {
    /// The mapped property IRI.
    pub fn property(&self) -> &Iri {
        match self {
            PropertyMapping::Data(iri) | PropertyMapping::Object(iri) => iri,
        }
    }

    /// Whether this is an object property mapping.
    pub fn is_object(&self) -> bool {
        matches!(self, PropertyMapping::Object(_))
    }
}

/// Mapping of one database attribute (paper Listings 3 and 5).
#[derive(Debug, Clone, PartialEq)]
pub struct AttributeMap {
    /// Node identifying this map in the mapping document (e.g.
    /// `map:author_team`).
    pub id: Iri,
    /// Database attribute name (`r3m:hasAttributeName`).
    pub attribute_name: String,
    /// Mapped ontology property — absent for link-table attributes,
    /// which "are not mapped to any property but record the names of the
    /// attributes and the tables they reference" (§4).
    pub property: Option<PropertyMapping>,
    /// Value-level URI pattern (`r3m:valuePattern`) for object
    /// properties whose objects are *derived IRIs* rather than row
    /// instances — the use case's `email → foaf:mbox` with objects like
    /// `mailto:hert@ifi.uzh.ch` (pattern `mailto:%%email%%`). A small
    /// extension over the paper's published vocabulary; its prototype
    /// needs the same ability to translate Listing 9 into Listing 10.
    /// The pattern must reference exactly this attribute.
    pub value_pattern: Option<crate::uri_pattern::UriPattern>,
    /// Recorded constraints.
    pub constraints: Vec<ConstraintInfo>,
}

impl AttributeMap {
    /// Whether a constraint of the given kind is recorded.
    pub fn has_constraint(&self, kind: &str) -> bool {
        self.constraints.iter().any(|c| c.kind_name() == kind)
    }

    /// Whether this attribute is (part of) the primary key.
    pub fn is_primary_key(&self) -> bool {
        self.has_constraint("PrimaryKey")
    }

    /// Whether this attribute is NOT NULL.
    pub fn is_not_null(&self) -> bool {
        self.has_constraint("NotNull")
    }

    /// Whether this attribute has a schema default.
    pub fn has_default(&self) -> bool {
        self.has_constraint("Default")
    }

    /// The referenced map node if this attribute is a foreign key.
    pub fn foreign_key_target(&self) -> Option<&Iri> {
        self.constraints.iter().find_map(|c| match c {
            ConstraintInfo::ForeignKey { references } => Some(references),
            _ => None,
        })
    }
}

/// Mapping of one concept table to an ontology class (paper Listing 2).
#[derive(Debug, Clone, PartialEq)]
pub struct TableMap {
    /// Node identifying this map (e.g. `map:author`).
    pub id: Iri,
    /// Database table name (`r3m:hasTableName`).
    pub table_name: String,
    /// Mapped ontology class (`r3m:mapsToClass`).
    pub class: Iri,
    /// Instance URI pattern (`r3m:uriPattern`).
    pub uri_pattern: UriPattern,
    /// Attribute maps (`r3m:hasAttribute`).
    pub attributes: Vec<AttributeMap>,
}

impl TableMap {
    /// Attribute map by database attribute name.
    pub fn attribute(&self, name: &str) -> Option<&AttributeMap> {
        self.attributes.iter().find(|a| a.attribute_name == name)
    }

    /// Attribute map by mapped ontology property.
    pub fn attribute_for_property(&self, property: &Iri) -> Option<&AttributeMap> {
        self.attributes
            .iter()
            .find(|a| a.property.as_ref().map(PropertyMapping::property) == Some(property))
    }

    /// Primary-key attribute names.
    pub fn primary_key_attributes(&self) -> Vec<&str> {
        self.attributes
            .iter()
            .filter(|a| a.is_primary_key())
            .map(|a| a.attribute_name.as_str())
            .collect()
    }
}

/// Mapping of an N:M link table to a single object property (paper
/// Listing 4): a row becomes one triple `subject property object`.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkTableMap {
    /// Node identifying this map (e.g. `map:publication_author`).
    pub id: Iri,
    /// Database table name.
    pub table_name: String,
    /// Mapped object property (`r3m:mapsToObjectProperty`, e.g.
    /// `dc:creator`).
    pub property: Iri,
    /// Attribute whose FK target provides the triple *subject*
    /// (`r3m:hasSubjectAttribute`).
    pub subject_attribute: AttributeMap,
    /// Attribute whose FK target provides the triple *object*
    /// (`r3m:hasObjectAttribute`).
    pub object_attribute: AttributeMap,
}

/// A complete R3M mapping (`r3m:DatabaseMap`, paper Listing 1).
#[derive(Debug, Clone, PartialEq)]
pub struct Mapping {
    /// Node identifying the database map (e.g. `map:database`).
    pub id: Iri,
    /// `r3m:jdbcDriver` (connection metadata, carried verbatim).
    pub jdbc_driver: Option<String>,
    /// `r3m:jdbcUrl`.
    pub jdbc_url: Option<String>,
    /// `r3m:username`.
    pub username: Option<String>,
    /// `r3m:password`.
    pub password: Option<String>,
    /// Mapping-wide URI prefix for instance URIs (`r3m:uriPrefix`).
    pub uri_prefix: Option<String>,
    /// Concept table maps.
    pub tables: Vec<TableMap>,
    /// Link table maps.
    pub link_tables: Vec<LinkTableMap>,
}

impl Mapping {
    /// Table map by database table name.
    pub fn table(&self, table_name: &str) -> Option<&TableMap> {
        self.tables.iter().find(|t| t.table_name == table_name)
    }

    /// Table map by its mapping-document node.
    pub fn table_by_id(&self, id: &Iri) -> Option<&TableMap> {
        self.tables.iter().find(|t| &t.id == id)
    }

    /// Table map by mapped ontology class.
    pub fn table_by_class(&self, class: &Iri) -> Option<&TableMap> {
        self.tables.iter().find(|t| &t.class == class)
    }

    /// Link table map by database table name.
    pub fn link_table(&self, table_name: &str) -> Option<&LinkTableMap> {
        self.link_tables.iter().find(|t| t.table_name == table_name)
    }

    /// Link table map by mapped object property.
    pub fn link_table_by_property(&self, property: &Iri) -> Option<&LinkTableMap> {
        self.link_tables.iter().find(|t| &t.property == property)
    }

    /// Identify the table an instance URI belongs to (Algorithm 1 step
    /// 2), returning the table map and the attribute values extracted
    /// from the URI (e.g. `author1` → table `author`, `id = "1"`), both
    /// borrowed.
    ///
    /// When several patterns match (the use case's `pub%%id%%` also
    /// matches `publisher3` and `pubtype4`), the pattern with the most
    /// literal text wins — the most specific one; ties resolve in
    /// declaration order.
    pub fn identify<'m, 'u>(
        &'m self,
        uri: &'u Iri,
    ) -> Option<(&'m TableMap, Vec<(&'m str, &'u str)>)> {
        type Match<'m, 'u> = (usize, &'m TableMap, Vec<(&'m str, &'u str)>);
        let mut best: Option<Match<'m, 'u>> = None;
        for table in &self.tables {
            if let Some(values) = table
                .uri_pattern
                .match_uri(self.uri_prefix.as_deref(), uri.as_str())
            {
                let literal_len: usize = table
                    .uri_pattern
                    .segments()
                    .iter()
                    .map(|s| match s {
                        crate::uri_pattern::Segment::Literal(text) => text.len(),
                        crate::uri_pattern::Segment::Attribute(_) => 0,
                    })
                    .sum();
                if best.as_ref().is_none_or(|(len, _, _)| literal_len > *len) {
                    best = Some((literal_len, table, values));
                }
            }
        }
        best.map(|(_, table, values)| (table, values))
    }

    /// Generate the instance URI for a row of `table`, looking up
    /// attribute values through `lookup`.
    pub fn instance_uri(
        &self,
        table: &TableMap,
        lookup: &dyn Fn(&str) -> Option<std::borrow::Cow<'static, str>>,
    ) -> Result<Iri, crate::uri_pattern::PatternError> {
        let uri = table
            .uri_pattern
            .generate(self.uri_prefix.as_deref(), lookup)?;
        Iri::parse(uri).map_err(|e| crate::uri_pattern::PatternError {
            message: format!("generated URI is invalid: {e}"),
        })
    }

    /// Canonicalize ordering: tables and link tables by name, attributes
    /// by name, constraints by kind. Equality of two mappings that
    /// describe the same structure is then structural equality.
    pub fn normalize(&mut self) {
        fn sort_attr(attr: &mut AttributeMap) {
            attr.constraints
                .sort_by(|a, b| a.kind_name().cmp(b.kind_name()));
        }
        self.tables.sort_by(|a, b| a.table_name.cmp(&b.table_name));
        self.link_tables
            .sort_by(|a, b| a.table_name.cmp(&b.table_name));
        for table in &mut self.tables {
            table
                .attributes
                .sort_by(|a, b| a.attribute_name.cmp(&b.attribute_name));
            for attr in &mut table.attributes {
                sort_attr(attr);
            }
        }
        for link in &mut self.link_tables {
            sort_attr(&mut link.subject_attribute);
            sort_attr(&mut link.object_attribute);
        }
    }

    /// All properties used by this mapping (data, object, and link-table
    /// properties), deduplicated.
    pub fn properties(&self) -> Vec<&Iri> {
        let mut out: Vec<&Iri> = Vec::new();
        for t in &self.tables {
            for a in &t.attributes {
                if let Some(p) = &a.property {
                    let iri = p.property();
                    if !out.contains(&iri) {
                        out.push(iri);
                    }
                }
            }
        }
        for lt in &self.link_tables {
            if !out.contains(&&lt.property) {
                out.push(&lt.property);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdf::namespace::{foaf, ont};

    fn map_iri(local: &str) -> Iri {
        Iri::parse(format!("http://example.org/map#{local}")).unwrap()
    }

    fn author_table() -> TableMap {
        TableMap {
            id: map_iri("author"),
            table_name: "author".into(),
            class: foaf::Person(),
            uri_pattern: UriPattern::parse("author%%id%%").unwrap(),
            attributes: vec![
                AttributeMap {
                    id: map_iri("author_id"),
                    attribute_name: "id".into(),
                    property: None,
                    value_pattern: None,
                    constraints: vec![ConstraintInfo::PrimaryKey],
                },
                AttributeMap {
                    id: map_iri("author_lastname"),
                    attribute_name: "lastname".into(),
                    property: Some(PropertyMapping::Data(foaf::family_name())),
                    value_pattern: None,
                    constraints: vec![ConstraintInfo::NotNull],
                },
                AttributeMap {
                    id: map_iri("author_team"),
                    attribute_name: "team".into(),
                    property: Some(PropertyMapping::Object(ont::team())),
                    value_pattern: None,
                    constraints: vec![ConstraintInfo::ForeignKey {
                        references: map_iri("team"),
                    }],
                },
            ],
        }
    }

    fn team_table() -> TableMap {
        TableMap {
            id: map_iri("team"),
            table_name: "team".into(),
            class: foaf::Group(),
            uri_pattern: UriPattern::parse("team%%id%%").unwrap(),
            attributes: vec![AttributeMap {
                id: map_iri("team_id"),
                attribute_name: "id".into(),
                property: None,
                value_pattern: None,
                constraints: vec![ConstraintInfo::PrimaryKey],
            }],
        }
    }

    fn mapping() -> Mapping {
        Mapping {
            id: map_iri("database"),
            jdbc_driver: Some("com.mysql.jdbc.Driver".into()),
            jdbc_url: Some("jdbc:mysql://localhost/db".into()),
            username: Some("user".into()),
            password: Some("pw".into()),
            uri_prefix: Some("http://example.org/db/".into()),
            tables: vec![author_table(), team_table()],
            link_tables: vec![],
        }
    }

    #[test]
    fn identify_matches_algorithm_1_example() {
        let m = mapping();
        let uri = Iri::parse("http://example.org/db/author1").unwrap();
        let (table, values) = m.identify(&uri).unwrap();
        assert_eq!(table.table_name, "author");
        assert_eq!(values, vec![("id", "1")]);
    }

    #[test]
    fn identify_unknown_uri_is_none() {
        let m = mapping();
        let uri = Iri::parse("http://example.org/db/nothing9").unwrap();
        assert!(m.identify(&uri).is_none());
    }

    #[test]
    fn attribute_lookup_by_property() {
        let t = author_table();
        let a = t.attribute_for_property(&ont::team()).unwrap();
        assert_eq!(a.attribute_name, "team");
        assert!(t.attribute_for_property(&foaf::mbox()).is_none());
    }

    #[test]
    fn constraint_accessors() {
        let t = author_table();
        assert!(t.attribute("id").unwrap().is_primary_key());
        assert!(t.attribute("lastname").unwrap().is_not_null());
        assert_eq!(
            t.attribute("team").unwrap().foreign_key_target(),
            Some(&map_iri("team"))
        );
        assert_eq!(t.primary_key_attributes(), vec!["id"]);
    }

    #[test]
    fn instance_uri_generation() {
        let m = mapping();
        let t = m.table("author").unwrap();
        let uri = m
            .instance_uri(t, &|attr| (attr == "id").then(|| "6".into()))
            .unwrap();
        assert_eq!(uri.as_str(), "http://example.org/db/author6");
    }

    #[test]
    fn lookup_by_class_and_id() {
        let m = mapping();
        assert_eq!(
            m.table_by_class(&foaf::Person())
                .map(|t| t.table_name.as_str()),
            Some("author")
        );
        assert_eq!(
            m.table_by_id(&map_iri("team"))
                .map(|t| t.table_name.as_str()),
            Some("team")
        );
    }

    #[test]
    fn properties_deduplicated() {
        let m = mapping();
        let props = m.properties();
        assert!(props.contains(&&foaf::family_name()));
        assert!(props.contains(&&ont::team()));
        assert_eq!(props.len(), 2);
    }
}
