//! Automatic mapping generation from a relational schema (paper §4:
//! "A basic R3M mapping can be generated automatically from the database
//! schema if it explicitly provides information about foreign key
//! relationships. The only part … that cannot easily be automated is the
//! assignment of domain ontology terms").
//!
//! Generated maps use synthetic ontology terms under a vocabulary base
//! (`<base>Author`, `<base>author_lastname`, …); callers then rebind the
//! terms to real domain vocabulary (as the paper's Table 1 does with
//! FOAF/DC) via [`GeneratorConfig::class_override`] /
//! [`GeneratorConfig::property_override`].

use crate::model::{
    AttributeMap, ConstraintInfo, LinkTableMap, Mapping, PropertyMapping, TableMap,
};
use crate::uri_pattern::UriPattern;
use rdf::Iri;
use rel::{Schema, Table};
use std::collections::BTreeMap;

/// Configuration of the mapping generator.
#[derive(Debug, Clone)]
pub struct GeneratorConfig {
    /// Base IRI for mapping nodes (`map:` namespace), e.g.
    /// `http://example.org/map#`.
    pub map_base: String,
    /// Base IRI for generated vocabulary terms, e.g.
    /// `http://example.org/vocab#`.
    pub vocab_base: String,
    /// Mapping-wide URI prefix for instance URIs (`r3m:uriPrefix`).
    pub uri_prefix: String,
    /// Ontology class overrides per table name.
    pub class_overrides: BTreeMap<String, Iri>,
    /// Ontology property overrides per `(table, attribute)`.
    pub property_overrides: BTreeMap<(String, String), Iri>,
}

impl GeneratorConfig {
    /// Defaults rooted at `http://example.org/`.
    pub fn new() -> Self {
        GeneratorConfig {
            map_base: "http://example.org/map#".into(),
            vocab_base: "http://example.org/vocab#".into(),
            uri_prefix: "http://example.org/db/".into(),
            class_overrides: BTreeMap::new(),
            property_overrides: BTreeMap::new(),
        }
    }

    /// Map `table` to an existing domain class instead of a generated
    /// term.
    pub fn class_override(mut self, table: &str, class: Iri) -> Self {
        self.class_overrides.insert(table.to_owned(), class);
        self
    }

    /// Map `table.attribute` to an existing domain property.
    pub fn property_override(mut self, table: &str, attribute: &str, property: Iri) -> Self {
        self.property_overrides
            .insert((table.to_owned(), attribute.to_owned()), property);
        self
    }
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// Error from mapping generation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenerateError {
    /// Explanation.
    pub message: String,
}

impl std::fmt::Display for GenerateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "mapping generation failed: {}", self.message)
    }
}

impl std::error::Error for GenerateError {}

/// Generate a basic R3M mapping for `schema`.
///
/// Tables with exactly two foreign-key attributes, both NOT NULL or
/// PK-participating, and no other data attributes besides an optional
/// surrogate `id`, are detected as **link tables** (the
/// `publication_author` shape of Figure 1) and mapped to object
/// properties; every other table becomes a `TableMap` with the pattern
/// `<table>%%<pk>%%`.
pub fn generate(schema: &Schema, config: &GeneratorConfig) -> Result<Mapping, GenerateError> {
    schema.validate().map_err(|e| GenerateError {
        message: e.to_string(),
    })?;
    let mut mapping = Mapping {
        id: iri(&config.map_base, "database")?,
        jdbc_driver: None,
        jdbc_url: None,
        username: None,
        password: None,
        uri_prefix: Some(config.uri_prefix.clone()),
        tables: Vec::new(),
        link_tables: Vec::new(),
    };
    for table in schema.tables() {
        if is_link_table(table) {
            mapping
                .link_tables
                .push(generate_link_table(table, config)?);
        } else {
            mapping.tables.push(generate_table(table, config)?);
        }
    }
    Ok(mapping)
}

fn is_link_table(table: &Table) -> bool {
    if table.foreign_keys.len() != 2 {
        return false;
    }
    let fk_columns: Vec<&str> = table
        .foreign_keys
        .iter()
        .map(|f| f.column.as_str())
        .collect();
    table
        .columns
        .iter()
        .all(|c| fk_columns.contains(&c.name.as_str()) || table.is_primary_key(&c.name))
}

fn generate_table(table: &Table, config: &GeneratorConfig) -> Result<TableMap, GenerateError> {
    let pk = match table.primary_key.as_slice() {
        [one] => one.clone(),
        [] => {
            return Err(GenerateError {
                message: format!("table {:?} has no primary key", table.name),
            })
        }
        _ => {
            return Err(GenerateError {
                message: format!(
                    "table {:?}: composite primary keys need a hand-written uriPattern",
                    table.name
                ),
            })
        }
    };
    let class = config
        .class_overrides
        .get(&table.name)
        .cloned()
        .map(Ok)
        .unwrap_or_else(|| iri(&config.vocab_base, &capitalize(&table.name)))?;
    let mut attributes = Vec::new();
    for column in &table.columns {
        attributes.push(generate_attribute(table, &column.name, config, true)?);
    }
    Ok(TableMap {
        id: iri(&config.map_base, &table.name)?,
        table_name: table.name.clone(),
        class,
        uri_pattern: UriPattern::parse(&format!("{}%%{}%%", table.name, pk)).map_err(|e| {
            GenerateError {
                message: e.to_string(),
            }
        })?,
        attributes,
    })
}

fn generate_link_table(
    table: &Table,
    config: &GeneratorConfig,
) -> Result<LinkTableMap, GenerateError> {
    let property = config
        .property_overrides
        .get(&(table.name.clone(), String::new()))
        .cloned()
        .map(Ok)
        .unwrap_or_else(|| iri(&config.vocab_base, &table.name))?;
    let subject_fk = &table.foreign_keys[0];
    let object_fk = &table.foreign_keys[1];
    Ok(LinkTableMap {
        id: iri(&config.map_base, &table.name)?,
        table_name: table.name.clone(),
        property,
        subject_attribute: generate_attribute(table, &subject_fk.column, config, false)?,
        object_attribute: generate_attribute(table, &object_fk.column, config, false)?,
    })
}

fn generate_attribute(
    table: &Table,
    column_name: &str,
    config: &GeneratorConfig,
    with_property: bool,
) -> Result<AttributeMap, GenerateError> {
    let column = table
        .column(column_name)
        .expect("column name comes from the table");
    let mut constraints = Vec::new();
    if table.is_primary_key(column_name) {
        constraints.push(ConstraintInfo::PrimaryKey);
    }
    if column.not_null && !table.is_primary_key(column_name) {
        constraints.push(ConstraintInfo::NotNull);
    }
    if column.unique {
        constraints.push(ConstraintInfo::Unique);
    }
    if let Some(default) = &column.default {
        constraints.push(ConstraintInfo::Default {
            value: Some(default_lexical(default)),
        });
    }
    let fk = table.foreign_key_on(column_name);
    if let Some(fk) = fk {
        constraints.push(ConstraintInfo::ForeignKey {
            references: iri(&config.map_base, &fk.ref_table)?,
        });
    }
    // PK surrogates without FK carry no property: they surface only
    // through the instance URI. FK attributes become object properties,
    // everything else data properties.
    let property = if !with_property || (table.is_primary_key(column_name) && fk.is_none()) {
        None
    } else {
        let term = config
            .property_overrides
            .get(&(table.name.clone(), column_name.to_owned()))
            .cloned()
            .map(Ok)
            .unwrap_or_else(|| iri(&config.vocab_base, &format!("{}_{column_name}", table.name)))?;
        Some(if fk.is_some() {
            PropertyMapping::Object(term)
        } else {
            PropertyMapping::Data(term)
        })
    };
    Ok(AttributeMap {
        id: iri(&config.map_base, &format!("{}_{column_name}", table.name))?,
        attribute_name: column_name.to_owned(),
        property,
        value_pattern: None,
        constraints,
    })
}

fn default_lexical(v: &rel::Value) -> String {
    match v {
        rel::Value::Text(s) => s.as_str().to_owned(),
        other => other.to_string(),
    }
}

fn iri(base: &str, local: &str) -> Result<Iri, GenerateError> {
    Iri::parse(format!("{base}{local}")).map_err(|e| GenerateError {
        message: e.to_string(),
    })
}

fn capitalize(s: &str) -> String {
    let mut chars = s.chars();
    match chars.next() {
        Some(first) => first.to_uppercase().collect::<String>() + chars.as_str(),
        None => String::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdf::namespace::{dc, foaf};
    use rel::{Column, SqlType, Value};

    fn schema() -> Schema {
        let mut schema = Schema::new();
        schema
            .add_table(
                Table::builder("team")
                    .column(Column::new("id", SqlType::Integer).not_null())
                    .column(Column::new("name", SqlType::Varchar))
                    .primary_key(&["id"])
                    .build(),
            )
            .unwrap();
        schema
            .add_table(
                Table::builder("author")
                    .column(Column::new("id", SqlType::Integer).not_null())
                    .column(Column::new("lastname", SqlType::Varchar).not_null())
                    .column(Column::new("rank", SqlType::Integer).default_value(Value::Int(0)))
                    .column(Column::new("team", SqlType::Integer))
                    .primary_key(&["id"])
                    .foreign_key("team", "team", "id")
                    .build(),
            )
            .unwrap();
        schema
            .add_table(
                Table::builder("publication")
                    .column(Column::new("id", SqlType::Integer).not_null())
                    .column(Column::new("title", SqlType::Varchar).not_null())
                    .primary_key(&["id"])
                    .build(),
            )
            .unwrap();
        schema
            .add_table(
                Table::builder("publication_author")
                    .column(Column::new("id", SqlType::Integer).not_null())
                    .column(Column::new("publication", SqlType::Integer).not_null())
                    .column(Column::new("author", SqlType::Integer).not_null())
                    .primary_key(&["id"])
                    .foreign_key("publication", "publication", "id")
                    .foreign_key("author", "author", "id")
                    .build(),
            )
            .unwrap();
        schema
    }

    #[test]
    fn generates_table_maps_and_detects_link_table() {
        let m = generate(&schema(), &GeneratorConfig::new()).unwrap();
        assert_eq!(m.tables.len(), 3);
        assert_eq!(m.link_tables.len(), 1);
        assert_eq!(m.link_tables[0].table_name, "publication_author");
        assert_eq!(
            m.link_tables[0].subject_attribute.attribute_name,
            "publication"
        );
        assert_eq!(m.link_tables[0].object_attribute.attribute_name, "author");
    }

    #[test]
    fn constraints_carried_over() {
        let m = generate(&schema(), &GeneratorConfig::new()).unwrap();
        let author = m.table("author").unwrap();
        assert!(author.attribute("id").unwrap().is_primary_key());
        assert!(author.attribute("lastname").unwrap().is_not_null());
        assert!(author.attribute("rank").unwrap().has_default());
        assert_eq!(
            author
                .attribute("team")
                .unwrap()
                .foreign_key_target()
                .map(|i| i.as_str()),
            Some("http://example.org/map#team")
        );
    }

    #[test]
    fn pk_without_fk_has_no_property() {
        let m = generate(&schema(), &GeneratorConfig::new()).unwrap();
        assert!(m
            .table("author")
            .unwrap()
            .attribute("id")
            .unwrap()
            .property
            .is_none());
    }

    #[test]
    fn fk_becomes_object_property_data_becomes_data_property() {
        let m = generate(&schema(), &GeneratorConfig::new()).unwrap();
        let author = m.table("author").unwrap();
        assert!(author
            .attribute("team")
            .unwrap()
            .property
            .as_ref()
            .unwrap()
            .is_object());
        assert!(!author
            .attribute("lastname")
            .unwrap()
            .property
            .as_ref()
            .unwrap()
            .is_object());
    }

    #[test]
    fn uri_pattern_follows_table_and_pk() {
        let m = generate(&schema(), &GeneratorConfig::new()).unwrap();
        assert_eq!(
            m.table("author").unwrap().uri_pattern.source(),
            "author%%id%%"
        );
    }

    #[test]
    fn overrides_rebind_to_domain_vocabulary() {
        let config = GeneratorConfig::new()
            .class_override("author", foaf::Person())
            .property_override("author", "lastname", foaf::family_name())
            .property_override("publication_author", "", dc::creator());
        let m = generate(&schema(), &config).unwrap();
        assert_eq!(m.table("author").unwrap().class, foaf::Person());
        assert_eq!(
            m.table("author")
                .unwrap()
                .attribute("lastname")
                .unwrap()
                .property
                .as_ref()
                .unwrap()
                .property(),
            &foaf::family_name()
        );
        assert_eq!(m.link_tables[0].property, dc::creator());
    }

    #[test]
    fn generated_mapping_round_trips_through_rdf() {
        let m = generate(&schema(), &GeneratorConfig::new()).unwrap();
        let text = crate::writer::to_turtle(&m);
        let reloaded = crate::reader::from_turtle(&text).unwrap();
        // Reader normalizes ordering; normalize the generated one too.
        let mut original = m;
        original.normalize();
        assert_eq!(reloaded, original);
    }

    #[test]
    fn table_without_pk_is_error() {
        let mut schema = Schema::new();
        schema
            .add_table(
                Table::builder("nopk")
                    .column(Column::new("x", SqlType::Integer))
                    .build(),
            )
            .unwrap();
        assert!(generate(&schema, &GeneratorConfig::new())
            .unwrap_err()
            .message
            .contains("no primary key"));
    }
}
