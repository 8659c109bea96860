//! Relational schema: tables, columns, and the declarative constraints
//! the paper's Figure 1 uses (primary keys, foreign keys, NOT NULL,
//! defaults) plus UNIQUE and CHECK.
//!
//! Validation is resolution: [`Schema::validate`] is the one walk over
//! the names constraints use, and binds each to a column slot. A
//! [`crate::Database`] keeps what it bound inside the schema it shares;
//! storage indexes and row checks read only that.

use crate::error::{RelError, RelResult};
use crate::sql::exec::{bind, Bound};
use crate::value::{SqlType, Value};
use std::collections::BTreeMap;
use std::fmt;

/// A column definition.
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    /// Column name.
    pub name: String,
    /// Data type.
    pub ty: SqlType,
    /// NOT NULL constraint.
    pub not_null: bool,
    /// DEFAULT value applied when an INSERT omits the column.
    pub default: Option<Value>,
    /// UNIQUE constraint (single-column).
    pub unique: bool,
    /// AUTO_INCREMENT: when an INSERT omits (or NULLs) this integer
    /// column, the engine assigns `max(existing) + 1` — the MySQL
    /// behaviour the paper's Listing 16 relies on when inserting into
    /// `publication_author` without its surrogate `id`.
    pub auto_increment: bool,
}

impl Column {
    /// A nullable column without default.
    pub fn new(name: impl Into<String>, ty: SqlType) -> Self {
        Column {
            name: name.into(),
            ty,
            not_null: false,
            default: None,
            unique: false,
            auto_increment: false,
        }
    }

    /// Builder: mark NOT NULL.
    pub fn not_null(mut self) -> Self {
        self.not_null = true;
        self
    }

    /// Builder: set a DEFAULT value.
    pub fn default_value(mut self, value: Value) -> Self {
        self.default = Some(value);
        self
    }

    /// Builder: mark UNIQUE.
    pub fn unique(mut self) -> Self {
        self.unique = true;
        self
    }

    /// Builder: mark AUTO_INCREMENT (integer columns only; enforced by
    /// [`Schema::validate`]).
    pub fn auto_increment(mut self) -> Self {
        self.auto_increment = true;
        self
    }
}

/// A foreign key constraint: `column` references `ref_table.ref_column`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForeignKey {
    /// Referencing column in this table.
    pub column: String,
    /// Referenced table.
    pub ref_table: String,
    /// Referenced column (must be the referenced table's primary key or
    /// a unique column).
    pub ref_column: String,
}

/// A table-level CHECK constraint: a named boolean expression every row
/// must satisfy. The paper's §8 lists "other database constraints such
/// as assertions" as an open question; the engine supports row-level
/// checks so the mediator's feedback path can exercise them.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// Constraint name (reported on violation).
    pub name: String,
    /// The predicate, over this table's columns, each named bare or
    /// qualified with the table's name; naming anything else makes the
    /// schema invalid. Validation binds it to slots with the planner's
    /// binder, and every checked row evaluates the bound form, as an
    /// UPDATE's SET expressions do. Rows where it evaluates to FALSE are
    /// rejected (NULL passes, as in SQL).
    pub predicate: crate::sql::ast::Expr,
}

/// A table definition.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Table name.
    pub name: String,
    /// Columns in declaration order.
    pub columns: Vec<Column>,
    /// Primary key column names (commonly just `id` in the use case).
    pub primary_key: Vec<String>,
    /// Foreign key constraints.
    pub foreign_keys: Vec<ForeignKey>,
    /// CHECK constraints.
    pub checks: Vec<Check>,
}

impl Table {
    /// Start building a table.
    pub fn builder(name: impl Into<String>) -> TableBuilder {
        TableBuilder {
            table: Table {
                name: name.into(),
                columns: Vec::new(),
                primary_key: Vec::new(),
                foreign_keys: Vec::new(),
                checks: Vec::new(),
            },
        }
    }

    /// Position of `column` in the row layout.
    pub fn column_index(&self, column: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == column)
    }

    /// Column definition by name.
    pub fn column(&self, column: &str) -> Option<&Column> {
        self.columns.iter().find(|c| c.name == column)
    }

    /// Whether `column` is part of the primary key.
    pub fn is_primary_key(&self, column: &str) -> bool {
        self.primary_key.iter().any(|c| c == column)
    }

    /// The foreign key declared on `column`, if any.
    pub fn foreign_key_on(&self, column: &str) -> Option<&ForeignKey> {
        self.foreign_keys.iter().find(|fk| fk.column == column)
    }
}

/// Builder for [`Table`].
pub struct TableBuilder {
    table: Table,
}

impl TableBuilder {
    /// Add a column.
    pub fn column(mut self, column: Column) -> Self {
        self.table.columns.push(column);
        self
    }

    /// Declare the primary key (single or composite).
    pub fn primary_key(mut self, columns: &[&str]) -> Self {
        self.table.primary_key = columns.iter().map(|c| (*c).to_owned()).collect();
        self
    }

    /// Declare a foreign key `column → ref_table.ref_column`.
    pub fn foreign_key(mut self, column: &str, ref_table: &str, ref_column: &str) -> Self {
        self.table.foreign_keys.push(ForeignKey {
            column: column.to_owned(),
            ref_table: ref_table.to_owned(),
            ref_column: ref_column.to_owned(),
        });
        self
    }

    /// Declare a CHECK constraint from SQL expression text
    /// (e.g. `"year >= 1900 AND year <= 2100"`). Panics on unparsable
    /// text — checks are schema-definition-time artifacts.
    pub fn check(mut self, name: &str, predicate_sql: &str) -> Self {
        // Parse via a synthetic statement to reuse the expression
        // grammar.
        let stmt = crate::sql::parser::parse(&format!(
            "DELETE FROM {} WHERE {predicate_sql};",
            self.table.name
        ))
        .unwrap_or_else(|e| panic!("invalid CHECK expression {predicate_sql:?}: {e}"));
        let crate::sql::ast::Statement::Delete(d) = stmt else {
            unreachable!()
        };
        self.table.checks.push(Check {
            name: name.to_owned(),
            predicate: d.where_clause.expect("WHERE present"),
        });
        self
    }

    /// Finish building.
    pub fn build(self) -> Table {
        self.table
    }
}

/// A database schema: a named collection of tables.
#[derive(Debug, Clone, Default)]
pub struct Schema {
    tables: BTreeMap<String, Table>,
    // Every table's constraints bound to slots, keyed as `tables`: left
    // by the validation walk when a database takes the schema (see
    // `Schema::resolved`), empty on a schema no database holds.
    pub(crate) constraints: BTreeMap<String, Constraints>,
}

/// One table's constraints bound to its column slots: what storage
/// indexes and the row checks of [`crate::Database`] read, so that no
/// row operation looks a name up.
#[derive(Debug, Clone)]
pub(crate) struct Constraints {
    /// Primary-key slots, in key order.
    pub(crate) key: Vec<usize>,
    /// Per slot: whether NULL is refused (NOT NULL, or a key column).
    pub(crate) required: Vec<bool>,
    /// UNIQUE slots, ascending.
    pub(crate) unique: Vec<usize>,
    /// The indexes storage keeps.
    pub(crate) indexed: Indexed,
    /// This table's foreign keys, in declaration order.
    pub(crate) references: Vec<Reference>,
    /// Every foreign key that references this table: tables in name
    /// order, each one's keys in declaration order.
    pub(crate) referenced_by: Vec<Reference>,
    /// The CHECK predicates in [`Table::checks`] order, bound to this
    /// table's slots.
    pub(crate) checks: Vec<Bound>,
}

/// The slots storage indexes: the primary key (in key order), UNIQUE
/// columns, and the foreign-key columns neither covers (the join columns
/// the SPARQL translation produces). A DOUBLE column gets no index, nor
/// does a key holding one: the column may store `Int` values, whose keys
/// differ from the SQL-equal doubles', so no probe could read it (see
/// [`crate::ColumnProbe`]).
#[derive(Debug, Clone)]
pub(crate) struct Indexed {
    pub(crate) key: Vec<usize>,
    pub(crate) unique: Vec<usize>,
    pub(crate) secondary: Vec<usize>,
}

/// Foreign key `fk` bound to slots: column `slot` (of type `ty`) of
/// `table` holds values of column `target` (`target_ty`) of
/// `fk.ref_table`. Errors report `fk`'s names.
#[derive(Debug, Clone)]
pub(crate) struct Reference {
    pub(crate) fk: ForeignKey,
    pub(crate) table: String,
    pub(crate) slot: usize,
    pub(crate) ty: SqlType,
    pub(crate) target: usize,
    pub(crate) target_ty: SqlType,
}

impl Schema {
    /// Empty schema.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a table. Returns an error on duplicate names.
    pub fn add_table(&mut self, table: Table) -> RelResult<()> {
        if self.tables.contains_key(&table.name) {
            return Err(RelError::DuplicateTable {
                table: table.name.clone(),
            });
        }
        self.tables.insert(table.name.clone(), table);
        Ok(())
    }

    /// Look up a table.
    pub fn table(&self, name: &str) -> RelResult<&Table> {
        self.tables.get(name).ok_or_else(|| RelError::NoSuchTable {
            table: name.to_owned(),
        })
    }

    /// Iterate tables in name order.
    pub fn tables(&self) -> impl Iterator<Item = &Table> {
        self.tables.values()
    }

    /// Number of tables.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// Whether the schema has no tables.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// Validate internal consistency: column names are distinct,
    /// AUTO_INCREMENT columns are INTEGER, PK/FK columns exist, FK
    /// targets exist and point at the target's primary key or a unique
    /// column, and every CHECK predicate names only its own table's
    /// columns (bare, or qualified with the table's name).
    ///
    /// Call after assembling a schema; [`crate::Database::new`] does so
    /// automatically.
    pub fn validate(&self) -> RelResult<()> {
        self.resolve().map(drop)
    }

    // This schema with every table's constraints bound: the one walk
    // over its names, which `Database::new` takes once.
    pub(crate) fn resolved(mut self) -> RelResult<Schema> {
        self.constraints = self.resolve()?;
        Ok(self)
    }

    // The table `name` and its bound constraints (of a resolved schema).
    pub(crate) fn bound(&self, name: &str) -> RelResult<(&Table, &Constraints)> {
        Ok((self.table(name)?, &self.constraints[name]))
    }

    // The validation walk: each table's names are checked and bound to
    // slots, then each foreign key is filed under the table it
    // references too.
    fn resolve(&self) -> RelResult<BTreeMap<String, Constraints>> {
        let mut bound = BTreeMap::new();
        for table in self.tables.values() {
            bound.insert(table.name.clone(), self.resolve_table(table)?);
        }
        for table in self.tables.values() {
            for reference in bound[&table.name].references.clone() {
                let target = bound.get_mut(&reference.fk.ref_table);
                target
                    .expect("resolved above")
                    .referenced_by
                    .push(reference);
            }
        }
        Ok(bound)
    }

    // The constraints of `table` bound to its slots, but for
    // `referenced_by`.
    fn resolve_table(&self, table: &Table) -> RelResult<Constraints> {
        let mut seen = std::collections::BTreeSet::new();
        for column in &table.columns {
            if !seen.insert(&column.name) {
                return Err(RelError::SchemaInvalid {
                    message: format!(
                        "table {:?} declares column {:?} twice",
                        table.name, column.name
                    ),
                });
            }
            if column.auto_increment && column.ty != SqlType::Integer {
                let name = &column.name;
                return Err(invalid(
                    table,
                    format!("AUTO_INCREMENT column {name:?} must be INTEGER"),
                ));
            }
        }
        let mut key = Vec::new();
        for pk in &table.primary_key {
            let missing = || invalid(table, format!("primary key column {pk:?} does not exist"));
            key.push(table.column_index(pk).ok_or_else(missing)?);
        }
        let scope = [(table.name.as_str(), table)];
        let mut checks = Vec::new();
        for check in &table.checks {
            let unbound = |e| {
                let reason = match e {
                    RelError::Execution { message } => message,
                    e => e.to_string(),
                };
                invalid(table, format!("CHECK {:?}: {reason}", check.name))
            };
            checks.push(bind(&check.predicate, &scope).map_err(unbound)?);
        }
        let references = table
            .foreign_keys
            .iter()
            .map(|fk| self.resolve_reference(table, fk))
            .collect::<RelResult<Vec<Reference>>>()?;
        let slots = 0..table.columns.len();
        let unique: Vec<usize> = slots.clone().filter(|&i| table.columns[i].unique).collect();
        let indexable = |&i: &usize| table.columns[i].ty != SqlType::Double;
        let mut indexed = Indexed {
            key: if key.iter().all(indexable) {
                key.clone()
            } else {
                Vec::new()
            },
            unique: unique.iter().copied().filter(indexable).collect(),
            secondary: Vec::new(),
        };
        for &Reference { slot, .. } in &references {
            let covered = indexed.key == [slot] || indexed.unique.contains(&slot);
            if !covered && indexable(&slot) && !indexed.secondary.contains(&slot) {
                indexed.secondary.push(slot);
            }
        }
        Ok(Constraints {
            required: slots
                .map(|i| table.columns[i].not_null || key.contains(&i))
                .collect(),
            key,
            unique,
            indexed,
            references,
            referenced_by: Vec::new(),
            checks,
        })
    }

    // Foreign key `fk` of `table` bound to slots: its column must exist,
    // and its target must be the referenced table's primary key or a
    // unique column.
    fn resolve_reference(&self, table: &Table, fk: &ForeignKey) -> RelResult<Reference> {
        let (column, ref_table, ref_column) = (&fk.column, &fk.ref_table, &fk.ref_column);
        let invalid = |reason: &str| invalid(table, format!("foreign key {reason}"));
        let Some(slot) = table.column_index(column) else {
            return Err(invalid(&format!("column {column:?} does not exist")));
        };
        let Some(target_table) = self.tables.get(ref_table) else {
            return Err(invalid(&format!("references missing table {ref_table:?}")));
        };
        let Some(target) = target_table.column_index(ref_column) else {
            return Err(invalid(&format!(
                "references missing column {ref_table}.{ref_column}"
            )));
        };
        let target_column = &target_table.columns[target];
        if target_table.primary_key != [ref_column.as_str()] && !target_column.unique {
            return Err(invalid(&format!(
                "target {ref_table}.{ref_column} is neither the primary key nor unique"
            )));
        }
        Ok(Reference {
            fk: fk.clone(),
            table: table.name.clone(),
            slot,
            ty: table.columns[slot].ty,
            target,
            target_ty: target_column.ty,
        })
    }

    /// Tables that `table` references via foreign keys (dependency edges
    /// used by Algorithm 1's statement sort).
    pub fn referenced_tables(&self, table: &str) -> Vec<&str> {
        self.tables
            .get(table)
            .map(|t| {
                t.foreign_keys
                    .iter()
                    .map(|fk| fk.ref_table.as_str())
                    .collect()
            })
            .unwrap_or_default()
    }
}

// Validation's error for `table`, declared invalid for `reason`.
fn invalid(table: &Table, reason: String) -> RelError {
    RelError::SchemaInvalid {
        message: format!("table {:?}: {reason}", table.name),
    }
}

impl fmt::Display for Schema {
    /// DDL-style rendering used by the Figure 1 experiment output.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for table in self.tables.values() {
            writeln!(f, "CREATE TABLE {} (", table.name)?;
            let mut lines = Vec::new();
            for column in &table.columns {
                let mut line = format!("  {} {}", column.name, column.ty);
                if column.not_null {
                    line.push_str(" NOT NULL");
                }
                if let Some(default) = &column.default {
                    line.push_str(&format!(" DEFAULT {default}"));
                }
                if column.unique {
                    line.push_str(" UNIQUE");
                }
                lines.push(line);
            }
            if !table.primary_key.is_empty() {
                lines.push(format!("  PRIMARY KEY ({})", table.primary_key.join(", ")));
            }
            for fk in &table.foreign_keys {
                lines.push(format!(
                    "  FOREIGN KEY ({}) REFERENCES {} ({})",
                    fk.column, fk.ref_table, fk.ref_column
                ));
            }
            for check in &table.checks {
                lines.push(format!(
                    "  CONSTRAINT {} CHECK ({})",
                    check.name, check.predicate
                ));
            }
            writeln!(f, "{}", lines.join(",\n"))?;
            writeln!(f, ");")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_table_schema() -> Schema {
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
                    .column(Column::new("team", SqlType::Integer))
                    .primary_key(&["id"])
                    .foreign_key("team", "team", "id")
                    .build(),
            )
            .unwrap();
        schema
    }

    #[test]
    fn build_and_validate() {
        let schema = two_table_schema();
        schema.validate().unwrap();
        assert_eq!(schema.len(), 2);
        let author = schema.table("author").unwrap();
        assert_eq!(author.column_index("lastname"), Some(1));
        assert!(author.is_primary_key("id"));
        assert_eq!(
            author
                .foreign_key_on("team")
                .map(|fk| fk.ref_table.as_str()),
            Some("team")
        );
    }

    #[test]
    fn duplicate_table_rejected() {
        let mut schema = two_table_schema();
        let err = schema
            .add_table(Table::builder("team").build())
            .unwrap_err();
        assert!(matches!(err, RelError::DuplicateTable { .. }));
    }

    #[test]
    fn missing_table_lookup_errors() {
        let schema = two_table_schema();
        assert!(matches!(
            schema.table("nope"),
            Err(RelError::NoSuchTable { .. })
        ));
    }

    #[test]
    fn validate_rejects_missing_fk_target_table() {
        let mut schema = Schema::new();
        schema
            .add_table(
                Table::builder("a")
                    .column(Column::new("id", SqlType::Integer))
                    .column(Column::new("b", SqlType::Integer))
                    .primary_key(&["id"])
                    .foreign_key("b", "missing", "id")
                    .build(),
            )
            .unwrap();
        assert!(matches!(
            schema.validate(),
            Err(RelError::SchemaInvalid { .. })
        ));
    }

    #[test]
    fn validate_rejects_fk_to_non_unique_column() {
        let mut schema = Schema::new();
        schema
            .add_table(
                Table::builder("t")
                    .column(Column::new("id", SqlType::Integer))
                    .column(Column::new("x", SqlType::Integer))
                    .primary_key(&["id"])
                    .build(),
            )
            .unwrap();
        schema
            .add_table(
                Table::builder("u")
                    .column(Column::new("id", SqlType::Integer))
                    .column(Column::new("t_x", SqlType::Integer))
                    .primary_key(&["id"])
                    .foreign_key("t_x", "t", "x")
                    .build(),
            )
            .unwrap();
        assert!(matches!(
            schema.validate(),
            Err(RelError::SchemaInvalid { .. })
        ));
    }

    #[test]
    fn validate_rejects_duplicate_column() {
        let mut schema = Schema::new();
        schema
            .add_table(
                Table::builder("t")
                    .column(Column::new("id", SqlType::Integer))
                    .column(Column::new("id", SqlType::Integer))
                    .build(),
            )
            .unwrap();
        assert!(matches!(
            schema.validate(),
            Err(RelError::SchemaInvalid { .. })
        ));
    }

    #[test]
    fn validate_rejects_missing_pk_column() {
        let mut schema = Schema::new();
        schema
            .add_table(
                Table::builder("t")
                    .column(Column::new("id", SqlType::Integer))
                    .primary_key(&["nope"])
                    .build(),
            )
            .unwrap();
        assert!(matches!(
            schema.validate(),
            Err(RelError::SchemaInvalid { .. })
        ));
    }

    #[test]
    fn referenced_tables_lists_fk_targets() {
        let schema = two_table_schema();
        assert_eq!(schema.referenced_tables("author"), vec!["team"]);
        assert!(schema.referenced_tables("team").is_empty());
    }

    #[test]
    fn ddl_display_mentions_constraints() {
        let out = two_table_schema().to_string();
        assert!(out.contains("CREATE TABLE author"));
        assert!(out.contains("lastname VARCHAR NOT NULL"));
        assert!(out.contains("FOREIGN KEY (team) REFERENCES team (id)"));
        assert!(out.contains("PRIMARY KEY (id)"));
    }
}

#[cfg(test)]
mod check_tests {
    use super::*;
    use crate::database::Database;
    use crate::value::Value;

    fn schema_with_check() -> Schema {
        let mut schema = Schema::new();
        schema
            .add_table(
                Table::builder("publication")
                    .column(Column::new("id", SqlType::Integer).not_null())
                    .column(Column::new("year", SqlType::Integer))
                    .primary_key(&["id"])
                    .check("year_range", "year >= 1900 AND year <= 2100")
                    .build(),
            )
            .unwrap();
        schema
    }

    #[test]
    fn check_accepts_valid_rows_and_nulls() {
        let mut db = Database::new(schema_with_check()).unwrap();
        db.insert(
            "publication",
            &[
                ("id".to_owned(), Value::Int(1)),
                ("year".to_owned(), Value::Int(2009)),
            ],
        )
        .unwrap();
        // NULL year passes (SQL semantics: NULL check result is not FALSE).
        db.insert("publication", &[("id".to_owned(), Value::Int(2))])
            .unwrap();
    }

    #[test]
    fn check_rejects_out_of_range_insert_and_update() {
        let mut db = Database::new(schema_with_check()).unwrap();
        let err = db
            .insert(
                "publication",
                &[
                    ("id".to_owned(), Value::Int(1)),
                    ("year".to_owned(), Value::Int(1492)),
                ],
            )
            .unwrap_err();
        assert!(matches!(err, RelError::CheckViolation { ref name, .. } if name == "year_range"));

        let rid = db
            .insert(
                "publication",
                &[
                    ("id".to_owned(), Value::Int(2)),
                    ("year".to_owned(), Value::Int(2000)),
                ],
            )
            .unwrap();
        let err = db
            .update_row("publication", rid, &[("year".to_owned(), Value::Int(9999))])
            .unwrap_err();
        assert!(matches!(err, RelError::CheckViolation { .. }));
    }

    #[test]
    fn check_referencing_missing_column_fails_validation() {
        // A bare missing column, and a column of another table: neither
        // binds over the CHECK's own table.
        for (table, predicate) in [("t", "ghost > 0"), ("publication", "other.year > 0")] {
            let mut schema = Schema::new();
            schema
                .add_table(
                    Table::builder(table)
                        .column(Column::new("id", SqlType::Integer))
                        .column(Column::new("year", SqlType::Integer))
                        .primary_key(&["id"])
                        .check("bad", predicate)
                        .build(),
                )
                .unwrap();
            let err = schema.validate().unwrap_err();
            let RelError::SchemaInvalid { message } = &err else {
                panic!("{predicate}: {err:?}");
            };
            assert!(
                message.starts_with(&format!("table {table:?}: CHECK \"bad\"")),
                "{message}"
            );
            assert!(Database::new(schema).is_err());
        }
    }

    #[test]
    fn check_appears_in_ddl_display() {
        let out = schema_with_check().to_string();
        assert!(out.contains("CONSTRAINT year_range CHECK (year >= 1900 AND year <= 2100)"));
    }

    #[test]
    #[should_panic(expected = "invalid CHECK expression")]
    fn unparsable_check_panics_at_definition() {
        let _ = Table::builder("t").check("bad", "%%%");
    }
}
