//! Relational schema: tables, columns, and the declarative constraints
//! the paper's Figure 1 uses (primary keys, foreign keys, NOT NULL,
//! defaults) plus UNIQUE.

use crate::error::{RelError, RelResult};
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
    /// The predicate, over this table's columns. Rows where it
    /// evaluates to FALSE are rejected (NULL passes, as in SQL).
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

    /// Indices of the primary key columns in the row layout.
    pub fn primary_key_indices(&self) -> Vec<usize> {
        self.primary_key
            .iter()
            .map(|name| {
                self.column_index(name)
                    .expect("validated: PK column exists")
            })
            .collect()
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
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Schema {
    tables: BTreeMap<String, Table>,
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

    /// Validate internal consistency: PK/FK columns exist, FK targets
    /// exist and point at the target's primary key or a unique column,
    /// and PK columns are implicitly NOT NULL.
    ///
    /// Call after assembling a schema; [`crate::Database::new`] does so
    /// automatically.
    pub fn validate(&self) -> RelResult<()> {
        for table in self.tables.values() {
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
                if column.auto_increment && column.ty != crate::value::SqlType::Integer {
                    return Err(RelError::SchemaInvalid {
                        message: format!(
                            "table {:?}: AUTO_INCREMENT column {:?} must be INTEGER",
                            table.name, column.name
                        ),
                    });
                }
            }
            for pk in &table.primary_key {
                if table.column_index(pk).is_none() {
                    return Err(RelError::SchemaInvalid {
                        message: format!(
                            "table {:?}: primary key column {pk:?} does not exist",
                            table.name
                        ),
                    });
                }
            }
            for check in &table.checks {
                let mut missing: Option<String> = None;
                visit_columns(&check.predicate, &mut |cref| {
                    if table.column_index(&cref.column).is_none() {
                        missing = Some(cref.column.clone());
                    }
                });
                if let Some(column) = missing {
                    return Err(RelError::SchemaInvalid {
                        message: format!(
                            "table {:?}: CHECK {:?} references missing column {column:?}",
                            table.name, check.name
                        ),
                    });
                }
            }
            for fk in &table.foreign_keys {
                if table.column_index(&fk.column).is_none() {
                    return Err(RelError::SchemaInvalid {
                        message: format!(
                            "table {:?}: foreign key column {:?} does not exist",
                            table.name, fk.column
                        ),
                    });
                }
                let target =
                    self.tables
                        .get(&fk.ref_table)
                        .ok_or_else(|| RelError::SchemaInvalid {
                            message: format!(
                                "table {:?}: foreign key references missing table {:?}",
                                table.name, fk.ref_table
                            ),
                        })?;
                let target_col =
                    target
                        .column(&fk.ref_column)
                        .ok_or_else(|| RelError::SchemaInvalid {
                            message: format!(
                                "table {:?}: foreign key references missing column {}.{}",
                                table.name, fk.ref_table, fk.ref_column
                            ),
                        })?;
                let is_pk = target.primary_key == vec![fk.ref_column.clone()];
                if !is_pk && !target_col.unique {
                    return Err(RelError::SchemaInvalid {
                        message: format!(
                            "table {:?}: foreign key target {}.{} is neither the primary key nor unique",
                            table.name, fk.ref_table, fk.ref_column
                        ),
                    });
                }
            }
        }
        Ok(())
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

// Walk every column reference in an expression.
fn visit_columns(expr: &crate::sql::ast::Expr, f: &mut impl FnMut(&crate::sql::ast::ColumnRef)) {
    use crate::sql::ast::Expr;
    match expr {
        Expr::Value(_) => {}
        Expr::Column(c) => f(c),
        Expr::Binary { left, right, .. } => {
            visit_columns(left, f);
            visit_columns(right, f);
        }
        Expr::Not(inner) => visit_columns(inner, f),
        Expr::IsNull { expr, .. } => visit_columns(expr, f),
        Expr::InList { expr, list, .. } => {
            visit_columns(expr, f);
            for item in list {
                visit_columns(item, f);
            }
        }
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
        let mut schema = Schema::new();
        schema
            .add_table(
                Table::builder("t")
                    .column(Column::new("id", SqlType::Integer))
                    .primary_key(&["id"])
                    .check("bad", "ghost > 0")
                    .build(),
            )
            .unwrap();
        assert!(matches!(
            schema.validate(),
            Err(RelError::SchemaInvalid { .. })
        ));
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
