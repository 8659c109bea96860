//! Differential-test assertions shared by the write-pipeline and
//! concurrency suites: byte-level database equality, index audits (the
//! set of indexes, and what each answers), and
//! the planner-vs-reference query harness over a final state (results
//! compared as multisets through [`rel::sql::ResultSet::canonical`]).

use rdf::namespace::PrefixMap;
use rel::{Database, IndexKey, RowId, Value};

/// A dictionary-decoded view of one cell: text ids are resolved back to
/// their string content so heaps compare by what a client observes, not
/// by interner id. Doubles compare by bit pattern (total equality).
#[derive(Debug, PartialEq)]
enum Decoded {
    Null,
    Int(i64),
    DoubleBits(u64),
    Bool(bool),
    Text(&'static str),
}

fn decode(value: &Value) -> Decoded {
    match value {
        Value::Null => Decoded::Null,
        Value::Int(i) => Decoded::Int(*i),
        Value::Double(d) => Decoded::DoubleBits(d.to_bits()),
        Value::Bool(b) => Decoded::Bool(*b),
        Value::Text(s) => Decoded::Text(s.as_str()),
    }
}

/// Heap equality: every table's `(row id, values)` stream must match —
/// first on raw values (integer dictionary ids), then again through the
/// decode layer, which catches any divergence between a text id and the
/// string it resolves to.
///
/// # Panics
/// Panics (assert) on the first differing table, naming `context`.
pub fn assert_heaps_identical(a: &Database, b: &Database, context: &str) {
    for table in a.schema().tables() {
        let rows_a: Vec<(RowId, Vec<Value>)> = a
            .scan(&table.name)
            .unwrap()
            .map(|(id, row)| (id, row.clone()))
            .collect();
        let rows_b: Vec<(RowId, Vec<Value>)> = b
            .scan(&table.name)
            .unwrap()
            .map(|(id, row)| (id, row.clone()))
            .collect();
        assert_eq!(rows_a, rows_b, "table {} differs: {context}", table.name);
        let decoded = |rows: &[(RowId, Vec<Value>)]| -> Vec<(RowId, Vec<Decoded>)> {
            rows.iter()
                .map(|(id, row)| (*id, row.iter().map(decode).collect()))
                .collect()
        };
        assert_eq!(
            decoded(&rows_a),
            decoded(&rows_b),
            "table {} differs after decoding: {context}",
            table.name
        );
    }
}

/// Index consistency: every probeable column's index must answer exactly
/// the scan-derived row set for every stored value.
///
/// # Panics
/// Panics (assert) on the first inconsistent index, naming `context`.
pub fn assert_indexes_consistent(db: &Database, context: &str) {
    use std::collections::BTreeMap;
    for table in db.schema().tables() {
        for (idx, column) in table.columns.iter().enumerate() {
            if !db.supports_index_probe(&table.name, &column.name).unwrap() {
                continue;
            }
            let mut expected: BTreeMap<IndexKey, (Value, Vec<RowId>)> = BTreeMap::new();
            for (row_id, row) in db.scan(&table.name).unwrap() {
                if row[idx].is_null() {
                    continue;
                }
                expected
                    .entry(row[idx].index_key())
                    .or_insert_with(|| (row[idx], Vec::new()))
                    .1
                    .push(row_id);
            }
            for (value, ids) in expected.values() {
                let probed = db
                    .index_probe(&table.name, &column.name, value)
                    .unwrap()
                    .unwrap_or_else(|| panic!("probeable column stopped probing: {}", column.name));
                assert_eq!(
                    &probed, ids,
                    "index on {}.{} inconsistent for {value}: {context}",
                    table.name, column.name
                );
            }
        }
    }
}

/// Index-set equality: every table's secondary indexes are exactly the
/// ones the schema declares, those of a fresh database over the same
/// schema. The index set never changes at run time.
///
/// # Panics
/// Panics (assert) on the first table whose set differs.
pub fn assert_index_set_is_schemas(db: &Database) {
    let fresh = Database::new(db.schema().clone()).expect("a schema that built a database");
    for table in db.schema().tables() {
        assert_eq!(
            db.secondary_index_columns(&table.name).unwrap(),
            fresh.secondary_index_columns(&table.name).unwrap(),
            "index set of {} is not the schema's",
            table.name
        );
    }
}

/// The planner differential harness over a final state: the
/// index-backed planner and the clone-everything reference executor must
/// return the same rows, as multisets, on the workload's join queries
/// (row order follows each executor's join order).
///
/// # Panics
/// Panics (assert) on the first query where the two executors disagree.
pub fn assert_planner_matches_reference(db: &Database, context: &str) {
    let mapping = crate::mapping();
    for text in [
        crate::workload::select_authors_with_team(),
        crate::workload::select_publications_with_authors(),
        crate::workload::select_recent_publications(2000),
    ] {
        let query = sparql::parse_query_with_prefixes(&text, PrefixMap::common()).unwrap();
        let sparql::Query::Select(select) = query else {
            panic!()
        };
        let compiled = ontoaccess::compile_select(db, &mapping, &select).unwrap();
        let reference = rel::sql::execute_select_reference(db, &compiled.sql).unwrap();
        let planner = rel::sql::execute_select(db, &compiled.sql).unwrap();
        assert_eq!(
            planner.canonical(),
            reference.canonical(),
            "planner drift after {context}: {text}"
        );
    }
}
