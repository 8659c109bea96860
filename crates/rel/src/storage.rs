//! Row storage for one table: heap of rows plus primary-key, unique,
//! and secondary (non-unique) indexes.
//!
//! Every index is found by the slot of the column it covers, which
//! schema validation resolved once
//! ([`Schema::validate`](crate::schema::Schema::validate)): a write
//! keeps each index without looking a column up by name, and
//! `TableData::eq_index` hands a reader the index answering equality
//! on a slot. Storage compares index keys only; SQL equality — which
//! values may use which key — is the database's
//! [`ColumnProbe`](crate::database::ColumnProbe), the one way to ask
//! which rows hold `column = value`.
//!
//! Every map here is a persistent [`PMap`]: cloning a [`TableData`] is
//! O(#indexes) `Arc` clones, which is what makes publishing an immutable
//! database version per commit affordable (see [`crate::pmap`]). The
//! writer mutates its own copy in place; shared nodes are path-copied
//! on first touch, so published snapshots never observe a mutation.
//! The same clone is a rollback point: keep it, and putting it back
//! undoes every later write.

use crate::database::ProbeIds;
use crate::pmap::PMap;
use crate::schema::Indexed;
use crate::value::{IndexKey, Value};
use std::sync::Arc;

/// Identifier of a stored row, unique within its table for the lifetime
/// of the database.
pub type RowId = u64;

// A secondary index: value → ascending ids of the rows holding it.
type Postings = PMap<IndexKey, Arc<Vec<RowId>>>;

/// The index answering equality on one column, borrowed from its
/// table's storage (see [`TableData::eq_index`]).
#[derive(Debug, Clone, Copy)]
pub(crate) enum EqIndex<'a> {
    Pk(&'a PMap<Vec<IndexKey>, RowId>),
    Unique(&'a PMap<IndexKey, RowId>),
    Secondary(&'a Postings),
}

impl<'a> EqIndex<'a> {
    /// Row ids holding `key` (ascending).
    pub(crate) fn ids(self, key: &IndexKey) -> ProbeIds<'a> {
        match self {
            EqIndex::Pk(index) => ProbeIds::Unique(index.get(std::slice::from_ref(key)).copied()),
            EqIndex::Unique(index) => ProbeIds::Unique(index.get(key).copied()),
            EqIndex::Secondary(index) => {
                ProbeIds::Many(index.get(key).map_or(&[][..], |ids| ids.as_slice()))
            }
        }
    }

    /// Distinct non-NULL keys — O(1), every map keeps its length. A
    /// single-column primary key holds one key per row.
    pub(crate) fn len(self) -> usize {
        match self {
            EqIndex::Pk(index) => index.len(),
            EqIndex::Unique(index) => index.len(),
            EqIndex::Secondary(index) => index.len(),
        }
    }
}

/// Storage for one table.
#[derive(Debug, Clone, Default)]
pub struct TableData {
    rows: PMap<RowId, Vec<Value>>,
    /// PK values → row id; kept only when `pk_slots` is not empty.
    pk_index: PMap<Vec<IndexKey>, RowId>,
    /// Slots of the primary-key columns, in key order; empty when the
    /// key is not indexed (none, or a DOUBLE column in it).
    pk_slots: Vec<usize>,
    /// Per unique column slot: value → row id (NULLs excluded, as in
    /// SQL).
    unique_indexes: Vec<(usize, PMap<IndexKey, RowId>)>,
    /// Per indexed column slot: value → row ids (non-unique; NULLs
    /// excluded). The set is fixed by the schema: every declared FK
    /// column not already covered by the PK or a UNIQUE index. Id lists
    /// are kept in ascending row-id order so index-backed plans
    /// enumerate rows deterministically. Each list is `Arc`-shared:
    /// path-copying a leaf after a publish shares its untouched lists,
    /// and only the list a write touches is copied.
    secondary_indexes: Vec<(usize, Postings)>,
    next_row_id: RowId,
}

impl TableData {
    /// Empty storage keeping the indexes `indexed` names.
    pub(crate) fn for_table(indexed: &Indexed) -> Self {
        TableData {
            pk_slots: indexed.key.clone(),
            unique_indexes: indexed.unique.iter().map(|&i| (i, PMap::new())).collect(),
            secondary_indexes: indexed
                .secondary
                .iter()
                .map(|&i| (i, PMap::new()))
                .collect(),
            ..TableData::default()
        }
    }

    /// The index answering equality on column `slot`: the primary key
    /// when it is the whole key, else the column's unique or secondary
    /// index; `None` when no index covers the column.
    pub(crate) fn eq_index(&self, slot: usize) -> Option<EqIndex<'_>> {
        if self.pk_slots == [slot] {
            return Some(EqIndex::Pk(&self.pk_index));
        }
        if let Some((_, index)) = self.unique_indexes.iter().find(|(s, _)| *s == slot) {
            return Some(EqIndex::Unique(index));
        }
        self.secondary_indexes
            .iter()
            .find(|(s, _)| *s == slot)
            .map(|(_, index)| EqIndex::Secondary(index))
    }

    /// The greatest primary key, in key order (`None` when the table is
    /// empty or has no primary key) — O(log n) down the ordered index.
    pub fn max_pk(&self) -> Option<&[IndexKey]> {
        self.pk_index
            .last_key_value()
            .map(|(key, _)| key.as_slice())
    }

    /// Number of stored rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Iterate `(row_id, row)` in insertion (row id) order.
    pub fn scan(&self) -> impl Iterator<Item = (RowId, &Vec<Value>)> {
        self.rows.iter().map(|(id, row)| (*id, row))
    }

    /// Fetch one row.
    pub fn row(&self, row_id: RowId) -> Option<&Vec<Value>> {
        self.rows.get(&row_id)
    }

    /// Row id holding the given primary key, if present.
    pub fn find_by_pk(&self, key: &[IndexKey]) -> Option<RowId> {
        self.pk_index.get(key).copied()
    }

    /// Store a row that has already passed constraint checking.
    /// Returns the new row id.
    pub fn insert_unchecked(&mut self, row: Vec<Value>) -> RowId {
        let row_id = self.next_row_id;
        self.next_row_id += 1;
        self.index_row(row_id, &row);
        self.rows.insert(row_id, row);
        row_id
    }

    /// Store a row under an explicitly recorded id, advancing the
    /// allocator past it (durability replay of a logged insert: the id
    /// must match the original run so recovered state is byte-identical
    /// and later inserts allocate the same ids).
    pub fn insert_at_unchecked(&mut self, row_id: RowId, row: Vec<Value>) {
        self.index_row(row_id, &row);
        self.rows.insert(row_id, row);
        self.next_row_id = self.next_row_id.max(row_id + 1);
    }

    /// The id the next [`TableData::insert_unchecked`] will assign.
    pub fn next_row_id(&self) -> RowId {
        self.next_row_id
    }

    /// Force the row-id allocator (snapshot restore). Clamped so it
    /// never re-issues an id a stored row already holds.
    pub fn set_next_row_id(&mut self, next: RowId) {
        let floor = self
            .rows
            .last_key_value()
            .map_or(0, |(max_id, _)| max_id + 1);
        self.next_row_id = next.max(floor);
    }

    /// Replace a row's values (already constraint-checked), fixing
    /// indexes. Returns the previous values.
    pub fn update_unchecked(&mut self, row_id: RowId, new_row: Vec<Value>) -> Option<Vec<Value>> {
        let old = self.rows.get(&row_id)?.clone();
        self.unindex_row(row_id, &old);
        self.index_row(row_id, &new_row);
        self.rows.insert(row_id, new_row);
        Some(old)
    }

    /// Remove a row (already constraint-checked), fixing indexes.
    /// Returns the removed values.
    pub fn delete_unchecked(&mut self, row_id: RowId) -> Option<Vec<Value>> {
        let row = self.rows.remove(&row_id)?;
        self.unindex_row(row_id, &row);
        Some(row)
    }

    // Primary-key values of `row` as index keys (empty when no PK).
    fn pk_key(&self, row: &[Value]) -> Vec<IndexKey> {
        self.pk_slots.iter().map(|&i| row[i].index_key()).collect()
    }

    fn index_row(&mut self, row_id: RowId, row: &[Value]) {
        if !self.pk_slots.is_empty() {
            self.pk_index.insert(self.pk_key(row), row_id);
        }
        for (i, index) in &mut self.unique_indexes {
            if !row[*i].is_null() {
                index.insert(row[*i].index_key(), row_id);
            }
        }
        for (i, index) in &mut self.secondary_indexes {
            if !row[*i].is_null() {
                let key = row[*i].index_key();
                match index.get_mut(&key) {
                    Some(ids) => {
                        // An update can move a low id under a key
                        // holding higher ones; keep ascending order.
                        let ids = Arc::make_mut(ids);
                        let pos = ids.partition_point(|&id| id < row_id);
                        ids.insert(pos, row_id);
                    }
                    None => {
                        index.insert(key, Arc::new(vec![row_id]));
                    }
                }
            }
        }
    }

    fn unindex_row(&mut self, row_id: RowId, row: &[Value]) {
        if !self.pk_slots.is_empty() {
            self.pk_index.remove(&self.pk_key(row));
        }
        for (i, index) in &mut self.unique_indexes {
            if !row[*i].is_null() {
                index.remove(&row[*i].index_key());
            }
        }
        for (i, index) in &mut self.secondary_indexes {
            if row[*i].is_null() {
                continue;
            }
            let key = row[*i].index_key();
            let now_empty = match index.get_mut(&key) {
                Some(ids) => {
                    let ids = Arc::make_mut(ids);
                    if let Ok(pos) = ids.binary_search(&row_id) {
                        ids.remove(pos);
                    }
                    ids.is_empty()
                }
                None => false,
            };
            if now_empty {
                index.remove(&key);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, Schema, Table};
    use crate::value::SqlType;

    // Empty storage of `table`, resolved in a schema beside `t`, the
    // table its foreign keys reference.
    fn storage(table: Table) -> TableData {
        let name = table.name.clone();
        let mut schema = Schema::new();
        schema.add_table(table).unwrap();
        if name != "t" {
            schema.add_table(self::table()).unwrap();
        }
        let schema = schema.resolved().unwrap();
        TableData::for_table(&schema.bound(&name).unwrap().1.indexed)
    }

    // The ids the index covering column `slot` holds under `value`'s
    // key (`None` when no index covers it).
    fn probe(data: &TableData, slot: usize, value: Value) -> Option<Vec<RowId>> {
        let index = data.eq_index(slot)?;
        Some(index.ids(&value.index_key()).as_slice().to_vec())
    }

    // The one row the unique index on column `slot` holds under
    // `value`'s key.
    fn unique(data: &TableData, slot: usize, value: Value) -> Option<RowId> {
        let ids = probe(data, slot, value).expect("column is indexed");
        ids.first().copied()
    }

    fn table() -> Table {
        Table::builder("t")
            .column(Column::new("id", SqlType::Integer).not_null())
            .column(Column::new("code", SqlType::Varchar).unique())
            .primary_key(&["id"])
            .build()
    }

    #[test]
    fn insert_and_lookup() {
        let mut data = storage(table());
        let id = data.insert_unchecked(vec![Value::Int(1), Value::text("A")]);
        assert_eq!(data.len(), 1);
        assert_eq!(data.find_by_pk(&[Value::Int(1).index_key()]), Some(id));
        assert_eq!(unique(&data, 1, Value::text("A")), Some(id));
    }

    #[test]
    fn update_moves_index_entries() {
        let mut data = storage(table());
        let id = data.insert_unchecked(vec![Value::Int(1), Value::text("A")]);
        let old = data
            .update_unchecked(id, vec![Value::Int(2), Value::text("B")])
            .unwrap();
        assert_eq!(old[0], Value::Int(1));
        assert_eq!(data.find_by_pk(&[Value::Int(1).index_key()]), None);
        assert_eq!(data.find_by_pk(&[Value::Int(2).index_key()]), Some(id));
        assert_eq!(unique(&data, 1, Value::text("A")), None);
        assert_eq!(unique(&data, 1, Value::text("B")), Some(id));
    }

    #[test]
    fn delete_clears_indexes() {
        let mut data = storage(table());
        let id = data.insert_unchecked(vec![Value::Int(1), Value::text("A")]);
        let row = data.delete_unchecked(id).unwrap();
        assert_eq!(row[1], Value::text("A"));
        assert!(data.is_empty());
        assert_eq!(data.find_by_pk(&[Value::Int(1).index_key()]), None);
    }

    #[test]
    fn nulls_not_in_unique_index() {
        let mut data = storage(table());
        data.insert_unchecked(vec![Value::Int(1), Value::Null]);
        data.insert_unchecked(vec![Value::Int(2), Value::Null]);
        assert_eq!(data.len(), 2);
        assert_eq!(unique(&data, 1, Value::Null), None);
    }

    // `t` plus a non-unique foreign-key column, which the schema
    // indexes.
    fn referencing() -> Table {
        Table::builder("child")
            .column(Column::new("id", SqlType::Integer).not_null())
            .column(Column::new("code", SqlType::Varchar))
            .primary_key(&["id"])
            .foreign_key("code", "t", "code")
            .build()
    }

    #[test]
    fn secondary_index_tracks_mutations() {
        let mut data = storage(referencing());
        assert!(matches!(data.eq_index(1), Some(EqIndex::Secondary(_))));
        let r1 = data.insert_unchecked(vec![Value::Int(1), Value::text("A")]);
        let r2 = data.insert_unchecked(vec![Value::Int(2), Value::text("A")]);
        assert_eq!(probe(&data, 1, Value::text("A")), Some(vec![r1, r2]));
        data.update_unchecked(r1, vec![Value::Int(1), Value::text("B")])
            .unwrap();
        assert_eq!(probe(&data, 1, Value::text("A")), Some(vec![r2]));
        assert_eq!(probe(&data, 1, Value::text("B")), Some(vec![r1]));
        data.delete_unchecked(r2).unwrap();
        assert_eq!(probe(&data, 1, Value::text("A")), Some(vec![]));
        assert_eq!(probe(&data, 2, Value::Int(1)), None);
    }

    #[test]
    fn secondary_index_skips_nulls() {
        let mut data = storage(referencing());
        let r1 = data.insert_unchecked(vec![Value::Int(1), Value::text("A")]);
        data.insert_unchecked(vec![Value::Int(2), Value::Null]);
        assert_eq!(probe(&data, 1, Value::text("A")), Some(vec![r1]));
        assert_eq!(probe(&data, 1, Value::Null), Some(vec![]));
        assert_eq!(data.eq_index(1).map(EqIndex::len), Some(1));
    }

    #[test]
    fn update_keeps_secondary_index_sorted() {
        let mut data = storage(referencing());
        let r1 = data.insert_unchecked(vec![Value::Int(1), Value::text("B")]);
        let r2 = data.insert_unchecked(vec![Value::Int(2), Value::text("A")]);
        data.update_unchecked(r1, vec![Value::Int(1), Value::text("A")])
            .unwrap();
        assert_eq!(probe(&data, 1, Value::text("A")), Some(vec![r1, r2]));
    }

    #[test]
    fn fk_columns_are_indexed_automatically() {
        let referencing = Table::builder("child")
            .column(Column::new("id", SqlType::Integer).not_null())
            .column(Column::new("parent", SqlType::Integer))
            .primary_key(&["id"])
            .foreign_key("parent", "t", "id")
            .build();
        let data = storage(referencing);
        assert!(matches!(data.eq_index(1), Some(EqIndex::Secondary(_))));
    }

    #[test]
    fn scan_in_row_id_order() {
        let mut data = storage(table());
        data.insert_unchecked(vec![Value::Int(3), Value::Null]);
        data.insert_unchecked(vec![Value::Int(1), Value::Null]);
        let ids: Vec<RowId> = data.scan().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![0, 1]);
    }
}
