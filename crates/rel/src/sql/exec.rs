//! SQL statement execution against a [`Database`].
//!
//! SELECT is planned, then executed: [`plan_select`] turns the FROM
//! list — the shape the SPARQL-to-SQL translation emits (one table
//! reference per triple pattern, join conditions as WHERE equality
//! predicates) — into a [`SelectPlan`], and [`execute_plan`] runs it.
//! WHERE conjuncts are classified into **candidate restrictions**
//! (`column = constant` or `column IN (constants)` answered from a
//! storage index), **equi-join keys** (executed as index nested loops
//! or hash joins over *borrowed* rows — no upfront table clones), and
//! **residual filters** (pushed down to the shallowest join level where
//! their columns are bound).
//! Joins are ordered by estimated cardinality, starting from the most
//! selective binding. [`execute_select_reference`] preserves the
//! original clone-everything executor for differential testing. On
//! valid statements the two executors return the same rows as a
//! multiset (row order follows each one's join order); unknown or
//! ambiguous column references are rejected up front (the reference
//! executor only notices them for row combinations it happens to
//! enumerate). Data-dependent *evaluation* errors — e.g.
//! `NOT` applied to a non-boolean column — remain data-dependent, as in
//! the reference: whether one surfaces depends on which rows the plan
//! enumerates, so an index restriction that empties a candidate set can
//! suppress one just like an empty table always has. Making those
//! deterministic would take a static type checker over predicates.
//!
//! UPDATE, grouped UPDATE and DELETE reach their rows as a one-table
//! SELECT does: their names are bound to slots once per statement, with
//! the planner's binder and errors, the planner's restriction picker
//! chooses the index probes, and every conjunct is re-checked on each
//! candidate row. Matched rows apply in ascending row-id order.

use crate::database::{assigned_slots, column_slot, ColumnProbe, Database, ProbeIds};
use crate::error::{RelError, RelResult};
use crate::sql::ast::{
    BinOp, BulkUpdateStmt, ColumnRef, DeleteStmt, Expr, InsertStmt, SelectItem, SelectStmt,
    Statement, UpdateStmt,
};
use crate::storage::{RowId, TableData};
use crate::value::{IndexKey, Value};
use std::borrow::Cow;
use std::collections::{HashMap, HashSet};

/// Result of executing one statement.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecOutcome {
    /// Rows affected by INSERT/UPDATE/DELETE.
    Affected(usize),
    /// Result set of a SELECT.
    Rows(ResultSet),
}

impl ExecOutcome {
    /// Rows affected (0 for SELECT).
    pub fn affected(&self) -> usize {
        match self {
            ExecOutcome::Affected(n) => *n,
            ExecOutcome::Rows(_) => 0,
        }
    }

    /// The result set, if this was a SELECT.
    pub fn rows(&self) -> Option<&ResultSet> {
        match self {
            ExecOutcome::Rows(rs) => Some(rs),
            ExecOutcome::Affected(_) => None,
        }
    }
}

/// A SELECT result: column names and rows.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ResultSet {
    /// Output column names (aliases where given).
    pub columns: Vec<String>,
    /// Row values, parallel to `columns`.
    pub rows: Vec<Vec<Value>>,
}

impl ResultSet {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the result is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Value at `(row, column_name)`, if present.
    pub fn value(&self, row: usize, column: &str) -> Option<&Value> {
        let idx = self.columns.iter().position(|c| c == column)?;
        self.rows.get(row)?.get(idx)
    }

    /// The same result with its rows in canonical order (ascending by
    /// their [`IndexKey`] vectors). Row order is otherwise whatever the
    /// join plan enumerates, so two results are equal as multisets —
    /// as sets, under DISTINCT — exactly when their canonical forms are
    /// equal.
    pub fn canonical(mut self) -> ResultSet {
        self.rows
            .sort_by_cached_key(|row| row.iter().map(Value::index_key).collect::<Vec<_>>());
        self
    }
}

/// A SELECT's answer as [`execute_plan`] produced it: rows of
/// [`FlatRows::width`] cells each, stored one after another in one
/// buffer, in the order the plan enumerates them. The row count is kept
/// rather than derived, because a row can have no cells: an `ASK` over
/// a ground pattern projects nothing and still answers by its count.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FlatRows {
    cells: Vec<Value>,
    width: usize,
    len: usize,
}

impl FlatRows {
    /// The answer holding `rows`, each of `width` cells.
    ///
    /// # Panics
    ///
    /// If a row has another number of cells.
    pub fn from_rows<R: AsRef<[Value]>>(width: usize, rows: impl IntoIterator<Item = R>) -> Self {
        let mut flat = FlatRows {
            width,
            ..FlatRows::default()
        };
        for row in rows {
            let row = row.as_ref();
            assert_eq!(row.len(), width, "a row of a {width}-cell answer");
            flat.cells.extend_from_slice(row);
            flat.len += 1;
        }
        flat
    }

    /// Cells per row: the number of outputs.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The rows in order, each a slice of [`FlatRows::width`] cells.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[Value]> + Clone {
        let width = self.width;
        (0..self.len).map(move |row| &self.cells[row * width..(row + 1) * width])
    }

    /// The answer as a [`ResultSet`] with output names `columns`: one
    /// `Vec` per row.
    pub fn into_result_set(self, columns: Vec<String>) -> ResultSet {
        ResultSet {
            rows: self.iter().map(<[Value]>::to_vec).collect(),
            columns,
        }
    }
}

/// Execute one statement.
pub fn execute(db: &mut Database, stmt: &Statement) -> RelResult<ExecOutcome> {
    match stmt {
        Statement::Insert(s) => execute_insert(db, s).map(ExecOutcome::Affected),
        Statement::Update(s) => execute_update(db, s).map(ExecOutcome::Affected),
        Statement::BulkUpdate(s) => execute_bulk_update(db, s).map(ExecOutcome::Affected),
        Statement::Delete(s) => execute_delete(db, s).map(ExecOutcome::Affected),
        Statement::Select(s) => execute_select(db, s).map(ExecOutcome::Rows),
    }
}

/// Execute a SQL string (parses then executes).
pub fn execute_sql(db: &mut Database, sql: &str) -> RelResult<ExecOutcome> {
    let stmt = crate::sql::parser::parse(sql)?;
    execute(db, &stmt)
}

fn execute_insert(db: &mut Database, stmt: &InsertStmt) -> RelResult<usize> {
    db.insert_many(&stmt.table, &stmt.columns, &stmt.rows)
}

// The WHERE conjuncts and SET expressions are bound to the target's
// slots, and the SET targets resolved, once per statement: a bad name is
// an error whether or not a row matches. Every assignment evaluates
// against the pre-statement row: all are computed before the engine
// applies any.
fn execute_update(db: &mut Database, stmt: &UpdateStmt) -> RelResult<usize> {
    let schema = db.shared_schema();
    let table = schema.table(&stmt.table)?;
    let scope = [(table.name.as_str(), table)];
    let conjuncts = bind_conjuncts(stmt.where_clause.as_ref(), &scope)?;
    let columns = assigned_slots(table, stmt.assignments.iter().map(|(c, _)| c), "UPDATE")?;
    let exprs: Vec<Bound> = stmt
        .assignments
        .iter()
        .map(|(_, expr)| bind(expr, &scope))
        .collect::<RelResult<_>>()?;
    let (mut row_ids, mut values) = (Vec::new(), Vec::new());
    for_each_match(db, table, &conjuncts, |row_id, row| {
        row_ids.push(row_id);
        for expr in &exprs {
            values.push(eval_bound(expr, &[row])?);
        }
        Ok(())
    })?;
    db.update_rows(&stmt.table, &columns, &row_ids, &values)
}

// The grouped UPDATE: key and set columns resolve to slots, and the key
// columns to their index probes, once per statement. Each tuple's rows
// come from the restriction picker over its key equalities and are
// re-checked with SQL equality against the *pre-statement* state — the
// same snapshot semantics as a classic UPDATE's WHERE clause — then the
// matched rows are updated in tuple order through one bulk engine pass.
fn execute_bulk_update(db: &mut Database, stmt: &BulkUpdateStmt) -> RelResult<usize> {
    let schema = db.shared_schema();
    let table = schema.table(&stmt.table)?;
    let keys: Vec<usize> = stmt
        .key_columns
        .iter()
        .map(|column| column_slot(table, column))
        .collect::<RelResult<_>>()?;
    let columns = assigned_slots(table, &stmt.set_columns, "UPDATE")?;
    let probes: Vec<ColumnProbe<'_>> = keys.iter().map(|&key| db.probe(table, key)).collect();
    let data = db.table_data(&table.name)?;
    let (mut row_ids, mut values) = (Vec::new(), Vec::new());
    for tuple in &stmt.rows {
        if tuple.key.len() != keys.len() || tuple.set.len() != columns.len() {
            return Err(RelError::Execution {
                message: format!(
                    "bulk UPDATE on {:?}: row width does not match key/set columns",
                    stmt.table
                ),
            });
        }
        let equalities = probes
            .iter()
            .zip(&tuple.key)
            .map(|(&probe, &value)| ((), probe, [value]));
        let restriction = pick_restriction(equalities);
        let ids = restriction.as_ref().map(|(_, admitted)| admitted.ids());
        for_each_candidate(data, ids.as_deref(), |row_id, row| {
            let key_holds = keys
                .iter()
                .zip(&tuple.key)
                .all(|(&slot, value)| row[slot].sql_eq(value) == Some(true));
            if key_holds {
                row_ids.push(row_id);
                values.extend_from_slice(&tuple.set);
            }
            Ok(())
        })?;
    }
    db.update_rows(&stmt.table, &columns, &row_ids, &values)
}

fn execute_delete(db: &mut Database, stmt: &DeleteStmt) -> RelResult<usize> {
    let schema = db.shared_schema();
    let table = schema.table(&stmt.table)?;
    let conjuncts = bind_conjuncts(stmt.where_clause.as_ref(), &[(table.name.as_str(), table)])?;
    let mut row_ids = Vec::new();
    for_each_match(db, table, &conjuncts, |row_id, _| {
        row_ids.push(row_id);
        Ok(())
    })?;
    db.delete_rows(&stmt.table, &row_ids)
}

// The row finder of UPDATE and DELETE: visit every row of `table` that
// all of its bound WHERE `conjuncts` hold for, in ascending row-id order
// (mutations collect what they visit first, because mutating
// invalidates the scan). The candidates are the restriction picker's,
// else every row; each is re-checked against every conjunct, not
// trusted, as the planner does.
fn for_each_match<'d>(
    db: &'d Database,
    table: &crate::schema::Table,
    conjuncts: &[Bound],
    mut visit: impl FnMut(RowId, &'d [Value]) -> RelResult<()>,
) -> RelResult<()> {
    let restriction = restriction(db, table, 0, conjuncts);
    let ids = restriction.as_ref().map(|(_, admitted)| admitted.ids());
    for_each_candidate(
        db.table_data(&table.name)?,
        ids.as_deref(),
        |row_id, row| {
            for conjunct in conjuncts {
                if !holds(conjunct, &[row])? {
                    return Ok(());
                }
            }
            visit(row_id, row)
        },
    )
}

// Visit candidate rows of `data` in ascending row-id order: the
// restricted `ids`, or every row when there is no restriction.
fn for_each_candidate<'d>(
    data: &'d TableData,
    ids: Option<&[RowId]>,
    mut visit: impl FnMut(RowId, &'d [Value]) -> RelResult<()>,
) -> RelResult<()> {
    match ids {
        Some(ids) => ids
            .iter()
            .try_for_each(|&id| visit(id, data.row(id).expect("restricted id is live"))),
        None => data.scan().try_for_each(|(id, row)| visit(id, row)),
    }
}

// The restriction picker — one for SELECT bindings and mutation targets
// alike. Each equality `(tag, probe, constants)` says that the column
// `probe` answers for equals one of `constants`: a `column = constant`
// conjunct gives one, `column IN (constants)` several. Of the equalities
// the indexes answer, the one admitting the fewest rows wins, with its
// tag; an IN list stops probing once it cannot win. `None` means no
// index answers any of them, and the caller scans.
fn pick_restriction<'d, T>(
    equalities: impl IntoIterator<Item = (T, ColumnProbe<'d>, impl IntoIterator<Item = Value>)>,
) -> Option<(T, Admitted<'d>)> {
    let mut best: Option<(T, Admitted<'d>)> = None;
    'equalities: for (tag, probe, constants) in equalities {
        let fewest = best.as_ref().map_or(usize::MAX, |(_, best)| best.len());
        let mut answers = constants.into_iter().map(|value| probe.ids(&value));
        let admitted = match (answers.next(), answers.next()) {
            (Some(Some(ids)), None) => Admitted::Probe(ids),
            (first, second) => {
                let (mut all, mut rows) = (Vec::new(), 0);
                for ids in first.into_iter().chain(second).chain(answers) {
                    let Some(ids) = ids else {
                        continue 'equalities;
                    };
                    rows += ids.as_slice().len();
                    if rows >= fewest {
                        continue 'equalities;
                    }
                    all.push(ids);
                }
                Admitted::Probes(all)
            }
        };
        if admitted.len() < fewest {
            best = Some((tag, admitted));
        }
    }
    best
}

// The rows a restriction admits: one index probe's answer, or one per
// constant of an IN list.
enum Admitted<'d> {
    Probe(ProbeIds<'d>),
    Probes(Vec<ProbeIds<'d>>),
}

impl Admitted<'_> {
    // Rows admitted; an IN list's count is exact unless a constant
    // repeats.
    fn len(&self) -> usize {
        match self {
            Admitted::Probe(ids) => ids.as_slice().len(),
            Admitted::Probes(all) => all.iter().map(|ids| ids.as_slice().len()).sum(),
        }
    }

    // The admitted ids in ascending order, each once: an IN list's union
    // is built here, for the winner alone.
    fn ids(&self) -> Cow<'_, [RowId]> {
        match self {
            Admitted::Probe(ids) => Cow::Borrowed(ids.as_slice()),
            Admitted::Probes(all) => {
                let mut union: Vec<RowId> =
                    all.iter().flat_map(|ids| ids.as_slice()).copied().collect();
                union.sort_unstable();
                union.dedup();
                Cow::Owned(union)
            }
        }
    }
}

// The restriction picker over the bound WHERE conjuncts that restrict
// `binding` (its columns, unqualified or qualified): the restricted
// column's slot and the admitted row ids.
fn restriction<'d>(
    db: &'d Database,
    table: &crate::schema::Table,
    binding: usize,
    conjuncts: &[Bound],
) -> Option<(usize, Admitted<'d>)> {
    pick_restriction(conjuncts.iter().filter_map(|conjunct| {
        let ((of, column), constants) = conjunct.equality()?;
        let constants = constants.iter().filter_map(Bound::constant);
        (of == binding).then(|| (column, db.probe(table, column), constants))
    }))
}

// A WHERE clause's top-level conjuncts, each bound to `scope`.
fn bind_conjuncts(
    predicate: Option<&Expr>,
    scope: &[(&str, &crate::schema::Table)],
) -> RelResult<Vec<Bound>> {
    predicate.map_or(Ok(Vec::new()), |predicate| {
        split_conjuncts_ref(predicate)
            .into_iter()
            .map(|conjunct| bind(conjunct, scope))
            .collect()
    })
}

// Bind every column reference of `expr` to its `(binding, column index)`
// in `scope`, rejecting unknown and ambiguous references with the errors
// `resolve_multi` raises during evaluation — but unconditionally, not
// only for row combinations that get enumerated. A CHECK predicate is
// bound once, by schema validation, over its table alone.
pub(crate) fn bind(expr: &Expr, scope: &[(&str, &crate::schema::Table)]) -> RelResult<Bound> {
    let bind_box = |expr: &Expr| bind(expr, scope).map(Box::new);
    Ok(match expr {
        Expr::Value(v) => Bound::Value(*v),
        Expr::Column(cref) => Bound::Column(bind_column(cref, scope)?),
        Expr::Binary { op, left, right } => Bound::Binary {
            op: *op,
            left: bind_box(left)?,
            right: bind_box(right)?,
        },
        Expr::Not(inner) => Bound::Not(bind_box(inner)?),
        Expr::IsNull { expr, negated } => Bound::IsNull {
            expr: bind_box(expr)?,
            negated: *negated,
        },
        Expr::InList {
            expr,
            list,
            negated,
        } => Bound::InList {
            expr: bind_box(expr)?,
            list: list
                .iter()
                .map(|item| bind(item, scope))
                .collect::<RelResult<_>>()?,
            negated: *negated,
        },
    })
}

fn bind_column(
    cref: &ColumnRef,
    scope: &[(&str, &crate::schema::Table)],
) -> RelResult<BindingColumn> {
    match &cref.table {
        Some(qualifier) => {
            let Some(pos) = scope
                .iter()
                .position(|(name, _)| *name == qualifier.as_str())
            else {
                return Err(RelError::Execution {
                    message: format!("unknown table binding {qualifier:?}"),
                });
            };
            let (name, table) = scope[pos];
            let idx = table
                .column_index(&cref.column)
                .ok_or_else(|| RelError::NoSuchColumn {
                    table: name.to_owned(),
                    column: cref.column.clone(),
                })?;
            Ok((pos, idx))
        }
        None => {
            let mut declaring = scope.iter().enumerate().filter_map(|(pos, (name, table))| {
                table.column_index(&cref.column).map(|idx| (pos, idx, name))
            });
            let Some((pos, idx, _)) = declaring.next() else {
                return Err(RelError::Execution {
                    message: format!("unknown column {:?}", cref.column),
                });
            };
            if let Some((_, _, second_name)) = declaring.next() {
                return Err(RelError::Execution {
                    message: format!(
                        "ambiguous column {:?} (qualify with a table binding; also in {:?})",
                        cref.column, second_name
                    ),
                });
            }
            Ok((pos, idx))
        }
    }
}

// One node of an expression tree as `eval_tree` reads it. The statement
// AST names its columns, so the reference executor's resolver looks them
// up per row; `Bound` expressions hold the slots `bind` resolved. Both
// evaluate through the one function below, which applies SQL
// three-valued logic: comparisons with NULL yield NULL; `AND`/`OR`
// follow Kleene semantics; WHERE accepts only `TRUE`.
enum Node<'e, T: Tree> {
    Value(Value),
    Column(&'e T::Column),
    Binary(BinOp, &'e T, &'e T),
    Not(&'e T),
    IsNull(&'e T, bool),
    InList(&'e T, &'e [T], bool),
}

trait Tree: Sized {
    type Column;
    fn node(&self) -> Node<'_, Self>;
}

impl Tree for Expr {
    type Column = ColumnRef;

    fn node(&self) -> Node<'_, Self> {
        match self {
            Expr::Value(v) => Node::Value(*v),
            Expr::Column(cref) => Node::Column(cref),
            Expr::Binary { op, left, right } => Node::Binary(*op, left, right),
            Expr::Not(inner) => Node::Not(inner),
            Expr::IsNull { expr, negated } => Node::IsNull(expr, *negated),
            Expr::InList {
                expr,
                list,
                negated,
            } => Node::InList(expr, list, *negated),
        }
    }
}

fn eval_tree<T, R>(expr: &T, resolve: &R) -> RelResult<Value>
where
    T: Tree,
    R: Fn(&T::Column) -> RelResult<Value> + ?Sized,
{
    match expr.node() {
        Node::Value(v) => Ok(v),
        Node::Column(column) => resolve(column),
        Node::Not(inner) => match eval_tree(inner, resolve)? {
            Value::Bool(b) => Ok(Value::Bool(!b)),
            Value::Null => Ok(Value::Null),
            other => Err(RelError::Execution {
                message: format!("NOT applied to non-boolean {other}"),
            }),
        },
        Node::IsNull(expr, negated) => {
            let v = eval_tree(expr, resolve)?;
            Ok(Value::Bool(v.is_null() != negated))
        }
        // `x IN (a, b, …)` ≡ `x = a OR x = b OR …` with SQL three-valued
        // logic: a NULL comparison anywhere makes a non-match NULL.
        Node::InList(expr, list, negated) => {
            let v = eval_tree(expr, resolve)?;
            let mut saw_null = false;
            for item in list {
                let w = eval_tree(item, resolve)?;
                match v.sql_eq(&w) {
                    Some(true) => return Ok(Value::Bool(!negated)),
                    Some(false) => {}
                    None => saw_null = true,
                }
            }
            Ok(if saw_null {
                Value::Null
            } else {
                Value::Bool(negated)
            })
        }
        Node::Binary(op, left, right) => {
            let l = eval_tree(left, resolve)?;
            let r = eval_tree(right, resolve)?;
            match op {
                BinOp::And => Ok(kleene_and(&l, &r)?),
                BinOp::Or => Ok(kleene_or(&l, &r)?),
                BinOp::Eq => Ok(tristate(l.sql_eq(&r))),
                BinOp::Ne => Ok(tristate(l.sql_eq(&r).map(|b| !b))),
                BinOp::Lt => Ok(tristate(l.sql_cmp(&r).map(|o| o.is_lt()))),
                BinOp::Le => Ok(tristate(l.sql_cmp(&r).map(|o| o.is_le()))),
                BinOp::Gt => Ok(tristate(l.sql_cmp(&r).map(|o| o.is_gt()))),
                BinOp::Ge => Ok(tristate(l.sql_cmp(&r).map(|o| o.is_ge()))),
            }
        }
    }
}

fn tristate(b: Option<bool>) -> Value {
    match b {
        Some(b) => Value::Bool(b),
        None => Value::Null,
    }
}

fn kleene_and(l: &Value, r: &Value) -> RelResult<Value> {
    Ok(match (as_tri(l)?, as_tri(r)?) {
        (Some(false), _) | (_, Some(false)) => Value::Bool(false),
        (Some(true), Some(true)) => Value::Bool(true),
        _ => Value::Null,
    })
}

fn kleene_or(l: &Value, r: &Value) -> RelResult<Value> {
    Ok(match (as_tri(l)?, as_tri(r)?) {
        (Some(true), _) | (_, Some(true)) => Value::Bool(true),
        (Some(false), Some(false)) => Value::Bool(false),
        _ => Value::Null,
    })
}

fn as_tri(v: &Value) -> RelResult<Option<bool>> {
    match v {
        Value::Bool(b) => Ok(Some(*b)),
        Value::Null => Ok(None),
        other => Err(RelError::Execution {
            message: format!("boolean operator applied to {other}"),
        }),
    }
}

// ----------------------------------------------------------------------
// SELECT: plan, then execute
// ----------------------------------------------------------------------
//
// `plan_select` turns a SELECT into a `SelectPlan` against one database
// state and `execute_plan` runs it; the plan is also what `?explain=1`,
// `?profile=1` and the `query.join` trace spans render, so every surface
// describes the plan the executor runs. Rows are *borrowed* from
// storage (no upfront table clones); WHERE conjuncts are classified into
//
//   * candidate restrictions — `column = constant` or `column IN
//     (constants)` answered from a storage index, shrinking a binding
//     to the matching rows (the restriction picker, which UPDATE and
//     DELETE share);
//   * equi-join keys — `a.x = b.y` between two bindings over
//     hash-compatible column types, executed as an index nested loop
//     (probe the storage index once per outer row) or a hash join
//     (build over the level's candidates), whichever the estimates
//     make cheaper;
//   * residual filters — everything else, applied at the shallowest
//     join level where their columns are bound.
//
// The join order is estimate-driven: start from the binding with the
// fewest candidates, then repeatedly add the connected binding that
// keeps the estimated intermediate result smallest (cross products only
// when nothing is connected; ties go to FROM position). The statistics
// are what storage maintains anyway, each read in O(1): table row
// counts, distinct keys per index, and the exact posting-list length of
// a restriction's probe. Results equal the reference executor's as a
// multiset; row order is whatever the plan enumerates (no ORDER BY, so
// SQL and SPARQL leave it open), and one database state always yields
// one plan and one order.
//
// Names are resolved once, by the planner: every column reference of a
// residual or an output becomes the `(level, column index)` slot that
// holds it, and `execute_plan` resolves each level's storage and probe
// index once per run. The join's scope is the bound rows alone, so no
// row pays for a name lookup.

/// A costed physical plan for one SELECT against one database state —
/// the single description the executor runs and the explain/profile
/// surfaces render. A plan is only valid against the state it was
/// planned on: restricted levels hold that state's row ids.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectPlan {
    /// Join levels in execution order: level 0 is enumerated once, each
    /// deeper level once per partial row of the levels above it.
    pub levels: Vec<PlanLevel>,
    /// Output column names (aliases where given).
    pub columns: Vec<String>,
    outputs: Vec<Bound>,
    distinct: bool,
    // Some binding has no candidate rows: the join can only be empty,
    // and a late empty level would otherwise still enumerate the whole
    // outer product in front of it.
    empty: bool,
}

/// One join level of a [`SelectPlan`].
#[derive(Debug, Clone, PartialEq)]
pub struct PlanLevel {
    /// Table the level reads.
    pub table: String,
    /// The binding's name in the statement (its alias, or the table
    /// name).
    pub alias: String,
    /// How the level reaches its rows.
    pub access: Access,
    /// Estimated rows out of this level: the intermediate result after
    /// joining it.
    pub estimate: u64,
    // Conjuncts evaluated as soon as this level is bound.
    residuals: Vec<Bound>,
    // The table's column count when planned: slots index rows of this
    // width.
    width: usize,
}

/// A plan's expression — a residual conjunct or an output — with every
/// column bound to the slot that holds it: `(binding, column index)`
/// while the FROM list is planned, `(level, column index)` once the join
/// order is fixed. Mutations bind their WHERE and SET expressions, and
/// schema validation each CHECK predicate, over their one table (level
/// 0).
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Bound {
    Value(Value),
    Column(LevelColumn),
    Binary {
        op: BinOp,
        left: Box<Bound>,
        right: Box<Bound>,
    },
    Not(Box<Bound>),
    IsNull {
        expr: Box<Bound>,
        negated: bool,
    },
    InList {
        expr: Box<Bound>,
        list: Vec<Bound>,
        negated: bool,
    },
}

impl Bound {
    // Re-key binding positions to join levels; returns the deepest level
    // the expression reads (0 for none): where a conjunct becomes
    // evaluable.
    fn relevel(&mut self, level_of: &[usize]) -> usize {
        match self {
            Bound::Value(_) => 0,
            Bound::Column((slot, _)) => {
                *slot = level_of[*slot];
                *slot
            }
            Bound::Binary { left, right, .. } => {
                left.relevel(level_of).max(right.relevel(level_of))
            }
            Bound::Not(inner) | Bound::IsNull { expr: inner, .. } => inner.relevel(level_of),
            Bound::InList { expr, list, .. } => list
                .iter_mut()
                .map(|item| item.relevel(level_of))
                .fold(expr.relevel(level_of), usize::max),
        }
    }

    // `column = constant` (either side) or `column IN (constants)`: the
    // column, and the constants it equals one of.
    fn equality(&self) -> Option<(LevelColumn, &[Bound])> {
        match self {
            Bound::Binary {
                op: BinOp::Eq,
                left,
                right,
            } => match (left.as_ref(), right.as_ref()) {
                (Bound::Column(c), value @ Bound::Value(_))
                | (value @ Bound::Value(_), Bound::Column(c)) => {
                    Some((*c, std::slice::from_ref(value)))
                }
                _ => None,
            },
            Bound::InList {
                expr,
                list,
                negated: false,
            } => match expr.as_ref() {
                Bound::Column(c) if list.iter().all(|item| item.constant().is_some()) => {
                    Some((*c, list.as_slice()))
                }
                _ => None,
            },
            _ => None,
        }
    }

    fn constant(&self) -> Option<Value> {
        match self {
            Bound::Value(v) => Some(*v),
            _ => None,
        }
    }
}

impl Tree for Bound {
    type Column = LevelColumn;

    fn node(&self) -> Node<'_, Self> {
        match self {
            Bound::Value(v) => Node::Value(*v),
            Bound::Column(slot) => Node::Column(slot),
            Bound::Binary { op, left, right } => Node::Binary(*op, left, right),
            Bound::Not(inner) => Node::Not(inner),
            Bound::IsNull { expr, negated } => Node::IsNull(expr, *negated),
            Bound::InList {
                expr,
                list,
                negated,
            } => Node::InList(expr, list, *negated),
        }
    }
}

/// A column of an earlier level's row: `(level, column index)`.
pub type LevelColumn = (usize, usize);

/// How one join level reaches its rows.
#[derive(Debug, Clone, PartialEq)]
pub enum Access {
    /// Every row of the table (a leading scan, or a cross product).
    Scan,
    /// The rows the restriction picker admits, in ascending row-id
    /// order: one index probe's for a `column = constant` conjunct, or
    /// the deduplicated union of one probe per constant for `column IN
    /// (constants)`.
    Restricted {
        /// The restricted column.
        column: String,
        /// Matching row ids.
        ids: Vec<RowId>,
    },
    /// Per outer row, probe the table's index on `column` with the
    /// outer row's value — the storage index is the prebuilt build side.
    IndexLoop {
        /// Indexed column on this level's table.
        column: String,
        /// The outer side of the join key.
        probe: LevelColumn,
    },
    /// A hash table over the level's candidates, built once and probed
    /// per outer row: chosen when building is estimated cheaper than
    /// probing an index per outer row, or when no index covers a key.
    HashJoin {
        /// Per key part: this level's column index and the outer side.
        keys: Vec<(usize, LevelColumn)>,
        /// The build side: restricted candidates, or `None` for every
        /// row of the table.
        ids: Option<Vec<RowId>>,
    },
}

impl Access {
    /// Stable name of the access kind, as explain, profile and traces
    /// print it.
    pub fn name(&self) -> &'static str {
        match self {
            Access::Scan => "scan",
            Access::Restricted { .. } => "restricted",
            Access::IndexLoop { .. } => "index_loop",
            Access::HashJoin { .. } => "hash_join",
        }
    }
}

impl SelectPlan {
    /// Equi-join conjuncts the accesses consume: one per index loop,
    /// every key part of a hash join.
    pub fn join_keys(&self) -> usize {
        self.levels
            .iter()
            .map(|level| match &level.access {
                Access::IndexLoop { .. } => 1,
                Access::HashJoin { keys, .. } => keys.len(),
                Access::Scan | Access::Restricted { .. } => 0,
            })
            .sum()
    }

    /// Conjuncts evaluated per candidate row (a restriction's own
    /// conjunct included: it is re-checked, not trusted).
    pub fn residual_conjuncts(&self) -> usize {
        self.levels.iter().map(|level| level.residuals.len()).sum()
    }
}

/// Execute a SELECT through the planner (callers holding a parsed
/// statement skip the `Statement` wrapper — and its clone — entirely).
pub fn execute_select(db: &Database, stmt: &SelectStmt) -> RelResult<ResultSet> {
    let plan = plan_select(db, stmt)?;
    Ok(execute_plan(db, &plan, None)?.into_result_set(plan.columns))
}

// One FROM binding while planning.
struct Candidate<'a> {
    alias: &'a str,
    table: &'a crate::schema::Table,
    rows: usize,
    // The restriction picker's answer for this binding: the restricted
    // column and the row ids it admits.
    restriction: Option<(usize, Admitted<'a>)>,
}

impl Candidate<'_> {
    // Rows the binding contributes on its own.
    fn count(&self) -> usize {
        self.restriction
            .as_ref()
            .map_or(self.rows, |(_, admitted)| admitted.len())
    }

    // Fraction of the table the restriction keeps.
    fn selectivity(&self) -> f64 {
        match self.rows {
            0 => 0.0,
            rows => self.count() as f64 / rows as f64,
        }
    }

    // Distinct keys of the index answering equality on `column`.
    fn distinct_keys(&self, db: &Database, column: usize) -> Option<usize> {
        db.probe(self.table, column).distinct_keys()
    }

    // The restriction as the plan holds it: column and admitted row ids.
    fn take_restriction(&mut self) -> Option<(String, Vec<RowId>)> {
        let (column, admitted) = self.restriction.take()?;
        Some((
            self.table.columns[column].name.clone(),
            admitted.ids().into_owned(),
        ))
    }
}

// Expected rows per key of an index with `distinct` keys over `rows`.
fn rows_per_key(rows: usize, distinct: usize) -> f64 {
    match distinct {
        0 => 0.0,
        distinct => rows as f64 / distinct as f64,
    }
}

// A column of a FROM binding while planning: `(binding, column index)`.
type BindingColumn = (usize, usize);

// An equi-join conjunct between two FROM bindings.
struct Edge {
    conjunct: usize,
    sides: [BindingColumn; 2],
}

impl Edge {
    // `(inner, outer)` when one side is `binding` and the other side's
    // binding is already placed.
    fn oriented(&self, binding: usize, placed: &[bool]) -> Option<(BindingColumn, BindingColumn)> {
        let [a, b] = self.sides;
        if a.0 == binding && placed[b.0] {
            Some((a, b))
        } else if b.0 == binding && placed[a.0] {
            Some((b, a))
        } else {
            None
        }
    }
}

// Expected inner rows per outer row on an equi-join key: rows ÷ distinct
// keys of the inner column's index — else of the outer column's (inner
// values drawn from the outer domain) — else a key-like 1.
fn fanout(
    db: &Database,
    candidates: &[Candidate<'_>],
    inner: BindingColumn,
    outer: BindingColumn,
) -> f64 {
    let distinct = candidates[inner.0]
        .distinct_keys(db, inner.1)
        .or_else(|| candidates[outer.0].distinct_keys(db, outer.1));
    distinct.map_or(1.0, |distinct| {
        rows_per_key(candidates[inner.0].rows, distinct)
    })
}

// Greedy cardinality order: `(binding, estimated rows after joining
// it)` per level.
fn cardinality_order(
    db: &Database,
    candidates: &[Candidate<'_>],
    edges: &[Edge],
) -> Vec<(usize, f64)> {
    let n = candidates.len();
    // `min_by_key` keeps the first of equal minima: FROM position
    // breaks ties.
    let first = (0..n)
        .min_by_key(|&i| candidates[i].count())
        .expect("SELECT has a binding");
    let mut order = Vec::with_capacity(n);
    order.push((first, candidates[first].count() as f64));
    let mut placed = vec![false; n];
    placed[first] = true;
    while order.len() < n {
        let outer = order.last().expect("first level placed").1;
        // (connected, estimate, binding) of the best candidate so far.
        let mut best: Option<(bool, f64, usize)> = None;
        for binding in (0..n).filter(|&b| !placed[b]) {
            let mut fan: Option<f64> = None;
            for (inner, outer_side) in edges.iter().filter_map(|e| e.oriented(binding, &placed)) {
                let f = fanout(db, candidates, inner, outer_side);
                fan = Some(fan.map_or(f, |g: f64| g.min(f)));
            }
            let connected = fan.is_some();
            let estimate = match fan {
                Some(f) => outer * f * candidates[binding].selectivity(),
                None => outer * candidates[binding].count() as f64,
            };
            let better = best.is_none_or(|(best_connected, best_estimate, _)| {
                (connected && !best_connected)
                    || (connected == best_connected && estimate < best_estimate)
            });
            if better {
                best = Some((connected, estimate, binding));
            }
        }
        let (_, estimate, binding) = best.expect("an unplaced binding remains");
        placed[binding] = true;
        order.push((binding, estimate));
    }
    order
}

/// Plan a SELECT against `db`'s current state: bind and validate the
/// FROM list, read the statistics, order the joins by estimated
/// cardinality and pick each level's access.
pub fn plan_select(db: &Database, stmt: &SelectStmt) -> RelResult<SelectPlan> {
    let mut scope: Vec<(&str, &crate::schema::Table)> = Vec::with_capacity(stmt.from.len());
    for tref in &stmt.from {
        let table = db.schema().table(&tref.table)?;
        let name = tref.binding();
        if scope.iter().any(|(bound, _)| *bound == name) {
            return Err(RelError::Execution {
                message: format!("duplicate table binding {name:?} in FROM"),
            });
        }
        scope.push((name, table));
    }
    if scope.is_empty() {
        return Err(RelError::Execution {
            message: "SELECT requires at least one table".into(),
        });
    }
    // Bind every column reference up front, rejecting unknown and
    // ambiguous ones with the errors `resolve_multi` raises during
    // evaluation. The reference executor only hits them for row
    // combinations it actually enumerates; an index restriction can
    // empty a binding and skip that enumeration entirely, so without
    // this the errors would appear and disappear with the data. UPDATE
    // and DELETE bind through the same `bind`, so one error policy
    // covers every statement.
    let conjuncts = bind_conjuncts(stmt.where_clause.as_ref(), &scope)?;
    let (columns, mut outputs) = expand_projection(
        stmt,
        &scope,
        |binding, column| Bound::Column((binding, column)),
        |expr| bind(expr, &scope),
    )?;

    // Statistics per binding. The restriction picker answers each from
    // the `column = constant` and `column IN (constants)` conjuncts
    // whose column resolves *uniquely* to it.
    let mut candidates = Vec::with_capacity(scope.len());
    for (i, &(alias, table)) in scope.iter().enumerate() {
        candidates.push(Candidate {
            alias,
            table,
            rows: db.row_count(&table.name)?,
            restriction: restriction(db, table, i, &conjuncts),
        });
    }
    let empty = candidates.iter().any(|c| c.count() == 0);
    let edges: Vec<Edge> = conjuncts
        .iter()
        .enumerate()
        .filter_map(|(conjunct, expr)| {
            equi_join_sides(expr, &scope).map(|sides| Edge { conjunct, sides })
        })
        .collect();
    let order = if candidates.len() == 1 {
        vec![(0, candidates[0].count() as f64)]
    } else {
        cardinality_order(db, &candidates, &edges)
    };

    // Access per level. A level joined to earlier ones either probes
    // its storage index once per outer row (cost: outer × (1 + fan-out))
    // or builds a hash table over its candidates once (cost: candidates
    // + outer); equi-join keys the access does not consume stay
    // residual filters.
    let mut level_of = vec![usize::MAX; candidates.len()];
    let mut placed = vec![false; candidates.len()];
    let mut consumed = vec![false; conjuncts.len()];
    let mut levels: Vec<PlanLevel> = Vec::with_capacity(order.len());
    let mut outer = 1.0;
    for (depth, &(binding, estimate)) in order.iter().enumerate() {
        // `(conjunct, inner, outer)` per equi-join key into placed levels.
        let keys: Vec<(usize, BindingColumn, BindingColumn)> = edges
            .iter()
            .filter_map(|e| {
                e.oriented(binding, &placed)
                    .map(|(inner, outer_side)| (e.conjunct, inner, outer_side))
            })
            .collect();
        let candidate = &mut candidates[binding];
        let access = if keys.is_empty() {
            match candidate.take_restriction() {
                Some((column, ids)) => Access::Restricted { column, ids },
                None => Access::Scan,
            }
        } else {
            // The cheapest key to drive an index nested loop, if any
            // key's inner column is indexed.
            let mut index_loop: Option<(f64, usize)> = None;
            for (k, &(_, inner, _)) in keys.iter().enumerate() {
                if let Some(distinct) = candidate.distinct_keys(db, inner.1) {
                    let fan = rows_per_key(candidate.rows, distinct);
                    if index_loop.is_none_or(|(best, _)| fan < best) {
                        index_loop = Some((fan, k));
                    }
                }
            }
            let build = candidate.count() as f64;
            match index_loop {
                Some((fan, k)) if outer * (1.0 + fan) <= build + outer => {
                    let (conjunct, inner, outer_side) = keys[k];
                    consumed[conjunct] = true;
                    Access::IndexLoop {
                        column: candidate.table.columns[inner.1].name.clone(),
                        probe: (level_of[outer_side.0], outer_side.1),
                    }
                }
                _ => {
                    for &(conjunct, ..) in &keys {
                        consumed[conjunct] = true;
                    }
                    Access::HashJoin {
                        keys: keys
                            .iter()
                            .map(|&(_, inner, outer_side)| {
                                (inner.1, (level_of[outer_side.0], outer_side.1))
                            })
                            .collect(),
                        ids: candidate.take_restriction().map(|(_, ids)| ids),
                    }
                }
            }
        };
        levels.push(PlanLevel {
            table: candidate.table.name.clone(),
            alias: candidate.alias.to_owned(),
            access,
            estimate: estimate.round() as u64,
            residuals: Vec::new(),
            width: candidate.table.columns.len(),
        });
        level_of[binding] = depth;
        placed[binding] = true;
        outer = estimate;
    }
    for (mut conjunct, consumed) in conjuncts.into_iter().zip(consumed) {
        if !consumed {
            let level = conjunct.relevel(&level_of);
            levels[level].residuals.push(conjunct);
        }
    }
    for output in &mut outputs {
        output.relevel(&level_of);
    }
    Ok(SelectPlan {
        levels,
        columns,
        outputs,
        distinct: stmt.distinct,
        empty,
    })
}

/// Run a plan against the database state it was planned on. The answer
/// is one flat buffer: each output that reads one slot is copied from
/// it, any other output is evaluated, row after row. With a `limit`,
/// the join stops as soon as that many rows are out; under DISTINCT a
/// row counts only the first time it is emitted, so the result is the
/// first `limit` rows of the unlimited one.
pub fn execute_plan(db: &Database, plan: &SelectPlan, limit: Option<usize>) -> RelResult<FlatRows> {
    let mut out = Emitted {
        rows: FlatRows {
            width: plan.outputs.len(),
            ..FlatRows::default()
        },
        limit: limit.unwrap_or(usize::MAX),
        seen: plan.distinct.then(HashSet::new),
    };
    if plan.empty || out.full() {
        return Ok(out.rows);
    }
    let mut levels = Vec::with_capacity(plan.levels.len());
    for level in &plan.levels {
        let stale = || stale_plan(&level.table);
        let table = db.schema().table(&level.table)?;
        if table.columns.len() != level.width {
            return Err(stale());
        }
        let data = db.table_data(&level.table)?;
        let fetch = |ids: &[RowId]| -> RelResult<Vec<&[Value]>> {
            ids.iter()
                .map(|&id| data.row(id).map(Vec::as_slice).ok_or_else(stale))
                .collect()
        };
        let all = || data.scan().map(|(_, row)| row.as_slice()).collect();
        let source = match &level.access {
            Access::Scan => Source::Rows(all()),
            Access::Restricted { ids, .. } => Source::Rows(fetch(ids)?),
            Access::IndexLoop { column, probe } => Source::Probe {
                index: db.probe(table, column_slot(table, column)?),
                data,
                outer: *probe,
                table: &level.table,
            },
            Access::HashJoin { keys, ids } => {
                let rows: Vec<&[Value]> = match ids {
                    Some(ids) => fetch(ids)?,
                    None => all(),
                };
                // Hash table over the candidates, keyed by the level's
                // join columns — rows with a NULL key never equi-match.
                let mut build: HashMap<Vec<IndexKey>, Vec<usize>> = HashMap::new();
                'rows: for (i, row) in rows.iter().enumerate() {
                    let mut key = Vec::with_capacity(keys.len());
                    for &(column, _) in keys {
                        let v = &row[column];
                        if v.is_null() {
                            continue 'rows;
                        }
                        key.push(v.index_key());
                    }
                    build.entry(key).or_default().push(i);
                }
                Source::Hash { rows, build, keys }
            }
        };
        levels.push(LevelRun {
            source,
            residuals: &level.residuals,
        });
    }
    let run = PlanRun {
        levels: &levels,
        outputs: &plan.outputs,
    };
    let mut scope = Vec::with_capacity(levels.len());
    run.join(&mut scope, &mut out)?;
    Ok(out.rows)
}

// The join's output: rows so far, the row budget, and under DISTINCT
// the rows already emitted.
struct Emitted {
    rows: FlatRows,
    limit: usize,
    seen: Option<HashSet<Vec<IndexKey>>>,
}

impl Emitted {
    fn full(&self) -> bool {
        self.rows.len >= self.limit
    }

    // Count the row whose cells were appended from `start` on, or under
    // DISTINCT drop them again if an equal row is already out.
    fn finish_row(&mut self, start: usize) {
        if let Some(seen) = &mut self.seen {
            let row = &self.rows.cells[start..];
            if !seen.insert(row.iter().map(Value::index_key).collect()) {
                self.rows.cells.truncate(start);
                return;
            }
        }
        self.rows.len += 1;
    }
}

fn stale_plan(table: &str) -> RelError {
    RelError::Execution {
        message: format!("plan does not match the database it runs against (table {table:?})"),
    }
}

// Projection expansion shared by the planner and the reference
// executor: `*` over every binding's columns in FROM order (qualified
// names when more than one binding is in scope), expressions with
// optional aliases. `column(binding, column index)` and `expr` build
// each output in the caller's form.
fn expand_projection<T>(
    stmt: &SelectStmt,
    bindings: &[(&str, &crate::schema::Table)],
    column: impl Fn(usize, usize) -> T,
    mut expr: impl FnMut(&Expr) -> RelResult<T>,
) -> RelResult<(Vec<String>, Vec<T>)> {
    let mut out_columns: Vec<String> = Vec::new();
    let mut outputs: Vec<T> = Vec::new();
    for item in &stmt.items {
        match item {
            SelectItem::Star => {
                for (binding, (name, table)) in bindings.iter().enumerate() {
                    for (idx, col) in table.columns.iter().enumerate() {
                        out_columns.push(if bindings.len() > 1 {
                            format!("{}.{}", name, col.name)
                        } else {
                            col.name.clone()
                        });
                        outputs.push(column(binding, idx));
                    }
                }
            }
            SelectItem::Expr { expr: e, alias } => {
                let name = alias.clone().unwrap_or_else(|| match e {
                    Expr::Column(c) => c.column.clone(),
                    other => other.to_string(),
                });
                out_columns.push(name);
                outputs.push(expr(e)?);
            }
        }
    }
    Ok((out_columns, outputs))
}

// An `a.x = b.y` conjunct between two distinct bindings whose column
// types make IndexKey equality coincide with SQL equality: same
// declared type, not DOUBLE (DOUBLE columns may store Int values that
// compare SQL-equal to non-identical keys). Returns `(binding, column
// index)` of both sides; anything else stays a residual filter.
fn equi_join_sides(
    conjunct: &Bound,
    scope: &[(&str, &crate::schema::Table)],
) -> Option<[BindingColumn; 2]> {
    let Bound::Binary {
        op: BinOp::Eq,
        left,
        right,
    } = conjunct
    else {
        return None;
    };
    let (&Bound::Column(a), &Bound::Column(b)) = (left.as_ref(), right.as_ref()) else {
        return None;
    };
    if a.0 == b.0 {
        return None; // same binding: plain filter
    }
    let ty_a = scope[a.0].1.columns[a.1].ty;
    let ty_b = scope[b.0].1.columns[b.1].ty;
    if ty_a != ty_b || ty_a == crate::value::SqlType::Double {
        return None;
    }
    Some([a, b])
}

// One plan level prepared for execution: where its rows come from, and
// the conjuncts they must pass.
struct LevelRun<'a> {
    source: Source<'a>,
    residuals: &'a [Bound],
}

// A level's rows, with storage and indexes resolved for the whole run.
enum Source<'a> {
    // Scan and restricted levels: the candidate rows.
    Rows(Vec<&'a [Value]>),
    // Index nested loop: per outer row, probe `index` with the value in
    // slot `outer` and fetch the matches from `data`, the storage of
    // `table`.
    Probe {
        index: ColumnProbe<'a>,
        data: &'a TableData,
        outer: LevelColumn,
        table: &'a str,
    },
    // Hash join: the candidate rows, their positions by join key, and
    // per key part this level's column and the outer slot.
    Hash {
        rows: Vec<&'a [Value]>,
        build: HashMap<Vec<IndexKey>, Vec<usize>>,
        keys: &'a [(usize, LevelColumn)],
    },
}

struct PlanRun<'p, 'a> {
    levels: &'p [LevelRun<'a>],
    outputs: &'a [Bound],
}

// The rows bound so far, one per level: slot `(level, column)` is
// `scope[level][column]`.
type Scope<'a> = Vec<&'a [Value]>;

impl<'a> PlanRun<'_, 'a> {
    // Recursive join: bind one row per level through its access path,
    // apply the residual conjuncts that just became evaluable, recurse.
    // Every loop stops once `out` is full.
    fn join(&self, scope: &mut Scope<'a>, out: &mut Emitted) -> RelResult<()> {
        let Some(level) = self.levels.get(scope.len()) else {
            let start = out.rows.cells.len();
            for output in self.outputs {
                let value = match *output {
                    Bound::Column((level, column)) => scope[level][column],
                    ref expr => eval_bound(expr, scope)?,
                };
                out.rows.cells.push(value);
            }
            out.finish_row(start);
            return Ok(());
        };
        match &level.source {
            Source::Rows(rows) => {
                for &row in rows {
                    if out.full() {
                        break;
                    }
                    self.bind_row(scope, out, level, row)?;
                }
            }
            Source::Hash { rows, build, keys } => {
                let mut key = Vec::with_capacity(keys.len());
                for &(_, (pos, idx)) in keys.iter() {
                    let v = &scope[pos][idx];
                    if v.is_null() {
                        return Ok(()); // NULL never equi-joins
                    }
                    key.push(v.index_key());
                }
                if let Some(positions) = build.get(&key) {
                    for &i in positions {
                        if out.full() {
                            break;
                        }
                        self.bind_row(scope, out, level, rows[i])?;
                    }
                }
            }
            Source::Probe {
                index,
                data,
                outer,
                table,
            } => {
                let stale = || stale_plan(table);
                let ids = index.ids(&scope[outer.0][outer.1]).ok_or_else(stale)?;
                for &row_id in ids.as_slice() {
                    if out.full() {
                        break;
                    }
                    let row = data.row(row_id).ok_or_else(stale)?;
                    self.bind_row(scope, out, level, row)?;
                }
            }
        }
        Ok(())
    }

    fn bind_row(
        &self,
        scope: &mut Scope<'a>,
        out: &mut Emitted,
        level: &LevelRun<'a>,
        row: &'a [Value],
    ) -> RelResult<()> {
        #[cfg(test)]
        planner_tests::ROWS_BOUND.with(|n| n.set(n.get() + 1));
        scope.push(row);
        for conjunct in level.residuals {
            if !holds(conjunct, scope)? {
                scope.pop();
                return Ok(());
            }
        }
        self.join(scope, out)?;
        scope.pop();
        Ok(())
    }
}

// Whether a conjunct is true of the rows bound so far. An `IS [NOT]
// NULL` of one slot is answered from the slot. Inlined into the join's
// per-row loop: with the mutations' row finder as a second caller, the
// compiler stopped doing so itself (`read_scan`'s execute ran 2 %
// slower).
#[inline]
fn holds(conjunct: &Bound, scope: &[&[Value]]) -> RelResult<bool> {
    if let Bound::IsNull { expr, negated } = conjunct {
        if let Bound::Column((level, column)) = **expr {
            return Ok(scope[level][column].is_null() != *negated);
        }
    }
    Ok(matches!(eval_bound(conjunct, scope)?, Value::Bool(true)))
}

// Evaluate a bound expression over the rows bound so far (a CHECK
// predicate: over the one row it checks).
pub(crate) fn eval_bound(expr: &Bound, scope: &[&[Value]]) -> RelResult<Value> {
    eval_tree(expr, &|&(level, column): &LevelColumn| {
        Ok(scope[level][column])
    })
}

/// Reference SELECT executor: the pre-planner clone-everything pruned
/// nested loop (upfront full-table clones, greedy ordering, conjunct
/// pushdown, no indexes). Kept verbatim as the semantic baseline for
/// the planner's differential tests and benchmarks.
pub fn execute_select_reference(db: &Database, stmt: &SelectStmt) -> RelResult<ResultSet> {
    struct Binding {
        name: String,
        table: crate::schema::Table,
        rows: Vec<Vec<Value>>,
    }
    let mut bindings = Vec::new();
    for tref in &stmt.from {
        let table = db.schema().table(&tref.table)?.clone();
        let rows: Vec<Vec<Value>> = db.scan(&tref.table)?.map(|(_, r)| r.clone()).collect();
        let name = tref.binding().to_owned();
        if bindings.iter().any(|b: &Binding| b.name == name) {
            return Err(RelError::Execution {
                message: format!("duplicate table binding {name:?} in FROM"),
            });
        }
        bindings.push(Binding { name, table, rows });
    }
    if bindings.is_empty() {
        return Err(RelError::Execution {
            message: "SELECT requires at least one table".into(),
        });
    }
    let named: Vec<(&str, &crate::schema::Table)> = bindings
        .iter()
        .map(|b| (b.name.as_str(), &b.table))
        .collect();
    let (out_columns, out_exprs) = expand_projection(
        stmt,
        &named,
        |binding, column| {
            let (name, table) = named[binding];
            Expr::Column(ColumnRef::qualified(
                name,
                table.columns[column].name.clone(),
            ))
        },
        |expr| Ok(expr.clone()),
    )?;
    let raw_conjuncts = match &stmt.where_clause {
        Some(pred) => split_conjuncts(pred),
        None => Vec::new(),
    };
    let order = join_order(
        &bindings
            .iter()
            .map(|b| (&b.name, &b.table, b.rows.len()))
            .collect::<Vec<_>>(),
        &raw_conjuncts,
    )?;
    let ordered: Vec<(&str, &crate::schema::Table, &[Vec<Value>])> = order
        .iter()
        .map(|&i| {
            let b = &bindings[i];
            (b.name.as_str(), &b.table, b.rows.as_slice())
        })
        .collect();
    let mut conjuncts: Vec<(usize, Expr)> = Vec::new();
    {
        let level_scope: Vec<(&str, &crate::schema::Table)> = order
            .iter()
            .map(|&i| (bindings[i].name.as_str(), &bindings[i].table))
            .collect();
        for c in raw_conjuncts {
            let level = conjunct_level(&c, &level_scope)?;
            conjuncts.push((level, c));
        }
    }
    let mut result = ResultSet {
        columns: out_columns,
        rows: Vec::new(),
    };
    if bindings.iter().all(|b| !b.rows.is_empty()) {
        let mut current: Vec<(&str, &crate::schema::Table, &Vec<Value>)> = Vec::new();
        reference_join_level(
            &ordered,
            &conjuncts,
            &out_exprs,
            &mut current,
            &mut result.rows,
        )?;
    }
    if stmt.distinct {
        let mut seen = std::collections::BTreeSet::new();
        result.rows.retain(|row| {
            let key: Vec<crate::value::IndexKey> = row.iter().map(Value::index_key).collect();
            seen.insert(key)
        });
    }
    Ok(result)
}

// Which binding indices does a conjunct touch? (Unqualified ambiguous
// columns count every candidate.)
fn conjunct_bindings(
    expr: &Expr,
    bindings: &[(&String, &crate::schema::Table, usize)],
) -> Vec<usize> {
    fn walk(
        expr: &Expr,
        bindings: &[(&String, &crate::schema::Table, usize)],
        out: &mut Vec<usize>,
    ) {
        match expr {
            Expr::Value(_) => {}
            Expr::Column(cref) => match &cref.table {
                Some(qualifier) => {
                    if let Some(i) = bindings.iter().position(|(name, _, _)| *name == qualifier) {
                        out.push(i);
                    }
                }
                None => {
                    for (i, (_, table, _)) in bindings.iter().enumerate() {
                        if table.column_index(&cref.column).is_some() {
                            out.push(i);
                        }
                    }
                }
            },
            Expr::Binary { left, right, .. } => {
                walk(left, bindings, out);
                walk(right, bindings, out);
            }
            Expr::Not(inner) => walk(inner, bindings, out),
            Expr::IsNull { expr, .. } => walk(expr, bindings, out),
            Expr::InList { expr, list, .. } => {
                walk(expr, bindings, out);
                for item in list {
                    walk(item, bindings, out);
                }
            }
        }
    }
    let mut out = Vec::new();
    walk(expr, bindings, &mut out);
    out.sort_unstable();
    out.dedup();
    out
}

// Pick an evaluation order (permutation of binding indices) that lets
// join conjuncts apply as early as possible.
fn join_order(
    bindings: &[(&String, &crate::schema::Table, usize)],
    conjuncts: &[Expr],
) -> RelResult<Vec<usize>> {
    let touched: Vec<Vec<usize>> = conjuncts
        .iter()
        .map(|c| conjunct_bindings(c, bindings))
        .collect();
    let n = bindings.len();
    let mut chosen: Vec<usize> = Vec::with_capacity(n);
    let mut in_chosen = vec![false; n];
    while chosen.len() < n {
        let mut best: Option<(usize, usize, usize)> = None; // (score, -rows sort, idx)
        for i in 0..n {
            if in_chosen[i] {
                continue;
            }
            // Conjuncts that become fully bound by adding i.
            let score = touched
                .iter()
                .filter(|t| t.contains(&i) && t.iter().all(|&b| b == i || in_chosen[b]))
                .count();
            let rows = bindings[i].2;
            let candidate = (score, usize::MAX - rows, usize::MAX - i); // ties: original order
            if best.is_none_or(|b| candidate > b) {
                best = Some(candidate);
            }
        }
        let (_, _, inv) = best.expect("n > chosen");
        let idx = usize::MAX - inv;
        in_chosen[idx] = true;
        chosen.push(idx);
    }
    Ok(chosen)
}

// Split an expression into its top-level AND conjuncts, borrowing.
fn split_conjuncts_ref(expr: &Expr) -> Vec<&Expr> {
    fn split<'e>(expr: &'e Expr, out: &mut Vec<&'e Expr>) {
        match expr {
            Expr::Binary {
                op: BinOp::And,
                left,
                right,
            } => {
                split(left, out);
                split(right, out);
            }
            other => out.push(other),
        }
    }
    let mut out = Vec::new();
    split(expr, &mut out);
    out
}

// Split an expression into its top-level AND conjuncts (owned).
fn split_conjuncts(expr: &Expr) -> Vec<Expr> {
    split_conjuncts_ref(expr).into_iter().cloned().collect()
}

// The shallowest join level (binding index) at which every column of
// `expr` is bound. Qualified refs resolve to their binding; unqualified
// refs to the unique binding declaring the column (ambiguity is reported
// at eval time — use the deepest candidate to stay conservative).
fn conjunct_level(expr: &Expr, bindings: &[(&str, &crate::schema::Table)]) -> RelResult<usize> {
    fn walk(
        expr: &Expr,
        bindings: &[(&str, &crate::schema::Table)],
        level: &mut usize,
    ) -> RelResult<()> {
        match expr {
            Expr::Value(_) => Ok(()),
            Expr::Column(cref) => {
                let idx = match &cref.table {
                    Some(qualifier) => bindings
                        .iter()
                        .position(|(name, _)| *name == qualifier.as_str())
                        .ok_or_else(|| RelError::Execution {
                            message: format!("unknown table binding {qualifier:?}"),
                        })?,
                    None => {
                        let mut candidates = bindings
                            .iter()
                            .enumerate()
                            .filter(|(_, (_, t))| t.column_index(&cref.column).is_some())
                            .map(|(i, _)| i);
                        let first = candidates.next().ok_or_else(|| RelError::Execution {
                            message: format!("unknown column {:?}", cref.column),
                        })?;
                        // Ambiguous bare columns: defer to eval's error by
                        // binding at the deepest candidate.
                        candidates.next_back().unwrap_or(first)
                    }
                };
                *level = (*level).max(idx);
                Ok(())
            }
            Expr::Binary { left, right, .. } => {
                walk(left, bindings, level)?;
                walk(right, bindings, level)
            }
            Expr::Not(inner) => walk(inner, bindings, level),
            Expr::IsNull { expr, .. } => walk(expr, bindings, level),
            Expr::InList { expr, list, .. } => {
                walk(expr, bindings, level)?;
                list.iter().try_for_each(|item| walk(item, bindings, level))
            }
        }
    }
    let mut level = 0;
    walk(expr, bindings, &mut level)?;
    Ok(level)
}

// Recursive pruned join of the reference executor: bind one table per
// level, applying every conjunct whose columns just became available.
fn reference_join_level<'a>(
    bindings: &[(&'a str, &'a crate::schema::Table, &'a [Vec<Value>])],
    conjuncts: &[(usize, Expr)],
    out_exprs: &[Expr],
    current: &mut Vec<(&'a str, &'a crate::schema::Table, &'a Vec<Value>)>,
    out: &mut Vec<Vec<Value>>,
) -> RelResult<()> {
    let depth = current.len();
    if depth == bindings.len() {
        let resolve = |cref: &ColumnRef| -> RelResult<Value> { resolve_multi(current, cref) };
        let mut row = Vec::with_capacity(out_exprs.len());
        for expr in out_exprs {
            row.push(eval_tree(expr, &resolve)?);
        }
        out.push(row);
        return Ok(());
    }
    let (name, table, rows) = bindings[depth];
    'rows: for r in rows {
        current.push((name, table, r));
        let resolve = |cref: &ColumnRef| -> RelResult<Value> { resolve_multi(current, cref) };
        for (level, conjunct) in conjuncts {
            if *level == depth && !matches!(eval_tree(conjunct, &resolve)?, Value::Bool(true)) {
                current.pop();
                continue 'rows;
            }
        }
        reference_join_level(bindings, conjuncts, out_exprs, current, out)?;
        current.pop();
    }
    Ok(())
}

fn resolve_multi(
    scope: &[(&str, &crate::schema::Table, &Vec<Value>)],
    cref: &ColumnRef,
) -> RelResult<Value> {
    match &cref.table {
        Some(qualifier) => {
            for (name, table, row) in scope {
                if name == qualifier {
                    let idx =
                        table
                            .column_index(&cref.column)
                            .ok_or_else(|| RelError::NoSuchColumn {
                                table: (*name).to_owned(),
                                column: cref.column.clone(),
                            })?;
                    return Ok(row[idx]);
                }
            }
            Err(RelError::Execution {
                message: format!("unknown table binding {qualifier:?}"),
            })
        }
        None => {
            let mut found: Option<Value> = None;
            for (name, table, row) in scope {
                if let Some(idx) = table.column_index(&cref.column) {
                    if found.is_some() {
                        return Err(RelError::Execution {
                            message: format!(
                                "ambiguous column {:?} (qualify with a table binding; also in {name:?})",
                                cref.column
                            ),
                        });
                    }
                    found = Some(row[idx]);
                }
            }
            found.ok_or_else(|| RelError::Execution {
                message: format!("unknown column {:?}", cref.column),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, Schema, Table};
    use crate::value::SqlType;

    fn db() -> Database {
        let mut schema = Schema::new();
        schema
            .add_table(
                Table::builder("team")
                    .column(Column::new("id", SqlType::Integer).not_null())
                    .column(Column::new("name", SqlType::Varchar))
                    .column(Column::new("code", SqlType::Varchar))
                    .primary_key(&["id"])
                    .build(),
            )
            .unwrap();
        schema
            .add_table(
                Table::builder("author")
                    .column(Column::new("id", SqlType::Integer).not_null())
                    .column(Column::new("lastname", SqlType::Varchar).not_null())
                    .column(Column::new("email", SqlType::Varchar))
                    .column(Column::new("team", SqlType::Integer))
                    .primary_key(&["id"])
                    .foreign_key("team", "team", "id")
                    .build(),
            )
            .unwrap();
        let mut db = Database::new(schema).unwrap();
        execute_sql(
            &mut db,
            "INSERT INTO team (id, name, code) VALUES (5, 'Software Engineering', 'SEAL');",
        )
        .unwrap();
        execute_sql(
            &mut db,
            "INSERT INTO team (id, name, code) VALUES (4, 'Database Technology', 'DBTG');",
        )
        .unwrap();
        execute_sql(
            &mut db,
            "INSERT INTO author (id, lastname, email, team) VALUES (6, 'Hert', 'hert@ifi.uzh.ch', 5);",
        )
        .unwrap();
        execute_sql(
            &mut db,
            "INSERT INTO author (id, lastname, team) VALUES (7, 'Reif', 5);",
        )
        .unwrap();
        db
    }

    #[test]
    fn insert_then_select_star() {
        let mut d = db();
        let out = execute_sql(&mut d, "SELECT * FROM team;").unwrap();
        let rows = out.rows().unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows.columns, vec!["id", "name", "code"]);
    }

    #[test]
    fn select_with_where() {
        let mut d = db();
        let out = execute_sql(
            &mut d,
            "SELECT lastname FROM author WHERE team = 5 AND email IS NOT NULL;",
        )
        .unwrap();
        let rows = out.rows().unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows.rows[0][0], Value::text("Hert"));
    }

    #[test]
    fn join_via_cross_product() {
        let mut d = db();
        let out = execute_sql(
            &mut d,
            "SELECT a.lastname, t.code FROM author a, team t WHERE a.team = t.id;",
        )
        .unwrap();
        let rows = out.rows().unwrap();
        assert_eq!(rows.len(), 2);
        assert!(rows.rows.iter().all(|r| r[1] == Value::text("SEAL")));
    }

    #[test]
    fn update_with_where_matches_listing_18() {
        let mut d = db();
        let out = execute_sql(
            &mut d,
            "UPDATE author SET email = NULL WHERE id = 6 AND email = 'hert@ifi.uzh.ch';",
        )
        .unwrap();
        assert_eq!(out.affected(), 1);
        let check = execute_sql(&mut d, "SELECT email FROM author WHERE id = 6;").unwrap();
        assert_eq!(check.rows().unwrap().rows[0][0], Value::Null);
    }

    #[test]
    fn update_where_null_comparison_matches_nothing() {
        let mut d = db();
        // email of author 7 is NULL; NULL = 'x' is unknown, not true.
        let out = execute_sql(
            &mut d,
            "UPDATE author SET lastname = 'X' WHERE email = 'x';",
        )
        .unwrap();
        assert_eq!(out.affected(), 0);
    }

    #[test]
    fn delete_with_where() {
        let mut d = db();
        let out = execute_sql(&mut d, "DELETE FROM author WHERE id = 7;").unwrap();
        assert_eq!(out.affected(), 1);
        assert_eq!(d.row_count("author").unwrap(), 1);
    }

    #[test]
    fn delete_restricted_by_fk() {
        let mut d = db();
        let err = execute_sql(&mut d, "DELETE FROM team WHERE id = 5;").unwrap_err();
        assert!(matches!(err, RelError::RestrictViolation { .. }));
    }

    #[test]
    fn distinct_dedups() {
        let mut d = db();
        let out = execute_sql(&mut d, "SELECT DISTINCT team FROM author;").unwrap();
        assert_eq!(out.rows().unwrap().len(), 1);
        let out = execute_sql(&mut d, "SELECT team FROM author;").unwrap();
        assert_eq!(out.rows().unwrap().len(), 2);
    }

    #[test]
    fn ambiguous_bare_column_rejected() {
        let mut d = db();
        let err = execute_sql(
            &mut d,
            "SELECT id FROM author a, team t WHERE a.team = t.id;",
        )
        .unwrap_err();
        assert!(matches!(err, RelError::Execution { .. }));
    }

    #[test]
    fn unknown_column_rejected() {
        let mut d = db();
        assert!(execute_sql(&mut d, "SELECT bogus FROM team;").is_err());
    }

    #[test]
    fn duplicate_binding_rejected() {
        let mut d = db();
        assert!(execute_sql(&mut d, "SELECT * FROM team t, author t;").is_err());
    }

    #[test]
    fn empty_table_join_is_empty() {
        let mut schema = Schema::new();
        schema
            .add_table(
                Table::builder("a")
                    .column(Column::new("id", SqlType::Integer))
                    .primary_key(&["id"])
                    .build(),
            )
            .unwrap();
        schema
            .add_table(
                Table::builder("b")
                    .column(Column::new("id", SqlType::Integer))
                    .primary_key(&["id"])
                    .build(),
            )
            .unwrap();
        let mut d = Database::new(schema).unwrap();
        execute_sql(&mut d, "INSERT INTO a (id) VALUES (1);").unwrap();
        let out = execute_sql(&mut d, "SELECT * FROM a, b;").unwrap();
        assert!(out.rows().unwrap().is_empty());
    }

    #[test]
    fn value_accessor() {
        let mut d = db();
        let out = execute_sql(&mut d, "SELECT id, lastname FROM author WHERE id = 6;").unwrap();
        let rs = out.rows().unwrap();
        assert_eq!(rs.value(0, "lastname"), Some(&Value::text("Hert")));
        assert_eq!(rs.value(0, "bogus"), None);
    }

    #[test]
    fn update_assignment_from_column() {
        let mut d = db();
        execute_sql(&mut d, "UPDATE team SET name = code WHERE id = 4;").unwrap();
        let out = execute_sql(&mut d, "SELECT name FROM team WHERE id = 4;").unwrap();
        assert_eq!(out.rows().unwrap().rows[0][0], Value::text("DBTG"));
    }

    #[test]
    fn multi_row_insert_executes_all_rows() {
        let mut d = db();
        let out = execute_sql(
            &mut d,
            "INSERT INTO team (id, name) VALUES (10, 'A'), (11, 'B'), (12, 'C');",
        )
        .unwrap();
        assert_eq!(out.affected(), 3);
        assert_eq!(d.row_count("team").unwrap(), 5);
    }

    #[test]
    fn duplicate_insert_column_rejected() {
        let mut d = db();
        let err = execute_sql(&mut d, "INSERT INTO team (id, id) VALUES (10, 11);").unwrap_err();
        assert!(matches!(err, RelError::Execution { .. }));
        assert_eq!(d.row_count("team").unwrap(), 2);
    }

    #[test]
    fn multi_row_insert_checks_constraints_per_row() {
        let mut d = db();
        let kept = d.clone();
        // Third row collides with the first on the primary key.
        let err = execute_sql(
            &mut d,
            "INSERT INTO team (id, name) VALUES (10, 'A'), (11, 'B'), (10, 'dup');",
        )
        .unwrap_err();
        assert!(matches!(err, RelError::PrimaryKeyViolation { .. }));
        d = kept;
        // Putting the kept clone back removed the rows that preceded
        // the failure, and their index entries with them.
        assert_eq!(d.row_count("team").unwrap(), 2);
        assert_eq!(
            d.probe(d.schema().table("team").unwrap(), 0)
                .rows(&Value::Int(10))
                .as_slice(),
            &[] as &[RowId]
        );
    }

    #[test]
    fn bulk_update_applies_per_key_assignments() {
        let mut d = db();
        let out = execute_sql(
            &mut d,
            "UPDATE author BY (id) SET (email) VALUES (6, 'a@x.ch'), (7, 'b@x.ch');",
        )
        .unwrap();
        assert_eq!(out.affected(), 2);
        let rows = execute_sql(&mut d, "SELECT id, email FROM author;").unwrap();
        let rows = rows.rows().unwrap().rows.clone();
        assert!(rows.contains(&vec![Value::Int(6), Value::text("a@x.ch")]));
        assert!(rows.contains(&vec![Value::Int(7), Value::text("b@x.ch")]));
    }

    #[test]
    fn bulk_update_guard_columns_restrict_matches() {
        let mut d = db();
        // Second tuple's guard does not match author 7's NULL email.
        let out = execute_sql(
            &mut d,
            "UPDATE author BY (id, email) SET (email) \
             VALUES (6, 'hert@ifi.uzh.ch', NULL), (7, 'nope@x.ch', NULL);",
        )
        .unwrap();
        assert_eq!(out.affected(), 1);
        let check = execute_sql(&mut d, "SELECT email FROM author WHERE id = 6;").unwrap();
        assert_eq!(check.rows().unwrap().rows[0][0], Value::Null);
    }

    #[test]
    fn bulk_update_rechecks_constraints() {
        let mut d = db();
        let err =
            execute_sql(&mut d, "UPDATE author BY (id) SET (team) VALUES (6, 99);").unwrap_err();
        assert!(matches!(err, RelError::ForeignKeyViolation { .. }));
    }

    #[test]
    fn delete_with_in_list_uses_pk_probe() {
        let mut d = db();
        execute_sql(&mut d, "INSERT INTO team (id) VALUES (10), (11), (12);").unwrap();
        let out = execute_sql(&mut d, "DELETE FROM team WHERE id IN (10, 12, 99);").unwrap();
        assert_eq!(out.affected(), 2);
        assert_eq!(d.row_count("team").unwrap(), 3);
    }

    #[test]
    fn in_list_three_valued_logic() {
        let mut d = db();
        // author 7 has NULL email: `email IN (...)` is NULL, not TRUE,
        // so the row is not selected.
        let out = execute_sql(
            &mut d,
            "SELECT id FROM author WHERE email IN ('hert@ifi.uzh.ch', 'x@y.ch');",
        )
        .unwrap();
        assert_eq!(out.rows().unwrap().rows, vec![vec![Value::Int(6)]]);
        // NOT IN over a NULL value is NULL as well — neither row 7 nor
        // a non-matching constant makes it TRUE.
        let out = execute_sql(
            &mut d,
            "SELECT id FROM author WHERE email NOT IN ('hert@ifi.uzh.ch');",
        )
        .unwrap();
        assert!(out.rows().unwrap().rows.is_empty());
    }

    #[test]
    fn update_set_errors_do_not_depend_on_data() {
        // A bad SET target or a bad name in a SET expression is an error
        // whether or not the WHERE clause matches a row.
        let mut d = db();
        let kept = d.clone();
        for (set, expected) in [
            (
                "bogus = 1",
                RelError::NoSuchColumn {
                    table: "team".into(),
                    column: "bogus".into(),
                },
            ),
            (
                "name = bogus",
                RelError::Execution {
                    message: "unknown column \"bogus\"".into(),
                },
            ),
        ] {
            for id in [999, 5] {
                let sql = format!("UPDATE team SET {set} WHERE id = {id};");
                assert_eq!(execute_sql(&mut d, &sql), Err(expected.clone()), "{sql}");
            }
        }
        assert_eq!(
            d.scan("team").unwrap().collect::<Vec<_>>(),
            kept.scan("team").unwrap().collect::<Vec<_>>()
        );
    }

    #[test]
    fn repeated_update_column_rejected() {
        let mut d = db();
        let kept = d.clone();
        for sql in [
            "UPDATE team SET name = 'x', name = 'y' WHERE id = 5;",
            "UPDATE team BY (id) SET (name, name) VALUES (5, 'x', 'y');",
        ] {
            assert_eq!(
                execute_sql(&mut d, sql),
                Err(RelError::Execution {
                    message: "UPDATE \"team\" names column \"name\" twice".into(),
                }),
                "{sql}"
            );
        }
        assert_eq!(
            d.scan("team").unwrap().collect::<Vec<_>>(),
            kept.scan("team").unwrap().collect::<Vec<_>>()
        );
    }

    #[test]
    fn mid_batch_delete_failure_leaves_transaction_rollbackable() {
        let mut d = db();
        execute_sql(&mut d, "INSERT INTO team (id) VALUES (10);").unwrap();
        let kept = d.clone();
        // Team 10 deletes fine; team 5 is referenced by both authors.
        let err = execute_sql(&mut d, "DELETE FROM team WHERE id IN (10, 5);").unwrap_err();
        assert!(matches!(err, RelError::RestrictViolation { .. }));
        d = kept;
        assert_eq!(d.row_count("team").unwrap(), 3);
        assert_eq!(
            d.probe(d.schema().table("team").unwrap(), 0)
                .rows(&Value::Int(10))
                .as_slice()
                .len(),
            1
        );
    }
}

#[cfg(test)]
mod join_order_tests {
    use super::*;
    use crate::schema::{Column, Schema, Table};
    use crate::value::SqlType;

    // Triangle schema: link between a and b; both FROM orders must give
    // identical results regardless of how the user listed the tables.
    fn db() -> Database {
        let mut schema = Schema::new();
        for name in ["a", "b"] {
            schema
                .add_table(
                    Table::builder(name)
                        .column(Column::new("id", SqlType::Integer).not_null())
                        .column(Column::new("v", SqlType::Varchar))
                        .primary_key(&["id"])
                        .build(),
                )
                .unwrap();
        }
        schema
            .add_table(
                Table::builder("link")
                    .column(
                        Column::new("id", SqlType::Integer)
                            .not_null()
                            .auto_increment(),
                    )
                    .column(Column::new("a", SqlType::Integer).not_null())
                    .column(Column::new("b", SqlType::Integer).not_null())
                    .primary_key(&["id"])
                    .foreign_key("a", "a", "id")
                    .foreign_key("b", "b", "id")
                    .build(),
            )
            .unwrap();
        let mut db = Database::new(schema).unwrap();
        for i in 1..=20i64 {
            execute_sql(
                &mut db,
                &format!("INSERT INTO a (id, v) VALUES ({i}, 'a{i}');"),
            )
            .unwrap();
            execute_sql(
                &mut db,
                &format!("INSERT INTO b (id, v) VALUES ({i}, 'b{i}');"),
            )
            .unwrap();
        }
        for i in 1..=20i64 {
            execute_sql(
                &mut db,
                &format!("INSERT INTO link (a, b) VALUES ({i}, {});", 21 - i),
            )
            .unwrap();
        }
        db
    }

    #[test]
    fn results_independent_of_from_order() {
        let mut d = db();
        let q1 = "SELECT x.v AS av, y.v AS bv FROM a x, b y, link l \
                  WHERE l.a = x.id AND l.b = y.id;";
        let q2 = "SELECT x.v AS av, y.v AS bv FROM link l, b y, a x \
                  WHERE l.a = x.id AND l.b = y.id;";
        let mut run = |q| {
            execute_sql(&mut d, q)
                .unwrap()
                .rows()
                .unwrap()
                .clone()
                .canonical()
        };
        let (r1, r2) = (run(q1), run(q2));
        assert_eq!(r1, r2);
        assert_eq!(r1.len(), 20);
    }

    #[test]
    fn pushdown_preserves_three_valued_semantics() {
        let mut d = db();
        execute_sql(&mut d, "INSERT INTO a (id) VALUES (99);").unwrap(); // v NULL
                                                                         // NULL v never satisfies v = 'a1' nor v <> 'a1'.
        let eq = execute_sql(&mut d, "SELECT id FROM a WHERE v = 'a1';").unwrap();
        assert_eq!(eq.rows().unwrap().len(), 1);
        let ne = execute_sql(&mut d, "SELECT id FROM a WHERE v <> 'a1';").unwrap();
        assert_eq!(ne.rows().unwrap().len(), 19);
    }

    #[test]
    fn disjunctive_where_not_split() {
        // OR stays one conjunct applied once all tables are bound.
        let mut d = db();
        let q = "SELECT x.id FROM a x, b y WHERE x.id = y.id AND (x.v = 'a1' OR y.v = 'b2');";
        let out = execute_sql(&mut d, q).unwrap();
        assert_eq!(out.rows().unwrap().len(), 2);
    }
}

#[cfg(test)]
mod planner_tests {
    use super::*;
    use crate::schema::{Column, Schema, Table};
    use crate::value::SqlType;

    // Triangle schema (a, b, link) as in join_order_tests, plus an
    // unindexed data column to force residual filtering.
    fn db(n: i64) -> Database {
        let mut schema = Schema::new();
        for name in ["a", "b"] {
            schema
                .add_table(
                    Table::builder(name)
                        .column(Column::new("id", SqlType::Integer).not_null())
                        .column(Column::new("v", SqlType::Varchar))
                        .column(Column::new("score", SqlType::Double))
                        .primary_key(&["id"])
                        .build(),
                )
                .unwrap();
        }
        schema
            .add_table(
                Table::builder("link")
                    .column(
                        Column::new("id", SqlType::Integer)
                            .not_null()
                            .auto_increment(),
                    )
                    .column(Column::new("a", SqlType::Integer))
                    .column(Column::new("b", SqlType::Integer))
                    .primary_key(&["id"])
                    .foreign_key("a", "a", "id")
                    .foreign_key("b", "b", "id")
                    .build(),
            )
            .unwrap();
        let mut db = Database::new(schema).unwrap();
        for i in 1..=n {
            execute_sql(
                &mut db,
                &format!(
                    "INSERT INTO a (id, v, score) VALUES ({i}, 'a{i}', {}.5);",
                    i
                ),
            )
            .unwrap();
            execute_sql(
                &mut db,
                &format!(
                    "INSERT INTO b (id, v, score) VALUES ({i}, 'b{}', {}.5);",
                    i % 3,
                    i
                ),
            )
            .unwrap();
        }
        for i in 1..=n {
            execute_sql(
                &mut db,
                &format!("INSERT INTO link (a, b) VALUES ({i}, {});", n + 1 - i),
            )
            .unwrap();
        }
        // A dangling link row with NULL endpoints: must never join.
        execute_sql(&mut db, "INSERT INTO link (a, b) VALUES (NULL, NULL);").unwrap();
        db
    }

    fn select(sql: &str) -> SelectStmt {
        match crate::sql::parser::parse(sql).unwrap() {
            Statement::Select(select) => select,
            other => panic!("not a SELECT: {other:?}"),
        }
    }

    // Planner and reference results, in canonical row order: the two
    // executors agree as multisets, not on row order.
    fn both(db: &mut Database, sql: &str) -> (ResultSet, ResultSet) {
        let select = select(sql);
        let planner = execute_select(db, &select).unwrap();
        let reference = execute_select_reference(db, &select).unwrap();
        (planner.canonical(), reference.canonical())
    }

    #[test]
    fn planner_matches_reference_as_multisets() {
        let mut d = db(20);
        for sql in [
            "SELECT x.v, y.v FROM a x, b y, link l WHERE l.a = x.id AND l.b = y.id;",
            "SELECT * FROM a, link WHERE link.a = a.id;",
            "SELECT x.id FROM a x, b y WHERE x.id = y.id AND y.v = 'b1';",
            "SELECT DISTINCT y.v FROM a x, b y WHERE x.id = y.id;",
            "SELECT x.id, y.id FROM a x, b y;",
            "SELECT id FROM a WHERE id = 7;",
            "SELECT x.id FROM a x, b y WHERE x.id = y.id AND (x.v = 'a1' OR y.v = 'b2');",
            "SELECT x.id FROM a x, b y WHERE x.score = y.score;",
            "SELECT a.id FROM a, b WHERE a.id = b.id AND a.id <> b.id;",
        ] {
            let (planner, reference) = both(&mut d, sql);
            assert_eq!(planner, reference, "query: {sql}");
        }
    }

    thread_local! {
        // Rows the executor bound on this thread, at any join level.
        pub(super) static ROWS_BOUND: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    // Run `sql` with `limit`: its rows and how many rows the join bound.
    fn limited(db: &Database, sql: &str, limit: Option<usize>) -> (ResultSet, usize) {
        let plan = plan_select(db, &select(sql)).unwrap();
        ROWS_BOUND.with(|n| n.set(0));
        let rows = execute_plan(db, &plan, limit).unwrap();
        (
            rows.into_result_set(plan.columns),
            ROWS_BOUND.with(|n| n.get()),
        )
    }

    #[test]
    fn limit_stops_the_join_after_n_rows() {
        let d = db(60);
        for sql in [
            "SELECT x.v, y.v FROM a x, b y, link l WHERE l.a = x.id AND l.b = y.id;",
            "SELECT DISTINCT y.v FROM a x, b y WHERE x.id = y.id;",
            "SELECT DISTINCT x.v FROM a x, link l WHERE l.a = x.id;",
            "SELECT x.id, y.id FROM a x, b y;",
            "SELECT id FROM a;",
        ] {
            let (all, all_bound) = limited(&d, sql, None);
            let reference = execute_select_reference(&d, &select(sql)).unwrap();
            assert_eq!(all.clone().canonical(), reference.clone().canonical());
            for n in [0, 1, 2, 5, all.len(), all.len() + 3] {
                let (rows, bound) = limited(&d, sql, Some(n));
                assert_eq!(rows.len(), n.min(all.len()), "{sql} LIMIT {n}");
                // The first n rows of the unlimited run, in its order…
                assert_eq!(rows.rows[..], all.rows[..rows.len()], "{sql} LIMIT {n}");
                // …which are a sub-multiset of the reference result.
                let mut left = reference.rows.clone();
                for row in &rows.rows {
                    let at = left
                        .iter()
                        .position(|r| r == row)
                        .expect("row in reference");
                    left.swap_remove(at);
                }
                // The join stopped early instead of filtering afterwards.
                if n < all.len() {
                    assert!(bound < all_bound, "{sql} LIMIT {n}: {bound} of {all_bound}");
                }
            }
        }
        // ASK's `LIMIT 1` over a scan binds one row, not the table.
        assert_eq!(limited(&d, "SELECT id FROM a;", Some(1)).1, 1);
        assert_eq!(
            limited(&d, "SELECT x.id, y.id FROM a x, b y;", Some(5)).1,
            6
        );
    }

    #[test]
    fn a_zero_width_answer_counts_its_rows() {
        // An ASK over a ground pattern projects nothing: its answer is
        // its row count.
        let d = db(6);
        let mut q = select("SELECT id FROM a WHERE v IS NOT NULL;");
        q.items.clear();
        let plan = plan_select(&d, &q).unwrap();
        let all = execute_plan(&d, &plan, None).unwrap();
        assert_eq!((all.width(), all.len(), all.iter().len()), (0, 6, 6));
        assert_eq!(execute_plan(&d, &plan, Some(1)).unwrap().len(), 1);
        assert!(all.iter().all(<[Value]>::is_empty));
    }

    #[test]
    fn ambiguous_constant_restriction_still_errors() {
        // `id` exists in both tables: the planner must not silently
        // restrict one binding and return empty — the ambiguity error
        // of the reference executor must surface.
        let mut d = db(5);
        let stmt = crate::sql::parser::parse("SELECT * FROM a, b WHERE id = 999;").unwrap();
        let Statement::Select(select) = &stmt else {
            panic!()
        };
        let reference = execute_select_reference(&d, select).unwrap_err();
        let planner = execute(&mut d, &stmt).unwrap_err();
        assert!(
            matches!(planner, RelError::Execution { ref message } if message.contains("ambiguous")),
            "planner: {planner}"
        );
        assert!(
            matches!(reference, RelError::Execution { ref message } if message.contains("ambiguous"))
        );
    }

    #[test]
    fn constant_restriction_uses_pk_index() {
        let mut d = db(50);
        let (planner, reference) = both(&mut d, "SELECT v FROM a WHERE id = 13 AND v = 'a13';");
        assert_eq!(planner, reference);
        assert_eq!(planner.len(), 1);
        assert_eq!(planner.rows[0][0], Value::text("a13"));
    }

    #[test]
    fn planner_handles_empty_tables() {
        let mut d = db(0);
        let out = execute_sql(&mut d, "SELECT * FROM a, b WHERE a.id = b.id;").unwrap();
        assert!(out.rows().unwrap().is_empty());
        let out = execute_sql(&mut d, "SELECT * FROM a;").unwrap();
        assert!(out.rows().unwrap().is_empty());
    }

    #[test]
    fn null_join_keys_never_match() {
        let mut d = db(5);
        // The dangling NULL link row joins nothing.
        let out = execute_sql(
            &mut d,
            "SELECT l.id FROM link l, a x WHERE l.a = x.id AND x.id = 999;",
        )
        .unwrap();
        assert!(out.rows().unwrap().is_empty());
        let (planner, reference) = both(
            &mut d,
            "SELECT l.id, x.v FROM link l, a x WHERE l.a = x.id;",
        );
        assert_eq!(planner, reference);
        assert_eq!(planner.len(), 5); // NULL row excluded
    }

    #[test]
    fn double_columns_fall_back_to_residual_filtering() {
        // score is DOUBLE: the equi-join must not be hashed, but the
        // result must still be correct (and may legitimately match
        // Int-vs-Double equal values).
        let mut d = db(8);
        execute_sql(&mut d, "INSERT INTO a (id, v, score) VALUES (100, 'x', 3);").unwrap();
        execute_sql(
            &mut d,
            "INSERT INTO b (id, v, score) VALUES (101, 'y', 3.0);",
        )
        .unwrap();
        let (planner, reference) = both(
            &mut d,
            "SELECT x.id, y.id FROM a x, b y WHERE x.score = y.score;",
        );
        assert_eq!(planner, reference);
        // Int 3 stored in a.score equals Double 3.0 stored in b.score —
        // the cross-representation match a hash join would miss.
        assert!(planner
            .rows
            .iter()
            .any(|r| r[0] == Value::Int(100) && r[1] == Value::Int(101)));
    }

    // A plan holds the row ids of its restricted levels, so it is valid
    // only against the state it was planned on. Run against a later
    // state, a level whose held row is gone fails with `stale_plan`;
    // a level that probes or scans reads the state it runs on. Never a
    // panic, never a row the state does not hold.
    #[test]
    fn a_plan_on_a_later_state_fails_stale_or_reads_that_state() {
        let d = db(6);
        let stale = |table: &str| Err(stale_plan(table));

        let q = select("SELECT x.v, l.b FROM a x, link l WHERE x.id = 3 AND l.a = x.id;");
        let plan = plan_select(&d, &q).unwrap();
        let accesses: Vec<_> = plan.levels.iter().map(|l| l.access.name()).collect();
        assert_eq!(accesses, ["restricted", "index_loop"]);
        // The index-loop row deleted: the probe reads the later index.
        let mut later = d.clone();
        execute_sql(&mut later, "DELETE FROM link WHERE a = 3;").unwrap();
        assert!(execute_plan(&later, &plan, None).unwrap().is_empty());
        // The restricted row deleted.
        execute_sql(&mut later, "DELETE FROM a WHERE id = 3;").unwrap();
        assert_eq!(execute_plan(&later, &plan, None), stale("a"));
        assert_eq!(execute_plan(&d, &plan, None).unwrap().len(), 1);

        // A hash join's restricted build side.
        let q =
            select("SELECT x.id, y.id FROM a x, b y WHERE x.v = y.v AND x.id = 1 AND y.id = 2;");
        let plan = plan_select(&d, &q).unwrap();
        assert!(matches!(
            plan.levels[1].access,
            Access::HashJoin { ids: Some(_), .. }
        ));
        let mut later = d.clone();
        execute_sql(&mut later, "DELETE FROM link WHERE b = 2;").unwrap();
        execute_sql(&mut later, "DELETE FROM b WHERE id = 2;").unwrap();
        assert_eq!(execute_plan(&later, &plan, None), stale("b"));

        // Another database whose table is narrower than the planned one:
        // its rows cannot hold the plan's slots.
        let mut schema = Schema::new();
        schema
            .add_table(
                Table::builder("a")
                    .column(Column::new("id", SqlType::Integer).not_null())
                    .column(Column::new("v", SqlType::Varchar))
                    .primary_key(&["id"])
                    .build(),
            )
            .unwrap();
        let mut narrow = Database::new(schema).unwrap();
        execute_sql(&mut narrow, "INSERT INTO a (id, v) VALUES (1, 'a1');").unwrap();
        let plan = plan_select(&d, &select("SELECT x.score FROM a x;")).unwrap();
        assert_eq!(execute_plan(&narrow, &plan, None), stale("a"));
    }

    #[test]
    fn planner_reflects_mutations_and_rollback() {
        let mut d = db(10);
        let q = "SELECT x.v FROM a x, link l WHERE l.a = x.id;";
        let before = execute_sql(&mut d, q).unwrap();
        let kept = d.clone();
        execute_sql(&mut d, "DELETE FROM link WHERE a = 4;").unwrap();
        execute_sql(&mut d, "INSERT INTO a (id, v) VALUES (42, 'a42');").unwrap();
        execute_sql(&mut d, "INSERT INTO link (a, b) VALUES (42, 1);").unwrap();
        let during = execute_sql(&mut d, q).unwrap();
        assert_ne!(before, during);
        d = kept;
        let after = execute_sql(&mut d, q).unwrap();
        assert_eq!(before, after);
    }

    #[test]
    fn bad_references_error_even_when_restriction_empties_a_binding() {
        // The PK restriction on b leaves zero candidates; the ambiguous
        // unqualified `v` (declared by both a and b) must still be
        // rejected rather than silently returning an empty result.
        let mut d = db(3);
        let err = execute_sql(
            &mut d,
            "SELECT x.id FROM a x, b y WHERE y.id = 999 AND v = 'a1';",
        )
        .unwrap_err();
        assert!(
            matches!(err, RelError::Execution { ref message } if message.contains("ambiguous")),
            "{err}"
        );
        // Unknown projection/filter columns are rejected up front too.
        assert!(execute_sql(&mut d, "SELECT bogus FROM a WHERE id = 999;").is_err());
        assert!(execute_sql(&mut d, "SELECT id FROM a WHERE id = 999 AND bogus = 1;").is_err());
    }

    #[test]
    fn restricted_binding_leads_the_plan() {
        // pb.p = 2 is index-restrictable (FK index, 3 candidates);
        // pa.v = 'x' is not (unindexed, 6 rows). The restricted binding
        // leads, and the rows equal the reference's as a multiset.
        let mut schema = Schema::new();
        schema
            .add_table(
                Table::builder("pa")
                    .column(Column::new("id", SqlType::Integer).not_null())
                    .column(Column::new("v", SqlType::Varchar))
                    .primary_key(&["id"])
                    .build(),
            )
            .unwrap();
        schema
            .add_table(
                Table::builder("pb")
                    .column(Column::new("id", SqlType::Integer).not_null())
                    .column(Column::new("p", SqlType::Integer))
                    .primary_key(&["id"])
                    .foreign_key("p", "pa", "id")
                    .build(),
            )
            .unwrap();
        let mut d = Database::new(schema).unwrap();
        for i in 1..=6i64 {
            execute_sql(
                &mut d,
                &format!("INSERT INTO pa (id, v) VALUES ({i}, 'x');"),
            )
            .unwrap();
        }
        for i in 1..=6i64 {
            execute_sql(
                &mut d,
                &format!(
                    "INSERT INTO pb (id, p) VALUES ({i}, {});",
                    if i <= 3 { 2 } else { i }
                ),
            )
            .unwrap();
        }
        let cross = "SELECT pa.id, pb.id FROM pa, pb WHERE pa.v = 'x' AND pb.p = 2;";
        let plan = plan_select(&d, &select(cross)).unwrap();
        assert_eq!(plan.levels[0].alias, "pb");
        assert_eq!(
            plan.levels[0].access,
            Access::Restricted {
                column: "p".into(),
                ids: vec![0, 1, 2]
            }
        );
        assert_eq!(plan.levels[0].estimate, 3);
        assert_eq!(plan.levels[1].access, Access::Scan);
        let (planner, reference) = both(&mut d, cross);
        assert_eq!(planner, reference);
        assert_eq!(planner.len(), 18);

        // Joined: the constant-keyed parent leads, the child follows
        // through its FK index — no hash table over the child.
        let join = "SELECT pa.v, pb.id FROM pb, pa WHERE pb.p = pa.id AND pa.id = 2;";
        let plan = plan_select(&d, &select(join)).unwrap();
        let shape: Vec<(&str, &str, u64)> = plan
            .levels
            .iter()
            .map(|l| (l.alias.as_str(), l.access.name(), l.estimate))
            .collect();
        assert_eq!(shape, [("pa", "restricted", 1), ("pb", "index_loop", 2)]);
        assert_eq!((plan.join_keys(), plan.residual_conjuncts()), (1, 1));
        let (planner, reference) = both(&mut d, join);
        assert_eq!(planner, reference);
        assert_eq!(planner.len(), 3);
    }

    #[test]
    fn in_list_restricts_a_binding_with_a_union_of_probes() {
        let mut d = db(10);
        // Duplicates, a NULL and a missing key: the union is sorted and
        // deduplicated, and every conjunct is still re-checked.
        let sql = "SELECT id, v FROM a WHERE id IN (7, 2, NULL, 7, 99) AND v <> 'a2';";
        let plan = plan_select(&d, &select(sql)).unwrap();
        assert_eq!(
            plan.levels[0].access,
            Access::Restricted {
                column: "id".into(),
                ids: [2, 7]
                    .iter()
                    .flat_map(|&id| d
                        .probe(d.schema().table("a").unwrap(), 0)
                        .rows(&Value::Int(id))
                        .as_slice()
                        .to_vec())
                    .collect(),
            }
        );
        let (planner, reference) = both(&mut d, sql);
        assert_eq!(planner, reference);
        assert_eq!(planner.rows, [[Value::Int(7), Value::text("a7")]]);
        // An IN list over a DOUBLE column cannot be answered by an
        // index: the binding is scanned.
        let sql = "SELECT id FROM a WHERE score IN (1.5, 3.5);";
        let plan = plan_select(&d, &select(sql)).unwrap();
        assert_eq!(plan.levels[0].access, Access::Scan);
        let (planner, reference) = both(&mut d, sql);
        assert_eq!(planner, reference);
        assert_eq!(planner.len(), 2);
    }

    #[test]
    fn mutation_where_errors_do_not_depend_on_data() {
        // An unknown column in the WHERE clause must error even when the
        // index probe leaves zero candidate rows to evaluate.
        let mut d = db(5);
        for sql in [
            "DELETE FROM a WHERE id = 999 AND bogus = 1;",
            "DELETE FROM a WHERE id = 1 AND bogus = 1;",
            "UPDATE a SET v = 'x' WHERE id = 999 AND bogus = 1;",
            "DELETE FROM a WHERE wrongtable.id = 1;",
        ] {
            let err = execute_sql(&mut d, sql).unwrap_err();
            assert!(
                matches!(
                    err,
                    RelError::NoSuchColumn { .. } | RelError::Execution { .. }
                ),
                "{sql}: {err}"
            );
        }
    }

    #[test]
    fn update_delete_use_index_probe_and_match_counts() {
        let mut d = db(30);
        // UPDATE through the FK-indexed column.
        let out = execute_sql(&mut d, "UPDATE link SET b = 1 WHERE a = 3;").unwrap();
        assert_eq!(out.affected(), 1);
        // DELETE through the PK index.
        let out = execute_sql(&mut d, "DELETE FROM link WHERE a = 3;").unwrap();
        assert_eq!(out.affected(), 1);
        // WHERE with no usable index still works (scan fallback).
        let out = execute_sql(&mut d, "UPDATE a SET v = 'z' WHERE v = 'a7';").unwrap();
        assert_eq!(out.affected(), 1);
    }
}
