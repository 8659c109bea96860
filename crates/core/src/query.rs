//! SPARQL `SELECT`/`ASK` → SQL translation over an R3M mapping.
//!
//! Algorithm 2 (paper §5.2) requires this: the `WHERE` clause of a
//! `MODIFY` "is used to create a SPARQL SELECT query … translated to SQL
//! and evaluated on the relational data". It is also the endpoint's read
//! path (listed as "under development" for the paper's prototype, §6).
//!
//! Translation scheme (the classic BGP-to-SQL shape):
//!
//! * every *instance node* (subject variable/IRI, or object of an
//!   FK-mapped object property) becomes one aliased table reference;
//! * data properties become column bindings or equality predicates;
//! * FK object properties become equi-join predicates;
//! * link-table properties add an aliased link-table reference joined to
//!   both endpoint tables;
//! * `FILTER` comparisons become SQL comparisons over the bound columns.

use crate::convert::{literal_to_value, pattern_value, push_lexical, value_literal, value_to_term};
use crate::error::{OntoError, OntoResult};
use r3m::{Mapping, PropertyMapping, UriPattern};
use rdf::namespace::RDF_TYPE;
use rdf::{Iri, Term, TermRef};
use rel::sql::{BinOp, Expr, SelectItem, SelectStmt, TableRef};
use rel::{Database, Value};
use sparql::{
    Binding, CompareOp, FilterExpr, Projection, Query, SelectQuery, Solutions, TermPattern,
    TriplePattern,
};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// A compiled SPARQL query: the SQL statement plus the recipe for
/// converting SQL result rows back into SPARQL bindings.
#[derive(Debug, Clone)]
pub struct CompiledQuery {
    /// The translated SQL SELECT.
    pub sql: SelectStmt,
    /// How each projected variable is reconstructed from the SQL row.
    pub bindings: Vec<(String, VarShape)>,
    /// Row limit: the join stops once this many solutions are out.
    pub limit: Option<usize>,
    /// Underlying `(table, column)` pairs of the SQL's equi-join keys
    /// (every FK object property and link-table pattern contributes
    /// some) — the columns worth a secondary index for this query, with
    /// aliases resolved through the FROM list at compile time (each pair
    /// once).
    pub join_index_targets: Vec<(String, String)>,
}

/// Make sure every join column of `compiled` can be answered from an
/// index, creating secondary hash indexes where none exists (a no-op
/// for DOUBLE columns, which the engine never probes). Indexes are
/// idempotent and maintained by the engine from then on, so the cost is
/// paid once per (database, column).
///
/// This is a compile/cache-admission-time concern: callers that intend
/// to run a compiled query repeatedly (the mediator's query cache,
/// Algorithm 2's MODIFY) provision indexes once while they hold write
/// access, and every subsequent [`run_compiled`] is a pure read. A
/// compiled query whose indexes were never provisioned still runs
/// correctly — the planner falls back to hash joins over scans.
pub fn ensure_join_indexes(db: &mut Database, compiled: &CompiledQuery) -> OntoResult<()> {
    for (table, column) in &compiled.join_index_targets {
        if !db.supports_index_probe(table, column)? {
            db.create_index(table, column)?;
        }
    }
    Ok(())
}

/// How a SPARQL variable maps onto the SQL result.
#[derive(Debug, Clone)]
pub enum VarShape {
    /// Instance variable: the key column value is substituted into the
    /// table's URI pattern.
    Instance {
        /// URI pattern of the node's table.
        pattern: UriPattern,
        /// Mapping-wide prefix.
        prefix: Option<String>,
    },
    /// Literal variable: the column value becomes a literal.
    Literal,
    /// Derived-IRI variable (value pattern, e.g. `mailto:%%email%%`).
    DerivedIri {
        /// The attribute's value pattern.
        pattern: UriPattern,
        /// Attribute name the pattern binds.
        attribute: String,
    },
}

/// Lower an ASK to the SELECT shape the compiler understands: star
/// projection, LIMIT 1 — non-emptiness of the solutions is the answer.
pub fn ask_to_select(ask: &sparql::AskQuery) -> SelectQuery {
    SelectQuery {
        distinct: false,
        projection: Projection::Star,
        pattern: ask.pattern.clone(),
        limit: Some(1),
    }
}

/// Translate and execute a SPARQL query against the database. A pure
/// read: one-shot queries run without index provisioning (the planner
/// falls back to hash joins); callers that re-run a compilation hold
/// write access once and call [`ensure_join_indexes`] themselves.
pub fn execute_query(
    db: &Database,
    mapping: &Mapping,
    query: &Query,
) -> OntoResult<sparql::QueryOutcome> {
    match query {
        Query::Select(select) => {
            let solutions = execute_select(db, mapping, select)?;
            Ok(sparql::QueryOutcome::Solutions(solutions))
        }
        Query::Ask(ask) => {
            let solutions = execute_select(db, mapping, &ask_to_select(ask))?;
            Ok(sparql::QueryOutcome::Boolean(!solutions.is_empty()))
        }
    }
}

/// Translate and execute a SELECT, returning SPARQL solutions.
pub fn execute_select(
    db: &Database,
    mapping: &Mapping,
    query: &SelectQuery,
) -> OntoResult<Solutions> {
    let compiled = compile_select(db, mapping, query)?;
    run_compiled(db, &compiled)
}

/// Execute a compiled query. Read-only: index provisioning happens at
/// compile/cache-admission time (see [`ensure_join_indexes`]), so many
/// threads can run compiled queries against `&Database` in parallel.
pub fn run_compiled(db: &Database, compiled: &CompiledQuery) -> OntoResult<Solutions> {
    let plan = rel::sql::plan_select(db, &compiled.sql)?;
    let rows = rel::sql::execute_plan(db, &plan, compiled.limit)?;
    collect_solutions(compiled, &rows.rows)
}

// Owned solutions: every cell through the view, then `to_owned` —
// except literals, which `value_to_term` builds from the same view but
// with text borrowing its interned string.
fn collect_solutions(compiled: &CompiledQuery, rows: &[Vec<Value>]) -> OntoResult<Solutions> {
    let mut scratch = String::new();
    let mut bindings = Vec::with_capacity(rows.len());
    for row in rows {
        let mut binding = Binding::new();
        for ((var, shape), value) in compiled.bindings.iter().zip(row) {
            let term = match shape {
                VarShape::Literal => value_to_term(value),
                _ => shape.term(value, &mut scratch)?.map(|term| term.to_owned()),
            };
            if let Some(term) = term {
                binding.insert(var.clone(), term);
            }
        }
        bindings.push(binding);
    }
    Ok(Solutions {
        variables: compiled
            .bindings
            .iter()
            .map(|(var, _)| var.clone())
            .collect(),
        bindings,
    })
}

impl VarShape {
    /// The RDF term of one result cell: `None` for NULL (the variable
    /// is unbound in that solution). Text borrows its interned string;
    /// instance and derived IRIs expand their URI pattern into
    /// `scratch` (cleared first) and must pass [`Iri::check`]; numbers
    /// and booleans format into `scratch` (see
    /// [`value_literal`](crate::convert::value_literal)).
    pub fn term<'s>(
        &self,
        value: &Value,
        scratch: &'s mut String,
    ) -> OntoResult<Option<TermRef<'s>>> {
        // An instance pattern has one attribute, the key; a value
        // pattern binds only its own attribute.
        let (pattern, prefix, attribute) = match self {
            VarShape::Literal => return Ok(value_literal(value, scratch)),
            _ if value.is_null() => return Ok(None),
            VarShape::Instance { pattern, prefix } => (pattern, prefix.as_deref(), None),
            VarShape::DerivedIri { pattern, attribute } => (pattern, None, Some(attribute)),
        };
        let unsupported = |message: String| OntoError::Unsupported { message };
        scratch.clear();
        pattern
            .generate_into(prefix, scratch, &mut |name, out| {
                if attribute.is_some_and(|a| a != name) {
                    return false;
                }
                push_lexical(value, out);
                true
            })
            .map_err(|e| unsupported(e.to_string()))?;
        Iri::check(scratch).map_err(|e| unsupported(e.to_string()))?;
        Ok(Some(TermRef::Iri(scratch)))
    }
}

/// A SELECT's answer as the join produced it: one row of SQL values
/// per solution (LIMIT and DISTINCT applied) plus the compiled query
/// whose variables and shapes render each cell. Serializers write
/// straight from the rows; [`SolutionRows::to_solutions`] builds owned
/// solutions for library callers.
#[derive(Debug, Clone)]
pub struct SolutionRows {
    compiled: Arc<CompiledQuery>,
    rows: Vec<Vec<Value>>,
}

impl SolutionRows {
    /// Pair the rows [`rel::sql::execute_plan`] returned for
    /// `compiled.sql` (stopped at `compiled.limit`) with the query they
    /// answer. Nothing is converted: cell `i` of a row is projected
    /// variable `i`, rendered by its [`VarShape::term`] only where the
    /// answer is written out.
    pub fn new(compiled: Arc<CompiledQuery>, rows: Vec<Vec<Value>>) -> Self {
        SolutionRows { compiled, rows }
    }

    /// Projected variables, in projection order: cell `i` of every row
    /// binds variable `i`.
    pub fn variables(&self) -> impl ExactSizeIterator<Item = &str> + Clone {
        self.compiled.bindings.iter().map(|(var, _)| var.as_str())
    }

    /// The shape rendering each column, in projection order.
    pub fn shapes(&self) -> impl Iterator<Item = &VarShape> {
        self.compiled.bindings.iter().map(|(_, shape)| shape)
    }

    /// The rows, one per solution.
    pub fn rows(&self) -> &[Vec<Value>] {
        &self.rows
    }

    /// Number of solutions.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether there are no solutions.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The owned solutions: every cell rendered and copied.
    pub fn to_solutions(&self) -> OntoResult<Solutions> {
        collect_solutions(&self.compiled, &self.rows)
    }
}

/// What an executed query answers, before anything is rendered.
#[derive(Debug, Clone)]
pub enum QueryAnswer {
    /// A SELECT's rows.
    Solutions(SolutionRows),
    /// An ASK's answer.
    Boolean(bool),
}

impl QueryAnswer {
    /// Result rows (for ASK: 1 when true, 0 when false).
    pub fn rows(&self) -> usize {
        match self {
            QueryAnswer::Solutions(rows) => rows.len(),
            QueryAnswer::Boolean(b) => usize::from(*b),
        }
    }

    /// The owned outcome; a SELECT renders every cell.
    pub fn to_outcome(&self) -> OntoResult<sparql::QueryOutcome> {
        Ok(match self {
            QueryAnswer::Solutions(rows) => sparql::QueryOutcome::Solutions(rows.to_solutions()?),
            QueryAnswer::Boolean(b) => sparql::QueryOutcome::Boolean(*b),
        })
    }
}

// ----------------------------------------------------------------------
// Compilation
// ----------------------------------------------------------------------

// An instance node: a subject (or instance-object) position.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum NodeKey {
    Var(String),
    Ground(Iri),
}

#[derive(Debug)]
struct Node {
    alias: String,
    // Candidate table names; intersected as constraints arrive.
    candidates: Option<BTreeSet<String>>,
}

// Where a literal/derived variable is bound: (alias, column).
#[derive(Debug, Clone)]
struct ValueVar {
    alias: String,
    column: String,
    shape: VarShape,
    column_ty: rel::SqlType,
}

struct Compiler<'a> {
    db: &'a Database,
    mapping: &'a Mapping,
    nodes: BTreeMap<NodeKey, Node>,
    node_order: Vec<NodeKey>,
    value_vars: BTreeMap<String, ValueVar>,
    // Extra FROM entries for link-table patterns.
    link_aliases: Vec<(String, String)>, // (alias, table)
    predicates: Vec<Expr>,
    next_alias: usize,
}

/// Compile a SPARQL SELECT into SQL.
pub fn compile_select(
    db: &Database,
    mapping: &Mapping,
    query: &SelectQuery,
) -> OntoResult<CompiledQuery> {
    let compiler = Compiler {
        db,
        mapping,
        nodes: BTreeMap::new(),
        node_order: Vec::new(),
        value_vars: BTreeMap::new(),
        link_aliases: Vec::new(),
        predicates: Vec::new(),
        next_alias: 0,
    };
    compiler.compile(query)
}

impl<'a> Compiler<'a> {
    fn fresh_alias(&mut self, base: &str) -> String {
        let alias = format!("{base}{}", self.next_alias);
        self.next_alias += 1;
        alias
    }

    fn node_key(tp: &TermPattern) -> OntoResult<NodeKey> {
        match tp {
            TermPattern::Variable(v) => Ok(NodeKey::Var(v.clone())),
            TermPattern::Term(Term::Iri(iri)) => Ok(NodeKey::Ground(iri.clone())),
            TermPattern::Term(other) => Err(OntoError::Unsupported {
                message: format!("{other} cannot denote a row instance"),
            }),
        }
    }

    fn node_mut(&mut self, key: NodeKey) -> &mut Node {
        if !self.nodes.contains_key(&key) {
            let alias = self.fresh_alias("t");
            self.node_order.push(key.clone());
            self.nodes.insert(
                key.clone(),
                Node {
                    alias,
                    candidates: None,
                },
            );
        }
        self.nodes.get_mut(&key).expect("just inserted")
    }

    fn constrain(&mut self, key: NodeKey, tables: BTreeSet<String>) -> OntoResult<()> {
        let node = self.node_mut(key.clone());
        node.candidates = Some(match node.candidates.take() {
            None => tables,
            Some(existing) => existing.intersection(&tables).cloned().collect(),
        });
        if node.candidates.as_ref().is_some_and(BTreeSet::is_empty) {
            let var = match key {
                NodeKey::Var(v) => v,
                NodeKey::Ground(iri) => iri.into_string(),
            };
            return Err(OntoError::AmbiguousPattern {
                variable: var,
                candidates: vec![],
            });
        }
        Ok(())
    }

    fn compile(mut self, query: &SelectQuery) -> OntoResult<CompiledQuery> {
        // Pass 1: register nodes and table constraints.
        for pattern in &query.pattern.patterns {
            self.scan_pattern(pattern)?;
        }
        // Ground nodes resolve through the URI patterns.
        for key in self.node_order.clone() {
            if let NodeKey::Ground(iri) = &key {
                let (table_map, _) =
                    self.mapping
                        .identify(iri)
                        .ok_or_else(|| OntoError::UnknownSubject {
                            subject: Term::Iri(iri.clone()),
                        })?;
                let table = table_map.table_name.clone();
                self.constrain(key.clone(), BTreeSet::from([table]))?;
            }
        }
        // Every node must now denote exactly one table.
        let mut resolved: BTreeMap<NodeKey, String> = BTreeMap::new();
        for key in &self.node_order {
            let node = &self.nodes[key];
            let candidates = node.candidates.clone().unwrap_or_default();
            if candidates.len() != 1 {
                let var = match key {
                    NodeKey::Var(v) => v.clone(),
                    NodeKey::Ground(iri) => iri.as_str().to_owned(),
                };
                return Err(OntoError::AmbiguousPattern {
                    variable: var,
                    candidates: candidates.into_iter().collect(),
                });
            }
            resolved.insert(key.clone(), candidates.into_iter().next().expect("len 1"));
        }
        // Pass 2: emit join/equality predicates per pattern.
        for pattern in &query.pattern.patterns {
            self.emit_pattern(pattern, &resolved)?;
        }
        // Ground nodes pin their key columns.
        for (key, table_name) in &resolved {
            if let NodeKey::Ground(iri) = key {
                let (table_map, raw) = self.mapping.identify(iri).expect("identified in pass 1");
                debug_assert_eq!(&table_map.table_name, table_name);
                let table = self.db.schema().table(table_name)?;
                let alias = self.nodes[key].alias.clone();
                for (attr, raw_value) in raw {
                    let column = table.column(attr).ok_or_else(|| OntoError::Unsupported {
                        message: format!("pattern attribute {attr:?} missing"),
                    })?;
                    let value = pattern_value(raw_value, column.ty).map_err(|reason| {
                        OntoError::ValueIncompatible {
                            table: table_name.clone(),
                            attribute: attr.to_owned(),
                            value: Term::Iri(iri.clone()),
                            reason,
                        }
                    })?;
                    self.predicates
                        .push(Expr::eq(Expr::qcol(&alias, attr), Expr::Value(value)));
                }
            }
        }
        // Filters.
        for filter in &query.pattern.filters {
            let expr = self.compile_filter(filter)?;
            self.predicates.push(expr);
        }

        // Projection.
        let projected: Vec<String> = match &query.projection {
            Projection::Star => query.pattern.variables(),
            Projection::Variables(vars) => vars.clone(),
        };
        let mut items = Vec::new();
        let mut bindings = Vec::new();
        for var in &projected {
            if let Some(vv) = self.value_vars.get(var) {
                items.push(SelectItem::Expr {
                    expr: Expr::qcol(&vv.alias, &vv.column),
                    alias: Some(var.clone()),
                });
                bindings.push((var.clone(), vv.shape.clone()));
            } else if let Some(node) = self.nodes.get(&NodeKey::Var(var.clone())) {
                let table_name = &resolved[&NodeKey::Var(var.clone())];
                let table_map =
                    self.mapping
                        .table(table_name)
                        .ok_or_else(|| OntoError::Unsupported {
                            message: format!("no table map for {table_name:?}"),
                        })?;
                let key_attrs = table_map.uri_pattern.attributes();
                if key_attrs.len() != 1 {
                    return Err(OntoError::Unsupported {
                        message: format!(
                            "instance variable ?{var} over multi-attribute URI pattern"
                        ),
                    });
                }
                items.push(SelectItem::Expr {
                    expr: Expr::qcol(&node.alias, key_attrs[0]),
                    alias: Some(var.clone()),
                });
                bindings.push((
                    var.clone(),
                    VarShape::Instance {
                        pattern: table_map.uri_pattern.clone(),
                        prefix: self.mapping.uri_prefix.clone(),
                    },
                ));
            } else {
                return Err(OntoError::Unsupported {
                    message: format!("projected variable ?{var} is not bound by the pattern"),
                });
            }
        }

        // FROM: one entry per node plus link-table aliases.
        let mut from = Vec::new();
        for key in &self.node_order {
            from.push(TableRef {
                table: resolved[key].clone(),
                alias: Some(self.nodes[key].alias.clone()),
            });
        }
        for (alias, table) in &self.link_aliases {
            from.push(TableRef {
                table: table.clone(),
                alias: Some(alias.clone()),
            });
        }
        if from.is_empty() {
            return Err(OntoError::Unsupported {
                message: "empty basic graph pattern".into(),
            });
        }

        // Both `(alias, column)` sides of every alias-to-alias equality
        // the pattern produced (FK object properties and link-table
        // joins).
        let join_keys: Vec<[(&str, &str); 2]> = self
            .predicates
            .iter()
            .filter_map(|p| {
                let Expr::Binary {
                    op: BinOp::Eq,
                    left,
                    right,
                } = p
                else {
                    return None;
                };
                let (Expr::Column(a), Expr::Column(b)) = (left.as_ref(), right.as_ref()) else {
                    return None;
                };
                match (&a.table, &b.table) {
                    (Some(ta), Some(tb)) if ta != tb => Some([
                        (ta.as_str(), a.column.as_str()),
                        (tb.as_str(), b.column.as_str()),
                    ]),
                    _ => None,
                }
            })
            .collect();

        // Resolve aliases to tables once, at compile time, so every
        // execution can check index coverage without re-deriving it.
        let join_index_targets = {
            let table_of = |alias: &str| -> Option<&str> {
                from.iter()
                    .find(|tref| tref.binding() == alias)
                    .map(|tref| tref.table.as_str())
            };
            let mut targets: Vec<(String, String)> = Vec::new();
            for (alias, column) in join_keys.into_iter().flatten() {
                if let Some(table) = table_of(alias) {
                    let pair = (table.to_owned(), column.to_owned());
                    if !targets.contains(&pair) {
                        targets.push(pair);
                    }
                }
            }
            targets
        };

        Ok(CompiledQuery {
            sql: SelectStmt {
                distinct: query.distinct,
                items,
                from,
                where_clause: Expr::conjunction(self.predicates),
            },
            bindings,
            limit: query.limit,
            join_index_targets,
        })
    }

    // Pass 1: constrain node candidate tables from one pattern.
    fn scan_pattern(&mut self, pattern: &TriplePattern) -> OntoResult<()> {
        let predicate = match &pattern.predicate {
            TermPattern::Term(Term::Iri(iri)) => iri,
            other => {
                return Err(OntoError::Unsupported {
                    message: format!("predicate {other} is not a ground IRI"),
                })
            }
        };
        let subject_key = Self::node_key(&pattern.subject)?;
        if predicate.as_str() == RDF_TYPE {
            let class = pattern
                .object
                .as_term()
                .and_then(Term::as_iri)
                .ok_or_else(|| OntoError::Unsupported {
                    message: "rdf:type object must be a ground class IRI".into(),
                })?;
            let table =
                self.mapping
                    .table_by_class(class)
                    .ok_or_else(|| OntoError::Unsupported {
                        message: format!("class {class} is not mapped"),
                    })?;
            let name = table.table_name.clone();
            return self.constrain(subject_key, BTreeSet::from([name]));
        }
        // Tables whose attribute maps this property.
        let mut subject_tables = BTreeSet::new();
        for table in &self.mapping.tables {
            if table.attribute_for_property(predicate).is_some() {
                subject_tables.insert(table.table_name.clone());
            }
        }
        if let Some(link) = self.mapping.link_table_by_property(predicate) {
            let subject_target = link
                .subject_attribute
                .foreign_key_target()
                .and_then(|id| self.mapping.table_by_id(id))
                .ok_or_else(|| OntoError::Unsupported {
                    message: format!("link table {:?}: unresolved subject", link.table_name),
                })?;
            let object_target = link
                .object_attribute
                .foreign_key_target()
                .and_then(|id| self.mapping.table_by_id(id))
                .ok_or_else(|| OntoError::Unsupported {
                    message: format!("link table {:?}: unresolved object", link.table_name),
                })?;
            self.constrain(
                subject_key,
                BTreeSet::from([subject_target.table_name.clone()]),
            )?;
            let object_key = Self::node_key(&pattern.object)?;
            return self.constrain(
                object_key,
                BTreeSet::from([object_target.table_name.clone()]),
            );
        }
        if subject_tables.is_empty() {
            return Err(OntoError::Unsupported {
                message: format!("property {predicate} is not mapped"),
            });
        }
        self.constrain(subject_key.clone(), subject_tables.clone())?;
        // FK object properties also constrain the object node.
        let mut object_tables = BTreeSet::new();
        let mut all_fk = true;
        for table_name in &subject_tables {
            let table_map = self.mapping.table(table_name).expect("from mapping");
            let attr = table_map
                .attribute_for_property(predicate)
                .expect("collected above");
            match (
                &attr.property,
                &attr.value_pattern,
                attr.foreign_key_target(),
            ) {
                (Some(PropertyMapping::Object(_)), None, Some(target)) => {
                    if let Some(target_map) = self.mapping.table_by_id(target) {
                        object_tables.insert(target_map.table_name.clone());
                    }
                }
                _ => all_fk = false,
            }
        }
        if all_fk && !object_tables.is_empty() {
            // Only variable/IRI objects become nodes.
            if matches!(
                pattern.object,
                TermPattern::Variable(_) | TermPattern::Term(Term::Iri(_))
            ) {
                let object_key = Self::node_key(&pattern.object)?;
                self.constrain(object_key, object_tables)?;
            }
        }
        Ok(())
    }

    // Pass 2: emit SQL predicates and variable bindings.
    fn emit_pattern(
        &mut self,
        pattern: &TriplePattern,
        resolved: &BTreeMap<NodeKey, String>,
    ) -> OntoResult<()> {
        let predicate = match &pattern.predicate {
            TermPattern::Term(Term::Iri(iri)) => iri,
            _ => unreachable!("checked in pass 1"),
        };
        if predicate.as_str() == RDF_TYPE {
            return Ok(()); // table choice already encodes it
        }
        let subject_key = Self::node_key(&pattern.subject)?;
        let subject_alias = self.nodes[&subject_key].alias.clone();
        let table_name = resolved[&subject_key].clone();

        if let Some(link) = self.mapping.link_table_by_property(predicate) {
            let link = link.clone();
            let object_key = Self::node_key(&pattern.object)?;
            let object_alias = self.nodes[&object_key].alias.clone();
            let object_table_name = resolved[&object_key].clone();
            let link_alias = self.fresh_alias("l");
            self.link_aliases
                .push((link_alias.clone(), link.table_name.clone()));
            let subject_pk = self.single_key_attr(&table_name)?;
            let object_pk = self.single_key_attr(&object_table_name)?;
            self.predicates.push(Expr::eq(
                Expr::qcol(&link_alias, &link.subject_attribute.attribute_name),
                Expr::qcol(&subject_alias, &subject_pk),
            ));
            self.predicates.push(Expr::eq(
                Expr::qcol(&link_alias, &link.object_attribute.attribute_name),
                Expr::qcol(&object_alias, &object_pk),
            ));
            return Ok(());
        }

        let table_map = self
            .mapping
            .table(&table_name)
            .ok_or_else(|| OntoError::Unsupported {
                message: format!("no table map for {table_name:?}"),
            })?
            .clone();
        let attr = table_map
            .attribute_for_property(predicate)
            .ok_or_else(|| OntoError::UnknownProperty {
                property: predicate.clone(),
                table: table_name.clone(),
            })?
            .clone();
        let table = self.db.schema().table(&table_name)?;
        let column = table
            .column(&attr.attribute_name)
            .ok_or_else(|| OntoError::Unsupported {
                message: format!("attribute {} missing", attr.attribute_name),
            })?;
        let column_ty = column.ty;
        let col_expr = Expr::qcol(&subject_alias, &attr.attribute_name);

        match attr.property.as_ref().expect("mapped") {
            PropertyMapping::Data(_) => match &pattern.object {
                TermPattern::Term(Term::Literal(lit)) => {
                    let value = literal_to_value(lit, column_ty).map_err(|reason| {
                        OntoError::ValueIncompatible {
                            table: table_name.clone(),
                            attribute: attr.attribute_name.clone(),
                            value: Term::Literal(lit.clone()),
                            reason,
                        }
                    })?;
                    self.predicates.push(Expr::eq(col_expr, Expr::Value(value)));
                }
                TermPattern::Variable(var) => {
                    self.bind_value_var(
                        var,
                        &subject_alias,
                        &attr.attribute_name,
                        VarShape::Literal,
                        column_ty,
                        col_expr,
                    )?;
                }
                TermPattern::Term(other) => {
                    return Err(OntoError::ValueIncompatible {
                        table: table_name.clone(),
                        attribute: attr.attribute_name.clone(),
                        value: other.clone(),
                        reason: "data property object must be a literal or variable".into(),
                    })
                }
            },
            PropertyMapping::Object(_) => {
                if let Some(vpattern) = &attr.value_pattern {
                    match &pattern.object {
                        TermPattern::Term(Term::Iri(iri)) => {
                            let values =
                                vpattern.match_uri(None, iri.as_str()).ok_or_else(|| {
                                    OntoError::ValueIncompatible {
                                        table: table_name.clone(),
                                        attribute: attr.attribute_name.clone(),
                                        value: Term::Iri(iri.clone()),
                                        reason: format!("does not match value pattern {vpattern}"),
                                    }
                                })?;
                            let raw = values
                                .into_iter()
                                .find(|(n, _)| n == &attr.attribute_name)
                                .map(|(_, v)| v)
                                .ok_or_else(|| OntoError::Unsupported {
                                    message: "value pattern does not bind attribute".into(),
                                })?;
                            let value = pattern_value(raw, column_ty).map_err(|reason| {
                                OntoError::ValueIncompatible {
                                    table: table_name.clone(),
                                    attribute: attr.attribute_name.clone(),
                                    value: Term::Iri(iri.clone()),
                                    reason,
                                }
                            })?;
                            self.predicates.push(Expr::eq(col_expr, Expr::Value(value)));
                        }
                        TermPattern::Variable(var) => {
                            self.bind_value_var(
                                var,
                                &subject_alias,
                                &attr.attribute_name,
                                VarShape::DerivedIri {
                                    pattern: vpattern.clone(),
                                    attribute: attr.attribute_name.clone(),
                                },
                                column_ty,
                                col_expr,
                            )?;
                        }
                        TermPattern::Term(other) => {
                            return Err(OntoError::ValueIncompatible {
                                table: table_name.clone(),
                                attribute: attr.attribute_name.clone(),
                                value: other.clone(),
                                reason: "expected an IRI or variable".into(),
                            })
                        }
                    }
                } else {
                    // FK join: object node's key column equals this
                    // column.
                    let object_key = Self::node_key(&pattern.object)?;
                    let object_alias = self.nodes[&object_key].alias.clone();
                    let object_table = resolved[&object_key].clone();
                    let object_pk = self.single_key_attr(&object_table)?;
                    self.predicates
                        .push(Expr::eq(col_expr, Expr::qcol(&object_alias, &object_pk)));
                }
            }
        }
        Ok(())
    }

    fn bind_value_var(
        &mut self,
        var: &str,
        alias: &str,
        column: &str,
        shape: VarShape,
        column_ty: rel::SqlType,
        col_expr: Expr,
    ) -> OntoResult<()> {
        if self.nodes.contains_key(&NodeKey::Var(var.to_owned())) {
            return Err(OntoError::Unsupported {
                message: format!("?{var} is used both as an instance and as a value"),
            });
        }
        match self.value_vars.get(var) {
            Some(existing) => {
                // Same variable bound twice → join condition.
                self.predicates.push(Expr::eq(
                    Expr::qcol(&existing.alias, &existing.column),
                    col_expr,
                ));
            }
            None => {
                // Pattern requires the triple to exist → attribute
                // non-NULL.
                self.predicates.push(Expr::IsNull {
                    expr: Box::new(col_expr),
                    negated: true,
                });
                self.value_vars.insert(
                    var.to_owned(),
                    ValueVar {
                        alias: alias.to_owned(),
                        column: column.to_owned(),
                        shape,
                        column_ty,
                    },
                );
            }
        }
        Ok(())
    }

    fn single_key_attr(&self, table_name: &str) -> OntoResult<String> {
        let table_map = self
            .mapping
            .table(table_name)
            .ok_or_else(|| OntoError::Unsupported {
                message: format!("no table map for {table_name:?}"),
            })?;
        let attrs = table_map.uri_pattern.attributes();
        if attrs.len() != 1 {
            return Err(OntoError::Unsupported {
                message: format!("table {table_name:?} has a multi-attribute URI pattern"),
            });
        }
        Ok(attrs[0].to_owned())
    }

    fn compile_filter(&mut self, filter: &FilterExpr) -> OntoResult<Expr> {
        match filter {
            FilterExpr::And(a, b) => {
                Ok(Expr::and(self.compile_filter(a)?, self.compile_filter(b)?))
            }
            FilterExpr::Or(a, b) => Ok(Expr::or(self.compile_filter(a)?, self.compile_filter(b)?)),
            FilterExpr::Not(inner) => Ok(Expr::Not(Box::new(self.compile_filter(inner)?))),
            FilterExpr::Bound(var) => {
                // Without OPTIONAL every pattern variable is bound.
                if self.value_vars.contains_key(var)
                    || self.nodes.contains_key(&NodeKey::Var(var.clone()))
                {
                    Ok(Expr::Value(Value::Bool(true)))
                } else {
                    Ok(Expr::Value(Value::Bool(false)))
                }
            }
            FilterExpr::Compare { op, left, right } => {
                let sql_op = match op {
                    CompareOp::Eq => rel::sql::BinOp::Eq,
                    CompareOp::Ne => rel::sql::BinOp::Ne,
                    CompareOp::Lt => rel::sql::BinOp::Lt,
                    CompareOp::Le => rel::sql::BinOp::Le,
                    CompareOp::Gt => rel::sql::BinOp::Gt,
                    CompareOp::Ge => rel::sql::BinOp::Ge,
                };
                let l = self.filter_operand(left, right)?;
                let r = self.filter_operand(right, left)?;
                Ok(Expr::binary(sql_op, l, r))
            }
        }
    }

    // Translate a filter operand; `other` provides type context for
    // literals compared against columns.
    fn filter_operand(&self, operand: &TermPattern, other: &TermPattern) -> OntoResult<Expr> {
        match operand {
            TermPattern::Variable(var) => {
                if let Some(vv) = self.value_vars.get(var) {
                    Ok(Expr::qcol(&vv.alias, &vv.column))
                } else if self.nodes.contains_key(&NodeKey::Var(var.clone())) {
                    Err(OntoError::Unsupported {
                        message: format!(
                            "FILTER comparison on instance variable ?{var} is not supported; \
                             compare a data property value instead"
                        ),
                    })
                } else {
                    Err(OntoError::Unsupported {
                        message: format!("FILTER references unbound variable ?{var}"),
                    })
                }
            }
            TermPattern::Term(Term::Literal(lit)) => {
                // Use the column type of the variable on the other side
                // when available.
                let ty = match other {
                    TermPattern::Variable(var) => self.value_vars.get(var).map(|vv| vv.column_ty),
                    _ => None,
                };
                let value = match ty {
                    Some(ty) => {
                        literal_to_value(lit, ty).map_err(|reason| OntoError::Unsupported {
                            message: format!("FILTER literal {lit}: {reason}"),
                        })?
                    }
                    None => best_effort_value(lit),
                };
                Ok(Expr::Value(value))
            }
            TermPattern::Term(other) => Err(OntoError::Unsupported {
                message: format!("FILTER operand {other} is not supported"),
            }),
        }
    }
}

// Literal → value without a column type hint.
fn best_effort_value(lit: &rdf::Literal) -> Value {
    if let Some(i) = lit.as_int() {
        Value::Int(i)
    } else if let Some(b) = lit.as_bool() {
        Value::Bool(b)
    } else if let Some(d) = lit.as_double() {
        Value::Double(d)
    } else {
        Value::text(lit.lexical())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{fixture_db_with_rows, parse_query};
    use sparql::QueryOutcome;

    fn select(db: &mut Database, mapping: &Mapping, q: &str) -> Solutions {
        let Query::Select(query) = parse_query(q) else {
            panic!("not a SELECT")
        };
        execute_select(db, mapping, &query).unwrap()
    }

    #[test]
    fn simple_class_query() {
        let (mut db, mapping) = fixture_db_with_rows();
        let sols = select(&mut db, &mapping, "SELECT ?x WHERE { ?x a foaf:Person . }");
        assert_eq!(sols.len(), 2);
        let uris: Vec<String> = sols.bindings.iter().map(|b| b["x"].to_string()).collect();
        assert!(uris.contains(&"<http://example.org/db/author6>".to_owned()));
        assert!(uris.contains(&"<http://example.org/db/author7>".to_owned()));
    }

    #[test]
    fn data_property_binding_and_ground_match() {
        let (mut db, mapping) = fixture_db_with_rows();
        let sols = select(
            &mut db,
            &mapping,
            "SELECT ?x ?n WHERE { ?x foaf:family_name \"Hert\" ; foaf:firstName ?n . }",
        );
        assert_eq!(sols.len(), 1);
        assert_eq!(sols.bindings[0]["n"], Term::plain("Matthias"));
    }

    #[test]
    fn listing_11_where_clause_translates() {
        // The exact WHERE clause of the paper's MODIFY example.
        let (mut db, mapping) = fixture_db_with_rows();
        let sols = select(
            &mut db,
            &mapping,
            "SELECT ?x ?mbox WHERE { ?x rdf:type foaf:Person ; \
               foaf:firstName \"Matthias\" ; foaf:family_name \"Hert\" ; foaf:mbox ?mbox . }",
        );
        assert_eq!(sols.len(), 1);
        assert_eq!(
            sols.bindings[0]["x"],
            Term::iri("http://example.org/db/author6")
        );
        assert_eq!(
            sols.bindings[0]["mbox"],
            Term::iri("mailto:hert@ifi.uzh.ch")
        );
    }

    #[test]
    fn fk_join_between_instances() {
        let (mut db, mapping) = fixture_db_with_rows();
        let sols = select(
            &mut db,
            &mapping,
            "SELECT ?x ?code WHERE { ?x ont:team ?t . ?t ont:teamCode ?code . }",
        );
        assert_eq!(sols.len(), 2);
        assert!(sols
            .bindings
            .iter()
            .all(|b| b["code"] == Term::plain("SEAL")));
    }

    #[test]
    fn link_table_join() {
        let (mut db, mapping) = fixture_db_with_rows();
        let sols = select(
            &mut db,
            &mapping,
            "SELECT ?pub ?last WHERE { ?pub dc:creator ?a . ?a foaf:family_name ?last . }",
        );
        assert_eq!(sols.len(), 1);
        assert_eq!(sols.bindings[0]["last"], Term::plain("Hert"));
        assert_eq!(
            sols.bindings[0]["pub"],
            Term::iri("http://example.org/db/pub1")
        );
    }

    #[test]
    fn ground_subject_query() {
        let (mut db, mapping) = fixture_db_with_rows();
        let sols = select(
            &mut db,
            &mapping,
            "SELECT ?mbox WHERE { ex:author6 foaf:mbox ?mbox . }",
        );
        assert_eq!(sols.len(), 1);
        assert_eq!(
            sols.bindings[0]["mbox"],
            Term::iri("mailto:hert@ifi.uzh.ch")
        );
    }

    #[test]
    fn filter_comparison_on_year() {
        let (mut db, mapping) = fixture_db_with_rows();
        let sols = select(
            &mut db,
            &mapping,
            "SELECT ?p WHERE { ?p ont:pubYear ?y . FILTER (?y >= 2009) }",
        );
        assert_eq!(sols.len(), 1);
        let none = select(
            &mut db,
            &mapping,
            "SELECT ?p WHERE { ?p ont:pubYear ?y . FILTER (?y > 2009) }",
        );
        assert!(none.is_empty());
    }

    #[test]
    fn null_attribute_does_not_match_pattern() {
        let (mut db, mapping) = fixture_db_with_rows();
        // author7 has no mbox → only author6 matches.
        let sols = select(&mut db, &mapping, "SELECT ?x WHERE { ?x foaf:mbox ?m . }");
        assert_eq!(sols.len(), 1);
    }

    #[test]
    fn ambiguous_variable_rejected() {
        let (db, mapping) = fixture_db_with_rows();
        // foaf:name maps team.name only — fine. foaf:title maps
        // author.title and publication has dc:title — use a property
        // that exists in two tables: ont:name (publisher) vs foaf:name
        // (team) are distinct, so craft ambiguity with `?x ?nothing`…
        // Simplest: a variable constrained by nothing.
        let Query::Select(query) = parse_query("SELECT ?x WHERE { ?x foaf:name ?n . }") else {
            panic!()
        };
        // foaf:name is only on team → unambiguous, 2 teams.
        let sols = execute_select(&db, &mapping, &query).unwrap();
        assert_eq!(sols.len(), 2);
        let _ = sols;
    }

    #[test]
    fn mbox_derived_iri_ground_object() {
        let (mut db, mapping) = fixture_db_with_rows();
        let sols = select(
            &mut db,
            &mapping,
            "SELECT ?x WHERE { ?x foaf:mbox <mailto:hert@ifi.uzh.ch> . }",
        );
        assert_eq!(sols.len(), 1);
        assert_eq!(
            sols.bindings[0]["x"],
            Term::iri("http://example.org/db/author6")
        );
    }

    #[test]
    fn distinct_dedups_solutions() {
        let (mut db, mapping) = fixture_db_with_rows();
        let sols = select(
            &mut db,
            &mapping,
            "SELECT DISTINCT ?code WHERE { ?x ont:team ?t . ?t ont:teamCode ?code . }",
        );
        assert_eq!(sols.len(), 1);
    }

    #[test]
    fn ask_translation() {
        let (db, mapping) = fixture_db_with_rows();
        let q = parse_query("ASK { ?x foaf:family_name \"Hert\" . }");
        assert_eq!(
            execute_query(&db, &mapping, &q).unwrap(),
            QueryOutcome::Boolean(true)
        );
        let q = parse_query("ASK { ?x foaf:family_name \"Nobody\" . }");
        assert_eq!(
            execute_query(&db, &mapping, &q).unwrap(),
            QueryOutcome::Boolean(false)
        );
    }

    #[test]
    fn limit_applies() {
        let (mut db, mapping) = fixture_db_with_rows();
        let sols = select(
            &mut db,
            &mapping,
            "SELECT ?x WHERE { ?x a foaf:Person . } LIMIT 1",
        );
        assert_eq!(sols.len(), 1);
    }

    #[test]
    fn unmapped_property_rejected() {
        let (db, mapping) = fixture_db_with_rows();
        let Query::Select(query) =
            parse_query("SELECT ?x WHERE { ?x <http://example.org/unmapped> ?y . }")
        else {
            panic!()
        };
        assert!(matches!(
            execute_select(&db, &mapping, &query),
            Err(OntoError::Unsupported { .. })
        ));
    }

    #[test]
    fn compiled_sql_is_visible_and_parses() {
        let (db, mapping) = fixture_db_with_rows();
        let Query::Select(query) =
            parse_query("SELECT ?x ?mbox WHERE { ?x a foaf:Person ; foaf:mbox ?mbox . }")
        else {
            panic!()
        };
        let compiled = compile_select(&db, &mapping, &query).unwrap();
        let text = compiled.sql.to_string();
        assert!(text.starts_with("SELECT"));
        assert!(text.contains("FROM author"));
        assert!(text.contains("IS NOT NULL"));
        // Round-trips through the SQL parser.
        rel::sql::parse(&text).unwrap();
    }

    #[test]
    fn join_key_metadata_names_fk_and_link_columns() {
        let (db, mapping) = fixture_db_with_rows();
        let Query::Select(query) = parse_query(
            "SELECT ?pub ?code WHERE { ?pub dc:creator ?a . ?a ont:team ?t . \
             ?t ont:teamCode ?code . }",
        ) else {
            panic!()
        };
        let compiled = compile_select(&db, &mapping, &query).unwrap();
        // FK join (author.team = team.id) + two link-table joins.
        let targets = &compiled.join_index_targets;
        assert!(targets.contains(&("author".into(), "team".into())));
        assert!(targets.contains(&("publication_author".into(), "publication".into())));
        assert!(targets.contains(&("publication_author".into(), "author".into())));
        assert!(targets.contains(&("team".into(), "id".into())));
    }

    #[test]
    fn ensure_join_indexes_makes_every_target_probeable() {
        let (mut db, mapping) = fixture_db_with_rows();
        let Query::Select(query) = parse_query(
            "SELECT ?pub ?last WHERE { ?pub dc:creator ?a . ?a foaf:family_name ?last . }",
        ) else {
            panic!()
        };
        let compiled = compile_select(&db, &mapping, &query).unwrap();
        super::ensure_join_indexes(&mut db, &compiled).unwrap();
        for (table, column) in &compiled.join_index_targets {
            assert!(
                db.supports_index_probe(table, column).unwrap(),
                "{table}.{column} not probeable"
            );
        }
    }

    #[test]
    fn ensure_join_indexes_skips_unprobeable_double_columns() {
        use rel::{Column, Schema, SqlType, Table};
        let mut schema = Schema::new();
        schema
            .add_table(
                Table::builder("m")
                    .column(Column::new("id", SqlType::Integer).not_null())
                    .column(Column::new("score", SqlType::Double))
                    .primary_key(&["id"])
                    .build(),
            )
            .unwrap();
        let mut db = Database::new(schema).unwrap();
        let compiled = CompiledQuery {
            sql: rel::sql::parse("SELECT a.id FROM m a, m b WHERE a.score = b.score;")
                .ok()
                .and_then(|s| match s {
                    rel::sql::Statement::Select(s) => Some(s),
                    _ => None,
                })
                .unwrap(),
            bindings: vec![],
            limit: None,
            join_index_targets: vec![("m".to_owned(), "score".to_owned())],
        };
        // `m.score` is a join target — but being DOUBLE it can never be
        // probed, so `create_index` no-ops instead of indexing it.
        super::ensure_join_indexes(&mut db, &compiled).unwrap();
        assert!(!db.supports_index_probe("m", "score").unwrap());
    }

    #[test]
    fn matches_native_evaluation_on_materialized_graph() {
        // The relational path and the native path agree.
        let (db, mapping) = fixture_db_with_rows();
        let graph = crate::materialize::materialize(&db, &mapping).unwrap();
        for q in [
            "SELECT ?x WHERE { ?x a foaf:Person . }",
            "SELECT ?x ?n WHERE { ?x foaf:firstName ?n . }",
            "SELECT ?x ?c WHERE { ?x ont:team ?t . ?t ont:teamCode ?c . }",
            "SELECT ?p WHERE { ?p dc:creator ?a . }",
            "SELECT ?p ?y WHERE { ?p ont:pubYear ?y . FILTER (?y > 2000) }",
        ] {
            let Query::Select(query) = parse_query(q) else {
                panic!()
            };
            let mut relational = execute_select(&db, &mapping, &query).unwrap();
            let mut native = sparql::evaluate_select(&graph, &query);
            relational.bindings.sort();
            native.bindings.sort();
            assert_eq!(relational.bindings, native.bindings, "query: {q}");
        }
    }
}
