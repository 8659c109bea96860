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
//!
//! Pattern constants compare through [`Sym::lookup`](rel::Sym::lookup):
//! a string the dictionary lacks equals no stored text, so it becomes
//! NULL and a read never grows the dictionary.
//!
//! A query compiles once per *shape*: [`lift`] replaces its constants
//! with numbered parameters, a [`Template`] records which parameter each
//! constant value of the SQL came from, and [`Template::bind`] writes
//! another text's constants into a copy of the SQL.

use crate::convert::{
    literal_to_probe, literal_to_value, pattern_probe, push_lexical, value_literal, value_to_term,
};
use crate::error::{OntoError, OntoResult};
use r3m::{Mapping, PropertyMapping, TableMap, UriPattern};
use rdf::namespace::RDF_TYPE;
use rdf::{Iri, Term, TermRef};
use rel::sql::{BinOp, Expr, SelectItem, SelectStmt, TableRef};
use rel::{Database, Value};
use sparql::{
    Binding, CompareOp, FilterExpr, Projection, Query, SelectQuery, Solutions, TermPattern,
    TriplePattern,
};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write;
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

// An instance node: a subject (or instance-object) position — a
// variable or a ground IRI.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum NodeKey<'q> {
    Var(&'q str),
    Ground(&'q Term),
}

impl NodeKey<'_> {
    // How errors name the node: the variable, or the bare IRI.
    fn name(self) -> String {
        match self {
            NodeKey::Var(v) => v.to_owned(),
            NodeKey::Ground(Term::Iri(iri)) => iri.as_str().to_owned(),
            NodeKey::Ground(other) => other.to_string(),
        }
    }
}

#[derive(Debug)]
struct Node<'a> {
    alias: String,
    // Candidate table names; intersected as constraints arrive.
    candidates: Option<BTreeSet<&'a str>>,
}

// Where a literal/derived variable is bound: (alias, column).
#[derive(Debug)]
struct ValueVar<'a> {
    alias: String,
    column: &'a str,
    column_ty: rel::SqlType,
    // The value pattern rendering a derived IRI; `None` for a literal.
    derived: Option<&'a UriPattern>,
}

impl ValueVar<'_> {
    fn shape(&self) -> VarShape {
        match self.derived {
            None => VarShape::Literal,
            Some(pattern) => VarShape::DerivedIri {
                pattern: pattern.clone(),
                attribute: self.column.to_owned(),
            },
        }
    }
}

// How one pattern constant becomes the value of its `column = value`
// predicate. Compilation and binding both convert through `apply`, so
// a constant that does not fit fails with the same error either way.
// Table maps and attributes are positions in the mapping.
#[derive(Debug, Clone, Copy)]
enum Conversion {
    // Key attribute `part` of an instance IRI of table map `table`.
    Key {
        table: usize,
        part: usize,
        ty: rel::SqlType,
    },
    // A literal of data attribute `attribute` of table map `table`.
    Literal {
        table: usize,
        attribute: usize,
        ty: rel::SqlType,
    },
    // A derived IRI, through the value pattern of `attribute`.
    Derived {
        table: usize,
        attribute: usize,
        ty: rel::SqlType,
    },
}

impl Conversion {
    // Text the dictionary lacks converts to NULL (`convert::lookup_text`).
    fn apply(self, mapping: &Mapping, term: &Term) -> OntoResult<Value> {
        let incompatible =
            |table: &TableMap, attribute: &str, reason: String| OntoError::ValueIncompatible {
                table: table.table_name.clone(),
                attribute: attribute.to_owned(),
                value: term.clone(),
                reason,
            };
        match self {
            Conversion::Key { table, part, ty } => {
                let table = &mapping.tables[table];
                let values = term.as_iri().and_then(|iri| {
                    table
                        .uri_pattern
                        .match_uri(mapping.uri_prefix.as_deref(), iri.as_str())
                });
                let Some(&(attribute, raw)) = values.as_ref().and_then(|v| v.get(part)) else {
                    return Err(OntoError::UnknownSubject {
                        subject: term.clone(),
                    });
                };
                pattern_probe(raw, ty).map_err(|reason| incompatible(table, attribute, reason))
            }
            Conversion::Literal {
                table,
                attribute,
                ty,
            } => {
                let table = &mapping.tables[table];
                let attribute = &table.attributes[attribute].attribute_name;
                match term {
                    Term::Literal(lit) => literal_to_probe(lit, ty),
                    _ => Err("data property object must be a literal or variable".into()),
                }
                .map_err(|reason| incompatible(table, attribute, reason))
            }
            Conversion::Derived {
                table,
                attribute,
                ty,
            } => {
                let table = &mapping.tables[table];
                let attr = &table.attributes[attribute];
                let vpattern = attr
                    .value_pattern
                    .as_ref()
                    .expect("a derived attribute has a value pattern");
                let values = term
                    .as_iri()
                    .and_then(|iri| vpattern.match_uri(None, iri.as_str()))
                    .ok_or_else(|| {
                        incompatible(
                            table,
                            &attr.attribute_name,
                            format!("does not match value pattern {vpattern}"),
                        )
                    })?;
                let raw = values
                    .into_iter()
                    .find(|(n, _)| n == &attr.attribute_name)
                    .map(|(_, v)| v)
                    .ok_or_else(|| OntoError::Unsupported {
                        message: "value pattern does not bind attribute".into(),
                    })?;
                pattern_probe(raw, ty)
                    .map_err(|reason| incompatible(table, &attr.attribute_name, reason))
            }
        }
    }
}

// A constant the compiler converted, in emission order.
type Constants<'q> = Vec<(&'q Term, Conversion)>;

struct Compiler<'a, 'q> {
    db: &'a Database,
    mapping: &'a Mapping,
    nodes: BTreeMap<NodeKey<'q>, Node<'a>>,
    node_order: Vec<NodeKey<'q>>,
    value_vars: BTreeMap<&'q str, ValueVar<'a>>,
    // Extra FROM entries for link-table patterns: (alias, table).
    link_aliases: Vec<(String, &'a str)>,
    predicates: Vec<Expr>,
    next_alias: usize,
    // One per `Expr::Value` made from a pattern constant: the first
    // values of the WHERE clause in pre-order are exactly these, in this
    // order (see `Template::bind`).
    constants: Constants<'q>,
}

/// Compile a SPARQL SELECT into SQL.
pub fn compile_select(
    db: &Database,
    mapping: &Mapping,
    query: &SelectQuery,
) -> OntoResult<CompiledQuery> {
    Ok(Compiler::new(db, mapping).compile(query)?.0)
}

impl<'a, 'q> Compiler<'a, 'q> {
    fn new(db: &'a Database, mapping: &'a Mapping) -> Self {
        Compiler {
            db,
            mapping,
            nodes: BTreeMap::new(),
            node_order: Vec::new(),
            value_vars: BTreeMap::new(),
            link_aliases: Vec::new(),
            predicates: Vec::new(),
            next_alias: 0,
            constants: Vec::new(),
        }
    }

    fn fresh_alias(&mut self, base: &str) -> String {
        let alias = format!("{base}{}", self.next_alias);
        self.next_alias += 1;
        alias
    }

    fn node_key(tp: &'q TermPattern) -> OntoResult<NodeKey<'q>> {
        match tp {
            TermPattern::Variable(v) => Ok(NodeKey::Var(v)),
            TermPattern::Term(term @ Term::Iri(_)) => Ok(NodeKey::Ground(term)),
            TermPattern::Term(other) => Err(OntoError::Unsupported {
                message: format!("{other} cannot denote a row instance"),
            }),
        }
    }

    fn node_mut(&mut self, key: NodeKey<'q>) -> &mut Node<'a> {
        if !self.nodes.contains_key(&key) {
            let alias = self.fresh_alias("t");
            self.node_order.push(key);
            self.nodes.insert(
                key,
                Node {
                    alias,
                    candidates: None,
                },
            );
        }
        self.nodes.get_mut(&key).expect("just inserted")
    }

    fn constrain(&mut self, key: NodeKey<'q>, tables: BTreeSet<&'a str>) -> OntoResult<()> {
        let node = self.node_mut(key);
        node.candidates = Some(match node.candidates.take() {
            None => tables,
            Some(existing) => existing.intersection(&tables).copied().collect(),
        });
        if node.candidates.as_ref().is_some_and(BTreeSet::is_empty) {
            return Err(OntoError::AmbiguousPattern {
                variable: key.name(),
                candidates: vec![],
            });
        }
        Ok(())
    }

    // The table map of `table_name` and its position in the mapping.
    fn table_map(&self, table_name: &str) -> OntoResult<(usize, &'a TableMap)> {
        self.mapping
            .tables
            .iter()
            .enumerate()
            .find(|(_, t)| t.table_name == table_name)
            .ok_or_else(|| OntoError::Unsupported {
                message: format!("no table map for {table_name:?}"),
            })
    }

    // `column = value` for a pattern constant, recorded in `constants`.
    fn push_constant(
        &mut self,
        column: Expr,
        term: &'q Term,
        conversion: Conversion,
    ) -> OntoResult<()> {
        let value = conversion.apply(self.mapping, term)?;
        self.predicates.push(Expr::eq(column, Expr::Value(value)));
        self.constants.push((term, conversion));
        Ok(())
    }

    fn compile(mut self, query: &'q SelectQuery) -> OntoResult<(CompiledQuery, Constants<'q>)> {
        let mapping = self.mapping;
        // Pass 1: register nodes and table constraints.
        for pattern in &query.pattern.patterns {
            self.scan_pattern(pattern)?;
        }
        // Ground nodes resolve through the URI patterns.
        for i in 0..self.node_order.len() {
            if let key @ NodeKey::Ground(term @ Term::Iri(iri)) = self.node_order[i] {
                let (table_map, _) =
                    mapping
                        .identify(iri)
                        .ok_or_else(|| OntoError::UnknownSubject {
                            subject: term.clone(),
                        })?;
                self.constrain(key, BTreeSet::from([table_map.table_name.as_str()]))?;
            }
        }
        // Every node must now denote exactly one table.
        let mut resolved: BTreeMap<NodeKey<'q>, &'a str> = BTreeMap::new();
        for &key in &self.node_order {
            match &self.nodes[&key].candidates {
                Some(candidates) if candidates.len() == 1 => {
                    resolved.insert(key, candidates.first().expect("len 1"));
                }
                other => {
                    return Err(OntoError::AmbiguousPattern {
                        variable: key.name(),
                        candidates: other.iter().flatten().map(|t| (*t).to_owned()).collect(),
                    })
                }
            }
        }
        // Pass 2: emit join/equality predicates per pattern.
        for pattern in &query.pattern.patterns {
            self.emit_pattern(pattern, &resolved)?;
        }
        // Ground nodes pin their key columns, in order of appearance.
        for i in 0..self.node_order.len() {
            let key = self.node_order[i];
            let NodeKey::Ground(term) = key else {
                continue;
            };
            let (table, table_map) = self.table_map(resolved[&key])?;
            let schema_table = self.db.schema().table(&table_map.table_name)?;
            let alias = self.nodes[&key].alias.clone();
            for (part, attr) in table_map.uri_pattern.attributes().into_iter().enumerate() {
                let column = schema_table
                    .column(attr)
                    .ok_or_else(|| OntoError::Unsupported {
                        message: format!("pattern attribute {attr:?} missing"),
                    })?;
                let conversion = Conversion::Key {
                    table,
                    part,
                    ty: column.ty,
                };
                self.push_constant(Expr::qcol(&alias, attr), term, conversion)?;
            }
        }
        // Filters.
        for filter in &query.pattern.filters {
            let expr = self.compile_filter(filter)?;
            self.predicates.push(expr);
        }

        // Projection.
        let star;
        let projected: &[String] = match &query.projection {
            Projection::Star => {
                star = query.pattern.variables();
                &star
            }
            Projection::Variables(vars) => vars,
        };
        let mut items = Vec::new();
        let mut bindings = Vec::new();
        for var in projected {
            if let Some(vv) = self.value_vars.get(var.as_str()) {
                items.push(SelectItem::Expr {
                    expr: Expr::qcol(&vv.alias, vv.column),
                    alias: Some(var.clone()),
                });
                bindings.push((var.clone(), vv.shape()));
            } else if let Some(node) = self.nodes.get(&NodeKey::Var(var)) {
                let (_, table_map) = self.table_map(resolved[&NodeKey::Var(var)])?;
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
                        prefix: mapping.uri_prefix.clone(),
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
            let node = self.nodes.remove(key).expect("every node is in order");
            from.push(TableRef {
                table: resolved[key].to_owned(),
                alias: Some(node.alias),
            });
        }
        for (alias, table) in self.link_aliases {
            from.push(TableRef {
                table: table.to_owned(),
                alias: Some(alias),
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

        let compiled = CompiledQuery {
            sql: SelectStmt {
                distinct: query.distinct,
                items,
                from,
                where_clause: Expr::conjunction(self.predicates),
            },
            bindings,
            limit: query.limit,
            join_index_targets,
        };
        Ok((compiled, self.constants))
    }

    // Pass 1: constrain node candidate tables from one pattern.
    fn scan_pattern(&mut self, pattern: &'q TriplePattern) -> OntoResult<()> {
        let mapping = self.mapping;
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
            let table = mapping
                .table_by_class(class)
                .ok_or_else(|| OntoError::Unsupported {
                    message: format!("class {class} is not mapped"),
                })?;
            return self.constrain(subject_key, BTreeSet::from([table.table_name.as_str()]));
        }
        // Tables whose attribute maps this property.
        let mut subject_tables = BTreeSet::new();
        for table in &mapping.tables {
            if table.attribute_for_property(predicate).is_some() {
                subject_tables.insert(table.table_name.as_str());
            }
        }
        if let Some(link) = mapping.link_table_by_property(predicate) {
            let subject_target = link
                .subject_attribute
                .foreign_key_target()
                .and_then(|id| mapping.table_by_id(id))
                .ok_or_else(|| OntoError::Unsupported {
                    message: format!("link table {:?}: unresolved subject", link.table_name),
                })?;
            let object_target = link
                .object_attribute
                .foreign_key_target()
                .and_then(|id| mapping.table_by_id(id))
                .ok_or_else(|| OntoError::Unsupported {
                    message: format!("link table {:?}: unresolved object", link.table_name),
                })?;
            self.constrain(
                subject_key,
                BTreeSet::from([subject_target.table_name.as_str()]),
            )?;
            let object_key = Self::node_key(&pattern.object)?;
            return self.constrain(
                object_key,
                BTreeSet::from([object_target.table_name.as_str()]),
            );
        }
        if subject_tables.is_empty() {
            return Err(OntoError::Unsupported {
                message: format!("property {predicate} is not mapped"),
            });
        }
        self.constrain(subject_key, subject_tables.clone())?;
        // FK object properties also constrain the object node.
        let mut object_tables = BTreeSet::new();
        let mut all_fk = true;
        for table_name in &subject_tables {
            let (_, table_map) = self.table_map(table_name)?;
            let attr = table_map
                .attribute_for_property(predicate)
                .expect("collected above");
            match (
                &attr.property,
                &attr.value_pattern,
                attr.foreign_key_target(),
            ) {
                (Some(PropertyMapping::Object(_)), None, Some(target)) => {
                    if let Some(target_map) = mapping.table_by_id(target) {
                        object_tables.insert(target_map.table_name.as_str());
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
        pattern: &'q TriplePattern,
        resolved: &BTreeMap<NodeKey<'q>, &'a str>,
    ) -> OntoResult<()> {
        let mapping = self.mapping;
        let predicate = match &pattern.predicate {
            TermPattern::Term(Term::Iri(iri)) => iri,
            _ => unreachable!("checked in pass 1"),
        };
        if predicate.as_str() == RDF_TYPE {
            return Ok(()); // table choice already encodes it
        }
        let subject_key = Self::node_key(&pattern.subject)?;
        let subject_alias = self.nodes[&subject_key].alias.clone();
        let table_name = resolved[&subject_key];

        if let Some(link) = mapping.link_table_by_property(predicate) {
            let object_key = Self::node_key(&pattern.object)?;
            let object_alias = self.nodes[&object_key].alias.clone();
            let link_alias = self.fresh_alias("l");
            let subject_pk = self.single_key_attr(table_name)?;
            let object_pk = self.single_key_attr(resolved[&object_key])?;
            self.predicates.push(Expr::eq(
                Expr::qcol(&link_alias, &link.subject_attribute.attribute_name),
                Expr::qcol(&subject_alias, subject_pk),
            ));
            self.predicates.push(Expr::eq(
                Expr::qcol(&link_alias, &link.object_attribute.attribute_name),
                Expr::qcol(&object_alias, object_pk),
            ));
            self.link_aliases.push((link_alias, &link.table_name));
            return Ok(());
        }

        let (table, table_map) = self.table_map(table_name)?;
        let (attribute, attr) = table_map
            .attributes
            .iter()
            .enumerate()
            .find(|(_, a)| a.property.as_ref().map(PropertyMapping::property) == Some(predicate))
            .ok_or_else(|| OntoError::UnknownProperty {
                property: predicate.clone(),
                table: table_name.to_owned(),
            })?;
        let column: &'a str = &attr.attribute_name;
        let column_ty = self
            .db
            .schema()
            .table(table_name)?
            .column(column)
            .ok_or_else(|| OntoError::Unsupported {
                message: format!("attribute {column} missing"),
            })?
            .ty;
        let col_expr = Expr::qcol(&subject_alias, column);
        let incompatible = |value: &Term, reason: &str| OntoError::ValueIncompatible {
            table: table_name.to_owned(),
            attribute: column.to_owned(),
            value: value.clone(),
            reason: reason.into(),
        };

        match (attr.property.as_ref().expect("mapped"), &attr.value_pattern) {
            (PropertyMapping::Data(_), _) => match &pattern.object {
                TermPattern::Term(term @ Term::Literal(_)) => {
                    let conversion = Conversion::Literal {
                        table,
                        attribute,
                        ty: column_ty,
                    };
                    self.push_constant(col_expr, term, conversion)?;
                }
                TermPattern::Variable(var) => {
                    self.bind_value_var(var, &subject_alias, column, None, column_ty, col_expr)?;
                }
                TermPattern::Term(other) => {
                    return Err(incompatible(
                        other,
                        "data property object must be a literal or variable",
                    ))
                }
            },
            (PropertyMapping::Object(_), Some(vpattern)) => match &pattern.object {
                TermPattern::Term(term @ Term::Iri(_)) => {
                    let conversion = Conversion::Derived {
                        table,
                        attribute,
                        ty: column_ty,
                    };
                    self.push_constant(col_expr, term, conversion)?;
                }
                TermPattern::Variable(var) => {
                    self.bind_value_var(
                        var,
                        &subject_alias,
                        column,
                        Some(vpattern),
                        column_ty,
                        col_expr,
                    )?;
                }
                TermPattern::Term(other) => {
                    return Err(incompatible(other, "expected an IRI or variable"))
                }
            },
            (PropertyMapping::Object(_), None) => {
                // FK join: object node's key column equals this column.
                let object_key = Self::node_key(&pattern.object)?;
                let object_alias = self.nodes[&object_key].alias.clone();
                let object_pk = self.single_key_attr(resolved[&object_key])?;
                self.predicates
                    .push(Expr::eq(col_expr, Expr::qcol(&object_alias, object_pk)));
            }
        }
        Ok(())
    }

    fn bind_value_var(
        &mut self,
        var: &'q str,
        alias: &str,
        column: &'a str,
        derived: Option<&'a UriPattern>,
        column_ty: rel::SqlType,
        col_expr: Expr,
    ) -> OntoResult<()> {
        if self.nodes.contains_key(&NodeKey::Var(var)) {
            return Err(OntoError::Unsupported {
                message: format!("?{var} is used both as an instance and as a value"),
            });
        }
        match self.value_vars.get(var) {
            Some(existing) => {
                // Same variable bound twice → join condition.
                self.predicates.push(Expr::eq(
                    Expr::qcol(&existing.alias, existing.column),
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
                    var,
                    ValueVar {
                        alias: alias.to_owned(),
                        column,
                        column_ty,
                        derived,
                    },
                );
            }
        }
        Ok(())
    }

    fn single_key_attr(&self, table_name: &str) -> OntoResult<&'a str> {
        let (_, table_map) = self.table_map(table_name)?;
        match table_map.uri_pattern.attributes()[..] {
            [only] => Ok(only),
            _ => Err(OntoError::Unsupported {
                message: format!("table {table_name:?} has a multi-attribute URI pattern"),
            }),
        }
    }

    fn compile_filter(&mut self, filter: &'q FilterExpr) -> OntoResult<Expr> {
        match filter {
            FilterExpr::And(a, b) => {
                Ok(Expr::and(self.compile_filter(a)?, self.compile_filter(b)?))
            }
            FilterExpr::Or(a, b) => Ok(Expr::or(self.compile_filter(a)?, self.compile_filter(b)?)),
            FilterExpr::Not(inner) => Ok(Expr::Not(Box::new(self.compile_filter(inner)?))),
            FilterExpr::Bound(var) => {
                // Without OPTIONAL every pattern variable is bound.
                let bound = self.value_vars.contains_key(var.as_str())
                    || self.nodes.contains_key(&NodeKey::Var(var));
                Ok(Expr::Value(Value::Bool(bound)))
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
    fn filter_operand(&self, operand: &'q TermPattern, other: &TermPattern) -> OntoResult<Expr> {
        match operand {
            TermPattern::Variable(var) => {
                if let Some(vv) = self.value_vars.get(var.as_str()) {
                    Ok(Expr::qcol(&vv.alias, vv.column))
                } else if self.nodes.contains_key(&NodeKey::Var(var)) {
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
                    TermPattern::Variable(var) => {
                        self.value_vars.get(var.as_str()).map(|vv| vv.column_ty)
                    }
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

// ----------------------------------------------------------------------
// Shapes
// ----------------------------------------------------------------------

/// A query with its constants lifted out. `key` prints the query with
/// each lifted constant replaced by a numbered parameter; `params` are
/// the distinct constants, numbered by first occurrence.
///
/// Lifted are the IRIs and literals in subject and object position,
/// except the class of `rdf:type`. An IRI's parameter carries the table
/// map the IRI identifies (or none), because that decides the tables
/// the query compiles to. Predicates, classes, variables, FILTERs, the
/// projection, DISTINCT, LIMIT and the query form stay in the key. Two
/// texts with one key compile to the same SQL up to the values their
/// constants convert to.
#[derive(Debug)]
pub(crate) struct Shape<'q> {
    pub(crate) key: String,
    params: Vec<&'q Term>,
}

/// Lift the constants out of `query`.
pub(crate) fn lift<'q>(mapping: &Mapping, query: &'q Query) -> Shape<'q> {
    let mut shape = Shape {
        key: String::with_capacity(160),
        params: Vec::new(),
    };
    let key = &mut shape.key;
    let (pattern, limit) = match query {
        Query::Select(select) => {
            key.push_str(if select.distinct {
                "SELECT DISTINCT "
            } else {
                "SELECT "
            });
            match &select.projection {
                Projection::Star => key.push_str("* "),
                Projection::Variables(vars) => {
                    for var in vars {
                        let _ = write!(key, "?{var} ");
                    }
                }
            }
            key.push_str("WHERE { ");
            (&select.pattern, select.limit)
        }
        Query::Ask(ask) => {
            key.push_str("ASK { ");
            (&ask.pattern, None)
        }
    };
    for triple in &pattern.patterns {
        shape.position(mapping, &triple.subject);
        let _ = write!(shape.key, "{} ", triple.predicate);
        if matches!(&triple.predicate, TermPattern::Term(Term::Iri(p)) if p.as_str() == RDF_TYPE) {
            let _ = write!(shape.key, "{} ", triple.object);
        } else {
            shape.position(mapping, &triple.object);
        }
        shape.key.push_str(". ");
    }
    for filter in &pattern.filters {
        let _ = write!(shape.key, "FILTER ({filter}) ");
    }
    shape.key.push('}');
    if let Some(n) = limit {
        let _ = write!(shape.key, " LIMIT {n}");
    }
    shape
}

impl<'q> Shape<'q> {
    // Print a subject or object position, lifting an IRI or literal to
    // `$n` (an IRI's first occurrence as `$n<table>`).
    fn position(&mut self, mapping: &Mapping, position: &'q TermPattern) {
        let term = match position {
            TermPattern::Term(term @ (Term::Iri(_) | Term::Literal(_))) => term,
            other => {
                let _ = write!(self.key, "{other} ");
                return;
            }
        };
        if let Some(param) = self.params.iter().position(|p| *p == term) {
            let _ = write!(self.key, "${param} ");
            return;
        }
        let _ = write!(self.key, "${}", self.params.len());
        self.params.push(term);
        if let Term::Iri(iri) = term {
            let table = mapping
                .identify(iri)
                .map_or("", |(table, _)| table.table_name.as_str());
            let _ = write!(self.key, "<{table}>");
        }
        self.key.push(' ');
    }
}

/// A compiled shape: the query compiled for one text of the shape, plus
/// which parameter each of its constant values came from, so that any
/// other text of the shape binds its own constants instead of
/// compiling. Rows of every binding render through `compiled`: its
/// variables and shapes do not depend on the constants.
#[derive(Debug)]
pub(crate) struct Template {
    pub(crate) compiled: Arc<CompiledQuery>,
    // Per constant value of `compiled.sql`, in emission order: the
    // parameter it holds and how it converts.
    slots: Vec<(usize, Conversion)>,
}

/// Compile `query` (the SELECT of `shape`'s query, or its ASK lowered
/// to one) into the shape's template.
pub(crate) fn compile_template(
    db: &Database,
    mapping: &Mapping,
    query: &SelectQuery,
    shape: &Shape<'_>,
) -> OntoResult<Template> {
    let (compiled, constants) = Compiler::new(db, mapping).compile(query)?;
    let slots = constants
        .into_iter()
        .map(|(term, conversion)| {
            let param = shape.params.iter().position(|p| *p == term);
            (
                param.expect("the compiler converts only lifted constants"),
                conversion,
            )
        })
        .collect();
    Ok(Template {
        compiled: Arc::new(compiled),
        slots,
    })
}

impl Template {
    /// The template's SQL with `shape`'s constants in its slots, each
    /// converted as compiling the text would convert it: a constant
    /// that does not fit fails with that compile error, first slot in
    /// emission order first. The values are written into `reuse`, a
    /// statement bound earlier from this template, or else into a copy
    /// of the template's. The flag says whether a text constant was
    /// missing from the dictionary and bound as NULL.
    pub(crate) fn bind(
        &self,
        mapping: &Mapping,
        shape: &Shape<'_>,
        reuse: Option<SelectStmt>,
    ) -> OntoResult<(SelectStmt, bool)> {
        let values = self
            .slots
            .iter()
            .map(|&(param, conversion)| conversion.apply(mapping, shape.params[param]))
            .collect::<OntoResult<Vec<Value>>>()?;
        let absent = values.iter().any(Value::is_null);
        let mut sql = reuse.unwrap_or_else(|| self.compiled.sql.clone());
        if let Some(predicate) = &mut sql.where_clause {
            fill_values(predicate, &mut values.into_iter());
        }
        Ok((sql, absent))
    }
}

// Overwrite the leading `Expr::Value`s of `expr`, in pre-order, with
// `values`: the compiler emits every constant's equality before any
// other value (`Expr::conjunction` folds left, so pre-order is emission
// order).
fn fill_values(expr: &mut Expr, values: &mut std::vec::IntoIter<Value>) {
    if values.len() == 0 {
        return;
    }
    match expr {
        Expr::Value(value) => *value = values.next().expect("checked non-empty"),
        Expr::Column(_) => {}
        Expr::Binary { left, right, .. } => {
            fill_values(left, values);
            fill_values(right, values);
        }
        Expr::Not(inner) | Expr::IsNull { expr: inner, .. } => fill_values(inner, values),
        Expr::InList { expr, list, .. } => {
            fill_values(expr, values);
            for item in list {
                fill_values(item, values);
            }
        }
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
