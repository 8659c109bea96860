//! Differential tests for the index-backed join planner: on randomized
//! schemas, data, and queries, the planner
//! ([`rel::sql::execute`]) must return the same rows, as a multiset, as
//! the naive clone-everything nested-loop reference executor
//! ([`rel::sql::execute_select_reference`]) — including while a
//! transaction is open and after it rolls back (index state must track
//! the restored snapshot exactly). Row order is the plan's, so it is compared
//! only where one database state is queried twice. A last test pins the
//! plans of the benchmark's and the workload's queries across dataset
//! sizes.

use proptest::prelude::*;
use sparql_update_rdb::fixtures;
use sparql_update_rdb::ontoaccess;
use sparql_update_rdb::rel::{self, Column, Database, Schema, SqlType, Table, Value};

// ----------------------------------------------------------------------
// Randomized star schema: parent ← child, link(parent, child)
// ----------------------------------------------------------------------

/// Schema-shape knobs the strategy randomizes: with `declare_fks` the
/// join columns are declared FK columns (auto-indexed → index nested
/// loops); without, they are plain columns (per-query hash joins).
#[derive(Debug, Clone)]
struct SchemaSpec {
    declare_fks: bool,
    parents: usize,
    children: usize,
    links: usize,
    val_domain: i64,
    seed: u64,
}

fn schema_spec() -> impl Strategy<Value = SchemaSpec> {
    (
        any::<bool>(),
        0usize..25,
        0usize..40,
        0usize..60,
        1i64..6,
        0u64..1_000_000,
    )
        .prop_map(
            |(declare_fks, parents, children, links, val_domain, seed)| SchemaSpec {
                declare_fks,
                parents,
                children,
                links,
                val_domain,
                seed,
            },
        )
}

fn build_database(spec: &SchemaSpec) -> Database {
    let mut schema = Schema::new();
    schema
        .add_table(
            Table::builder("parent")
                .column(Column::new("id", SqlType::Integer).not_null())
                .column(Column::new("name", SqlType::Varchar))
                .column(Column::new("val", SqlType::Integer))
                .primary_key(&["id"])
                .build(),
        )
        .unwrap();
    let mut child = Table::builder("child")
        .column(Column::new("id", SqlType::Integer).not_null())
        .column(Column::new("p", SqlType::Integer))
        .column(Column::new("w", SqlType::Varchar))
        .primary_key(&["id"]);
    if spec.declare_fks {
        child = child.foreign_key("p", "parent", "id");
    }
    schema.add_table(child.build()).unwrap();
    let mut link = Table::builder("link")
        .column(
            Column::new("id", SqlType::Integer)
                .not_null()
                .auto_increment(),
        )
        .column(Column::new("a", SqlType::Integer))
        .column(Column::new("b", SqlType::Integer))
        .primary_key(&["id"]);
    if spec.declare_fks {
        link = link
            .foreign_key("a", "parent", "id")
            .foreign_key("b", "child", "id");
    }
    schema.add_table(link.build()).unwrap();
    let mut db = Database::new(schema).unwrap();

    // Deterministic pseudo-random population from the spec's seed.
    let mut state = spec.seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let a = |name: &str, v: Value| (name.to_owned(), v);
    for i in 0..spec.parents {
        db.insert(
            "parent",
            &[
                a("id", Value::Int(i as i64)),
                a("name", Value::text(format!("p{}", next() % 7))),
                a("val", Value::Int((next() % spec.val_domain as u64) as i64)),
            ],
        )
        .unwrap();
    }
    for i in 0..spec.children {
        let p = if spec.parents > 0 && next() % 10 < 9 {
            Value::Int((next() % spec.parents as u64) as i64)
        } else {
            Value::Null
        };
        db.insert(
            "child",
            &[
                a("id", Value::Int(i as i64)),
                a("p", p),
                a("w", Value::text(format!("w{}", next() % 5))),
            ],
        )
        .unwrap();
    }
    for _ in 0..spec.links {
        if spec.parents == 0 || spec.children == 0 {
            break;
        }
        db.insert(
            "link",
            &[
                a("a", Value::Int((next() % spec.parents as u64) as i64)),
                a("b", Value::Int((next() % spec.children as u64) as i64)),
            ],
        )
        .unwrap();
    }
    db
}

// Query templates over the star schema, parameterized by small
// constants so restrictions sometimes match and sometimes don't.
fn queries(k: i64, s: u64) -> Vec<String> {
    vec![
        "SELECT c.id, p.name FROM child c, parent p WHERE c.p = p.id;".into(),
        format!("SELECT c.id FROM child c, parent p WHERE c.p = p.id AND p.val = {k};"),
        format!(
            "SELECT * FROM link l, parent p, child c \
             WHERE l.a = p.id AND l.b = c.id AND c.w = 'w{}';",
            s % 6
        ),
        format!("SELECT p.id, c.id FROM parent p, child c WHERE p.val < {k};"),
        "SELECT DISTINCT p.val FROM parent p, child c WHERE p.id = c.p;".into(),
        format!("SELECT id FROM parent WHERE id = {k};"),
        "SELECT p.id FROM parent p, child c, link l \
         WHERE l.a = p.id AND l.b = c.id AND c.p = p.id;"
            .into(),
        // Constant-restricted joins: the restricted binding leads.
        format!("SELECT c.id, p.name FROM child c, parent p WHERE c.p = p.id AND p.id = {k};"),
        format!(
            "SELECT l.id, c.w FROM link l, parent p, child c \
             WHERE l.a = p.id AND l.b = c.id AND c.p = {k};"
        ),
        format!(
            "SELECT * FROM child c, link l WHERE l.b = c.id AND l.a = {k} AND c.p = {};",
            s % 5
        ),
        format!(
            "SELECT p.name, c.w FROM parent p, child c WHERE p.id = {k} AND c.id = {};",
            s % 40
        ),
        // Unqualified columns, each declared by one binding.
        format!("SELECT name, w FROM parent p, child c WHERE p = p.id AND val <> {k};"),
        // A residual on level 0: of the only binding, and of a
        // restricted binding that leads a join.
        format!(
            "SELECT id, name FROM parent WHERE val <> {k} AND name <> 'p{}';",
            s % 7
        ),
        format!(
            "SELECT c.id FROM parent p, child c WHERE c.p = p.id AND p.id = {k} AND p.val > 0;"
        ),
        // Residuals across levels.
        "SELECT p.id, c.id FROM parent p, child c WHERE c.p = p.id AND p.val < c.id;".into(),
        format!(
            "SELECT l.id FROM link l, parent p, child c \
             WHERE l.a = p.id AND l.b = c.id AND (p.val = {k} OR c.w = 'w1');"
        ),
    ]
}

fn assert_planner_matches_reference(db: &mut Database, sql: &str) -> Result<(), TestCaseError> {
    let stmt = rel::sql::parse(sql).unwrap();
    let rel::sql::Statement::Select(select) = &stmt else {
        panic!("template is a SELECT")
    };
    let reference = rel::sql::execute_select_reference(db, select).unwrap();
    let planner = rel::sql::execute(db, &stmt).unwrap();
    let planner = planner.rows().unwrap().clone();
    prop_assert_eq!(planner.canonical(), reference.canonical(), "query: {}", sql);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Planner ≡ reference over randomized schema shapes, data, and
    /// query constants — before, during, and after writes rolled back
    /// by putting a kept clone back (post-rollback index state must
    /// match the heap).
    #[test]
    fn planner_matches_reference_on_random_star_schemas(
        spec in schema_spec(),
        k in 0i64..6,
    ) {
        let mut db = build_database(&spec);
        for sql in queries(k, spec.seed) {
            assert_planner_matches_reference(&mut db, &sql)?;
        }

        // Mutate past a kept clone: the planner must see the written
        // state through its indexes.
        let before: Vec<_> = queries(k, spec.seed)
            .iter()
            .map(|q| {
                let stmt = rel::sql::parse(q).unwrap();
                rel::sql::execute(&mut db, &stmt).unwrap()
            })
            .collect();
        let kept = db.clone();
        let fresh_parent = 1_000 + k;
        db.insert(
            "parent",
            &[
                ("id".to_owned(), Value::Int(fresh_parent)),
                ("name".to_owned(), Value::text("txn")),
                ("val".to_owned(), Value::Int(k)),
            ],
        )
        .unwrap();
        rel::sql::execute_sql(&mut db, &format!("DELETE FROM link WHERE a = {k};")).unwrap();
        rel::sql::execute_sql(
            &mut db,
            &format!("UPDATE child SET p = NULL WHERE p = {k};"),
        )
        .unwrap();
        for sql in queries(k, spec.seed) {
            assert_planner_matches_reference(&mut db, &sql)?;
        }
        db = kept;

        // Post-rollback: planner ≡ reference, and identical to the
        // pre-transaction results — row order included: the same state
        // gives the same statistics, so the same plan and order.
        for (sql, earlier) in queries(k, spec.seed).iter().zip(before) {
            assert_planner_matches_reference(&mut db, sql)?;
            let stmt = rel::sql::parse(sql).unwrap();
            let now = rel::sql::execute(&mut db, &stmt).unwrap();
            prop_assert_eq!(now, earlier, "post-rollback drift: {}", sql);
        }
    }

    /// Planner ≡ reference on the publication workload's translated
    /// SQL (the exact join shapes Algorithm 2 runs), across randomized
    /// database states.
    #[test]
    fn planner_matches_reference_on_workload_queries(
        n in 1usize..40,
        seed in 0u64..1000,
        min_year in 1990i64..2015,
    ) {
        let db = fixtures::data::populated_database(n, seed);
        let mapping = fixtures::mapping();
        for text in [
            fixtures::workload::select_authors_with_team(),
            fixtures::workload::select_publications_with_authors(),
            fixtures::workload::select_recent_publications(min_year),
        ] {
            let query = sparql_update_rdb::sparql::parse_query_with_prefixes(
                &text,
                sparql_update_rdb::rdf::namespace::PrefixMap::common(),
            )
            .unwrap();
            let sparql_update_rdb::sparql::Query::Select(select) = query else {
                panic!()
            };
            let compiled = ontoaccess::compile_select(&db, &mapping, &select).unwrap();
            let reference = rel::sql::execute_select_reference(&db, &compiled.sql).unwrap();
            let planner = rel::sql::execute_select(&db, &compiled.sql).unwrap();
            prop_assert_eq!(planner.canonical(), reference.canonical(), "query: {}", text);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// DISTINCT with LIMIT: the limited run is the first `limit` rows
    /// of the unlimited one, which is the reference's answer as a set.
    #[test]
    fn distinct_with_limit_is_a_prefix_of_the_distinct_answer(
        spec in schema_spec(),
        k in 0i64..6,
        limit in 0usize..8,
    ) {
        let db = build_database(&spec);
        for sql in [
            "SELECT DISTINCT p.val FROM parent p, child c WHERE p.id = c.p;".to_owned(),
            format!("SELECT DISTINCT c.w, p.name FROM child c, parent p WHERE c.p = p.id AND p.val <> {k};"),
            "SELECT DISTINCT name FROM parent;".to_owned(),
        ] {
            let rel::sql::Statement::Select(select) = rel::sql::parse(&sql).unwrap() else {
                panic!("a SELECT")
            };
            let plan = rel::sql::plan_select(&db, &select).unwrap();
            let full = rel::sql::execute_plan(&db, &plan, None)
                .unwrap()
                .into_result_set(plan.columns.clone());
            let limited = rel::sql::execute_plan(&db, &plan, Some(limit))
                .unwrap()
                .into_result_set(plan.columns.clone());
            prop_assert_eq!(
                &limited.rows[..],
                &full.rows[..limit.min(full.rows.len())],
                "query: {}", sql
            );
            let reference = rel::sql::execute_select_reference(&db, &select).unwrap();
            prop_assert_eq!(full.canonical(), reference.canonical(), "query: {}", sql);
        }
    }
}

// ----------------------------------------------------------------------
// Plans of the benchmark queries: counts, not timings
// ----------------------------------------------------------------------

// `(table, access, accessed column)` per level, and the largest level
// estimate.
fn plan_of(db: &mut Database, text: &str) -> (Vec<(String, &'static str, String)>, u64) {
    let query = sparql_update_rdb::sparql::parse_query_with_prefixes(
        text,
        sparql_update_rdb::rdf::namespace::PrefixMap::common(),
    )
    .unwrap();
    let sparql_update_rdb::sparql::Query::Select(select) = query else {
        panic!("a SELECT")
    };
    let compiled = ontoaccess::compile_select(db, &fixtures::mapping(), &select).unwrap();
    let plan = rel::sql::plan_select(db, &compiled.sql).unwrap();
    let shape = plan
        .levels
        .iter()
        .map(|level| {
            let column = match &level.access {
                rel::sql::Access::Restricted { column, .. }
                | rel::sql::Access::IndexLoop { column, .. } => column.clone(),
                _ => String::new(),
            };
            (level.table.clone(), level.access.name(), column)
        })
        .collect();
    let widest = plan
        .levels
        .iter()
        .map(|level| level.estimate)
        .max()
        .unwrap();
    (shape, widest)
}

/// The join from a constant publication (loopbench's `read_join`) gets
/// one plan at every dataset size — start from the publication, index
/// loops out to its authors and their teams — with every level
/// estimated at a handful of rows; the pubtype scan (`read_scan`)
/// starts from the restricted pubtype and reaches publications through
/// their FK index. The workload's unrestricted joins scan only their
/// first table: every later level is reached through a key.
#[test]
fn benchmark_query_plans_do_not_grow_with_the_data() {
    let id = fixtures::data::ID_BASE + 7;
    let join = fixtures::workload::with_prefixes(&format!(
        "SELECT ?last ?code WHERE {{ ex:pub{id} dc:creator ?a . \
         ?a foaf:family_name ?last ; ont:team ?t . ?t ont:teamCode ?code }}"
    ));
    let scan = fixtures::workload::with_prefixes(&format!(
        "SELECT ?p ?t ?y WHERE {{ ?p ont:pubType ex:pubtype{} ; dc:title ?t ; \
         ont:pubYear ?y }}",
        fixtures::data::ID_BASE + 1
    ));
    let workload = [
        fixtures::workload::select_authors_with_team(),
        fixtures::workload::select_publications_with_authors(),
        fixtures::workload::select_recent_publications(2000),
    ];
    let mut plans = Vec::new();
    for publications in [2_000, 8_000] {
        let mut db = fixtures::data::populated_database(publications, 7);
        let (join_plan, widest) = plan_of(&mut db, &join);
        assert!(
            widest <= 4,
            "{publications}: {join_plan:?} estimates {widest} rows"
        );
        assert_eq!(join_plan[0].0, "publication");
        assert_eq!(join_plan[0].1, "restricted");
        assert!(join_plan[1..]
            .iter()
            .all(|(_, access, _)| *access == "index_loop"));
        let (scan_plan, _) = plan_of(&mut db, &scan);
        assert_eq!(
            scan_plan[..2],
            [
                ("pubtype".to_owned(), "restricted", "id".to_owned()),
                ("publication".to_owned(), "index_loop", "type".to_owned()),
            ],
            "{publications}"
        );
        let mut workload_plans = Vec::new();
        for text in &workload {
            let (plan, _) = plan_of(&mut db, text);
            assert!(
                plan[1..].iter().all(|(_, access, _)| *access != "scan"),
                "{publications}: unkeyed join in {plan:?} for {text}"
            );
            workload_plans.push(plan);
        }
        plans.push((join_plan, scan_plan, workload_plans));
    }
    assert_eq!(plans[0], plans[1], "plan shape depends on the data size");
}
