//! Differential tests of the result writers. The server writes a
//! query's rows straight from the join (`wire::rows_to_json` /
//! `wire::rows_to_xml`); library callers get owned `Solutions` and
//! `wire::solutions_to_json` / `wire::solutions_to_xml`. The two paths
//! must agree byte for byte — over randomized queries against the use
//! case database, extended with a table of booleans, doubles and
//! integers and with text that needs every escape — and the solutions
//! must match native evaluation over the materialized graph.

use ontoaccess::{Mediator, QueryAnswer, QueryStop, SolutionRows};
use ontoaccess_server::wire;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rel::{Column, Schema, SqlType, Table, Value};
use sparql::{Query, Solutions};
use std::sync::Arc;

const VOCAB: &str = "http://example.org/vocab#";

fn gadget_table() -> Table {
    Table::builder("gadget")
        .column(Column::new("id", SqlType::Integer).not_null())
        .column(Column::new("label", SqlType::Varchar))
        .column(Column::new("active", SqlType::Boolean))
        .column(Column::new("weight", SqlType::Double))
        .column(Column::new("count", SqlType::Integer))
        .primary_key(&["id"])
        .build()
}

// Text exercising every JSON and XML escape, control characters and
// non-ASCII.
const TRICKY: [&str; 4] = [
    "say \"hi\" \\ tab\there\nnew\r\u{1}\u{8}\u{c}\u{1f}\u{7f}",
    "<&>'\" plain",
    "café ünï 日本語 🦀 \u{2028}",
    "",
];

// The use case (paper rows + a populated dataset) plus `gadget`, mapped
// by the R3M generator.
fn mediator() -> Mediator {
    let mut schema = fixtures::schema();
    schema.add_table(gadget_table()).unwrap();
    let mut gadgets = Schema::new();
    gadgets.add_table(gadget_table()).unwrap();
    let mut mapping = fixtures::mapping();
    mapping.tables.extend(
        r3m::generate(&gadgets, &r3m::GeneratorConfig::new())
            .unwrap()
            .tables,
    );
    let mut db = rel::Database::new(schema).unwrap();
    fixtures::seed_paper_rows(&mut db);
    fixtures::data::populate(&mut db, &fixtures::data::Spec::scaled(60), 7);
    let a = |name: &str, v: Value| (name.to_owned(), v);
    for (i, text) in TRICKY.iter().enumerate() {
        let id = 90 + i as i64;
        db.insert(
            "author",
            &[
                a("id", Value::Int(id)),
                a("firstname", Value::text(text)),
                a("lastname", Value::text(format!("{text}{id}"))),
            ],
        )
        .unwrap();
    }
    let weights = [0.5, -0.0, 1e300, -2.25e-7, f64::NAN, f64::INFINITY, 3.0];
    for id in 1..=14i64 {
        let pick = |n: i64| (id % n) as usize;
        db.insert(
            "gadget",
            &[
                a("id", Value::Int(id)),
                a(
                    "label",
                    match pick(3) {
                        0 => Value::Null,
                        _ => Value::text(TRICKY[pick(4)]),
                    },
                ),
                a(
                    "active",
                    match pick(3) {
                        0 => Value::Null,
                        1 => Value::Bool(true),
                        _ => Value::Bool(false),
                    },
                ),
                a("weight", Value::Double(weights[pick(7)])),
                a(
                    "count",
                    Value::Int(id * 1_000_003 * if id % 2 == 0 { -1 } else { 1 }),
                ),
            ],
        )
        .unwrap();
    }
    Mediator::new(db, mapping).unwrap()
}

// Per class: its IRI and the properties a query may ask for.
fn classes() -> Vec<(String, Vec<String>)> {
    let vocab = |local: &str| format!("<{VOCAB}{local}>");
    vec![
        (
            "foaf:Person".into(),
            [
                "foaf:title",
                "foaf:firstName",
                "foaf:family_name",
                "foaf:mbox",
                "ont:team",
            ]
            .map(String::from)
            .to_vec(),
        ),
        (
            "foaf:Document".into(),
            [
                "dc:title",
                "ont:pubYear",
                "ont:pubType",
                "dc:publisher",
                "dc:creator",
            ]
            .map(String::from)
            .to_vec(),
        ),
        (
            vocab("Gadget"),
            [
                "gadget_label",
                "gadget_active",
                "gadget_weight",
                "gadget_count",
            ]
            .map(vocab)
            .to_vec(),
        ),
    ]
}

// A random basic graph pattern over one class, with a random
// projection, DISTINCT and LIMIT: the text, whether it is DISTINCT, and
// its LIMIT.
fn random_query(rng: &mut StdRng) -> (String, bool, Option<usize>) {
    let classes = classes();
    let (class, properties) = &classes[rng.gen_range(0..classes.len())];
    let mut patterns = format!("?s a {class} . ");
    let mut vars = vec!["?s".to_owned()];
    for (i, property) in properties.iter().enumerate() {
        if rng.gen_bool(0.5) {
            patterns.push_str(&format!("?s {property} ?v{i} . "));
            vars.push(format!("?v{i}"));
        }
    }
    let projection = if rng.gen_bool(0.2) {
        "*".to_owned()
    } else {
        let mut chosen: Vec<&str> = vars
            .iter()
            .filter(|_| rng.gen_bool(0.6))
            .map(String::as_str)
            .collect();
        if chosen.is_empty() {
            chosen.push(&vars[vars.len() - 1]);
        }
        chosen.join(" ")
    };
    let distinct = rng.gen_bool(0.3);
    let limit = rng.gen_bool(0.3).then(|| rng.gen_range(0..25usize));
    let text = format!(
        "SELECT {}{projection} WHERE {{ {patterns}}}{}",
        if distinct { "DISTINCT " } else { "" },
        limit.map_or(String::new(), |n| format!(" LIMIT {n}"))
    );
    (text, distinct, limit)
}

fn rows_of(mediator: &Mediator, text: &str) -> SolutionRows {
    let run = mediator.read().run_query(text, QueryStop::Execute).unwrap();
    match run.outcome {
        Some(QueryAnswer::Solutions(rows)) => rows,
        other => panic!("{text}: {other:?}"),
    }
}

// Both writers, both formats, byte for byte; returns the solutions.
fn assert_writers_agree(rows: &SolutionRows, context: &str) -> Solutions {
    let solutions = rows.to_solutions().unwrap();
    assert_eq!(
        wire::rows_to_json(rows).unwrap(),
        wire::solutions_to_json(&solutions),
        "{context}"
    );
    assert_eq!(
        wire::rows_to_xml(rows).unwrap(),
        wire::solutions_to_xml(&solutions),
        "{context}"
    );
    solutions
}

#[test]
fn row_writers_match_the_solution_writers_on_random_queries() {
    let mediator = mediator();
    let graph = ontoaccess::materialize(&mediator.database(), mediator.mapping()).unwrap();
    let mut rng = StdRng::seed_from_u64(24);
    let (mut rows_seen, mut limited, mut distinct_seen) = (0, 0, 0);
    for _ in 0..300 {
        let (text, distinct, limit) = random_query(&mut rng);
        let rows = rows_of(&mediator, &text);
        let solutions = assert_writers_agree(&rows, &text);
        // The library path answers the same solutions.
        assert_eq!(mediator.select(&text).unwrap(), solutions, "{text}");
        rows_seen += solutions.len();
        if let Some(n) = limit {
            // The first n solutions of the same query without LIMIT.
            let unlimited = &text[..text.rfind(" LIMIT").unwrap()];
            let all = rows_of(&mediator, unlimited).to_solutions().unwrap();
            assert_eq!(solutions.len(), n.min(all.len()), "{text}");
            assert_eq!(
                solutions.bindings[..],
                all.bindings[..solutions.len()],
                "{text}"
            );
            limited += 1;
        }
        if distinct {
            let mut unique = solutions.bindings.clone();
            unique.sort();
            unique.dedup();
            assert_eq!(unique.len(), solutions.len(), "{text}");
            distinct_seen += 1;
        }
        // Without LIMIT, the answer is native evaluation's over the
        // materialized graph, as a multiset.
        if limit.is_none() {
            let Query::Select(select) =
                sparql::parse_query_with_prefixes(&text, mediator.prefixes().clone()).unwrap()
            else {
                unreachable!("generated a SELECT")
            };
            let mut native = sparql::evaluate_select(&graph, &select);
            let mut ours = solutions.bindings;
            native.bindings.sort();
            ours.sort();
            assert_eq!(ours, native.bindings, "{text}");
        }
    }
    assert!(rows_seen > 1_000 && limited > 30 && distinct_seen > 30);
}

#[test]
fn typed_literals_and_derived_iris_render_as_the_standard_says() {
    let mediator = mediator();
    let rows = rows_of(
        &mediator,
        &format!(
            "SELECT ?a ?w ?c WHERE {{ ex:gadget2 <{VOCAB}gadget_active> ?a ; \
             <{VOCAB}gadget_weight> ?w ; <{VOCAB}gadget_count> ?c . }}"
        ),
    );
    assert_writers_agree(&rows, "gadget2");
    let xsd = "http://www.w3.org/2001/XMLSchema#";
    assert_eq!(
        wire::rows_to_json(&rows).unwrap(),
        format!(
            "{{\"head\":{{\"vars\":[\"a\",\"w\",\"c\"]}},\"results\":{{\"bindings\":[{{\
             \"a\":{{\"type\":\"literal\",\"value\":\"false\",\"datatype\":\"{xsd}boolean\"}},\
             \"w\":{{\"type\":\"literal\",\"value\":\"1e300\",\"datatype\":\"{xsd}double\"}},\
             \"c\":{{\"type\":\"literal\",\"value\":\"-2000006\",\"datatype\":\"{xsd}integer\"}}\
             }}]}}}}"
        )
    );
    let rows = rows_of(&mediator, "SELECT ?m WHERE { ex:author6 foaf:mbox ?m . }");
    assert_writers_agree(&rows, "mbox");
    assert!(wire::rows_to_xml(&rows)
        .unwrap()
        .contains("<binding name=\"m\"><uri>mailto:hert@ifi.uzh.ch</uri></binding>"));
}

#[test]
fn null_cells_leave_their_variable_unbound() {
    // SPARQL patterns never bind NULL columns, but the view must skip a
    // NULL cell of any shape the same way on both paths.
    let mediator = mediator();
    let compiled = {
        let text = format!(
            "SELECT ?s ?l ?w ?m WHERE {{ ?s <{VOCAB}gadget_label> ?l ; \
             <{VOCAB}gadget_weight> ?w . ?x foaf:mbox ?m . }}"
        );
        let Query::Select(select) =
            sparql::parse_query_with_prefixes(&text, mediator.prefixes().clone()).unwrap()
        else {
            unreachable!()
        };
        ontoaccess::compile_select(&mediator.database(), mediator.mapping(), &select).unwrap()
    };
    let rows = SolutionRows::new(
        Arc::new(compiled),
        vec![
            vec![
                Value::Int(1),
                Value::Null,
                Value::Double(2.5),
                Value::text("a@b"),
            ],
            vec![Value::Null, Value::text("x<y"), Value::Null, Value::Null],
            vec![Value::Null, Value::Null, Value::Null, Value::Null],
        ],
    );
    let solutions = assert_writers_agree(&rows, "null cells");
    assert_eq!(solutions.bindings[0].len(), 3);
    assert_eq!(solutions.bindings[1].len(), 1);
    assert!(solutions.bindings[2].is_empty());
    assert!(wire::rows_to_json(&rows)
        .unwrap()
        .ends_with(",{\"l\":{\"type\":\"literal\",\"value\":\"x<y\"}},{}]}}"));
}

#[test]
fn a_huge_first_row_does_not_size_the_body_for_the_rest() {
    // One large escape-heavy cell followed by many small ones: the body
    // must hold what was written, not the first row's size times the
    // row count.
    let mediator = mediator();
    let compiled = {
        let text = format!("SELECT ?l WHERE {{ ?s <{VOCAB}gadget_label> ?l . }}");
        let Query::Select(select) =
            sparql::parse_query_with_prefixes(&text, mediator.prefixes().clone()).unwrap()
        else {
            unreachable!()
        };
        ontoaccess::compile_select(&mediator.database(), mediator.mapping(), &select).unwrap()
    };
    let huge = "\u{1}".repeat(256 * 1024);
    let mut cells = vec![vec![Value::text(&huge)]];
    cells.extend((0..20_000).map(|_| vec![Value::text("x")]));
    let rows = SolutionRows::new(Arc::new(compiled), cells);
    assert_writers_agree(&rows, "huge first row");
    for body in [
        wire::rows_to_json(&rows).unwrap(),
        wire::rows_to_xml(&rows).unwrap(),
    ] {
        assert!(
            body.capacity() <= 2 * body.len(),
            "{} bytes held for a {}-byte body",
            body.capacity(),
            body.len()
        );
    }
}
