//! Differential tests of the result writers. The server writes a
//! query's rows straight from the join (`wire::rows_to_json` /
//! `wire::rows_to_xml`); library callers get owned `Solutions` and
//! `wire::solutions_to_json` / `wire::solutions_to_xml`. The two paths
//! must agree byte for byte — over randomized queries against the use
//! case database, extended with a table of booleans, doubles and
//! integers and with text that needs every escape — and the solutions
//! must match native evaluation over the materialized graph.
//!
//! The same generator, with constants, checks the query cache's
//! binding: a text answered from a shape cached for other constants is
//! indistinguishable from a fresh compile of it.

use ontoaccess::{CacheProbe, Mediator, QueryAnswer, QueryStop, SolutionRows};
use ontoaccess_server::wire;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rel::sql::FlatRows;
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
fn database_and_mapping() -> (rel::Database, r3m::Mapping) {
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
    (db, mapping)
}

fn mediator() -> Mediator {
    let (db, mapping) = database_and_mapping();
    Mediator::new(db, mapping).unwrap()
}

// A class a query may ask about: its IRI, the constants that may stand
// for an instance of it, and per property the constants its object may
// be. Pools mix hits, misses, IRIs of other tables or of none, keys of
// the wrong type, and typed, tagged and absent literals.
struct Class {
    iri: String,
    subjects: Vec<String>,
    properties: Vec<(String, Vec<String>)>,
}

fn strings(items: &[&str]) -> Vec<String> {
    items.iter().map(|s| (*s).to_owned()).collect()
}

fn classes() -> Vec<Class> {
    let vocab = |local: &str| format!("<{VOCAB}{local}>");
    vec![
        Class {
            iri: "foaf:Person".into(),
            subjects: strings(&[
                "ex:author6",
                "ex:author7",
                "ex:author1003",
                "ex:authorXY",
                "ex:team5",
                "<http://nowhere.example/thing>",
            ]),
            properties: vec![
                (
                    "foaf:title".into(),
                    strings(&[r#""Mr""#, r#""Mr"@en"#, r#""wire-rows-absent-title""#]),
                ),
                (
                    "foaf:firstName".into(),
                    strings(&[
                        r#""Matthias""#,
                        r#""First1003"^^<http://www.w3.org/2001/XMLSchema#string>"#,
                        r#""First1010""#,
                    ]),
                ),
                (
                    "foaf:family_name".into(),
                    strings(&[
                        r#""Hert""#,
                        r#""Reif""#,
                        r#""Last1010"@de"#,
                        r#""wire-rows-absent-name""#,
                    ]),
                ),
                (
                    "foaf:mbox".into(),
                    strings(&[
                        "<mailto:hert@ifi.uzh.ch>",
                        "<mailto:author1003@example.org>",
                        "<mailto:nobody@nowhere.example>",
                        "ex:author6",
                    ]),
                ),
                (
                    "ont:team".into(),
                    strings(&["ex:team5", "ex:team1001", "ex:teamXY", "ex:author6"]),
                ),
            ],
        },
        Class {
            iri: "foaf:Document".into(),
            subjects: strings(&["ex:pub1", "ex:pub1001", "ex:pub1002", "ex:author6"]),
            properties: vec![
                (
                    "dc:title".into(),
                    strings(&[r#""Publication 1001""#, r#""wire-rows-absent-title""#]),
                ),
                (
                    "ont:pubYear".into(),
                    strings(&[r#""2009""#, "1996", r#""1997"^^xsd:integer"#, r#""soon""#]),
                ),
                (
                    "ont:pubType".into(),
                    strings(&["ex:pubtype4", "ex:pubtype1001", "ex:pubtype1002"]),
                ),
                (
                    "dc:publisher".into(),
                    strings(&["ex:publisher3", "ex:publisher1001", "ex:publisherXY"]),
                ),
                (
                    "dc:creator".into(),
                    strings(&["ex:author6", "ex:author1003", "ex:author1010", "ex:pub1"]),
                ),
            ],
        },
        Class {
            iri: vocab("Gadget"),
            subjects: strings(&["ex:gadget1", "ex:gadget2", "ex:gadget5", "ex:gadgetXY"]),
            properties: vec![
                (
                    vocab("gadget_label"),
                    strings(&[r#""""#, r#""<&>'\" plain""#, r#""wire-rows-absent-label""#]),
                ),
                (
                    vocab("gadget_active"),
                    strings(&["true", r#""false""#, r#""maybe""#]),
                ),
                (vocab("gadget_weight"), strings(&["0.5", "3.0e0"])),
                (
                    vocab("gadget_count"),
                    strings(&["1000003", "-2000006", r#""7""#]),
                ),
            ],
        },
    ]
}

// A generated query with its constants left open: the text is `pieces`
// with hole `i` between pieces `i` and `i + 1`, and `holes[i]` lists
// the constants that hole may take.
struct Generated {
    pieces: Vec<String>,
    holes: Vec<Vec<String>>,
    distinct: bool,
    limit: Option<usize>,
}

impl Generated {
    fn push(&mut self, text: &str) {
        self.pieces.last_mut().expect("one piece").push_str(text);
    }

    fn hole(&mut self, pool: &[String]) {
        self.holes.push(pool.to_vec());
        self.pieces.push(String::new());
    }

    // The text with constant `picks[i]` in hole `i`.
    fn render(&self, picks: &[usize]) -> String {
        let mut text = self.pieces[0].clone();
        for ((pool, pick), piece) in self.holes.iter().zip(picks).zip(&self.pieces[1..]) {
            text.push_str(&pool[*pick]);
            text.push_str(piece);
        }
        text
    }

    fn random_picks(&self, rng: &mut StdRng) -> Vec<usize> {
        self.holes
            .iter()
            .map(|pool| rng.gen_range(0..pool.len()))
            .collect()
    }
}

// A random basic graph pattern over one class, with a random
// projection, DISTINCT and LIMIT: the text, whether it is DISTINCT, and
// its LIMIT.
fn random_query(rng: &mut StdRng) -> (String, bool, Option<usize>) {
    let query = generate(rng, false);
    (query.render(&[]), query.distinct, query.limit)
}

// A random query; with `constants`, the subject (one hole per pattern)
// and objects may be constants, and the form may be ASK.
fn generate(rng: &mut StdRng, constants: bool) -> Generated {
    let classes = classes();
    let class = &classes[rng.gen_range(0..classes.len())];
    let mut query = Generated {
        pieces: vec![String::new()],
        holes: Vec::new(),
        distinct: false,
        limit: None,
    };
    let ground = constants && rng.gen_bool(0.6);
    let subject = |query: &mut Generated| {
        if ground {
            query.hole(&class.subjects);
            query.push(" ");
        } else {
            query.push("?s ");
        }
    };
    let mut vars: Vec<String> = Vec::new();
    if !ground {
        vars.push("?s".to_owned());
    }
    subject(&mut query);
    query.push(&format!("a {} . ", class.iri));
    for (i, (property, objects)) in class.properties.iter().enumerate() {
        if rng.gen_bool(0.5) {
            subject(&mut query);
            query.push(&format!("{property} "));
            if constants && rng.gen_bool(0.5) {
                query.hole(objects);
                query.push(" . ");
            } else {
                query.push(&format!("?v{i} . "));
                vars.push(format!("?v{i}"));
            }
        }
    }
    let head = if constants && rng.gen_bool(0.15) {
        "ASK { ".to_owned()
    } else {
        let projection = if vars.is_empty() || rng.gen_bool(0.2) {
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
        query.distinct = rng.gen_bool(0.3);
        query.limit = rng.gen_bool(0.3).then(|| rng.gen_range(0..25usize));
        format!(
            "SELECT {}{projection} WHERE {{ ",
            if query.distinct { "DISTINCT " } else { "" }
        )
    };
    query.pieces[0].insert_str(0, &head);
    query.push("}");
    if let Some(n) = query.limit {
        query.push(&format!(" LIMIT {n}"));
    }
    query
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

// What a client observes of `text`: the JSON body or the error (kind
// and message), then the `?explain=1` plan or error. Also which cache
// probe answered the execution, `None` for a failure.
fn observe(mediator: &Mediator, text: &str) -> (String, Option<CacheProbe>) {
    let session = mediator.read();
    let (body, probe) = match session.run_query(text, QueryStop::Execute) {
        Ok(run) => {
            let body = match run.outcome.as_ref().expect("executed") {
                QueryAnswer::Solutions(rows) => wire::rows_to_json(rows).unwrap(),
                QueryAnswer::Boolean(b) => wire::boolean_to_json(*b),
            };
            (body, Some(run.cache))
        }
        Err(error) => (format!("{error:?}"), None),
    };
    let plan = match session.run_query(text, QueryStop::Plan) {
        Ok(run) => {
            let explain = run.explain();
            format!(
                "{} {} {:?}",
                explain.form, explain.version_seq, explain.joins
            )
        }
        Err(error) => format!("{error:?}"),
    };
    (format!("{body}\n{plan}"), probe)
}

#[test]
fn a_shape_cached_for_other_constants_answers_as_a_fresh_compile() {
    let base = mediator();
    let db = base.database().clone();
    let fresh = || Mediator::new(db.clone(), base.mapping().clone()).unwrap();
    // A small cache evicts all the time, so bindings also overwrite the
    // statements evicted texts leave behind.
    let warm = fresh();
    warm.set_query_cache_capacity(8);
    // `(warm-up text, probe text)`: the warm mediator answers the first,
    // then both answer the second. Fixed cases first, then random ones.
    let point = |subject: &str| format!("SELECT ?n WHERE {{ {subject} foaf:family_name ?n }}");
    let pair = |a: &str, b: &str| {
        format!("SELECT ?a ?b WHERE {{ {a} foaf:family_name ?a . {b} foaf:firstName ?b }}")
    };
    let by = |object: &str| format!("SELECT ?x WHERE {{ ?x foaf:family_name {object} }}");
    let mbox = |object: &str| format!("SELECT ?x WHERE {{ ?x foaf:mbox {object} }}");
    let year = |object: &str| {
        format!("SELECT DISTINCT ?t WHERE {{ ?p ont:pubYear {object} ; dc:title ?t }} LIMIT 3")
    };
    let ask = |object: &str| format!("ASK {{ ?x foaf:family_name {object} }}");
    let mut cases: Vec<(String, String, Option<CacheProbe>)> = vec![
        // One IRI twice against two IRIs of one table, both ways: the
        // first probe compiles, later ones bind what earlier cases cached.
        (
            pair("ex:author6", "ex:author6"),
            pair("ex:author6", "ex:author7"),
            Some(CacheProbe::Compile),
        ),
        (
            pair("ex:author6", "ex:author7"),
            pair("ex:author7", "ex:author7"),
            Some(CacheProbe::Shape),
        ),
        (
            pair("ex:author7", "ex:author7"),
            pair("ex:author7", "ex:author6"),
            Some(CacheProbe::Shape),
        ),
        // IRIs of two tables, and of none, in one position.
        (point("ex:author6"), point("ex:team5"), None),
        (
            point("ex:author6"),
            point("<http://nowhere.example/x>"),
            None,
        ),
        // A key of the wrong type fails as it does compiling.
        (point("ex:author6"), point("ex:authorXY"), None),
        (
            point("ex:author6"),
            point("ex:author7"),
            Some(CacheProbe::Shape),
        ),
        (
            mbox("<mailto:hert@ifi.uzh.ch>"),
            mbox("<mailto:author1003@example.org>"),
            Some(CacheProbe::Shape),
        ),
        (
            mbox("<mailto:hert@ifi.uzh.ch>"),
            mbox("<mailto:nobody@nowhere.example>"),
            Some(CacheProbe::Shape),
        ),
        (mbox("<mailto:hert@ifi.uzh.ch>"), mbox("ex:author6"), None),
        (by(r#""Hert""#), by(r#""Reif"@en"#), Some(CacheProbe::Shape)),
        (
            by(r#""Hert""#),
            by(r#""Reif"^^xsd:string"#),
            Some(CacheProbe::Shape),
        ),
        (
            by(r#""Hert""#),
            by(r#""wire-rows-absent""#),
            Some(CacheProbe::Shape),
        ),
        (by(r#""Hert""#), by("42"), None),
        (year(r#""2009""#), year("1996"), Some(CacheProbe::Shape)),
        (year(r#""2009""#), year(r#""soon""#), None),
        (ask(r#""Hert""#), ask(r#""Reif""#), Some(CacheProbe::Shape)),
        (
            ask(r#""Hert""#),
            ask(r#""wire-rows-absent""#),
            Some(CacheProbe::Shape),
        ),
    ];
    // Distinct texts of one shape cycling through the cache: most bind
    // into the statement an evicted text of the shape left behind.
    for author in (1000..1024).step_by(2) {
        cases.push((
            point(&format!("ex:author{author}")),
            point(&format!("ex:author{}", author + 1)),
            Some(CacheProbe::Shape),
        ));
    }
    let fixed = cases.len();
    let mut rng = StdRng::seed_from_u64(27);
    while cases.len() < 500 {
        let query = generate(&mut rng, true);
        let (a, b) = (query.random_picks(&mut rng), query.random_picks(&mut rng));
        if a != b {
            cases.push((query.render(&a), query.render(&b), None));
        }
    }
    // Shape answers with rows and without, and shape probes whose
    // binding failed.
    let (mut rows, mut empty, mut failed) = (0, 0, 0);
    for (i, (warm_up, probe, expected)) in cases.iter().enumerate() {
        let _ = warm.read().run_query(warm_up, QueryStop::Execute);
        let misses = warm.query_cache_stats().misses;
        let (ours, cache) = observe(&warm, probe);
        let (theirs, _) = observe(&fresh(), probe);
        assert_eq!(ours, theirs, "warmed with {warm_up}\nthen asked {probe}");
        if i < fixed {
            assert_eq!(cache, *expected, "{probe}");
        }
        let body = ours.split_once('\n').expect("body, then plan").0;
        let has_rows = !body.contains(r#""bindings":[]"#) && body != wire::boolean_to_json(false);
        match cache {
            Some(CacheProbe::Shape) if has_rows => rows += 1,
            Some(CacheProbe::Shape) => empty += 1,
            None if warm.query_cache_stats().misses == misses => failed += 1,
            _ => {}
        }
    }
    assert!(
        rows >= 40 && empty >= 30 && failed >= 30,
        "{rows} {empty} {failed}"
    );
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
        FlatRows::from_rows(
            4,
            [
                [
                    Value::Int(1),
                    Value::Null,
                    Value::Double(2.5),
                    Value::text("a@b"),
                ],
                [Value::Null, Value::text("x<y"), Value::Null, Value::Null],
                [Value::Null, Value::Null, Value::Null, Value::Null],
            ],
        ),
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
    let rows = SolutionRows::new(Arc::new(compiled), FlatRows::from_rows(1, cells));
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

#[test]
fn the_server_xml_refuses_what_xml_cannot_carry_in_any_row() {
    // A column's first cell of a kind is written by the term writer,
    // later ones through the column's template: the server's XML writer
    // refuses a character XML 1.0 cannot carry on either, and the
    // library's copies it as it is.
    let mediator = mediator();
    let compiled = {
        let text = format!("SELECT ?l WHERE {{ ?s <{VOCAB}gadget_label> ?l . }}");
        let Query::Select(select) =
            sparql::parse_query_with_prefixes(&text, mediator.prefixes().clone()).unwrap()
        else {
            unreachable!()
        };
        Arc::new(
            ontoaccess::compile_select(&mediator.database(), mediator.mapping(), &select).unwrap(),
        )
    };
    let control = "holds a control character XML 1.0 cannot carry";
    let noncharacter = "holds the noncharacter U+FFFE or U+FFFF, which XML 1.0 cannot carry";
    for (cells, refusal) in [
        (["Ctl\u{1}x", "ok", "ok"], control),
        (["ok", "ok", "Ctl\u{1}x"], control),
        (["Non\u{FFFF}x", "ok", "ok"], noncharacter),
        (["ok", "ok", "Non\u{FFFE}x"], noncharacter),
        (["ok", "Non\u{FFFF}x", "Ctl\u{1}x"], noncharacter),
    ] {
        let rows = SolutionRows::new(
            Arc::clone(&compiled),
            FlatRows::from_rows(1, cells.map(|cell| [Value::text(cell)])),
        );
        assert_writers_agree(&rows, refusal);
        let error = wire::rows_to_well_formed_xml(&rows)
            .unwrap_err()
            .to_string();
        assert!(error.contains(refusal), "{cells:?}: {error}");
        let copied = wire::rows_to_xml(&rows).unwrap();
        assert!(cells.iter().all(|cell| copied.contains(cell)), "{cells:?}");
    }
    let fine = FlatRows::from_rows(1, ["a", "b\tc", "d"].map(|cell| [Value::text(cell)]));
    let rows = SolutionRows::new(compiled, fine);
    assert_eq!(
        wire::rows_to_well_formed_xml(&rows).unwrap(),
        wire::rows_to_xml(&rows).unwrap()
    );
}
