//! The SPARQL front end under hostile bytes, and print → parse as a
//! fixpoint.
//!
//! The lexer slices the request by byte offsets, so a wrong character
//! boundary would panic a server worker. These properties feed it every
//! truncation of the paper's listings and of a `write_bulk`-shaped
//! script (including cuts inside multi-byte characters and inside
//! escapes) plus random byte flips, insertions and deletions: each
//! input must parse or fail with a [`ParseError`] positioned inside it.
//! The round trip generates scripts with escapes, language tags,
//! datatypes, blank nodes and `MODIFY` templates and checks that the
//! printed AST parses back to itself and that every string literal kept
//! exactly the characters its source denotes.

use proptest::prelude::*;
use rdf::namespace::{xsd, xsd_is_integer, PrefixMap};
use rdf::Term;
use sparql::{
    parse_query_with_prefixes, parse_update_script, FilterExpr, ParseError, TermPattern, UpdateOp,
    UpdateScript,
};

const PROLOGUE: &str = "PREFIX foaf: <http://xmlns.com/foaf/0.1/>\n\
                        PREFIX dc: <http://purl.org/dc/elements/1.1/>\n\
                        PREFIX ont: <http://example.org/ontology#>\n\
                        PREFIX ex: <http://example.org/db/>\n\
                        PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>\n";

// The paper's listings, a query with FILTER, and a `write_bulk`-shaped
// script with escapes and multi-byte characters.
const SEEDS: &[&str] = &[
    "INSERT DATA { ex:author6 foaf:title \"Mr\" ; foaf:firstName \"Matthias\" ;\n\
       foaf:family_name \"Hert\" ; foaf:mbox <mailto:hert@ifi.uzh.ch> ; ont:team ex:team5 . }",
    "MODIFY DELETE { ?x foaf:mbox ?mbox . } INSERT { ?x foaf:mbox <mailto:hert@example.com> . }\n\
     WHERE { ?x a foaf:Person ; foaf:firstName \"Matthias\" ; foaf:family_name \"Hert\" ;\n\
       foaf:mbox ?mbox . }",
    "INSERT DATA { ex:team4 foaf:name \"Database Technology\" ; ont:teamCode \"DBTG\" . }",
    "INSERT DATA { ex:pub12 dc:title \"Updating Relational Data via SPARQL/Update\" ;\n\
       ont:pubYear \"2010\"^^xsd:int ; dc:creator ex:author6 , ex:author7 . }",
    "DELETE DATA { ex:author6 foaf:mbox <mailto:hert@ifi.uzh.ch> . }",
    "SELECT DISTINCT ?x ?y WHERE { ?x a foaf:Document ; ont:pubYear ?y .\n\
       FILTER (?y >= 2005 && !(?y = 2007) || BOUND(?x)) } LIMIT 10",
    "DELETE DATA {\n\
     ex:pub800001 a foaf:Document ; dc:title \"Publication 800001 \\u00e9\" ; ont:pubYear \"2009\" ;\n\
       ont:pubType ex:pubtype3 ; dc:publisher ex:publisher7 ; dc:creator ex:author12 , ex:author40 .\n\
     ex:author850001 a foaf:Person ; foaf:family_name \"O\\'Brien\" ; foaf:firstName \"Zoë\\t日本\" ;\n\
       ont:team ex:team2 .\n\
     } ;\n\
     INSERT DATA {\n\
     ex:pub800002 a foaf:Document ; dc:title \"Ünïcödé \\\"quoted\\\" \\U0001F600\"@de-CH ;\n\
       ont:pubYear 2009 ; dc:creator _:b1 .\n\
     }",
];

fn prefixes() -> PrefixMap {
    let mut map = PrefixMap::new();
    for line in PROLOGUE.lines() {
        let (prefix, ns) = line
            .strip_prefix("PREFIX ")
            .and_then(|rest| rest.split_once(": <"))
            .expect("prologue line");
        map.insert(prefix, ns.trim_end_matches('>'));
    }
    map
}

// Whether a reported position names a character of `input`, or the
// place right after a line's last character (where the end of input,
// or a newline, is reported).
fn inside(input: &str, e: &ParseError) -> bool {
    let lines: Vec<&str> = input.split('\n').collect();
    e.line >= 1
        && e.line <= lines.len()
        && e.column >= 1
        && e.column <= lines[e.line - 1].chars().count() + 1
}

// Parse `input` both as an update script and as a query: each must
// succeed or fail with an error positioned inside the input.
fn survives(input: &str) -> Result<(), TestCaseError> {
    let map = prefixes();
    let outcomes = [
        parse_update_script(input, map.clone()).map(drop),
        parse_query_with_prefixes(input, map).map(drop),
    ];
    for outcome in outcomes {
        if let Err(e) = outcome {
            prop_assert!(inside(input, &e), "{e} lies outside {input:?}");
        }
    }
    Ok(())
}

#[test]
fn seeds_parse() {
    let map = prefixes();
    for seed in SEEDS {
        let parsed = if seed.starts_with("SELECT") {
            parse_query_with_prefixes(seed, map.clone()).map(drop)
        } else {
            parse_update_script(seed, map.clone()).map(drop)
        };
        assert!(parsed.is_ok(), "{seed}: {parsed:?}");
    }
}

#[test]
fn every_truncation_parses_or_fails_inside_the_input() {
    for seed in SEEDS {
        let bytes = seed.as_bytes();
        for end in 0..=bytes.len() {
            // A cut inside a multi-byte character leaves U+FFFD, as a
            // lossy decoding of the request would.
            let prefix = String::from_utf8_lossy(&bytes[..end]);
            survives(&prefix).unwrap_or_else(|e| panic!("truncation at byte {end}: {e}"));
        }
    }
}

// Bytes worth inserting: structure, quotes, escapes, line breaks and
// the lead and continuation bytes of multi-byte UTF-8.
const INTERESTING: &[u8] =
    b"<>\"'\\{}().;,?$_:#@^&|!=+-0u\n\r\t \xc3\xa9\xe6\x97\xa5\xf0\x9f\x98\x80";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn mutated_inputs_parse_or_fail_inside_the_input(
        seed in 0usize..SEEDS.len(),
        edits in proptest::collection::vec((0usize..3, 0usize..1 << 20, 0usize..1 << 10), 1..8),
    ) {
        let mut bytes = SEEDS[seed].as_bytes().to_vec();
        for (kind, at, value) in edits {
            let at = at % (bytes.len() + 1);
            match kind {
                0 if at < bytes.len() => bytes[at] ^= 1 << (value % 8),
                1 => bytes.insert(at, INTERESTING[value % INTERESTING.len()]),
                2 if at < bytes.len() => {
                    bytes.remove(at);
                }
                _ => {}
            }
        }
        survives(&String::from_utf8_lossy(&bytes))?;
    }

    #[test]
    fn printed_scripts_parse_back_to_themselves(seed in any::<i64>()) {
        let generated = generate_script(seed as u64);
        let first = parse_update_script(&generated.text, PrefixMap::new())
            .map_err(|e| TestCaseError::fail(format!("{e}\n{}", generated.text)))?;
        // The oracle for byte-exact terms: every string literal holds
        // exactly the characters its source spelled, escapes resolved.
        let mut lexicals = literal_lexicals(&first);
        lexicals.sort();
        lexicals.dedup();
        let mut expected = generated.lexicals;
        expected.sort();
        expected.dedup();
        prop_assert_eq!(&lexicals, &expected, "{}", generated.text);
        let printed = UpdateScript(&first).to_string();
        let second = parse_update_script(&printed, PrefixMap::new())
            .map_err(|e| TestCaseError::fail(format!("{e}\n{printed}")))?;
        prop_assert_eq!(&second, &first, "{}", printed);
        prop_assert_eq!(UpdateScript(&second).to_string(), printed);
    }
}

// ----------------------------------------------------------------------
// Script generator
// ----------------------------------------------------------------------

// A generated script and the lexical forms of its string literals.
struct Generated {
    text: String,
    lexicals: Vec<String>,
}

// String literal fragments: (source text, the characters it denotes).
const FRAGMENTS: &[(&str, &str)] = &[
    ("ab", "ab"),
    ("Zürich", "Zürich"),
    ("日本", "日本"),
    (" ", " "),
    ("<", "<"),
    (">", ">"),
    ("#", "#"),
    ("{", "{"),
    ("'", "'"),
    ("\\t", "\t"),
    ("\\b", "\u{8}"),
    ("\\n", "\n"),
    ("\\r", "\r"),
    ("\\f", "\u{c}"),
    ("\\\"", "\""),
    ("\\'", "'"),
    ("\\\\", "\\"),
    ("\\u00E9", "é"),
    ("\\u0022", "\""),
    ("\\U0001F600", "😀"),
];

const IRIS: &[&str] = &[
    "<http://example.org/db/author6>",
    "ex:pub12",
    "ex:team5",
    "<mailto:o'brien@example.org>",
    "<http://example.org/é>",
    "foaf:name",
];

const PREDICATES: &[&str] = &[
    "foaf:name",
    "ont:team",
    "<http://purl.org/dc/elements/1.1/title>",
    "a",
];

const SEPARATORS: &[&str] = &[" ", "\n", "\t", " # a comment with <\n"];

struct Gen {
    state: u64,
    out: String,
    lexicals: Vec<String>,
}

impl Gen {
    // xorshift64*, reduced to `0..n`.
    fn below(&mut self, n: usize) -> usize {
        self.state ^= self.state >> 12;
        self.state ^= self.state << 25;
        self.state ^= self.state >> 27;
        (self.state.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 33) as usize % n
    }

    fn push(&mut self, text: &str) {
        self.out.push_str(text);
        let sep = SEPARATORS[self.below(SEPARATORS.len())];
        self.out.push_str(sep);
    }

    fn pick(&mut self, items: &[&str]) {
        let item = items[self.below(items.len())];
        self.push(item);
    }

    fn literal(&mut self) {
        let mut source = String::from("\"");
        let mut value = String::new();
        for _ in 0..self.below(4) {
            let (text, denotes) = FRAGMENTS[self.below(FRAGMENTS.len())];
            source.push_str(text);
            value.push_str(denotes);
        }
        source.push('"');
        match self.below(4) {
            0 => source.push_str(["@en", "@de-CH", "@EN-us"][self.below(3)]),
            1 => source.push_str(
                ["^^xsd:string", "^^<http://www.w3.org/2001/XMLSchema#date>"][self.below(2)],
            ),
            _ => {}
        }
        self.lexicals.push(value);
        self.push(&source);
    }

    fn variable(&mut self) {
        let sigil = ["?", "$"][self.below(2)];
        let name = format!("{sigil}v{}", self.below(3));
        self.push(&name);
    }

    fn blank(&mut self) {
        let label = format!("_:b{}", self.below(3));
        self.push(&label);
    }

    fn subject(&mut self, vars: bool) {
        match self.below(if vars { 3 } else { 2 }) {
            0 => self.pick(IRIS),
            1 => self.blank(),
            _ => self.variable(),
        }
    }

    fn object(&mut self, vars: bool) {
        match self.below(if vars { 8 } else { 7 }) {
            0 => self.pick(IRIS),
            1 => self.blank(),
            2 | 3 => self.literal(),
            4 => {
                let n = format!("{}", self.below(2000) as i64 - 1000);
                self.push(&n);
            }
            5 => {
                let d = format!("{}.{}", self.below(100), self.below(100));
                self.push(&d);
            }
            6 => self.pick(&["true", "false"]),
            _ => self.variable(),
        }
    }

    // subject p o (, o)* (; p o (, o)*)* — the shapes whose subjects and
    // predicates the parser moves into their last pattern.
    fn triples(&mut self, vars: bool) {
        for _ in 0..self.below(4) {
            self.subject(vars);
            for p in 0..1 + self.below(3) {
                if p > 0 {
                    self.push(";");
                }
                if vars && self.below(4) == 0 {
                    self.variable();
                } else {
                    self.pick(PREDICATES);
                }
                for o in 0..1 + self.below(3) {
                    if o > 0 {
                        self.push(",");
                    }
                    self.object(vars);
                }
            }
            if self.below(4) == 0 {
                self.push(";");
            }
            self.push(".");
        }
    }

    fn block(&mut self, vars: bool) {
        self.push("{");
        self.triples(vars);
        self.push("}");
    }

    fn filter(&mut self, depth: usize) {
        match if depth == 0 {
            self.below(2)
        } else {
            self.below(5)
        } {
            0 => {
                self.variable();
                self.pick(&["=", "!=", "<", "<=", ">", ">="]);
                self.object(true);
            }
            1 => {
                self.push("BOUND(");
                self.variable();
                self.push(")");
            }
            2 => {
                self.push("!");
                self.push("(");
                self.filter(depth - 1);
                self.push(")");
            }
            op => {
                self.push("(");
                self.filter(depth - 1);
                self.push(if op == 3 { "&&" } else { "||" });
                self.filter(depth - 1);
                self.push(")");
            }
        }
    }

    fn group(&mut self, filters: bool) {
        self.push("{");
        self.triples(true);
        if filters {
            for _ in 0..self.below(3) {
                self.push("FILTER (");
                self.filter(2);
                self.push(")");
            }
        }
        self.push("}");
    }

    fn template_op(&mut self, delete: bool, insert: bool) {
        if delete {
            self.push("DELETE");
            self.block(true);
        }
        if insert {
            self.push("INSERT");
            self.block(true);
        }
        self.push("WHERE");
        self.group(true);
    }

    fn operation(&mut self) {
        match self.below(6) {
            0 => {
                self.push("INSERT DATA");
                self.block(false);
            }
            1 => {
                self.push("DELETE DATA");
                self.block(false);
            }
            2 => {
                self.push("MODIFY");
                if self.below(2) == 0 {
                    self.push("<http://example.org/graph>");
                }
                self.template_op(true, true);
            }
            3 => self.template_op(true, true),
            4 => self.template_op(false, true),
            _ => {
                self.push("DELETE WHERE");
                self.group(false);
            }
        }
    }
}

fn generate_script(seed: u64) -> Generated {
    let mut g = Gen {
        state: seed | 1,
        out: String::from(PROLOGUE),
        lexicals: Vec::new(),
    };
    for i in 0..1 + g.below(3) {
        if i > 0 {
            g.push(";");
        }
        g.operation();
    }
    Generated {
        text: g.out,
        lexicals: g.lexicals,
    }
}

// The lexical form of every quoted literal in the script (numbers and
// booleans, which the generator writes unquoted, are left out).
fn literal_lexicals(ops: &[UpdateOp]) -> Vec<String> {
    let mut terms: Vec<&Term> = Vec::new();
    for op in ops {
        match op {
            UpdateOp::InsertData { triples } | UpdateOp::DeleteData { triples } => {
                terms.extend(triples.iter().map(|t| &t.object));
            }
            UpdateOp::Modify {
                delete,
                insert,
                pattern,
            } => {
                let mut positions: Vec<&TermPattern> = delete
                    .iter()
                    .chain(insert)
                    .chain(&pattern.patterns)
                    .map(|p| &p.object)
                    .collect();
                let mut filters: Vec<&FilterExpr> = pattern.filters.iter().collect();
                while let Some(filter) = filters.pop() {
                    match filter {
                        FilterExpr::Compare { left, right, .. } => positions.extend([left, right]),
                        FilterExpr::Bound(_) => {}
                        FilterExpr::And(a, b) | FilterExpr::Or(a, b) => {
                            filters.extend([&**a, &**b])
                        }
                        FilterExpr::Not(inner) => filters.push(inner),
                    }
                }
                terms.extend(positions.into_iter().filter_map(TermPattern::as_term));
            }
        }
    }
    terms
        .into_iter()
        .filter_map(Term::as_literal)
        .filter(|lit| {
            !lit.datatype().is_some_and(|dt| {
                xsd_is_integer(dt) || dt == &xsd::decimal() || dt == &xsd::boolean()
            })
        })
        .map(|lit| lit.lexical().to_owned())
        .collect()
}
