//! Wire formats of the SPARQL Protocol: W3C SPARQL 1.1 Query Results
//! in JSON and XML for solution sequences and booleans, and
//! Turtle / N-Triples for graph-shaped responses — plus the `Accept`
//! header negotiation that picks between them.
//!
//! Serialization is deterministic: variables appear in projection
//! order, bindings in solution order, and JSON object keys in a fixed
//! order — which is what lets the golden-file tests compare bytes.
//!
//! Each results format has one term writer over the borrowed
//! [`TermRef`] view. Owned [`Solutions`] (the library's path) go through
//! it term by term. A query's [`SolutionRows`] (the server's path) go
//! through it for the first cell of each kind in a column; the second
//! such cell prints a template, the bytes around a cell's lexical text,
//! and every further cell is written as the template's head, its own
//! text escaped, and the template's tail. The two paths
//! write into one buffer that becomes the response body, and they agree
//! byte for byte by construction: a template is the term writer's
//! output.

use ontoaccess::{Codec, OntoError, OntoResult, SolutionRows};
use rdf::namespace::PrefixMap;
use rdf::{Graph, LiteralKindRef, TermRef};
use rel::Value;
use sparql::Solutions;

/// Media type of SPARQL JSON results.
pub const SPARQL_RESULTS_JSON: &str = "application/sparql-results+json";
/// Media type of SPARQL XML results.
pub const SPARQL_RESULTS_XML: &str = "application/sparql-results+xml";
/// Media type of Turtle.
pub const TURTLE: &str = "text/turtle";
/// Media type of N-Triples.
pub const NTRIPLES: &str = "application/n-triples";
/// Media type of the JSON error/status documents.
pub const JSON: &str = "application/json";

// ----------------------------------------------------------------------
// Escaping
// ----------------------------------------------------------------------

// Which bytes a format escapes: the controls below `controls_below`
// and the listed bytes. All of them are ASCII.
const fn escaped_bytes(controls_below: u8, listed: &[u8]) -> [bool; 256] {
    let mut table = [false; 256];
    let mut b = 0;
    while b < controls_below {
        table[b as usize] = true;
        b += 1;
    }
    let mut i = 0;
    while i < listed.len() {
        table[listed[i] as usize] = true;
        i += 1;
    }
    table
}

const JSON_ESCAPED: [bool; 256] = escaped_bytes(0x20, b"\"\\");
// XML 1.0 carries no C0 control but tab, newline and carriage return,
// not even as a character reference: the others are escaped bytes that
// have no escape (see `xml_escape_into`).
const XML_ESCAPED: [bool; 256] = {
    let mut table = escaped_bytes(0x20, b"&<>\"'");
    table[b'\t' as usize] = false;
    table[b'\n' as usize] = false;
    table[b'\r' as usize] = false;
    table
};

// Append `s` to `out` with each byte `escaped` marks replaced by
// `escape(byte)`: runs of plain bytes are found by one table lookup per
// byte and copied whole. Every escaped byte is ASCII, so span
// boundaries always fall on char boundaries.
fn escape_into(
    s: &str,
    out: &mut String,
    escaped: &[bool; 256],
    mut escape: impl FnMut(u8, &mut [u8; 6]) -> &str,
) {
    let bytes = s.as_bytes();
    let mut buf = [0u8; 6];
    let mut plain = 0;
    while let Some(run) = bytes[plain..].iter().position(|&b| escaped[usize::from(b)]) {
        let at = plain + run;
        out.push_str(&s[plain..at]);
        out.push_str(escape(bytes[at], &mut buf));
        plain = at + 1;
    }
    out.push_str(&s[plain..]);
}

/// Append `s` JSON-escaped (without surrounding quotes) to `out`.
pub fn json_escape_into(s: &str, out: &mut String) {
    escape_into(s, out, &JSON_ESCAPED, |b, buf| match b {
        b'"' => "\\\"",
        b'\\' => "\\\\",
        b'\n' => "\\n",
        b'\r' => "\\r",
        b'\t' => "\\t",
        0x08 => "\\b",
        0x0C => "\\f",
        _ => {
            const HEX: &[u8; 16] = b"0123456789abcdef";
            *buf = [
                b'\\',
                b'u',
                b'0',
                b'0',
                HEX[usize::from(b >> 4)],
                HEX[usize::from(b & 15)],
            ];
            std::str::from_utf8(buf).expect("ASCII")
        }
    });
}

/// `s` as a quoted JSON string.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    json_escape_into(s, &mut out);
    out.push('"');
    out
}

/// Append `s` XML-escaped (text or attribute content) to `out`. A
/// character XML 1.0 cannot carry — a C0 control other than tab,
/// newline and carriage return — is copied as it is, and the result is
/// `false`.
pub fn xml_escape_into(s: &str, out: &mut String) -> bool {
    let mut carried = true;
    escape_into(s, out, &XML_ESCAPED, |b, buf| match b {
        b'&' => "&amp;",
        b'<' => "&lt;",
        b'>' => "&gt;",
        b'"' => "&quot;",
        b'\'' => "&apos;",
        _ => {
            carried = false;
            buf[0] = b;
            std::str::from_utf8(&buf[..1]).expect("ASCII")
        }
    });
    carried
}

// ----------------------------------------------------------------------
// Solution sequences
// ----------------------------------------------------------------------

// What XML 1.0 cannot carry, not even as a character reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Uncarried {
    // A C0 control other than tab, newline and carriage return.
    Control,
    // U+FFFE or U+FFFF.
    Noncharacter,
}

// `s` XML-escaped into `out`, as `xml_escape_into` copies it; the first
// kind of character in it XML 1.0 cannot carry.
fn xml_text_into(s: &str, out: &mut String) -> Option<Uncarried> {
    if !xml_escape_into(s, out) {
        return Some(Uncarried::Control);
    }
    // Both noncharacters encode as EF BF BE / EF BF BF.
    (s.as_bytes().contains(&0xEF) && s.contains(['\u{FFFE}', '\u{FFFF}']))
        .then_some(Uncarried::Noncharacter)
}

// One results document, written solution by solution into a single
// buffer that becomes the response body. Variable names are escaped
// once, when the writer is made. The buffer grows as it is written, so
// its capacity stays within twice the body however uneven the rows.
trait ResultsWriter {
    fn begin_solution(&mut self);
    // Binding `var` to `term`: what `print_binding` prints, appended to
    // the body.
    fn binding(&mut self, var: usize, term: TermRef<'_>);
    // The one term writer: binding `var` to `term`, key and all, into
    // `out`, and the first character the format cannot carry.
    fn print_binding(&self, var: usize, term: TermRef<'_>, out: &mut String) -> Option<Uncarried>;
    // Binding a cell through its column's template: the head, the
    // cell's text escaped, the tail.
    fn cell(&mut self, template: &Template, text: &str) -> Option<Uncarried>;
    // A cell's term held a character the format cannot carry.
    fn uncarried(&mut self, problem: Uncarried, term: TermRef<'_>);
    fn end_solution(&mut self);
    fn finish(self) -> String;
}

// What the term writer prints for every cell of one column and one kind
// (IRI, plain literal, `xsd:integer`, `xsd:boolean` or `xsd:double`)
// around the cell's escaped lexical text: the term writer's own output
// for a cell whose text is `a`, split around the `a`. A cell written
// through it is therefore byte for byte the term writer's output.
struct Template {
    printed: String,
    at: usize,
    // The constants hold a character the format cannot carry.
    uncarried: Option<Uncarried>,
}

impl Template {
    // Print the term of a cell like `like` whose text is `b` into
    // `probe`, then the one whose text is `a`: escaping is per byte and
    // both are plain ASCII, so the two differ in one byte, which is
    // where a cell's text goes.
    fn print<W: ResultsWriter>(
        writer: &W,
        var: usize,
        codec: &Codec<'_>,
        like: &Value,
        probe: &mut String,
        scratch: &mut String,
    ) -> Self {
        const HAS_TERM: &str = "a cell with text has a term";
        probe.clear();
        let term = codec.term_with(like, "b", scratch).expect(HAS_TERM);
        writer.print_binding(var, term, probe);
        let mut printed = String::with_capacity(probe.len());
        let term = codec.term_with(like, "a", scratch).expect(HAS_TERM);
        let uncarried = writer.print_binding(var, term, &mut printed);
        let at = printed
            .bytes()
            .zip(probe.bytes())
            .position(|(a, b)| a != b)
            .expect("the probes differ");
        Template {
            printed,
            at,
            uncarried,
        }
    }

    fn head(&self) -> &str {
        &self.printed[..self.at]
    }

    fn tail(&self) -> &str {
        &self.printed[self.at + 1..]
    }
}

// A column's cells of one kind so far in an answer.
#[derive(Default)]
enum Column {
    #[default]
    Unseen,
    // One, written by the term writer itself: an answer of one row
    // prints no template.
    Once,
    Template(Template),
}

// The two loops feeding a writer: a query's rows, a column's cells of a
// kind written through its template from the second such cell on, and
// owned solutions.
fn write_rows<W: ResultsWriter>(writer: &mut W, rows: &SolutionRows) -> OntoResult<()> {
    let mut columns: Vec<[Column; 4]> = rows.codecs().map(|_| Default::default()).collect();
    let (mut text_buf, mut term_buf, mut probe) = (String::new(), String::new(), String::new());
    for row in rows.rows() {
        writer.begin_solution();
        for (var, (codec, value)) in rows.codecs().zip(row).enumerate() {
            let Some(text) = codec.cell_text(value, &mut text_buf)? else {
                continue;
            };
            let kind = match value {
                Value::Text(_) | Value::Null => 0,
                Value::Int(_) => 1,
                Value::Bool(_) => 2,
                Value::Double(_) => 3,
            };
            let column = &mut columns[var][kind];
            if let Column::Once = column {
                let template =
                    Template::print(writer, var, codec, value, &mut probe, &mut term_buf);
                *column = Column::Template(template);
            }
            let Column::Template(template) = column else {
                *column = Column::Once;
                let term = codec.term_with(value, text, &mut term_buf);
                writer.binding(var, term.expect("a cell with text has a term"));
                continue;
            };
            if let Some(problem) = writer.cell(template, text) {
                if let Some(term) = codec.term_with(value, text, &mut term_buf) {
                    writer.uncarried(problem, term);
                }
            }
        }
        writer.end_solution();
    }
    Ok(())
}

fn write_solutions<W: ResultsWriter>(mut writer: W, solutions: &Solutions) -> String {
    for binding in &solutions.bindings {
        writer.begin_solution();
        for (var, name) in solutions.variables.iter().enumerate() {
            if let Some(term) = binding.get(name) {
                writer.binding(var, term.as_ref());
            }
        }
        writer.end_solution();
    }
    writer.finish()
}

// ----------------------------------------------------------------------
// SPARQL Results JSON (https://www.w3.org/TR/sparql11-results-json/)
// ----------------------------------------------------------------------

// One RDF term as a results-JSON object, keys in fixed order:
// type, value, then xml:lang / datatype.
fn term_to_json(term: TermRef<'_>, out: &mut String) {
    let (kind, value) = match term {
        TermRef::Iri(iri) => ("uri", iri),
        TermRef::Blank(label) => ("bnode", label),
        TermRef::Literal { lexical, .. } => ("literal", lexical),
    };
    out.push_str("{\"type\":\"");
    out.push_str(kind);
    out.push_str("\",\"value\":\"");
    json_escape_into(value, out);
    out.push('"');
    if let TermRef::Literal { kind, .. } = term {
        let qualifier = match kind {
            LiteralKindRef::Plain => None,
            LiteralKindRef::Language(tag) => Some((",\"xml:lang\":\"", tag)),
            LiteralKindRef::Datatype(dt) => Some((",\"datatype\":\"", dt)),
        };
        if let Some((key, value)) = qualifier {
            out.push_str(key);
            json_escape_into(value, out);
            out.push('"');
        }
    }
    out.push('}');
}

struct JsonWriter {
    out: String,
    // `"var":` per variable, escaped.
    keys: Vec<String>,
    first_solution: bool,
    first_binding: bool,
}

impl JsonWriter {
    fn new<'v>(variables: impl Iterator<Item = &'v str> + Clone) -> Self {
        let mut out = String::from("{\"head\":{\"vars\":[");
        for (i, var) in variables.clone().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&json_string(var));
        }
        out.push_str("]},\"results\":{\"bindings\":[");
        JsonWriter {
            out,
            keys: variables.map(|var| json_string(var) + ":").collect(),
            first_solution: true,
            first_binding: true,
        }
    }

    // Bindings of a solution are separated by commas.
    fn separate(&mut self) {
        if !self.first_binding {
            self.out.push(',');
        }
        self.first_binding = false;
    }
}

impl ResultsWriter for JsonWriter {
    fn begin_solution(&mut self) {
        if !self.first_solution {
            self.out.push(',');
        }
        self.first_solution = false;
        self.out.push('{');
        self.first_binding = true;
    }

    fn binding(&mut self, var: usize, term: TermRef<'_>) {
        self.separate();
        self.out.push_str(&self.keys[var]);
        term_to_json(term, &mut self.out);
    }

    fn print_binding(&self, var: usize, term: TermRef<'_>, out: &mut String) -> Option<Uncarried> {
        out.push_str(&self.keys[var]);
        term_to_json(term, out);
        None
    }

    fn cell(&mut self, template: &Template, text: &str) -> Option<Uncarried> {
        self.separate();
        self.out.push_str(template.head());
        json_escape_into(text, &mut self.out);
        self.out.push_str(template.tail());
        None
    }

    // JSON carries every character.
    fn uncarried(&mut self, _: Uncarried, _: TermRef<'_>) {}

    fn end_solution(&mut self) {
        self.out.push('}');
    }

    fn finish(mut self) -> String {
        self.out.push_str("]}}");
        self.out
    }
}

/// A solution sequence as SPARQL JSON results.
pub fn solutions_to_json(solutions: &Solutions) -> String {
    let variables = solutions.variables.iter().map(String::as_str);
    write_solutions(JsonWriter::new(variables), solutions)
}

/// A query's rows as SPARQL JSON results, byte for byte what
/// [`solutions_to_json`] writes for [`SolutionRows::to_solutions`].
/// Fails, before any byte is sent, if a cell renders to an invalid IRI.
pub fn rows_to_json(rows: &SolutionRows) -> OntoResult<String> {
    let mut writer = JsonWriter::new(rows.variables());
    write_rows(&mut writer, rows)?;
    Ok(writer.finish())
}

/// An ASK result as SPARQL JSON results.
pub fn boolean_to_json(value: bool) -> String {
    format!("{{\"head\":{{}},\"boolean\":{value}}}")
}

// ----------------------------------------------------------------------
// SPARQL Results XML (https://www.w3.org/TR/rdf-sparql-XMLres/)
// ----------------------------------------------------------------------

const XML_HEADER: &str = "<?xml version=\"1.0\"?>\n\
     <sparql xmlns=\"http://www.w3.org/2005/sparql-results#\">\n";

// One RDF term as a results-XML element, and the first character in it
// XML cannot carry (copied as it is; see `xml_escape_into`).
fn term_to_xml(term: TermRef<'_>, out: &mut String) -> Option<Uncarried> {
    let mut uncarried = None;
    let mut open_with = |tag: &str, attribute: Option<(&str, &str)>| {
        out.push_str(tag);
        if let Some((name, value)) = attribute {
            out.push(' ');
            out.push_str(name);
            out.push_str("=\"");
            uncarried = uncarried.or(xml_text_into(value, out));
            out.push('"');
        }
        out.push('>');
    };
    let (text, close) = match term {
        TermRef::Iri(iri) => {
            open_with("<uri", None);
            (iri, "</uri>")
        }
        TermRef::Blank(label) => {
            open_with("<bnode", None);
            (label, "</bnode>")
        }
        TermRef::Literal { lexical, kind } => {
            open_with(
                "<literal",
                match kind {
                    LiteralKindRef::Plain => None,
                    LiteralKindRef::Language(tag) => Some(("xml:lang", tag)),
                    LiteralKindRef::Datatype(dt) => Some(("datatype", dt)),
                },
            );
            (lexical, "</literal>")
        }
    };
    uncarried = uncarried.or(xml_text_into(text, out));
    out.push_str(close);
    uncarried
}

struct XmlWriter {
    out: String,
    // `      <binding name="var">` per variable, escaped.
    keys: Vec<String>,
    // The first term XML could not carry, and what it held.
    uncarried: Option<(Uncarried, String)>,
}

impl XmlWriter {
    fn new<'v>(variables: impl Iterator<Item = &'v str> + Clone) -> Self {
        let mut out = String::from(XML_HEADER);
        out.push_str("  <head>\n");
        for var in variables.clone() {
            out.push_str("    <variable name=\"");
            xml_escape_into(var, &mut out);
            out.push_str("\"/>\n");
        }
        out.push_str("  </head>\n  <results>\n");
        let keys = variables
            .map(|var| {
                let mut key = String::from("      <binding name=\"");
                xml_escape_into(var, &mut key);
                key + "\">"
            })
            .collect();
        XmlWriter {
            out,
            keys,
            uncarried: None,
        }
    }
}

impl ResultsWriter for XmlWriter {
    fn begin_solution(&mut self) {
        self.out.push_str("    <result>\n");
    }

    fn binding(&mut self, var: usize, term: TermRef<'_>) {
        self.out.push_str(&self.keys[var]);
        if let Some(problem) = term_to_xml(term, &mut self.out) {
            self.uncarried(problem, term);
        }
        self.out.push_str("</binding>\n");
    }

    fn print_binding(&self, var: usize, term: TermRef<'_>, out: &mut String) -> Option<Uncarried> {
        out.push_str(&self.keys[var]);
        let uncarried = term_to_xml(term, out);
        out.push_str("</binding>\n");
        uncarried
    }

    fn cell(&mut self, template: &Template, text: &str) -> Option<Uncarried> {
        self.out.push_str(template.head());
        let uncarried = xml_text_into(text, &mut self.out).or(template.uncarried);
        self.out.push_str(template.tail());
        uncarried
    }

    fn uncarried(&mut self, problem: Uncarried, term: TermRef<'_>) {
        if self.uncarried.is_none() {
            self.uncarried = Some((problem, term.to_owned().to_string()));
        }
    }

    fn end_solution(&mut self) {
        self.out.push_str("    </result>\n");
    }

    fn finish(mut self) -> String {
        self.out.push_str("  </results>\n</sparql>\n");
        self.out
    }
}

/// A solution sequence as SPARQL XML results. A character XML 1.0
/// cannot carry is copied as it is.
pub fn solutions_to_xml(solutions: &Solutions) -> String {
    let variables = solutions.variables.iter().map(String::as_str);
    write_solutions(XmlWriter::new(variables), solutions)
}

/// A query's rows as SPARQL XML results, byte for byte what
/// [`solutions_to_xml`] writes for [`SolutionRows::to_solutions`].
/// Fails, before any byte is sent, if a cell renders to an invalid IRI.
/// A character XML 1.0 cannot carry is copied as it is; the server
/// sends [`rows_to_well_formed_xml`] instead.
pub fn rows_to_xml(rows: &SolutionRows) -> OntoResult<String> {
    let mut writer = XmlWriter::new(rows.variables());
    write_rows(&mut writer, rows)?;
    Ok(writer.finish())
}

/// [`rows_to_xml`] as the server sends it: also fails, before any byte
/// is sent, if a cell holds a character XML 1.0 cannot carry — a C0
/// control other than tab, newline and carriage return, or one of the
/// noncharacters U+FFFE and U+FFFF — all of which JSON results carry.
pub fn rows_to_well_formed_xml(rows: &SolutionRows) -> OntoResult<String> {
    let mut writer = XmlWriter::new(rows.variables());
    write_rows(&mut writer, rows)?;
    let held = match &writer.uncarried {
        None => return Ok(writer.finish()),
        Some((Uncarried::Control, term)) => {
            format!("{term} holds a control character XML 1.0 cannot carry")
        }
        Some((Uncarried::Noncharacter, term)) => {
            format!("{term} holds the noncharacter U+FFFE or U+FFFF, which XML 1.0 cannot carry")
        }
    };
    Err(OntoError::Unsupported {
        message: format!("{held}; ask for {SPARQL_RESULTS_JSON}"),
    })
}

/// An ASK result as SPARQL XML results.
pub fn boolean_to_xml(value: bool) -> String {
    format!("{XML_HEADER}  <head/>\n  <boolean>{value}</boolean>\n</sparql>\n")
}

// ----------------------------------------------------------------------
// Graph formats
// ----------------------------------------------------------------------

/// A graph as Turtle, using the mediator's prefixes.
pub fn graph_to_turtle(graph: &Graph, prefixes: &PrefixMap) -> String {
    rdf::turtle::write(graph, prefixes)
}

/// A graph as N-Triples.
pub fn graph_to_ntriples(graph: &Graph) -> String {
    rdf::ntriples::write(graph)
}

// ----------------------------------------------------------------------
// Content negotiation
// ----------------------------------------------------------------------

// One entry of an Accept header: type/subtype plus quality.
struct AcceptEntry {
    main: String,
    sub: String,
    q: f64,
    order: usize,
}

fn parse_accept(header: &str) -> Vec<AcceptEntry> {
    let mut entries = Vec::new();
    for (order, part) in header.split(',').enumerate() {
        let mut sections = part.split(';');
        let Some(mime) = sections.next() else {
            continue;
        };
        let mime = mime.trim().to_ascii_lowercase();
        let Some((main, sub)) = mime.split_once('/') else {
            continue;
        };
        let mut q = 1.0;
        for param in sections {
            if let Some((k, v)) = param.split_once('=') {
                if k.trim() == "q" {
                    q = v.trim().parse().unwrap_or(0.0);
                }
            }
        }
        entries.push(AcceptEntry {
            main: main.to_owned(),
            sub: sub.to_owned(),
            q,
            order,
        });
    }
    entries
}

/// Pick the best of `offers` (media types in server preference order)
/// for an `Accept` header. `None` header → the first offer. `Some` with
/// nothing acceptable → `None` (the caller answers 406).
pub fn negotiate<'a>(accept: Option<&str>, offers: &[&'a str]) -> Option<&'a str> {
    let Some(header) = accept else {
        return offers.first().copied();
    };
    let header = header.trim();
    if header.is_empty() {
        return offers.first().copied();
    }
    let entries = parse_accept(header);
    // RFC 9110 §12.5.1: for each offer, its quality is the q of the
    // *most specific* matching media-range (exact > type/* > */*) —
    // so `text/turtle;q=0, */*` really excludes Turtle instead of
    // letting the wildcard's q resurrect it. Among the surviving
    // offers: highest q wins, then higher specificity of the deciding
    // entry, then earlier header position, then server preference.
    let mut best: Option<(&str, f64, u8, usize, usize)> = None;
    for (offer_idx, offer) in offers.iter().enumerate() {
        let (omain, osub) = offer.split_once('/').expect("offers are type/subtype");
        // The most specific entry matching this offer (first one on
        // specificity ties) decides its quality.
        let mut deciding: Option<(u8, f64, usize)> = None;
        for e in &entries {
            let specificity = if e.main == omain && e.sub == osub {
                2
            } else if e.main == omain && e.sub == "*" {
                1
            } else if e.main == "*" && e.sub == "*" {
                0
            } else {
                continue;
            };
            if deciding.is_none_or(|(dspec, ..)| specificity > dspec) {
                deciding = Some((specificity, e.q, e.order));
            }
        }
        let Some((specificity, q, order)) = deciding else {
            continue;
        };
        if q <= 0.0 {
            continue; // explicitly excluded
        }
        let better = match best {
            None => true,
            Some((_, bq, bspec, border, bidx)) => {
                q > bq
                    || (q == bq
                        && (specificity > bspec
                            || (specificity == bspec
                                && (order < border || (order == border && offer_idx < bidx)))))
            }
        };
        if better {
            best = Some((offer, q, specificity, order, offer_idx));
        }
    }
    best.map(|(offer, ..)| offer)
}

/// The media types offered for solution/boolean results, in preference
/// order, with the format each resolves to.
pub fn negotiate_results(accept: Option<&str>) -> Option<(&'static str, ResultsFormat)> {
    let offer = negotiate(
        accept,
        &[
            SPARQL_RESULTS_JSON,
            SPARQL_RESULTS_XML,
            JSON,
            "application/xml",
            "text/xml",
        ],
    )?;
    match offer {
        SPARQL_RESULTS_JSON | JSON => Some((SPARQL_RESULTS_JSON, ResultsFormat::Json)),
        _ => Some((SPARQL_RESULTS_XML, ResultsFormat::Xml)),
    }
}

/// The media types offered for graph responses, in preference order.
pub fn negotiate_graph(accept: Option<&str>) -> Option<(&'static str, GraphFormat)> {
    let offer = negotiate(accept, &[TURTLE, NTRIPLES, "text/plain"])?;
    match offer {
        TURTLE => Some((TURTLE, GraphFormat::Turtle)),
        _ => Some((NTRIPLES, GraphFormat::NTriples)),
    }
}

/// Result serialization picked by negotiation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResultsFormat {
    /// `application/sparql-results+json`.
    Json,
    /// `application/sparql-results+xml`.
    Xml,
}

/// Graph serialization picked by negotiation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphFormat {
    /// `text/turtle`.
    Turtle,
    /// `application/n-triples`.
    NTriples,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn negotiation_prefers_quality_then_header_order() {
        assert_eq!(
            negotiate(
                Some("application/sparql-results+xml;q=0.9, application/sparql-results+json"),
                &[SPARQL_RESULTS_JSON, SPARQL_RESULTS_XML]
            ),
            Some(SPARQL_RESULTS_JSON)
        );
        assert_eq!(
            negotiate(
                Some("application/sparql-results+xml, application/sparql-results+json"),
                &[SPARQL_RESULTS_JSON, SPARQL_RESULTS_XML]
            ),
            Some(SPARQL_RESULTS_XML)
        );
    }

    #[test]
    fn exact_match_beats_wildcard_at_equal_quality() {
        // RFC 9110 §12.5.1: the most specific reference wins, even
        // when a catch-all is listed first.
        assert_eq!(
            negotiate(
                Some("*/*, application/sparql-results+xml"),
                &[SPARQL_RESULTS_JSON, SPARQL_RESULTS_XML]
            ),
            Some(SPARQL_RESULTS_XML)
        );
        assert_eq!(
            negotiate(Some("text/*, application/n-triples"), &[TURTLE, NTRIPLES]),
            Some(NTRIPLES)
        );
    }

    #[test]
    fn explicit_q0_exclusion_is_honored() {
        // The most specific matching range decides an offer's quality:
        // a wildcard must not resurrect an explicitly excluded type.
        assert_eq!(
            negotiate(Some("text/turtle;q=0, */*"), &[TURTLE, NTRIPLES]),
            Some(NTRIPLES)
        );
        assert_eq!(
            negotiate(Some("text/turtle;q=0.1, */*"), &[TURTLE, NTRIPLES]),
            Some(NTRIPLES)
        );
        assert_eq!(
            negotiate(Some("text/turtle;q=0, image/png"), &[TURTLE]),
            None
        );
    }

    #[test]
    fn wildcards_fall_back_to_server_preference() {
        assert_eq!(negotiate(Some("*/*"), &[TURTLE, NTRIPLES]), Some(TURTLE));
        assert_eq!(
            negotiate(Some("application/*"), &[TURTLE, NTRIPLES]),
            Some(NTRIPLES)
        );
        assert_eq!(negotiate(Some("image/png"), &[TURTLE, NTRIPLES]), None);
        assert_eq!(negotiate(None, &[TURTLE, NTRIPLES]), Some(TURTLE));
    }

    #[test]
    fn json_escaping_covers_control_and_quote_chars() {
        assert_eq!(
            json_string("a\"b\\c\nd\te\u{1}"),
            "\"a\\\"b\\\\c\\nd\\te\\u0001\""
        );
    }

    #[test]
    fn boolean_documents() {
        assert_eq!(boolean_to_json(true), "{\"head\":{},\"boolean\":true}");
        assert!(boolean_to_xml(false).contains("<boolean>false</boolean>"));
    }
}
