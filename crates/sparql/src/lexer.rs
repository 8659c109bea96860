//! Tokenizer for SPARQL queries and SPARQL/Update operations.
//!
//! Tokens borrow their text from the input: names, IRIs, language tags
//! and numbers are slices of it, and a string literal is a slice unless
//! it contains an escape, in which case it owns its unescaped text. The
//! parser pulls one token at a time ([`Lexer::next_token`]), so a
//! request is never held as a token vector. ASCII is scanned byte by
//! byte; only a non-ASCII byte is decoded, to classify its character.
//!
//! The main subtlety over the Turtle lexer is `<`: it opens an IRI
//! reference (`<http://…>`) but is also the less-than operator inside
//! `FILTER`. An IRI reference is recognized when a `>` appears before
//! any whitespace; otherwise `<` lexes as an operator. The lexer keeps
//! where its last such look-ahead stopped, and every `<` before that
//! point stops at the same byte, so a run of `<` is decided in one pass.

use std::borrow::Cow;
use std::fmt;

/// A token with its 1-based source position (the column counts
/// characters, not bytes).
#[derive(Debug, Clone, PartialEq)]
pub struct Token<'a> {
    /// Payload.
    pub kind: TokenKind<'a>,
    /// Line.
    pub line: usize,
    /// Column.
    pub column: usize,
}

/// SPARQL token kinds; the text is borrowed from the input.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind<'a> {
    /// Bare word: keyword (`SELECT`, `INSERT`, …), `a`, or boolean.
    Word(&'a str),
    /// `?name` or `$name`.
    Variable(&'a str),
    /// `<…>` IRI reference.
    IriRef(&'a str),
    /// `prefix:local`.
    PrefixedName {
        /// Namespace prefix.
        prefix: &'a str,
        /// Local part.
        local: &'a str,
    },
    /// `_:label`.
    BlankNodeLabel(&'a str),
    /// String literal content, unescaped (borrowed when it had no
    /// escape).
    StringLiteral(Cow<'a, str>),
    /// `@lang`.
    LangTag(&'a str),
    /// Integer literal.
    Integer(i64),
    /// Decimal literal (lexical form preserved).
    Decimal(&'a str),
    /// `^^`.
    DatatypeMarker,
    /// Punctuation and operators: `{ } ( ) . ; , * = != < <= > >= && || !`.
    Punct(&'static str),
    /// End of input.
    Eof,
}

impl fmt::Display for TokenKind<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Word(w) => write!(f, "{w}"),
            TokenKind::Variable(v) => write!(f, "?{v}"),
            TokenKind::IriRef(iri) => write!(f, "<{iri}>"),
            TokenKind::PrefixedName { prefix, local } => write!(f, "{prefix}:{local}"),
            TokenKind::BlankNodeLabel(l) => write!(f, "_:{l}"),
            TokenKind::StringLiteral(s) => write!(f, "\"{s}\""),
            TokenKind::LangTag(t) => write!(f, "@{t}"),
            TokenKind::Integer(i) => write!(f, "{i}"),
            TokenKind::Decimal(d) => write!(f, "{d}"),
            TokenKind::DatatypeMarker => write!(f, "^^"),
            TokenKind::Punct(p) => write!(f, "{p}"),
            TokenKind::Eof => write!(f, "<eof>"),
        }
    }
}

/// Lexer error with position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexError {
    /// What went wrong.
    pub message: String,
    /// Line.
    pub line: usize,
    /// Column.
    pub column: usize,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {}", self.line, self.column, self.message)
    }
}

impl std::error::Error for LexError {}

/// A pull tokenizer over one SPARQL document.
#[derive(Debug)]
pub struct Lexer<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
    line: usize,
    column: usize,
    // Where the last `<` look-ahead stopped: the first `>` or ASCII
    // whitespace after that `<`, or the end of input. A later `<` in
    // front of it would stop at the same byte.
    lt_stop: usize,
}

impl<'a> Lexer<'a> {
    /// A lexer at the start of `input`.
    pub fn new(input: &'a str) -> Self {
        Lexer {
            input,
            bytes: input.as_bytes(),
            pos: 0,
            line: 1,
            column: 1,
            lt_stop: 0,
        }
    }

    /// The next token; [`TokenKind::Eof`] at (and after) the end.
    pub fn next_token(&mut self) -> Result<Token<'a>, LexError> {
        self.skip_trivia();
        let (line, column, start) = (self.line, self.column, self.pos);
        let Some(&b) = self.bytes.get(start) else {
            return Ok(Token {
                kind: TokenKind::Eof,
                line,
                column,
            });
        };
        let kind = match b {
            b'{' | b'}' | b'(' | b')' | b'.' | b';' | b',' | b'*' | b'=' => {
                // '.' may begin a decimal — not in our fragment; treat as punct.
                self.bump_ascii();
                TokenKind::Punct(match b {
                    b'{' => "{",
                    b'}' => "}",
                    b'(' => "(",
                    b')' => ")",
                    b'.' => ".",
                    b';' => ";",
                    b',' => ",",
                    b'*' => "*",
                    _ => "=",
                })
            }
            b'!' => {
                self.bump_ascii();
                TokenKind::Punct(if self.eat(b'=') { "!=" } else { "!" })
            }
            b'&' => {
                self.bump_ascii();
                if !self.eat(b'&') {
                    return Err(self.error("single '&' (expected '&&')"));
                }
                TokenKind::Punct("&&")
            }
            b'|' => {
                self.bump_ascii();
                if !self.eat(b'|') {
                    return Err(self.error("single '|' (expected '||')"));
                }
                TokenKind::Punct("||")
            }
            b'<' if self.lt_is_iri() => {
                let end = self.lt_stop;
                self.advance_to(end + 1);
                TokenKind::IriRef(&self.input[start + 1..end])
            }
            b'<' => {
                self.bump_ascii();
                TokenKind::Punct(if self.eat(b'=') { "<=" } else { "<" })
            }
            b'>' => {
                self.bump_ascii();
                TokenKind::Punct(if self.eat(b'=') { ">=" } else { ">" })
            }
            b'?' | b'$' => {
                self.bump_ascii();
                let name = self.read_name();
                if name.is_empty() {
                    return Err(self.error("empty variable name"));
                }
                TokenKind::Variable(name)
            }
            b'"' => {
                self.bump_ascii();
                TokenKind::StringLiteral(self.read_string()?)
            }
            b'@' => {
                self.bump_ascii();
                let tag = self.take_ascii_while(|b| b.is_ascii_alphanumeric() || b == b'-');
                if tag.is_empty() {
                    return Err(self.error("'@' not followed by a language tag"));
                }
                TokenKind::LangTag(tag)
            }
            b'^' => {
                self.bump_ascii();
                if !self.eat(b'^') {
                    return Err(self.error("single '^' (expected '^^')"));
                }
                TokenKind::DatatypeMarker
            }
            b'_' if self.bytes.get(start + 1) == Some(&b':') => {
                self.advance_to(start + 2);
                let label = self.read_name();
                if label.is_empty() {
                    return Err(self.error("empty blank node label"));
                }
                TokenKind::BlankNodeLabel(label)
            }
            b'+' | b'-' | b'0'..=b'9' => self.read_number()?,
            b':' => {
                self.bump_ascii();
                TokenKind::PrefixedName {
                    prefix: "",
                    local: self.read_name(),
                }
            }
            b'_' | b'a'..=b'z' | b'A'..=b'Z' => self.read_word(),
            _ => match self.peek_char() {
                Some(c) if c.is_alphabetic() => self.read_word(),
                Some(other) => return Err(self.error(format!("unexpected character {other:?}"))),
                None => unreachable!("a byte is at `start`"),
            },
        };
        Ok(Token { kind, line, column })
    }

    // The character at the current position.
    fn peek_char(&self) -> Option<char> {
        match self.bytes.get(self.pos) {
            Some(&b) if b.is_ascii() => Some(char::from(b)),
            Some(_) => self.input[self.pos..].chars().next(),
            None => None,
        }
    }

    // Step over one ASCII character other than '\n'.
    fn bump_ascii(&mut self) {
        self.pos += 1;
        self.column += 1;
    }

    // Step over `b` if it is next.
    fn eat(&mut self, b: u8) -> bool {
        let next = self.bytes.get(self.pos) == Some(&b);
        if next {
            self.bump_ascii();
        }
        next
    }

    // Move to byte offset `end` over a run without '\n', counting its
    // characters (every byte but a UTF-8 continuation byte starts one).
    fn advance_to(&mut self, end: usize) {
        self.column += self.bytes[self.pos..end]
            .iter()
            .filter(|&&b| (b as i8) >= -0x40)
            .count();
        self.pos = end;
    }

    fn error(&self, message: impl Into<String>) -> LexError {
        LexError {
            message: message.into(),
            line: self.line,
            column: self.column,
        }
    }

    fn skip_trivia(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'\n' => {
                    self.pos += 1;
                    self.line += 1;
                    self.column = 1;
                }
                b' ' | b'\t' | b'\r' | 0x0b | 0x0c => self.bump_ascii(),
                b'#' => {
                    // The comment runs to the newline, which the loop
                    // then consumes.
                    let end = self.bytes[self.pos..]
                        .iter()
                        .position(|&b| b == b'\n')
                        .map_or(self.bytes.len(), |i| self.pos + i);
                    self.advance_to(end);
                }
                b if b.is_ascii() => return,
                _ => match self.peek_char() {
                    Some(c) if c.is_whitespace() => {
                        self.pos += c.len_utf8();
                        self.column += 1;
                    }
                    _ => return,
                },
            }
        }
    }

    // Whether `<` at the current position opens an IRI reference: a
    // `>` occurs before any ASCII whitespace. Each byte after a `<` is
    // scanned at most once over the whole input.
    fn lt_is_iri(&mut self) -> bool {
        let from = self.pos + 1;
        if from > self.lt_stop {
            self.lt_stop = self.bytes[from..]
                .iter()
                .position(|&b| b == b'>' || b.is_ascii_whitespace())
                .map_or(self.bytes.len(), |i| from + i);
        }
        self.bytes.get(self.lt_stop) == Some(&b'>')
    }

    // A run of ASCII bytes satisfying `keep`.
    fn take_ascii_while(&mut self, keep: impl Fn(u8) -> bool) -> &'a str {
        let start = self.pos;
        let len = self.bytes[start..]
            .iter()
            .position(|&b| !keep(b))
            .unwrap_or(self.bytes.len() - start);
        self.pos += len;
        self.column += len;
        &self.input[start..self.pos]
    }

    // Letters, digits, '_' and '-' (any alphanumeric character).
    fn read_name(&mut self) -> &'a str {
        let start = self.pos;
        loop {
            self.take_ascii_while(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-');
            match self.peek_char() {
                Some(c) if !c.is_ascii() && c.is_alphanumeric() => {
                    self.pos += c.len_utf8();
                    self.column += 1;
                }
                _ => return &self.input[start..self.pos],
            }
        }
    }

    // A bare word, or `prefix:local` when a ':' follows the name.
    fn read_word(&mut self) -> TokenKind<'a> {
        let first = self.read_name();
        if self.eat(b':') {
            TokenKind::PrefixedName {
                prefix: first,
                local: self.read_name(),
            }
        } else {
            TokenKind::Word(first)
        }
    }

    // [+-]? digits ('.' digits)? — all ASCII.
    fn read_number(&mut self) -> Result<TokenKind<'a>, LexError> {
        let start = self.pos;
        let mut end = start;
        if matches!(self.bytes[end], b'+' | b'-') {
            end += 1;
        }
        let mut is_decimal = false;
        while let Some(&b) = self.bytes.get(end) {
            if b.is_ascii_digit() {
                end += 1;
            } else if b == b'.'
                && !is_decimal
                && self.bytes.get(end + 1).is_some_and(u8::is_ascii_digit)
            {
                is_decimal = true;
                end += 1;
            } else {
                break;
            }
        }
        self.advance_to(end);
        let num = &self.input[start..end];
        if is_decimal {
            return Ok(TokenKind::Decimal(num));
        }
        num.parse()
            .map(TokenKind::Integer)
            .map_err(|_| self.error(format!("invalid integer {num:?}")))
    }

    // The rest of a `"…"` literal after its opening quote. Text without
    // an escape is returned borrowed; the first escape switches to an
    // owned copy that the remaining runs and escapes are appended to.
    fn read_string(&mut self) -> Result<Cow<'a, str>, LexError> {
        let start = self.pos;
        let mut owned: Option<String> = None;
        loop {
            let run = self.pos;
            let end = self.bytes[run..]
                .iter()
                .position(|&b| matches!(b, b'"' | b'\\' | b'\n'))
                .map_or(self.bytes.len(), |i| run + i);
            self.advance_to(end);
            if let Some(out) = &mut owned {
                out.push_str(&self.input[run..end]);
            }
            match self.bytes.get(end) {
                None => return Err(self.error("unterminated string literal")),
                Some(b'\n') => {
                    self.pos += 1;
                    self.line += 1;
                    self.column = 1;
                    return Err(self.error("newline in string literal"));
                }
                Some(b'"') => {
                    self.bump_ascii();
                    return Ok(match owned {
                        Some(out) => Cow::Owned(out),
                        None => Cow::Borrowed(&self.input[start..end]),
                    });
                }
                Some(_) => {
                    let out = owned.get_or_insert_with(|| self.input[start..end].to_owned());
                    out.push(self.read_escape()?);
                }
            }
        }
    }

    // One escape sequence at the current '\': a SPARQL 1.1 ECHAR
    // (`\t \b \n \r \f \" \' \\`) or a code point (`\uXXXX`,
    // `\UXXXXXXXX`). A malformed code point is reported at its '\'.
    fn read_escape(&mut self) -> Result<char, LexError> {
        let (line, column) = (self.line, self.column);
        self.bump_ascii();
        let Some(c) = self.peek_char() else {
            return Err(self.error("unterminated escape"));
        };
        let simple = match c {
            't' => Some('\t'),
            'b' => Some('\u{8}'),
            'n' => Some('\n'),
            'r' => Some('\r'),
            'f' => Some('\u{c}'),
            '"' => Some('"'),
            '\'' => Some('\''),
            '\\' => Some('\\'),
            'u' | 'U' => None,
            other => {
                self.pos += other.len_utf8();
                if other == '\n' {
                    self.line += 1;
                    self.column = 1;
                } else {
                    self.column += 1;
                }
                return Err(self.error(format!("unknown escape '\\{other}'")));
            }
        };
        self.bump_ascii();
        if let Some(simple) = simple {
            return Ok(simple);
        }
        let digits = if c == 'u' { 4 } else { 8 };
        let fail = |message: String| LexError {
            message,
            line,
            column,
        };
        let hex = self
            .bytes
            .get(self.pos..self.pos + digits)
            .filter(|hex| hex.iter().all(u8::is_ascii_hexdigit))
            .ok_or_else(|| fail(format!("'\\{c}' needs {digits} hex digits")))?;
        let code = hex.iter().fold(0u32, |code, &h| {
            code << 4 | char::from(h).to_digit(16).unwrap_or(0)
        });
        let scalar = char::from_u32(code).ok_or_else(|| {
            fail(format!(
                "'\\{c}{code:0digits$X}' is not a Unicode scalar value"
            ))
        })?;
        self.pos += digits;
        self.column += digits;
        Ok(scalar)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    fn tokenize(input: &str) -> Result<Vec<Token<'_>>, LexError> {
        let mut lexer = Lexer::new(input);
        let mut tokens = Vec::new();
        loop {
            let token = lexer.next_token()?;
            let eof = token.kind == TokenKind::Eof;
            tokens.push(token);
            if eof {
                return Ok(tokens);
            }
        }
    }

    fn kinds(input: &str) -> Vec<TokenKind<'_>> {
        tokenize(input)
            .unwrap()
            .into_iter()
            .map(|t| t.kind)
            .collect()
    }

    fn string(input: &str) -> Cow<'_, str> {
        match kinds(input).remove(0) {
            TokenKind::StringLiteral(s) => s,
            other => panic!("{input:?} lexed as {other:?}"),
        }
    }

    #[test]
    fn variables_both_sigils() {
        assert_eq!(
            kinds("?x $y"),
            vec![
                TokenKind::Variable("x"),
                TokenKind::Variable("y"),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn iri_vs_less_than() {
        assert_eq!(
            kinds("<http://example.org/x>"),
            vec![TokenKind::IriRef("http://example.org/x"), TokenKind::Eof]
        );
        assert_eq!(
            kinds("?year < 2009"),
            vec![
                TokenKind::Variable("year"),
                TokenKind::Punct("<"),
                TokenKind::Integer(2009),
                TokenKind::Eof
            ]
        );
        assert_eq!(
            kinds("?year <= 2009"),
            vec![
                TokenKind::Variable("year"),
                TokenKind::Punct("<="),
                TokenKind::Integer(2009),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn remembered_lookahead_classifies_like_a_fresh_scan() {
        // Every `<` of a run decides as a scan from it would: an IRI
        // when a `>` comes before whitespace.
        assert_eq!(
            kinds("<<a> < <b>"),
            vec![
                TokenKind::IriRef("<a"),
                TokenKind::Punct("<"),
                TokenKind::IriRef("b"),
                TokenKind::Eof
            ]
        );
        assert_eq!(
            kinds("<< <"),
            vec![
                TokenKind::Punct("<"),
                TokenKind::Punct("<"),
                TokenKind::Punct("<"),
                TokenKind::Eof
            ]
        );
        assert_eq!(
            kinds("?a<?b>"),
            vec![
                TokenKind::Variable("a"),
                TokenKind::IriRef("?b"),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn a_mebibyte_of_less_than_lexes_in_linear_time() {
        let input = "<".repeat(1 << 20);
        let started = Instant::now();
        let mut lexer = Lexer::new(&input);
        let mut count = 0usize;
        while lexer.next_token().unwrap().kind != TokenKind::Eof {
            count += 1;
        }
        assert_eq!(count, 1 << 20);
        // A quadratic scan needs hours here; a linear one milliseconds
        // (seconds in an unoptimized build on a loaded machine).
        assert!(started.elapsed() < Duration::from_secs(30));
    }

    #[test]
    fn filter_operators() {
        assert_eq!(
            kinds("!= && || ! = >="),
            vec![
                TokenKind::Punct("!="),
                TokenKind::Punct("&&"),
                TokenKind::Punct("||"),
                TokenKind::Punct("!"),
                TokenKind::Punct("="),
                TokenKind::Punct(">="),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn keywords_are_words() {
        assert_eq!(
            kinds("INSERT DATA"),
            vec![
                TokenKind::Word("INSERT"),
                TokenKind::Word("DATA"),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn prefixed_names_and_braces() {
        assert_eq!(
            kinds("{ ex:author6 foaf:mbox <mailto:x@y.ch> . }"),
            vec![
                TokenKind::Punct("{"),
                TokenKind::PrefixedName {
                    prefix: "ex",
                    local: "author6"
                },
                TokenKind::PrefixedName {
                    prefix: "foaf",
                    local: "mbox"
                },
                TokenKind::IriRef("mailto:x@y.ch"),
                TokenKind::Punct("."),
                TokenKind::Punct("}"),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn string_with_lang_and_datatype() {
        assert_eq!(
            kinds("\"2009\"^^xsd:integer \"hi\"@en"),
            vec![
                TokenKind::StringLiteral("2009".into()),
                TokenKind::DatatypeMarker,
                TokenKind::PrefixedName {
                    prefix: "xsd",
                    local: "integer"
                },
                TokenKind::StringLiteral("hi".into()),
                TokenKind::LangTag("en"),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn strings_without_escapes_are_borrowed() {
        assert!(matches!(string("\"Zürich\""), Cow::Borrowed("Zürich")));
        assert!(matches!(string("\"O\\'Brien\""), Cow::Owned(_)));
    }

    #[test]
    fn every_echar_unescapes() {
        for (escape, expected) in [
            ("\\t", "\t"),
            ("\\b", "\u{8}"),
            ("\\n", "\n"),
            ("\\r", "\r"),
            ("\\f", "\u{c}"),
            ("\\\"", "\""),
            ("\\'", "'"),
            ("\\\\", "\\"),
        ] {
            let input = format!("\"a{escape}z\"");
            assert_eq!(string(&input), format!("a{expected}z"), "{input}");
        }
        assert_eq!(string("\"O\\'Brien\""), "O'Brien");
    }

    #[test]
    fn code_point_escapes_unescape() {
        assert_eq!(string("\"caf\\u00E9\""), "café");
        assert_eq!(string("\"\\u00e9\\u0022\""), "é\"");
        assert_eq!(string("\"\\U0001F600!\""), "😀!");
    }

    #[test]
    fn bad_code_points_are_errors_at_the_escape() {
        for (input, column, needle) in [
            ("\"ab\\uD800\"", 4, "not a Unicode scalar value"),
            ("\"ab\\U00110000\"", 4, "not a Unicode scalar value"),
            ("\"ab\\u12G4\"", 4, "needs 4 hex digits"),
            ("\"ab\\U0001F60\"", 4, "needs 8 hex digits"),
            ("\"ab\\u12", 4, "needs 4 hex digits"),
        ] {
            let err = tokenize(input).unwrap_err();
            assert_eq!((err.line, err.column), (1, column), "{input}: {err}");
            assert!(err.message.contains(needle), "{input}: {err}");
        }
    }

    #[test]
    fn unknown_escape_and_newline_are_errors() {
        let err = tokenize("\"a\\qz\"").unwrap_err();
        assert_eq!((err.line, err.column), (1, 5));
        assert!(err.message.contains("unknown escape"));
        let err = tokenize("\"ab\ncd\"").unwrap_err();
        assert_eq!((err.line, err.column), (2, 1));
        assert!(err.message.contains("newline"));
    }

    #[test]
    fn blank_node() {
        assert_eq!(
            kinds("_:b1"),
            vec![TokenKind::BlankNodeLabel("b1"), TokenKind::Eof]
        );
    }

    #[test]
    fn comments_skipped() {
        assert_eq!(
            kinds("# hi\n42"),
            vec![TokenKind::Integer(42), TokenKind::Eof]
        );
    }

    #[test]
    fn empty_default_prefix() {
        assert_eq!(
            kinds(":local"),
            vec![
                TokenKind::PrefixedName {
                    prefix: "",
                    local: "local"
                },
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn position_tracking() {
        let err = tokenize("\n  %").unwrap_err();
        assert_eq!((err.line, err.column), (2, 3));
    }

    #[test]
    fn columns_count_characters() {
        // Non-ASCII names, strings, IRIs, comments and whitespace each
        // advance the column by one per character.
        let tokens = tokenize("é\u{a0}\"ü\" <ü> #ö\n  ?ß").unwrap();
        let positions: Vec<(usize, usize)> = tokens.iter().map(|t| (t.line, t.column)).collect();
        assert_eq!(positions, vec![(1, 1), (1, 3), (1, 7), (2, 3), (2, 5)]);
    }

    #[test]
    fn negative_integer() {
        assert_eq!(kinds("-5"), vec![TokenKind::Integer(-5), TokenKind::Eof]);
    }

    #[test]
    fn decimal() {
        assert_eq!(
            kinds("3.14"),
            vec![TokenKind::Decimal("3.14"), TokenKind::Eof]
        );
    }
}
