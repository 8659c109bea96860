//! IRI (Internationalized Resource Identifier) type.
//!
//! OntoAccess uses IRIs in three roles: ontology terms (classes and
//! properties), instance identifiers generated from R3M URI patterns, and
//! datatype IRIs on literals. We validate the small set of syntactic
//! properties the translation algorithms rely on (non-empty, no whitespace
//! or angle brackets, a scheme separator) rather than full RFC 3987.

use std::borrow::Borrow;
use std::fmt;

/// An absolute IRI.
///
/// Stored as the raw string without surrounding angle brackets.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Iri(String);

/// Error produced when a string is not usable as an IRI.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IriParseError {
    /// The offending input (possibly truncated).
    pub input: String,
    /// Human-readable reason.
    pub reason: &'static str,
}

impl fmt::Display for IriParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid IRI {:?}: {}", self.input, self.reason)
    }
}

impl std::error::Error for IriParseError {}

impl Iri {
    /// Parse a string into an [`Iri`], checking the invariants the rest of
    /// the system depends on.
    ///
    /// Accepted IRIs are non-empty, contain no whitespace, `<`, `>`, or
    /// `"`, and contain a `:` (scheme separator). This deliberately admits
    /// `mailto:` and `urn:` style IRIs which the paper's use case relies on
    /// (e.g. `mailto:hert@ifi.uzh.ch` in Listing 9).
    pub fn parse(s: impl Into<String>) -> Result<Self, IriParseError> {
        let s = s.into();
        Iri::check(&s)?;
        Ok(Iri(s))
    }

    /// Check the invariants [`Iri::parse`] enforces without allocating:
    /// serializers validate a generated IRI in their scratch buffer and
    /// write it out borrowed.
    pub fn check(s: &str) -> Result<(), IriParseError> {
        let err = |reason| IriParseError {
            input: truncate(s),
            reason,
        };
        if s.is_empty() {
            return Err(err("empty string"));
        }
        if !Iri::allows(s) {
            return Err(err("contains whitespace or a forbidden character"));
        }
        if !s.contains(':') {
            return Err(err("missing scheme separator ':'"));
        }
        Ok(())
    }

    /// Whether every character of `text` may appear in an IRI — the
    /// per-character half of [`Iri::check`]. The check holds for a
    /// concatenation exactly when it holds for each part, so a renderer
    /// can check a template's constant parts once and each substituted
    /// value as it is written.
    pub fn allows(text: &str) -> bool {
        // One table lookup per byte; only a non-ASCII string pays for
        // decoding, to find non-ASCII whitespace.
        !(text.bytes().any(|b| FORBIDDEN[usize::from(b)])
            || (!text.is_ascii() && text.chars().any(char::is_whitespace)))
    }

    /// Construct an IRI that is statically known to be valid (vocabulary
    /// constants). Panics on invalid input; use [`Iri::parse`] for data.
    pub fn new_unchecked(s: impl Into<String>) -> Self {
        let s = s.into();
        debug_assert!(
            Iri::parse(s.clone()).is_ok(),
            "new_unchecked called with invalid IRI {s:?}"
        );
        Iri(s)
    }

    /// The IRI as a string slice (no angle brackets).
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Consume and return the inner string.
    pub fn into_string(self) -> String {
        self.0
    }

    /// Whether this IRI starts with the given prefix — used when matching
    /// instance IRIs against R3M URI patterns.
    pub fn starts_with(&self, prefix: &str) -> bool {
        self.0.starts_with(prefix)
    }

    /// Local name heuristic: the part after the last `#`, `/`, or `:`.
    /// Used only for human-readable output (feedback documents, tables).
    pub fn local_name(&self) -> &str {
        let s = &self.0;
        let idx = s.rfind(['#', '/']).or_else(|| s.rfind(':'));
        match idx {
            Some(i) if i + 1 < s.len() => &s[i + 1..],
            _ => s,
        }
    }
}

// The ASCII characters an IRI may not contain: whitespace (as
// `char::is_whitespace` defines it) and `<>"{}|\`.
const FORBIDDEN: [bool; 256] = {
    let mut table = [false; 256];
    let listed = b"\t\n\x0b\x0c\r <>\"{}|\\";
    let mut i = 0;
    while i < listed.len() {
        table[listed[i] as usize] = true;
        i += 1;
    }
    table
};

fn truncate(s: &str) -> String {
    const MAX: usize = 64;
    if s.len() <= MAX {
        s.to_owned()
    } else {
        let mut end = MAX;
        while !s.is_char_boundary(end) {
            end -= 1;
        }
        format!("{}…", &s[..end])
    }
}

impl fmt::Display for Iri {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<{}>", self.0)
    }
}

impl AsRef<str> for Iri {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

impl Borrow<str> for Iri {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl std::str::FromStr for Iri {
    type Err = IriParseError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Iri::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_http_iri() {
        let iri = Iri::parse("http://example.org/db/author1").unwrap();
        assert_eq!(iri.as_str(), "http://example.org/db/author1");
    }

    #[test]
    fn parses_mailto_iri() {
        // The paper's Listing 9 uses mailto: IRIs as objects.
        let iri = Iri::parse("mailto:hert@ifi.uzh.ch").unwrap();
        assert_eq!(iri.local_name(), "hert@ifi.uzh.ch");
    }

    #[test]
    fn rejects_empty() {
        assert!(Iri::parse("").is_err());
    }

    #[test]
    fn rejects_whitespace() {
        assert!(Iri::parse("http://example.org/a b").is_err());
    }

    #[test]
    fn rejects_angle_brackets() {
        assert!(Iri::parse("http://example.org/<x>").is_err());
    }

    #[test]
    fn rejects_missing_scheme() {
        assert!(Iri::parse("no-scheme-here").is_err());
    }

    #[test]
    fn local_name_hash() {
        let iri = Iri::parse("http://example.org/ontology#teamCode").unwrap();
        assert_eq!(iri.local_name(), "teamCode");
    }

    #[test]
    fn local_name_slash() {
        let iri = Iri::parse("http://purl.org/dc/elements/1.1/creator").unwrap();
        assert_eq!(iri.local_name(), "creator");
    }

    #[test]
    fn display_wraps_in_angle_brackets() {
        let iri = Iri::parse("http://example.org/x").unwrap();
        assert_eq!(iri.to_string(), "<http://example.org/x>");
    }

    #[test]
    fn check_agrees_with_parse() {
        for s in [
            "http://x.org/a",
            "mailto:a@b",
            "",
            "a b",
            "x:<y>",
            "no-scheme",
        ] {
            assert_eq!(Iri::check(s), Iri::parse(s).map(|_| ()), "{s:?}");
        }
        // Every character below U+3100 (all of ASCII, Latin-1 and the
        // Unicode whitespace block included) is judged as the rule reads.
        for c in (0..0x3100).filter_map(char::from_u32) {
            let rule = c.is_whitespace() || matches!(c, '<' | '>' | '"' | '{' | '}' | '|' | '\\');
            assert_eq!(Iri::check(&format!("x:a{c}b")).is_err(), rule, "{c:?}");
        }
    }

    #[test]
    fn error_truncates_long_input() {
        let long = format!("http://example.org/{}", "a".repeat(200));
        let long_with_space = format!("{long} x");
        let err = Iri::parse(long_with_space).unwrap_err();
        assert!(err.input.len() < 80);
    }
}
