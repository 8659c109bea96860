//! R3M URI patterns (paper §4).
//!
//! A `TableMap` carries a URI pattern such as `author%%id%%`: literal text
//! interleaved with attribute placeholders between double percent signs.
//! The pattern is appended to the mapping-wide URI prefix — or *overrides*
//! it when the pattern itself forms an absolute URI (starts with a
//! scheme). Patterns both **generate** instance URIs from attribute
//! values and **match** incoming URIs back to attribute values (step 2 of
//! Algorithm 1: "the table affected by this group of triples is
//! identified through the URI of their subject").

use std::fmt;

/// One piece of a URI pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Segment {
    /// Literal text.
    Literal(String),
    /// `%%attribute%%` placeholder.
    Attribute(String),
}

/// A parsed URI pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UriPattern {
    source: String,
    segments: Vec<Segment>,
}

/// Error parsing a URI pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatternError {
    /// Explanation.
    pub message: String,
}

impl fmt::Display for PatternError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid URI pattern: {}", self.message)
    }
}

impl std::error::Error for PatternError {}

impl UriPattern {
    /// Parse a pattern like `author%%id%%` or
    /// `http://example.org/db/team%%id%%`.
    pub fn parse(source: &str) -> Result<Self, PatternError> {
        if source.is_empty() {
            return Err(PatternError {
                message: "empty pattern".into(),
            });
        }
        let mut segments = Vec::new();
        let mut rest = source;
        loop {
            match rest.find("%%") {
                None => {
                    if !rest.is_empty() {
                        segments.push(Segment::Literal(rest.to_owned()));
                    }
                    break;
                }
                Some(start) => {
                    if start > 0 {
                        segments.push(Segment::Literal(rest[..start].to_owned()));
                    }
                    let after = &rest[start + 2..];
                    let end = after.find("%%").ok_or_else(|| PatternError {
                        message: format!("unterminated %% placeholder in {source:?}"),
                    })?;
                    let attr = &after[..end];
                    if attr.is_empty() {
                        return Err(PatternError {
                            message: format!("empty attribute placeholder in {source:?}"),
                        });
                    }
                    segments.push(Segment::Attribute(attr.to_owned()));
                    rest = &after[end + 2..];
                }
            }
        }
        // Two adjacent placeholders cannot be matched unambiguously.
        for pair in segments.windows(2) {
            if matches!(pair, [Segment::Attribute(_), Segment::Attribute(_)]) {
                return Err(PatternError {
                    message: format!("adjacent placeholders in {source:?} are ambiguous"),
                });
            }
        }
        Ok(UriPattern {
            source: source.to_owned(),
            segments,
        })
    }

    /// The original pattern text.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// The parsed segments.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Attribute names referenced by the pattern, in order.
    pub fn attributes(&self) -> Vec<&str> {
        self.segments
            .iter()
            .filter_map(|s| match s {
                Segment::Attribute(a) => Some(a.as_str()),
                Segment::Literal(_) => None,
            })
            .collect()
    }

    /// Whether the pattern itself forms an absolute URI (then it
    /// overrides the mapping-wide prefix), per §4: "… or overrides it if
    /// the pattern itself forms a valid URI (i.e., if it starts with
    /// http://, mailto:, etc.)".
    pub fn is_absolute(&self) -> bool {
        let first = match self.segments.first() {
            Some(Segment::Literal(text)) => text,
            _ => return false,
        };
        let Some(colon) = first.find(':') else {
            return false;
        };
        let scheme = &first[..colon];
        !scheme.is_empty()
            && scheme
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphabetic())
            && scheme
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '+' | '-' | '.'))
    }

    /// The full template this pattern expands under `prefix` (prefix is
    /// ignored when the pattern is absolute).
    pub fn effective_template(&self, prefix: Option<&str>) -> String {
        if self.is_absolute() {
            self.source.clone()
        } else {
            format!("{}{}", prefix.unwrap_or(""), self.source)
        }
    }

    /// Generate a URI string by substituting attribute values.
    /// `lookup` maps an attribute name to its rendered value — a `Cow`
    /// so values materialized out of the string dictionary are borrowed
    /// rather than cloned per substitution.
    pub fn generate(
        &self,
        prefix: Option<&str>,
        lookup: &dyn Fn(&str) -> Option<std::borrow::Cow<'static, str>>,
    ) -> Result<String, PatternError> {
        let mut out = String::new();
        self.generate_into(prefix, &mut out, |attr, out| match lookup(attr) {
            Some(value) => {
                out.push_str(&value);
                true
            }
            None => false,
        })?;
        Ok(out)
    }

    /// [`UriPattern::generate`] appending to `out`: `write_value` appends
    /// the named attribute's rendered value and returns whether it has
    /// one. Query serialization expands every result IRI into one reused
    /// buffer this way, rendering numeric keys in place (generic, so the
    /// per-cell rendering inlines).
    pub fn generate_into(
        &self,
        prefix: Option<&str>,
        out: &mut String,
        mut write_value: impl FnMut(&str, &mut String) -> bool,
    ) -> Result<(), PatternError> {
        if !self.is_absolute() {
            out.push_str(prefix.unwrap_or(""));
        }
        for segment in &self.segments {
            match segment {
                Segment::Literal(text) => out.push_str(text),
                Segment::Attribute(attr) => {
                    if !write_value(attr, out) {
                        return Err(PatternError {
                            message: format!("no value for pattern attribute {attr:?}"),
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// Match a URI against this pattern under `prefix`, extracting
    /// `(attribute, value)` pairs borrowed from the pattern and the URI.
    /// Returns `None` when the URI does not fit the pattern.
    ///
    /// Placeholder matches are non-greedy up to the next literal segment;
    /// a trailing placeholder consumes the remainder.
    pub fn match_uri<'p, 'u>(
        &'p self,
        prefix: Option<&str>,
        uri: &'u str,
    ) -> Option<Vec<(&'p str, &'u str)>> {
        let mut rest = uri;
        if !self.is_absolute() {
            rest = rest.strip_prefix(prefix.unwrap_or(""))?;
        }
        let mut values = Vec::new();
        let mut i = 0;
        while i < self.segments.len() {
            match &self.segments[i] {
                Segment::Literal(text) => {
                    rest = rest.strip_prefix(text.as_str())?;
                    i += 1;
                }
                Segment::Attribute(attr) => {
                    // Find the next literal segment to delimit the value.
                    let delimiter = self.segments.get(i + 1).map(|s| match s {
                        Segment::Literal(text) => text.as_str(),
                        Segment::Attribute(_) => unreachable!("no adjacent placeholders"),
                    });
                    let value = match delimiter {
                        Some(delim) => {
                            let end = rest.find(delim)?;
                            let v = &rest[..end];
                            rest = &rest[end..];
                            v
                        }
                        None => {
                            let v = rest;
                            rest = "";
                            v
                        }
                    };
                    if value.is_empty() {
                        return None;
                    }
                    values.push((attr.as_str(), value));
                    i += 1;
                }
            }
        }
        if rest.is_empty() {
            Some(values)
        } else {
            None
        }
    }
}

impl fmt::Display for UriPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.source)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PREFIX: &str = "http://example.org/db/";

    fn pattern(s: &str) -> UriPattern {
        UriPattern::parse(s).unwrap()
    }

    #[test]
    fn parse_paper_pattern() {
        let p = pattern("author%%id%%");
        assert_eq!(
            p.segments(),
            &[
                Segment::Literal("author".into()),
                Segment::Attribute("id".into())
            ]
        );
        assert_eq!(p.attributes(), vec!["id"]);
        assert!(!p.is_absolute());
    }

    #[test]
    fn generate_matches_paper_example() {
        let p = pattern("author%%id%%");
        let uri = p
            .generate(Some(PREFIX), &|attr| (attr == "id").then(|| "6".into()))
            .unwrap();
        assert_eq!(uri, "http://example.org/db/author6");
    }

    #[test]
    fn match_extracts_pk_value() {
        // Algorithm 1's example: author1 → table author, id = 1.
        let p = pattern("author%%id%%");
        let values = p
            .match_uri(Some(PREFIX), "http://example.org/db/author1")
            .unwrap();
        assert_eq!(values, vec![("id", "1")]);
    }

    #[test]
    fn mismatched_uri_is_none() {
        let p = pattern("author%%id%%");
        assert_eq!(
            p.match_uri(Some(PREFIX), "http://example.org/db/team1"),
            None
        );
        assert_eq!(
            p.match_uri(Some(PREFIX), "http://other.org/db/author1"),
            None
        );
        assert_eq!(
            p.match_uri(Some(PREFIX), "http://example.org/db/author"),
            None
        );
    }

    #[test]
    fn absolute_pattern_overrides_prefix() {
        let p = pattern("http://other.org/team%%id%%");
        assert!(p.is_absolute());
        let uri = p.generate(Some(PREFIX), &|_| Some("4".into())).unwrap();
        assert_eq!(uri, "http://other.org/team4");
        assert!(p
            .match_uri(Some(PREFIX), "http://other.org/team4")
            .is_some());
    }

    #[test]
    fn mailto_pattern_is_absolute() {
        assert!(pattern("mailto:%%email%%").is_absolute());
    }

    #[test]
    fn multi_attribute_pattern() {
        let p = pattern("pub%%publication%%-a%%author%%");
        let uri = p
            .generate(Some(PREFIX), &|attr| match attr {
                "publication" => Some("12".into()),
                "author" => Some("6".into()),
                _ => None,
            })
            .unwrap();
        assert_eq!(uri, "http://example.org/db/pub12-a6");
        let values = p.match_uri(Some(PREFIX), &uri).unwrap();
        assert_eq!(values, vec![("publication", "12"), ("author", "6")]);
    }

    #[test]
    fn round_trip_property() {
        let p = pattern("team%%id%%");
        for id in ["1", "42", "999"] {
            let uri = p
                .generate(Some(PREFIX), &|_| Some(id.to_owned().into()))
                .unwrap();
            let values = p.match_uri(Some(PREFIX), &uri).unwrap();
            assert_eq!(values, vec![("id", id)]);
        }
    }

    #[test]
    fn rejects_unterminated_placeholder() {
        assert!(UriPattern::parse("author%%id").is_err());
    }

    #[test]
    fn rejects_empty_placeholder() {
        assert!(UriPattern::parse("author%%%%").is_err());
    }

    #[test]
    fn rejects_adjacent_placeholders() {
        assert!(UriPattern::parse("%%a%%%%b%%").is_err());
    }

    #[test]
    fn rejects_empty_pattern() {
        assert!(UriPattern::parse("").is_err());
    }

    #[test]
    fn generate_fails_on_missing_value() {
        let p = pattern("author%%id%%");
        assert!(p.generate(Some(PREFIX), &|_| None).is_err());
    }

    #[test]
    fn empty_captured_value_rejected_on_match() {
        let p = pattern("a%%x%%b");
        assert_eq!(p.match_uri(Some(""), "ab"), None);
        assert!(p.match_uri(Some(""), "a1b").is_some());
    }

    #[test]
    fn effective_template() {
        assert_eq!(
            pattern("author%%id%%").effective_template(Some(PREFIX)),
            "http://example.org/db/author%%id%%"
        );
        assert_eq!(
            pattern("http://x.org/%%id%%").effective_template(Some(PREFIX)),
            "http://x.org/%%id%%"
        );
    }
}
