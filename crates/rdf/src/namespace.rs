//! Well-known vocabularies and prefix management.
//!
//! The paper's domain ontology (Figure 2) reuses FOAF and Dublin Core and
//! adds its own `ont:` terms; R3M itself is an RDF vocabulary (`r3m:`).
//! Vocabulary functions intentionally keep the original term spelling
//! (e.g. `foaf::family_name`, `r3m::hasTableName`), hence the pervasive
//! `non_snake_case` allowance.

use crate::iri::Iri;
use std::collections::BTreeMap;
use std::sync::Arc;

macro_rules! vocabulary {
    ($(#[$doc:meta])* $mod_name:ident, $base:expr, [$($term:ident),* $(,)?]) => {
        $(#[$doc])*
        #[allow(non_snake_case)]
        pub mod $mod_name {
            use crate::iri::Iri;

            /// Namespace IRI prefix of this vocabulary.
            pub const NS: &str = $base;

            $(
                /// Vocabulary term `
                #[doc = stringify!($term)]
                /// `.
                pub fn $term() -> Iri {
                    Iri::new_unchecked(concat!($base, stringify!($term)))
                }
            )*
        }
    };
}

vocabulary!(
    /// RDF core vocabulary.
    rdf,
    "http://www.w3.org/1999/02/22-rdf-syntax-ns#",
    [Property, first, rest, nil]
);

/// The `rdf:type` IRI as a string: compare a predicate against it with
/// `iri.as_str() == RDF_TYPE`, which allocates nothing.
pub const RDF_TYPE: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type";

/// `rdf:type` — cannot be generated by the macro because `type` is a
/// Rust keyword.
pub fn rdf_type() -> Iri {
    Iri::new_unchecked(RDF_TYPE)
}

vocabulary!(
    /// RDF Schema vocabulary.
    rdfs,
    "http://www.w3.org/2000/01/rdf-schema#",
    [Class, label, comment, domain, range, subClassOf, subPropertyOf]
);

vocabulary!(
    /// OWL vocabulary (Figure 2 roots the class hierarchy at `owl:Thing`).
    owl,
    "http://www.w3.org/2002/07/owl#",
    [Thing, Class, ObjectProperty, DatatypeProperty]
);

vocabulary!(
    /// XML Schema datatypes.
    xsd,
    "http://www.w3.org/2001/XMLSchema#",
    [
        string, boolean, decimal, float, double, integer, int, long, short,
        byte, nonNegativeInteger, positiveInteger, negativeInteger,
        nonPositiveInteger, unsignedInt, unsignedLong, date, dateTime,
    ]
);

/// Whether `dt` is one of the XSD integer-valued datatypes.
pub fn xsd_is_integer(dt: &Iri) -> bool {
    matches!(
        dt.as_str().strip_prefix(xsd::NS),
        Some(
            "integer"
                | "int"
                | "long"
                | "short"
                | "byte"
                | "nonNegativeInteger"
                | "positiveInteger"
                | "negativeInteger"
                | "nonPositiveInteger"
                | "unsignedInt"
                | "unsignedLong"
        )
    )
}

vocabulary!(
    /// Friend of a Friend vocabulary (subset used by Figure 2).
    foaf,
    "http://xmlns.com/foaf/0.1/",
    [Person, Document, Group, name, title, mbox, firstName, family_name]
);

vocabulary!(
    /// Dublin Core elements (subset used by Figure 2).
    dc,
    "http://purl.org/dc/elements/1.1/",
    [title, creator, publisher]
);

vocabulary!(
    /// The paper's application-specific ontology terms (`ont:`), Figure 2.
    ont,
    "http://example.org/ontology#",
    [Publisher, PubType, pubYear, pubType, team, teamCode, name]
);

/// `ont:type` — Rust keyword workaround (property of `ont:PubType`,
/// Table 1).
pub fn ont_type() -> Iri {
    Iri::new_unchecked("http://example.org/ontology#type")
}

vocabulary!(
    /// The R3M mapping vocabulary (paper §4, Listings 1-5).
    r3m,
    "http://ontoaccess.org/r3m#",
    [
        DatabaseMap, TableMap, LinkTableMap, AttributeMap,
        PrimaryKey, ForeignKey, NotNull, Default, Unique, Check, hasName,
        jdbcDriver, jdbcUrl, username, password, uriPrefix,
        hasTable, hasTableName, mapsToClass, uriPattern, hasAttribute,
        hasAttributeName, mapsToObjectProperty, mapsToDataProperty,
        hasConstraint, references, hasValue,
        hasSubjectAttribute, hasObjectAttribute, valuePattern,
    ]
);

/// A bidirectional prefix ↔ namespace map, as used by Turtle I/O and the
/// SPARQL parser (`PREFIX foaf: <...>`).
///
/// The map is shared: a clone is a reference-count bump, so every
/// request can start from the mediator's prefixes for free, and only a
/// request that declares a `PREFIX` of its own copies the map (on its
/// first [`PrefixMap::insert`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PrefixMap {
    by_prefix: Arc<BTreeMap<String, String>>,
}

impl PrefixMap {
    /// Empty prefix map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Prefix map preloaded with all vocabularies this crate knows about
    /// (`rdf`, `rdfs`, `owl`, `xsd`, `foaf`, `dc`, `ont`, `r3m`).
    pub fn common() -> Self {
        let mut map = Self::new();
        map.insert("rdf", rdf::NS);
        map.insert("rdfs", rdfs::NS);
        map.insert("owl", owl::NS);
        map.insert("xsd", xsd::NS);
        map.insert("foaf", foaf::NS);
        map.insert("dc", dc::NS);
        map.insert("ont", ont::NS);
        map.insert("r3m", r3m::NS);
        map
    }

    /// Register `prefix` → `namespace`. Later insertions override.
    pub fn insert(&mut self, prefix: impl Into<String>, namespace: impl Into<String>) {
        Arc::make_mut(&mut self.by_prefix).insert(prefix.into(), namespace.into());
    }

    /// Resolve a `prefix:local` pair to a full IRI, built in one
    /// exact-size allocation and validated like [`Iri::parse`].
    pub fn resolve(&self, prefix: &str, local: &str) -> Option<Iri> {
        let ns = self.by_prefix.get(prefix)?;
        let mut iri = String::with_capacity(ns.len() + local.len());
        iri.push_str(ns);
        iri.push_str(local);
        Iri::parse(iri).ok()
    }

    /// Namespace registered for `prefix`, if any.
    pub fn namespace(&self, prefix: &str) -> Option<&str> {
        self.by_prefix.get(prefix).map(String::as_str)
    }

    /// Abbreviate an IRI to `prefix:local` form if a registered namespace
    /// is a prefix of it and the remainder is a simple local name.
    pub fn abbreviate(&self, iri: &Iri) -> Option<String> {
        // Prefer the longest matching namespace so db/author1 binds to the
        // db: prefix rather than a shorter example.org/ prefix.
        let mut best: Option<(&str, &str)> = None;
        for (prefix, ns) in self.by_prefix.iter() {
            if let Some(rest) = iri.as_str().strip_prefix(ns.as_str()) {
                if is_local_name(rest) {
                    match best {
                        Some((_, bns)) if bns.len() >= ns.len() => {}
                        _ => best = Some((prefix, ns)),
                    }
                }
            }
        }
        let (prefix, ns) = best?;
        let local = &iri.as_str()[ns.len()..];
        Some(format!("{prefix}:{local}"))
    }

    /// Iterate `(prefix, namespace)` pairs in prefix order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.by_prefix.iter().map(|(p, n)| (p.as_str(), n.as_str()))
    }

    /// Number of registered prefixes.
    pub fn len(&self) -> usize {
        self.by_prefix.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.by_prefix.is_empty()
    }
}

fn is_local_name(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .all(|c| c.is_alphanumeric() || matches!(c, '_' | '-' | '.'))
        && !s.starts_with('.')
        && !s.ends_with('.')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vocab_terms_resolve() {
        assert_eq!(foaf::mbox().as_str(), "http://xmlns.com/foaf/0.1/mbox");
        assert_eq!(
            rdf_type().as_str(),
            "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
        );
        assert_eq!(
            dc::creator().as_str(),
            "http://purl.org/dc/elements/1.1/creator"
        );
        assert_eq!(
            r3m::hasTableName().as_str(),
            "http://ontoaccess.org/r3m#hasTableName"
        );
    }

    #[test]
    fn integer_type_detection() {
        assert!(xsd_is_integer(&xsd::integer()));
        assert!(xsd_is_integer(&xsd::int()));
        assert!(!xsd_is_integer(&xsd::string()));
        assert!(!xsd_is_integer(&foaf::name()));
    }

    #[test]
    fn prefix_resolution() {
        let map = PrefixMap::common();
        assert_eq!(map.resolve("foaf", "mbox"), Some(foaf::mbox()));
        assert_eq!(map.resolve("nope", "x"), None);
        // A prefix whose expansion is no valid IRI resolves to nothing.
        assert_eq!(map.resolve("foaf", "a b"), None);
    }

    #[test]
    fn clones_share_the_map_until_one_inserts() {
        let base = PrefixMap::common();
        let mut request = base.clone();
        assert!(Arc::ptr_eq(&base.by_prefix, &request.by_prefix));
        request.insert("x", "http://example.org/x#");
        assert!(!Arc::ptr_eq(&base.by_prefix, &request.by_prefix));
        assert_eq!(base.namespace("x"), None);
        assert_eq!(request.namespace("x"), Some("http://example.org/x#"));
        assert_eq!(request.len(), base.len() + 1);
    }

    #[test]
    fn abbreviation_prefers_longest_namespace() {
        let mut map = PrefixMap::new();
        map.insert("ex", "http://example.org/");
        map.insert("db", "http://example.org/db/");
        let iri = Iri::parse("http://example.org/db/author1").unwrap();
        assert_eq!(map.abbreviate(&iri).as_deref(), Some("db:author1"));
    }

    #[test]
    fn abbreviation_rejects_non_local_remainder() {
        let map = PrefixMap::common();
        let iri = Iri::parse("http://xmlns.com/foaf/0.1/deep/path").unwrap();
        assert_eq!(map.abbreviate(&iri), None);
    }

    #[test]
    fn common_map_round_trips_ont() {
        let map = PrefixMap::common();
        assert_eq!(
            map.abbreviate(&ont::teamCode()).as_deref(),
            Some("ont:teamCode")
        );
        assert_eq!(map.abbreviate(&ont_type()).as_deref(), Some("ont:type"));
    }
}
