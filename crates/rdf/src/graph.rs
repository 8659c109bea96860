//! Indexed in-memory RDF graph.
//!
//! The graph keeps three permutation indexes (SPO, POS, OSP) so that any
//! triple pattern with at least one bound position is answered without a
//! full scan. This is the storage layer of the native triple store used as
//! the paper's comparison point (§3: "compared to their application in a
//! native triple store") and the backing store for R3M mapping documents.

use crate::iri::Iri;
use crate::term::Term;
use crate::triple::Triple;
use std::collections::{BTreeMap, BTreeSet};

type Index = BTreeMap<Term, BTreeMap<Term, BTreeSet<Term>>>;

/// An in-memory set of RDF triples with SPO/POS/OSP indexes.
///
/// Iteration order is deterministic (term order), which keeps downstream
/// SQL generation stable across runs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Graph {
    spo: Index,
    pos: Index,
    osp: Index,
    len: usize,
}

impl Graph {
    /// Empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of triples.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the graph holds no triples.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Insert a triple. Returns `true` if it was not already present.
    pub fn insert(&mut self, triple: Triple) -> bool {
        let Triple {
            subject,
            predicate,
            object,
        } = triple;
        let p = Term::Iri(predicate);
        let added = insert_into(&mut self.spo, &subject, &p, &object);
        if added {
            insert_into(&mut self.pos, &p, &object, &subject);
            insert_into(&mut self.osp, &object, &subject, &p);
            self.len += 1;
        }
        added
    }

    /// Remove a triple. Returns `true` if it was present.
    pub fn remove(&mut self, triple: &Triple) -> bool {
        let p = Term::Iri(triple.predicate.clone());
        let removed = remove_from(&mut self.spo, &triple.subject, &p, &triple.object);
        if removed {
            remove_from(&mut self.pos, &p, &triple.object, &triple.subject);
            remove_from(&mut self.osp, &triple.object, &triple.subject, &p);
            self.len -= 1;
        }
        removed
    }

    /// Whether the triple is present.
    pub fn contains(&self, triple: &Triple) -> bool {
        let p = Term::Iri(triple.predicate.clone());
        self.spo
            .get(&triple.subject)
            .and_then(|po| po.get(&p))
            .is_some_and(|os| os.contains(&triple.object))
    }

    /// Iterate all triples in deterministic (S, P, O) order.
    pub fn iter(&self) -> impl Iterator<Item = Triple> + '_ {
        self.spo.iter().flat_map(|(s, po)| {
            po.iter().flat_map(move |(p, os)| {
                let p = match p {
                    Term::Iri(iri) => iri.clone(),
                    _ => unreachable!("predicate index holds only IRIs"),
                };
                os.iter().map({
                    let s = s.clone();
                    move |o| Triple::new(s.clone(), p.clone(), o.clone())
                })
            })
        })
    }

    /// Match a triple pattern; `None` positions are wildcards.
    ///
    /// Chooses the index that binds the most significant position:
    /// S→SPO, P→POS, O→OSP, otherwise full iteration.
    pub fn matching(
        &self,
        subject: Option<&Term>,
        predicate: Option<&Iri>,
        object: Option<&Term>,
    ) -> Vec<Triple> {
        let p_term = predicate.map(|p| Term::Iri(p.clone()));
        match (subject, &p_term, object) {
            (Some(s), _, _) => self.scan_two(&self.spo, s, p_term.as_ref(), object, |a, b, c| {
                (a.clone(), b.clone(), c.clone())
            }),
            (None, Some(p), _) => self.scan_two(&self.pos, p, object, None, |a, b, c| {
                (c.clone(), a.clone(), b.clone())
            }),
            (None, None, Some(o)) => self.scan_two(&self.osp, o, None, None, |a, b, c| {
                (b.clone(), c.clone(), a.clone())
            }),
            (None, None, None) => self.iter().collect(),
        }
    }

    /// All triples with the given subject.
    pub fn triples_for_subject(&self, subject: &Term) -> Vec<Triple> {
        self.matching(Some(subject), None, None)
    }

    /// Distinct subjects in the graph.
    pub fn subjects(&self) -> impl Iterator<Item = &Term> {
        self.spo.keys()
    }

    /// Objects of `(subject, predicate, ?)` — common accessor when reading
    /// mapping documents.
    pub fn objects(&self, subject: &Term, predicate: &Iri) -> Vec<Term> {
        let p = Term::Iri(predicate.clone());
        self.spo
            .get(subject)
            .and_then(|po| po.get(&p))
            .map(|os| os.iter().cloned().collect())
            .unwrap_or_default()
    }

    /// First object of `(subject, predicate, ?)`, if any.
    pub fn object(&self, subject: &Term, predicate: &Iri) -> Option<Term> {
        self.objects(subject, predicate).into_iter().next()
    }

    /// Subjects of `(?, predicate, object)`.
    pub fn subjects_with(&self, predicate: &Iri, object: &Term) -> Vec<Term> {
        self.matching(None, Some(predicate), Some(object))
            .into_iter()
            .map(|t| t.subject)
            .collect()
    }

    /// Remove all triples.
    pub fn clear(&mut self) {
        self.spo.clear();
        self.pos.clear();
        self.osp.clear();
        self.len = 0;
    }

    // Scan `index[k1]`, optionally fixing the second and third levels.
    // `rebuild` maps (k1, k2, k3) in index order back to (s, p, o).
    fn scan_two(
        &self,
        index: &Index,
        k1: &Term,
        k2: Option<&Term>,
        k3: Option<&Term>,
        rebuild: impl Fn(&Term, &Term, &Term) -> (Term, Term, Term),
    ) -> Vec<Triple> {
        let mut out = Vec::new();
        let Some(level2) = index.get(k1) else {
            return out;
        };
        let push = |out: &mut Vec<Triple>, a: &Term, b: &Term, c: &Term| {
            let (s, p, o) = rebuild(a, b, c);
            let Term::Iri(p) = p else {
                unreachable!("predicate index holds only IRIs")
            };
            out.push(Triple::new(s, p, o));
        };
        match k2 {
            Some(k2) => {
                if let Some(level3) = level2.get(k2) {
                    match k3 {
                        Some(k3) => {
                            if level3.contains(k3) {
                                push(&mut out, k1, k2, k3);
                            }
                        }
                        None => {
                            for c in level3 {
                                push(&mut out, k1, k2, c);
                            }
                        }
                    }
                }
            }
            None => {
                for (b, level3) in level2 {
                    match k3 {
                        Some(k3) => {
                            if level3.contains(k3) {
                                push(&mut out, k1, b, k3);
                            }
                        }
                        None => {
                            for c in level3 {
                                push(&mut out, k1, b, c);
                            }
                        }
                    }
                }
            }
        }
        out
    }
}

fn insert_into(index: &mut Index, a: &Term, b: &Term, c: &Term) -> bool {
    index
        .entry(a.clone())
        .or_default()
        .entry(b.clone())
        .or_default()
        .insert(c.clone())
}

fn remove_from(index: &mut Index, a: &Term, b: &Term, c: &Term) -> bool {
    let Some(level2) = index.get_mut(a) else {
        return false;
    };
    let Some(level3) = level2.get_mut(b) else {
        return false;
    };
    let removed = level3.remove(c);
    if level3.is_empty() {
        level2.remove(b);
        if level2.is_empty() {
            index.remove(a);
        }
    }
    removed
}

impl FromIterator<Triple> for Graph {
    fn from_iter<I: IntoIterator<Item = Triple>>(iter: I) -> Self {
        let mut g = Graph::new();
        for t in iter {
            g.insert(t);
        }
        g
    }
}

impl Extend<Triple> for Graph {
    fn extend<I: IntoIterator<Item = Triple>>(&mut self, iter: I) {
        for t in iter {
            self.insert(t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::literal::Literal;
    use crate::namespace::{foaf, ont, rdf_type};

    fn author(n: u32) -> Term {
        Term::iri(&format!("http://example.org/db/author{n}"))
    }

    fn sample() -> Graph {
        let mut g = Graph::new();
        g.insert(Triple::new(
            author(6),
            rdf_type(),
            Term::Iri(foaf::Person()),
        ));
        g.insert(Triple::new(
            author(6),
            foaf::firstName(),
            Literal::plain("Matthias"),
        ));
        g.insert(Triple::new(
            author(6),
            foaf::family_name(),
            Literal::plain("Hert"),
        ));
        g.insert(Triple::new(
            author(7),
            rdf_type(),
            Term::Iri(foaf::Person()),
        ));
        g.insert(Triple::new(
            author(7),
            ont::team(),
            Term::iri("http://example.org/db/team5"),
        ));
        g
    }

    #[test]
    fn insert_dedup() {
        let mut g = Graph::new();
        let t = Triple::new(author(1), rdf_type(), Term::Iri(foaf::Person()));
        assert!(g.insert(t.clone()));
        assert!(!g.insert(t));
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn remove_updates_all_indexes() {
        let mut g = sample();
        let t = Triple::new(author(6), foaf::firstName(), Literal::plain("Matthias"));
        assert!(g.remove(&t));
        assert!(!g.remove(&t));
        assert!(!g.contains(&t));
        assert_eq!(g.len(), 4);
        assert!(g.matching(None, Some(&foaf::firstName()), None).is_empty());
        assert!(g
            .matching(None, None, Some(&Term::plain("Matthias")))
            .is_empty());
    }

    #[test]
    fn match_by_subject() {
        let g = sample();
        assert_eq!(g.triples_for_subject(&author(6)).len(), 3);
        assert_eq!(g.triples_for_subject(&author(99)).len(), 0);
    }

    #[test]
    fn match_by_predicate() {
        let g = sample();
        let typed = g.matching(None, Some(&rdf_type()), None);
        assert_eq!(typed.len(), 2);
        assert!(typed.iter().all(|t| t.predicate == rdf_type()));
    }

    #[test]
    fn match_by_object() {
        let g = sample();
        let persons = g.matching(None, None, Some(&Term::Iri(foaf::Person())));
        assert_eq!(persons.len(), 2);
    }

    #[test]
    fn match_fully_bound() {
        let g = sample();
        let t = Triple::new(author(6), foaf::family_name(), Literal::plain("Hert"));
        assert_eq!(
            g.matching(Some(&t.subject), Some(&t.predicate), Some(&t.object)),
            vec![t]
        );
    }

    #[test]
    fn match_sp_wildcard_o() {
        let g = sample();
        let res = g.matching(Some(&author(6)), Some(&rdf_type()), None);
        assert_eq!(res.len(), 1);
        assert_eq!(res[0].object, Term::Iri(foaf::Person()));
    }

    #[test]
    fn match_po_via_pos_index() {
        let g = sample();
        let res = g.matching(None, Some(&rdf_type()), Some(&Term::Iri(foaf::Person())));
        assert_eq!(res.len(), 2);
        assert!(res.iter().any(|t| t.subject == author(6)));
        assert!(res.iter().any(|t| t.subject == author(7)));
    }

    #[test]
    fn match_so_wildcard_p() {
        let g = sample();
        let res = g.matching(Some(&author(6)), None, Some(&Term::plain("Hert")));
        assert_eq!(res.len(), 1);
        assert_eq!(res[0].predicate, foaf::family_name());
    }

    #[test]
    fn objects_accessor() {
        let g = sample();
        assert_eq!(
            g.object(&author(6), &foaf::firstName()),
            Some(Term::plain("Matthias"))
        );
        assert_eq!(g.object(&author(6), &foaf::mbox()), None);
    }

    #[test]
    fn subjects_with_accessor() {
        let g = sample();
        let subs = g.subjects_with(&rdf_type(), &Term::Iri(foaf::Person()));
        assert_eq!(subs.len(), 2);
    }

    #[test]
    fn iteration_is_deterministic() {
        let g = sample();
        let a: Vec<_> = g.iter().collect();
        let b: Vec<_> = g.iter().collect();
        assert_eq!(a, b);
        assert_eq!(a.len(), g.len());
    }

    #[test]
    fn from_iterator_and_eq() {
        let g = sample();
        let g2: Graph = g.iter().collect();
        assert_eq!(g, g2);
    }

    #[test]
    fn clear_empties_everything() {
        let mut g = sample();
        g.clear();
        assert!(g.is_empty());
        assert!(g.matching(None, None, None).is_empty());
    }
}
