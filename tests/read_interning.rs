//! Reads never grow the string dictionary: a query's pattern constants
//! are looked up, never interned. The dictionary is process-global, so
//! this binary holds one test: another test running beside it would
//! intern.

use sparql_update_rdb::fixtures;

#[test]
fn unique_pattern_constants_leave_the_dictionary_unchanged() {
    let mediator = fixtures::mediator_with_sample_data();
    let session = mediator.read();
    let by_name = |name: &str| format!("SELECT ?x WHERE {{ ?x foaf:family_name \"{name}\" }}");
    let by_mbox = |mbox: &str| format!("SELECT ?x WHERE {{ ?x foaf:mbox <mailto:{mbox}> }}");
    // Warm both shapes with stored constants.
    assert_eq!(session.select(&by_name("Hert")).unwrap().len(), 1);
    assert_eq!(
        session.select(&by_mbox("hert@ifi.uzh.ch")).unwrap().len(),
        1
    );
    let before = mediator.dictionary_stats().symbols;
    for i in 0..50_000 {
        for text in [
            by_name(&format!("never-stored-{i}")),
            by_mbox(&format!("never-{i}@stored.example")),
        ] {
            assert!(session.select(&text).unwrap().is_empty(), "{text}");
        }
    }
    assert_eq!(mediator.dictionary_stats().symbols, before);
    // Two compiles, then 100 000 bindings of the two shapes.
    let stats = mediator.query_cache_stats();
    assert_eq!((stats.misses, stats.shapes), (2, 2), "{stats:?}");
}
