//! Write workloads are steady state: however many requests a run gets
//! through, the tables return to the size they had.

use loopbench::gen::{self, Spec, BULK_BATCH, BULK_LIVE, BULK_SLOTS, SMALL_POOL};
use loopbench::oracle::Oracle;
use loopbench::spec::{Workload, SMOKE_PUBLICATIONS};

const TABLES: [&str; 3] = ["author", "publication", "publication_author"];

fn counts(oracle: &Oracle) -> Vec<usize> {
    let db = oracle.mediator.database();
    TABLES.iter().map(|t| db.row_count(t).unwrap()).collect()
}

fn send(oracle: &Oracle, stream: &mut gen::Stream, requests: usize) {
    for _ in 0..requests {
        let index = stream.next_index();
        let text = &stream.table[index].text;
        oracle
            .mediator
            .execute_script(text, true)
            .unwrap_or_else(|e| panic!("{e}\n{text}"));
    }
}

#[test]
fn write_small_returns_to_the_start_after_every_cycle() {
    let dataset = Spec::scaled(SMOKE_PUBLICATIONS);
    let oracle = Oracle::build(&dataset, 11);
    let start = counts(&oracle);
    let mut streams: Vec<gen::Stream> = (0..2)
        .map(|c| gen::stream(Workload::WriteSmall, c, 11, &dataset))
        .collect();
    // More than one lap of the pool, on both connections' pools.
    for stream in &mut streams {
        send(&oracle, stream, 3 * (SMALL_POOL + 7));
        assert_eq!(counts(&oracle), start);
    }
    // Mid-cycle exactly one author is live.
    send(&oracle, &mut streams[0], 2);
    assert_eq!(counts(&oracle)[0], start[0] + 1);
}

#[test]
fn write_bulk_holds_four_batches_per_connection_once_warm() {
    let dataset = Spec::scaled(SMOKE_PUBLICATIONS);
    let oracle = Oracle::build(&dataset, 12);
    let start = counts(&oracle);
    let mut stream = gen::stream(Workload::WriteBulk, 1, 12, &dataset);
    send(&oracle, &mut stream, BULK_LIVE);
    let warm = counts(&oracle);
    let live = BULK_LIVE * BULK_BATCH;
    assert_eq!(
        warm,
        [start[0] + live, start[1] + live, start[2] + 2 * live]
    );
    // Every later request replaces one batch by another, lap after lap.
    for _ in 0..2 * BULK_SLOTS + 3 {
        send(&oracle, &mut stream, 1);
        assert_eq!(counts(&oracle), warm);
    }
}
