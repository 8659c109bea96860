//! Seeded request streams: what each client connection sends.
//!
//! A stream is a table of prepared requests plus an order over it, so a
//! run never builds request text inside the measured window. Reads draw
//! uniformly from their table; writes walk theirs in order, because a
//! write stream is a state machine (insert before modify before delete)
//! over a bounded pool of ids — the database, the dictionary and the
//! resident set stay the size they were, however fast the server is.

use crate::spec::Workload;
pub use fixtures::data::Spec;
use fixtures::data::ID_BASE;
use fixtures::http_probe::urlencode;

/// SplitMix64: the benchmark's only source of randomness.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is below 2^-40 here).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// `k` distinct values of `0..n`, in draw order.
    pub fn distinct(&mut self, k: usize, n: usize) -> Vec<usize> {
        let mut pool: Vec<usize> = (0..n).collect();
        (0..k.min(n))
            .map(|i| {
                let j = i + self.below(n - i);
                pool.swap(i, j);
                pool[i]
            })
            .collect()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Read,
    Write,
}

impl Class {
    /// The class whose latencies a workload reports: its only one, and
    /// the reads of `mixed` (a quarter of its requests).
    pub fn reported_on(workload: Workload) -> Class {
        match workload {
            Workload::WriteSmall | Workload::WriteBulk => Class::Write,
            _ => Class::Read,
        }
    }
}

/// One request, ready to send.
#[derive(Debug, Clone)]
pub struct Prepared {
    pub class: Class,
    /// The SPARQL text (what the staged replay feeds the layers).
    pub text: String,
    /// The complete HTTP request.
    pub wire: String,
    /// For reads: the body the server must answer, filled in by the
    /// oracle. Writes are checked by status and feedback kind.
    pub expected: Vec<u8>,
}

impl Prepared {
    /// A `GET /sparql` for `text`, answered as SPARQL JSON results.
    pub fn read(text: String) -> Prepared {
        let wire = format!(
            "GET /sparql?query={} HTTP/1.1\r\nHost: loopbench\r\n\
             Accept: application/sparql-results+json\r\n\r\n",
            urlencode(&text)
        );
        Prepared {
            class: Class::Read,
            text,
            wire,
            expected: Vec::new(),
        }
    }

    fn write(text: String) -> Prepared {
        let wire = format!(
            "POST /update HTTP/1.1\r\nHost: loopbench\r\n\
             Content-Type: application/sparql-update\r\nContent-Length: {}\r\n\r\n{text}",
            text.len()
        );
        Prepared {
            class: Class::Write,
            text,
            wire,
            expected: Vec::new(),
        }
    }
}

/// Writes of the `write_small` cycle that follow each read of `mixed`.
pub const MIXED_WRITES_PER_READ: usize = 3;

#[derive(Debug, Clone)]
enum Order {
    /// Uniform draws from the whole table.
    Uniform(Rng),
    /// The first `prelude` entries once, then the rest round and round.
    Cycle { prelude: usize },
    /// One uniform draw from the first `reads` entries, then the next
    /// [`MIXED_WRITES_PER_READ`] of the cycle over the rest.
    Interleaved { rng: Rng, reads: usize },
}

/// What a write stream leaves in the database after `n` acknowledged
/// requests, for the ledger check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Ledger {
    /// Read stream: nothing to check.
    None,
    /// `write_small`: pool ids in the order they are cycled.
    Small { ids: Vec<i64> },
    /// `write_bulk`: first publication id of each ring slot.
    Bulk { slot_first_pub: Vec<i64> },
}

#[derive(Debug, Clone)]
pub struct Stream {
    pub table: Vec<Prepared>,
    order: Order,
    sent: usize,
    pub ledger: Ledger,
}

impl Stream {
    /// Index into `table` of the next request to send.
    pub fn next_index(&mut self) -> usize {
        let n = self.table.len();
        let index = match &mut self.order {
            Order::Uniform(rng) => rng.below(n),
            Order::Cycle { prelude } if self.sent < *prelude => self.sent,
            Order::Cycle { prelude } => *prelude + (self.sent - *prelude) % (n - *prelude),
            Order::Interleaved { rng, reads } => {
                let (round, step) = (
                    self.sent / (MIXED_WRITES_PER_READ + 1),
                    self.sent % (MIXED_WRITES_PER_READ + 1),
                );
                match step {
                    0 => rng.below(*reads),
                    _ => *reads + (round * MIXED_WRITES_PER_READ + step - 1) % (n - *reads),
                }
            }
        };
        self.sent += 1;
        index
    }
}

// One generator per (workload, connection, seed), so connections send
// different requests and workloads do not share draws.
fn stream_rng(workload: Workload, connection: usize, seed: u64) -> Rng {
    let mut rng = Rng::new(seed ^ ((workload as u64 + 1) << 40) ^ ((connection as u64 + 1) << 32));
    rng.next_u64();
    rng
}

/// Query texts of `read_point` and `read_cold`.
pub fn point_query(author: i64) -> String {
    format!(
        "SELECT ?last ?first WHERE {{ ex:author{author} foaf:family_name ?last ; \
         foaf:firstName ?first }}"
    )
}

/// Query text of `read_join`.
pub fn join_query(publication: i64) -> String {
    format!(
        "SELECT ?last ?code WHERE {{ ex:pub{publication} dc:creator ?a . \
         ?a foaf:family_name ?last ; ont:team ?t . ?t ont:teamCode ?code }}"
    )
}

/// Query text of `read_scan`.
pub fn scan_query(pubtype: i64) -> String {
    format!(
        "SELECT ?p ?t ?y WHERE {{ ?p ont:pubType ex:pubtype{pubtype} ; dc:title ?t ; \
         ont:pubYear ?y }}"
    )
}

/// Ledger probe: the mailbox of one author (0 or 1 row).
pub fn mbox_query(author: i64) -> String {
    format!("SELECT ?m WHERE {{ ex:author{author} foaf:mbox ?m }}")
}

/// Ledger probe: the creators of one publication.
pub fn creators_query(publication: i64) -> String {
    format!("SELECT ?a WHERE {{ ex:pub{publication} dc:creator ?a }}")
}

/// `write_small` pool size per connection.
pub const SMALL_POOL: usize = 512;
/// Pool size of the writes of `mixed`: at a quarter of the write rate,
/// a smaller pool has been round once (its strings interned, its index
/// entries touched) before the warm-up is over.
pub const MIXED_POOL: usize = 128;
/// First id of the `write_small` pools, far above the generated ids.
const SMALL_BASE: i64 = 900_000;
/// `write_bulk` ring slots per connection; four batches are live.
pub const BULK_SLOTS: usize = 8;
pub const BULK_LIVE: usize = 4;
/// Publications (and as many new authors) per `write_bulk` batch.
pub const BULK_BATCH: usize = 20;
const BULK_PUB_BASE: i64 = 800_000;
const BULK_AUTHOR_BASE: i64 = 850_000;

/// The mailbox `write_small` inserts (`modified = false`) and the one
/// its MODIFY leaves behind.
pub fn small_mbox(author: i64, modified: bool) -> String {
    format!(
        "mailto:{}{author}@example.org",
        if modified { 'b' } else { 'a' }
    )
}

fn small_requests(
    rng: &mut Rng,
    dataset: &Spec,
    connection: usize,
    pool: usize,
) -> (Vec<Prepared>, Ledger) {
    let ids: Vec<i64> = (0..pool)
        .map(|i| SMALL_BASE + (connection * pool + i) as i64)
        .collect();
    let mut table = Vec::with_capacity(3 * pool);
    for &id in &ids {
        let team = ID_BASE + rng.below(dataset.teams) as i64;
        let entity = |mbox: &str| {
            format!(
                "ex:author{id} a foaf:Person ; foaf:family_name \"Last{id}\" ; \
                 foaf:firstName \"First{id}\" ; foaf:title \"Dr\" ; foaf:mbox <{mbox}> ; \
                 ont:team ex:team{team} ."
            )
        };
        table.push(Prepared::write(format!(
            "INSERT DATA {{ {} }}",
            entity(&small_mbox(id, false))
        )));
        // The paper's Listing 11 shape, with the subject bound so the
        // three operations of a cycle cost about the same.
        table.push(Prepared::write(format!(
            "MODIFY DELETE {{ ex:author{id} foaf:mbox ?mbox . }} \
             INSERT {{ ex:author{id} foaf:mbox <{}> . }} \
             WHERE {{ ex:author{id} foaf:mbox ?mbox . }}",
            small_mbox(id, true)
        )));
        table.push(Prepared::write(format!(
            "DELETE DATA {{ {} }}",
            entity(&small_mbox(id, true))
        )));
    }
    (table, Ledger::Small { ids })
}

fn bulk_batch(rng: &mut Rng, dataset: &Spec, first: usize) -> String {
    let spec = dataset;
    let mut triples = String::new();
    for j in 0..BULK_BATCH {
        let publication = BULK_PUB_BASE + (first + j) as i64;
        let author = BULK_AUTHOR_BASE + (first + j) as i64;
        let creators = rng.distinct(2, spec.authors);
        triples.push_str(&format!(
            "ex:pub{publication} a foaf:Document ; dc:title \"Publication {publication}\" ; \
             ont:pubYear \"2009\" ; ont:pubType ex:pubtype{} ; dc:publisher ex:publisher{} ; \
             dc:creator ex:author{} , ex:author{} .\n\
             ex:author{author} a foaf:Person ; foaf:family_name \"Last{author}\" ; \
             foaf:firstName \"First{author}\" ; ont:team ex:team{} .\n",
            ID_BASE + rng.below(spec.pubtypes) as i64,
            ID_BASE + rng.below(spec.publishers) as i64,
            ID_BASE + creators[0] as i64,
            ID_BASE + creators[1] as i64,
            ID_BASE + rng.below(spec.teams) as i64,
        ));
    }
    triples
}

fn bulk_requests(rng: &mut Rng, dataset: &Spec, connection: usize) -> (Vec<Prepared>, Ledger) {
    let first_of = |slot: usize| (connection * BULK_SLOTS + slot) * BULK_BATCH;
    let batches: Vec<String> = (0..BULK_SLOTS)
        .map(|slot| bulk_batch(rng, dataset, first_of(slot)))
        .collect();
    // Requests 0..BULK_LIVE only insert; request i afterwards replaces
    // batch i-BULK_LIVE by batch i, slots taken modulo the ring.
    let mut table: Vec<Prepared> = (0..BULK_LIVE)
        .map(|slot| Prepared::write(format!("INSERT DATA {{\n{}}}", batches[slot])))
        .collect();
    for i in BULK_LIVE..BULK_LIVE + BULK_SLOTS {
        table.push(Prepared::write(format!(
            "DELETE DATA {{\n{}}} ;\nINSERT DATA {{\n{}}}",
            batches[(i - BULK_LIVE) % BULK_SLOTS],
            batches[i % BULK_SLOTS]
        )));
    }
    let slot_first_pub = (0..BULK_SLOTS)
        .map(|slot| BULK_PUB_BASE + first_of(slot) as i64)
        .collect();
    (table, Ledger::Bulk { slot_first_pub })
}

fn read_stream(rng: Rng, texts: Vec<String>) -> Stream {
    Stream {
        table: texts.into_iter().map(Prepared::read).collect(),
        order: Order::Uniform(rng),
        sent: 0,
        ledger: Ledger::None,
    }
}

/// The stream connection `connection` sends on `workload`.
pub fn stream(workload: Workload, connection: usize, seed: u64, dataset: &Spec) -> Stream {
    let spec = dataset;
    let mut rng = stream_rng(workload, connection, seed);
    // The hot sets are drawn from the seed alone, so both connections
    // of a workload share one set (and the cache holds it once).
    let mut set_rng = Rng::new(seed ^ 0x5e7_5e7);
    let ids = |picks: Vec<usize>| picks.into_iter().map(|i| ID_BASE + i as i64);
    let join_texts = |set_rng: &mut Rng| {
        ids(set_rng.distinct(64, spec.publications))
            .map(join_query)
            .collect::<Vec<_>>()
    };
    let small = |rng: &mut Rng, pool: usize| {
        let (table, ledger) = small_requests(rng, dataset, connection, pool);
        Stream {
            table,
            order: Order::Cycle { prelude: 0 },
            sent: 0,
            ledger,
        }
    };
    match workload {
        Workload::ReadPoint => read_stream(
            rng,
            ids(set_rng.distinct(128, spec.authors))
                .map(point_query)
                .collect(),
        ),
        Workload::ReadCold => read_stream(
            rng,
            ids((0..spec.authors).collect()).map(point_query).collect(),
        ),
        Workload::ReadJoin => read_stream(rng, join_texts(&mut set_rng)),
        Workload::ReadScan => read_stream(
            rng,
            ids((0..spec.pubtypes).collect()).map(scan_query).collect(),
        ),
        Workload::WriteSmall => small(&mut rng, SMALL_POOL),
        Workload::WriteBulk => {
            let (table, ledger) = bulk_requests(&mut rng, dataset, connection);
            Stream {
                table,
                order: Order::Cycle { prelude: BULK_LIVE },
                sent: 0,
                ledger,
            }
        }
        // Both connections send the same mix, so neither the scheduler
        // nor the server can favour "the reader" or "the writer".
        Workload::Mixed => {
            let reads = join_texts(&mut set_rng).into_iter().map(Prepared::read);
            let writes = small(&mut rng, MIXED_POOL);
            Stream {
                order: Order::Interleaved {
                    rng,
                    reads: reads.len(),
                },
                table: reads.chain(writes.table).collect(),
                sent: 0,
                ledger: writes.ledger,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wires(workload: Workload, connection: usize, seed: u64, n: usize) -> Vec<String> {
        let mut stream = stream(workload, connection, seed, &Spec::scaled(400));
        (0..n)
            .map(|_| {
                let index = stream.next_index();
                stream.table[index].wire.clone()
            })
            .collect()
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        for workload in Workload::ALL {
            for connection in 0..2 {
                let a = wires(workload, connection, 7, 200);
                assert_eq!(a, wires(workload, connection, 7, 200), "{workload:?}");
                assert_ne!(a, wires(workload, connection, 8, 200), "{workload:?}");
            }
            assert_ne!(
                wires(workload, 0, 7, 200),
                wires(workload, 1, 7, 200),
                "{workload:?}: connections must not send the same stream"
            );
        }
    }

    #[test]
    fn hot_sets_fit_the_query_cache_and_cold_does_not() {
        let dataset = Spec::scaled(crate::spec::PUBLICATIONS);
        let texts = |w| stream(w, 0, 1, &dataset).table.len();
        assert_eq!(texts(Workload::ReadPoint), 128);
        assert_eq!(texts(Workload::ReadJoin), 64);
        assert_eq!(texts(Workload::ReadScan), 4);
        assert_eq!(texts(Workload::ReadCold), 2500);
        // Both connections share one hot set.
        let set = |c| -> Vec<String> {
            let mut texts: Vec<String> = stream(Workload::ReadPoint, c, 1, &dataset)
                .table
                .into_iter()
                .map(|p| p.text)
                .collect();
            texts.sort();
            texts
        };
        assert_eq!(set(0), set(1));
    }

    #[test]
    fn write_streams_cycle_in_order() {
        let dataset = Spec::scaled(400);
        let mut small = stream(Workload::WriteSmall, 0, 1, &dataset);
        let order: Vec<usize> = (0..3 * SMALL_POOL + 2)
            .map(|_| small.next_index())
            .collect();
        assert_eq!(order[..4], [0, 1, 2, 3]);
        assert_eq!(order[3 * SMALL_POOL..], [0, 1]);
        let mut bulk = stream(Workload::WriteBulk, 1, 1, &dataset);
        let order: Vec<usize> = (0..BULK_LIVE + BULK_SLOTS + 2)
            .map(|_| bulk.next_index())
            .collect();
        assert_eq!(order[..5], [0, 1, 2, 3, 4]);
        assert_eq!(order[BULK_LIVE + BULK_SLOTS..], [4, 5]);
    }

    #[test]
    fn mixed_interleaves_one_read_with_one_entity_lifecycle() {
        let dataset = Spec::scaled(400);
        let mut mixed = stream(Workload::Mixed, 1, 1, &dataset);
        let mut small = stream(Workload::WriteSmall, 1, 1, &dataset);
        for round in 0..2 * MIXED_POOL {
            let read = mixed.next_index();
            assert_eq!(mixed.table[read].class, Class::Read, "round {round}");
            for _ in 0..MIXED_WRITES_PER_READ {
                let (m, w) = (mixed.next_index(), small.next_index());
                assert_eq!(mixed.table[m].text[..12], small.table[w].text[..12]);
                assert_eq!(mixed.table[m].class, Class::Write);
            }
        }
        let Ledger::Small { ids } = &mixed.ledger else {
            panic!("mixed keeps a write_small ledger");
        };
        assert_eq!(ids.len(), MIXED_POOL);
    }

    #[test]
    fn distinct_draws_are_distinct() {
        let mut rng = Rng::new(5);
        let mut picks = rng.distinct(64, 100);
        picks.sort_unstable();
        picks.dedup();
        assert_eq!(picks.len(), 64);
        assert!(picks.iter().all(|&p| p < 100));
    }
}
