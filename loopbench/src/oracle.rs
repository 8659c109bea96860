//! The expected answers: the same dataset built in-process, queried
//! through the library, so every response of the server under test can
//! be checked against a body computed outside it.

use crate::gen::{Class, Spec, Stream};
use ontoaccess::Mediator;
use ontoaccess_server::wire;
use std::time::Instant;

pub struct Oracle {
    pub mediator: Mediator,
    /// Seconds `fixtures::data::populate` took in-process.
    pub populate_s: f64,
}

impl Oracle {
    /// Populate the dataset the server is started with
    /// (`--populate publications --seed seed`).
    pub fn build(dataset: &Spec, seed: u64) -> Oracle {
        let mut db = fixtures::database();
        let started = Instant::now();
        fixtures::data::populate(&mut db, dataset, seed);
        let populate_s = started.elapsed().as_secs_f64();
        let mediator =
            Mediator::new(db, fixtures::mapping()).expect("the use case mapping is valid");
        Oracle {
            mediator,
            populate_s,
        }
    }

    /// The JSON body the server must answer `text` with on the base
    /// dataset.
    pub fn answer(&self, text: &str) -> Result<Vec<u8>, String> {
        let solutions = self
            .mediator
            .select(text)
            .map_err(|e| format!("oracle rejected {text:?}: {e}"))?;
        Ok(wire::solutions_to_json(&solutions).into_bytes())
    }

    /// Fill in the expected body of every read request of `stream`.
    pub fn expect(&self, stream: &mut Stream) -> Result<(), String> {
        for request in &mut stream.table {
            if request.class == Class::Read {
                request.expected = self.answer(&request.text)?;
            }
        }
        Ok(())
    }
}
