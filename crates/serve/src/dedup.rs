//! Bounded write-dedup table.
//!
//! Retried writes carry a [`crate::protocol::WriteId`] (`client` + `seq`),
//! and the server answers `deduped: true` for any sequence number at or
//! below the client's high-water mark instead of applying it again.
//!
//! The table is an LRU over clients. Every `record` moves its client to a
//! fresh tick; once more than `max_clients` clients are tracked, the
//! least recently recorded ones are evicted. A client that keeps writing is
//! never evicted, and memory stays at `max_clients` entries however many
//! writes or retries pass through (the 1M-retry unit test below).

use crate::protocol::WriteId;
use std::collections::{BTreeMap, HashMap};

/// A bounded map from client id to highest acked write sequence number.
///
/// Not internally synchronized: the server holds it under one `Mutex`
/// from the check through the log append to the record.
pub struct DedupTable {
    max_clients: usize,
    tick: u64,
    /// Client → (high-water `seq`, tick of its latest `record`).
    marks: HashMap<String, (u64, u64)>,
    /// Tick → client, oldest first: the eviction order.
    recency: BTreeMap<u64, String>,
    evictions: u64,
}

impl DedupTable {
    /// Creates a table remembering at most `max_clients` distinct clients
    /// (minimum 1).
    pub fn new(max_clients: usize) -> Self {
        DedupTable {
            max_clients: max_clients.max(1),
            tick: 0,
            marks: HashMap::new(),
            recency: BTreeMap::new(),
            evictions: 0,
        }
    }

    /// Whether `id` is a retry of an already-acked write (its `seq` is at
    /// or below the client's high-water mark).
    pub fn already_acked(&self, id: &WriteId) -> bool {
        self.marks.get(&id.client).is_some_and(|&(seq, _)| id.seq <= seq)
    }

    /// Records an acked write: advances the client's high-water mark, makes
    /// it the most recent client, and evicts the least recent ones past
    /// the cap.
    pub fn record(&mut self, id: &WriteId) {
        self.tick += 1;
        let client = match self.marks.get_mut(&id.client) {
            Some(mark) => {
                let client = self.recency.remove(&mark.1).expect("a tracked client has a tick");
                *mark = (mark.0.max(id.seq), self.tick);
                client
            }
            None => {
                self.marks.insert(id.client.clone(), (id.seq, self.tick));
                id.client.clone()
            }
        };
        self.recency.insert(self.tick, client);
        while self.marks.len() > self.max_clients {
            let (_, stalest) = self.recency.pop_first().expect("a tracked client has a tick");
            self.marks.remove(&stalest);
            self.evictions += 1;
        }
    }

    /// Distinct clients currently tracked.
    pub fn len(&self) -> usize {
        self.marks.len()
    }

    /// Whether no client is tracked.
    pub fn is_empty(&self) -> bool {
        self.marks.is_empty()
    }

    /// Clients evicted as least recently recorded since creation.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(client: &str, seq: u64) -> WriteId {
        WriteId { client: client.to_string(), seq }
    }

    #[test]
    fn dedups_at_or_below_high_water_mark() {
        let mut t = DedupTable::new(8);
        assert!(!t.already_acked(&id("a", 1)));
        t.record(&id("a", 3));
        assert!(t.already_acked(&id("a", 1)));
        assert!(t.already_acked(&id("a", 3)));
        assert!(!t.already_acked(&id("a", 4)));
        assert!(!t.already_acked(&id("b", 1)));
    }

    #[test]
    fn evicts_stalest_client_first() {
        let mut t = DedupTable::new(2);
        t.record(&id("a", 1));
        t.record(&id("b", 1));
        t.record(&id("a", 2)); // refresh a: b is now the stalest
        t.record(&id("c", 1)); // evicts b
        assert_eq!(t.len(), 2);
        assert!(t.already_acked(&id("a", 2)));
        assert!(t.already_acked(&id("c", 1)));
        assert!(!t.already_acked(&id("b", 1)), "stalest client was evicted");
        assert_eq!(t.evictions(), 1);
    }

    /// Eviction follows the latest `record`, however many records a
    /// client has made: `a`'s four refreshes leave `b` the stalest client.
    #[test]
    fn eviction_follows_the_latest_record() {
        let mut t = DedupTable::new(2);
        t.record(&id("a", 1));
        t.record(&id("b", 1));
        for seq in 2..=5 {
            t.record(&id("a", seq));
        }
        t.record(&id("c", 1));
        assert!(t.already_acked(&id("a", 5)), "the most active client was evicted");
        assert!(t.already_acked(&id("c", 1)));
        assert!(!t.already_acked(&id("b", 1)), "the stalest client was kept");
        assert_eq!(t.evictions(), 1);
    }

    /// A million retried writes (a hot client population twice the cap
    /// plus a drifting tail of one-shot clients) keep the table at its cap,
    /// and every write is remembered right after its record.
    #[test]
    fn memory_stays_flat_over_one_million_retried_writes() {
        const CAP: usize = 512;
        let mut t = DedupTable::new(CAP);
        for i in 0u64..1_000_000 {
            // 3/4 of traffic: retries from a hot pool twice the cap wide, so
            // eviction runs continuously; 1/4: fresh one-shot clients.
            let w = if i % 4 != 0 {
                id(&format!("hot-{}", i % (2 * CAP as u64)), i / 7 + 1)
            } else {
                id(&format!("cold-{i}"), 1)
            };
            // Every write is immediately retried: the second attempt must
            // dedup (its seq equals the recorded high-water mark).
            if !t.already_acked(&w) {
                t.record(&w);
            }
            assert!(t.already_acked(&w), "write {i} not remembered immediately after record");
            assert!(t.len() <= CAP, "map grew past cap at write {i}: {}", t.len());
            assert_eq!(t.recency.len(), t.len(), "one recency tick per tracked client");
        }
        assert!(t.evictions() > 0, "eviction never exercised");
    }

    #[test]
    fn hot_client_survives_cold_churn() {
        let mut t = DedupTable::new(4);
        t.record(&id("hot", 10));
        for i in 0..100u64 {
            t.record(&id(&format!("cold-{i}"), 1));
            // Touch the hot client every other write: it must never age out.
            if i % 2 == 0 {
                t.record(&id("hot", 10 + i));
            }
        }
        assert!(t.already_acked(&id("hot", 10)), "hot client evicted despite constant traffic");
    }
}
