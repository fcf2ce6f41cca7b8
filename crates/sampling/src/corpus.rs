//! Walk corpus: accumulated walks and node-appearance frequencies.
//!
//! The negative-sampling distribution "depends on the number of appearances
//! of each node in the entire RW" (paper §3.1), so the corpus keeps a
//! running appearance count as walks stream in. For the "all" scenario the
//! corpus is filled with `r` walks per node up front; for the "seq" scenario
//! walks arrive two at a time (both ends of each inserted edge).
//!
//! Beside the counts the corpus retains a bounded *tail* of the most recent
//! appearances, in recording order. "A node ∝ its appearance count" is "one
//! recorded appearance, uniformly", so a [`crate::NegativeTable`] that was
//! exact at appearance number `c` becomes exact again by copying
//! `recorded_since(c)` — O(walk length) per edge instead of an O(#nodes)
//! rebuild. The tail always holds the last `max(n, 1 024)` appearances and
//! is trimmed back to that once it reaches twice as many: ≤ 2·max(n, 1 024)
//! ids (8 n bytes), O(1) amortised per recorded id. A cursor the tail no
//! longer reaches is answered with `None`, and the table rebuilds from the
//! counts.

use crate::rng::Rng64;
use crate::walk::{WalkGraph, Walker};
use seqge_graph::NodeId;

/// Accumulated walks and per-node appearance counts.
#[derive(Debug, Clone)]
pub struct WalkCorpus {
    counts: Vec<u64>,
    total: u64,
    walks_stored: usize,
    /// The last `tail.len()` appearances recorded, oldest first.
    tail: Vec<NodeId>,
}

impl WalkCorpus {
    /// Empty corpus over `n` nodes.
    pub fn new(num_nodes: usize) -> Self {
        WalkCorpus { counts: vec![0; num_nodes], total: 0, walks_stored: 0, tail: Vec::new() }
    }

    /// Records one walk's node appearances.
    pub fn record(&mut self, walk: &[NodeId]) {
        for &u in walk {
            self.counts[u as usize] += 1;
        }
        self.total += walk.len() as u64;
        self.walks_stored += 1;
        // Trim back to the last `keep` only once twice as many have piled up.
        let keep = self.counts.len().max(1024);
        if self.tail.len() + walk.len() > 2 * keep {
            self.tail.drain(..self.tail.len().saturating_sub(keep));
        }
        self.tail.extend_from_slice(walk);
    }

    /// The appearances recorded after the first `cursor` ones, in order, or
    /// `None` when the tail no longer reaches back that far (or `cursor` is
    /// ahead of this corpus).
    pub(crate) fn recorded_since(&self, cursor: u64) -> Option<&[NodeId]> {
        let back = usize::try_from(self.total.checked_sub(cursor)?).ok()?;
        Some(&self.tail[self.tail.len().checked_sub(back)?..])
    }

    /// Per-node appearance counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total node appearances.
    pub fn total_appearances(&self) -> u64 {
        self.total
    }

    /// Number of recorded walks.
    pub fn num_walks(&self) -> usize {
        self.walks_stored
    }

    /// Appearance counts as weights for the negative table. Nodes never seen
    /// get weight 0 (they cannot be drawn as negatives, matching word2vec
    /// practice of sampling from the observed unigram distribution).
    pub fn frequency_weights(&self) -> Vec<f64> {
        self.counts.iter().map(|&c| c as f64).collect()
    }
}

/// Generates the full "all"-scenario corpus: `walks_per_node` walks from
/// every node, recording each into the returned corpus. Returns the walks
/// too (the trainer consumes them in order).
pub fn generate_corpus<G: WalkGraph>(
    csr: &G,
    walker: &mut Walker,
    rng: &mut Rng64,
) -> (WalkCorpus, Vec<Vec<NodeId>>) {
    let n = csr.num_nodes();
    let r = walker.params().walks_per_node;
    let mut corpus = WalkCorpus::new(n);
    let mut walks = Vec::with_capacity(n * r);
    let mut buf: Vec<NodeId> = Vec::with_capacity(walker.params().walk_length);
    for _ in 0..r {
        for u in 0..n as NodeId {
            walker.walk_into(csr, u, rng, &mut buf);
            if buf.len() < 2 {
                continue; // isolated node: nothing to train
            }
            corpus.record(&buf);
            walks.push(buf.clone());
        }
    }
    (corpus, walks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::walk::Node2VecParams;
    use seqge_graph::generators::classic::ring;
    use seqge_graph::Graph;

    #[test]
    fn record_counts_appearances() {
        let mut c = WalkCorpus::new(5);
        c.record(&[0, 1, 0, 2]);
        c.record(&[2, 2]);
        assert_eq!(c.counts(), &[2, 1, 3, 0, 0]);
        assert_eq!(c.total_appearances(), 6);
        assert_eq!(c.num_walks(), 2);
        assert_eq!(c.frequency_weights(), vec![2.0, 1.0, 3.0, 0.0, 0.0]);
    }

    #[test]
    fn tail_answers_recent_cursors_and_stays_bounded() {
        let mut c = WalkCorpus::new(5);
        assert_eq!(c.recorded_since(0), Some(&[][..]));
        c.record(&[0, 1, 0, 2]);
        c.record(&[2, 2]);
        assert_eq!(c.recorded_since(0), Some(&[0, 1, 0, 2, 2, 2][..]));
        assert_eq!(c.recorded_since(4), Some(&[2, 2][..]));
        assert_eq!(c.recorded_since(6), Some(&[][..]));
        assert_eq!(c.recorded_since(7), None, "a cursor from a longer corpus");
        // 5 nodes keep max(5, 1 024) appearances, trimmed at twice that.
        for i in 0..1_000u32 {
            c.record(&[i % 5; 7]);
            assert!(c.tail.len() <= 2 * 1024);
            let total = c.total_appearances();
            let last = c.recorded_since(total - 1024.min(total)).expect("the tail keeps 1 024");
            assert_eq!(last[last.len() - 7..], [i % 5; 7]);
        }
        assert_eq!(c.recorded_since(0), None);
        assert_eq!(c.counts().iter().sum::<u64>(), c.total_appearances());
    }

    #[test]
    fn generate_corpus_counts_match_walk_lengths() {
        let csr = ring(12).to_csr();
        let params = Node2VecParams { walk_length: 10, walks_per_node: 3, ..Default::default() };
        let mut walker = Walker::new(params);
        let mut rng = Rng64::seed_from_u64(4);
        let (corpus, walks) = generate_corpus(&csr, &mut walker, &mut rng);
        assert_eq!(walks.len(), 12 * 3);
        assert!(walks.iter().all(|w| w.len() == 10));
        assert_eq!(corpus.total_appearances(), 12 * 3 * 10);
        // Every node appears at least walks_per_node times (it starts them).
        assert!(corpus.counts().iter().all(|&c| c >= 3));
    }

    #[test]
    fn isolated_nodes_are_skipped() {
        let mut g = Graph::with_nodes(4);
        g.add_edge(0, 1).unwrap();
        let csr = g.to_csr();
        let params = Node2VecParams { walk_length: 5, walks_per_node: 2, ..Default::default() };
        let mut walker = Walker::new(params);
        let mut rng = Rng64::seed_from_u64(1);
        let (corpus, walks) = generate_corpus(&csr, &mut walker, &mut rng);
        assert_eq!(walks.len(), 4); // only nodes 0 and 1 walk, twice each
        assert_eq!(corpus.counts()[2], 0);
        assert_eq!(corpus.counts()[3], 0);
    }
}
