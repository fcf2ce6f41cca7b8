//! Negative sampling: a Walker alias table kept exact between rebuilds.
//!
//! §3.1: negatives are drawn with frequency proportional to each node's
//! appearance count in the walk corpus, via Walker's alias method. Because a
//! table rebuild is O(#nodes), the paper studies how often to rebuild as the
//! graph grows (Fig. 7: every 1 edge ≈ every 100 ≫ every 10 000 ≈ never).
//! [`UpdatePolicy`] encodes that knob: at each policy *tick* the sampler
//! catches up with the corpus, and between ticks it does not move.
//!
//! **Invariant.** After every tick and every [`NegativeTable::rebuild`], a
//! draw returns node `v` with probability `counts[v] / total` of the corpus
//! as of that call — exactly what a table rebuilt at that instant would
//! give (to the alias table's f32 resolution).
//!
//! A tick does not pay the O(#nodes) build to get there. Drawing a node ∝
//! its appearance count *is* drawing one recorded appearance uniformly, so
//! the table keeps its alias table frozen at the `T₀` appearances it was
//! built from, plus a log of the `L` node ids recorded since
//! (`WalkCorpus::recorded_since`, ≈ 160 per edge). A draw takes a uniform
//! log entry with probability `L / (T₀ + L)` and the alias table otherwise:
//! still O(1), at most two RNG words, no allocation. With an empty log that
//! is the alias draw alone — same RNG word, same outcome as a table that
//! never had a log — which is all a build-once caller ever sees.
//!
//! **Compaction.** The full build is still here, as the compaction step: a
//! tick falls back to it when the log would pass `n` entries (the table's
//! outcome count) or the corpus tail no longer reaches back to the cursor
//! `T₀ + L`. Under the paper's default that is once per ≈ n / 160 edges, and
//! on every tick for a period of 10 000 edges, as before. Memory: log ≤ n
//! ids and corpus tail ≤ 2·max(n, 1 024) ids — ≤ 12 n bytes beside the
//! 8 n-byte alias table (0.6 MB at n = 50 000).
//!
//! The state is a pure function of the `record` / `rebuild` /
//! `on_edge_inserted` call sequence. A corpus swapped for another must be
//! followed by `rebuild`, which re-reads everything — counts and cursor —
//! from the corpus it is handed.

use crate::alias::AliasTable;
use crate::corpus::WalkCorpus;
use crate::rng::Rng64;
use seqge_graph::NodeId;

/// How often the sampling table catches up with the corpus during
/// sequential training, measured in inserted edges (Fig. 7's x-axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum UpdatePolicy {
    /// Tick after every `k` inserted edges (`k ≥ 1`).
    EveryEdges(u64),
    /// Never again once first built ("no_change" in Fig. 7).
    Never,
}

impl UpdatePolicy {
    /// The paper's default: the sampler follows the corpus on every edge.
    pub fn every_edge() -> Self {
        UpdatePolicy::EveryEdges(1)
    }
}

/// Negative-sampling table over the walk corpus's node frequencies.
#[derive(Debug, Clone)]
pub struct NegativeTable {
    /// Alias table over the counts as of the last full build.
    table: Option<AliasTable>,
    /// `T₀`: the appearances `table` was built from.
    built_from: u64,
    /// The appearances recorded between the last full build and the last
    /// tick, oldest first; never longer than `table`.
    log: Vec<NodeId>,
    policy: UpdatePolicy,
    edges_since_rebuild: u64,
    rebuilds: u64,
}

impl NegativeTable {
    /// Creates an empty table with the given update policy.
    pub fn new(policy: UpdatePolicy) -> Self {
        if let UpdatePolicy::EveryEdges(k) = policy {
            assert!(k >= 1, "rebuild period must be at least 1 edge");
        }
        NegativeTable {
            table: None,
            built_from: 0,
            log: Vec::new(),
            policy,
            edges_since_rebuild: 0,
            rebuilds: 0,
        }
    }

    /// Unconditional full build from the corpus frequencies: the log is
    /// emptied and the cursor moves to the end of `corpus`, whichever corpus
    /// the table followed before. While `corpus` has no appearances yet the
    /// alias table itself is left as it was.
    pub fn rebuild(&mut self, corpus: &WalkCorpus) {
        self.log.clear();
        self.built_from = corpus.total_appearances();
        if self.built_from == 0 {
            return;
        }
        self.table = Some(AliasTable::new(&corpus.frequency_weights()));
        self.edges_since_rebuild = 0;
        self.rebuilds += 1;
    }

    /// Notifies the table that one edge was inserted; ticks if the policy
    /// says so, and returns whether it did. A tick copies what `corpus`
    /// recorded since the last one into the log, or — when the log is full,
    /// the corpus tail is too short, or nothing was ever built — runs
    /// [`rebuild`](Self::rebuild).
    pub fn on_edge_inserted(&mut self, corpus: &WalkCorpus) -> bool {
        self.edges_since_rebuild += 1;
        let tick = match self.policy {
            UpdatePolicy::EveryEdges(k) => self.edges_since_rebuild >= k,
            // Never: build once on the first opportunity, then freeze.
            UpdatePolicy::Never => self.table.is_none(),
        };
        // A tick on an empty corpus is as much of a no-op as `rebuild` on one.
        if tick && corpus.total_appearances() > 0 {
            let room = self.table.as_ref().map_or(0, |t| t.len() - self.log.len());
            let cursor = self.built_from + self.log.len() as u64;
            match corpus.recorded_since(cursor).filter(|new| new.len() <= room) {
                Some(new) => {
                    self.log.extend_from_slice(new);
                    self.edges_since_rebuild = 0;
                    self.rebuilds += 1;
                }
                None => self.rebuild(corpus),
            }
        }
        tick
    }

    /// Whether the table has been built at least once.
    pub fn is_ready(&self) -> bool {
        self.table.is_some()
    }

    /// Number of ticks and explicit rebuilds so far that found a non-empty
    /// corpus (telemetry for the Fig. 7 harness).
    pub fn rebuild_count(&self) -> u64 {
        self.rebuilds
    }

    /// Draws one negative node, resampling while the draw collides with
    /// `avoid` (the positive sample — word2vec's convention).
    ///
    /// # Panics
    /// If the table has never been built.
    pub fn sample(&self, avoid: NodeId, rng: &mut Rng64) -> NodeId {
        let table = self.table.as_ref().expect("negative table not built yet");
        // A collision-only table (single outcome == avoid) would spin; cap
        // retries and accept the collision then, which only happens on
        // degenerate 1-node corpora.
        for _ in 0..64 {
            let v = self.draw(table, rng);
            if v != avoid {
                return v;
            }
        }
        self.draw(table, rng)
    }

    /// One of the `T₀ + L` appearances, uniformly: the first `L` are the
    /// log's, the rest are the alias table's to hand out.
    #[inline]
    fn draw(&self, table: &AliasTable, rng: &mut Rng64) -> NodeId {
        if !self.log.is_empty() {
            let appearances = self.built_from + self.log.len() as u64;
            let i = ((rng.next_u64() as u128 * appearances as u128) >> 64) as u64;
            if i < self.log.len() as u64 {
                return self.log[i as usize];
            }
        }
        table.sample(rng) as NodeId
    }

    /// Draws `k` negatives into `out` (cleared first).
    pub fn sample_into(&self, k: usize, avoid: NodeId, rng: &mut Rng64, out: &mut Vec<NodeId>) {
        out.clear();
        for _ in 0..k {
            out.push(self.sample(avoid, rng));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus_with(counts: &[u64]) -> WalkCorpus {
        let mut c = WalkCorpus::new(counts.len());
        // Record synthetic walks producing exactly these counts.
        for (node, &k) in counts.iter().enumerate() {
            for _ in 0..k {
                c.record(&[node as NodeId]);
            }
        }
        c
    }

    impl NegativeTable {
        /// The outcome probabilities `(alias table, T₀, log)` encode.
        fn distribution(&self) -> Vec<f64> {
            let mut p = self.table.as_ref().expect("built").distribution();
            if !self.log.is_empty() {
                let appearances = (self.built_from + self.log.len() as u64) as f64;
                p.iter_mut().for_each(|p| *p *= self.built_from as f64 / appearances);
                self.log.iter().for_each(|&v| p[v as usize] += 1.0 / appearances);
            }
            p
        }
    }

    /// `t` draws ∝ `corpus`'s counts, like a table built from it this instant.
    pub(super) fn assert_follows(t: &NegativeTable, corpus: &WalkCorpus) {
        let mut fresh = NegativeTable::new(UpdatePolicy::Never);
        fresh.rebuild(corpus);
        let total = corpus.total_appearances() as f64;
        for (v, ((&got, &rebuilt), &count)) in
            t.distribution().iter().zip(&fresh.distribution()).zip(corpus.counts()).enumerate()
        {
            assert!(
                (got - count as f64 / total).abs() < 1e-6,
                "node {v}: {got} vs {count}/{total}"
            );
            assert!((got - rebuilt).abs() < 1e-6, "node {v}: {got} vs rebuilt {rebuilt}");
        }
    }

    /// A walk of `len` nodes below `n`, skewed towards the low ids.
    fn walk(n: usize, len: usize, rng: &mut Rng64) -> Vec<NodeId> {
        (0..len).map(|_| (rng.gen_index(n) * rng.gen_index(n) / n) as NodeId).collect()
    }

    /// One ingest the way `IncrementalTrainer` spells it: two walks, a tick.
    fn ingest(t: &mut NegativeTable, corpus: &mut WalkCorpus, len: usize, rng: &mut Rng64) -> bool {
        for _ in 0..2 {
            corpus.record(&walk(corpus.counts().len(), len, rng));
        }
        t.on_edge_inserted(corpus)
    }

    #[test]
    fn rebuild_then_sample_respects_frequencies() {
        let corpus = corpus_with(&[0, 10, 30, 60]);
        let mut t = NegativeTable::new(UpdatePolicy::every_edge());
        t.rebuild(&corpus);
        let mut rng = Rng64::seed_from_u64(0);
        let mut counts = [0usize; 4];
        for _ in 0..100_000 {
            counts[t.sample(u32::MAX, &mut rng) as usize] += 1;
        }
        assert_eq!(counts[0], 0, "zero-frequency node drawn as negative");
        let f3 = counts[3] as f64 / 100_000.0;
        assert!((f3 - 0.6).abs() < 0.01, "freq {f3}");
    }

    #[test]
    fn avoid_is_never_returned() {
        let mut corpus = corpus_with(&[5, 5]);
        let mut t = NegativeTable::new(UpdatePolicy::every_edge());
        t.rebuild(&corpus);
        let mut rng = Rng64::seed_from_u64(1);
        // From the alias table alone, then with a log holding `avoid` too.
        for log in [&[][..], &[1, 0]] {
            corpus.record(log);
            t.on_edge_inserted(&corpus);
            assert_eq!(t.log, log);
            for _ in 0..1000 {
                assert_ne!(t.sample(1, &mut rng), 1);
            }
        }
    }

    #[test]
    fn policy_every_k_edges() {
        let corpus = corpus_with(&[1, 1, 1]);
        let mut t = NegativeTable::new(UpdatePolicy::EveryEdges(3));
        assert!(!t.on_edge_inserted(&corpus));
        assert!(!t.on_edge_inserted(&corpus));
        assert!(t.on_edge_inserted(&corpus)); // third edge triggers
        assert_eq!(t.rebuild_count(), 1);
        assert!(!t.on_edge_inserted(&corpus));
    }

    #[test]
    fn policy_never_builds_once() {
        let corpus = corpus_with(&[1, 2]);
        let mut t = NegativeTable::new(UpdatePolicy::Never);
        assert!(t.on_edge_inserted(&corpus)); // first build
        assert_eq!(t.rebuild_count(), 1);
        for _ in 0..10 {
            assert!(!t.on_edge_inserted(&corpus));
        }
        assert_eq!(t.rebuild_count(), 1);
    }

    #[test]
    fn empty_corpus_defers_build() {
        let corpus = WalkCorpus::new(3);
        let mut t = NegativeTable::new(UpdatePolicy::every_edge());
        t.rebuild(&corpus);
        assert!(!t.is_ready());
    }

    #[test]
    fn every_tick_follows_the_corpus_exactly() {
        let n = 300;
        let mut rng = Rng64::seed_from_u64(3);
        let mut corpus = WalkCorpus::new(n);
        let mut t = NegativeTable::new(UpdatePolicy::every_edge());
        for _ in 0..40 {
            assert!(ingest(&mut t, &mut corpus, 20, &mut rng));
            assert_follows(&t, &corpus);
        }
        assert!(!t.log.is_empty(), "the stream above must exercise the log");
        // The draws agree with the encoded distribution, hub and tail alike.
        let p = t.distribution();
        let mut hits = vec![0usize; n];
        for _ in 0..200_000 {
            hits[t.sample(u32::MAX, &mut rng) as usize] += 1;
        }
        for v in [0, 1, 5, 40] {
            let f = hits[v] as f64 / 200_000.0;
            assert!((f - p[v]).abs() < 0.005, "node {v}: drew {f}, encoded {}", p[v]);
        }
    }

    #[test]
    fn sampler_sees_the_counts_as_of_the_last_tick() {
        let mut rng = Rng64::seed_from_u64(4);
        let mut corpus = corpus_with(&[4, 4, 4, 0]);
        let mut t = NegativeTable::new(UpdatePolicy::EveryEdges(3));
        t.rebuild(&corpus);
        // Node 3 first appears after the build: invisible until the third edge.
        corpus.record(&[3, 3, 3, 3]);
        for _ in 0..2 {
            assert!(!t.on_edge_inserted(&corpus));
            assert_eq!(t.distribution()[3], 0.0);
            assert!((0..2_000).all(|_| t.sample(u32::MAX, &mut rng) != 3));
        }
        assert!(t.on_edge_inserted(&corpus));
        assert_follows(&t, &corpus);
        assert!((0..2_000).any(|_| t.sample(u32::MAX, &mut rng) == 3));

        let mut never = NegativeTable::new(UpdatePolicy::Never);
        assert!(never.on_edge_inserted(&corpus));
        let built = never.distribution();
        for _ in 0..5 {
            assert!(!ingest(&mut never, &mut corpus, 2, &mut rng));
            assert!(never.log.is_empty());
            assert_eq!(never.distribution(), built);
        }
    }

    #[test]
    fn full_log_compacts_with_one_build() {
        // 160 appearances per tick, the serving shape: six ticks fit under
        // n = 1 000, the seventh is the full build.
        let n = 1_000;
        let mut rng = Rng64::seed_from_u64(5);
        let mut corpus = WalkCorpus::new(n);
        let mut t = NegativeTable::new(UpdatePolicy::every_edge());
        let mut since_build = 0;
        for tick in 1..=50u64 {
            assert!(ingest(&mut t, &mut corpus, 80, &mut rng));
            assert_eq!(t.rebuild_count(), tick);
            assert_follows(&t, &corpus);
            if t.log.is_empty() {
                assert_eq!(t.built_from, corpus.total_appearances());
                assert!(tick == 1 || since_build == n / 160, "built after {since_build} ticks");
                since_build = 0;
            } else {
                since_build += 1;
                assert_eq!(t.log.len(), since_build * 160);
                assert!(t.log.len() <= n);
            }
        }
    }

    #[test]
    fn period_outrunning_the_tail_rebuilds() {
        // 30 edges × 160 appearances is more than the 2·1 024 the tail of a
        // 200-node corpus ever holds (and more than the log's 200).
        let mut rng = Rng64::seed_from_u64(6);
        let mut corpus = WalkCorpus::new(200);
        let mut t = NegativeTable::new(UpdatePolicy::EveryEdges(30));
        for edge in 1..=90 {
            let cursor = t.built_from;
            if ingest(&mut t, &mut corpus, 80, &mut rng) {
                assert_eq!(edge % 30, 0);
                assert_eq!(corpus.recorded_since(cursor), None);
                assert!(t.log.is_empty());
                assert_follows(&t, &corpus);
            }
        }
        assert_eq!(t.rebuild_count(), 3);
    }

    #[test]
    fn clone_fed_the_same_calls_draws_the_same_stream() {
        let mut rng = Rng64::seed_from_u64(7);
        let mut corpus = WalkCorpus::new(400);
        let mut a = NegativeTable::new(UpdatePolicy::EveryEdges(2));
        for _ in 0..7 {
            ingest(&mut a, &mut corpus, 30, &mut rng);
        }
        let (mut b, mut corpus_b) = (a.clone(), corpus.clone());
        let (mut logged, mut compacted) = (false, false);
        for _ in 0..20 {
            let w = walk(400, 30, &mut rng);
            corpus.record(&w);
            corpus_b.record(&w);
            assert_eq!(a.on_edge_inserted(&corpus), b.on_edge_inserted(&corpus_b));
            let (mut ra, mut rb) = (rng.clone(), rng.clone());
            for _ in 0..50 {
                assert_eq!(a.sample(0, &mut ra), b.sample(0, &mut rb));
            }
            assert_eq!(ra, rb);
            logged |= !a.log.is_empty();
            compacted |= logged && a.log.is_empty();
        }
        assert!(logged && compacted, "the stream above must cross a compaction");
    }

    #[test]
    fn swapped_corpus_is_read_from_its_own_start() {
        // `IncrementalTrainer::refresh`: its corpus pass replaces the corpus,
        // `rebuild` follows. The old corpus is the longer one, so a cursor
        // kept across the swap would point past the new one's end.
        let mut rng = Rng64::seed_from_u64(8);
        let mut corpus = WalkCorpus::new(300);
        let mut t = NegativeTable::new(UpdatePolicy::every_edge());
        for _ in 0..4 {
            ingest(&mut t, &mut corpus, 40, &mut rng);
        }
        assert_eq!(t.log.len(), 240);
        corpus = corpus_with(&[0, 0, 7, 1]);
        t.rebuild(&corpus);
        assert!(t.log.is_empty());
        assert_eq!(t.distribution(), [0.0, 0.0, 0.875, 0.125]);
        corpus.record(&[0, 0]);
        assert!(t.on_edge_inserted(&corpus));
        assert_eq!(t.log, [0, 0]);
        assert_follows(&t, &corpus);

        // An edgeless graph resamples to an empty corpus: the old alias
        // table stays (as it always did), but the cursor is the new
        // corpus's, so the next tick reads the new appearances and no others.
        corpus = WalkCorpus::new(4);
        t.rebuild(&corpus);
        assert_eq!(t.distribution(), [0.0, 0.0, 0.875, 0.125]);
        corpus.record(&[1, 3]);
        assert!(t.on_edge_inserted(&corpus));
        assert_follows(&t, &corpus);
    }

    #[test]
    fn sample_into_fills_k() {
        let corpus = corpus_with(&[3, 3, 3]);
        let mut t = NegativeTable::new(UpdatePolicy::every_edge());
        t.rebuild(&corpus);
        let mut rng = Rng64::seed_from_u64(2);
        let mut out = Vec::new();
        t.sample_into(10, 0, &mut rng, &mut out);
        assert_eq!(out.len(), 10);
        assert!(out.iter().all(|&v| v != 0));
    }

    #[test]
    #[should_panic(expected = "not built")]
    fn sampling_before_build_panics() {
        let t = NegativeTable::new(UpdatePolicy::Never);
        let mut rng = Rng64::seed_from_u64(0);
        t.sample(0, &mut rng);
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::assert_follows;
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Over any interleaving of walks and edges, under any policy, the
        /// sampler encodes the corpus counts as of the last tick — log
        /// appends, compactions and the first build alike — and does not
        /// move in between.
        #[test]
        fn sampler_is_the_corpus_as_of_the_last_tick(
            n in 2usize..60,
            period in prop_oneof![Just(None), (1u64..5).prop_map(Some)],
            walks in proptest::collection::vec((proptest::collection::vec(0u32..60, 1..25), any::<bool>()), 1..80),
        ) {
            let mut t = NegativeTable::new(period.map_or(UpdatePolicy::Never, UpdatePolicy::EveryEdges));
            let mut corpus = WalkCorpus::new(n);
            let mut at_tick = corpus.clone();
            for (walk, edge) in walks {
                let walk: Vec<NodeId> = walk.into_iter().map(|v| v % n as NodeId).collect();
                corpus.record(&walk);
                if edge && t.on_edge_inserted(&corpus) {
                    at_tick = corpus.clone();
                }
                if t.is_ready() {
                    prop_assert!(t.log.len() <= n);
                    assert_follows(&t, &at_tick);
                }
            }
        }
    }
}
