//! BRAM weight-tile model.
//!
//! §3.2: "only weights necessary for training are implemented on BRAM cells
//! … weights necessary for training (e.g., β) are transferred from DRAM to
//! BRAM", and the same negative samples are reused across a walk "to reduce
//! the data transfer between DRAM and BRAM". This module tracks which β
//! columns are resident on chip and replays the kernel's column access
//! stream through it ([`TileManager::replay`]), so the negative-share
//! ablation can quantify exactly the traffic the paper's trick saves. The
//! training kernel keeps no tile: nothing it computes depends on residency.

use crate::build::Build;
use seqge_core::model::NegativeDraw;
use seqge_core::ModelConfig;
use seqge_graph::NodeId;
use seqge_sampling::{context_windows, NegativeTable, Rng64};
use std::collections::VecDeque;

/// Column-granular tile cache with FIFO replacement.
#[derive(Debug, Clone)]
pub struct TileManager {
    /// Column → resident flag; grown on demand.
    resident: Vec<bool>,
    /// The resident columns in insertion order (front = next eviction).
    queue: VecDeque<NodeId>,
    /// Maximum resident columns.
    capacity: usize,
    /// DRAM column fetches (misses).
    pub misses: u64,
    /// On-chip hits.
    pub hits: u64,
}

impl TileManager {
    /// A tile holding at most `capacity` columns.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "tile capacity must be positive");
        TileManager { resident: Vec::new(), queue: VecDeque::new(), capacity, misses: 0, hits: 0 }
    }

    /// The weight cache of `build`: [`Build::cache_banks`] banks of
    /// `dim`-wide 32-bit columns (BRAM36 = 4 KiB usable per bank at 32-bit
    /// width).
    pub fn for_build(build: &Build) -> Self {
        Self::new((build.cache_banks as usize * 4096 / (build.dim * 4)).max(1))
    }

    /// Touches a column; returns `true` on a hit, fetching (and possibly
    /// evicting) on a miss.
    pub fn touch(&mut self, col: NodeId) -> bool {
        if col as usize >= self.resident.len() {
            self.resident.resize(col as usize + 1, false);
        }
        if self.resident[col as usize] {
            self.hits += 1;
            return true;
        }
        self.misses += 1;
        if self.queue.len() == self.capacity {
            let oldest = self.queue.pop_front().expect("capacity is positive");
            self.resident[oldest as usize] = false;
        }
        self.resident[col as usize] = true;
        self.queue.push_back(col);
        false
    }

    /// Hit rate over all touches.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Touches the β columns that training `walks` under `model` reads, in
    /// the accelerator kernel's order: per context the center, then each
    /// positive followed by its negatives. The negatives come off `rng`
    /// through [`NegativeDraw`] as a model in `model.negative_mode` draws
    /// them, and a walk without contexts draws nothing, as in the kernel — so
    /// a replay on a clone of a training run's RNG sees that run's columns.
    pub fn replay<W: AsRef<[NodeId]>>(
        &mut self,
        walks: impl IntoIterator<Item = W>,
        model: &ModelConfig,
        table: &NegativeTable,
        rng: &mut Rng64,
    ) {
        let mut draw = NegativeDraw::new(model);
        for walk in walks {
            let walk = walk.as_ref();
            let windows = context_windows(walk, model.window);
            if windows.len() == 0 {
                continue;
            }
            draw.begin_walk(walk, table, rng);
            for (center, positives) in windows {
                self.touch(center);
                for &pos in positives {
                    self.touch(pos);
                    for &neg in draw.for_positive(pos, table, rng) {
                        self.touch(neg);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Accelerator;
    use seqge_core::model::EmbeddingModel;
    use seqge_core::OsElmConfig;
    use seqge_sampling::{UpdatePolicy, WalkCorpus};

    #[test]
    fn misses_then_hits() {
        let mut t = TileManager::new(4);
        assert!(!t.touch(1));
        assert!(!t.touch(2));
        assert!(t.touch(1));
        assert_eq!(t.misses, 2);
        assert_eq!(t.hits, 1);
    }

    #[test]
    fn eviction_at_capacity() {
        let mut t = TileManager::new(2);
        t.touch(1);
        t.touch(2);
        assert!(!t.touch(3)); // evicts 1 (FIFO)
        assert!(t.touch(2), "the newer column stays resident");
        assert!(!t.touch(1), "evicted column must miss");
    }

    #[test]
    fn repeated_touch_does_not_duplicate() {
        let mut t = TileManager::new(2);
        for _ in 0..10 {
            t.touch(7);
        }
        // One queue slot for 7, so a second column evicts nothing.
        t.touch(8);
        assert!(t.touch(7));
        assert_eq!((t.misses, t.hits), (2, 10));
    }

    #[test]
    fn from_banks_capacity() {
        // 127 banks × 4 KiB / (32 dims × 4 B) = 4064 columns.
        let d32 = Build::for_dim(32).unwrap();
        assert_eq!(TileManager::for_build(&Build { cache_banks: 127, ..d32 }).capacity, 4064);
        assert_eq!(TileManager::for_build(&d32).capacity, 4064, "the d = 32 build has 127 banks");
    }

    #[test]
    fn shared_negatives_raise_hit_rate() {
        // The paper's trick: same 10 negatives reused per context vs fresh
        // ones — model both access streams and compare hit rates.
        let mut shared = TileManager::new(64);
        let mut fresh = TileManager::new(64);
        let negs_shared: Vec<NodeId> = (1000..1010).collect();
        let mut next_fresh = 2000u32;
        for ctx in 0..73u32 {
            for t in [&mut shared, &mut fresh] {
                t.touch(ctx); // center
            }
            for _ in 0..7 {
                for n in &negs_shared {
                    shared.touch(*n);
                }
                for _ in 0..10 {
                    fresh.touch(next_fresh % 3000);
                    next_fresh = next_fresh.wrapping_mul(1103515245).wrapping_add(12345);
                }
            }
        }
        assert!(
            shared.hit_rate() > fresh.hit_rate() + 0.3,
            "shared {} vs fresh {}",
            shared.hit_rate(),
            fresh.hit_rate()
        );
    }

    #[test]
    fn tile_reuse_is_observed() {
        // A replay on a clone of the kernel's RNG consumes exactly the
        // kernel's draws, and the walk's shared negatives hit the tile.
        let mut corpus = WalkCorpus::new(30);
        corpus.record(&(0..30).collect::<Vec<NodeId>>());
        let mut table = NegativeTable::new(UpdatePolicy::every_edge());
        table.rebuild(&corpus);
        let mut acc = Accelerator::new(30, OsElmConfig::paper_defaults(8));
        let walk: Vec<NodeId> = (0..20).collect();
        let mut rng = Rng64::seed_from_u64(2);
        let mut replay_rng = rng.clone();
        acc.train_walk(&walk, &table, &mut rng);
        let mut tile = TileManager::new(64);
        tile.replay([&walk], &acc.config().model, &table, &mut replay_rng);
        assert_eq!(rng.next_u64(), replay_rng.next_u64());
        assert!(tile.hits > 0, "shared negatives must hit the tile");
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        TileManager::new(0);
    }
}
