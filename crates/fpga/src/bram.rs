//! BRAM weight-tile manager.
//!
//! §3.2: "only weights necessary for training are implemented on BRAM cells
//! … weights necessary for training (e.g., β) are transferred from DRAM to
//! BRAM", and the same negative samples are reused across a walk "to reduce
//! the data transfer between DRAM and BRAM". This module tracks which β
//! columns are resident on chip and counts DRAM fetches, so the
//! negative-share ablation can quantify exactly the traffic the paper's
//! trick saves.

use seqge_graph::NodeId;
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
    /// Columns written back on eviction or flush.
    pub writebacks: u64,
}

impl TileManager {
    /// A tile holding at most `capacity` columns.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "tile capacity must be positive");
        TileManager {
            resident: Vec::new(),
            queue: VecDeque::new(),
            capacity,
            misses: 0,
            hits: 0,
            writebacks: 0,
        }
    }

    /// Capacity for a `banks`-bank cache of `dim`-wide f32 columns
    /// (BRAM36 = 4 KiB usable per bank at 32-bit width).
    pub fn from_banks(banks: u32, dim: usize) -> Self {
        let bytes = banks as usize * 4096;
        Self::new((bytes / (dim * 4)).max(1))
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
            self.writebacks += 1;
        }
        self.resident[col as usize] = true;
        self.queue.push_back(col);
        false
    }

    /// Flushes everything resident back to DRAM (end of training).
    pub fn flush(&mut self) {
        self.writebacks += self.queue.len() as u64;
        for col in self.queue.drain(..) {
            self.resident[col as usize] = false;
        }
    }

    /// Currently resident column count.
    pub fn resident_count(&self) -> usize {
        self.queue.len()
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
}

#[cfg(test)]
mod tests {
    use super::*;

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
        t.touch(3); // evicts 1 (FIFO)
        assert_eq!(t.resident_count(), 2);
        assert!(!t.touch(1), "evicted column must miss");
        assert!(t.writebacks >= 1);
    }

    #[test]
    fn repeated_touch_does_not_duplicate() {
        let mut t = TileManager::new(3);
        for _ in 0..10 {
            t.touch(7);
        }
        assert_eq!(t.resident_count(), 1);
        assert_eq!(t.misses, 1);
        assert_eq!(t.hits, 9);
    }

    #[test]
    fn flush_writes_back_residents() {
        let mut t = TileManager::new(8);
        t.touch(1);
        t.touch(2);
        t.flush();
        assert_eq!(t.resident_count(), 0);
        assert_eq!(t.writebacks, 2);
    }

    #[test]
    fn from_banks_capacity() {
        // 127 banks × 4 KiB / (32 dims × 4 B) = 4064 columns.
        let t = TileManager::from_banks(127, 32);
        assert_eq!(t.capacity, 4064);
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
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        TileManager::new(0);
    }
}
