//! Streamed stochastic-block-model synthesis for serving benchmarks and
//! load generation.
//!
//! The materializing generator in `seqge-graph` builds the full adjacency
//! up front — fine at paper scale, hopeless at 10^6 nodes on a CI box.
//! [`SbmStream`] streams in O(1) memory instead: an edge iterator drawing
//! from a planted-partition SBM with *striped* block assignment
//! (`block(v) = v % blocks`), so the cluster's residue-class sharding
//! spreads every community evenly across shards rather than handing whole
//! communities to one shard.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters of a streamed planted-partition SBM.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SbmStreamParams {
    /// Nodes (block of `v` is `v % blocks`).
    pub nodes: usize,
    /// Edges the stream emits before ending.
    pub edges: usize,
    /// Communities.
    pub blocks: usize,
    /// Probability that an edge stays inside its endpoint's block.
    pub intra: f64,
    /// Stream seed (same seed → same edge sequence).
    pub seed: u64,
}

impl SbmStreamParams {
    /// A planted partition at `nodes` scale: 16 edges per node on average,
    /// `blocks ≈ √nodes` capped to keep blocks ≥ 64 nodes, 80% intra.
    pub fn sized(nodes: usize, seed: u64) -> Self {
        let blocks = ((nodes as f64).sqrt() as usize).clamp(2, (nodes / 64).max(2));
        SbmStreamParams { nodes, edges: nodes * 16, blocks, intra: 0.8, seed }
    }
}

/// The edge stream itself — `Iterator<Item = (u32, u32)>`, O(1) state.
#[derive(Debug)]
pub struct SbmStream {
    params: SbmStreamParams,
    rng: StdRng,
    emitted: usize,
}

impl SbmStream {
    /// Starts the stream (deterministic in `params.seed`).
    pub fn new(params: SbmStreamParams) -> Self {
        assert!(params.nodes >= 2 * params.blocks, "need ≥ 2 nodes per block");
        assert!(params.blocks >= 2, "need ≥ 2 blocks");
        let rng = StdRng::seed_from_u64(params.seed);
        SbmStream { params, rng, emitted: 0 }
    }

    /// The generating parameters.
    pub fn params(&self) -> &SbmStreamParams {
        &self.params
    }

    /// A peer of `u` inside its own block (never `u` itself): same residue
    /// class mod `blocks`, uniform over the block's other members.
    fn intra_peer(&mut self, u: u32) -> u32 {
        let b = self.params.blocks as u32;
        let block_size = ((self.params.nodes as u32 - 1 - u % b) / b) + 1;
        loop {
            let v = u % b + b * self.rng.gen_range(0..block_size);
            if v != u {
                return v;
            }
        }
    }
}

impl Iterator for SbmStream {
    type Item = (u32, u32);

    fn next(&mut self) -> Option<(u32, u32)> {
        if self.emitted >= self.params.edges {
            return None;
        }
        self.emitted += 1;
        let n = self.params.nodes as u32;
        let u = self.rng.gen_range(0..n);
        let v = if self.rng.gen_bool(self.params.intra) {
            self.intra_peer(u)
        } else {
            loop {
                let v = self.rng.gen_range(0..n);
                if v != u {
                    break v;
                }
            }
        };
        Some((u, v))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.params.edges - self.emitted;
        (left, Some(left))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_deterministic_and_exact_length() {
        let p = SbmStreamParams { nodes: 1_000, edges: 5_000, blocks: 10, intra: 0.8, seed: 7 };
        let a: Vec<_> = SbmStream::new(p).collect();
        let b: Vec<_> = SbmStream::new(p).collect();
        assert_eq!(a, b);
        assert_eq!(a.len(), 5_000);
        assert!(a.iter().all(|&(u, v)| u != v && u < 1_000 && v < 1_000));
        let (lo, hi) = SbmStream::new(p).size_hint();
        assert_eq!((lo, hi), (5_000, Some(5_000)));
    }

    #[test]
    fn intra_fraction_is_roughly_honored() {
        let p = SbmStreamParams { nodes: 2_000, edges: 20_000, blocks: 20, intra: 0.8, seed: 3 };
        let intra = SbmStream::new(p).filter(|&(u, v)| u % 20 == v % 20).count();
        let f = intra as f64 / 20_000.0;
        // 0.8 intra plus the ~1/20 of cross edges that land in-block anyway.
        assert!((0.75..0.92).contains(&f), "intra fraction {f}");
    }

    #[test]
    fn sized_params_scale_blocks_with_n() {
        let p = SbmStreamParams::sized(100_000, 1);
        assert_eq!(p.blocks, 316);
        assert_eq!(p.edges, 1_600_000);
        let small = SbmStreamParams::sized(200, 1);
        assert!(small.blocks >= 2 && small.nodes / small.blocks >= 64);
    }
}
