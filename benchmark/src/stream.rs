//! The benchmark's input: a boot graph and a stationary churn stream drawn
//! from the repo's streamed SBM.
//!
//! Every `Add` of a fresh edge is followed by a `Remove` of the oldest live
//! edge, so the edge count (and with it the mean degree, which sets the cost
//! of a live-graph walk step) stays constant however long the stream runs.
//! The generator tracks the live edge set itself: it never emits an add of a
//! live edge or a remove of a missing one, so a server that rejects an event
//! has a bug, not an unlucky input.

use seqge_bench::{SbmStream, SbmStreamParams};
use seqge_graph::{EdgeEvent, Graph, NodeId};
use std::collections::{HashSet, VecDeque};

/// Boot edges per node.
const BOOT_DEGREE: f64 = 3.5;

/// A generated input.
pub struct ChurnStream {
    /// Node count.
    pub nodes: usize,
    /// SBM communities; the block of node `v` is `v % blocks`.
    pub blocks: usize,
    /// The boot graph's edges, in arrival order.
    pub boot: Vec<(NodeId, NodeId)>,
    /// Alternating `Add(fresh)` / `Remove(oldest live)` events.
    pub events: Vec<EdgeEvent>,
}

fn canonical(u: NodeId, v: NodeId) -> (NodeId, NodeId) {
    (u.min(v), u.max(v))
}

impl ChurnStream {
    /// Draws the boot graph (the first `3.5·nodes` distinct edges of the SBM
    /// stream) and `events` churn events (rounded up to whole add/remove
    /// pairs). Deterministic in `(nodes, seed)`, and a longer stream extends
    /// a shorter one.
    pub fn generate(nodes: usize, seed: u64, events: usize) -> ChurnStream {
        let params = SbmStreamParams { edges: usize::MAX, ..SbmStreamParams::sized(nodes, seed) };
        let mut sbm = SbmStream::new(params).map(|(u, v)| canonical(u, v));
        let mut live: HashSet<(NodeId, NodeId)> = HashSet::new();
        let mut fifo: VecDeque<(NodeId, NodeId)> = VecDeque::new();
        let mut fresh = |live: &mut HashSet<(NodeId, NodeId)>| loop {
            let e = sbm.next().expect("the SBM stream is unbounded");
            if live.insert(e) {
                return e;
            }
        };

        let boot_edges = (BOOT_DEGREE * nodes as f64).ceil() as usize;
        let mut boot = Vec::with_capacity(boot_edges);
        while boot.len() < boot_edges {
            let e = fresh(&mut live);
            fifo.push_back(e);
            boot.push(e);
        }

        let mut out = Vec::with_capacity(events + 1);
        while out.len() < events {
            let (u, v) = fresh(&mut live);
            fifo.push_back((u, v));
            out.push(EdgeEvent::Add(u, v));
            let (u, v) = fifo.pop_front().expect("the boot graph is non-empty");
            live.remove(&(u, v));
            out.push(EdgeEvent::Remove(u, v));
        }
        ChurnStream { nodes, blocks: params.blocks, boot, events: out }
    }

    /// The boot graph.
    pub fn boot_graph(&self) -> Graph {
        Graph::from_edges_lossy(self.nodes, &self.boot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_in_the_seed_and_prefix_stable() {
        let a = ChurnStream::generate(500, 7, 400);
        let b = ChurnStream::generate(500, 7, 400);
        assert_eq!(a.boot, b.boot);
        assert_eq!(a.events, b.events);
        let longer = ChurnStream::generate(500, 7, 900);
        assert_eq!(longer.boot, a.boot);
        assert_eq!(longer.events[..400], a.events[..]);
        let other = ChurnStream::generate(500, 11, 400);
        assert_ne!(other.boot, a.boot);
    }

    #[test]
    fn every_event_is_valid_and_the_edge_count_is_constant() {
        let s = ChurnStream::generate(300, 3, 5_000);
        assert_eq!(s.boot.len(), 1_050);
        let mut g = s.boot_graph();
        assert_eq!(g.num_edges(), s.boot.len(), "boot edges are distinct");
        for (i, ev) in s.events.iter().enumerate() {
            ev.apply(&mut g).unwrap_or_else(|e| panic!("event {i} {ev:?} rejected: {e}"));
            // An add, then the paired remove.
            assert_eq!(g.num_edges(), s.boot.len() + (i + 1) % 2);
            assert_eq!(matches!(ev, EdgeEvent::Add(..)), i % 2 == 0);
        }
    }

    #[test]
    fn removes_retire_the_oldest_live_edge() {
        let s = ChurnStream::generate(300, 5, 4_000);
        // The first removes retire the boot edges in arrival order; once
        // those are gone, stream adds go in the order they arrived.
        let adds = s.events.iter().filter_map(|e| match *e {
            EdgeEvent::Add(u, v) => Some((u, v)),
            EdgeEvent::Remove(..) => None,
        });
        let expected: Vec<_> = s.boot.iter().copied().chain(adds).collect();
        let removed: Vec<_> = s
            .events
            .iter()
            .filter_map(|e| match *e {
                EdgeEvent::Remove(u, v) => Some((u, v)),
                EdgeEvent::Add(..) => None,
            })
            .collect();
        assert_eq!(removed[..], expected[..removed.len()]);
        assert!(removed.len() > s.boot.len(), "the test covers stream-edge removal too");
    }
}
