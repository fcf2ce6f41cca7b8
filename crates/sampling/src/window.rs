//! Slicing a random walk into training contexts.
//!
//! The paper trains `l − w + 1` contexts per walk (§4.2: 73 iterations for
//! `l = 80, w = 8`): context `i` covers the window `RW[i..i+w]`, with
//! `RW[i]` as the center node and the following `w − 1` nodes as positive
//! samples. Walks shorter than `w` yield proportionally shorter contexts
//! (down to a single positive); isolated-node walks yield nothing.

use seqge_graph::NodeId;

/// One training context: a center node and its positive samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Context {
    /// The center (input) node.
    pub center: NodeId,
    /// Positive (output) nodes from the same window.
    pub positives: Vec<NodeId>,
}

/// Produces the contexts of `walk` for window size `w` (`w ≥ 2`).
pub fn contexts(walk: &[NodeId], w: usize) -> Vec<Context> {
    assert!(w >= 2, "window must cover a center and at least one positive");
    if walk.len() < 2 {
        return Vec::new();
    }
    let count = walk.len().saturating_sub(w) + 1;
    let mut out = Vec::with_capacity(count);
    for i in 0..walk.len() - 1 {
        let end = (i + w).min(walk.len());
        if end - i < 2 {
            break;
        }
        // Full windows only, except truncated tail windows are *not* emitted:
        // the paper's iteration count (l − w + 1) implies the window always
        // fits. Tail positions beyond l − w would duplicate training pairs.
        if i + w > walk.len() {
            break;
        }
        out.push(Context { center: walk[i], positives: walk[i + 1..end].to_vec() });
    }
    // Short walks (< w) still produce their single truncated context so that
    // sequential training on sparse initial forests sees every edge.
    if out.is_empty() && walk.len() >= 2 {
        out.push(Context { center: walk[0], positives: walk[1..].to_vec() });
    }
    out
}

/// Zero-allocation view of [`contexts`]: yields `(center, positives)` with
/// `positives` borrowed straight from the walk (every context's positives
/// are a contiguous walk slice). Training hot paths use this — [`contexts`]
/// allocates one `Vec` per context, which at the paper's geometry is 74
/// heap allocations per walk, a measurable share of per-walk train time.
///
/// Yields exactly the `(center, positives)` pairs of `contexts(walk, w)`,
/// in order.
pub fn context_windows(walk: &[NodeId], w: usize) -> ContextWindows<'_> {
    assert!(w >= 2, "window must cover a center and at least one positive");
    let n = walk.len();
    let (count, truncated) = if n < 2 {
        (0, false)
    } else if n >= w {
        (n - w + 1, false)
    } else {
        // Short walks (< w) produce their single truncated context so that
        // sequential training on sparse initial forests sees every edge.
        (1, true)
    };
    ContextWindows { walk, w, i: 0, count, truncated }
}

/// Iterator returned by [`context_windows`].
#[derive(Debug, Clone)]
pub struct ContextWindows<'a> {
    walk: &'a [NodeId],
    w: usize,
    i: usize,
    count: usize,
    truncated: bool,
}

impl<'a> Iterator for ContextWindows<'a> {
    type Item = (NodeId, &'a [NodeId]);

    fn next(&mut self) -> Option<Self::Item> {
        if self.i >= self.count {
            return None;
        }
        let i = self.i;
        self.i += 1;
        if self.truncated {
            Some((self.walk[0], &self.walk[1..]))
        } else {
            Some((self.walk[i], &self.walk[i + 1..i + self.w]))
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.count - self.i;
        (left, Some(left))
    }
}

impl ExactSizeIterator for ContextWindows<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_geometry_73_contexts() {
        let walk: Vec<NodeId> = (0..80).collect();
        let ctxs = contexts(&walk, 8);
        assert_eq!(ctxs.len(), 73, "l=80, w=8 must give 73 contexts (paper §4.2)");
        assert_eq!(ctxs[0].center, 0);
        assert_eq!(ctxs[0].positives, (1..8).collect::<Vec<_>>());
        assert_eq!(ctxs[72].center, 72);
        assert_eq!(ctxs[72].positives, (73..80).collect::<Vec<_>>());
    }

    #[test]
    fn every_context_has_w_minus_1_positives() {
        let walk: Vec<NodeId> = (0..20).collect();
        for c in contexts(&walk, 5) {
            assert_eq!(c.positives.len(), 4);
        }
    }

    #[test]
    fn short_walk_gets_truncated_context() {
        let walk: Vec<NodeId> = vec![3, 7, 9];
        let ctxs = contexts(&walk, 8);
        assert_eq!(ctxs.len(), 1);
        assert_eq!(ctxs[0].center, 3);
        assert_eq!(ctxs[0].positives, vec![7, 9]);
    }

    #[test]
    fn context_windows_equals_contexts_for_every_geometry() {
        // The zero-allocation iterator must reproduce the allocating form
        // exactly: same centers, same positives, same order — including
        // empty, short-truncated, exact-fit, and long walks.
        for n in [0usize, 1, 2, 3, 5, 7, 8, 9, 20, 80] {
            for w in [2usize, 5, 8] {
                let walk: Vec<NodeId> = (0..n as NodeId).map(|i| i * 3 + 1).collect();
                let alloc = contexts(&walk, w);
                let zero: Vec<_> = context_windows(&walk, w).collect();
                assert_eq!(alloc.len(), zero.len(), "n={n} w={w}");
                for (a, (center, positives)) in alloc.iter().zip(&zero) {
                    assert_eq!(a.center, *center, "n={n} w={w}");
                    assert_eq!(&a.positives[..], *positives, "n={n} w={w}");
                }
                assert_eq!(context_windows(&walk, w).len(), alloc.len(), "ExactSize n={n} w={w}");
            }
        }
    }

    #[test]
    fn singleton_walk_gives_nothing() {
        assert!(contexts(&[5], 8).is_empty());
        assert!(contexts(&[], 8).is_empty());
    }

    #[test]
    fn exact_window_length_walk() {
        let walk: Vec<NodeId> = (0..8).collect();
        let ctxs = contexts(&walk, 8);
        assert_eq!(ctxs.len(), 1);
        assert_eq!(ctxs[0].positives.len(), 7);
    }

    #[test]
    #[should_panic(expected = "window")]
    fn window_of_one_panics() {
        contexts(&[0, 1, 2], 1);
    }
}
