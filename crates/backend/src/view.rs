//! The float serving view both backends publish, double-buffered.
//!
//! A publish after training re-renders only the rows the kernel wrote
//! (its [`seqge_core::DirtyRows`]). [`ViewBuffer`] keeps the current view
//! and the view it replaced, with the rows where the two differ. Once no
//! reader holds the replaced view, the next publish renders into it: first
//! the rows where it is stale, then the new dirty rows, or every row in one
//! sequential pass when those name half the view or more (the crossover
//! measured at 50 000 rows; DESIGN.md). A view a reader still
//! holds is never written; the publish clones the current view instead and
//! patches the dirty rows. Every view handed out is immutable from then on.
//!
//! A view is a [`NormedMat`]: each row carries its norm, 8 bytes, which
//! the cosine reads take instead of recomputing it. A publish computes the
//! norms of the dirty rows only; every other row it renders holds the
//! current view's bits there, and copies that view's norm.

use seqge_graph::NodeId;
use seqge_linalg::NormedMat;
use std::sync::Arc;

/// The current view, the view it replaced, and the rows between them.
#[derive(Debug)]
pub struct ViewBuffer {
    rows: usize,
    dim: usize,
    /// `None` until the first publish renders every row.
    current: Option<Arc<NormedMat>>,
    /// The view `current` replaced, and the rows the publish that replaced
    /// it re-rendered — every row where the two may differ, ascending.
    replaced: Option<(Arc<NormedMat>, Vec<NodeId>)>,
}

impl ViewBuffer {
    /// An empty buffer for a `rows × dim` view.
    pub fn new(rows: usize, dim: usize) -> Self {
        ViewBuffer { rows, dim, current: None, replaced: None }
    }

    /// The view after training wrote the ascending rows `dirty`;
    /// `render(row, out)` writes one row of the model's current embedding.
    /// With nothing dirty (and a view already rendered) the current `Arc`
    /// is handed out again. Otherwise the new view is the replaced one
    /// re-rendered over its stale rows and `dirty` — in one sequential pass
    /// when the two lists together name half the rows or more — or, when a
    /// reader still holds it, a clone of the current view patched over
    /// `dirty`.
    ///
    /// Each row rendered for `dirty` (or on the first publish) has its norm
    /// computed right after it is written, while it is still in cache. Any
    /// other row a publish renders — a stale row, or any row of the full
    /// pass — renders the bits the current view holds there, so its norm is
    /// copied from the current view: only dirty rows pay for a norm.
    pub fn publish(
        &mut self,
        dirty: Vec<NodeId>,
        mut render: impl FnMut(NodeId, &mut [f32]),
    ) -> Arc<NormedMat> {
        let Some(current) = self.current.take() else {
            let mut view = NormedMat::zeros(self.rows, self.dim);
            for row in 0..self.rows as NodeId {
                view.write_row(row as usize, |out| render(row, out));
            }
            return self.current.insert(Arc::new(view)).clone();
        };
        if dirty.is_empty() {
            return self.current.insert(current).clone();
        }
        // The replaced view's rows, unless a reader still holds it.
        let free = self
            .replaced
            .take()
            .and_then(|(view, stale)| Some((Arc::try_unwrap(view).ok()?, stale)));
        let next = match free {
            Some((mut view, mut stale)) => {
                // A stale row that is dirty again is rendered once, with the
                // dirty rows, which go last so the index sync that reads them
                // next finds them in cache. (When either list alone names
                // half the view, the full pass below is settled already.)
                if 2 * stale.len().max(dirty.len()) < self.rows {
                    let mut again = dirty.iter().peekable();
                    stale.retain(|&row| {
                        while again.next_if(|&&d| d < row).is_some() {}
                        again.peek() != Some(&&row)
                    });
                }
                if 2 * (stale.len() + dirty.len()) >= self.rows {
                    // Half the view or more: one sequential pass is cheaper
                    // than that many scattered rows.
                    let mut again = dirty.iter().peekable();
                    for row in 0..self.rows as NodeId {
                        let out = |out: &mut [f32]| render(row, out);
                        if again.next_if_eq(&&row).is_some() {
                            view.write_row(row as usize, out);
                        } else {
                            view.write_row_as(row as usize, &current, out);
                        }
                    }
                } else {
                    for row in stale {
                        view.write_row_as(row as usize, &current, |out| render(row, out));
                    }
                    for &row in &dirty {
                        view.write_row(row as usize, |out| render(row, out));
                    }
                }
                view
            }
            None => {
                let mut view = (*current).clone();
                for &row in &dirty {
                    view.write_row(row as usize, |out| render(row, out));
                }
                view
            }
        };
        let next = Arc::new(next);
        self.current = Some(next.clone());
        self.replaced = Some((current, dirty));
        next
    }

    /// The view the last publish that changed a row replaced, and the rows
    /// that publish re-rendered: outside them, the two views hold the same
    /// bits. `None` until a second view has been rendered.
    pub fn last_delta(&self) -> Option<(&Arc<NormedMat>, &[NodeId])> {
        self.replaced.as_ref().map(|(view, rows)| (view, rows.as_slice()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqge_linalg::normed::row_norm;
    use seqge_linalg::Mat;

    /// A model stand-in: row `r` of version `v` is `[v·100 + r; 2]` for the
    /// rows written at `v`.
    struct Model(Mat<f32>);

    impl Model {
        fn write(&mut self, version: u32, rows: &[NodeId]) {
            for &r in rows {
                self.0.row_mut(r as usize).fill((version * 100 + r) as f32);
            }
        }
    }

    /// Publishes `dirty`; returns the new view and the rows rendered, in
    /// order, which tell the paths apart. Every norm of the view must be a
    /// fresh computation's bits, on every path: dirty rows computed, stale
    /// rows and the full pass's other rows copied.
    fn publish(
        buf: &mut ViewBuffer,
        model: &Model,
        dirty: &[NodeId],
    ) -> (Arc<NormedMat>, Vec<NodeId>) {
        let mut rendered = Vec::new();
        let view = buf.publish(dirty.to_vec(), |r, out| {
            rendered.push(r);
            out.copy_from_slice(model.0.row(r as usize))
        });
        for r in 0..view.rows() {
            assert_eq!(view.norm(r).to_bits(), row_norm(view.row(r)).to_bits(), "row {r}");
        }
        (view, rendered)
    }

    #[test]
    fn every_path_renders_the_model() {
        let all: Vec<NodeId> = (0..8).collect();
        let mut model = Model(Mat::zeros(8, 2));
        let mut buf = ViewBuffer::new(8, 2);
        model.write(1, &all);
        let (v1, rendered) = publish(&mut buf, &model, &[]);
        assert_eq!((&**v1, rendered), (&model.0, all.clone()));
        assert!(buf.last_delta().is_none());
        let (same, rendered) = publish(&mut buf, &model, &[]);
        assert!(Arc::ptr_eq(&same, &v1) && rendered.is_empty(), "nothing dirty: same view");

        // No replaced view yet: the current one is cloned and patched.
        model.write(2, &[1, 6]);
        let (v2, rendered) = publish(&mut buf, &model, &[1, 6]);
        assert_eq!((&**v2, rendered), (&model.0, vec![1, 6]));
        let (from, rows) = buf.last_delta().unwrap();
        assert!(Arc::ptr_eq(from, &v1));
        assert_eq!(rows, [1, 6]);

        // v1 is free once its reader lets go: it becomes v3, stale rows
        // first (row 6 with the dirty ones), then the new dirty ones.
        let v1_rows = v1.as_slice().as_ptr();
        drop((v1, same));
        model.write(3, &[0, 6]);
        let (v3, rendered) = publish(&mut buf, &model, &[0, 6]);
        assert_eq!((&**v3, rendered), (&model.0, vec![1, 0, 6]));
        assert_eq!(v3.as_slice().as_ptr(), v1_rows, "rendered into the replaced view");
        let (from, rows) = buf.last_delta().unwrap();
        assert!(Arc::ptr_eq(from, &v2));
        assert_eq!(rows, [0, 6]);

        // A reader holds v2: the publish leaves it alone and clones v3.
        let v2_bits = (*v2).clone();
        model.write(4, &[2, 5]);
        let (v4, rendered) = publish(&mut buf, &model, &[2, 5]);
        assert_eq!((&**v4, rendered), (&model.0, vec![2, 5]));
        assert_eq!(*v2, v2_bits, "a held view is never written");
        assert!(!Arc::ptr_eq(&v4, &v2) && !Arc::ptr_eq(&v4, &v3));
        drop((v2, v3));

        // v3 is free again, and its stale rows are dirty again: the union
        // of the two lists, 2 of 8 rows, decides, not their sum.
        model.write(5, &[2, 5]);
        let (v5, rendered) = publish(&mut buf, &model, &[2, 5]);
        assert_eq!((&**v5, rendered), (&model.0, vec![2, 5]));
        assert_eq!(v5.as_slice().as_ptr(), v1_rows, "rendered into the replaced view");

        // Stale [2, 5] and dirty [0, 3, 4] name half the rows or more: one
        // sequential pass into v4.
        drop(v4);
        model.write(6, &[0, 3, 4]);
        let (v6, rendered) = publish(&mut buf, &model, &[0, 3, 4]);
        assert_eq!((&**v6, rendered), (&model.0, all));
        assert_eq!(buf.last_delta().unwrap().1, [0, 3, 4]);
        assert!(Arc::ptr_eq(&publish(&mut buf, &model, &[]).0, &v6));
        assert!(Arc::ptr_eq(buf.last_delta().unwrap().0, &v5), "an empty publish keeps the delta");
    }
}
