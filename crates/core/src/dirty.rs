//! The β rows a training kernel wrote since its last publish.
//!
//! Both serving kernels — the float [`crate::OsElmSkipGram`] and the Q8.24
//! `seqge_fpga::Accelerator` — keep one [`DirtyRows`], so a host can refresh
//! its float view over only the rows that changed: the host-side analogue of
//! the accelerator's batched DRAM write-back after Algorithm 2 line 20.

use seqge_graph::NodeId;

/// One flag byte per row. Marking is one plain store, with no read and no
/// branch, so a kernel can mark every row it writes without slowing its
/// update loop; [`DirtyRows::take`] is one branch-light pass over the flags.
#[derive(Debug, Clone)]
pub struct DirtyRows {
    flags: Vec<u8>,
}

impl DirtyRows {
    /// An empty set over `rows` rows.
    pub fn new(rows: usize) -> Self {
        DirtyRows { flags: vec![0; rows] }
    }

    /// Records that `row` was written.
    #[inline(always)]
    pub fn mark(&mut self, row: NodeId) {
        self.flags[row as usize] = 1;
    }

    /// The rows marked since the last call, ascending, and clears the set.
    /// Every row's index is stored and the cursor advances by its flag, so
    /// the scan has no data-dependent branch (a branch per row mispredicts
    /// at the ≈ 18 % density one event of Algorithm 1 leaves).
    pub fn take(&mut self) -> Vec<NodeId> {
        let count: usize = self.flags.iter().map(|&f| usize::from(f)).sum();
        if count == 0 {
            return Vec::new();
        }
        let mut rows = vec![0; count + 1];
        let mut len = 0;
        for (row, &flag) in self.flags.iter().enumerate() {
            rows[len] = row as NodeId;
            len += usize::from(flag);
        }
        rows.truncate(count);
        self.flags.fill(0);
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_and_full_sets() {
        let mut d = DirtyRows::new(5);
        assert!(d.take().is_empty());
        for row in (0..5).rev() {
            d.mark(row);
        }
        assert_eq!(d.take(), [0, 1, 2, 3, 4]);
        assert!(d.take().is_empty(), "take clears");
        assert!(DirtyRows::new(0).take().is_empty());
    }

    proptest! {
        /// `take` returns exactly the marked rows, ascending, once each,
        /// however often a row was marked, and leaves the set empty.
        #[test]
        fn take_is_the_sorted_marked_set(
            rows in 1usize..300,
            rounds in proptest::collection::vec(
                proptest::collection::vec(0usize..300, 0..400),
                1..4,
            ),
        ) {
            let mut d = DirtyRows::new(rows);
            for marks in rounds {
                let mut want: Vec<NodeId> = marks.iter().map(|&m| (m % rows) as NodeId).collect();
                for &row in &want {
                    d.mark(row);
                }
                want.sort_unstable();
                want.dedup();
                prop_assert_eq!(d.take(), want);
            }
            prop_assert!(d.take().is_empty());
        }
    }
}
