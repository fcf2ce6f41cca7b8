//! An `f32` matrix that carries each row's Euclidean norm.

use crate::matrix::Mat;
use crate::ops;
use std::ops::Deref;

/// A row-major `f32` matrix plus one `f64` per row: the row's Euclidean
/// norm, `sqrt(ops::scan_norm2(row))`. Rows are written only through
/// [`NormedMat::write_row`] and [`NormedMat::write_row_as`], so a stored
/// norm always belongs to the row's current bits, and a cosine read takes
/// the row's norm from here instead of summing the row's squares again.
///
/// It derefs to its [`Mat`], so every row reader reads it unchanged.
#[derive(Debug, Clone, PartialEq)]
pub struct NormedMat {
    mat: Mat<f32>,
    norms: Vec<f64>,
}

/// The Euclidean norm [`NormedMat`] stores for `row`.
#[inline]
pub fn row_norm(row: &[f32]) -> f64 {
    ops::scan_norm2(row).sqrt()
}

impl NormedMat {
    /// A `rows × cols` zero matrix; every norm is `0.0`.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        NormedMat { mat: Mat::zeros(rows, cols), norms: vec![0.0; rows] }
    }

    /// The norm of row `r`.
    #[inline]
    pub fn norm(&self, r: usize) -> f64 {
        self.norms[r]
    }

    /// Overwrites row `r` with `write` and stores the norm of what it
    /// wrote, read while the row is still in cache.
    #[inline]
    pub fn write_row(&mut self, r: usize, write: impl FnOnce(&mut [f32])) {
        let row = self.mat.row_mut(r);
        write(row);
        self.norms[r] = row_norm(row);
    }

    /// Overwrites row `r` with `write`, whose bits equal row `r` of `same`:
    /// the norm is copied from `same` instead of recomputed. A debug build
    /// checks the claim.
    #[inline]
    pub fn write_row_as(&mut self, r: usize, same: &NormedMat, write: impl FnOnce(&mut [f32])) {
        let row = self.mat.row_mut(r);
        write(row);
        debug_assert_eq!(row_norm(row).to_bits(), same.norms[r].to_bits(), "row {r}");
        self.norms[r] = same.norms[r];
    }
}

impl From<Mat<f32>> for NormedMat {
    /// Computes every row's norm.
    fn from(mat: Mat<f32>) -> Self {
        let norms = (0..mat.rows()).map(|r| row_norm(mat.row(r))).collect();
        NormedMat { mat, norms }
    }
}

impl Deref for NormedMat {
    type Target = Mat<f32>;

    #[inline]
    fn deref(&self) -> &Mat<f32> {
        &self.mat
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn norms_follow_every_write() {
        let mat = Mat::from_fn(3, 5, |r, c| (r * 5 + c) as f32 * 0.25 - 1.0);
        let mut normed = NormedMat::from(mat.clone());
        for r in 0..3 {
            assert_eq!(normed.norm(r).to_bits(), ops::norm2(&wide(mat.row(r))).to_bits());
        }
        normed.write_row(1, |row| row.copy_from_slice(&[3.0, 4.0, 0.0, 0.0, 0.0]));
        assert_eq!((normed.norm(1), &normed.row(1)[..2]), (5.0, &[3.0, 4.0][..]));
        let mut zeros = NormedMat::zeros(3, 5);
        assert_eq!(zeros.norm(1), 0.0);
        zeros.write_row_as(1, &normed, |row| row.copy_from_slice(normed.row(1)));
        assert_eq!((zeros.norm(1), zeros.row(1)), (5.0, normed.row(1)));
    }

    fn wide(row: &[f32]) -> Vec<f64> {
        row.iter().map(|&a| a as f64).collect()
    }
}
