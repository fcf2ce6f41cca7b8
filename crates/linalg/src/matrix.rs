//! Row-major dense matrix.

use crate::scalar::Scalar;
use std::ops::{Index, IndexMut};

/// Row-major dense matrix. Its arithmetic takes [`Scalar`] values; storage
/// and row access take any element type (fixed-point words included).
///
/// Indexing is `m[(row, col)]`. Rows are contiguous, so `row(i)` is a slice —
/// the training loops exploit this by treating weight matrices as `N` rows of
/// length `d` and updating a handful of rows per sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Mat<T> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

impl<T: Scalar> Mat<T> {
    /// Zero matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Mat { rows, cols, data: vec![T::ZERO; rows * cols] }
    }

    /// Matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: T) -> Self {
        Mat { rows, cols, data: vec![value; rows * cols] }
    }

    /// Identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Mat::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = T::ONE;
        }
        m
    }

    /// `scale · I` — the standard OS-ELM `P₀ = (1/λ)·I` initialization.
    pub fn scaled_identity(n: usize, scale: T) -> Self {
        let mut m = Mat::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = scale;
        }
        m
    }
}

impl<T> Mat<T> {
    /// Builds from a row-major `Vec`; `data.len()` must equal `rows·cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<T>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length must equal rows*cols");
        Mat { rows, cols, data }
    }

    /// Builds from a function of `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Mat { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[T] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Row `r` as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [T] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Flat row-major data.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Flat mutable row-major data.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// The flat row-major data, by value.
    pub fn into_vec(self) -> Vec<T> {
        self.data
    }
}

impl<T: Scalar> Mat<T> {
    /// Forces exact symmetry in place: `self[(r,c)] = self[(c,r)] =
    /// ½·(self[(r,c)] + self[(c,r)])`. A no-op (bit-for-bit) on an
    /// already-symmetric matrix. The OS-ELM models call this once at cold
    /// entry points (state restore) so the hot-path `P`
    /// kernels — which *preserve* exact symmetry but do not restore it —
    /// can skip per-update symmetrization.
    pub fn symmetrize(&mut self) {
        assert_eq!(self.rows, self.cols, "symmetrize: matrix must be square");
        let half = T::from_f64(0.5);
        for r in 0..self.rows {
            for c in (r + 1)..self.cols {
                let avg = half * (self[(r, c)] + self[(c, r)]);
                self[(r, c)] = avg;
                self[(c, r)] = avg;
            }
        }
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Mat<T> {
        Mat::from_fn(self.cols, self.rows, |r, c| self[(c, r)])
    }

    /// Dense product `self · other` (naïve triple loop — fine for the `d×d`
    /// shapes this crate exists for; tall weight matrices never hit this).
    pub fn matmul(&self, other: &Mat<T>) -> Mat<T> {
        assert_eq!(self.cols, other.rows, "inner dimensions must agree");
        let mut out = Mat::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == T::ZERO {
                    continue;
                }
                let orow = other.row(k);
                let out_row = out.row_mut(i);
                for j in 0..other.cols {
                    out_row[j] += a * orow[j];
                }
            }
        }
        out
    }

    /// Largest absolute entry difference against `other` (test helper and
    /// fixed-point error metric).
    pub fn max_abs_diff(&self, other: &Mat<T>) -> T {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        self.data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| (a - b).abs())
            .fold(T::ZERO, |m, x| m.max_s(x))
    }

    /// Whether every entry is finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Heap footprint in bytes (model-size reporting).
    pub fn heap_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<T>()
    }

    /// Converts element type (e.g. f64 reference result → f32 for comparison).
    pub fn cast<U: Scalar>(&self) -> Mat<U> {
        Mat {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| U::from_f64(x.to_f64())).collect(),
        }
    }
}

impl<T: Scalar> Index<(usize, usize)> for Mat<T> {
    type Output = T;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &T {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl<T: Scalar> IndexMut<(usize, usize)> for Mat<T> {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut T {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_indexing() {
        let mut m = Mat::<f64>::zeros(2, 3);
        assert_eq!((m.rows(), m.cols()), (2, 3));
        m[(1, 2)] = 5.0;
        assert_eq!(m[(1, 2)], 5.0);
        assert_eq!(m.row(1), &[0.0, 0.0, 5.0]);
    }

    #[test]
    fn identity_and_scaled() {
        let i = Mat::<f32>::identity(3);
        assert_eq!(i[(0, 0)], 1.0);
        assert_eq!(i[(0, 1)], 0.0);
        let p0 = Mat::<f32>::scaled_identity(2, 10.0);
        assert_eq!(p0[(1, 1)], 10.0);
    }

    #[test]
    fn from_vec_checks_length() {
        let m = Mat::from_vec(2, 2, vec![1.0f64, 2.0, 3.0, 4.0]);
        assert_eq!(m[(1, 0)], 3.0);
    }

    #[test]
    #[should_panic(expected = "rows*cols")]
    fn from_vec_wrong_length_panics() {
        let _ = Mat::from_vec(2, 2, vec![1.0f64]);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = Mat::from_fn(2, 3, |r, c| (r * 3 + c) as f64);
        let t = m.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t[(2, 1)], m[(1, 2)]);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn matmul_small() {
        let a = Mat::from_vec(2, 2, vec![1.0f64, 2.0, 3.0, 4.0]);
        let b = Mat::from_vec(2, 2, vec![5.0f64, 6.0, 7.0, 8.0]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Mat::from_fn(3, 3, |r, c| (r + 2 * c) as f32);
        assert_eq!(a.matmul(&Mat::identity(3)), a);
        assert_eq!(Mat::identity(3).matmul(&a), a);
    }

    #[test]
    fn max_abs_diff_is_the_largest_entry_gap() {
        let a = Mat::from_vec(1, 2, vec![3.0f64, 4.0]);
        let b = Mat::from_vec(1, 2, vec![3.5f64, 4.0]);
        assert!((a.max_abs_diff(&b) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn finite_check_and_cast() {
        let mut a = Mat::<f64>::zeros(1, 2);
        assert!(a.all_finite());
        a[(0, 1)] = f64::INFINITY;
        assert!(!a.all_finite());
        let c: Mat<f32> = Mat::from_vec(1, 1, vec![0.5f64]).cast();
        assert_eq!(c[(0, 0)], 0.5f32);
    }

    #[test]
    fn heap_bytes() {
        let m = Mat::<f32>::zeros(4, 4);
        assert_eq!(m.heap_bytes(), 64);
        let m64 = Mat::<f64>::zeros(4, 4);
        assert_eq!(m64.heap_bytes(), 128);
    }
}
