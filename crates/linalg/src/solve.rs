//! Small-matrix inversion for the OS-ELM initialization.
//!
//! The batch OS-ELM init computes `P₀ = (H₀ᵀH₀ + λI)⁻¹` for a `d×d` SPD
//! matrix (d ≤ 96 in the paper): Cholesky is the right tool.

use crate::matrix::Mat;
use crate::scalar::Scalar;

/// Errors from the dense solvers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveError {
    /// The matrix was not positive definite (Cholesky pivot ≤ 0).
    NotPositiveDefinite {
        /// Index of the failing pivot.
        pivot: usize,
    },
    /// The matrix was not square.
    NotSquare,
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveError::NotPositiveDefinite { pivot } => {
                write!(f, "matrix is not positive definite (pivot {pivot})")
            }
            SolveError::NotSquare => write!(f, "matrix is not square"),
        }
    }
}

impl std::error::Error for SolveError {}

/// Cholesky factorization `A = L·Lᵀ` (lower triangular `L`).
pub fn cholesky<T: Scalar>(a: &Mat<T>) -> Result<Mat<T>, SolveError> {
    if a.rows() != a.cols() {
        return Err(SolveError::NotSquare);
    }
    let n = a.rows();
    let mut l = Mat::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let mut sum = a[(i, j)];
            for k in 0..j {
                sum -= l[(i, k)] * l[(j, k)];
            }
            if i == j {
                if sum.to_f64() <= 0.0 {
                    return Err(SolveError::NotPositiveDefinite { pivot: i });
                }
                l[(i, j)] = sum.sqrt();
            } else {
                l[(i, j)] = sum / l[(j, j)];
            }
        }
    }
    Ok(l)
}

/// Inverse of an SPD matrix via Cholesky (`A⁻¹ = L⁻ᵀ·L⁻¹`).
pub fn cholesky_inverse<T: Scalar>(a: &Mat<T>) -> Result<Mat<T>, SolveError> {
    let l = cholesky(a)?;
    let n = a.rows();
    // Invert L (lower triangular) by forward substitution per unit vector.
    let mut linv = Mat::zeros(n, n);
    for col in 0..n {
        for i in col..n {
            let mut sum = if i == col { T::ONE } else { T::ZERO };
            for k in col..i {
                sum -= l[(i, k)] * linv[(k, col)];
            }
            linv[(i, col)] = sum / l[(i, i)];
        }
    }
    // A⁻¹ = Linvᵀ · Linv
    let mut inv = Mat::zeros(n, n);
    for i in 0..n {
        for j in 0..n {
            let mut sum = T::ZERO;
            for k in i.max(j)..n {
                sum += linv[(k, i)] * linv[(k, j)];
            }
            inv[(i, j)] = sum;
        }
    }
    Ok(inv)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::ger;

    fn spd3() -> Mat<f64> {
        // A = B·Bᵀ + I is SPD for any B.
        let b = Mat::from_vec(3, 3, vec![1.0, 2.0, 0.0, 0.5, 1.0, 3.0, 2.0, 0.0, 1.0]);
        let mut a = b.matmul(&b.transpose());
        for i in 0..3 {
            a[(i, i)] += 1.0;
        }
        a
    }

    #[test]
    fn cholesky_reconstructs() {
        let a = spd3();
        let l = cholesky(&a).unwrap();
        let recon = l.matmul(&l.transpose());
        assert!(recon.max_abs_diff(&a) < 1e-10);
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let mut a = Mat::<f64>::identity(2);
        a[(1, 1)] = -1.0;
        assert!(matches!(cholesky(&a), Err(SolveError::NotPositiveDefinite { pivot: 1 })));
    }

    #[test]
    fn cholesky_inverse_is_inverse() {
        let a = spd3();
        let inv = cholesky_inverse(&a).unwrap();
        let prod = a.matmul(&inv);
        assert!(prod.max_abs_diff(&Mat::identity(3)) < 1e-10);
    }

    #[test]
    fn non_square_rejected() {
        let a = Mat::<f64>::zeros(2, 3);
        assert_eq!(cholesky(&a).unwrap_err(), SolveError::NotSquare);
    }

    #[test]
    fn rls_batch_equivalence() {
        // Sherman–Morrison chain must equal direct inversion:
        // P = (λI + Σ hᵢᵀhᵢ)⁻¹ built incrementally matches cholesky_inverse.
        let lambda = 0.1f64;
        let hs = [[1.0, 0.5, 0.0], [0.2, 1.0, 0.3], [0.0, 0.4, 1.0], [1.0, 1.0, 1.0]];
        // Direct
        let mut gram = Mat::<f64>::scaled_identity(3, lambda);
        for h in &hs {
            ger(&mut gram, 1.0, h, h);
        }
        let direct = cholesky_inverse(&gram).unwrap();
        // Incremental
        let mut p = Mat::<f64>::scaled_identity(3, 1.0 / lambda);
        for h in &hs {
            let mut ph = [0.0; 3];
            crate::ops::gemv(&p, h, &mut ph);
            let denom = 1.0 + crate::ops::dot(h, &ph);
            let hp = ph;
            crate::ops::p_downdate(&mut p, &ph, &hp, denom);
        }
        assert!(p.max_abs_diff(&direct) < 1e-9);
    }
}
