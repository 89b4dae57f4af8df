//! Dense matrices over GF(2^8).

use core::fmt;

use crate::field::Gf256;

/// Errors produced by matrix operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatrixError {
    /// The matrix is not square, but the operation requires a square matrix.
    NotSquare,
    /// The matrix is singular and cannot be inverted.
    Singular,
    /// Operand dimensions are incompatible.
    DimensionMismatch,
}

impl fmt::Display for MatrixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MatrixError::NotSquare => write!(f, "matrix is not square"),
            MatrixError::Singular => write!(f, "matrix is singular"),
            MatrixError::DimensionMismatch => write!(f, "matrix dimensions are incompatible"),
        }
    }
}

impl std::error::Error for MatrixError {}

/// A dense row-major matrix over GF(2^8).
///
/// # Examples
///
/// ```
/// use chameleon_gf::{Gf256, Matrix};
///
/// let id = Matrix::identity(4);
/// let c = Matrix::cauchy(4, 4);
/// let prod = id.mul(&c).unwrap();
/// assert_eq!(prod, c);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<Gf256>,
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows {
            write!(f, "  ")?;
            for c in 0..self.cols {
                write!(f, "{} ", self[(r, c)])?;
            }
            writeln!(f)?;
        }
        write!(f, "]")
    }
}

impl Matrix {
    /// Creates a zero matrix of the given shape.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zero(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        Matrix {
            rows,
            cols,
            data: vec![Gf256::ZERO; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zero(n, n);
        for i in 0..n {
            m[(i, i)] = Gf256::ONE;
        }
        m
    }

    /// Creates a matrix from a row-major element vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols` or either dimension is zero.
    pub fn from_rows(rows: usize, cols: usize, data: Vec<Gf256>) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        assert_eq!(data.len(), rows * cols, "element count mismatch");
        Matrix { rows, cols, data }
    }

    /// Creates a Cauchy matrix `m[i][j] = 1 / (x_i + y_j)` with
    /// `x_i = i + cols` and `y_j = j`, which guarantees every square
    /// submatrix is invertible — the property that makes a systematic MDS
    /// generator matrix.
    ///
    /// # Panics
    ///
    /// Panics if `rows + cols > 256` (the field is too small).
    pub fn cauchy(rows: usize, cols: usize) -> Self {
        assert!(rows + cols <= 256, "rows + cols must be <= 256 for GF(2^8)");
        let mut m = Matrix::zero(rows, cols);
        for i in 0..rows {
            let x = Gf256::new((i + cols) as u8);
            for j in 0..cols {
                let y = Gf256::new(j as u8);
                m[(i, j)] = (x + y).inv().expect("x_i and y_j are disjoint");
            }
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    pub fn row(&self, r: usize) -> &[Gf256] {
        assert!(r < self.rows, "row index out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Returns a new matrix containing only the selected rows, in order.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds or `indices` is empty.
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        assert!(!indices.is_empty(), "row selection must be non-empty");
        let mut data = Vec::with_capacity(indices.len() * self.cols);
        for &r in indices {
            data.extend_from_slice(self.row(r));
        }
        Matrix::from_rows(indices.len(), self.cols, data)
    }

    /// Vertically stacks `self` on top of `other`.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::DimensionMismatch`] if column counts differ.
    pub fn stack(&self, other: &Matrix) -> Result<Matrix, MatrixError> {
        if self.cols != other.cols {
            return Err(MatrixError::DimensionMismatch);
        }
        let mut data = self.data.clone();
        data.extend_from_slice(&other.data);
        Ok(Matrix::from_rows(self.rows + other.rows, self.cols, data))
    }

    /// Matrix multiplication `self * rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::DimensionMismatch`] if `self.cols != rhs.rows`.
    pub fn mul(&self, rhs: &Matrix) -> Result<Matrix, MatrixError> {
        if self.cols != rhs.rows {
            return Err(MatrixError::DimensionMismatch);
        }
        let mut out = Matrix::zero(self.rows, rhs.cols);
        for i in 0..self.rows {
            for l in 0..self.cols {
                let a = self[(i, l)];
                if a.is_zero() {
                    continue;
                }
                for j in 0..rhs.cols {
                    let prod = a * rhs[(l, j)];
                    out[(i, j)] += prod;
                }
            }
        }
        Ok(out)
    }

    /// Computes the inverse via Gauss–Jordan elimination.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::NotSquare`] for non-square matrices and
    /// [`MatrixError::Singular`] if no inverse exists.
    ///
    /// # Examples
    ///
    /// ```
    /// use chameleon_gf::Matrix;
    /// let c = Matrix::cauchy(4, 4);
    /// let inv = c.invert().unwrap();
    /// assert_eq!(c.mul(&inv).unwrap(), Matrix::identity(4));
    /// ```
    pub fn invert(&self) -> Result<Matrix, MatrixError> {
        if self.rows != self.cols {
            return Err(MatrixError::NotSquare);
        }
        let n = self.rows;
        let mut a = self.clone();
        let mut inv = Matrix::identity(n);

        for col in 0..n {
            // Find a pivot row.
            let pivot = (col..n)
                .find(|&r| !a[(r, col)].is_zero())
                .ok_or(MatrixError::Singular)?;
            if pivot != col {
                a.swap_rows(pivot, col);
                inv.swap_rows(pivot, col);
            }
            // Normalize the pivot row.
            let p = a[(col, col)].inv().expect("pivot is nonzero");
            a.scale_row(col, p);
            inv.scale_row(col, p);
            // Eliminate the column everywhere else.
            for r in 0..n {
                if r == col {
                    continue;
                }
                let factor = a[(r, col)];
                if factor.is_zero() {
                    continue;
                }
                a.add_scaled_row(col, r, factor);
                inv.add_scaled_row(col, r, factor);
            }
        }
        Ok(inv)
    }

    /// Computes the rank via Gaussian elimination on a copy.
    pub fn rank(&self) -> usize {
        let mut a = self.clone();
        let mut rank = 0;
        for col in 0..a.cols {
            if rank == a.rows {
                break;
            }
            let pivot = (rank..a.rows).find(|&r| !a[(r, col)].is_zero());
            let Some(pivot) = pivot else { continue };
            a.swap_rows(pivot, rank);
            let p = a[(rank, col)].inv().expect("pivot is nonzero");
            a.scale_row(rank, p);
            for r in 0..a.rows {
                if r != rank && !a[(r, col)].is_zero() {
                    let factor = a[(r, col)];
                    a.add_scaled_row(rank, r, factor);
                }
            }
            rank += 1;
        }
        rank
    }

    fn swap_rows(&mut self, r1: usize, r2: usize) {
        if r1 == r2 {
            return;
        }
        for c in 0..self.cols {
            self.data.swap(r1 * self.cols + c, r2 * self.cols + c);
        }
    }

    fn scale_row(&mut self, r: usize, factor: Gf256) {
        for c in 0..self.cols {
            self[(r, c)] *= factor;
        }
    }

    /// `row[dst] += factor * row[src]`.
    fn add_scaled_row(&mut self, src: usize, dst: usize, factor: Gf256) {
        for c in 0..self.cols {
            let v = self[(src, c)] * factor;
            self[(dst, c)] += v;
        }
    }
}

impl core::ops::Index<(usize, usize)> for Matrix {
    type Output = Gf256;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &Gf256 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        &self.data[r * self.cols + c]
    }
}

impl core::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut Gf256 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        &mut self.data[r * self.cols + c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_is_multiplicative_identity() {
        let m = Matrix::cauchy(4, 4);
        let id = Matrix::identity(4);
        assert_eq!(id.mul(&m).unwrap(), m);
        assert_eq!(m.mul(&id).unwrap(), m);
    }

    #[test]
    fn cauchy_square_submatrices_are_invertible() {
        // MDS property: for a 4x6 Cauchy matrix, any 4 rows stacked with any
        // rows of identity... here just check all square row-selections of a
        // tall Cauchy matrix invert.
        let c = Matrix::cauchy(6, 4);
        for a in 0..6 {
            for b in a + 1..6 {
                for d in b + 1..6 {
                    for e in d + 1..6 {
                        let sub = c.select_rows(&[a, b, d, e]);
                        assert!(sub.invert().is_ok(), "rows {a},{b},{d},{e}");
                    }
                }
            }
        }
    }

    #[test]
    fn invert_roundtrip() {
        let m = Matrix::cauchy(5, 5);
        let inv = m.invert().unwrap();
        assert_eq!(m.mul(&inv).unwrap(), Matrix::identity(5));
        assert_eq!(inv.mul(&m).unwrap(), Matrix::identity(5));
    }

    #[test]
    fn singular_matrix_detected() {
        let mut m = Matrix::zero(3, 3);
        m[(0, 0)] = Gf256::ONE;
        m[(1, 0)] = Gf256::ONE; // rank 1
        assert_eq!(m.invert(), Err(MatrixError::Singular));
        assert_eq!(m.rank(), 1);
    }

    #[test]
    fn non_square_invert_rejected() {
        let m = Matrix::zero(2, 3);
        assert_eq!(m.invert(), Err(MatrixError::NotSquare));
    }

    #[test]
    fn rank_of_tall_cauchy_is_full() {
        let m = Matrix::cauchy(6, 4);
        assert_eq!(m.rank(), 4);
    }

    #[test]
    fn stack_and_select_rows() {
        let a = Matrix::identity(2);
        let b = Matrix::cauchy(2, 2);
        let s = a.stack(&b).unwrap();
        assert_eq!(s.rows(), 4);
        assert_eq!(s.select_rows(&[0, 1]), a);
        assert_eq!(s.select_rows(&[2, 3]), b);
    }

    #[test]
    fn dimension_mismatches_are_errors() {
        let a = Matrix::zero(2, 3);
        let b = Matrix::zero(2, 3);
        assert_eq!(a.mul(&b), Err(MatrixError::DimensionMismatch));
        let c = Matrix::zero(2, 4);
        assert_eq!(a.stack(&c), Err(MatrixError::DimensionMismatch));
    }

    #[test]
    fn debug_output_is_nonempty() {
        let m = Matrix::identity(2);
        let s = format!("{m:?}");
        assert!(s.contains("Matrix 2x2"));
    }
}
