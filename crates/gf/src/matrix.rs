//! Dense matrices over GF(2^8).

use core::fmt;

use crate::field::Gf256;
use crate::kernels::MulTable;

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

    /// Computes the inverse: Gauss–Jordan elimination of `[self | I]`.
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
        let mut aug = Matrix::zero(n, 2 * n);
        for r in 0..n {
            aug.data[r * 2 * n..][..n].copy_from_slice(self.row(r));
            aug[(r, n + r)] = Gf256::ONE;
        }
        // A pivot in every column of `self` leaves `[I | self⁻¹]`.
        if aug.reduce(n) < n {
            return Err(MatrixError::Singular);
        }
        let mut data = Vec::with_capacity(n * n);
        for row in aug.data.chunks_exact(2 * n) {
            data.extend_from_slice(&row[n..]);
        }
        Ok(Matrix::from_rows(n, n, data))
    }

    /// Computes the rank by Gauss–Jordan elimination of a copy.
    pub fn rank(&self) -> usize {
        self.clone().reduce(self.cols)
    }

    /// Expresses `target` as a linear combination of `rows`: coefficients
    /// `x` with `Σ_v x_v · rows[v] = target`, by Gauss–Jordan elimination
    /// of `[rowsᵀ | target]`. Where the rows are dependent, any solution
    /// is returned, with the free coefficients zero; `None` if `target` is
    /// not in their span. Panics unless every row is as long as `target`.
    ///
    /// # Examples
    ///
    /// ```
    /// use chameleon_gf::{Gf256, Matrix};
    /// let (a, b) = ([Gf256::ONE, Gf256::ZERO], [Gf256::ONE, Gf256::ONE]);
    /// let x = Matrix::combination([&a[..], &b[..]], &[Gf256::ZERO, Gf256::ONE]);
    /// assert_eq!(x, Some(vec![Gf256::ONE, Gf256::ONE])); // a + b
    /// assert_eq!(Matrix::combination([&a[..]], &[Gf256::ZERO, Gf256::ONE]), None);
    /// ```
    pub fn combination<'a, R>(rows: R, target: &[Gf256]) -> Option<Vec<Gf256>>
    where
        R: IntoIterator<Item = &'a [Gf256]>,
        R::IntoIter: ExactSizeIterator,
    {
        let rows = rows.into_iter();
        let (vars, len) = (rows.len(), target.len());
        let mut aug = Matrix {
            rows: len,
            cols: vars + 1,
            data: vec![Gf256::ZERO; len * (vars + 1)],
        };
        for (v, row) in rows.enumerate() {
            assert_eq!(row.len(), len, "row {v} is not as long as the target");
            for (r, &x) in row.iter().enumerate() {
                aug[(r, v)] = x;
            }
        }
        for (r, &t) in target.iter().enumerate() {
            aug[(r, vars)] = t;
        }
        let rank = aug.reduce(vars);
        // A zero row with a non-zero right-hand side: inconsistent.
        if (rank..len).any(|r| !aug[(r, vars)].is_zero()) {
            return None;
        }
        // Reduced row echelon form: a pivot row leads with its pivot, one.
        let mut solution = vec![Gf256::ZERO; vars];
        for row in aug.data.chunks_exact(vars + 1).take(rank) {
            let col = row.iter().position(|c| !c.is_zero()).expect("pivot is one");
            solution[col] = row[vars];
        }
        Some(solution)
    }

    /// The workspace's one Gauss–Jordan elimination: brings the first
    /// `pivot_cols` columns to reduced row echelon form, taking columns in
    /// order and, for each, the first non-zero entry at or below the pivot
    /// row as its pivot. The other columns ride along as right-hand sides.
    /// Every row operation multiplies through the constant's [`MulTable`].
    /// Returns the number of pivots: the rank of those columns.
    fn reduce(&mut self, pivot_cols: usize) -> usize {
        let width = self.cols;
        let mut rank = 0;
        for col in 0..pivot_cols {
            if rank == self.rows {
                break;
            }
            let Some(pivot) = (rank..self.rows).find(|&r| !self[(r, col)].is_zero()) else {
                continue;
            };
            let top = rank * width;
            for c in 0..width {
                self.data.swap(top + c, pivot * width + c);
            }
            let scale = MulTable::of(self[(rank, col)].inv().expect("pivot is non-zero"));
            for v in &mut self.data[top..top + width] {
                *v = Gf256::new(scale.mul(v.value()));
            }
            for r in (0..self.rows).filter(|&r| r != rank) {
                let factor = MulTable::of(self[(r, col)]);
                if factor.coeff().is_zero() {
                    continue;
                }
                for c in 0..width {
                    let sub = factor.mul(self.data[top + c].value());
                    self.data[r * width + c] += Gf256::new(sub);
                }
            }
            rank += 1;
        }
        rank
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
