//! Dense row-major matrices with explicit storage-precision quantisation.

use ft2_numeric::DType;

/// A dense row-major `rows × cols` matrix of `f32`.
#[derive(Clone, Debug, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Default for Matrix {
    /// An empty `0 × 0` matrix (the natural seed for `reset`-style reuse).
    fn default() -> Self {
        Matrix::zeros(0, 0)
    }
}

impl Matrix {
    /// All-zeros matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Build from a row-major data vector. Panics if the length mismatches.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "matrix data length mismatch");
        Matrix { rows, cols, data }
    }

    /// Build by evaluating `f(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
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

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the matrix has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Row `r` as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Element `(r, c)`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Set element `(r, c)`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Element at flattened row-major index `i` (used by stored-state fault
    /// injection and integrity scrubbing, which address tensors linearly).
    #[inline]
    pub fn get_flat(&self, i: usize) -> f32 {
        self.data[i]
    }

    /// Set the element at flattened row-major index `i`.
    #[inline]
    pub fn set_flat(&mut self, i: usize, v: f32) {
        self.data[i] = v;
    }

    /// The whole backing slice, row-major.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// The whole backing slice, mutable.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// A new matrix containing rows `lo..hi`.
    pub fn slice_rows(&self, lo: usize, hi: usize) -> Matrix {
        assert!(lo <= hi && hi <= self.rows);
        Matrix {
            rows: hi - lo,
            cols: self.cols,
            data: self.data[lo * self.cols..hi * self.cols].to_vec(),
        }
    }

    /// Append the rows of `other` (same column count) to this matrix.
    pub fn append_rows(&mut self, other: &Matrix) {
        assert_eq!(self.cols, other.cols, "column mismatch in append_rows");
        self.data.extend_from_slice(&other.data);
        self.rows += other.rows;
    }

    /// Append one row (`cols` elements) to this matrix.
    pub fn push_row(&mut self, row: &[f32]) {
        assert_eq!(self.cols, row.len(), "column mismatch in push_row");
        self.data.extend_from_slice(row);
        self.rows += 1;
    }

    /// Drop all rows past `rows`, keeping the leading prefix — the inverse
    /// of [`Matrix::append_rows`] (KV-cache rollback restores a snapshot by
    /// truncating back to the snapshotted length).
    pub fn truncate_rows(&mut self, rows: usize) {
        assert!(rows <= self.rows, "cannot truncate {} rows to {rows}", self.rows);
        self.data.truncate(rows * self.cols);
        self.rows = rows;
    }

    /// Reshape to `rows × cols` with every element zeroed, reusing the
    /// existing allocation when it is large enough. This is the scratch
    /// primitive for the decode hot path: per-token buffers are `reset`
    /// instead of reallocated each step.
    pub fn reset(&mut self, rows: usize, cols: usize) {
        let n = rows * cols;
        self.data.clear();
        self.data.resize(n, 0.0);
        self.rows = rows;
        self.cols = cols;
    }

    /// The transpose as a new matrix.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Round every element to the storage grid of `dtype` in place. This is
    /// the "store to memory" step of a mixed-precision pipeline.
    pub fn quantize(&mut self, dtype: DType) {
        dtype.quantize_slice(&mut self.data);
    }

    /// Maximum absolute difference to another matrix of identical shape.
    pub fn max_abs_diff(&self, other: &Matrix) -> f32 {
        assert_eq!(self.rows, other.rows);
        assert_eq!(self.cols, other.cols);
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max)
    }

    /// Does any element compare unequal to itself (i.e. is NaN)?
    pub fn has_nan(&self) -> bool {
        self.data.iter().any(|v| v.is_nan())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let m = Matrix::from_fn(2, 3, |r, c| (r * 10 + c) as f32);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert_eq!(m.get(0, 0), 0.0);
        assert_eq!(m.get(1, 2), 12.0);
        assert_eq!(m.row(1), &[10.0, 11.0, 12.0]);
    }

    #[test]
    #[should_panic]
    fn from_vec_checks_length() {
        Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = Matrix::from_fn(3, 4, |r, c| (r * 4 + c) as f32);
        let t = m.transpose();
        assert_eq!(t.rows(), 4);
        assert_eq!(t.cols(), 3);
        assert_eq!(t.get(2, 1), m.get(1, 2));
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn slice_and_append_rows() {
        let m = Matrix::from_fn(4, 2, |r, c| (r * 2 + c) as f32);
        let top = m.slice_rows(0, 2);
        let bottom = m.slice_rows(2, 4);
        let mut rejoined = top.clone();
        rejoined.append_rows(&bottom);
        assert_eq!(rejoined, m);
    }

    #[test]
    fn quantize_f16_rounds_to_grid() {
        let mut m = Matrix::from_vec(1, 3, vec![1.0005, -2.0003, 70000.0]);
        m.quantize(DType::F16);
        // 1.0005 rounds to a representable f16 value close-by.
        assert!((m.get(0, 0) - 1.0).abs() < 0.001);
        // 70000 overflows binary16 to infinity.
        assert!(m.get(0, 2).is_infinite());
        // f32 quantisation is a no-op.
        let mut m2 = Matrix::from_vec(1, 1, vec![1.000_000_1]);
        let before = m2.get(0, 0);
        m2.quantize(DType::F32);
        assert_eq!(m2.get(0, 0), before);
    }

    #[test]
    fn flat_indexing_matches_row_major_layout() {
        let mut m = Matrix::from_fn(3, 4, |r, c| (r * 4 + c) as f32);
        for r in 0..3 {
            for c in 0..4 {
                assert_eq!(m.get_flat(r * 4 + c), m.get(r, c));
            }
        }
        m.set_flat(5, 99.0);
        assert_eq!(m.get(1, 1), 99.0);
    }

    #[test]
    fn reset_reshapes_and_zeroes() {
        let mut m = Matrix::from_fn(3, 4, |r, c| (r * 4 + c + 1) as f32);
        m.reset(2, 5);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 5);
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
        // Growing works too.
        m.set(1, 4, 3.0);
        m.reset(4, 6);
        assert_eq!(m.len(), 24);
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn nan_detection() {
        let mut m = Matrix::zeros(2, 2);
        assert!(!m.has_nan());
        m.set(1, 0, f32::NAN);
        assert!(m.has_nan());
    }

    #[test]
    fn dtype_properties() {
        assert_eq!(DType::F16.name(), "fp16");
        assert_eq!(DType::Bf16.name(), "bf16");
        let mut m = Matrix::from_vec(1, 1, vec![1.000_000_1]);
        m.quantize(DType::Bf16);
        assert_eq!(m.get(0, 0), 1.0);
    }
}
