//! Forward formulas shared by the tape and the tape-free inference path.
//!
//! Every element-wise formula a [`Graph`](crate::Graph) op evaluates is
//! written here once. The tape's ops, the fused GRU kernel and the
//! tape-free forwards of [`crate::layers`] all call it, and products go
//! through the same `linalg` GEMMs, so inference reproduces the tape's
//! values bit for bit.
//!
//! The public functions are the tape-free counterparts of tape ops. Each
//! runs one stage and, when the profiler is on, records it in
//! [`crate::profile`] under the tape op's name (`MatMul`, `Sigmoid`, …)
//! at [`profile::INFERENCE_SITE`], so `--profile-ops` still sees the
//! inference path. With the profiler off a stage costs one relaxed
//! atomic load.

use env2vec_linalg::{Error, Matrix, Result};

use crate::layers::Activation;
use crate::profile::{self, OpCost};

/// Logistic sigmoid.
#[inline]
pub(crate) fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

/// Rectified linear unit.
#[inline]
pub(crate) fn relu(x: f64) -> f64 {
    x.max(0.0)
}

/// `1 - z` as the tape composes it: a `Scale` by `-1`, then an
/// `AddScalar` of `1`.
#[inline]
// The multiply is the tape's `Scale`; kept as written, not as `-z`.
#[allow(clippy::neg_multiply)]
pub(crate) fn one_minus(z: f64) -> f64 {
    -1.0 * z + 1.0
}

/// Local derivative of the sigmoid from its output `y`.
#[inline]
pub(crate) fn sigmoid_grad(y: f64) -> f64 {
    y * (1.0 - y)
}

/// Local derivative of `tanh` from its output `y`.
#[inline]
pub(crate) fn tanh_grad(y: f64) -> f64 {
    1.0 - y * y
}

/// ReLU's 0/1 backward mask from its input `x`. Backward multiplies by
/// it, so a non-finite gradient stays visible where the unit is off.
#[inline]
pub(crate) fn relu_mask(x: f64) -> f64 {
    if x > 0.0 {
        1.0
    } else {
        0.0
    }
}

/// An element-wise formula.
type Elementwise = fn(f64) -> f64;

/// The element-wise function of an activation and the name of the tape
/// op that applies it; `None` for `Linear`, which records no op.
pub(crate) fn activation_fn(activation: Activation) -> Option<(&'static str, Elementwise)> {
    match activation {
        Activation::Linear => None,
        Activation::Sigmoid => Some(("Sigmoid", sigmoid)),
        Activation::Tanh => Some(("Tanh", f64::tanh)),
        Activation::Relu => Some(("Relu", relu)),
    }
}

/// Adds the `1 x C` row `bias` to every row of `m` in place.
///
/// Returns an error when `bias` is not a single row of matching width.
pub(crate) fn add_row_in_place(m: &mut Matrix, bias: &Matrix) -> Result<()> {
    if bias.rows() != 1 || bias.cols() != m.cols() {
        return Err(Error::ShapeMismatch {
            op: "add_row_broadcast",
            lhs: m.shape(),
            rhs: bias.shape(),
        });
    }
    for i in 0..m.rows() {
        for (x, &v) in m.row_mut(i).iter_mut().zip(bias.row(0)) {
            *x += v;
        }
    }
    Ok(())
}

/// Column sums of `m` as a `1 x C` row, each summed from `0.0` over
/// ascending rows (the bias gradient).
pub(crate) fn col_sums_with(m: &Matrix, storage: Vec<f64>) -> Matrix {
    let mut out = Matrix::zeros_with(1, m.cols(), storage);
    for r in 0..m.rows() {
        for (s, &g) in out.as_mut_slice().iter_mut().zip(m.row(r)) {
            *s += g;
        }
    }
    out
}

/// Sums each row into an `R x 1` column.
pub(crate) fn row_sums_with(m: &Matrix, storage: Vec<f64>) -> Matrix {
    Matrix::from_fn_with(m.rows(), 1, storage, |i, _| m.row(i).iter().sum())
}

/// Row-wise softmax in place, stabilised by subtracting the row max.
pub(crate) fn row_softmax_in_place(m: &mut Matrix) {
    for i in 0..m.rows() {
        let row = m.row_mut(i);
        let max = row.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let mut sum = 0.0;
        for x in row.iter_mut() {
            *x = (*x - max).exp();
            sum += *x;
        }
        for x in row.iter_mut() {
            *x /= sum;
        }
    }
}

/// Copy of the column block `[start, start + len)` of `m`, one row
/// slice at a time.
pub(crate) fn cols_with(m: &Matrix, start: usize, len: usize, mut storage: Vec<f64>) -> Matrix {
    storage.clear();
    storage.reserve(m.rows() * len);
    for r in 0..m.rows() {
        storage.extend_from_slice(&m.row(r)[start..start + len]);
    }
    Matrix::from_vec(m.rows(), len, storage)
        // envlint: allow(no-panic) — exactly rows·len values were pushed.
        .expect("block holds rows x len values")
}

/// Column-wise concatenation of equal-height matrices.
///
/// Returns an error for an empty list or mismatched row counts.
pub(crate) fn concat_cols_with<'a, I>(parts: I, mut storage: Vec<f64>) -> Result<Matrix>
where
    I: IntoIterator<Item = &'a Matrix>,
    I::IntoIter: Clone,
{
    let parts = parts.into_iter();
    let Some(first) = parts.clone().next() else {
        return Err(Error::Empty {
            routine: "concat_cols",
        });
    };
    let rows = first.rows();
    let mut cols = 0;
    for p in parts.clone() {
        if p.rows() != rows {
            return Err(Error::ShapeMismatch {
                op: "concat_cols",
                lhs: (rows, cols),
                rhs: p.shape(),
            });
        }
        cols += p.cols();
    }
    storage.clear();
    storage.reserve(rows * cols);
    for r in 0..rows {
        for p in parts.clone() {
            storage.extend_from_slice(p.row(r));
        }
    }
    Matrix::from_vec(rows, cols, storage)
}

/// A tape-free stage's cost: `flops` estimated as on the tape, one
/// output buffer of `out_elems` values.
fn cost(flops: usize, out_elems: usize) -> OpCost {
    OpCost {
        flops: flops as u64,
        allocs: 1,
        out_elems: out_elems as u64,
    }
}

/// Tape-free `MatMul`: `a · b`.
///
/// Returns an error on inner-dimension mismatch.
pub fn matmul(a: &Matrix, b: &Matrix) -> Result<Matrix> {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    profile::stage("MatMul", || cost(2 * m * k * n, m * n), || a.matmul(b))
}

/// Tape-free `AddRowBroadcast`: adds the `1 x C` row `bias` to every
/// row of `m` in place.
///
/// Returns an error when `bias` is not a single row of matching width.
pub fn add_row_broadcast(m: &mut Matrix, bias: &Matrix) -> Result<()> {
    let n = m.len();
    profile::stage(
        "AddRowBroadcast",
        || cost(n, n),
        || add_row_in_place(m, bias),
    )
}

/// Tape-free activation in place; `Linear` leaves `m` as it is and
/// records nothing, as on the tape.
pub fn activate(m: &mut Matrix, activation: Activation) {
    if let Some((op, f)) = activation_fn(activation) {
        let n = m.len();
        let flops = if activation == Activation::Relu {
            n
        } else {
            4 * n
        };
        profile::stage(op, || cost(flops, n), || m.map_inplace(f));
    }
}

/// Tape-free `Add`: `a + b`.
///
/// Returns an error on shape mismatch.
pub fn add(a: &Matrix, b: &Matrix) -> Result<Matrix> {
    profile::stage("Add", || cost(a.len(), a.len()), || a.add(b))
}

/// Tape-free `Mul`: the Hadamard product `a ⊙ b`.
///
/// Returns an error on shape mismatch.
pub fn mul(a: &Matrix, b: &Matrix) -> Result<Matrix> {
    profile::stage("Mul", || cost(a.len(), a.len()), || a.hadamard(b))
}

/// Tape-free `RowSums`: an `R x 1` column of row sums.
pub fn row_sums(m: &Matrix) -> Matrix {
    profile::stage(
        "RowSums",
        || cost(m.len(), m.rows()),
        || row_sums_with(m, Vec::new()),
    )
}

/// Tape-free `RowSoftmax` in place.
pub fn row_softmax(m: &mut Matrix) {
    let n = m.len();
    profile::stage("RowSoftmax", || cost(5 * n, n), || row_softmax_in_place(m));
}

/// Tape-free `ConcatCols`.
///
/// Returns an error for an empty list or mismatched row counts.
pub fn concat_cols<'a, I>(parts: I) -> Result<Matrix>
where
    I: IntoIterator<Item = &'a Matrix>,
    I::IntoIter: Clone,
{
    let parts = parts.into_iter();
    profile::stage(
        "ConcatCols",
        || cost(0, parts.clone().map(Matrix::len).sum()),
        || concat_cols_with(parts.clone(), Vec::new()),
    )
}

/// Tape-free `SliceCols`: the column block `[start, start + len)`.
///
/// Returns an error when the block is empty or exceeds `m`'s width.
pub fn slice_cols(m: &Matrix, start: usize, len: usize) -> Result<Matrix> {
    if len == 0 || start + len > m.cols() {
        return Err(Error::InvalidArgument {
            what: "slice_cols out of range or empty",
        });
    }
    profile::stage(
        "SliceCols",
        || cost(0, m.rows() * len),
        || Ok(cols_with(m, start, len, Vec::new())),
    )
}

/// Tape-free `GatherRows`: the listed rows of `table`, in order.
///
/// Returns an error when an index is out of range.
pub fn gather_rows(table: &Matrix, indices: &[usize]) -> Result<Matrix> {
    profile::stage(
        "GatherRows",
        || cost(0, indices.len() * table.cols()),
        || table.select_rows(indices),
    )
}
