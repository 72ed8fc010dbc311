//! The fused GRU sequence kernel.
//!
//! One forward call runs every timestep of the cell formalised in
//! [`crate::layers::GruCell`] and keeps what backward needs (`z_t`,
//! `r_t`, `r_t ⊙ h_{t-1}`, the candidate's pre-activation and value,
//! every `h_t`); one backward call walks the timesteps in descending
//! order. [`Graph::gru_seq`](crate::Graph::gru_seq) wraps the pair as a
//! single tape op, and the tape-free
//! [`GruCell::infer_sequence`](crate::layers::GruCell::infer_sequence)
//! calls the same forward.
//!
//! # Why the results equal the op-by-op tape bit for bit
//!
//! Both kernels evaluate the IEEE chain the per-op composition
//! (`MatMul`, `Add`, `AddRowBroadcast`, `Sigmoid`, `Mul`, `Scale`,
//! `AddScalar`, …) evaluates, operation by operation:
//!
//! - every product element is the chain the tape's `linalg` GEMM runs:
//!   `0.0 + Σ` over ascending `k`, mul then add, never FMA. The
//!   recurrent products are `linalg` GEMMs (`h·U_z` and `h·U_r` as one
//!   product with `[U_z | U_r]`: output columns are independent chains).
//!   The input products `x·W` and `xᵀ·d`, whose inner dimension is the
//!   input width or the batch, are plain loops over the same chain. The
//!   GEMM's zero-skip does not make it differ from a plain loop: its
//!   accumulator starts at `+0.0` and can never become `-0.0`, so adding
//!   a skipped `±0.0` term changes nothing;
//! - every element-wise step is the same formula from [`crate::ops`]
//!   applied to the same operands in the same order:
//!   `z_pre = (x·W_z + h·U_z) + b_z`, `1 - z = (-1·z) + 1`,
//!   `h_t = (1 - z) ⊙ h' + z ⊙ h_{t-1}`;
//! - ReLU backward multiplies by a 0/1 mask, sigmoid and tanh backward
//!   by their local derivative computed from the output;
//! - a bias gradient sums rows ascending from `0.0`;
//! - a parameter's gradient is the last timestep's term, then `+=` the
//!   earlier ones in descending `t`, which is the order the reverse
//!   sweep reaches the per-step nodes;
//! - the gradient of `h_{t-1}` starts from what the sequence's consumers
//!   sent it and adds the `z ⊙ h`, `r ⊙ h`, `U_r` and `U_z` paths in that
//!   order, the reverse of the order the per-step ops were recorded.
//!
//! The consumers' gradient of a state that only the recurrence reads is
//! `+0.0` here where the tape had none; `+0.0 + g` differs from `g` only
//! for `g = -0.0`, and the `U_r` path added third is a GEMM result,
//! which is never `-0.0`, so the sums agree from there on. Gradients
//! nobody reads (`h_0` and the inputs) are not computed.

use env2vec_linalg::{Error, Matrix, Result};

use crate::layers::Activation;
use crate::ops;
use crate::profile::OpCost;

/// Index of the update gate `z` in a [`GruParams`] triple.
pub const Z: usize = 0;
/// Index of the reset gate `r`.
pub const R: usize = 1;
/// Index of the candidate `h'`.
pub const H: usize = 2;

/// The nine GRU parameters, indexed by gate ([`Z`], [`R`], [`H`]):
/// input weights `w` (`in x hidden`), recurrent weights `u`
/// (`hidden x hidden`) and biases `b` (`1 x hidden`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GruParams<T> {
    /// Input weights `W_z`, `W_r`, `W_h`.
    pub w: [T; 3],
    /// Recurrent weights `U_z`, `U_r`, `U_h`.
    pub u: [T; 3],
    /// Biases `b_z`, `b_r`, `b_h`.
    pub b: [T; 3],
}

impl<T: Copy> GruParams<T> {
    /// The same parameters under another handle type.
    pub fn map<U>(&self, mut f: impl FnMut(T) -> U) -> GruParams<U> {
        GruParams {
            w: self.w.map(&mut f),
            u: self.u.map(&mut f),
            b: self.b.map(&mut f),
        }
    }
}

/// A spent-buffer pool: the tape's arena, or a local one on the
/// tape-free path.
pub(crate) type Pool = Vec<Vec<f64>>;

fn take(pool: &mut Pool) -> Vec<f64> {
    pool.pop().unwrap_or_default()
}

fn give(pool: &mut Pool, m: Matrix) {
    let buf = m.into_vec();
    if buf.capacity() > 0 {
        pool.push(buf);
    }
}

/// Whether every entry of `m` is `±0.0`.
fn all_zero(m: &Matrix) -> bool {
    // envlint: allow(float-cmp) — the GEMM's own skip predicate, which
    // also treats -0.0 as zero.
    m.as_slice().iter().all(|&v| v == 0.0)
}

/// `a·b`. When `a` is all zeros and `b` finite — the zero initial state
/// and its products — the GEMM skips every term of every chain, so the
/// result is the `+0.0` matrix, which is filled without running it.
fn product(a: &Matrix, b: &Matrix, pool: &mut Pool) -> Result<Matrix> {
    if a.cols() == b.rows() && all_zero(a) && b.is_finite() {
        return Ok(Matrix::zeros_with(a.rows(), b.cols(), take(pool)));
    }
    a.matmul_with(b, take(pool))
}

/// `aᵀ·b`, with [`product`]'s shortcut for an all-zero `a`.
fn product_tn(a: &Matrix, b: &Matrix, pool: &mut Pool) -> Result<Matrix> {
    if a.rows() == b.rows() && all_zero(a) && b.is_finite() {
        return Ok(Matrix::zeros_with(a.cols(), b.cols(), take(pool)));
    }
    a.matmul_tn_with(b, take(pool))
}

/// What one forward pass keeps for backward, per timestep `t` (`h`
/// also holds the zero initial state, so `h[t]` is step `t`'s input
/// state and `h[t + 1]` its output).
#[derive(Debug, Clone, Default)]
pub(crate) struct GruTrace {
    z: Vec<Matrix>,
    r: Vec<Matrix>,
    rh: Vec<Matrix>,
    pre: Vec<Matrix>,
    cand: Vec<Matrix>,
    pub(crate) h: Vec<Matrix>,
}

impl GruTrace {
    /// Number of timesteps.
    pub(crate) fn steps(&self) -> usize {
        self.h.len().saturating_sub(1)
    }

    /// Returns every buffer to `pool`.
    pub(crate) fn recycle(self, pool: &mut Pool) {
        for m in [self.z, self.r, self.rh, self.pre, self.cand, self.h]
            .into_iter()
            .flatten()
        {
            give(pool, m);
        }
    }
}

/// Estimated cost of the forward or backward kernel over `xs`: per step,
/// three recurrent and three input products forward; three `nt`, three
/// `tn` and three input-gradient products backward; plus the
/// element-wise work around them.
pub(crate) fn cost(xs: &[Matrix], hidden: usize, backward: bool) -> OpCost {
    let steps = xs.len() as u64;
    let (batch, in_dim) = xs.first().map_or((0, 0), Matrix::shape);
    let (in_dim, hidden) = (in_dim as u64, hidden as u64);
    let bh = batch as u64 * hidden;
    let (flops, allocs) = if backward {
        (2 * bh * (6 * hidden + 3 * in_dim) + 20 * bh, 18)
    } else {
        (2 * bh * (3 * hidden + 3 * in_dim) + 14 * bh, 9)
    };
    OpCost {
        flops: steps * flops,
        allocs: steps * allocs + 1,
        out_elems: if backward { 0 } else { steps * bh },
    }
}

/// Checks the weight shapes against each other and the inputs against
/// the weights; returns `(batch, in_dim, hidden)`.
fn check(w: &GruParams<&Matrix>, xs: &[Matrix]) -> Result<(usize, usize, usize)> {
    let Some(x0) = xs.first() else {
        return Err(Error::Empty {
            routine: "gru sequence",
        });
    };
    let (in_dim, hidden) = w.w[Z].shape();
    if in_dim == 0 || hidden == 0 {
        return Err(Error::InvalidArgument {
            what: "gru input and hidden widths must be positive",
        });
    }
    for g in [Z, R, H] {
        let shapes = [w.w[g].shape(), w.u[g].shape(), w.b[g].shape()];
        if shapes != [(in_dim, hidden), (hidden, hidden), (1, hidden)] {
            return Err(Error::ShapeMismatch {
                op: "gru weights",
                lhs: (in_dim, hidden),
                rhs: w.u[g].shape(),
            });
        }
    }
    let batch = x0.rows();
    for x in xs {
        if x.shape() != (batch, in_dim) {
            return Err(Error::ShapeMismatch {
                op: "gru input",
                lhs: (batch, in_dim),
                rhs: x.shape(),
            });
        }
    }
    Ok((batch, in_dim, hidden))
}

/// A gate's pre-activation `(x·W + rec) + b`, where `rec` is the
/// column block `[col, col + hidden)` of `recurrent`:
/// `out[i][j] = ((0.0 + Σ_k x[i][k]·W[k][j]) + rec[i][j]) + b[j]`, the
/// input product as a plain loop over the GEMM's chain.
fn pre_activation(
    x: &Matrix,
    w: &Matrix,
    recurrent: &Matrix,
    col: usize,
    b: &Matrix,
    pool: &mut Pool,
) -> Matrix {
    let hidden = w.cols();
    let mut out = Matrix::zeros_with(x.rows(), hidden, take(pool));
    let rows = out
        .as_mut_slice()
        .chunks_exact_mut(hidden)
        .zip(x.as_slice().chunks_exact(x.cols()))
        .zip(recurrent.as_slice().chunks_exact(recurrent.cols()));
    for ((o, x_row), rec_row) in rows {
        for (&xv, w_row) in x_row.iter().zip(w.as_slice().chunks_exact(hidden)) {
            for (s, &wv) in o.iter_mut().zip(w_row) {
                *s += xv * wv;
            }
        }
        for ((s, &r), &bv) in o
            .iter_mut()
            .zip(&rec_row[col..col + hidden])
            .zip(b.as_slice())
        {
            *s = (*s + r) + bv;
        }
    }
    out
}

/// Runs the cell over `xs` (oldest first, each `B x in_dim`) from a zero
/// state. With `keep` false only the states are kept and every other
/// buffer goes back to `pool` as soon as its step is done.
///
/// Returns an error for an empty sequence or mismatched shapes.
pub(crate) fn forward(
    w: &GruParams<&Matrix>,
    xs: &[Matrix],
    candidate: Activation,
    keep: bool,
    pool: &mut Pool,
) -> Result<GruTrace> {
    let (batch, _, hidden) = check(w, xs)?;
    let steps = xs.len();
    let mut trace = GruTrace {
        h: Vec::with_capacity(steps + 1),
        ..GruTrace::default()
    };
    trace.h.push(Matrix::zeros_with(batch, hidden, take(pool)));
    let f = ops::activation_fn(candidate);
    // [U_z | U_r]: both gates' recurrent products in one GEMM. Output
    // columns are independent chains, so each block equals its own
    // product.
    let u_zr = ops::concat_cols_with([w.u[Z], w.u[R]], take(pool))?;
    for (t, x) in xs.iter().enumerate() {
        let h_prev = &trace.h[t];
        // z, r = σ((x·W + h·U) + b).
        let hu = product(h_prev, &u_zr, pool)?;
        let mut z = pre_activation(x, w.w[Z], &hu, 0, w.b[Z], pool);
        z.map_inplace(ops::sigmoid);
        let mut r = pre_activation(x, w.w[R], &hu, hidden, w.b[R], pool);
        r.map_inplace(ops::sigmoid);
        give(pool, hu);
        // h' = f((x·W_h + (r ⊙ h)·U_h) + b_h).
        let rh = r.hadamard_with(h_prev, take(pool))?;
        let rhu = product(&rh, w.u[H], pool)?;
        let pre = pre_activation(x, w.w[H], &rhu, 0, w.b[H], pool);
        give(pool, rhu);
        let cand = match f {
            Some((_, f)) => pre.map_with(take(pool), f),
            None => pre.clone_with(take(pool)),
        };
        // h_t = (1 - z) ⊙ h' + z ⊙ h_{t-1}.
        let mut h = take(pool);
        h.clear();
        h.extend(
            z.as_slice()
                .iter()
                .zip(cand.as_slice())
                .zip(h_prev.as_slice())
                .map(|((&z, &c), &hp)| ops::one_minus(z) * c + z * hp),
        );
        trace.h.push(Matrix::from_vec(batch, hidden, h)?);
        if keep {
            trace.z.push(z);
            trace.r.push(r);
            trace.rh.push(rh);
            trace.pre.push(pre);
            trace.cand.push(cand);
        } else {
            for m in [z, r, rh, pre, cand] {
                give(pool, m);
            }
        }
    }
    give(pool, u_zr);
    Ok(trace)
}

/// The input-weight gradient term `xᵀ·d`, a plain loop over the GEMM's
/// chain: from `0.0` over ascending rows.
fn input_grad(x: &Matrix, d: &Matrix, pool: &mut Pool) -> Matrix {
    let mut out = Matrix::zeros_with(x.cols(), d.cols(), take(pool));
    for i in 0..x.rows() {
        let d_row = d.row(i);
        for (k, &xv) in x.row(i).iter().enumerate() {
            for (s, &v) in out.row_mut(k).iter_mut().zip(d_row) {
                *s += xv * v;
            }
        }
    }
    out
}

/// `acc[i] = acc[i] + f(a[i], b[i])`: the tape's accumulation of a
/// Hadamard-product gradient path into `acc`.
fn add_path(acc: &mut Matrix, a: &Matrix, b: &Matrix, f: impl Fn(f64, f64) -> f64) {
    for ((s, &x), &y) in acc
        .as_mut_slice()
        .iter_mut()
        .zip(a.as_slice())
        .zip(b.as_slice())
    {
        *s += f(x, y);
    }
}

/// `acc[i] = acc[i] + m[i]`: the tape's accumulation of a product's
/// gradient path into `acc`.
fn add_product_path(acc: &mut Matrix, m: &Matrix) {
    for (s, &v) in acc.as_mut_slice().iter_mut().zip(m.as_slice()) {
        *s += v;
    }
}

/// Back through `h_t = (1 - z) ⊙ h' + z ⊙ h_{t-1}` to the candidate's
/// and the update gate's pre-activations, given `dh = ∂L/∂h_t`.
/// `dpre_of(dh', pre, h')` applies the candidate's local derivative; it
/// is a type parameter so each activation gets its own vectorisable
/// loop.
fn output_grads(
    dh: &Matrix,
    h_prev: &Matrix,
    z: &Matrix,
    pre: &Matrix,
    cand: &Matrix,
    pool: &mut Pool,
    dpre_of: impl Fn(f64, f64, f64) -> f64,
) -> (Matrix, Matrix) {
    let (rows, cols) = dh.shape();
    let mut dpre = Matrix::zeros_with(rows, cols, take(pool));
    let mut dz_pre = Matrix::zeros_with(rows, cols, take(pool));
    let inputs = dh
        .as_slice()
        .iter()
        .zip(h_prev.as_slice())
        .zip(z.as_slice())
        .zip(pre.as_slice())
        .zip(cand.as_slice());
    let outputs = dpre
        .as_mut_slice()
        .iter_mut()
        .zip(dz_pre.as_mut_slice().iter_mut());
    for (((((&g, &hp), &z), &p), &c), (dp, dz_pre)) in inputs.zip(outputs) {
        // ∂z: the z ⊙ h term, then the (1 - z) ⊙ h' term through its
        // Scale by -1 (a multiply, as the tape's `Scale` runs it).
        #[allow(clippy::neg_multiply)]
        let dz = (g * hp) + -1.0 * (g * c);
        *dp = dpre_of(g * ops::one_minus(z), p, c);
        *dz_pre = dz * ops::sigmoid_grad(z);
    }
    (dpre, dz_pre)
}

/// Backpropagates `d_states` (the consumers' gradient of every state,
/// `B x (T·hidden)`, block `t` for `h_{t+1}`) through a trace made by
/// [`forward`] with `keep` set. Returns each parameter's gradient terms,
/// tagged with its handle from `ids`, in the order the tape would have
/// accumulated them: per timestep, descending.
///
/// Returns an error when `d_states` does not match the trace.
pub(crate) fn backward<T: Copy>(
    w: &GruParams<&Matrix>,
    ids: &GruParams<T>,
    xs: &[Matrix],
    trace: &GruTrace,
    candidate: Activation,
    d_states: &Matrix,
    pool: &mut Pool,
) -> Result<Vec<(T, Matrix)>> {
    let steps = trace.steps();
    let Some(last) = trace.h.last() else {
        return Err(Error::Empty {
            routine: "gru backward",
        });
    };
    let (batch, hidden) = last.shape();
    if d_states.shape() != (batch, steps * hidden) || trace.cand.len() != steps {
        return Err(Error::ShapeMismatch {
            op: "gru backward",
            lhs: (batch, steps * hidden),
            rhs: d_states.shape(),
        });
    }
    let mut terms = Vec::with_capacity(9 * steps);
    let mut dh = ops::cols_with(d_states, (steps - 1) * hidden, hidden, take(pool));
    for t in (0..steps).rev() {
        let (x, h_prev) = (&xs[t], &trace.h[t]);
        let (z, r, pre, cand) = (&trace.z[t], &trace.r[t], &trace.pre[t], &trace.cand[t]);
        // The gradient of h_{t-1}: its consumers' share, then the paths
        // through this step in the reverse of the order the per-step ops
        // were recorded: z ⊙ h, r ⊙ h, U_r, U_z.
        let mut dh_prev =
            (t > 0).then(|| ops::cols_with(d_states, (t - 1) * hidden, hidden, take(pool)));
        let (dpre, dz_pre) = match candidate {
            Activation::Linear => output_grads(&dh, h_prev, z, pre, cand, pool, |d, _, _| d),
            Activation::Sigmoid => output_grads(&dh, h_prev, z, pre, cand, pool, |d, _, c| {
                d * ops::sigmoid_grad(c)
            }),
            Activation::Tanh => output_grads(&dh, h_prev, z, pre, cand, pool, |d, _, c| {
                d * ops::tanh_grad(c)
            }),
            Activation::Relu => output_grads(&dh, h_prev, z, pre, cand, pool, |d, p, _| {
                d * ops::relu_mask(p)
            }),
        };
        if let Some(dp) = dh_prev.as_mut() {
            add_path(dp, &dh, z, |g, z| g * z);
        }
        // h' = f((x·W_h + (r ⊙ h)·U_h) + b_h).
        terms.push((ids.b[H], ops::col_sums_with(&dpre, take(pool))));
        let drh = dpre.matmul_nt_with(w.u[H], take(pool))?;
        terms.push((ids.u[H], product_tn(&trace.rh[t], &dpre, pool)?));
        terms.push((ids.w[H], input_grad(x, &dpre, pool)));
        give(pool, dpre);
        // r ⊙ h, then the reset gate's pre-activation.
        let mut dr_pre = Matrix::zeros_with(batch, hidden, take(pool));
        for (((d, &g), &hp), &r) in dr_pre
            .as_mut_slice()
            .iter_mut()
            .zip(drh.as_slice())
            .zip(h_prev.as_slice())
            .zip(r.as_slice())
        {
            *d = (g * hp) * ops::sigmoid_grad(r);
        }
        if let Some(dp) = dh_prev.as_mut() {
            add_path(dp, &drh, r, |g, r| g * r);
        }
        give(pool, drh);
        // σ((x·W + h·U) + b) for r, then z.
        for (g, d) in [(R, dr_pre), (Z, dz_pre)] {
            terms.push((ids.b[g], ops::col_sums_with(&d, take(pool))));
            if let Some(dp) = dh_prev.as_mut() {
                let via_u = d.matmul_nt_with(w.u[g], take(pool))?;
                add_product_path(dp, &via_u);
                give(pool, via_u);
            }
            terms.push((ids.u[g], product_tn(h_prev, &d, pool)?));
            terms.push((ids.w[g], input_grad(x, &d, pool)));
            give(pool, d);
        }
        if let Some(dp) = dh_prev {
            give(pool, std::mem::replace(&mut dh, dp));
        }
    }
    give(pool, dh);
    Ok(terms)
}
