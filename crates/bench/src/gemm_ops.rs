//! The `gemm` repro experiment: a matrix-multiply microbenchmark.
//!
//! Times the three GEMM entry points ([`Matrix::matmul`],
//! [`Matrix::matmul_nt`], [`Matrix::matmul_tn`]) over a fixed ladder of
//! shapes:
//!
//! * **training-shaped** products — the mini-batch sizes the table-4
//!   models actually run (batch 64, hidden 32, GRU width 8), which sit
//!   below or near the packed kernel's crossover and stress per-call
//!   overhead;
//! * **square and tall** products large enough to take the packed
//!   path and (from `PAR_MIN_ELEMS` multiply-adds up) the parallel
//!   row-block fan-out, which measure kernel throughput.
//!
//! Besides GF/s per shape, the run cross-checks every layout against
//! the plain `matmul` formulation bit-for-bit (`f64::to_bits`) and
//! folds all three result matrices into one FNV-1a checksum. The
//! checksum is printed and exported in the bench JSON: two runs at
//! different `--threads` values must print the same sixteen hex digits,
//! which is how the CI smoke job checks thread-count invariance without
//! re-deriving golden values.

use std::time::Instant;

use env2vec_eval::EvalOptions;
use env2vec_linalg::Matrix;

/// One `(m, k, n)` product in the ladder.
#[derive(Debug, Clone, Copy)]
struct GemmShape {
    m: usize,
    k: usize,
    n: usize,
    /// Timed repetitions (fixed, so run lengths are stable across
    /// machines and the bench gate compares like with like).
    iters: usize,
}

impl GemmShape {
    const fn new(m: usize, k: usize, n: usize, iters: usize) -> Self {
        GemmShape { m, k, n, iters }
    }

    fn flops_per_iter(self) -> f64 {
        2.0 * self.m as f64 * self.k as f64 * self.n as f64
    }
}

/// The shape ladder, scaled by the preset.
fn shapes(fast: bool) -> Vec<GemmShape> {
    let mut v = vec![
        // Training-shaped: batch x features -> hidden, hidden -> output,
        // and the GRU's tiny 8-wide products.
        GemmShape::new(64, 41, 32, 4000),
        GemmShape::new(64, 32, 1, 8000),
        GemmShape::new(64, 8, 8, 8000),
        // Packed path, single-threaded sized.
        GemmShape::new(128, 128, 128, 200),
        GemmShape::new(256, 192, 160, 60),
    ];
    if !fast {
        // Large enough that `m * k * n` crosses PAR_MIN_ELEMS and the
        // row blocks fan out over the worker pool.
        v.push(GemmShape::new(512, 384, 768, 12));
        v.push(GemmShape::new(1024, 256, 512, 10));
    }
    v
}

/// Per-shape measurements.
#[derive(Debug, Clone)]
pub struct GemmShapeResult {
    /// `m x k x n` of the product.
    pub m: usize,
    /// Inner dimension.
    pub k: usize,
    /// Output width.
    pub n: usize,
    /// GF/s of `matmul` (A·B).
    pub nn_gflops: f64,
    /// GF/s of `matmul_nt` (A·Bᵀ).
    pub nt_gflops: f64,
    /// GF/s of `matmul_tn` (Aᵀ·B).
    pub tn_gflops: f64,
}

/// Everything the microbenchmark measured, for `--bench-json`.
#[derive(Debug, Clone)]
pub struct GemmOpsSummary {
    /// Per-shape throughput.
    pub shapes: Vec<GemmShapeResult>,
    /// FNV-1a over the bits of every result matrix, all shapes and
    /// layouts. Thread-count and layout invariant by construction.
    pub golden_checksum: u64,
    /// Throughput of the largest shape's plain `matmul`, the headline
    /// number the bench gate tracks.
    pub peak_nn_gflops: f64,
    /// The GEMM microkernel this CPU ran (`"avx2"` or `"scalar"`), so
    /// records from different CPUs can be told apart.
    pub microkernel: &'static str,
}

impl GemmOpsSummary {
    /// The `"gemm": {...}` object for `--bench-json` (unknown fields are
    /// ignored by the bench-record parser, so old tooling keeps working).
    pub fn json_object(&self) -> String {
        let mut per_shape = String::new();
        for (i, s) in self.shapes.iter().enumerate() {
            if i > 0 {
                per_shape.push_str(", ");
            }
            per_shape.push_str(&format!(
                "{{\"m\": {}, \"k\": {}, \"n\": {}, \"nn_gflops\": {:.3}, \
                 \"nt_gflops\": {:.3}, \"tn_gflops\": {:.3}}}",
                s.m, s.k, s.n, s.nn_gflops, s.nt_gflops, s.tn_gflops
            ));
        }
        format!(
            "{{\n    \"microkernel\": \"{}\",\n    \"peak_nn_gflops\": {:.3},\n    \
             \"golden_checksum\": \"{:016x}\",\n    \"shapes\": [{}]\n  }}",
            self.microkernel, self.peak_nn_gflops, self.golden_checksum, per_shape
        )
    }
}

/// SplitMix64, the same deterministic generator the equivalence tests
/// use, so benchmark inputs are reproducible without a rand dependency.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in [-1, 1), with an exact 1/16 chance of ±0.0 so the
    /// kernel's zero-skip lane is exercised at benchmark time too.
    fn next_f64(&mut self) -> f64 {
        let r = self.next_u64();
        if r.is_multiple_of(16) {
            return if r & 16 == 0 { 0.0 } else { -0.0 };
        }
        (r >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }
}

fn random_matrix(rng: &mut SplitMix64, rows: usize, cols: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| rng.next_f64())
}

fn fnv1a_fold(mut hash: u64, m: &Matrix) -> u64 {
    for &x in m.as_slice() {
        for byte in x.to_bits().to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// Runs the microbenchmark; returns the human-readable table.
pub fn run(opts: &EvalOptions) -> Result<String, env2vec_linalg::Error> {
    let (text, _) = run_with_summary(opts)?;
    Ok(text)
}

/// Like [`run`], but also hands back the summary for `--bench-json` and
/// the bench gate.
pub fn run_with_summary(
    opts: &EvalOptions,
) -> Result<(String, GemmOpsSummary), env2vec_linalg::Error> {
    let ladder = shapes(opts.fast);
    let mut rng = SplitMix64(opts.seed ^ 0x9e37_79b9_7f4a_7c15);
    let mut results = Vec::with_capacity(ladder.len());
    let mut checksum = 0xcbf2_9ce4_8422_2325u64; // FNV-1a offset basis.

    for &shape in &ladder {
        let GemmShape { m, k, n, iters } = shape;
        let a = random_matrix(&mut rng, m, k);
        let b = random_matrix(&mut rng, k, n);
        // The transposed operands for the nt/tn entry points hold the
        // same values, so all three layouts must agree bit-for-bit.
        let bt = b.transpose();
        let at = a.transpose();

        let c_nn = a.matmul(&b)?;
        let c_nt = a.matmul_nt(&bt)?;
        let c_tn = at.matmul_tn(&b)?;
        let identical = c_nn
            .as_slice()
            .iter()
            .zip(c_nt.as_slice())
            .zip(c_tn.as_slice())
            .all(|((x, y), z)| x.to_bits() == y.to_bits() && y.to_bits() == z.to_bits());
        if !identical {
            return Err(env2vec_linalg::Error::InvalidArgument {
                what: "gemm golden check failed: nt/tn layout diverged from plain matmul",
            });
        }
        checksum = fnv1a_fold(checksum, &c_nn);
        checksum = fnv1a_fold(checksum, &c_nt);
        checksum = fnv1a_fold(checksum, &c_tn);

        // Timed loops reuse one output buffer each, the way the tape's
        // arena does, so the measurement excludes allocator noise.
        let time_gf = |f: &mut dyn FnMut(Vec<f64>) -> Result<Matrix, env2vec_linalg::Error>|
         -> Result<f64, env2vec_linalg::Error> {
            let mut buf = Vec::new();
            let t0 = Instant::now();
            for _ in 0..iters {
                buf = f(buf)?.into_vec();
            }
            let dt = t0.elapsed().as_secs_f64();
            Ok(shape.flops_per_iter() * iters as f64 / dt.max(1e-9) / 1e9)
        };
        let nn_gflops = time_gf(&mut |buf| a.matmul_with(&b, buf))?;
        let nt_gflops = time_gf(&mut |buf| a.matmul_nt_with(&bt, buf))?;
        let tn_gflops = time_gf(&mut |buf| at.matmul_tn_with(&b, buf))?;

        results.push(GemmShapeResult {
            m,
            k,
            n,
            nn_gflops,
            nt_gflops,
            tn_gflops,
        });
    }

    // envlint: allow(no-panic) — the ladder is a non-empty constant.
    let peak = results.last().expect("shape ladder is non-empty");
    let summary = GemmOpsSummary {
        peak_nn_gflops: peak.nn_gflops,
        golden_checksum: checksum,
        shapes: results,
        microkernel: env2vec_linalg::active_microkernel(),
    };

    let mut text = String::new();
    text.push_str(&format!(
        "GEMM microbenchmark (packed register-blocked kernel, {} microkernel)\n\n",
        summary.microkernel
    ));
    text.push_str(&format!(
        "  {:<18} {:>10} {:>10} {:>10}\n",
        "shape (m x k x n)", "nn GF/s", "nt GF/s", "tn GF/s"
    ));
    for s in &summary.shapes {
        text.push_str(&format!(
            "  {:<18} {:>10.2} {:>10.2} {:>10.2}\n",
            format!("{}x{}x{}", s.m, s.k, s.n),
            s.nn_gflops,
            s.nt_gflops,
            s.tn_gflops,
        ));
    }
    text.push_str(&format!(
        "\n  golden checksum: {:016x}  (layout- and thread-count-invariant)\n",
        summary.golden_checksum,
    ));
    text.push_str("  golden check: nt/tn results bit-identical to plain matmul  [ok]\n");
    Ok((text, summary))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_ladder_runs_and_cross_checks() {
        let mut opts = EvalOptions::fast();
        opts.seed = 9;
        let (text, summary) = run_with_summary(&opts).expect("microbench runs");
        assert!(text.contains("golden check"));
        assert_eq!(summary.shapes.len(), 5);
        assert!(summary.peak_nn_gflops > 0.0);
        let json = summary.json_object();
        assert!(json.contains("\"peak_nn_gflops\""));
        assert!(json.contains("\"golden_checksum\""));
        assert!(json.contains(&format!("\"microkernel\": \"{}\"", summary.microkernel)));
        assert!(text.contains(summary.microkernel));
        // Same options, same checksum: the golden value is deterministic.
        let (_, again) = run_with_summary(&opts).expect("microbench reruns");
        assert_eq!(summary.golden_checksum, again.golden_checksum);
    }
}
