//! Property-style equivalence suite for the packed GEMM kernels.
//!
//! The packed/blocked kernels behind `matmul`, `matmul_nt` and
//! `matmul_tn` promise results **bit-identical** (`f64::to_bits`) to the
//! textbook reference loop, for every shape and at every thread count.
//! This suite sweeps deterministic pseudo-random matrices over ragged
//! and prime shapes (1×1 up to sizes that cross the packing and
//! parallel gates), injects NaN/inf and signed-zero patterns that the
//! sparsity-skip logic must honour, and compares against a
//! self-contained naive reference implemented here — not against any
//! code path in the crate under test.

use env2vec_linalg::Matrix;

/// SplitMix64: a tiny deterministic generator so the sweep needs no
/// external crates and reproduces exactly on every run.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform-ish value in roughly [-4, 4), with occasional exact
    /// zeros (both signs) so the sparsity skip is exercised constantly.
    fn value(&mut self) -> f64 {
        match self.next_u64() % 16 {
            0 => 0.0,
            1 => -0.0,
            _ => (self.next_u64() % 8192) as f64 / 1024.0 - 4.0,
        }
    }

    fn matrix(&mut self, rows: usize, cols: usize) -> Matrix {
        Matrix::from_fn(rows, cols, |_, _| self.value())
    }

    /// Like [`Rng::matrix`], but with a full 53-bit mantissa: products
    /// of [`Rng::value`]s are exact, so only these inputs show a kernel
    /// that rounds differently (a fused multiply-add, say).
    fn full_matrix(&mut self, rows: usize, cols: usize) -> Matrix {
        Matrix::from_fn(rows, cols, |_, _| {
            (self.next_u64() >> 11) as f64 / (1u64 << 50) as f64 - 4.0
        })
    }
}

/// Reference `A·B`, mirroring the documented semantics: ascending-`k`
/// accumulation from 0.0, skipping bitwise-zero left entries against
/// entirely finite right rows.
fn reference_nn(a: &Matrix, b: &Matrix) -> Matrix {
    let row_finite: Vec<bool> = (0..b.rows())
        .map(|r| b.row(r).iter().all(|x| x.is_finite()))
        .collect();
    Matrix::from_fn(a.rows(), b.cols(), |i, j| {
        let mut acc = 0.0;
        for (k, fin) in row_finite.iter().enumerate() {
            let av = a.get(i, k);
            if av == 0.0 && *fin {
                continue;
            }
            acc += av * b.get(k, j);
        }
        acc
    })
}

fn assert_bits_eq(got: &Matrix, want: &Matrix, what: &str) {
    assert_eq!(got.shape(), want.shape(), "{what}: shape");
    for (i, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        assert!(
            g.to_bits() == w.to_bits(),
            "{what}: element {i} diverged: {g} ({:#018x}) vs {w} ({:#018x})",
            g.to_bits(),
            w.to_bits()
        );
    }
}

/// Shapes chosen to straddle every gate: tiny (naive), medium (packed,
/// sequential), large (packed, parallel), with ragged `% 4 != 0` /
/// `% 8 != 0` edges and prime dimensions throughout.
fn shape_sweep() -> Vec<(usize, usize, usize)> {
    vec![
        (1, 1, 1),
        (1, 7, 1),
        (3, 2, 5),
        (5, 5, 5),
        (4, 8, 8),
        (7, 13, 11),
        (16, 16, 16),
        (17, 19, 23),
        (31, 7, 9),
        (33, 64, 5),
        (64, 33, 32),
        (64, 64, 64),
        (65, 67, 71),
        (100, 70, 90),
        (128, 31, 127),
    ]
}

#[test]
fn matmul_matches_reference_bitwise_across_shapes() {
    let mut rng = Rng(0x5eed);
    for (m, k, n) in shape_sweep() {
        let a = rng.matrix(m, k);
        let b = rng.matrix(k, n);
        let want = reference_nn(&a, &b);
        let got = a.matmul(&b).unwrap();
        assert_bits_eq(&got, &want, &format!("nn {m}x{k}x{n}"));
    }
}

#[test]
fn matmul_nt_matches_explicit_transpose_bitwise() {
    let mut rng = Rng(0xabcd);
    for (m, k, n) in shape_sweep() {
        let a = rng.matrix(m, k);
        let b = rng.matrix(n, k);
        let want = reference_nn(&a, &b.transpose());
        let got = a.matmul_nt(&b).unwrap();
        assert_bits_eq(&got, &want, &format!("nt {m}x{k}x{n}"));
    }
}

#[test]
fn matmul_tn_matches_explicit_transpose_bitwise() {
    let mut rng = Rng(0x7777);
    for (m, k, n) in shape_sweep() {
        let a = rng.matrix(k, m);
        let b = rng.matrix(k, n);
        let want = reference_nn(&a.transpose(), &b);
        let got = a.matmul_tn(&b).unwrap();
        assert_bits_eq(&got, &want, &format!("tn {m}x{k}x{n}"));
    }
}

/// Every remainder width of an 8-column B panel (`n` in 1..=17, one
/// full panel plus each ragged tail) against row counts that leave a
/// ragged 4-row A panel, deep enough in `k` that every `n >= 4` takes
/// the packed path. One left entry per product is a bitwise zero and
/// one right entry non-finite, so both microkernel lanes run.
#[test]
fn every_panel_remainder_width_matches_reference_bitwise() {
    let mut rng = Rng(0x0808);
    let k = 129;
    for n in 1..=17 {
        for m in [9, 30, 67] {
            let mut a = rng.full_matrix(m, k);
            let mut b = rng.full_matrix(k, n);
            a.set(m / 2, k / 3, 0.0);
            b.set((n * 7) % k, n - 1, f64::INFINITY);
            let want = reference_nn(&a, &b);
            assert_bits_eq(&a.matmul(&b).unwrap(), &want, &format!("nn {m}x{k}x{n}"));
            let bt = b.transpose();
            assert_bits_eq(
                &a.matmul_nt(&bt).unwrap(),
                &want,
                &format!("nt {m}x{k}x{n}"),
            );
            let at = a.transpose();
            assert_bits_eq(
                &at.matmul_tn(&b).unwrap(),
                &want,
                &format!("tn {m}x{k}x{n}"),
            );
        }
    }
}

/// Plants NaN and inf entries in scattered positions so some right-hand
/// rows/columns are non-finite: the zero-skip must not run against them
/// (IEEE-754: 0·NaN = 0·inf = NaN).
#[test]
fn nonfinite_columns_survive_all_layouts_bitwise() {
    let mut rng = Rng(0xfeed);
    for (m, k, n) in [(7, 13, 11), (64, 33, 32), (65, 67, 71)] {
        let mut a = rng.matrix(m, k);
        let mut b = rng.matrix(k, n);
        // A few exact zeros on the left, guaranteed.
        for idx in [0, 3, 5] {
            a.set(idx % m, (idx * 7) % k, 0.0);
        }
        for (r, c, v) in [
            (0, 0, f64::NAN),
            (1, 2, f64::INFINITY),
            (2, 1, f64::NEG_INFINITY),
        ] {
            b.set(r % k, c % n, v);
        }
        let want = reference_nn(&a, &b);
        let got = a.matmul(&b).unwrap();
        assert_bits_eq(&got, &want, &format!("nn-nonfinite {m}x{k}x{n}"));
        assert!(
            got.as_slice().iter().any(|x| !x.is_finite()),
            "expected non-finite values to propagate"
        );

        let bt = b.transpose();
        let got_nt = a.matmul_nt(&bt).unwrap();
        assert_bits_eq(&got_nt, &want, &format!("nt-nonfinite {m}x{k}x{n}"));

        let at = a.transpose();
        let got_tn = at.matmul_tn(&b).unwrap();
        assert_bits_eq(&got_tn, &want, &format!("tn-nonfinite {m}x{k}x{n}"));
    }
}

/// A row of `-0.0` left entries against a finite right-hand side: the
/// skip yields `+0.0` outputs where an unskipped multiply would yield
/// `-0.0` — the packed kernels must reproduce the skipped behaviour.
#[test]
fn signed_zero_rows_match_reference_bitwise() {
    let m = 9;
    let k = 17;
    let n = 13;
    let mut rng = Rng(0x2020);
    let mut a = rng.matrix(m, k);
    for j in 0..k {
        a.set(4, j, -0.0);
    }
    let b = rng.matrix(k, n);
    let want = reference_nn(&a, &b);
    let got = a.matmul(&b).unwrap();
    assert_bits_eq(&got, &want, "signed-zero nn");
    for j in 0..n {
        assert_eq!(got.get(4, j).to_bits(), 0.0_f64.to_bits());
    }
}

#[test]
fn all_layouts_are_bit_identical_across_thread_counts() {
    let mut rng = Rng(0xbeef);
    // Big enough to cross the parallel gate (m·k·n >= 2^20), ragged on
    // both axes.
    let (m, k, n) = (130, 67, 131);
    let a = rng.matrix(m, k);
    let b_nn = rng.matrix(k, n);
    let b_nt = rng.matrix(n, k);
    let a_tn = rng.matrix(k, m);

    let seq = env2vec_par::with_thread_limit(1, || {
        (
            a.matmul(&b_nn).unwrap(),
            a.matmul_nt(&b_nt).unwrap(),
            a_tn.matmul_tn(&b_nn).unwrap(),
        )
    });
    for threads in [2, 4] {
        let par = env2vec_par::with_thread_limit(threads, || {
            (
                a.matmul(&b_nn).unwrap(),
                a.matmul_nt(&b_nt).unwrap(),
                a_tn.matmul_tn(&b_nn).unwrap(),
            )
        });
        assert_bits_eq(&par.0, &seq.0, &format!("nn {threads} threads"));
        assert_bits_eq(&par.1, &seq.1, &format!("nt {threads} threads"));
        assert_bits_eq(&par.2, &seq.2, &format!("tn {threads} threads"));
    }
}

#[test]
fn buffer_reusing_variants_match_and_recycle() {
    let mut rng = Rng(0x1234);
    let a = rng.matrix(33, 21);
    let b = rng.matrix(21, 18);
    let plain = a.matmul(&b).unwrap();
    // A dirty, differently-sized buffer must not leak into the result.
    let dirty = vec![f64::NAN; 7];
    let reused = a.matmul_with(&b, dirty).unwrap();
    assert_bits_eq(&reused, &plain, "matmul_with dirty buffer");

    let nt_plain = a.matmul_nt(&a).unwrap();
    let nt_reused = a.matmul_nt_with(&a, plain.clone().into_vec()).unwrap();
    assert_bits_eq(&nt_reused, &nt_plain, "matmul_nt_with");

    let tn_plain = a.matmul_tn(&a).unwrap();
    let tn_reused = a.matmul_tn_with(&a, vec![1.0; 2048]).unwrap();
    assert_bits_eq(&tn_reused, &tn_plain, "matmul_tn_with");
}

#[test]
fn transposed_variants_reject_mismatched_shapes() {
    let a = Matrix::zeros(3, 4);
    let b = Matrix::zeros(5, 6);
    assert!(a.matmul_nt(&b).is_err(), "nt needs equal col counts");
    assert!(a.matmul_tn(&b).is_err(), "tn needs equal row counts");
    assert!(a.matmul_nt(&Matrix::zeros(9, 4)).is_ok());
    assert!(a.matmul_tn(&Matrix::zeros(3, 9)).is_ok());
}

/// Blocked transpose equals the naive definition on ragged shapes.
#[test]
fn blocked_transpose_matches_naive_on_ragged_shapes() {
    let mut rng = Rng(0x9999);
    for (r, c) in [(1, 1), (1, 37), (33, 1), (31, 33), (32, 32), (67, 129)] {
        let m = rng.matrix(r, c);
        let t = m.transpose();
        assert_eq!(t.shape(), (c, r));
        for i in 0..r {
            for j in 0..c {
                assert_eq!(
                    m.get(i, j).to_bits(),
                    t.get(j, i).to_bits(),
                    "({r}x{c}) at ({i},{j})"
                );
            }
        }
        assert_eq!(t.transpose(), m, "double transpose round-trips");
    }
}
