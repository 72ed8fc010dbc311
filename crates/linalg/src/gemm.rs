//! Packed, register-blocked GEMM kernels behind [`crate::Matrix::matmul`]
//! and its transposed variants.
//!
//! Three layouts share one microkernel: `nn` (`A·B`), `nt` (`A·Bᵀ`) and
//! `tn` (`Aᵀ·B`). The left operand is packed into `MR`-row panels
//! (`MR` values contiguous per `k`), the right operand into `NR`-column
//! panels (`NR` values contiguous per `k`), and an `MR×NR` register
//! accumulator walks the **full** inner dimension in ascending order.
//! The per-`k` finiteness of the right operand — which the zero-skip
//! predicate needs — is computed *during* packing, which already reads
//! every element, so the skip support costs no extra pass over B.
//!
//! The microkernel has two implementations over the same packed
//! panels: explicit AVX2 intrinsics (four rows of two `__m256d`
//! accumulators) and a portable one for every other host. The product
//! picks one at entry from runtime CPU detection; nothing else selects
//! it.
//!
//! # Why results are bit-identical to the naive `ikj` loop
//!
//! Every output element is one IEEE-754 accumulation chain: start at
//! `0.0`, add `a[i][k]·b[k][j]` for ascending `k`, skipping exactly the
//! terms the naive kernel skips (bitwise-zero `a` against a finite `b`
//! row). Register accumulation instead of memory accumulation does not
//! reassociate that chain, and both microkernels round the product and
//! the sum separately — the portable one because Rust never contracts
//! `mul`+`add` into a fused multiply-add implicitly, the AVX2 one
//! because it issues `_mm256_mul_pd` then `_mm256_add_pd` and never an
//! FMA — so either kernel, the naive kernel and every thread count
//! produce identical bits. The one thing that *would* break this is
//! KC-blocking (partial sums over `k` re-added to memory) — deliberately
//! not done here.
//!
//! The zero-skip follows the same IEEE-754 reasoning as the original
//! kernel: `0·NaN = 0·inf = NaN`, so a bitwise-zero left entry is only
//! skipped when the opposing `k`-slice of the right operand is entirely
//! finite. Skipping also matters for `-0.0` arithmetic (a chain of all
//! skipped terms yields `+0.0`, a chain of `-0.0` products yields
//! `-0.0`), which is why the packed and naive paths share the exact
//! same skip predicate rather than approximating it.

use std::cell::Cell;
use std::ops::Range;
use std::sync::OnceLock;
use std::thread::LocalKey;

/// Rows per register tile of the microkernel.
pub(crate) const MR: usize = 4;

/// Columns per register tile of the microkernel. With AVX2 the 4×8 tile
/// is 8 `__m256d` accumulators, which leaves the A broadcast, the two B
/// loads and the zero-test vector inside the sixteen `ymm` registers.
/// The portable kernel walks each panel as two 4-column halves, so its
/// 4×4 accumulator still fits the sixteen 128-bit SSE2 registers of
/// baseline x86-64.
pub(crate) const NR: usize = 8;

/// Minimum `2·m·k·n` flops before packing pays for itself; below this
/// the naive loops win on overhead. Per-element accumulation chains are
/// identical in both paths, so the gate affects wall-clock only, never
/// bits.
const PACK_MIN_FLOPS: usize = 8192;

/// Minimum output columns for the packed path: narrower products waste
/// most of a 4-column half panel on padding.
const PACK_MIN_COLS: usize = 4;

/// Minimum `m * k * n` before the product fans row blocks out to the
/// worker pool. Training-sized products (64×80×40 = 205k and smaller)
/// stay on the calling thread: with the AVX2 kernel such a product takes
/// ~30 µs, and fanning it out over 2 threads measured slower in every
/// round on a 2-vCPU host; from ~2^20 up the fan-out won whenever the
/// second vCPU was free (DESIGN.md §5e). Per-output-row work is
/// identical in both paths, so the gate affects wall-clock only, never
/// bits.
pub(crate) const PAR_MIN_ELEMS: usize = 1 << 20;

/// Rows per parallel job: big enough to amortise queue traffic, small
/// enough to balance load across workers on paper-sized matrices. A
/// multiple of [`MR`] so only the final block packs a ragged panel.
pub(crate) const ROW_BLOCK: usize = 16;

thread_local! {
    /// Packed right-operand panels, reused across calls on each thread.
    static PB_SCRATCH: Cell<Vec<f64>> = const { Cell::new(Vec::new()) };
    /// Packed left-operand panel, reused across calls/jobs on each
    /// thread (worker threads are persistent, so steady-state training
    /// loops stop allocating here entirely).
    static PA_SCRATCH: Cell<Vec<f64>> = const { Cell::new(Vec::new()) };
    /// Per-`k` finiteness of the right operand (1 = finite slice),
    /// filled as a by-product of packing B.
    static FIN_SCRATCH: Cell<Vec<u8>> = const { Cell::new(Vec::new()) };
}

/// Runs `f` with the thread-local buffer taken out of its cell, putting
/// it back afterwards so the allocation is reused by the next call.
fn with_scratch<T: Default, R>(key: &'static LocalKey<Cell<T>>, f: impl FnOnce(&mut T) -> R) -> R {
    key.with(|cell| {
        let mut buf = cell.take();
        let out = f(&mut buf);
        cell.set(buf);
        out
    })
}

/// One register tile's accumulator.
type Tile = [[f64; NR]; MR];

/// The microkernel this process runs, chosen once per product.
///
/// The `avx2` flag is private to this module and is only set after the
/// CPU reported AVX2 (by [`Microkernel::detect`], and by the kernel
/// test once `detect` has) — the invariant the intrinsic kernel's call
/// relies on.
#[derive(Clone, Copy)]
struct Microkernel {
    avx2: bool,
}

impl Microkernel {
    fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        let avx2 = std::arch::is_x86_feature_detected!("avx2");
        #[cfg(not(target_arch = "x86_64"))]
        let avx2 = false;
        Microkernel { avx2 }
    }

    fn name(self) -> &'static str {
        if self.avx2 {
            "avx2"
        } else {
            "scalar"
        }
    }

    /// One full-`k` pass of an `MR×NR` tile: `pa` holds `MR` values per
    /// `k`, `pb` holds `NR` values per `k`, `finite[k]` is 1 when B's
    /// whole `k`-slice is finite. Overwrites `acc`.
    #[inline]
    fn run(self, pa: &[f64], pb: &[f64], finite: &[u8], acc: &mut Tile) {
        #[cfg(target_arch = "x86_64")]
        if self.avx2 {
            // SAFETY: `avx2` is only true when `detect` saw the CPU
            // report AVX2, the one requirement of this target-feature
            // function.
            unsafe { avx2::microkernel(pa, pb, finite, acc) };
            return;
        }
        microkernel_scalar(pa, pb, finite, acc);
    }
}

/// Name of the GEMM microkernel this CPU runs: `"avx2"` or `"scalar"`.
/// Bench records carry it so figures from different CPUs can be told
/// apart; the result bits are the same under either.
pub fn active_microkernel() -> &'static str {
    Microkernel::detect().name()
}

/// The portable `MR×NR` microkernel: one full-`k` pass per 4-column
/// half of the panel, each half with a 4×4 register accumulator.
fn microkernel_scalar(pa: &[f64], pb: &[f64], finite: &[u8], acc: &mut Tile) {
    scalar_half::<0>(pa, pb, finite, acc);
    scalar_half::<{ NR / 2 }>(pa, pb, finite, acc);
}

/// Columns `OFF..OFF + NR/2` of [`microkernel_scalar`].
///
/// Each `k` step dispatches once: if the A column holds no bitwise zero
/// — or the opposing B slice is non-finite, which forbids skipping —
/// no skip can fire, so the update runs a branch-free rank-1
/// accumulation that the compiler vectorizes. Only columns that really
/// contain a skippable zero take the per-row branchy lane. Both lanes
/// add the exact same terms in the exact same order, so the dispatch is
/// invisible in the bits.
#[inline]
fn scalar_half<const OFF: usize>(pa: &[f64], pb: &[f64], finite: &[u8], acc: &mut Tile) {
    let mut part = [[0.0_f64; NR / 2]; MR];
    let (a_cols, _) = pa.as_chunks::<MR>();
    let (b_rows, _) = pb.as_chunks::<NR>();
    for ((a_col, b_row), &fin) in a_cols.iter().zip(b_rows).zip(finite.iter()) {
        let b_half = &b_row[OFF..OFF + NR / 2];
        // envlint: allow(float-cmp) — exact sparsity test: only a
        // bitwise-zero left entry is ever skippable.
        let any_zero = a_col.contains(&0.0);
        if any_zero && fin != 0 {
            for (part_row, &a) in part.iter_mut().zip(a_col) {
                // envlint: allow(float-cmp) — exact sparsity skip: only
                // a bitwise zero contributes nothing, and only against a
                // finite rhs slice (IEEE-754: 0·NaN = 0·inf = NaN).
                if a == 0.0 {
                    continue;
                }
                for (o, &b) in part_row.iter_mut().zip(b_half) {
                    *o += a * b;
                }
            }
        } else {
            for (part_row, &a) in part.iter_mut().zip(a_col) {
                for (o, &b) in part_row.iter_mut().zip(b_half) {
                    *o += a * b;
                }
            }
        }
    }
    for (acc_row, part_row) in acc.iter_mut().zip(&part) {
        acc_row[OFF..OFF + NR / 2].copy_from_slice(part_row);
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::{
        __m256d, _mm256_add_pd, _mm256_cmp_pd, _mm256_loadu_pd, _mm256_movemask_pd, _mm256_mul_pd,
        _mm256_set1_pd, _mm256_setzero_pd, _mm256_storeu_pd, _CMP_EQ_OQ,
    };

    use super::{Tile, MR, NR};

    /// The AVX2 `MR×NR` microkernel: the same terms in the same order as
    /// [`super::microkernel_scalar`], so the same bits.
    ///
    /// Per `k`, one `cmp_pd`+`movemask` of the packed A column finds its
    /// bitwise zeros (`_CMP_EQ_OQ` is true for `±0.0` and false for NaN,
    /// exactly `a == 0.0`). Only when one meets a finite B slice does
    /// the step take the lane that leaves those rows out; otherwise all
    /// four rows update. Each update is `_mm256_mul_pd` then
    /// `_mm256_add_pd`, two roundings, never a fused multiply-add.
    #[target_feature(enable = "avx2")]
    pub(super) fn microkernel(pa: &[f64], pb: &[f64], finite: &[u8], acc: &mut Tile) {
        let (a_cols, _) = pa.as_chunks::<MR>();
        let (b_rows, _) = pb.as_chunks::<NR>();
        let zero = _mm256_setzero_pd();
        let mut c: [[__m256d; 2]; MR] = [[zero; 2]; MR];
        for ((a_col, b_row), &fin) in a_cols.iter().zip(b_rows).zip(finite.iter()) {
            // SAFETY: `a_col` is a `[f64; 4]` and `b_row` a `[f64; 8]`,
            // so each unaligned 4-lane load reads inside its array.
            let (a, b0, b1) = unsafe {
                (
                    _mm256_loadu_pd(a_col.as_ptr()),
                    _mm256_loadu_pd(b_row.as_ptr()),
                    _mm256_loadu_pd(b_row.as_ptr().add(4)),
                )
            };
            let zeros = _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_EQ_OQ>(a, zero));
            if zeros != 0 && fin != 0 {
                for (r, (c_row, &ar)) in c.iter_mut().zip(a_col).enumerate() {
                    if zeros & (1 << r) != 0 {
                        continue;
                    }
                    let av = _mm256_set1_pd(ar);
                    c_row[0] = _mm256_add_pd(c_row[0], _mm256_mul_pd(av, b0));
                    c_row[1] = _mm256_add_pd(c_row[1], _mm256_mul_pd(av, b1));
                }
            } else {
                for (c_row, &ar) in c.iter_mut().zip(a_col) {
                    let av = _mm256_set1_pd(ar);
                    c_row[0] = _mm256_add_pd(c_row[0], _mm256_mul_pd(av, b0));
                    c_row[1] = _mm256_add_pd(c_row[1], _mm256_mul_pd(av, b1));
                }
            }
        }
        for (acc_row, c_row) in acc.iter_mut().zip(&c) {
            // SAFETY: `acc_row` is a `[f64; 8]`; the stores write lanes
            // 0..4 and 4..8 of it.
            unsafe {
                _mm256_storeu_pd(acc_row.as_mut_ptr(), c_row[0]);
                _mm256_storeu_pd(acc_row.as_mut_ptr().add(4), c_row[1]);
            }
        }
    }
}

/// The packed right operand of one product and the microkernel that
/// multiplies against it.
#[derive(Clone, Copy)]
struct PackedB<'a> {
    /// `NR`-column panels, `k·NR` doubles each.
    panels: &'a [f64],
    /// Per-`k` finiteness of the whole right operand (1 = finite).
    finite: &'a [u8],
    kernel: Microkernel,
}

/// Computes the C rows in `rows` (a contiguous slab `out_rows`, row
/// stride `n`) from pre-packed B panels. `pack_a_panel(first, h, dest)`
/// fills `dest` (`k·MR` doubles) with rows `first..first+h` of the
/// effective left operand; the unused `MR - h` lanes are padded with
/// `1.0` (never `0.0`, so padding cannot push a dense column onto the
/// microkernel's skipping lane — padded results are discarded at store).
///
/// All A panels for the row slab are packed once up front; the B-panel
/// loop is outermost so each packed B panel is reused across every A
/// panel while it is cache-hot.
fn gemm_rows(
    out_rows: &mut [f64],
    rows: Range<usize>,
    n: usize,
    k: usize,
    b: PackedB,
    mut pack_a_panel: impl FnMut(usize, usize, &mut [f64]),
) {
    with_scratch(&PA_SCRATCH, |pa| {
        let h_total = rows.len();
        let a_panels = h_total.div_ceil(MR);
        let need = a_panels * k * MR;
        if pa.len() < need {
            pa.resize(need, 0.0);
        }
        let pa = &mut pa[..need];
        for (pi, panel) in pa.chunks_exact_mut(k * MR).enumerate() {
            let p0 = pi * MR;
            pack_a_panel(rows.start + p0, MR.min(h_total - p0), panel);
        }
        let mut j0 = 0;
        while j0 < n {
            let w = NR.min(n - j0);
            let b_panel = &b.panels[(j0 / NR) * k * NR..][..k * NR];
            for (pi, a_panel) in pa.chunks_exact(k * MR).enumerate() {
                let p0 = pi * MR;
                let h = MR.min(h_total - p0);
                let mut acc = [[0.0_f64; NR]; MR];
                b.kernel.run(a_panel, b_panel, b.finite, &mut acc);
                for (r, acc_row) in acc.iter().enumerate().take(h) {
                    let dst = &mut out_rows[(p0 + r) * n + j0..][..w];
                    dst.copy_from_slice(&acc_row[..w]);
                }
            }
            j0 += NR;
        }
    });
}

/// Doubles a packed B copy needs for a `k`-deep right operand with `n`
/// effective columns.
fn packed_b_len(k: usize, n: usize) -> usize {
    n.div_ceil(NR) * k * NR
}

/// Packs `b` (`k×n`, row-major) into `NR`-column panels, zero-padding
/// the last panel's unused lanes (the scratch buffer may hold stale
/// data from a previous product, so every lane is written). Also fills
/// `fin[kk]` with row `kk`'s finiteness — the pack touches every
/// element anyway, so the skip predicate's scan of B rides along free.
fn pack_b_nn(b: &[f64], k: usize, n: usize, pb: &mut Vec<f64>, fin: &mut Vec<u8>) {
    let need = packed_b_len(k, n);
    if pb.len() < need {
        pb.resize(need, 0.0);
    }
    fin.clear();
    fin.resize(k, 1);
    for (p, dst) in pb[..need].chunks_exact_mut(k * NR).enumerate() {
        let j0 = p * NR;
        let w = NR.min(n - j0);
        for (kk, lane) in dst.chunks_exact_mut(NR).enumerate() {
            let src = &b[kk * n + j0..][..w];
            lane[..w].copy_from_slice(src);
            lane[w..].fill(0.0);
            if !src.iter().all(|x| x.is_finite()) {
                fin[kk] = 0;
            }
        }
    }
}

/// Packs `b` (`n×k`, row-major; the `nt` right operand) into
/// `NR`-column panels of `Bᵀ`, accumulating per-`k` finiteness of the
/// gathered columns into `fin` as it goes (see [`pack_b_nn`]).
fn pack_b_nt(b: &[f64], n: usize, k: usize, pb: &mut Vec<f64>, fin: &mut Vec<u8>) {
    let need = packed_b_len(k, n);
    if pb.len() < need {
        pb.resize(need, 0.0);
    }
    fin.clear();
    fin.resize(k, 1);
    for (p, dst) in pb[..need].chunks_exact_mut(k * NR).enumerate() {
        let j0 = p * NR;
        let w = NR.min(n - j0);
        for c in 0..NR {
            if c < w {
                let src = &b[(j0 + c) * k..][..k];
                for (kk, &v) in src.iter().enumerate() {
                    dst[kk * NR + c] = v;
                    if !v.is_finite() {
                        fin[kk] = 0;
                    }
                }
            } else {
                for kk in 0..k {
                    dst[kk * NR + c] = 0.0;
                }
            }
        }
    }
}

/// Whether a product of this shape should take the packed path.
fn packable(m: usize, k: usize, n: usize) -> bool {
    n >= PACK_MIN_COLS && m >= 2 && k >= 2 && 2 * m * k * n >= PACK_MIN_FLOPS
}

/// Whether a product of this shape should fan out to the worker pool.
fn parallel(m: usize, k: usize, n: usize) -> bool {
    m.saturating_mul(k).saturating_mul(n) >= PAR_MIN_ELEMS && env2vec_par::max_threads() > 1
}

/// Computes `out = A·B` (`a` is `m×k`, `b` is `k×n`), matching the
/// naive kernel bit-for-bit.
pub(crate) fn gemm_nn(a: &[f64], m: usize, k: usize, b: &[f64], n: usize, out: &mut [f64]) {
    debug_assert_eq!(out.len(), m * n);
    if packable(m, k, n) {
        gemm_packed(
            out,
            m,
            k,
            n,
            |pb, fin| pack_b_nn(b, k, n, pb, fin),
            |first, h, dest| pack_a_rows(a, k, first, h, dest),
        );
    } else {
        naive_nn(a, m, k, b, n, out);
    }
}

/// Computes `out = A·Bᵀ` (`a` is `m×k`, `b` is `n×k`), bit-identical
/// to `a.matmul(&b.transpose())`.
pub(crate) fn gemm_nt(a: &[f64], m: usize, k: usize, b: &[f64], n: usize, out: &mut [f64]) {
    debug_assert_eq!(out.len(), m * n);
    if packable(m, k, n) {
        gemm_packed(
            out,
            m,
            k,
            n,
            |pb, fin| pack_b_nt(b, n, k, pb, fin),
            |first, h, dest| pack_a_rows(a, k, first, h, dest),
        );
    } else {
        naive_nt(a, m, k, b, n, out);
    }
}

/// Computes `out = Aᵀ·B` (`a` is `k×m`, `b` is `k×n`), bit-identical
/// to `a.transpose().matmul(&b)`.
pub(crate) fn gemm_tn(a: &[f64], k: usize, m: usize, b: &[f64], n: usize, out: &mut [f64]) {
    debug_assert_eq!(out.len(), m * n);
    if packable(m, k, n) {
        gemm_packed(
            out,
            m,
            k,
            n,
            |pb, fin| pack_b_nn(b, k, n, pb, fin),
            |first, h, dest| pack_a_cols(a, m, k, first, h, dest),
        );
    } else {
        naive_tn(a, k, m, b, n, out);
    }
}

/// The packed path shared by the three layouts: `pack_b` fills the
/// `NR`-column panels and the per-`k` finiteness, `pack_a` one `MR`-row
/// panel (see [`gemm_rows`]). The microkernel is chosen here, once per
/// product.
fn gemm_packed(
    out: &mut [f64],
    m: usize,
    k: usize,
    n: usize,
    pack_b: impl FnOnce(&mut Vec<f64>, &mut Vec<u8>),
    pack_a: impl Fn(usize, usize, &mut [f64]) + Sync,
) {
    let kernel = Microkernel::detect();
    with_scratch(&PB_SCRATCH, |pb| {
        with_scratch(&FIN_SCRATCH, |fin| {
            pack_b(pb, fin);
            let b = PackedB {
                panels: &pb[..packed_b_len(k, n)],
                finite: fin,
                kernel,
            };
            run_packed(out, m, n, k, |rows, out_block| {
                gemm_rows(out_block, rows, n, k, b, &pack_a);
            });
        });
    });
}

/// Dispatches packed row-block work either sequentially or across the
/// pool. `run_block(rows, out_block)` must compute exactly those C rows;
/// blocks never overlap, so any schedule yields the same bits.
fn run_packed(
    out: &mut [f64],
    m: usize,
    n: usize,
    k: usize,
    run_block: impl Fn(Range<usize>, &mut [f64]) + Sync,
) {
    if parallel(m, k, n) {
        let block_elems = ROW_BLOCK * n;
        env2vec_par::scope(|s| {
            for (bi, out_block) in out.chunks_mut(block_elems).enumerate() {
                let run_block = &run_block;
                s.spawn(move || {
                    let i0 = bi * ROW_BLOCK;
                    run_block(i0..i0 + out_block.len() / n, out_block);
                });
            }
        });
    } else {
        run_block(0..m, out);
    }
}

/// Packs `h` rows of a row-major `·×k` slab (rows `first..first+h`)
/// into a `k·MR` panel. Lanes `h..MR` are padded with `1.0` — a value
/// the zero-skip can never fire on — so a ragged panel still takes the
/// microkernel's dense lane; the padded products land in accumulator
/// rows the caller discards.
fn pack_a_rows(a: &[f64], k: usize, first: usize, h: usize, dest: &mut [f64]) {
    for r in 0..MR {
        if r < h {
            for (kk, &v) in a[(first + r) * k..][..k].iter().enumerate() {
                dest[kk * MR + r] = v;
            }
        } else {
            for kk in 0..k {
                dest[kk * MR + r] = 1.0;
            }
        }
    }
}

/// Packs `h` columns of a row-major `k×m` slab (columns
/// `first..first+h`) into a `k·MR` panel, padding lanes `h..MR` with
/// `1.0` (see [`pack_a_rows`]).
fn pack_a_cols(a: &[f64], m: usize, k: usize, first: usize, h: usize, dest: &mut [f64]) {
    for kk in 0..k {
        let src = &a[kk * m..][..m];
        for r in 0..MR {
            dest[kk * MR + r] = if r < h { src[first + r] } else { 1.0 };
        }
    }
}

/// Per-row finiteness of the right operand, computed at most once per
/// product and only when a bitwise zero is first encountered on the
/// left (the naive paths keep the original lazy behaviour).
fn lazy_row_finite(b: &[f64], k: usize, n: usize, cache: &OnceLock<Vec<bool>>, kk: usize) -> bool {
    cache.get_or_init(|| {
        (0..k)
            .map(|r| b[r * n..(r + 1) * n].iter().all(|x| x.is_finite()))
            .collect()
    })[kk]
}

/// The original `ikj` kernel: accumulates `a_row · b` into one output
/// row. Shared by the sequential and parallel naive paths so the
/// per-row result is bit-identical regardless of scheduling.
fn mul_row_into(
    a_row: &[f64],
    b: &[f64],
    k: usize,
    n: usize,
    out_row: &mut [f64],
    row_finite: &OnceLock<Vec<bool>>,
) {
    for (kk, &a) in a_row.iter().enumerate() {
        // envlint: allow(float-cmp) — exact sparsity skip: only a bitwise
        // zero contributes nothing, and only against a finite rhs row.
        if a == 0.0 && lazy_row_finite(b, k, n, row_finite, kk) {
            continue;
        }
        let b_row = &b[kk * n..(kk + 1) * n];
        for (o, &bv) in out_row.iter_mut().zip(b_row.iter()) {
            *o += a * bv;
        }
    }
}

/// Naive `A·B` with the original row-block parallel fan-out for large
/// shapes the packed path declines (e.g. single-column outputs).
fn naive_nn(a: &[f64], m: usize, k: usize, b: &[f64], n: usize, out: &mut [f64]) {
    let row_finite = OnceLock::new();
    if parallel(m, k, n) {
        let block_elems = ROW_BLOCK * n;
        env2vec_par::scope(|s| {
            for (bi, out_block) in out.chunks_mut(block_elems).enumerate() {
                let row_finite = &row_finite;
                s.spawn(move || {
                    for (r, out_row) in out_block.chunks_mut(n).enumerate() {
                        let i = bi * ROW_BLOCK + r;
                        mul_row_into(&a[i * k..(i + 1) * k], b, k, n, out_row, row_finite);
                    }
                });
            }
        });
    } else if n == 1 {
        // Single-column product (the model's output heads): keep the
        // accumulator in a register instead of re-loading the one-element
        // output row on every `k` step. Same chain: `out` is pre-zeroed,
        // so both forms start at `0.0` and add the same terms ascending.
        // The `n == 1` "row" of B is the single element already in hand,
        // so the skip predicate needs no finiteness table at all.
        for (i, o) in out.iter_mut().enumerate() {
            let a_row = &a[i * k..(i + 1) * k];
            let mut acc = 0.0;
            for (&av, &bv) in a_row.iter().zip(b.iter()) {
                // envlint: allow(float-cmp) — exact sparsity skip, same
                // predicate as `mul_row_into` specialised to one column.
                if av == 0.0 && bv.is_finite() {
                    continue;
                }
                acc += av * bv;
            }
            *o = acc;
        }
    } else {
        for i in 0..m {
            let out_row = &mut out[i * n..(i + 1) * n];
            mul_row_into(&a[i * k..(i + 1) * k], b, k, n, out_row, &row_finite);
        }
    }
}

/// Naive `A·Bᵀ` as row-by-row dot products (`b` is `n×k`, so both
/// streams are contiguous).
fn naive_nt(a: &[f64], m: usize, k: usize, b: &[f64], n: usize, out: &mut [f64]) {
    if k == 1 {
        // Rank-1 outer product (the backward pass of a single-column
        // forward product): one multiply per output element, streamed
        // row-major. `out` is pre-zeroed, so accumulating into it is the
        // same `0.0 + a·b` chain the dot-product loop builds. The single
        // `k`-slice's finiteness is one bool, scanned on first demand.
        let mut fin0: Option<bool> = None;
        for (a_row, out_row) in a.chunks_exact(1).zip(out.chunks_exact_mut(n)).take(m) {
            let av = a_row[0];
            // envlint: allow(float-cmp) — exact sparsity skip, same
            // predicate as the general loop with `kk == 0`.
            if av == 0.0 && *fin0.get_or_insert_with(|| b.iter().all(|x| x.is_finite())) {
                continue;
            }
            for (o, &bv) in out_row.iter_mut().zip(b.iter()) {
                *o += av * bv;
            }
        }
        return;
    }
    with_scratch(&FIN_SCRATCH, |fin| {
        col_finiteness(b, n, k, fin);
        for i in 0..m {
            let a_row = &a[i * k..(i + 1) * k];
            for j in 0..n {
                let b_row = &b[j * k..(j + 1) * k];
                let mut acc = 0.0;
                for (kk, (&av, &bv)) in a_row.iter().zip(b_row.iter()).enumerate() {
                    // envlint: allow(float-cmp) — exact sparsity skip,
                    // same predicate as the packed kernel.
                    if av == 0.0 && fin[kk] != 0 {
                        continue;
                    }
                    acc += av * bv;
                }
                out[i * n + j] = acc;
            }
        }
    });
}

/// Naive `Aᵀ·B` in `k`-outer order (`a` is `k×m`): both operands are
/// streamed row-major and every output element still accumulates in
/// ascending-`k` order.
fn naive_tn(a: &[f64], k: usize, m: usize, b: &[f64], n: usize, out: &mut [f64]) {
    if n == 1 {
        // Single-column product (the output head's weight gradient):
        // `out[i] = Σ_k a[k·m+i]·b[k]` with the accumulator in a
        // register. The per-element chain is ascending `k` in both loop
        // orders, and the `n == 1` "row" of B is the element in hand, so
        // no finiteness table is needed.
        for (i, o) in out.iter_mut().enumerate() {
            let mut acc = 0.0;
            for (kk, &bv) in b.iter().enumerate() {
                let av = a[kk * m + i];
                // envlint: allow(float-cmp) — exact sparsity skip, same
                // predicate as the general loop specialised to one column.
                if av == 0.0 && bv.is_finite() {
                    continue;
                }
                acc += av * bv;
            }
            *o = acc;
        }
        return;
    }
    with_scratch(&FIN_SCRATCH, |fin| {
        row_finiteness(b, k, n, fin);
        for kk in 0..k {
            let a_row = &a[kk * m..(kk + 1) * m];
            let b_row = &b[kk * n..(kk + 1) * n];
            for (i, &av) in a_row.iter().enumerate() {
                // envlint: allow(float-cmp) — exact sparsity skip, same
                // predicate as the packed kernel.
                if av == 0.0 && fin[kk] != 0 {
                    continue;
                }
                let out_row = &mut out[i * n..(i + 1) * n];
                for (o, &bv) in out_row.iter_mut().zip(b_row.iter()) {
                    *o += av * bv;
                }
            }
        }
    });
}

/// Per-row finiteness of a `rows×cols` row-major slab (1 = finite row).
fn row_finiteness(data: &[f64], rows: usize, cols: usize, fin: &mut Vec<u8>) {
    fin.clear();
    fin.extend(
        (0..rows).map(|r| u8::from(data[r * cols..(r + 1) * cols].iter().all(|x| x.is_finite()))),
    );
}

/// Per-column finiteness of a `rows×cols` row-major slab.
fn col_finiteness(data: &[f64], rows: usize, cols: usize, fin: &mut Vec<u8>) {
    fin.clear();
    fin.resize(cols, 1);
    for r in 0..rows {
        for (f, x) in fin.iter_mut().zip(&data[r * cols..(r + 1) * cols]) {
            *f &= u8::from(x.is_finite());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// SplitMix64 step, so the panels need no rand dependency.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Mostly finite values in [-4, 4), with `0.0`, `-0.0`, NaN and
    /// `±inf` mixed in often enough that both lanes of each kernel run
    /// at every depth.
    fn value(state: &mut u64) -> f64 {
        match next(state) % 24 {
            0..=2 => 0.0,
            3 | 4 => -0.0,
            5 => f64::NAN,
            6 => f64::INFINITY,
            7 => f64::NEG_INFINITY,
            // A full 53-bit mantissa, so products are inexact and a
            // fused multiply-add would change the bits.
            _ => (next(state) >> 11) as f64 / (1u64 << 50) as f64 - 4.0,
        }
    }

    /// The bits a result is compared by. Rust leaves the sign and
    /// payload of a NaN result unspecified when two different NaNs meet
    /// (LLVM may swap the operands of an add or a multiply), so every
    /// NaN compares as one value; every other result, `±0.0` and `±inf`
    /// included, compares bit for bit.
    fn bits(x: f64) -> u64 {
        if x.is_nan() {
            f64::NAN.to_bits()
        } else {
            x.to_bits()
        }
    }

    #[test]
    fn scalar_and_avx2_microkernels_are_bit_identical() {
        if Microkernel::detect().name() != "avx2" {
            eprintln!("skipped: this CPU has no AVX2");
            return;
        }
        let mut state = 0x00dd_ba11;
        for k in 0..=33 {
            for _ in 0..64 {
                let pa: Vec<f64> = (0..k * MR).map(|_| value(&mut state)).collect();
                let pb: Vec<f64> = (0..k * NR).map(|_| value(&mut state)).collect();
                // A non-finite value outside this panel also clears a
                // slice's flag, so some finite slices read 0 as well.
                let finite: Vec<u8> = pb
                    .chunks_exact(NR)
                    .map(|s| {
                        u8::from(
                            s.iter().all(|x| x.is_finite()) && !next(&mut state).is_multiple_of(4),
                        )
                    })
                    .collect();
                let mut want = [[f64::NAN; NR]; MR];
                let mut got = [[f64::NAN; NR]; MR];
                microkernel_scalar(&pa, &pb, &finite, &mut want);
                Microkernel { avx2: true }.run(&pa, &pb, &finite, &mut got);
                for (r, (w, g)) in want.iter().zip(&got).enumerate() {
                    for (c, (&x, &y)) in w.iter().zip(g).enumerate() {
                        assert_eq!(bits(x), bits(y), "k={k} row {r} col {c}: {x} vs {y}");
                    }
                }
            }
        }
    }
}
