//! The five-loop blocked popcount-GEMM (sequential core).
//!
//! Loop structure after BLIS (paper Fig. 3), computing
//! `γ (m × n) += A (m × K) ⋄ Bᵀ` where both inputs store one sequence per
//! row over `K` packed words:
//!
//! ```text
//! 5th loop:  jc over n in steps of n_c        (B̃ block fits L3)
//! 4th loop:  pc over K in steps of k_c        (pack B̃: n_c × k_c, NR panels)
//! 3rd loop:  ic over m in steps of m_c        (pack Ã: m_c × k_c, MR panels)
//! 2nd loop:  jr over B̃ panels (n_r = NR)
//! 1st loop:  ir over Ã panels (m_r = MR)
//! microkernel: MR × NR popcount accumulation over k_c words
//! ```
//!
//! Edge tiles are handled by the packers' zero padding; the writeback clips
//! to the logical matrix. Accumulation across `pc` blocks happens directly
//! in `γ`, so the routine *adds into* its output.

use snp_bitmat::{BitMatrix, CompareOp, CountMatrix, PackedPanels};

use crate::blocking::{CpuBlocking, MR, NR};
use crate::microkernel::{microkernel, zero_tile};

/// Adds `A ⋄ Bᵀ` into `c` using the blocked algorithm.
///
/// Panics if shapes disagree (`a`, `b` must share `words_per_row`; `c` must
/// be `a.rows() × b.rows()`), or if `blocking` is invalid.
pub fn gamma_blocked_into(
    a: &BitMatrix<u64>,
    b: &BitMatrix<u64>,
    op: CompareOp,
    blocking: &CpuBlocking,
    c: &mut CountMatrix,
) {
    check_shapes(a, b, c, blocking);
    let (m, n, k_words) = (a.rows(), b.rows(), a.words_per_row());
    let cols = c.cols();
    for jc in (0..n).step_by(blocking.n_c) {
        let n_blk = blocking.n_c.min(n - jc);
        for pc in (0..k_words).step_by(blocking.k_c) {
            let k_blk = blocking.k_c.min(k_words - pc);
            let b_pack = PackedPanels::pack(b, jc, jc + n_blk, pc, pc + k_blk, NR);
            for ic in (0..m).step_by(blocking.m_c) {
                let m_blk = blocking.m_c.min(m - ic);
                let a_pack = PackedPanels::pack(a, ic, ic + m_blk, pc, pc + k_blk, MR);
                let rows = &mut c.as_mut_slice()[ic * cols..(ic + m_blk) * cols];
                macro_kernel(op, &a_pack, &b_pack, rows, m_blk, cols, jc, n_blk, None);
            }
        }
    }
}

/// Convenience wrapper allocating a fresh output.
pub fn gamma_blocked(
    a: &BitMatrix<u64>,
    b: &BitMatrix<u64>,
    op: CompareOp,
    blocking: &CpuBlocking,
) -> CountMatrix {
    let mut c = CountMatrix::zeros(a.rows(), b.rows());
    gamma_blocked_into(a, b, op, blocking, &mut c);
    c
}

/// The macro-kernel: loops 1–2 over the packed panels, adding each
/// microkernel tile into the (row-major) `c_rows` slice, which covers
/// `m_blk` full rows of γ starting at block-local row 0; the block's columns
/// start at `jc` and span `n_blk`.
///
/// With `diag_row = Some(ic)` (the γ row of the block's first row, for a
/// self-comparison) every tile that lies wholly below the diagonal is
/// skipped: tile `(ip, jp)` is computed only while its column end
/// `jc + jp·NR + NR` exceeds its first row `ic + ip·MR`. Tiles the diagonal
/// crosses are computed whole. `None` computes every tile.
#[allow(clippy::too_many_arguments)] // mirrors the BLIS macro-kernel signature
pub(crate) fn macro_kernel(
    op: CompareOp,
    a_pack: &PackedPanels<u64>,
    b_pack: &PackedPanels<u64>,
    c_rows: &mut [u32],
    m_blk: usize,
    cols: usize,
    jc: usize,
    n_blk: usize,
    diag_row: Option<usize>,
) {
    debug_assert_eq!(a_pack.k(), b_pack.k());
    let k = a_pack.k();
    for jp in 0..b_pack.panels() {
        let j0 = jp * NR;
        let ip_end = match diag_row {
            Some(ic) => (jc + j0 + NR).saturating_sub(ic).div_ceil(MR),
            None => usize::MAX,
        }
        .min(a_pack.panels());
        for ip in 0..ip_end {
            let i0 = ip * MR;
            let mut acc = zero_tile();
            microkernel(op, k, a_pack.panel(ip), b_pack.panel(jp), &mut acc);
            let i_max = MR.min(m_blk - i0.min(m_blk));
            let j_max = NR.min(n_blk - j0.min(n_blk));
            for (i, acc_row) in acc.iter().enumerate().take(i_max) {
                let row = i0 + i;
                let base = row * cols + jc + j0;
                let out = &mut c_rows[base..base + j_max];
                for (o, &v) in out.iter_mut().zip(acc_row.iter()) {
                    *o += v;
                }
            }
        }
    }
}

pub(crate) fn check_shapes(
    a: &BitMatrix<u64>,
    b: &BitMatrix<u64>,
    c: &CountMatrix,
    blocking: &CpuBlocking,
) {
    assert_eq!(
        a.words_per_row(),
        b.words_per_row(),
        "operands disagree on packed width: {} vs {}",
        a.words_per_row(),
        b.words_per_row()
    );
    assert_eq!(
        c.rows(),
        a.rows(),
        "output rows {} != A rows {}",
        c.rows(),
        a.rows()
    );
    assert_eq!(
        c.cols(),
        b.rows(),
        "output cols {} != B rows {}",
        c.cols(),
        b.rows()
    );
    let viol = blocking.violations();
    assert!(viol.is_empty(), "invalid blocking: {viol:?}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use snp_bitmat::reference_gamma;

    fn blocking_small() -> CpuBlocking {
        // Tiny blocks force every loop to iterate multiple times even on
        // small inputs, exercising all edge paths.
        CpuBlocking {
            m_r: MR,
            n_r: NR,
            k_c: 2,
            m_c: 2 * MR,
            n_c: 2 * NR,
        }
    }

    fn matrix(rows: usize, cols: usize, salt: usize) -> BitMatrix<u64> {
        BitMatrix::from_fn(rows, cols, |r, c| (r * 37 + c * 11 + salt) % 7 < 3)
    }

    #[test]
    fn matches_reference_exact_multiples() {
        let a = matrix(2 * MR, 256, 0);
        let b = matrix(2 * NR, 256, 1);
        for op in CompareOp::ALL {
            let got = gamma_blocked(&a, &b, op, &blocking_small());
            let want = reference_gamma(&a, &b, op);
            assert_eq!(got.first_mismatch(&want), None, "op {op}");
        }
    }

    #[test]
    fn matches_reference_ragged_everything() {
        // Rows, cols and words that are NOT multiples of any block size.
        let a = matrix(MR * 2 + 3, 64 * 5 + 17, 2);
        let b = matrix(NR * 3 + 1, 64 * 5 + 17, 3);
        for op in CompareOp::ALL {
            let got = gamma_blocked(&a, &b, op, &blocking_small());
            let want = reference_gamma(&a, &b, op);
            assert_eq!(got.first_mismatch(&want), None, "op {op}");
        }
    }

    #[test]
    fn matches_reference_with_default_blocking() {
        let a = matrix(37, 900, 4);
        let b = matrix(29, 900, 5);
        let got = gamma_blocked(&a, &b, CompareOp::Xor, &CpuBlocking::default());
        let want = reference_gamma(&a, &b, CompareOp::Xor);
        assert_eq!(got.first_mismatch(&want), None);
    }

    #[test]
    fn accumulates_into_existing_output() {
        let a = matrix(5, 128, 6);
        let b = matrix(7, 128, 7);
        let mut c = CountMatrix::zeros(5, 7);
        gamma_blocked_into(&a, &b, CompareOp::And, &blocking_small(), &mut c);
        gamma_blocked_into(&a, &b, CompareOp::And, &blocking_small(), &mut c);
        let want = reference_gamma(&a, &b, CompareOp::And);
        for i in 0..5 {
            for j in 0..7 {
                assert_eq!(c.get(i, j), 2 * want.get(i, j));
            }
        }
    }

    #[test]
    fn single_row_and_column() {
        let a = matrix(1, 70, 8);
        let b = matrix(1, 70, 9);
        let got = gamma_blocked(&a, &b, CompareOp::AndNot, &blocking_small());
        let want = reference_gamma(&a, &b, CompareOp::AndNot);
        assert_eq!(got.first_mismatch(&want), None);
    }

    #[test]
    #[should_panic(expected = "packed width")]
    fn width_mismatch_panics() {
        let a = matrix(4, 64, 0);
        let b = matrix(4, 128, 0);
        let _ = gamma_blocked(&a, &b, CompareOp::And, &CpuBlocking::default());
    }

    #[test]
    #[should_panic(expected = "invalid blocking")]
    fn invalid_blocking_panics() {
        let a = matrix(4, 64, 0);
        let bad = CpuBlocking {
            m_r: 2,
            n_r: NR,
            k_c: 8,
            m_c: 16,
            n_c: 16,
        };
        let _ = gamma_blocked(&a, &a, CompareOp::And, &bad);
    }
}
