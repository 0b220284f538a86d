//! Symmetric self-comparison: exploit `γ = γᵀ`.
//!
//! Linkage disequilibrium compares a panel against itself with a symmetric
//! operator (`popc(a & b) = popc(b & a)`, likewise XOR), so only the upper
//! triangle of `γ` needs computing — the classical SYRK-style saving over
//! GEMM. A final mirror pass fills the strict lower triangle.
//!
//! The skip works at column-block granularity: an `m_c`-row block is
//! skipped only when it lies entirely below the current `n_c`-column
//! block; every other block, including each one the diagonal crosses, is
//! computed whole. With the default blocking (`k_c` = 170, so `n_c` =
//! 5784), a panel of up to 5784 SNPs is a single column block, nothing is
//! skipped, and the full `γ` is computed before the mirror. The saving
//! appears only on panels that span several column blocks, and approaches
//! 2× only when they span many.

use rayon::prelude::*;
use snp_bitmat::{BitMatrix, CompareOp, CountMatrix, PackedPanels};

use crate::blocking::{CpuBlocking, MR, NR};
use crate::gemm::macro_kernel;

/// True when `op(a, b) == op(b, a)` for all words — the precondition for
/// the triangular saving. AND and XOR are symmetric; AND-NOT is not.
pub fn op_is_symmetric(op: CompareOp) -> bool {
    matches!(op, CompareOp::And | CompareOp::Xor)
}

/// Self-comparison `γ = A ⋄ Aᵀ` computing only upper-triangle blocks, then
/// mirroring. Results are identical to the full
/// [`gamma_parallel`](crate::parallel::gamma_parallel) (tested); the block
/// work saved grows with the number of `n_c` column blocks `m` spans (see
/// the module doc).
///
/// Panics if `op` is not symmetric or `blocking` is invalid.
pub fn gamma_self_symmetric(
    a: &BitMatrix<u64>,
    op: CompareOp,
    blocking: &CpuBlocking,
) -> CountMatrix {
    assert!(
        op_is_symmetric(op),
        "operator {op} is not symmetric; use the general engine for AND-NOT"
    );
    let viol = blocking.violations();
    assert!(viol.is_empty(), "invalid blocking: {viol:?}");
    let m = a.rows();
    let k_words = a.words_per_row();
    let mut c = CountMatrix::zeros(m, m);
    if m == 0 {
        return c;
    }
    let cols = m;
    for jc in (0..m).step_by(blocking.n_c) {
        let n_blk = blocking.n_c.min(m - jc);
        for pc in (0..k_words).step_by(blocking.k_c) {
            let k_blk = blocking.k_c.min(k_words - pc);
            let b_pack = PackedPanels::pack(a, jc, jc + n_blk, pc, pc + k_blk, NR);
            // Parallel third loop over m_c row blocks, skipping blocks that
            // lie entirely below this column block (row start beyond the
            // block's last column).
            c.as_mut_slice()
                .par_chunks_mut(blocking.m_c * cols)
                .enumerate()
                .for_each(|(blk, rows)| {
                    let ic = blk * blocking.m_c;
                    if ic >= jc + n_blk {
                        return; // strictly below the diagonal: mirrored later
                    }
                    let m_blk = blocking.m_c.min(m - ic);
                    let a_pack = PackedPanels::pack(a, ic, ic + m_blk, pc, pc + k_blk, MR);
                    macro_kernel(op, &a_pack, &b_pack, rows, m_blk, cols, jc, n_blk);
                });
        }
    }
    mirror_lower(&mut c);
    c
}

/// Copies the strict upper triangle onto the strict lower triangle.
fn mirror_lower(c: &mut CountMatrix) {
    let n = c.rows();
    debug_assert_eq!(n, c.cols());
    for i in 1..n {
        for j in 0..i {
            let v = c.get(j, i);
            c.set(i, j, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::gamma_parallel;
    use snp_bitmat::reference_gamma_self;

    fn matrix(rows: usize, cols: usize) -> BitMatrix<u64> {
        BitMatrix::from_fn(rows, cols, |r, c| (r * 23 + c * 11) % 7 < 3)
    }

    fn blocking_small() -> CpuBlocking {
        CpuBlocking {
            m_r: MR,
            n_r: NR,
            k_c: 3,
            m_c: 2 * MR,
            n_c: 3 * NR,
        }
    }

    #[test]
    fn symmetric_matches_full_for_and_and_xor() {
        for rows in [1usize, 7, MR, 3 * MR + 5, 100] {
            let a = matrix(rows, 300);
            for op in [CompareOp::And, CompareOp::Xor] {
                let sym = gamma_self_symmetric(&a, op, &blocking_small());
                let full = gamma_parallel(&a, &a, op, &blocking_small());
                assert_eq!(sym.first_mismatch(&full), None, "rows={rows} op={op}");
            }
        }
    }

    #[test]
    fn symmetric_matches_reference_with_default_blocking() {
        let a = matrix(90, 777);
        let sym = gamma_self_symmetric(&a, CompareOp::And, &CpuBlocking::default());
        let want = reference_gamma_self(&a, CompareOp::And);
        assert_eq!(sym.first_mismatch(&want), None);
    }

    #[test]
    fn result_is_exactly_symmetric() {
        let a = matrix(64, 256);
        let c = gamma_self_symmetric(&a, CompareOp::Xor, &blocking_small());
        for i in 0..64 {
            for j in 0..64 {
                assert_eq!(c.get(i, j), c.get(j, i));
            }
        }
    }

    #[test]
    #[should_panic(expected = "not symmetric")]
    fn andnot_rejected() {
        let a = matrix(8, 64);
        let _ = gamma_self_symmetric(&a, CompareOp::AndNot, &blocking_small());
    }

    #[test]
    fn empty_matrix_ok() {
        let a = BitMatrix::<u64>::zeros(0, 0);
        let c = gamma_self_symmetric(&a, CompareOp::And, &CpuBlocking::default());
        assert_eq!((c.rows(), c.cols()), (0, 0));
    }

    #[test]
    fn operator_symmetry_classification() {
        assert!(op_is_symmetric(CompareOp::And));
        assert!(op_is_symmetric(CompareOp::Xor));
        assert!(!op_is_symmetric(CompareOp::AndNot));
    }
}
