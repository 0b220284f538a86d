//! Symmetric self-comparison: exploit `γ = γᵀ`.
//!
//! Linkage disequilibrium compares a panel against itself with a symmetric
//! operator (`popc(a & b) = popc(b & a)`, likewise XOR), so only the upper
//! triangle of `γ` needs computing — the classical SYRK-style saving over
//! GEMM. A final mirror pass fills the strict lower triangle.
//!
//! The skip works at microkernel-tile granularity, at every panel size:
//! the pass runs the `pc`-outer row-block loop nest of
//! [`crate::parallel`] (each `Ã` block packed once per `pc`), and its
//! macro-kernel skips every `MR × NR` tile that lies wholly below the
//! diagonal. Only tiles the diagonal crosses are computed whole, so an
//! `m`-SNP panel computes about `m²/2 + m·MR/2` cells of `γ` instead of
//! `m²`. The rule follows from the tile's position alone, so the same
//! blocking serves the general GEMM and this path.

use snp_bitmat::{BitMatrix, CompareOp, CountMatrix};
use snp_trace::{TimeDomain, Tracer};

use crate::blocking::CpuBlocking;
use crate::parallel::row_blocks;

/// Side of the square tiles [`mirror_lower`] transposes: a 64 × 64 `u32`
/// tile is 16 KiB, so its source column reads and destination row writes
/// both stay cache-resident.
const MIRROR_TILE: usize = 64;

/// True when `op(a, b) == op(b, a)` for all words — the precondition for
/// the triangular saving. AND and XOR are symmetric; AND-NOT is not.
pub fn op_is_symmetric(op: CompareOp) -> bool {
    matches!(op, CompareOp::And | CompareOp::Xor)
}

/// Self-comparison `γ = A ⋄ Aᵀ` computing only the tiles on or above the
/// diagonal, then mirroring. Results are identical to the full
/// [`gamma_parallel`](crate::parallel::gamma_parallel) (tested) while
/// roughly half of the microkernel work is skipped at every panel size
/// (see the module doc). With `parallel` the row blocks run on the rayon
/// pool; without it, in order on the calling thread.
///
/// Panics if `op` is not symmetric or `blocking` is invalid.
pub fn gamma_self_symmetric(
    a: &BitMatrix<u64>,
    op: CompareOp,
    blocking: &CpuBlocking,
    parallel: bool,
) -> CountMatrix {
    let mut c = upper_tiles(a, op, blocking, parallel);
    mirror_lower(&mut c);
    c
}

/// The upper-only pass: every tile on or above the diagonal holds its
/// final value; the tiles wholly below it are left at zero.
fn upper_tiles(
    a: &BitMatrix<u64>,
    op: CompareOp,
    blocking: &CpuBlocking,
    parallel: bool,
) -> CountMatrix {
    assert!(
        op_is_symmetric(op),
        "operator {op} is not symmetric; use the general engine for AND-NOT"
    );
    let viol = blocking.violations();
    assert!(viol.is_empty(), "invalid blocking: {viol:?}");
    let mut c = CountMatrix::zeros(a.rows(), a.rows());
    if a.rows() > 0 {
        let tracer = Tracer::disabled();
        let track = tracer.track("cpu symmetric", TimeDomain::Wall);
        row_blocks(a, a, op, blocking, &mut c, true, parallel, &tracer, track);
    }
    c
}

/// Copies the strict upper triangle onto the strict lower triangle, one
/// [`MIRROR_TILE`]-square tile at a time.
fn mirror_lower(c: &mut CountMatrix) {
    let n = c.rows();
    debug_assert_eq!(n, c.cols());
    let cells = c.as_mut_slice();
    for ib in (0..n).step_by(MIRROR_TILE) {
        for jb in (0..=ib).step_by(MIRROR_TILE) {
            for i in ib..(ib + MIRROR_TILE).min(n) {
                for j in jb..(jb + MIRROR_TILE).min(i) {
                    cells[i * n + j] = cells[j * n + i];
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocking::{MR, NR};
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
                let full = gamma_parallel(&a, &a, op, &blocking_small());
                for parallel in [true, false] {
                    let sym = gamma_self_symmetric(&a, op, &blocking_small(), parallel);
                    assert_eq!(
                        sym.first_mismatch(&full),
                        None,
                        "rows={rows} op={op} parallel={parallel}"
                    );
                }
            }
        }
    }

    #[test]
    fn symmetric_matches_reference_with_default_blocking() {
        let a = matrix(90, 777);
        let sym = gamma_self_symmetric(&a, CompareOp::And, &CpuBlocking::default(), true);
        let want = reference_gamma_self(&a, CompareOp::And);
        assert_eq!(sym.first_mismatch(&want), None);
    }

    #[test]
    fn result_is_exactly_symmetric() {
        let a = matrix(64, 256);
        let c = gamma_self_symmetric(&a, CompareOp::Xor, &blocking_small(), true);
        for i in 0..64 {
            for j in 0..64 {
                assert_eq!(c.get(i, j), c.get(j, i));
            }
        }
    }

    #[test]
    fn upper_pass_skips_every_tile_below_the_diagonal() {
        // Default blocking puts the whole panel in one column block, where
        // the old column-block guard skipped nothing; the small blocking
        // spreads the diagonal over several row and column blocks.
        let m = 3 * MR * NR + 5;
        let a = matrix(m, 500);
        for blocking in [CpuBlocking::default(), blocking_small()] {
            for op in [CompareOp::And, CompareOp::Xor] {
                let want = reference_gamma_self(&a, op);
                for parallel in [true, false] {
                    let upper = upper_tiles(&a, op, &blocking, parallel);
                    let mut skipped_nonzero = 0;
                    for i in 0..m {
                        let tile_row = i / MR * MR;
                        for j in 0..m {
                            let tile_col_end = (j / NR + 1) * NR;
                            if tile_col_end <= tile_row {
                                assert_eq!(upper.get(i, j), 0, "({i}, {j}) below the diagonal");
                                skipped_nonzero += usize::from(want.get(i, j) != 0);
                            } else if j >= i {
                                assert_eq!(upper.get(i, j), want.get(i, j), "({i}, {j})");
                            }
                        }
                    }
                    // The reference is nonzero in most skipped cells, so the
                    // zeros above prove the work was skipped.
                    assert!(skipped_nonzero > m * m / 4, "{skipped_nonzero} of {m}²");
                }
            }
        }
    }

    #[test]
    fn mirror_copies_upper_onto_lower_at_every_tile_edge() {
        for n in [0usize, 1, MIRROR_TILE - 1, MIRROR_TILE, 2 * MIRROR_TILE + 3] {
            let mut c = CountMatrix::zeros(n, n);
            for i in 0..n {
                for j in i..n {
                    c.set(i, j, (i * n + j) as u32 + 1);
                }
            }
            mirror_lower(&mut c);
            for i in 0..n {
                for j in 0..n {
                    let (lo, hi) = (i.min(j), i.max(j));
                    assert_eq!(c.get(i, j), (lo * n + hi) as u32 + 1, "n={n} ({i}, {j})");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "not symmetric")]
    fn andnot_rejected() {
        let a = matrix(8, 64);
        let _ = gamma_self_symmetric(&a, CompareOp::AndNot, &blocking_small(), true);
    }

    #[test]
    fn empty_matrix_ok() {
        let a = BitMatrix::<u64>::zeros(0, 0);
        for parallel in [true, false] {
            let c = gamma_self_symmetric(&a, CompareOp::And, &CpuBlocking::default(), parallel);
            assert_eq!((c.rows(), c.cols()), (0, 0));
        }
    }

    #[test]
    fn operator_symmetry_classification() {
        assert!(op_is_symmetric(CompareOp::And));
        assert!(op_is_symmetric(CompareOp::Xor));
        assert!(!op_is_symmetric(CompareOp::AndNot));
    }
}
