//! Property tests of the triangular self-comparison.
//!
//! `gamma_self_symmetric` computes only the microkernel tiles on or above
//! the diagonal and mirrors them, so its output must equal the full GEMM
//! and the bit-level reference wherever the diagonal falls relative to the
//! `MR × NR` tile grid and the `m_c` / `n_c` cache blocks. The blockings
//! drawn here often make `n_c` an odd multiple of `NR` (so column
//! blocks end mid-way through an `MR` row tile), let `m_c` and `n_c`
//! differ so row and column block edges misalign, and keep `m` ragged
//! against both, on the parallel and the sequential engine.

use proptest::prelude::*;
use snp_bitmat::{reference_gamma_self, BitMatrix, CompareOp};
use snp_cpu::blocking::{MR, NR};
use snp_cpu::parallel::gamma_parallel;
use snp_cpu::{gamma_self_symmetric, CpuBlocking, CpuEngine};

fn bitmat(rows: usize, cols: usize, seed: u32) -> BitMatrix<u64> {
    BitMatrix::from_fn(rows, cols, |r, c| {
        ((r as u32).wrapping_mul(0x9E37_79B9) ^ (c as u32).wrapping_mul(0x85EB_CA6B) ^ seed)
            .rotate_left(11)
            % 5
            < 2
    })
}

/// A valid blocking with `k_c` in 1..=5 words, `m_c` in 1..=5 `MR` tiles
/// and `n_c` in 1..=9 `NR` panels.
fn blocking() -> impl Strategy<Value = CpuBlocking> {
    (1usize..=5, 1usize..=5, 1usize..=9).prop_map(|(k_c, m_tiles, n_panels)| CpuBlocking {
        m_r: MR,
        n_r: NR,
        k_c,
        m_c: m_tiles * MR,
        n_c: n_panels * NR,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Symmetric == full parallel GEMM == reference, for AND and XOR, on
    /// both engines, at random sizes, widths and blockings.
    #[test]
    fn symmetric_equals_full_and_reference(
        m in 1usize..=160,
        k_bits in 1usize..=700,
        blocking in blocking(),
        seed in any::<u32>(),
    ) {
        let a = bitmat(m, k_bits, seed);
        for op in [CompareOp::And, CompareOp::Xor] {
            let full = gamma_parallel(&a, &a, op, &blocking);
            let want = reference_gamma_self(&a, op);
            prop_assert_eq!(full.first_mismatch(&want), None, "full vs reference, op {}", op);
            for parallel in [true, false] {
                let sym = gamma_self_symmetric(&a, op, &blocking, parallel);
                prop_assert_eq!(
                    sym.first_mismatch(&full),
                    None,
                    "m {} k_bits {} {:?} op {} parallel {}",
                    m, k_bits, blocking, op, parallel
                );
            }
        }
    }

    /// The engine entry point agrees with `ld_self` on both engines.
    #[test]
    fn engine_ld_self_symmetric_equals_ld_self(
        m in 1usize..=160,
        k_bits in 1usize..=700,
        blocking in blocking(),
        seed in any::<u32>(),
    ) {
        let a = bitmat(m, k_bits, seed);
        for engine in [CpuEngine::new(), CpuEngine::sequential()] {
            let engine = engine.with_blocking(blocking);
            prop_assert_eq!(
                engine.ld_self_symmetric(&a).first_mismatch(&engine.ld_self(&a)),
                None,
                "m {} {:?} parallel {}",
                m, blocking, engine.is_parallel()
            );
        }
    }
}
