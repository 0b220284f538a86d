//! Streaming top-k selection against a sort-based oracle.
//!
//! The oracle — a stable sort by `(differences, profile)` truncated to `k` —
//! lives only in this file, so the bounded selector behind
//! [`topk_of_row`] and `identity_search_topk` is never graded by itself.
//! Difference counts are drawn from a tiny range so that ties, including
//! ties across chunk boundaries, are the common case rather than the rare
//! one.

use proptest::prelude::*;
use snp_bitmat::BitMatrix;
use snp_core::{topk_of_row, FaultPlan, FaultProfile, GpuEngine, Match};
use snp_cpu::CpuEngine;
use snp_gpu_model::{devices, DeviceSpec};

fn oracle(row: &[u32], base_index: usize, k: usize) -> Vec<Match> {
    let mut all: Vec<Match> = row
        .iter()
        .enumerate()
        .map(|(j, &differences)| Match {
            profile: base_index + j,
            differences,
        })
        .collect();
    all.sort_by_key(|m| (m.differences, m.profile));
    all.truncate(k);
    all
}

/// A row of heavily tied difference counts and a `k` from 1 to its
/// length + 3.
fn tied_row_and_k() -> impl Strategy<Value = (Vec<u32>, usize)> {
    prop::collection::vec(0u32..4, 0..96)
        .prop_flat_map(|row| (1..=row.len() + 3).prop_map(move |k| (row.clone(), k)))
}

/// Profiles whose only set bits are the first `bits` SNPs, so every γ
/// entry lies in `0..=bits`.
fn narrow_panel(rows: usize, bits: usize, seed: u64) -> BitMatrix<u64> {
    BitMatrix::<u64>::from_fn(rows, 64, |r, c| {
        let x = (r as u64 * 64 + c as u64)
            .wrapping_add(seed)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15);
        c < bits && (x ^ (x >> 29)) & 1 == 1
    })
}

/// A Titan V whose allocation cap fits `tiles_per_chunk` of its
/// 1024-profile Table II tiles, so a 64-SNP database streams in chunks of
/// that many tiles. Per profile, the `γ` staging buffer takes one 4-byte
/// word for each of the `m` queries and the database buffer takes two.
fn chunked_titan(m: usize, tiles_per_chunk: usize) -> DeviceSpec {
    let mut dev = devices::titan_v();
    dev.max_alloc_bytes = (tiles_per_chunk * 1024 * 4 * m.max(2)) as u64;
    dev.global_mem_bytes = 16 * dev.max_alloc_bytes;
    dev
}

/// Runs `identity_search_topk` on `engine` and checks every list against
/// the oracle over the CPU engine's γ; returns the report's pass count.
fn check_engine(engine: &GpuEngine, q: &BitMatrix<u64>, db: &BitMatrix<u64>, k: usize) -> usize {
    let gamma = CpuEngine::new().identity_search(q, db);
    let report = engine.identity_search_topk(q, db, k).expect("search runs");
    let lists = report.matches.expect("full mode returns lists");
    assert_eq!(lists.len(), q.rows());
    for (qi, list) in lists.iter().enumerate() {
        assert_eq!(list, &oracle(gamma.row(qi), 0, k), "query {qi}, k {k}");
    }
    report.passes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `topk_of_row` returns exactly the oracle's list, in the oracle's
    /// order, for every `k` up to past the row length and any base index.
    #[test]
    fn row_selection_matches_oracle(
        (row, k) in tied_row_and_k(),
        base in 0usize..1_000_000,
    ) {
        prop_assert_eq!(topk_of_row(&row, base, k), oracle(&row, base, k));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The fast path: the database streams in chunks whose size follows
    /// the allocation cap, each chunk's winners are merged on the host,
    /// and the merged lists equal whole-row selection.
    #[test]
    fn chunked_stream_matches_oracle(
        m in 1usize..6,
        n in 1usize..5000,
        k in 1usize..12,
        bits in 1usize..4,
        tiles_per_chunk in 1usize..4,
        seed in 0u64..1u64 << 32,
    ) {
        let q = narrow_panel(m, bits, seed);
        let db = narrow_panel(n, bits, seed ^ 0xA5A5);
        let engine = GpuEngine::new(chunked_titan(m, tiles_per_chunk));
        check_engine(&engine, &q, &db, k);
    }

    /// The recovering path: the device is lost at host command `loss_at`,
    /// so the chunks after the last checkpoint run on the CPU fallback and
    /// merge into the checkpointed lists.
    #[test]
    fn recovering_stream_matches_oracle(
        m in 1usize..6,
        n in 1usize..5000,
        k in 1usize..12,
        bits in 1usize..4,
        loss_at in 0u64..32,
        seed in 0u64..1u64 << 32,
    ) {
        let q = narrow_panel(m, bits, seed);
        let db = narrow_panel(n, bits, seed ^ 0x5A5A);
        let faults = FaultPlan::new(
            seed,
            FaultProfile {
                device_loss_at: Some(loss_at),
                ..FaultProfile::none()
            },
        );
        let engine = GpuEngine::new(chunked_titan(m, 1)).with_fault_plan(faults);
        check_engine(&engine, &q, &db, k);
    }
}

/// The properties above are only as strong as the chunking and the loss
/// they rely on: pin that the cap really splits the stream and that a loss
/// really hands chunks to the CPU fallback.
#[test]
fn generators_reach_chunking_and_fallback() {
    let q = narrow_panel(4, 3, 1);
    let db = narrow_panel(4000, 3, 2);
    let passes = check_engine(&GpuEngine::new(chunked_titan(4, 1)), &q, &db, 5);
    assert_eq!(
        passes, 8,
        "4 chunks of one comparison and one reduction each"
    );

    let faults = FaultPlan::new(
        1,
        FaultProfile {
            device_loss_at: Some(9),
            ..FaultProfile::none()
        },
    );
    let engine = GpuEngine::new(chunked_titan(4, 1)).with_fault_plan(faults);
    let report = engine.identity_search_topk(&q, &db, 5).expect("recovers");
    let summary = report.recovery.expect("fault plan armed");
    assert!(summary.device_lost);
    assert!(summary.verified_chunks > 0, "{summary:?}");
    assert!(summary.cpu_fallback_chunks > 0, "{summary:?}");
    let gamma = CpuEngine::new().identity_search(&q, &db);
    for (qi, list) in report.matches.expect("lists").iter().enumerate() {
        assert_eq!(list, &oracle(gamma.row(qi), 0, 5), "query {qi}");
    }
}
