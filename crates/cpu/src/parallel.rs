//! Multithreaded blocked popcount-GEMM with shape-aware scheduling.
//!
//! \[11\] parallelizes the second and third loops around the microkernel.
//! Splitting only the third (`ic`, row-block) loop works for square LD
//! problems but degenerates for FastID-shaped ones — a handful of query
//! rows against millions of database profiles yields a single `m_c` block
//! and therefore a single task. This module therefore picks between two
//! schedules by problem shape (or on request):
//!
//! * [`ParallelSchedule::RowBlocks`] — the classic `ic` split. The `pc`
//!   loop is outermost and every `m_c` block of `Ã` is packed **once per
//!   `pc`** into a cache reused across all `jc` iterations (the seed packed
//!   it once per `(jc, pc)`, re-packing the same words `n / n_c` times).
//!   Each task owns a disjoint row range of `γ`.
//! * [`ParallelSchedule::ColumnStrips`] — the `jc` split for wide problems.
//!   `Ã` (small by assumption) is packed once per `pc` up front; each task
//!   owns a disjoint **column** strip of `γ`, packs the `B̃` blocks of its
//!   strip itself, and accumulates into a private `m × strip` buffer that
//!   is added into `γ` after the join, keeping all writes disjoint without
//!   synchronization.
//!
//! Both schedules produce results bit-identical to the sequential path:
//! every `γ` cell is a sum of `u32` tile contributions, and integer
//! addition is associative and commutative, so neither the loop order nor
//! the task boundaries are observable in the output.

use rayon::prelude::*;
use snp_bitmat::{BitMatrix, CompareOp, CountMatrix, PackedPanels};
use snp_trace::{LazyCounter, TimeDomain, Tracer, TrackId};

use crate::blocking::{CpuBlocking, MR, NR};
use crate::gemm::{check_shapes, macro_kernel};

/// Registry name of the counter of parallel GEMM runs.
pub const PARALLEL_RUNS_METRIC: &str = "cpu.parallel.runs";
/// Registry name of the counter of parallel tasks spawned across runs.
pub const PARALLEL_TASKS_METRIC: &str = "cpu.parallel.tasks";
/// Registry name of the counter of `Ã` block packs across runs.
pub const PARALLEL_A_PACKS_METRIC: &str = "cpu.parallel.a_packs";

static RUNS: LazyCounter = LazyCounter::new(PARALLEL_RUNS_METRIC);
static TASKS: LazyCounter = LazyCounter::new(PARALLEL_TASKS_METRIC);
static A_PACKS: LazyCounter = LazyCounter::new(PARALLEL_A_PACKS_METRIC);

/// Which loop of the blocked GEMM is split across threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParallelSchedule {
    /// Pick by shape: [`ParallelSchedule::ColumnStrips`] when `m` fits in at
    /// most two `m_c` blocks and the `n` dimension offers more tasks,
    /// [`ParallelSchedule::RowBlocks`] otherwise.
    Auto,
    /// Split the third (`ic`) loop: tasks own disjoint row ranges of `γ`.
    RowBlocks,
    /// Split the fifth (`jc`) loop: tasks own disjoint column strips of `γ`.
    ColumnStrips,
}

/// What the scheduler actually did — exposed so tests and benches can assert
/// on parallelization behavior rather than only on timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelStats {
    /// The schedule that ran (never [`ParallelSchedule::Auto`]).
    pub schedule: ParallelSchedule,
    /// Number of independent parallel tasks per parallel region.
    pub tasks: usize,
    /// Number of `Ã` block packs performed (cache effectiveness: without the
    /// per-`pc` cache this would be multiplied by the number of `jc` steps).
    pub a_packs: usize,
}

/// Parallel version of [`crate::gemm::gamma_blocked_into`] using the
/// [`ParallelSchedule::Auto`] schedule. Produces results bit-identical to
/// the sequential path.
pub fn gamma_parallel_into(
    a: &BitMatrix<u64>,
    b: &BitMatrix<u64>,
    op: CompareOp,
    blocking: &CpuBlocking,
    c: &mut CountMatrix,
) {
    let _ = gamma_parallel_into_scheduled(a, b, op, blocking, c, ParallelSchedule::Auto);
}

/// Like [`gamma_parallel_into`] but with an explicit schedule; returns what
/// was actually run.
pub fn gamma_parallel_into_scheduled(
    a: &BitMatrix<u64>,
    b: &BitMatrix<u64>,
    op: CompareOp,
    blocking: &CpuBlocking,
    c: &mut CountMatrix,
    schedule: ParallelSchedule,
) -> ParallelStats {
    gamma_parallel_into_traced(a, b, op, blocking, c, schedule, &Tracer::disabled())
}

/// Like [`gamma_parallel_into_scheduled`] with per-task wall-clock spans
/// recorded on `tracer` (a no-op for a disabled tracer). Every run also
/// bumps the process-wide [`snp_trace::registry`] counters
/// [`PARALLEL_RUNS_METRIC`], [`PARALLEL_TASKS_METRIC`] and
/// [`PARALLEL_A_PACKS_METRIC`], which supersede hand-plumbing
/// [`ParallelStats`] out of call sites for aggregate reporting.
pub fn gamma_parallel_into_traced(
    a: &BitMatrix<u64>,
    b: &BitMatrix<u64>,
    op: CompareOp,
    blocking: &CpuBlocking,
    c: &mut CountMatrix,
    schedule: ParallelSchedule,
    tracer: &Tracer,
) -> ParallelStats {
    check_shapes(a, b, c, blocking);
    let (m, n) = (a.rows(), b.rows());
    let row_tasks = m.div_ceil(blocking.m_c);
    let col_tasks = n.div_ceil(blocking.n_c);
    let resolved = match schedule {
        ParallelSchedule::Auto => {
            if row_tasks <= 2 && col_tasks > row_tasks {
                ParallelSchedule::ColumnStrips
            } else {
                ParallelSchedule::RowBlocks
            }
        }
        explicit => explicit,
    };
    if m == 0 || n == 0 {
        return ParallelStats {
            schedule: resolved,
            tasks: 0,
            a_packs: 0,
        };
    }
    let track = tracer.track("cpu parallel", TimeDomain::Wall);
    let run = tracer.begin_span(track, "run", run_name(resolved), tracer.wall_now_ns());
    let stats = match resolved {
        ParallelSchedule::RowBlocks => {
            row_blocks(a, b, op, blocking, c, false, true, tracer, track)
        }
        ParallelSchedule::ColumnStrips => column_strips(a, b, op, blocking, c, tracer, track),
        ParallelSchedule::Auto => unreachable!("resolved above"),
    };
    tracer.end_span_with(
        run,
        tracer.wall_now_ns(),
        vec![
            ("tasks", (stats.tasks as u64).into()),
            ("a_packs", (stats.a_packs as u64).into()),
        ],
    );
    RUNS.add(1);
    TASKS.add(stats.tasks as u64);
    A_PACKS.add(stats.a_packs as u64);
    stats
}

fn run_name(schedule: ParallelSchedule) -> &'static str {
    match schedule {
        ParallelSchedule::RowBlocks => "parallel gamma (row blocks)",
        ParallelSchedule::ColumnStrips => "parallel gamma (column strips)",
        ParallelSchedule::Auto => "parallel gamma",
    }
}

/// Convenience wrapper allocating a fresh output.
pub fn gamma_parallel(
    a: &BitMatrix<u64>,
    b: &BitMatrix<u64>,
    op: CompareOp,
    blocking: &CpuBlocking,
) -> CountMatrix {
    let mut c = CountMatrix::zeros(a.rows(), b.rows());
    gamma_parallel_into(a, b, op, blocking, &mut c);
    c
}

/// `ic` split with the per-`pc` `Ã` cache: `pc` is the outermost loop so
/// each `m_c × k_c` block of `Ã` is packed exactly once and reused across
/// every `jc` iteration; tasks own disjoint `m_c`-row chunks of `γ`.
///
/// With `upper_only` (a self-comparison, `b` = `a`) the macro-kernel skips
/// every tile wholly below the diagonal; see
/// [`crate::symmetric::gamma_self_symmetric`]. Without `parallel` the row
/// blocks run in order on the calling thread.
#[allow(clippy::too_many_arguments)]
pub(crate) fn row_blocks(
    a: &BitMatrix<u64>,
    b: &BitMatrix<u64>,
    op: CompareOp,
    blocking: &CpuBlocking,
    c: &mut CountMatrix,
    upper_only: bool,
    parallel: bool,
    tracer: &Tracer,
    track: TrackId,
) -> ParallelStats {
    let (m, n, k_words) = (a.rows(), b.rows(), a.words_per_row());
    let cols = c.cols();
    let mut a_packs_done = 0;
    for pc in (0..k_words).step_by(blocking.k_c) {
        let k_blk = blocking.k_c.min(k_words - pc);
        let pack_start = tracer.wall_now_ns();
        let a_packs: Vec<PackedPanels<u64>> = (0..m)
            .step_by(blocking.m_c)
            .map(|ic| {
                let m_blk = blocking.m_c.min(m - ic);
                PackedPanels::pack(a, ic, ic + m_blk, pc, pc + k_blk, MR)
            })
            .collect();
        if tracer.is_enabled() {
            tracer.span_with(
                track,
                "pack",
                "pack A blocks",
                pack_start,
                tracer.wall_now_ns(),
                vec![("blocks", (a_packs.len() as u64).into())],
            );
        }
        a_packs_done += a_packs.len();
        for jc in (0..n).step_by(blocking.n_c) {
            let n_blk = blocking.n_c.min(n - jc);
            let b_pack = PackedPanels::pack(b, jc, jc + n_blk, pc, pc + k_blk, NR);
            let task = |(blk, rows): (usize, &mut [u32])| {
                let ic = blk * blocking.m_c;
                let m_blk = blocking.m_c.min(m - ic);
                let t0 = tracer.wall_now_ns();
                let diag_row = upper_only.then_some(ic);
                macro_kernel(
                    op,
                    &a_packs[blk],
                    &b_pack,
                    rows,
                    m_blk,
                    cols,
                    jc,
                    n_blk,
                    diag_row,
                );
                if tracer.is_enabled() {
                    tracer.span_with(
                        track,
                        "task",
                        format!("row block {blk}"),
                        t0,
                        tracer.wall_now_ns(),
                        vec![("rows", (m_blk as u64).into()), ("jc", (jc as u64).into())],
                    );
                }
            };
            let block_len = blocking.m_c * cols;
            if parallel {
                c.as_mut_slice()
                    .par_chunks_mut(block_len)
                    .enumerate()
                    .for_each(task);
            } else {
                c.as_mut_slice()
                    .chunks_mut(block_len)
                    .enumerate()
                    .for_each(task);
            }
        }
    }
    ParallelStats {
        schedule: ParallelSchedule::RowBlocks,
        tasks: m.div_ceil(blocking.m_c),
        a_packs: a_packs_done,
    }
}

/// `jc` split for wide problems: all of `Ã` is packed once per `pc` up
/// front (by assumption it fits a couple of `m_c` blocks), then each task
/// processes one `n_c`-column strip of `γ` across **all** `pc` blocks into a
/// private buffer, which is added into `γ` after the join. Tasks touch
/// disjoint columns, so the final writeback is the only cross-strip step.
fn column_strips(
    a: &BitMatrix<u64>,
    b: &BitMatrix<u64>,
    op: CompareOp,
    blocking: &CpuBlocking,
    c: &mut CountMatrix,
    tracer: &Tracer,
    track: TrackId,
) -> ParallelStats {
    let (m, n, k_words) = (a.rows(), b.rows(), a.words_per_row());
    let cols = c.cols();
    // Per-pc Ã cache for the whole run: pc-major list of row-block packs.
    let pc_steps: Vec<usize> = (0..k_words).step_by(blocking.k_c).collect();
    let a_cache: Vec<Vec<PackedPanels<u64>>> = pc_steps
        .iter()
        .map(|&pc| {
            let k_blk = blocking.k_c.min(k_words - pc);
            (0..m)
                .step_by(blocking.m_c)
                .map(|ic| {
                    let m_blk = blocking.m_c.min(m - ic);
                    PackedPanels::pack(a, ic, ic + m_blk, pc, pc + k_blk, MR)
                })
                .collect()
        })
        .collect();
    let a_packs_done: usize = a_cache.iter().map(Vec::len).sum();

    let strips: Vec<usize> = (0..n).step_by(blocking.n_c).collect();
    let tasks = strips.len();
    let strip_results: Vec<(usize, usize, Vec<u32>)> = strips
        .into_par_iter()
        .map(|jc| {
            let n_blk = blocking.n_c.min(n - jc);
            let t0 = tracer.wall_now_ns();
            let mut strip = vec![0u32; m * n_blk];
            for (pi, &pc) in pc_steps.iter().enumerate() {
                let k_blk = blocking.k_c.min(k_words - pc);
                let b_pack = PackedPanels::pack(b, jc, jc + n_blk, pc, pc + k_blk, NR);
                for (blk, a_pack) in a_cache[pi].iter().enumerate() {
                    let ic = blk * blocking.m_c;
                    let m_blk = blocking.m_c.min(m - ic);
                    let rows = &mut strip[ic * n_blk..(ic + m_blk) * n_blk];
                    macro_kernel(op, a_pack, &b_pack, rows, m_blk, n_blk, 0, n_blk, None);
                }
            }
            if tracer.is_enabled() {
                tracer.span_with(
                    track,
                    "task",
                    format!("column strip @{jc}"),
                    t0,
                    tracer.wall_now_ns(),
                    vec![("cols", (n_blk as u64).into())],
                );
            }
            (jc, n_blk, strip)
        })
        .collect();

    let out = c.as_mut_slice();
    for (jc, n_blk, strip) in strip_results {
        for r in 0..m {
            let dst = &mut out[r * cols + jc..r * cols + jc + n_blk];
            let src = &strip[r * n_blk..(r + 1) * n_blk];
            for (o, &v) in dst.iter_mut().zip(src) {
                *o += v;
            }
        }
    }
    ParallelStats {
        schedule: ParallelSchedule::ColumnStrips,
        tasks,
        a_packs: a_packs_done,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::gamma_blocked;
    use snp_bitmat::reference_gamma;

    fn matrix(rows: usize, cols: usize, salt: usize) -> BitMatrix<u64> {
        BitMatrix::from_fn(rows, cols, |r, c| (r * 41 + c * 13 + salt) % 5 < 2)
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
    fn parallel_matches_sequential_and_reference() {
        let a = matrix(3 * MR + 5, 700, 0);
        let b = matrix(5 * NR + 2, 700, 1);
        for op in CompareOp::ALL {
            let par = gamma_parallel(&a, &b, op, &blocking_small());
            let seq = gamma_blocked(&a, &b, op, &blocking_small());
            let want = reference_gamma(&a, &b, op);
            assert_eq!(par.first_mismatch(&seq), None, "op {op}: par vs seq");
            assert_eq!(par.first_mismatch(&want), None, "op {op}: par vs reference");
        }
    }

    #[test]
    fn both_schedules_match_sequential_on_every_shape() {
        // Square-ish, wide (FastID-like), tall, and single-row shapes all
        // must be bit-identical under either explicit schedule.
        let shapes = [(3 * MR + 5, 5 * NR + 2), (5, 40 * NR), (60, 7), (1, 90)];
        for (m, n) in shapes {
            let a = matrix(m, 450, m);
            let b = matrix(n, 450, n + 1);
            for op in CompareOp::ALL {
                let seq = gamma_blocked(&a, &b, op, &blocking_small());
                for schedule in [ParallelSchedule::RowBlocks, ParallelSchedule::ColumnStrips] {
                    let mut got = CountMatrix::zeros(m, n);
                    let stats = gamma_parallel_into_scheduled(
                        &a,
                        &b,
                        op,
                        &blocking_small(),
                        &mut got,
                        schedule,
                    );
                    assert_eq!(stats.schedule, schedule);
                    assert_eq!(
                        got.first_mismatch(&seq),
                        None,
                        "{schedule:?} vs sequential on {m}x{n}, op {op}"
                    );
                }
            }
        }
    }

    #[test]
    fn auto_picks_column_strips_for_fastid_shape() {
        // 32 queries × many profiles: one m_c block but many n_c blocks.
        let a = matrix(32, 320, 0);
        let b = matrix(40 * NR, 320, 1);
        let mut c = CountMatrix::zeros(a.rows(), b.rows());
        let stats = gamma_parallel_into_scheduled(
            &a,
            &b,
            CompareOp::Xor,
            &blocking_small(),
            &mut c,
            ParallelSchedule::Auto,
        );
        assert_eq!(stats.schedule, ParallelSchedule::ColumnStrips);
        assert!(stats.tasks > 1, "FastID shape must fan out, got {stats:?}");
        let want = reference_gamma(&a, &b, CompareOp::Xor);
        assert_eq!(c.first_mismatch(&want), None);
    }

    #[test]
    fn auto_keeps_row_blocks_for_square_shape() {
        let a = matrix(6 * MR, 256, 2);
        let b = matrix(6 * NR, 256, 3);
        let mut c = CountMatrix::zeros(a.rows(), b.rows());
        let stats = gamma_parallel_into_scheduled(
            &a,
            &b,
            CompareOp::And,
            &blocking_small(),
            &mut c,
            ParallelSchedule::Auto,
        );
        assert_eq!(stats.schedule, ParallelSchedule::RowBlocks);
        assert!(stats.tasks > 1);
    }

    #[test]
    fn a_pack_cache_packs_each_block_once_per_pc() {
        // 2 m_c row blocks × 4 k_c blocks = 8 packs regardless of how many
        // jc steps run (the seed implementation did row_blocks × jc_steps ×
        // pc_steps packs).
        let a = matrix(4 * MR, 64 * 12, 4);
        let b = matrix(9 * NR, 64 * 12, 5);
        let mut c = CountMatrix::zeros(a.rows(), b.rows());
        let stats = gamma_parallel_into_scheduled(
            &a,
            &b,
            CompareOp::And,
            &blocking_small(),
            &mut c,
            ParallelSchedule::RowBlocks,
        );
        let pc_steps = 12usize.div_ceil(3);
        let row_blks = (4 * MR).div_ceil(2 * MR);
        assert_eq!(stats.a_packs, row_blks * pc_steps);
    }

    #[test]
    fn traced_run_records_wall_clock_task_spans() {
        let a = matrix(32, 320, 12);
        let b = matrix(10 * NR, 320, 13);
        let tracer = snp_trace::Tracer::enabled();
        let mut c = CountMatrix::zeros(a.rows(), b.rows());
        let stats = gamma_parallel_into_traced(
            &a,
            &b,
            CompareOp::Xor,
            &blocking_small(),
            &mut c,
            ParallelSchedule::ColumnStrips,
            &tracer,
        );
        let trace = tracer.snapshot().expect("tracer is enabled");
        let run: Vec<_> = trace.events_in_cat("run").collect();
        assert_eq!(run.len(), 1);
        assert_eq!(
            trace.track(run[0].track).domain,
            snp_trace::TimeDomain::Wall
        );
        let tasks: Vec<_> = trace.events_in_cat("task").collect();
        assert_eq!(tasks.len(), stats.tasks);
        for t in &tasks {
            assert!(
                t.start_ns >= run[0].start_ns && t.end_ns <= run[0].end_ns,
                "task span must nest inside the run span"
            );
        }
    }

    #[test]
    fn sequential_row_blocks_run_in_order_on_the_calling_thread() {
        let a = matrix(5 * MR + 3, 320, 14);
        let blocking = blocking_small();
        let tracer = snp_trace::Tracer::enabled();
        let track = tracer.track("cpu parallel", TimeDomain::Wall);
        let mut c = CountMatrix::zeros(a.rows(), a.rows());
        row_blocks(
            &a,
            &a,
            CompareOp::And,
            &blocking,
            &mut c,
            true,
            false,
            &tracer,
            track,
        );
        let trace = tracer.snapshot().expect("tracer is enabled");
        let tasks: Vec<_> = trace.events_in_cat("task").collect();
        let blocks = a.rows().div_ceil(blocking.m_c);
        let steps = a.words_per_row().div_ceil(blocking.k_c) * a.rows().div_ceil(blocking.n_c);
        assert_eq!(tasks.len(), steps * blocks);
        for (i, t) in tasks.iter().enumerate() {
            assert_eq!(t.name, format!("row block {}", i % blocks));
        }
        for pair in tasks.windows(2) {
            assert!(pair[1].start_ns >= pair[0].end_ns, "row blocks overlapped");
        }
    }

    #[test]
    fn parallel_is_deterministic() {
        let a = matrix(100, 512, 2);
        let b = matrix(64, 512, 3);
        let x = gamma_parallel(&a, &b, CompareOp::Xor, &CpuBlocking::default());
        let y = gamma_parallel(&a, &b, CompareOp::Xor, &CpuBlocking::default());
        assert_eq!(x.first_mismatch(&y), None);
    }

    #[test]
    fn handles_fewer_rows_than_one_block() {
        let a = matrix(2, 128, 4);
        let b = matrix(300, 128, 5);
        let par = gamma_parallel(&a, &b, CompareOp::And, &CpuBlocking::default());
        let want = reference_gamma(&a, &b, CompareOp::And);
        assert_eq!(par.first_mismatch(&want), None);
    }

    #[test]
    fn accumulates_like_sequential() {
        let a = matrix(20, 256, 6);
        let b = matrix(20, 256, 7);
        let mut c = CountMatrix::zeros(20, 20);
        gamma_parallel_into(&a, &b, CompareOp::And, &blocking_small(), &mut c);
        gamma_parallel_into(&a, &b, CompareOp::Xor, &blocking_small(), &mut c);
        let want_and = reference_gamma(&a, &b, CompareOp::And);
        let want_xor = reference_gamma(&a, &b, CompareOp::Xor);
        for i in 0..20 {
            for j in 0..20 {
                assert_eq!(c.get(i, j), want_and.get(i, j) + want_xor.get(i, j));
            }
        }
    }

    #[test]
    fn column_strips_accumulates_into_existing_output() {
        let a = matrix(8, 200, 8);
        let b = matrix(120, 200, 9);
        let mut c = CountMatrix::zeros(8, 120);
        for _ in 0..2 {
            gamma_parallel_into_scheduled(
                &a,
                &b,
                CompareOp::AndNot,
                &blocking_small(),
                &mut c,
                ParallelSchedule::ColumnStrips,
            );
        }
        let want = reference_gamma(&a, &b, CompareOp::AndNot);
        for i in 0..8 {
            for j in 0..120 {
                assert_eq!(c.get(i, j), 2 * want.get(i, j));
            }
        }
    }
}
