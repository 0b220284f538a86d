//! Per-layer probes for the traced run. Each probe times calls into one
//! crate's public functions from outside and records the metric with the
//! end-to-end metric it should move and the workload it moves on.

use rayon::prelude::*;
use snp_bitmat::{BitMatrix, CompareOp, CountMatrix, PackedPanels};
use snp_core::{
    device_words, execute_gamma, topk_of_row, word_op_kind, Algorithm, GpuEngine, RunReport,
    Timing, TopKReport,
};
use snp_cpu::{CpuEngine, PARALLEL_A_PACKS_METRIC, PARALLEL_TASKS_METRIC};
use snp_gpu_model::{peak::effective_peak, DeviceSpec};
use snp_load::{run_query, Template, WorkloadSet};
use snp_popgen::forensic::{
    generate_database, generate_mixtures, generate_queries, DatabaseConfig,
};
use snp_popgen::population::{generate_panel, PanelConfig};
use snp_trace::registry;

use crate::report::{median, Clock, Report};
use crate::spans::Spans;

/// What one simulated engine call cost on the virtual clock.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineCall {
    /// Virtual timing breakdown.
    pub timing: Timing,
    /// Kernel launches.
    pub passes: usize,
    /// 32-bit device word-ops of the functional γ.
    pub device_word_ops: f64,
    /// Kernel word-ops per virtual second over the device's effective peak,
    /// weighted by kernel time when calls are summed.
    pub kernel_roof_frac: f64,
    /// Bytes read back to the host.
    pub readback_bytes: f64,
    /// Bytes a full-γ readback would move.
    pub full_readback_bytes: f64,
}

impl EngineCall {
    /// From a full-γ engine run.
    pub fn from_run(run: &RunReport, spec: &DeviceSpec, alg: Algorithm) -> EngineCall {
        let gamma_bytes = run
            .gamma
            .as_ref()
            .map_or(0.0, |g| (g.rows() * g.cols() * 4) as f64);
        EngineCall {
            timing: run.timing,
            passes: run.passes,
            device_word_ops: run.word_ops as f64,
            kernel_roof_frac: run.kernel_word_ops_per_sec / peak(spec, alg),
            readback_bytes: gamma_bytes,
            full_readback_bytes: gamma_bytes,
        }
    }

    /// From a streaming top-k run of `m × n` over `k_words` device words.
    pub fn from_topk(
        r: &TopKReport,
        spec: &DeviceSpec,
        m: usize,
        n: usize,
        k_words: usize,
    ) -> EngineCall {
        let ops = (m * n * k_words) as f64;
        let kernel_s = r.timing.kernel_ns.max(1) as f64 * 1e-9;
        EngineCall {
            timing: r.timing,
            passes: r.passes,
            device_word_ops: ops,
            kernel_roof_frac: ops / kernel_s / peak(spec, Algorithm::IdentitySearch),
            readback_bytes: r.topk_readback_bytes as f64,
            full_readback_bytes: r.full_readback_bytes as f64,
        }
    }

    /// Sums two calls (phase times, passes, bytes; the roof fraction is
    /// weighted by kernel time).
    pub fn plus(self, o: EngineCall) -> EngineCall {
        let (ka, kb) = (self.timing.kernel_ns as f64, o.timing.kernel_ns as f64);
        let t = |a: u64, b: u64| a + b;
        EngineCall {
            timing: Timing {
                init_ns: t(self.timing.init_ns, o.timing.init_ns),
                pack_ns: t(self.timing.pack_ns, o.timing.pack_ns),
                kernel_ns: t(self.timing.kernel_ns, o.timing.kernel_ns),
                transfer_in_ns: t(self.timing.transfer_in_ns, o.timing.transfer_in_ns),
                transfer_out_ns: t(self.timing.transfer_out_ns, o.timing.transfer_out_ns),
                recovery_ns: t(self.timing.recovery_ns, o.timing.recovery_ns),
                end_to_end_ns: t(self.timing.end_to_end_ns, o.timing.end_to_end_ns),
            },
            passes: self.passes + o.passes,
            device_word_ops: self.device_word_ops + o.device_word_ops,
            kernel_roof_frac: if ka + kb > 0.0 {
                (self.kernel_roof_frac * ka + o.kernel_roof_frac * kb) / (ka + kb)
            } else {
                0.0
            },
            readback_bytes: self.readback_bytes + o.readback_bytes,
            full_readback_bytes: self.full_readback_bytes + o.full_readback_bytes,
        }
    }
}

fn peak(spec: &DeviceSpec, alg: Algorithm) -> f64 {
    let op = snp_core::compare_op(alg, snp_core::MixtureStrategy::Direct);
    effective_peak(spec, word_op_kind(op)).word_ops_per_sec
}

/// One CPU comparison `γ = a ⊙ bᵀ`.
#[derive(Debug, Clone, Copy)]
pub struct CpuProblem<'a> {
    /// Left operand.
    pub a: &'a BitMatrix<u64>,
    /// Right operand.
    pub b: &'a BitMatrix<u64>,
    /// Operator.
    pub op: CompareOp,
}

impl CpuProblem<'_> {
    /// Word64-ops of the full γ.
    pub fn word_ops(&self) -> f64 {
        (self.a.rows() * self.b.rows() * self.a.words_per_row()) as f64
    }
}

/// The matrices `snp_load::WorkloadSet::build(seed)` serves from, rebuilt
/// with the same generator calls so the CPU oracle can check served
/// digests. A change to those shapes in `snp-load` shows here as a digest
/// mismatch, not as a silent pass.
pub struct ServingProbe {
    /// LD panel.
    pub panel: BitMatrix<u64>,
    /// FastID queries.
    pub fastid_queries: BitMatrix<u64>,
    /// FastID database.
    pub fastid_db: BitMatrix<u64>,
    /// Mixture references.
    pub mixture_refs: BitMatrix<u64>,
    /// Mixture matrix.
    pub mixture_matrix: BitMatrix<u64>,
}

impl ServingProbe {
    /// Rebuilds the serving set of `seed`.
    pub fn build(seed: u64) -> ServingProbe {
        let panel = generate_panel(
            &PanelConfig {
                snps: 48,
                samples: 256,
                ..Default::default()
            },
            seed,
        );
        let db = generate_database(
            &DatabaseConfig {
                profiles: 600,
                snps: 192,
                ..Default::default()
            },
            seed + 1,
        );
        let qs = generate_queries(&db, 4, 2, 0.01, seed + 2);
        let mix_db = generate_database(
            &DatabaseConfig {
                profiles: 300,
                snps: 192,
                ..Default::default()
            },
            seed + 3,
        );
        let (_, mixture_matrix) = generate_mixtures(&mix_db, 1, 2, seed + 4);
        ServingProbe {
            panel: panel.matrix,
            fastid_queries: qs.queries,
            fastid_db: db.profiles,
            mixture_refs: mix_db.profiles,
            mixture_matrix,
        }
    }

    /// The CPU problems behind the three algorithms the templates run.
    pub fn problems(&self) -> [CpuProblem<'_>; 3] {
        [
            CpuProblem {
                a: &self.panel,
                b: &self.panel,
                op: CompareOp::And,
            },
            CpuProblem {
                a: &self.fastid_queries,
                b: &self.fastid_db,
                op: CompareOp::Xor,
            },
            CpuProblem {
                a: &self.mixture_refs,
                b: &self.mixture_matrix,
                op: CompareOp::AndNot,
            },
        ]
    }
}

/// `bitmat.pack_ms`: `PackedPanels::pack_all` of each problem's operands at
/// the CPU engine's panel rows (MR for A, NR for B).
pub fn pack(
    problems: &[CpuProblem<'_>],
    spans: &Spans,
    report: &mut Report,
    moves: &str,
    on: &str,
) {
    let mut total = 0.0;
    for p in problems {
        let (_, a) = spans.time("bitmat", "PackedPanels::pack_all (A)", || {
            std::hint::black_box(PackedPanels::pack_all(p.a, snp_cpu::blocking::MR))
        });
        let (_, b) = spans.time("bitmat", "PackedPanels::pack_all (B)", || {
            std::hint::black_box(PackedPanels::pack_all(p.b, snp_cpu::blocking::NR))
        });
        total += a + b;
    }
    report.metric(
        "bitmat.pack_ms",
        "ms",
        Clock::Wall,
        total * 1e3,
        format!("moves {moves} on {on}"),
    );
}

/// `cpu.microkernel_gwops` on an L1-resident tile and `cpu.roof_frac`: the
/// workload's CPU engine rate per wall second against cores × MHz × 1
/// word/cycle.
pub fn cpu_roof(wall_gwops: f64, spans: &Spans, report: &mut Report, on: &str) {
    const K: usize = 128; // 12 KiB of panels: resident in any L1d
    let a: Vec<u64> = (0..K * snp_cpu::blocking::MR)
        .map(|i| crate::splitmix(i as u64))
        .collect();
    let b: Vec<u64> = (0..K * snp_cpu::blocking::NR)
        .map(|i| crate::splitmix(!(i as u64)))
        .collect();
    const CALLS: usize = 20_000;
    let mut rates = Vec::new();
    for _ in 0..5 {
        let (_, s) = spans.time("cpu", "snp_cpu::microkernel x20000", || {
            let mut acc = snp_cpu::microkernel::zero_tile();
            for _ in 0..CALLS {
                snp_cpu::microkernel::microkernel(
                    CompareOp::And,
                    K,
                    std::hint::black_box(&a),
                    std::hint::black_box(&b),
                    &mut acc,
                );
            }
            std::hint::black_box(acc);
        });
        let ops = (CALLS * K * snp_cpu::blocking::MR * snp_cpu::blocking::NR) as f64;
        rates.push(ops / s / 1e9);
    }
    report.metric(
        "cpu.microkernel_gwops",
        "Gop/s",
        Clock::Wall,
        median(&rates),
        "one thread, L1-resident 8x4 tile, median of 5; moves cpu_gwops on ld_batch, fastid_stream",
    );
    let fp = crate::host::Fingerprint::probe();
    let roof = fp.nproc as f64 * fp.mhz * 1e-3;
    report.metric(
        "cpu.roof_frac",
        "ratio",
        Clock::Wall,
        if roof > 0.0 { wall_gwops / roof } else { 0.0 },
        format!(
            "CPU engine wall rate / ({} cores x {:.0} MHz x 1 word/cycle); moves cpu_gwops on {on}",
            fp.nproc, fp.mhz
        ),
    );
}

/// `cpu.seq_ms`, `cpu.parallel_eff`, `cpu.tasks`, `cpu.a_packs`: the single
/// thread engine against the parallel one on the same problems.
pub fn cpu_parallel(problems: &[CpuProblem<'_>], spans: &Spans, report: &mut Report, on: &str) {
    let seq_engine = CpuEngine::sequential();
    let par_engine = CpuEngine::new();
    let tasks0 = registry().counter(PARALLEL_TASKS_METRIC).get();
    let packs0 = registry().counter(PARALLEL_A_PACKS_METRIC).get();
    let (mut seq, mut par) = (0.0, 0.0);
    for p in problems {
        seq += spans
            .time("cpu", "CpuEngine::sequential().gamma", || {
                std::hint::black_box(seq_engine.gamma(p.a, p.b, p.op))
            })
            .1;
        par += spans
            .time("cpu", "CpuEngine::gamma", || {
                std::hint::black_box(par_engine.gamma(p.a, p.b, p.op))
            })
            .1;
    }
    let tasks = registry().counter(PARALLEL_TASKS_METRIC).get() - tasks0;
    let packs = registry().counter(PARALLEL_A_PACKS_METRIC).get() - packs0;
    let threads = rayon::current_num_threads() as f64;
    report.metric(
        "cpu.seq_ms",
        "ms",
        Clock::Wall,
        seq * 1e3,
        format!("CpuEngine::sequential().gamma; moves cpu_gwops on {on}"),
    );
    report.metric(
        "cpu.parallel_eff",
        "ratio",
        Clock::Wall,
        seq / (threads * par),
        format!("seq / ({threads} threads x parallel gamma); moves cpu_gwops on {on}"),
    );
    report.metric(
        "cpu.tasks",
        "count",
        Clock::Count,
        tasks as f64,
        format!("ParallelStats tasks of CpuEngine::gamma; moves cpu_gwops on {on}"),
    );
    report.metric(
        "cpu.a_packs",
        "count",
        Clock::Count,
        packs as f64,
        format!("ParallelStats a_packs of CpuEngine::gamma; moves cpu_gwops on {on}"),
    );
}

/// `cpu.sym_speedup`: the full parallel γ over the symmetric path on
/// `panel` (ideal ≈ 2).
pub fn symmetric(panel: &BitMatrix<u64>, spans: &Spans, report: &mut Report, input: &str) {
    let engine = CpuEngine::new();
    let (_, full) = spans.time("cpu", "CpuEngine::ld_self", || {
        std::hint::black_box(engine.ld_self(panel))
    });
    let (_, sym) = spans.time("cpu", "CpuEngine::ld_self_symmetric", || {
        std::hint::black_box(engine.ld_self_symmetric(panel))
    });
    report.metric(
        "cpu.sym_speedup",
        "ratio",
        Clock::Wall,
        full / sym,
        format!("full gamma / ld_self_symmetric on {input}; ideal ~2; moves cpu_gwops on ld_batch"),
    );
}

/// `core.kernel_fn_ms` (the functional kernel on device words of the same
/// shapes) and `core.orchestration_ms` (engine wall time around it).
pub fn kernel_fn(
    problems: &[CpuProblem<'_>],
    engine_s: f64,
    spans: &Spans,
    report: &mut Report,
    on: &str,
) {
    let mut total = 0.0;
    for p in problems {
        let a = device_words(p.a, 0, p.a.rows());
        let b = device_words(p.b, 0, p.b.rows());
        let (m, n, k) = (p.a.rows(), p.b.rows(), 2 * p.a.words_per_row());
        let mut c = vec![0u32; m * n];
        total += spans
            .time("core", "snp_core::execute_gamma", || {
                execute_gamma(p.op, &a, &b, &mut c, m, n, k);
            })
            .1;
        std::hint::black_box(&c);
    }
    report.metric(
        "core.kernel_fn_ms",
        "ms",
        Clock::Wall,
        total * 1e3,
        format!("execute_gamma on device_words; moves sim_host_gwops on {on}"),
    );
    report.metric(
        "core.orchestration_ms",
        "ms",
        Clock::Wall,
        (engine_s - total) * 1e3,
        format!(
            "GpuEngine call ({:.3} ms) - kernel_fn; moves sim_host_gwops on {on}",
            engine_s * 1e3
        ),
    );
}

/// `core.topk_select_ms` (host top-k over the oracle γ) and
/// `core.topk_over_full` (`identity_search_topk` over `identity_search`
/// wall time on `engine`).
#[allow(clippy::too_many_arguments)]
pub fn topk(
    queries: &BitMatrix<u64>,
    db: &BitMatrix<u64>,
    engine: &GpuEngine,
    oracle: Option<&CountMatrix>,
    spans: &Spans,
    report: &mut Report,
    input: &str,
) {
    let own;
    let gamma = match oracle {
        Some(g) => g,
        None => {
            own = CpuEngine::new().identity_search(queries, db);
            &own
        }
    };
    let (_, select) = spans.time("core", "snp_core::topk_of_row (all rows)", || {
        for q in 0..gamma.rows() {
            std::hint::black_box(topk_of_row(gamma.row(q), 0, 5));
        }
    });
    let (mut t_topk, mut t_full) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        t_topk.push(
            spans
                .time("core", "GpuEngine::identity_search_topk", || {
                    engine.identity_search_topk(queries, db, 5).is_ok()
                })
                .1,
        );
        t_full.push(
            spans
                .time("core", "GpuEngine::identity_search", || {
                    engine.identity_search(queries, db).is_ok()
                })
                .1,
        );
    }
    report.metric(
        "core.topk_select_ms",
        "ms",
        Clock::Wall,
        select * 1e3,
        format!("topk_of_row k=5 over oracle γ of {input}; moves sim_host_gwops on fastid_stream"),
    );
    report.metric(
        "core.topk_over_full",
        "ratio",
        Clock::Wall,
        median(&t_topk) / median(&t_full),
        format!("identity_search_topk / identity_search wall, median of 3, {input}; moves sim_host_gwops on fastid_stream"),
    );
}

/// The `virt.*` phase breakdown of `call`.
pub fn virt(call: &EngineCall, report: &mut Report, on: &str) {
    let t = &call.timing;
    let ms = |ns: u64| ns as f64 / 1e6;
    let moves = format!("moves virt_ms on {on}");
    for (name, v) in [
        ("virt.init_ms", ms(t.init_ns)),
        ("virt.pack_ms", ms(t.pack_ns)),
        ("virt.h2d_ms", ms(t.transfer_in_ns)),
        ("virt.kernel_ms", ms(t.kernel_ns)),
        ("virt.d2h_ms", ms(t.transfer_out_ns)),
    ] {
        report.metric(name, "virt_ms", Clock::Virtual, v, moves.clone());
    }
    report.metric(
        "virt.passes",
        "count",
        Clock::Virtual,
        call.passes as f64,
        moves.clone(),
    );
    let phases = t.pack_ns + t.kernel_ns + t.transfer_in_ns + t.transfer_out_ns + t.recovery_ns;
    report.metric(
        "virt.overlap",
        "ratio",
        Clock::Virtual,
        phases as f64 / t.busy_ns().max(1) as f64,
        format!("phase sum / busy; {moves}"),
    );
    report.metric(
        "virt.kernel_roof_frac",
        "ratio",
        Clock::Virtual,
        call.kernel_roof_frac,
        format!("kernel word-ops/s / effective_peak; {moves}"),
    );
    report.metric(
        "virt.readback_mb",
        "MB",
        Clock::Virtual,
        call.readback_bytes / 1e6,
        format!("bytes read back; {moves}"),
    );
    report.metric(
        "virt.full_readback_mb",
        "MB",
        Clock::Virtual,
        call.full_readback_bytes / 1e6,
        format!("what a full-γ readback moves; {moves}"),
    );
}

/// The four serving templates, in report order.
pub const TEMPLATES: [(Template, &str); 4] = [
    (Template::Ld, "ld"),
    (Template::FastId, "fastid"),
    (Template::FastIdTopK, "fastid_topk"),
    (Template::Mixture, "mixture"),
];

/// `load.run_query_us.<template>`: looped `snp_load::run_query` on the
/// serving set of `seed`.
pub fn run_query_probe(seed: u64, spans: &Spans, report: &mut Report) {
    let set = WorkloadSet::build(seed);
    let engine = GpuEngine::new(snp_gpu_model::devices::titan_v());
    for (template, slug) in TEMPLATES {
        let mut per = Vec::new();
        for _ in 0..5 {
            let (_, s) = spans.time("load", "snp_load::run_query x40", || {
                for _ in 0..40 {
                    std::hint::black_box(run_query(template, &engine, &set).is_ok());
                }
            });
            per.push(s / 40.0 * 1e6);
        }
        report.metric(
            format!("load.run_query_us.{slug}"),
            "us",
            Clock::Wall,
            median(&per),
            "median of 5 x 40 calls on the serving set; moves host_qps on serve_mixed",
        );
    }
}

/// `rayon.region_us`: one trivial `par_chunks_mut().for_each` through the
/// thread-pool shim.
pub fn rayon_region(spans: &Spans, report: &mut Report) {
    let mut buf = vec![0u64; 1024];
    let mut per = Vec::new();
    for _ in 0..5 {
        let (_, s) = spans.time("rayon", "par_chunks_mut().for_each x200", || {
            for _ in 0..200 {
                buf.par_chunks_mut(512).for_each(|c| c[0] += 1);
            }
        });
        per.push(s / 200.0 * 1e6);
    }
    std::hint::black_box(&buf);
    report.metric(
        "rayon.region_us",
        "us",
        Clock::Wall,
        median(&per),
        format!(
            "{} threads per region; moves host_qps on serve_mixed, no move on ld_batch",
            rayon::current_num_threads()
        ),
    );
}
