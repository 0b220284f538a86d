//! `ld_batch`: one large LD self-comparison, answered by the CPU engine
//! (symmetric path) and by the simulated Titan V in `ExecMode::Full`.
//! Compute-bound: a few large parallel regions do nearly all the wall work.

use snp_bitmat::{reference_gamma, BitMatrix, CompareOp, CountMatrix};
use snp_core::{Algorithm, GpuEngine};
use snp_cpu::CpuEngine;
use snp_gpu_model::devices;
use snp_popgen::population::{generate_panel, PanelConfig};

use crate::layers::{self, EngineCall};
use crate::report::{median, rates, Clock, Report};
use crate::spans::{Spans, Took};
use crate::{shape_jitter, Workload};

/// Nominal panel: 2048 SNPs × 16384 haplotypes (4 MiB packed, γ 16 MiB).
pub const SNPS: usize = 2048;
/// Nominal haplotype count; the seed moves it by up to ±4 words of 64.
pub const HAPLOTYPES: usize = 16384;
/// Rows of γ re-derived by the scalar reference per repetition.
const SAMPLED_ROWS: usize = 4;

/// Set-up state of `ld_batch`.
pub struct LdBatch {
    seed: u64,
    panel: BitMatrix<u64>,
    cpu: CpuEngine,
    gpu: GpuEngine,
}

/// One repetition's timings.
#[derive(Debug, Clone, Copy)]
pub struct LdSample {
    cpu: Took,
    sim: Took,
    call: EngineCall,
}

impl LdBatch {
    fn word_ops64(&self) -> f64 {
        let m = self.panel.rows() as f64;
        m * m * self.panel.words_per_row() as f64
    }

    /// Runs both engines once and checks their outputs.
    fn answer(&self, spans: &Spans, report: &mut Report) -> LdSample {
        let (cpu_gamma, cpu) = spans.took("cpu", "CpuEngine::ld_self_symmetric", || {
            self.cpu.ld_self_symmetric(&self.panel)
        });
        let (run, sim) = spans.took("core", "GpuEngine::ld_self", || {
            self.gpu.ld_self(&self.panel)
        });
        report.op(true, String::new);
        let run = match run {
            Ok(r) => {
                report.op(true, String::new);
                r
            }
            Err(e) => {
                report.op(false, || {
                    format!("ld_batch: GpuEngine::ld_self failed: {e}")
                });
                return LdSample {
                    cpu,
                    sim,
                    call: EngineCall::default(),
                };
            }
        };
        spans.time("check", "ld outputs", || {
            let sim_ok = match &run.gamma {
                Some(g) => g.first_mismatch(&cpu_gamma).is_none(),
                None => false,
            };
            report.op(sim_ok, || "ld_batch: sim γ differs from CPU γ".into());
            let ref_ok = self.reference_rows_match(&cpu_gamma);
            report.op(ref_ok, || {
                "ld_batch: CPU γ differs from reference_gamma on sampled rows".into()
            });
        });
        LdSample {
            cpu,
            sim,
            call: EngineCall::from_run(&run, self.gpu.spec(), Algorithm::LinkageDisequilibrium),
        }
    }

    fn reference_rows_match(&self, gamma: &CountMatrix) -> bool {
        let m = self.panel.rows();
        (0..SAMPLED_ROWS).all(|i| {
            let r = (crate::splitmix(self.seed ^ i as u64) as usize) % m;
            let want =
                reference_gamma(&self.panel.row_slice(r, r + 1), &self.panel, CompareOp::And);
            want.row(0) == gamma.row(r)
        })
    }
}

impl Workload for LdBatch {
    const NAME: &'static str = "ld_batch";
    type Sample = LdSample;

    fn setup(seed: u64, spans: &Spans, report: &mut Report) -> LdBatch {
        let haplotypes = (HAPLOTYPES as i64 + 64 * shape_jitter(seed, 1)) as usize;
        let (panel, _) = spans.time("bench", "generate_panel", || {
            generate_panel(
                &PanelConfig {
                    snps: SNPS,
                    samples: haplotypes,
                    ..Default::default()
                },
                seed,
            )
            .matrix
        });
        let state = LdBatch {
            seed,
            panel,
            cpu: CpuEngine::new(),
            gpu: GpuEngine::new(devices::titan_v()),
        };
        state.answer(spans, report);
        state
    }

    fn rep(&mut self, spans: &Spans, report: &mut Report) -> LdSample {
        self.answer(spans, report)
    }

    fn rep_wall(s: &LdSample) -> f64 {
        s.cpu.wall + s.sim.wall
    }

    fn end_to_end(&self, samples: &[LdSample], report: &mut Report) {
        report.op(
            samples
                .iter()
                .all(|s| s.call.timing == samples[0].call.timing),
            || "ld_batch: virtual timing differs between repetitions of one input".into(),
        );
        let ops64 = self.word_ops64() / 1e9;
        let shape = format!(
            "{} SNPs x {} haplotypes",
            self.panel.rows(),
            self.panel.cols()
        );
        let each = |f: &dyn Fn(&LdSample) -> (f64, Took)| samples.iter().map(f).collect::<Vec<_>>();
        rates(
            report,
            "host_qps",
            ["q/ref_s", "q/s"],
            &each(&|s| (1.0, s.cpu.plus(s.sim))),
            "LD batches answered by both engines",
        );
        rates(
            report,
            "cpu_gwops",
            ["Gop/ref_s", "Gop/s"],
            &each(&|s| (ops64, s.cpu)),
            &format!("CpuEngine::ld_self_symmetric, word64-ops of the full γ, {shape}"),
        );
        rates(
            report,
            "sim_host_gwops",
            ["Gop/ref_s", "Gop/s"],
            &each(&|s| (s.call.device_word_ops / 1e9, s.sim)),
            "GpuEngine::ld_self (Titan V, Full), device word-ops",
        );
        report.metric(
            "virt_ms",
            "virt_ms",
            Clock::Virtual,
            samples[0].call.timing.busy_ns() as f64 / 1e6,
            "GpuEngine::ld_self post-init busy time (Timing::busy_ns)",
        );
    }

    fn layers(&mut self, samples: &[LdSample], spans: &Spans, report: &mut Report) {
        let cpu_s = median(&samples.iter().map(|s| s.cpu.wall).collect::<Vec<_>>());
        let sim_s = median(&samples.iter().map(|s| s.sim.wall).collect::<Vec<_>>());
        let problem = layers::CpuProblem {
            a: &self.panel,
            b: &self.panel,
            op: CompareOp::And,
        };
        layers::pack(&[problem], spans, report, "cpu_gwops", Self::NAME);
        layers::cpu_roof(self.word_ops64() / cpu_s / 1e9, spans, report, Self::NAME);
        layers::cpu_parallel(&[problem], spans, report, Self::NAME);
        layers::symmetric(&self.panel, spans, report, "ld_batch (2048 x 16384 panel)");
        layers::kernel_fn(&[problem], sim_s, spans, report, Self::NAME);
        let probe = layers::ServingProbe::build(self.seed);
        layers::topk(
            &probe.fastid_queries,
            &probe.fastid_db,
            &GpuEngine::new(devices::titan_v()),
            None,
            spans,
            report,
            "serving set probe",
        );
        layers::virt(&samples[0].call, report, Self::NAME);
        layers::run_query_probe(self.seed, spans, report);
    }
}
