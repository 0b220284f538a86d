//! `fastid_stream`: 32 queries (half planted, as in Fig. 8) against a
//! 200,000 × 1,024-SNP database. The CPU engine is the oracle; the
//! simulated Titan V, its memory capped so the database streams in many
//! passes, answers through the streaming top-k path; and the NDIS-scale
//! point (32 × 20,971,520 × 1024) runs timing-only. `snp-core` is used as
//! few long calls with many chunks.

use snp_bitmat::{BitMatrix, CountMatrix};
use snp_core::{topk_of_row, Algorithm, EngineOptions, ExecMode, GpuEngine, Match};
use snp_cpu::CpuEngine;
use snp_gpu_model::{devices, DeviceSpec, ProblemShape};
use snp_popgen::forensic::{generate_database, generate_queries, DatabaseConfig};

use crate::layers::{self, CpuProblem, EngineCall};
use crate::report::{median, rates, Clock, Report};
use crate::spans::{Spans, Took};
use crate::{shape_jitter, Workload};

/// Queries per batch.
pub const QUERIES: usize = 32;
/// Planted queries (noisy copies of database rows).
pub const PLANTED: usize = 16;
/// Nominal database size; the seed moves it by up to ±4 × 256 profiles,
/// which keeps the number of streamed chunks the same.
pub const PROFILES: usize = 200_000;
/// SNPs per profile.
pub const SNPS: usize = 1024;
/// Candidates kept per query.
pub const TOPK: usize = 5;
/// Profiles of the NDIS-scale timing-only point (Fig. 8).
pub const NDIS_PROFILES: usize = 20_971_520;
/// The streamed database must take at least this many passes.
const MIN_PASSES: usize = 8;

/// Titan V with its allocation limits shrunk so a 25 MB database streams
/// through double-buffered 2 MiB chunks.
pub fn capped_titan_v() -> DeviceSpec {
    let mut d = devices::titan_v();
    d.max_alloc_bytes = d.max_alloc_bytes.min(2 << 20);
    d.global_mem_bytes = d.global_mem_bytes.min(16 << 20);
    d
}

/// Set-up state of `fastid_stream`.
pub struct FastidStream {
    seed: u64,
    queries: BitMatrix<u64>,
    truth: Vec<Option<usize>>,
    db: BitMatrix<u64>,
    cpu: CpuEngine,
    gpu: GpuEngine,
    ndis: GpuEngine,
    oracle: Option<CountMatrix>,
}

/// One repetition's timings.
#[derive(Debug, Clone, Copy)]
pub struct FastidSample {
    cpu: Took,
    sim: Took,
    ndis: Took,
    call: EngineCall,
    ndis_virt_ns: u64,
}

impl FastidStream {
    fn word_ops64(&self) -> f64 {
        (self.queries.rows() * self.db.rows() * self.db.words_per_row()) as f64
    }

    fn answer(&mut self, spans: &Spans, report: &mut Report) -> FastidSample {
        let (gamma, cpu) = spans.took("cpu", "CpuEngine::identity_search", || {
            self.cpu.identity_search(&self.queries, &self.db)
        });
        report.op(true, String::new);
        let (topk, sim) = spans.took("core", "GpuEngine::identity_search_topk", || {
            self.gpu.identity_search_topk(&self.queries, &self.db, TOPK)
        });
        let shape = ProblemShape {
            m: QUERIES,
            n: NDIS_PROFILES,
            k_words: SNPS / 32,
        };
        let (ndis, ndis_took) =
            spans.took("core", "GpuEngine::run_shape (NDIS, timing-only)", || {
                self.ndis.run_shape(shape, Algorithm::IdentitySearch)
            });
        let mut sample = FastidSample {
            cpu,
            sim,
            ndis: ndis_took,
            call: EngineCall::default(),
            ndis_virt_ns: 0,
        };
        match ndis {
            Ok(r) => {
                report.op(true, String::new);
                sample.ndis_virt_ns = r.timing.busy_ns();
            }
            Err(e) => report.op(false, || {
                format!("fastid_stream: NDIS timing-only point failed: {e}")
            }),
        }
        let topk = match topk {
            Ok(r) => {
                report.op(true, String::new);
                r
            }
            Err(e) => {
                report.op(false, || {
                    format!("fastid_stream: identity_search_topk failed: {e}")
                });
                return sample;
            }
        };
        sample.call = EngineCall::from_topk(
            &topk,
            self.gpu.spec(),
            self.queries.rows(),
            self.db.rows(),
            2 * self.db.words_per_row(),
        );
        spans.time("check", "fastid outputs", || {
            report.op(topk.passes >= MIN_PASSES, || {
                format!(
                    "fastid_stream: database streamed in {} passes, want >= {MIN_PASSES}",
                    topk.passes
                )
            });
            let matches = topk.matches.as_deref().unwrap_or(&[]);
            let lists_ok = matches.len() == gamma.rows()
                && matches.iter().enumerate().all(|(q, got)| {
                    got.as_slice() == topk_of_row(gamma.row(q), 0, TOPK).as_slice()
                });
            report.op(lists_ok, || {
                "fastid_stream: top-k lists differ from host selection over oracle γ".into()
            });
            for (q, truth) in self.truth.iter().enumerate() {
                if let Some(p) = truth {
                    let top1 = matches
                        .get(q)
                        .and_then(|l| l.first())
                        .map(|m: &Match| m.profile);
                    report.op(top1 == Some(*p), || {
                        format!("fastid_stream: planted query {q} top-1 is {top1:?}, want {p}")
                    });
                }
            }
        });
        self.oracle = Some(gamma);
        sample
    }
}

impl Workload for FastidStream {
    const NAME: &'static str = "fastid_stream";
    type Sample = FastidSample;

    fn setup(seed: u64, spans: &Spans, report: &mut Report) -> FastidStream {
        let profiles = (PROFILES as i64 + 256 * shape_jitter(seed, 2)) as usize;
        let ((db, qs), _) = spans.time("bench", "generate_database + generate_queries", || {
            let db = generate_database(
                &DatabaseConfig {
                    profiles,
                    snps: SNPS,
                    ..Default::default()
                },
                seed,
            );
            let qs = generate_queries(&db, QUERIES, PLANTED, 0.01, seed + 1);
            (db, qs)
        });
        let mut state = FastidStream {
            seed,
            queries: qs.queries,
            truth: qs.truth,
            db: db.profiles,
            cpu: CpuEngine::new(),
            gpu: GpuEngine::new(capped_titan_v()),
            ndis: GpuEngine::new(devices::titan_v()).with_options(EngineOptions {
                mode: ExecMode::TimingOnly,
                ..EngineOptions::default()
            }),
            oracle: None,
        };
        state.answer(spans, report);
        state
    }

    fn rep(&mut self, spans: &Spans, report: &mut Report) -> FastidSample {
        self.answer(spans, report)
    }

    fn rep_wall(s: &FastidSample) -> f64 {
        s.cpu.wall + s.sim.wall + s.ndis.wall
    }

    fn end_to_end(&self, samples: &[FastidSample], report: &mut Report) {
        let first = (samples[0].call.timing, samples[0].ndis_virt_ns);
        report.op(
            samples
                .iter()
                .all(|s| (s.call.timing, s.ndis_virt_ns) == first),
            || "fastid_stream: virtual timing differs between repetitions of one input".into(),
        );
        let ops64 = self.word_ops64() / 1e9;
        let shape = format!("{} x {} profiles x {} SNPs", QUERIES, self.db.rows(), SNPS);
        let each =
            |f: &dyn Fn(&FastidSample) -> (f64, Took)| samples.iter().map(f).collect::<Vec<_>>();
        rates(
            report,
            "host_qps",
            ["q/ref_s", "q/s"],
            &each(&|s| (QUERIES as f64, s.cpu.plus(s.sim).plus(s.ndis))),
            "identity queries answered (oracle + top-k + NDIS point)",
        );
        rates(
            report,
            "cpu_gwops",
            ["Gop/ref_s", "Gop/s"],
            &each(&|s| (ops64, s.cpu)),
            &format!("CpuEngine::identity_search oracle, word64-ops, {shape}"),
        );
        rates(
            report,
            "sim_host_gwops",
            ["Gop/ref_s", "Gop/s"],
            &each(&|s| (s.call.device_word_ops / 1e9, s.sim)),
            &format!(
                "GpuEngine::identity_search_topk k={TOPK} on capped Titan V ({} passes), device word-ops",
                samples[0].call.passes
            ),
        );
        report.metric(
            "virt_ms",
            "virt_ms",
            Clock::Virtual,
            samples[0].call.timing.busy_ns() as f64 / 1e6,
            "identity_search_topk post-init busy time (Timing::busy_ns)",
        );
        report.metric(
            "ndis_virt_ms",
            "virt_ms",
            Clock::Virtual,
            samples[0].ndis_virt_ns as f64 / 1e6,
            format!(
                "NDIS point {QUERIES} x {NDIS_PROFILES} x {SNPS} on Titan V, timing-only, post-init; host cost {:.3} ms",
                median(&samples.iter().map(|s| s.ndis.wall * 1e3).collect::<Vec<_>>())
            ),
        );
    }

    fn layers(&mut self, samples: &[FastidSample], spans: &Spans, report: &mut Report) {
        let cpu_s = median(&samples.iter().map(|s| s.cpu.wall).collect::<Vec<_>>());
        let sim_s = median(&samples.iter().map(|s| s.sim.wall).collect::<Vec<_>>());
        let problem = CpuProblem {
            a: &self.queries,
            b: &self.db,
            op: snp_bitmat::CompareOp::Xor,
        };
        layers::pack(&[problem], spans, report, "cpu_gwops", Self::NAME);
        layers::cpu_roof(self.word_ops64() / cpu_s / 1e9, spans, report, Self::NAME);
        layers::cpu_parallel(&[problem], spans, report, Self::NAME);
        let probe = layers::ServingProbe::build(self.seed);
        layers::symmetric(&probe.panel, spans, report, "serving set probe panel");
        layers::kernel_fn(&[problem], sim_s, spans, report, Self::NAME);
        layers::topk(
            &self.queries,
            &self.db,
            &self.gpu,
            self.oracle.as_ref(),
            spans,
            report,
            "fastid_stream database",
        );
        layers::virt(&samples[0].call, report, Self::NAME);
        layers::run_query_probe(self.seed, spans, report);
    }
}
