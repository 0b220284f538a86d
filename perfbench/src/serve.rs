//! `serve_mixed`: an open-loop Poisson stream of all four `snp-load`
//! templates on Titan V, replayed over a fixed rate ladder, then a bursty
//! 8× overload phase with admission on and a device loss at a fixed query.
//! `snp-core` is used as many tiny calls, so per-call fixed costs dominate
//! the wall clock.
//!
//! Arrivals are scheduled on the virtual clock by `snp_load::run`, so the
//! generator cannot run late: latencies are measured from each query's due
//! time by construction.

use snp_bitmat::{CompareOp, CountMatrix};
use snp_core::{topk_of_row, FaultProfile, GpuEngine, Match};
use snp_cpu::CpuEngine;
use snp_gpu_model::devices;
use snp_load::{
    run, run_query, AdmissionConfig, ArrivalKind, FaultSpec, LoadConfig, LoadReport, Outcome,
    Template, Tier, WorkloadSet,
};

use crate::layers::{self, EngineCall, ServingProbe, TEMPLATES};
use crate::report::{rates, Clock, Report};
use crate::spans::{Spans, Took};
use crate::Workload;

/// Offered rates of the ladder, queries per virtual second.
pub const LADDER: [u32; 6] = [500, 1000, 2000, 4000, 8000, 16000];
/// Queries replayed per ladder rate: enough that p99 has ≥ 10 beyond it.
pub const QUERIES_PER_RATE: usize = 1024;
/// Queries of the overload phase.
pub const OVERLOAD_QUERIES: usize = 2048;
/// Overload: bursty arrivals at 8× this rate.
pub const OVERLOAD_BASE_QPS: f64 = 2000.0;
/// The p99 limit `max_rate_qps` is judged against.
pub const P99_LIMIT_NS: u64 = 1_000_000;
/// CPU oracle calls after each `snp_load::run` of a repetition. The calls
/// are tiny and their CPU cost shifts with the state of the vCPU they land
/// on, so they are spread over the whole run and `cpu_gwops` is their total
/// word-ops over their total CPU time, not a median of short bursts.
const ORACLE_CALLS: usize = 32;
/// Candidates the `fastid_topk` template keeps (`WorkloadSet::topk`).
const SERVE_TOPK: usize = 5;

/// Set-up state of `serve_mixed`.
pub struct ServeMixed {
    seed: u64,
    probe: ServingProbe,
    /// Expected result digest per template, from the CPU oracle.
    oracle: [u64; 4],
    set: WorkloadSet,
    engine: GpuEngine,
    /// Overload query the device loss is armed on.
    loss_at: usize,
    last: Option<Replay>,
}

/// One replay of the ladder and the overload phase.
#[derive(Debug, Clone)]
pub struct Replay {
    ladder: Vec<LoadReport>,
    overload: LoadReport,
}

/// One repetition's timings.
#[derive(Debug, Clone, Copy)]
pub struct ServeSample {
    replay: Took,
    /// All oracle calls of the repetition, summed.
    oracle: Took,
    oracle_calls: usize,
    queries: usize,
    device_word_ops: f64,
}

fn ladder_config(seed: u64, rate: u32) -> LoadConfig {
    let mut cfg = LoadConfig::new(devices::titan_v(), TEMPLATES.iter().map(|t| t.0).collect());
    cfg.rate_qps = rate as f64;
    cfg.queries = QUERIES_PER_RATE;
    cfg.seed = seed;
    cfg.arrival = ArrivalKind::Poisson;
    cfg.record_timeline = false;
    cfg.anatomy = false;
    cfg
}

/// The overload phase; `loss_at` arms `loss@2` (device loss at host
/// command 2) on that query.
fn overload_config(seed: u64, loss_at: Option<usize>) -> LoadConfig {
    let mut cfg = ladder_config(seed, 0);
    cfg.rate_qps = 8.0 * OVERLOAD_BASE_QPS;
    cfg.queries = OVERLOAD_QUERIES;
    cfg.arrival = ArrivalKind::Bursty;
    cfg.admission = AdmissionConfig::standard();
    cfg.fault = loss_at.map(|at| FaultSpec {
        profile_name: "loss@2".into(),
        profile: FaultProfile {
            device_loss_at: Some(2),
            ..FaultProfile::none()
        },
        at_query: Some(at),
    });
    cfg
}

/// The first query at or after a third of the overload stream that the
/// fault-free replay admits. Admission before the fault is identical with
/// and without it, so the loss lands on a query that really runs.
fn loss_query(seed: u64) -> usize {
    let clean = run(&overload_config(seed, None));
    clean
        .records
        .iter()
        .find(|r| r.id as usize >= OVERLOAD_QUERIES / 3 && !r.outcome.is_shed())
        .map_or(OVERLOAD_QUERIES / 3, |r| r.id as usize)
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(FNV_PRIME)
}

/// The digest `snp-load` takes of a γ result.
fn digest_gamma(g: &CountMatrix) -> u64 {
    let mut h = fnv(fnv(FNV_OFFSET, g.rows() as u64), g.cols() as u64);
    for r in 0..g.rows() {
        for &v in g.row(r) {
            h = fnv(h, v as u64);
        }
    }
    h
}

/// The digest `snp-load` takes of top-k match lists.
fn digest_matches(rows: &[Vec<Match>]) -> u64 {
    let mut h = fnv(FNV_OFFSET, rows.len() as u64);
    for row in rows {
        h = fnv(h, row.len() as u64);
        for m in row {
            h = fnv(fnv(h, m.profile as u64), m.differences as u64);
        }
    }
    h
}

/// Latency of a record for percentiles: failed and shed queries miss.
fn latency_or_miss(r: &snp_load::QueryRecord) -> u64 {
    if r.outcome.is_failure() || r.outcome.is_shed() {
        u64::MAX
    } else {
        r.latency_ns
    }
}

/// Nearest-rank percentile with misses counted as infinite; returns the
/// value and how many samples lie beyond it.
pub fn percentile_with_misses(report: &LoadReport, q: f64) -> (u64, usize) {
    let mut lat: Vec<u64> = report.records.iter().map(latency_or_miss).collect();
    lat.sort_unstable();
    let v = snp_load::percentile(&lat, q);
    (v, lat.iter().filter(|&&x| x > v).count())
}

/// Mean queue wait of the first and last quarter of the stream, and
/// whether the backlog grew: the last quarter waits more than twice the
/// first plus one mean service time.
pub fn backlog(report: &LoadReport) -> (f64, f64, bool) {
    let recs = &report.records;
    let q = (recs.len() / 4).max(1);
    let mean = |s: &[snp_load::QueryRecord]| {
        s.iter().map(|r| r.queue_wait_ns as f64).sum::<f64>() / s.len().max(1) as f64
    };
    let service = recs.iter().map(|r| r.service_ns as f64).sum::<f64>() / recs.len().max(1) as f64;
    let (first, last) = (mean(&recs[..q]), mean(&recs[recs.len() - q..]));
    (first, last, last > 2.0 * first + service)
}

impl ServeMixed {
    /// Word-ops of one query of `template` on the serving set.
    fn template_word_ops(&self, template: Template) -> f64 {
        let [ld, fastid, mixture] = self.probe.problems();
        let p = match template {
            Template::Ld => ld,
            Template::FastId | Template::FastIdTopK => fastid,
            Template::Mixture => mixture,
        };
        2.0 * p.word_ops()
    }

    fn oracle_digests(&self) -> [u64; 4] {
        let cpu = CpuEngine::new();
        let [ld, fastid, mixture] = self.probe.problems();
        let g_ld = cpu.gamma(ld.a, ld.b, ld.op);
        let g_id = cpu.gamma(fastid.a, fastid.b, fastid.op);
        let g_mix = cpu.gamma(mixture.a, mixture.b, CompareOp::AndNot);
        let lists: Vec<Vec<Match>> = (0..g_id.rows())
            .map(|q| topk_of_row(g_id.row(q), 0, SERVE_TOPK))
            .collect();
        [
            digest_gamma(&g_ld),
            digest_gamma(&g_id),
            digest_matches(&lists),
            digest_gamma(&g_mix),
        ]
    }

    /// [`ORACLE_CALLS`] timed oracle calls, added to `took`; returns how many
    /// gave digests other than the set-up's.
    fn time_oracle(&self, spans: &Spans, took: &mut Took) -> usize {
        let mut changed = 0;
        for _ in 0..ORACLE_CALLS {
            let (digests, t) = spans.took("cpu", "CpuEngine oracle (serving set)", || {
                self.oracle_digests()
            });
            changed += usize::from(digests != self.oracle);
            *took = took.plus(t);
        }
        changed
    }

    fn replay(&mut self, spans: &Spans, report: &mut Report) -> ServeSample {
        let mut replay_took = Took::default();
        let mut oracle_took = Took::default();
        let mut changed = 0;
        let mut ladder = Vec::with_capacity(LADDER.len());
        for &rate in &LADDER {
            let (r, took) = spans.took("load", "snp_load::run (ladder rate)", || {
                run(&ladder_config(self.seed, rate))
            });
            replay_took = replay_took.plus(took);
            ladder.push(r);
            changed += self.time_oracle(spans, &mut oracle_took);
        }
        let (overload, took) = spans.took("load", "snp_load::run (overload + loss)", || {
            run(&overload_config(self.seed, Some(self.loss_at)))
        });
        replay_took = replay_took.plus(took);
        changed += self.time_oracle(spans, &mut oracle_took);
        let oracle_calls = (LADDER.len() + 1) * ORACLE_CALLS;
        let mut queries = 0;
        let mut word_ops = 0.0;
        spans.time("check", "serve outputs", || {
            for r in ladder.iter().chain(std::iter::once(&overload)) {
                queries += r.records.len();
                let failed = r.records.iter().filter(|q| q.outcome.is_failure()).count();
                report.ops(r.records.len() as u64, failed as u64, || {
                    format!("serve_mixed: {failed} failed queries at {} q/s", r.rate_qps)
                });
                for q in &r.records {
                    let ran = !q.outcome.is_shed() && !q.outcome.is_failure() && q.tier != Tier::CpuOnly;
                    if ran {
                        word_ops += self.template_word_ops(q.template);
                    }
                }
            }
            let hit = overload.records.get(self.loss_at).map(|r| r.outcome.clone());
            report.op(matches!(hit, Some(Outcome::Degraded | Outcome::Recovered)), || {
                format!("serve_mixed: device loss at query {} ended {hit:?}, want a recovered or degraded completion", self.loss_at)
            });
            let corruptions = overload.admission.as_ref().map_or(0, |a| a.corruptions);
            report.op(corruptions == 0, || format!("serve_mixed: {corruptions} silent corruptions"));
            report.op(changed == 0, || {
                format!("serve_mixed: {changed} of {oracle_calls} CPU oracle calls gave other digests than at set-up")
            });
            self.check_served_digests(&self.oracle, report);
            if let Some(prev) = &self.last {
                let same = prev.ladder.iter().zip(&ladder).all(|(a, b)| a.to_json() == b.to_json())
                    && prev.overload.to_json() == overload.to_json();
                report.op(same, || "serve_mixed: replay of one seed is not reproducible".into());
            }
        });
        self.last = Some(Replay { ladder, overload });
        ServeSample {
            replay: replay_took,
            oracle: oracle_took,
            oracle_calls,
            queries,
            device_word_ops: word_ops,
        }
    }

    /// One `run_query` per template; each digest must equal the oracle's.
    fn check_served_digests(&self, oracle: &[u64; 4], report: &mut Report) {
        for (i, (template, slug)) in TEMPLATES.iter().enumerate() {
            let got = run_query(*template, &self.engine, &self.set).map(|s| s.digest);
            report.op(got.as_ref().ok() == Some(&oracle[i]), || {
                format!(
                    "serve_mixed: served {slug} digest {got:?} differs from the CPU oracle {:#x}",
                    oracle[i]
                )
            });
        }
    }

    fn replayed(&self) -> &Replay {
        self.last.as_ref().expect("every run replays at least once")
    }
}

impl Workload for ServeMixed {
    const NAME: &'static str = "serve_mixed";
    type Sample = ServeSample;

    fn setup(seed: u64, spans: &Spans, report: &mut Report) -> ServeMixed {
        let (probe, _) = spans.time("bench", "rebuild serving set", || ServingProbe::build(seed));
        let mut state = ServeMixed {
            seed,
            probe,
            oracle: [0; 4],
            set: WorkloadSet::build(seed),
            engine: GpuEngine::new(devices::titan_v()),
            loss_at: loss_query(seed),
            last: None,
        };
        state.oracle = state.oracle_digests();
        // The warm-up call: every template once, checked against the oracle.
        spans.time("check", "served digests", || {
            state.check_served_digests(&state.oracle, report)
        });
        state
    }

    fn rep(&mut self, spans: &Spans, report: &mut Report) -> ServeSample {
        self.replay(spans, report)
    }

    fn rep_wall(s: &ServeSample) -> f64 {
        s.replay.wall
    }

    fn end_to_end(&self, samples: &[ServeSample], report: &mut Report) {
        let oracle_ops: f64 = self.probe.problems().iter().map(|p| p.word_ops()).sum();
        let each =
            |f: &dyn Fn(&ServeSample) -> (f64, Took)| samples.iter().map(f).collect::<Vec<_>>();
        rates(
            report,
            "host_qps",
            ["q/ref_s", "q/s"],
            &each(&|s| (s.queries as f64, s.replay)),
            &format!(
                "{} queries replayed (ladder + overload)",
                samples[0].queries
            ),
        );
        let calls: usize = samples.iter().map(|s| s.oracle_calls).sum();
        let total = samples
            .iter()
            .fold(Took::default(), |t, s| t.plus(s.oracle));
        let note = format!(
            "CpuEngine oracle of the serving set: {calls} small calls, {ORACLE_CALLS} after each snp_load::run; total word-ops over total time"
        );
        let gop = oracle_ops * calls as f64 / 1e9;
        report.metric(
            "cpu_gwops",
            "Gop/ref_s",
            Clock::Ref,
            gop / report.ref_s(total.cpu),
            format!("{note}, reference seconds"),
        );
        report.metric(
            "cpu_gwops_wall",
            "Gop/s",
            Clock::Wall,
            gop / total.wall,
            format!("{note}, wall seconds"),
        );
        rates(
            report,
            "sim_host_gwops",
            ["Gop/ref_s", "Gop/s"],
            &each(&|s| (s.device_word_ops / 1e9, s.replay)),
            "device word-ops of completed engine queries over the replay",
        );
        let replay = self.replayed();
        let ladder_recs = replay
            .ladder
            .iter()
            .flat_map(|r| &r.records)
            .filter(|r| r.service_ns > 0);
        let (sum, cnt) = ladder_recs.fold((0u64, 0u64), |(s, c), r| (s + r.service_ns, c + 1));
        report.metric(
            "virt_ms",
            "virt_ms",
            Clock::Virtual,
            sum as f64 / cnt.max(1) as f64 / 1e6,
            format!("mean post-init service time of {cnt} ladder queries"),
        );
        for (i, &rate) in LADDER.iter().enumerate() {
            if rate != 2000 && rate != 8000 {
                continue;
            }
            let r = &replay.ladder[i];
            for (q, label) in [(50.0, "p50"), (99.0, "p99")] {
                let (v, beyond) = percentile_with_misses(r, q);
                report.metric(
                    format!("{label}_ms.r{rate}"),
                    "virt_ms",
                    Clock::Virtual,
                    v as f64 / 1e6,
                    format!(
                        "{} samples, {beyond} beyond; misses count as infinite",
                        r.records.len()
                    ),
                );
            }
        }
        let mut max_rate = 0u32;
        for (i, &rate) in LADDER.iter().enumerate() {
            let (p99, _) = percentile_with_misses(&replay.ladder[i], 99.0);
            let (_, _, growing) = backlog(&replay.ladder[i]);
            if p99 <= P99_LIMIT_NS && !growing {
                max_rate = rate;
            }
        }
        report.metric(
            "max_rate_qps",
            "virt_q/s",
            Clock::Virtual,
            max_rate as f64,
            "highest ladder rate with p99 <= 1 ms and no growing backlog",
        );
        let adm = replay.overload.admission.as_ref();
        report.metric(
            "goodput_qps",
            "virt_q/s",
            Clock::Virtual,
            adm.map_or(0.0, |a| a.goodput_qps),
            format!(
                "bursty {} q/s, admission on, loss@2 at query {}",
                8.0 * OVERLOAD_BASE_QPS,
                self.loss_at
            ),
        );
    }

    fn layers(&mut self, samples: &[ServeSample], spans: &Spans, report: &mut Report) {
        let calls: usize = samples.iter().map(|s| s.oracle_calls).sum();
        let oracle_s = samples.iter().map(|s| s.oracle.wall).sum::<f64>() / calls as f64;
        let problems = self.probe.problems();
        let oracle_ops: f64 = problems.iter().map(|p| p.word_ops()).sum();
        layers::pack(&problems, spans, report, "host_qps", Self::NAME);
        layers::cpu_roof(oracle_ops / oracle_s / 1e9, spans, report, Self::NAME);
        layers::cpu_parallel(&problems, spans, report, Self::NAME);
        layers::symmetric(&self.probe.panel, spans, report, "serving set panel");
        // The four templates called on the engine directly, one each.
        let engine = GpuEngine::new(devices::titan_v());
        let p = &self.probe;
        let mut call = EngineCall::default();
        let (ld, s1) = spans.time("core", "GpuEngine::ld_self", || engine.ld_self(&p.panel));
        let (id, s2) = spans.time("core", "GpuEngine::identity_search", || {
            engine.identity_search(&p.fastid_queries, &p.fastid_db)
        });
        let (tk, s3) = spans.time("core", "GpuEngine::identity_search_topk", || {
            engine.identity_search_topk(&p.fastid_queries, &p.fastid_db, SERVE_TOPK)
        });
        let (mx, s4) = spans.time("core", "GpuEngine::mixture_analysis", || {
            engine.mixture_analysis(&p.mixture_refs, &p.mixture_matrix)
        });
        let engine_s = s1 + s2 + s3 + s4;
        use snp_core::Algorithm::*;
        for (r, alg) in [
            (ld, LinkageDisequilibrium),
            (id, IdentitySearch),
            (mx, MixtureAnalysis),
        ] {
            match r {
                Ok(r) => call = call.plus(EngineCall::from_run(&r, engine.spec(), alg)),
                Err(e) => report.op(false, || {
                    format!("serve_mixed: probe engine call failed: {e}")
                }),
            }
        }
        match tk {
            Ok(r) => {
                let k = 2 * p.fastid_db.words_per_row();
                call = call.plus(EngineCall::from_topk(
                    &r,
                    engine.spec(),
                    p.fastid_queries.rows(),
                    p.fastid_db.rows(),
                    k,
                ));
            }
            Err(e) => report.op(false, || {
                format!("serve_mixed: probe top-k call failed: {e}")
            }),
        }
        let kernel_problems = [problems[0], problems[1], problems[1], problems[2]];
        layers::kernel_fn(&kernel_problems, engine_s, spans, report, Self::NAME);
        layers::topk(
            &p.fastid_queries,
            &p.fastid_db,
            &engine,
            None,
            spans,
            report,
            "serving set",
        );
        layers::virt(&call, report, Self::NAME);
        layers::run_query_probe(self.seed, spans, report);
        self.serving_layers(spans, report);
    }
}

impl ServeMixed {
    /// Metrics only the serving layers have: latency anatomy, queue waits
    /// and backlog per rate, admission outcomes, report rendering, flight
    /// recorder drops.
    fn serving_layers(&self, spans: &Spans, report: &mut Report) {
        let replay = self.replayed();
        for (i, &rate) in LADDER.iter().enumerate() {
            let r = &replay.ladder[i];
            let mut waits: Vec<u64> = r.records.iter().map(|q| q.queue_wait_ns).collect();
            waits.sort_unstable();
            report.metric(
                format!("load.queue_wait_p99_us.r{rate}"),
                "virt_us",
                Clock::Virtual,
                snp_load::percentile(&waits, 99.0) as f64 / 1e3,
                "moves p99_ms.*, max_rate_qps on serve_mixed",
            );
            let (first, last, growing) = backlog(r);
            report.metric(
                format!("load.backlog_growth.r{rate}"),
                "ratio",
                Clock::Virtual,
                (last + 1.0) / (first + 1.0),
                format!("last/first quarter mean queue wait (+1 ns); growing={growing}; moves max_rate_qps on serve_mixed"),
            );
        }
        let mut cfg = ladder_config(self.seed, 8000);
        cfg.anatomy = true;
        let (anat, _) = spans.time("load", "snp_load::run (anatomy on, 8000 q/s)", || run(&cfg));
        if let Some(a) = &anat.anatomy {
            for (band, label) in [(&a.bands[0], "p50"), (a.tail_band(), "p99")] {
                for (i, seg) in snp_load::Segment::ALL.iter().enumerate() {
                    report.metric(
                        format!("load.anatomy.{label}.{}_us", seg.label()),
                        "virt_us",
                        Clock::Virtual,
                        band.segment_ns[i] as f64 / band.queries.max(1) as f64 / 1e3,
                        format!("mean per query of the {} band ({} queries) at 8000 q/s; moves p99_ms.* on serve_mixed", band.label, band.queries),
                    );
                }
            }
        }
        let o = &replay.overload;
        let adm = o.admission.as_ref();
        let moves = "moves goodput_qps, fail_frac on serve_mixed";
        report.metric(
            "load.shed_frac",
            "ratio",
            Clock::Virtual,
            adm.map_or(0.0, |a| a.shed_fraction),
            moves,
        );
        report.metric(
            "load.tenant_goodput_ratio",
            "ratio",
            Clock::Virtual,
            adm.map_or(0.0, |a| a.tenant_goodput_ratio),
            moves,
        );
        report.metric(
            "load.brownout_transitions",
            "count",
            Clock::Virtual,
            adm.map_or(0, |a| a.transitions.len()) as f64,
            moves,
        );
        report.metric(
            "load.retries",
            "count",
            Clock::Virtual,
            o.records.iter().map(|q| q.retries).sum::<u64>() as f64,
            moves,
        );
        report.metric(
            "load.corruptions",
            "count",
            Clock::Virtual,
            adm.map_or(0, |a| a.corruptions) as f64,
            "must be 0",
        );
        let degraded = o
            .records
            .iter()
            .filter(|q| q.outcome == Outcome::Degraded)
            .count();
        report.metric(
            "load.degraded",
            "count",
            Clock::Virtual,
            degraded as f64,
            "queries completed degraded after the device loss",
        );
        let (_, render_s) = spans.time("load", "LoadReport::to_json + render_text", || {
            std::hint::black_box((o.to_json(), o.render_text()))
        });
        report.metric(
            "load.report_ms",
            "ms",
            Clock::Wall,
            render_s * 1e3,
            "overload report; moves host_qps on serve_mixed",
        );
        let mut cfg = ladder_config(self.seed, 8000);
        cfg.record_timeline = true;
        let (flight, _) = spans.time("load", "snp_load::run (timeline on, 8000 q/s)", || {
            run(&cfg)
        });
        report.metric(
            "trace.flight_dropped",
            "count",
            Clock::Count,
            flight.flight_dropped_spans as f64,
            format!(
                "spans evicted at the default flight capacity {}",
                cfg.flight_capacity
            ),
        );
    }
}
