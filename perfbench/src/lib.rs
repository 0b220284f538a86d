//! Two-clock benchmark of the SNP comparison framework.
//!
//! Three seeded workloads replay through the public functions of
//! `snp-popgen`, `snp-bitmat`, `snp-cpu`, `snp-core`, `snp-gpu-sim` and
//! `snp-load`; every output is checked. An untraced run reports the
//! end-to-end metrics; a traced run times each layer from outside with
//! wall-clock spans and reports the per-layer metrics. Every number states
//! its clock. **Wall** numbers are host time. **CPU** numbers are process
//! CPU time, which leaves out time a shared host's hypervisor steals, so
//! the gated throughputs use it. Both are compared only between runs with
//! the same host fingerprint. **Virtual** numbers are modeled GPU
//! nanoseconds, deterministic for a seed and compared exactly.
//!
//! See `NOTES.md` beside this crate for the layer → metric → workload map.

pub mod fastid;
pub mod host;
pub mod layers;
pub mod ld;
pub mod report;
pub mod serve;
pub mod spans;

use std::path::{Path, PathBuf};
use std::time::Instant;

use snp_gpu_sim::macro_engine::timing_cache_stats;

use crate::host::{CpuTimes, Fingerprint, RefLoop, REF_LOOP_S};
use crate::report::{median, Clock, Report};
use crate::spans::Spans;

/// End-to-end metrics of the result line (`--trace 0`), every workload.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("host_qps", "q/ref_s"),
    ("cpu_gwops", "Gop/ref_s"),
    ("sim_host_gwops", "Gop/ref_s"),
    ("virt_ms", "virt_ms"),
];

/// Per-layer metrics of the result line (`--trace 1`), every workload.
pub const PER_LAYER: [(&str, &str); 34] = [
    ("bitmat.pack_ms", "ms"),
    ("cpu.microkernel_gwops", "Gop/s"),
    ("cpu.roof_frac", "ratio"),
    ("cpu.seq_ms", "ms"),
    ("cpu.parallel_eff", "ratio"),
    ("cpu.sym_speedup", "ratio"),
    ("cpu.tasks", "count"),
    ("cpu.a_packs", "count"),
    ("core.kernel_fn_ms", "ms"),
    ("core.orchestration_ms", "ms"),
    ("core.topk_select_ms", "ms"),
    ("core.topk_over_full", "ratio"),
    ("virt.init_ms", "virt_ms"),
    ("virt.pack_ms", "virt_ms"),
    ("virt.h2d_ms", "virt_ms"),
    ("virt.kernel_ms", "virt_ms"),
    ("virt.d2h_ms", "virt_ms"),
    ("virt.passes", "count"),
    ("virt.overlap", "ratio"),
    ("virt.kernel_roof_frac", "ratio"),
    ("virt.readback_mb", "MB"),
    ("virt.full_readback_mb", "MB"),
    ("gpu-sim.cache_hits", "count"),
    ("gpu-sim.cache_misses", "count"),
    ("gpu-sim.cache_hit_frac", "ratio"),
    ("load.run_query_us.ld", "us"),
    ("load.run_query_us.fastid", "us"),
    ("load.run_query_us.fastid_topk", "us"),
    ("load.run_query_us.mixture", "us"),
    ("rayon.region_us", "us"),
    ("host.sys_frac", "ratio"),
    ("host.cpu_util", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("rep_ms", "ms"),
];

/// Workload names, in the order `all` runs them.
pub const WORKLOADS: [&str; 3] = ["ld_batch", "fastid_stream", "serve_mixed"];

/// Set-ups per untraced run, at least; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;
/// Set-ups go on until they have taken this many wall seconds, so that a
/// set-up of a tenth of a second is timed often enough for a steady median.
pub const SETUP_SECONDS: f64 = 2.0;

/// Command-line options.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload name, or `all`.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Seconds the measured loop runs.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of end-to-end.
    pub trace: bool,
    /// Where result files and traces go.
    pub out_dir: PathBuf,
}

/// A benchmark workload: set-up, one checked repetition, and the metrics.
pub trait Workload: Sized {
    /// Workload name.
    const NAME: &'static str;
    /// What one repetition measured.
    type Sample: Copy;
    /// Generates inputs from `seed`, builds engines and makes one checked
    /// warm-up call.
    fn setup(seed: u64, spans: &Spans, report: &mut Report) -> Self;
    /// One repetition, outputs checked into `report`.
    fn rep(&mut self, spans: &Spans, report: &mut Report) -> Self::Sample;
    /// Host seconds of one repetition's timed calls.
    fn rep_wall(s: &Self::Sample) -> f64;
    /// End-to-end metrics from the untraced repetitions.
    fn end_to_end(&self, samples: &[Self::Sample], report: &mut Report);
    /// Per-layer probes (traced run).
    fn layers(&mut self, samples: &[Self::Sample], spans: &Spans, report: &mut Report);
}

/// SplitMix64 of `x`.
pub fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded step in `-4..=4`. The seed moves each workload's shape by a
/// few steps around its nominal size, so virtual times, which depend only
/// on shape, are a function of the seed like every other input.
pub fn shape_jitter(seed: u64, salt: u64) -> i64 {
    (splitmix(seed ^ salt.wrapping_mul(0xA076_1D64_78BD_642F)) % 9) as i64 - 4
}

struct Measured<S> {
    samples: Vec<S>,
    wall_s: f64,
    cpu: CpuTimes,
}

/// Repeats `state.rep` for `seconds`, timing `ref_loop` once before each
/// repetition into `ref_times`.
fn measure<W: Workload>(
    state: &mut W,
    spans: &Spans,
    seconds: f64,
    ref_loop: &RefLoop,
    ref_times: &mut Vec<f64>,
    report: &mut Report,
) -> Measured<W::Sample> {
    let cpu0 = CpuTimes::now();
    let t0 = Instant::now();
    let mut samples = Vec::new();
    while samples.is_empty() || t0.elapsed().as_secs_f64() < seconds {
        ref_times.push(ref_loop.time());
        let rep = spans.for_rep(W::NAME, samples.len() as u64);
        let (s, _) = rep.time("bench", "repetition", || state.rep(&rep, report));
        samples.push(s);
    }
    let walls: Vec<String> = samples
        .iter()
        .map(|s| format!("{:.1}", W::rep_wall(s) * 1e3))
        .collect();
    report.sections.push(format!(
        "  repetition wall ms{}: {}\n",
        if spans.enabled() { " (traced)" } else { "" },
        walls.join(" ")
    ));
    Measured {
        samples,
        wall_s: t0.elapsed().as_secs_f64(),
        cpu: CpuTimes::now().since(cpu0),
    }
}

/// Sets the run's reference clock from the reference loop's times.
fn set_ref_clock(report: &mut Report, ref_times: &[f64]) {
    let ref_loop_s = median(ref_times);
    report.ref_per_cpu_s = REF_LOOP_S / ref_loop_s;
    report.metric(
        "ref_loop_ms",
        "ms",
        Clock::Cpu,
        ref_loop_s * 1e3,
        format!(
            "reference loop, median of {}; reference seconds = process CPU seconds x {} ms / this",
            ref_times.len(),
            REF_LOOP_S * 1e3
        ),
    );
}

/// Runs one workload and returns its report.
pub fn run_workload<W: Workload>(opts: &Options) -> Report {
    let mut report = Report::default();
    let quiet = Spans::new(false);
    let cache0 = timing_cache_stats();
    let ref_loop = RefLoop::new();
    let mut ref_times = Vec::new();
    if !opts.trace {
        let mut setups = Vec::new();
        let mut state = None;
        let t0 = Instant::now();
        while setups.len() < SETUP_REPEATS || t0.elapsed().as_secs_f64() < SETUP_SECONDS {
            drop(state.take()); // free the previous set-up before building the next
            ref_times.push(ref_loop.time());
            let (s, took) = quiet.took("bench", "set-up", || {
                W::setup(opts.seed, &quiet, &mut report)
            });
            state = Some(s);
            setups.push(took);
        }
        let mut state = state.expect("at least one set-up");
        let m = measure(
            &mut state,
            &quiet,
            opts.seconds,
            &ref_loop,
            &mut ref_times,
            &mut report,
        );
        set_ref_clock(&mut report, &ref_times);
        let note = format!(
            "generation, engine build and one checked warm-up call; median of {}",
            setups.len()
        );
        let setup_s = report.ref_s(median(&setups.iter().map(|t| t.cpu).collect::<Vec<_>>()));
        report.metric(
            "setup_s",
            "s",
            Clock::Ref,
            setup_s,
            format!("{note}; reference seconds"),
        );
        report.metric(
            "setup_s_wall",
            "s",
            Clock::Wall,
            median(&setups.iter().map(|t| t.wall).collect::<Vec<_>>()),
            format!("{note}; wall seconds"),
        );
        state.end_to_end(&m.samples, &mut report);
        report.metric(
            "peak_rss_mb",
            "MiB",
            Clock::Wall,
            host::peak_rss_mib(),
            "VmHWM of the process",
        );
        report.metric(
            "fail_frac",
            "ratio",
            Clock::Count,
            report.fail_frac(),
            "failed / attempted operations (sheds excluded)",
        );
        report.metric(
            "reps",
            "count",
            Clock::Count,
            m.samples.len() as f64,
            format!("repetitions in {:.2} s", m.wall_s),
        );
        return report;
    }

    let traced = Spans::new(true);
    let mut state = W::setup(opts.seed, &quiet, &mut report);
    let plain = measure(
        &mut state,
        &quiet,
        opts.seconds / 2.0,
        &ref_loop,
        &mut ref_times,
        &mut report,
    );
    let cache = timing_cache_stats();
    let with_spans = measure(
        &mut state,
        &traced,
        opts.seconds / 2.0,
        &ref_loop,
        &mut ref_times,
        &mut report,
    );
    set_ref_clock(&mut report, &ref_times);
    let rep_plain = median(&plain.samples.iter().map(W::rep_wall).collect::<Vec<_>>());
    let rep_traced = median(
        &with_spans
            .samples
            .iter()
            .map(W::rep_wall)
            .collect::<Vec<_>>(),
    );
    state.layers(&plain.samples, &traced, &mut report);
    layers::rayon_region(&traced, &mut report);
    let (hits, misses) = (cache.hits - cache0.hits, cache.misses - cache0.misses);
    let lookups = (hits + misses).max(1) as f64;
    let note = "timing_cache_stats() delta over set-up and the untraced repetitions; moves host_qps on serve_mixed";
    report.metric(
        "gpu-sim.cache_hits",
        "count",
        Clock::Count,
        hits as f64,
        note,
    );
    report.metric(
        "gpu-sim.cache_misses",
        "count",
        Clock::Count,
        misses as f64,
        note,
    );
    report.metric(
        "gpu-sim.cache_hit_frac",
        "ratio",
        Clock::Count,
        hits as f64 / lookups,
        note,
    );
    report.metric(
        "host.sys_frac",
        "ratio",
        Clock::Wall,
        plain.cpu.sys_frac(),
        "stime / (utime + stime) over the untraced repetitions; moves host_qps on serve_mixed, cpu_gwops on ld_batch",
    );
    report.metric(
        "host.cpu_util",
        "ratio",
        Clock::Wall,
        plain.cpu.util(plain.wall_s),
        format!(
            "(utime + stime) / (wall x {} cores) over the untraced repetitions",
            host::nproc()
        ),
    );
    report.metric(
        "trace.overhead_frac",
        "ratio",
        Clock::Wall,
        rep_traced / rep_plain - 1.0,
        format!(
            "median traced / untraced repetition wall - 1 ({} vs {} repetitions)",
            with_spans.samples.len(),
            plain.samples.len()
        ),
    );
    report.metric(
        "rep_ms",
        "ms",
        Clock::Wall,
        rep_plain * 1e3,
        "median untraced repetition wall",
    );
    let trace = traced.snapshot().expect("traced run records");
    let json = snp_trace::chrome::export_chrome_trace(&trace);
    report.op(snp_trace::chrome::validate(&json).is_ok(), || {
        "traced run: Chrome trace failed validation".into()
    });
    let path = opts
        .out_dir
        .join(format!("{}-seed{}-trace.json", W::NAME, opts.seed));
    match std::fs::create_dir_all(&opts.out_dir).and_then(|_| std::fs::write(&path, &json)) {
        Ok(()) => report
            .sections
            .push(format!("  chrome trace: {}\n", path.display())),
        Err(e) => report.op(false, || format!("cannot write {}: {e}", path.display())),
    }
    report.sections.push(spans::self_time_table(&trace));
    report
}

/// Runs the workload `name`.
pub fn run_named(name: &str, opts: &Options) -> Option<Report> {
    Some(match name {
        "ld_batch" => run_workload::<ld::LdBatch>(opts),
        "fastid_stream" => run_workload::<fastid::FastidStream>(opts),
        "serve_mixed" => run_workload::<serve::ServeMixed>(opts),
        _ => return None,
    })
}

/// The result file of one run: fingerprint, every metric with its clock,
/// and the failures.
pub fn results_json(name: &str, opts: &Options, fp: &Fingerprint, report: &Report) -> String {
    let failures: Vec<String> = report.failures.iter().map(|f| host::json_str(f)).collect();
    format!(
        "{{\"workload\":{},\"trace\":{},\"seconds\":{},\"fingerprint\":{{{}}},\"correct\":{},\"attempted\":{},\"failed\":{},\"failures\":[{}],\"metrics\":{}}}\n",
        host::json_str(name),
        opts.trace,
        opts.seconds,
        fp.json_members(opts.seed),
        report.correct(),
        report.attempted,
        report.failed,
        failures.join(","),
        report.metrics_json()
    )
}

/// Where results go by default: inside the build directory.
pub fn default_out_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into());
    Path::new(&target).join("perfbench-out")
}
