//! Metrics, operation accounting and the printed result.

use std::fmt::Write as _;

use crate::host::json_str;
use crate::spans::Took;

/// Which clock a number belongs to. Every printed metric states it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Real host time: noisy, compared only on the same host fingerprint.
    Wall,
    /// Process CPU time of every thread. It leaves out time the hypervisor
    /// runs other guests and time threads wait idle, so it holds steadier
    /// than wall time on a shared host. Compared only on the same host
    /// fingerprint.
    Cpu,
    /// Process CPU time scaled to the reference speed of
    /// [`crate::host::RefLoop`]: the gated throughputs and `setup_s`.
    /// Compared only on the same host fingerprint.
    Ref,
    /// Modeled GPU nanoseconds: deterministic for a seed, compared exactly.
    /// Not validated against silicon, so it carries no error figure.
    Virtual,
    /// A count or ratio of counts made by the program.
    Count,
}

impl Clock {
    /// Lowercase label.
    pub fn label(self) -> &'static str {
        match self {
            Clock::Wall => "wall",
            Clock::Cpu => "cpu",
            Clock::Ref => "ref",
            Clock::Virtual => "virtual",
            Clock::Count => "count",
        }
    }
}

/// One measured number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, `[A-Za-z0-9_.-]+`.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Clock.
    pub clock: Clock,
    /// Value as measured.
    pub value: f64,
    /// Sample count, end-to-end metric it moves, or how it was taken.
    pub note: String,
}

/// Everything one run of a workload produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Metrics in the order they were taken.
    pub metrics: Vec<Metric>,
    /// Operations attempted: engine calls, replayed queries, output checks.
    pub attempted: u64,
    /// Operations that failed: engine errors, typed faults, corruptions,
    /// wrong outputs. Sheds are not failures.
    pub failed: u64,
    /// Why each failure happened (first few kept).
    pub failures: Vec<String>,
    /// Extra text sections (layer map, self-time table).
    pub sections: Vec<String>,
    /// Reference seconds per process CPU second in this run:
    /// [`crate::host::REF_LOOP_S`] over the median time of the reference
    /// loop. Set before the end-to-end metrics are taken.
    pub ref_per_cpu_s: f64,
}

impl Report {
    /// Process CPU seconds `cpu_s` in reference seconds.
    pub fn ref_s(&self, cpu_s: f64) -> f64 {
        assert!(
            self.ref_per_cpu_s > 0.0,
            "the reference loop is timed before any reference-clock metric"
        );
        cpu_s * self.ref_per_cpu_s
    }

    /// Records a metric.
    pub fn metric(
        &mut self,
        name: impl Into<String>,
        unit: &'static str,
        clock: Clock,
        value: f64,
        note: impl Into<String>,
    ) {
        self.metrics.push(Metric {
            name: name.into(),
            unit,
            clock,
            value,
            note: note.into(),
        });
    }

    /// Counts one attempted operation, failed unless `ok`.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 16 {
                self.failures.push(what());
            }
        }
    }

    /// Counts `n` attempted operations of which `failed` failed.
    pub fn ops(&mut self, n: u64, failed: u64, what: impl FnOnce() -> String) {
        self.attempted += n;
        if failed > 0 {
            self.failed += failed;
            if self.failures.len() < 16 {
                self.failures.push(what());
            }
        }
    }

    /// The metric called `name`.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Whether every operation succeeded.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Failed over attempted operations.
    pub fn fail_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Human-readable table of every metric.
    pub fn render(&self, title: &str) -> String {
        let mut out = format!("== {title}\n");
        for m in &self.metrics {
            let _ = writeln!(
                out,
                "  {:<34} {:>16} {:<8} [{}] {}",
                m.name,
                fmt_value(m.value),
                m.unit,
                m.clock.label(),
                m.note
            );
        }
        for s in &self.sections {
            out.push_str(s);
        }
        let _ = writeln!(
            out,
            "  operations: {} attempted, {} failed (fail_frac {})",
            self.attempted,
            self.failed,
            fmt_value(self.fail_frac())
        );
        for f in &self.failures {
            let _ = writeln!(out, "  FAILED: {f}");
        }
        out
    }

    /// The result line: `correct`, `attempted`, `failed`, and the metrics
    /// named in `names` (each must have been recorded).
    pub fn result_line(&self, names: &[&str]) -> Result<String, String> {
        let mut out = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, name) in names.iter().enumerate() {
            let m = self
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !m.value.is_finite() {
                return Err(format!("metric {name} is not finite: {}", m.value));
            }
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(name),
                m.value,
                json_str(m.unit)
            );
        }
        out.push_str("}}");
        Ok(out)
    }

    /// Every metric with its clock and note, as a JSON array.
    pub fn metrics_json(&self) -> String {
        let items: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{{\"name\":{},\"value\":{},\"unit\":{},\"clock\":\"{}\",\"note\":{}}}",
                    json_str(&m.name),
                    if m.value.is_finite() { m.value } else { -1.0 },
                    json_str(m.unit),
                    m.clock.label(),
                    json_str(&m.note)
                )
            })
            .collect();
        format!("[{}]", items.join(","))
    }
}

fn fmt_value(v: f64) -> String {
    if v != 0.0 && (v.abs() >= 1e7 || v.abs() < 1e-3) {
        format!("{v:.4e}")
    } else {
        format!("{v:.4}")
    }
}

/// Records work per second on two clocks, each the median over `samples`
/// of `(work, time)`: `name` per reference second and `<name>_wall` per
/// wall second.
pub fn rates(
    report: &mut Report,
    name: &str,
    units: [&'static str; 2],
    samples: &[(f64, Took)],
    note: &str,
) {
    let per = |t: &dyn Fn(&Took) -> f64| -> f64 {
        median(
            &samples
                .iter()
                .map(|(w, took)| w / t(took))
                .collect::<Vec<_>>(),
        )
    };
    let (on_ref, on_wall) = (per(&|t| report.ref_s(t.cpu)), per(&|t| t.wall));
    let n = samples.len();
    report.metric(
        name,
        units[0],
        Clock::Ref,
        on_ref,
        format!("{note}; per reference second, median of {n}"),
    );
    report.metric(
        format!("{name}_wall"),
        units[1],
        Clock::Wall,
        on_wall,
        format!("{note}; per wall second, median of {n}"),
    );
}

/// Median of `v` (0 for an empty slice).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile `q ∈ [0, 1]` of `v` (0 for an empty slice).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}
