//! Wall-clock spans recorded from outside each layer: the benchmark wraps
//! its calls into a crate's public functions, one track per layer, on a
//! [`snp_trace::Tracer`] in [`TimeDomain::Wall`].

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use snp_trace::{QueryCtx, TimeDomain, Trace, Tracer, TrackId};

use crate::host::process_cpu_s;

/// The layers spans are recorded for, one track each. `bench` holds one
/// span per workload repetition; `check` holds output verification.
pub const LAYERS: [&str; 9] = [
    "bench", "bitmat", "cpu", "core", "gpu-sim", "load", "rayon", "trace", "check",
];

/// Seconds one call took on two clocks.
#[derive(Debug, Clone, Copy, Default)]
pub struct Took {
    /// Wall time.
    pub wall: f64,
    /// Process CPU time, all threads.
    pub cpu: f64,
}

impl Took {
    /// Both clocks summed.
    pub fn plus(self, o: Took) -> Took {
        Took {
            wall: self.wall + o.wall,
            cpu: self.cpu + o.cpu,
        }
    }
}

/// A span recorder; inert (timing only) when tracing is off.
#[derive(Debug, Clone)]
pub struct Spans {
    tracer: Tracer,
    tracks: Vec<TrackId>,
}

impl Spans {
    /// A recorder; `enabled` turns span recording on.
    pub fn new(enabled: bool) -> Spans {
        let tracer = if enabled {
            Tracer::enabled()
        } else {
            Tracer::disabled()
        };
        let tracks = LAYERS
            .iter()
            .map(|l| tracer.track(*l, TimeDomain::Wall))
            .collect();
        Spans { tracer, tracks }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.tracer.is_enabled()
    }

    /// A recorder whose spans carry `rep` as their id, so every span of one
    /// workload repetition shares it.
    pub fn for_rep(&self, workload: &'static str, rep: u64) -> Spans {
        Spans {
            tracer: self.tracer.with_query_ctx(QueryCtx::new(rep, workload)),
            tracks: self.tracks.clone(),
        }
    }

    /// Runs `f`, records it as span `name` on `layer`'s track, and returns
    /// its result with its wall time in seconds.
    pub fn time<T>(
        &self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let (out, took) = self.took(layer, name, f);
        (out, took.wall)
    }

    /// [`time`](Self::time) that also returns the process CPU time `f` took.
    pub fn took<T>(
        &self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, Took) {
        let start_ns = self.tracer.wall_now_ns();
        let cpu0 = process_cpu_s();
        let t0 = Instant::now();
        let out = f();
        let took = Took {
            wall: t0.elapsed().as_secs_f64(),
            cpu: process_cpu_s() - cpu0,
        };
        if self.tracer.is_enabled() {
            let idx = LAYERS
                .iter()
                .position(|l| *l == layer)
                .expect("span layer is one of LAYERS");
            self.tracer.span(
                self.tracks[idx],
                layer,
                name,
                start_ns,
                self.tracer.wall_now_ns(),
            );
        }
        (out, took)
    }

    /// Everything recorded so far (`None` when off).
    pub fn snapshot(&self) -> Option<Trace> {
        self.tracer.snapshot()
    }
}

/// Per `(layer, span name)`: count, total and self time. A span's self time
/// is its duration minus the part covered by the spans nested directly in
/// it, on any track (the benchmark calls layers one at a time, so nesting is
/// time containment).
pub fn self_time_table(trace: &Trace) -> String {
    let mut evs: Vec<_> = trace.events.iter().collect();
    evs.sort_by(|a, b| a.start_ns.cmp(&b.start_ns).then(b.end_ns.cmp(&a.end_ns)));
    let mut child_ns = vec![0u64; evs.len()];
    let mut stack: Vec<usize> = Vec::new();
    for (i, e) in evs.iter().enumerate() {
        while let Some(&top) = stack.last() {
            if evs[top].end_ns >= e.end_ns && evs[top].start_ns <= e.start_ns {
                break;
            }
            stack.pop();
        }
        if let Some(&parent) = stack.last() {
            child_ns[parent] += e.duration_ns();
        }
        stack.push(i);
    }
    let mut agg: BTreeMap<(&str, &str), (u64, u64, u64)> = BTreeMap::new();
    for (i, e) in evs.iter().enumerate() {
        let slot = agg.entry((e.cat, e.name.as_ref())).or_default();
        slot.0 += 1;
        slot.1 += e.duration_ns();
        slot.2 += e.duration_ns().saturating_sub(child_ns[i]);
    }
    let mut rows: Vec<_> = agg.into_iter().collect();
    rows.sort_by_key(|r| std::cmp::Reverse(r.1 .2));
    let mut out = String::from("  self time by span (wall):\n");
    let _ = writeln!(
        out,
        "    {:<8} {:<40} {:>6} {:>12} {:>12}",
        "layer", "span", "count", "total_ms", "self_ms"
    );
    for ((layer, name), (count, total, selft)) in rows {
        let _ = writeln!(
            out,
            "    {:<8} {:<40} {:>6} {:>12.3} {:>12.3}",
            layer,
            name,
            count,
            total as f64 / 1e6,
            selft as f64 / 1e6
        );
    }
    out
}
