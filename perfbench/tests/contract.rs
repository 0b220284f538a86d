//! The benchmark's own checks: a held-out seed runs clean, virtual metrics
//! repeat bit for bit, the traced run writes a valid Chrome trace, and the
//! metric lists agree with `BENCHMARK.json`.

use std::path::PathBuf;

use perfbench::report::{Clock, Report};
use perfbench::{Options, END_TO_END, PER_LAYER, WORKLOADS};
use snp_trace::json::{parse, Value};

/// A seed no workload was tuned on (documented in NOTES.md).
const HELD_OUT_SEED: u64 = 20_261_017;

fn opts(workload: &str, trace: bool) -> Options {
    Options {
        workload: workload.into(),
        seed: HELD_OUT_SEED,
        seconds: 0.05,
        trace,
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-test"),
    }
}

fn virtual_bits(r: &Report) -> Vec<(String, u64)> {
    r.metrics
        .iter()
        .filter(|m| m.clock == Clock::Virtual)
        .map(|m| (m.name.clone(), m.value.to_bits()))
        .collect()
}

fn clean_and_repeatable(workload: &str) {
    let a = perfbench::run_named(workload, &opts(workload, false)).expect("known workload");
    let b = perfbench::run_named(workload, &opts(workload, false)).expect("known workload");
    for r in [&a, &b] {
        assert!(r.correct(), "{workload} failed: {:?}", r.failures);
        for (name, _) in END_TO_END {
            let m = r
                .get(name)
                .unwrap_or_else(|| panic!("{workload} lacks {name}"));
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{workload} {name} = {}",
                m.value
            );
        }
    }
    let (va, vb) = (virtual_bits(&a), virtual_bits(&b));
    assert!(!va.is_empty(), "{workload} reports no virtual metric");
    assert_eq!(
        va, vb,
        "{workload}: virtual metrics differ between two runs of one seed"
    );
}

#[test]
fn ld_batch_held_out_seed_is_clean_and_virtual_metrics_repeat() {
    clean_and_repeatable("ld_batch");
}

#[test]
fn fastid_stream_held_out_seed_is_clean_and_virtual_metrics_repeat() {
    clean_and_repeatable("fastid_stream");
}

#[test]
fn serve_mixed_held_out_seed_is_clean_and_virtual_metrics_repeat() {
    clean_and_repeatable("serve_mixed");
}

#[test]
fn traced_run_reports_every_layer_metric_and_a_valid_trace() {
    let o = opts("serve_mixed", true);
    let r = perfbench::run_named("serve_mixed", &o).expect("known workload");
    assert!(r.correct(), "traced serve_mixed failed: {:?}", r.failures);
    for (name, _) in PER_LAYER {
        assert!(r.get(name).is_some(), "traced run lacks {name}");
    }
    let path = o
        .out_dir
        .join(format!("serve_mixed-seed{HELD_OUT_SEED}-trace.json"));
    let text = std::fs::read_to_string(&path).expect("trace written");
    let stats = snp_trace::chrome::validate(&text).expect("valid Chrome trace");
    assert!(stats.slices > 0);
}

fn valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn every_metric_name_is_well_formed() {
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        assert!(valid_name(name), "bad metric name {name:?}");
        assert!(
            !unit.is_empty() && unit.len() <= 16,
            "bad unit {unit:?} of {name}"
        );
    }
    for w in WORKLOADS {
        assert!(valid_name(w), "bad workload name {w:?}");
    }
}

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    parse(&std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/"))
        .expect("BENCHMARK.json parses")
}

fn entries<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    v.as_obj()
        .and_then(|o| o.get(key))
        .and_then(Value::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
}

fn field<'a>(e: &'a Value, key: &str) -> Option<&'a Value> {
    e.as_obj().and_then(|o| o.get(key))
}

#[test]
fn benchmark_json_matches_the_metric_lists() {
    let v = benchmark_json();
    let e2e = entries(&v, "end_to_end");
    assert_eq!(e2e.len(), END_TO_END.len());
    for (e, (name, unit)) in e2e.iter().zip(END_TO_END) {
        assert_eq!(field(e, "name").and_then(Value::as_str), Some(name));
        assert_eq!(
            field(e, "unit").and_then(Value::as_str),
            Some(unit),
            "{name}"
        );
        let bound = field(e, "bound").and_then(Value::as_num).expect("bound");
        assert!(bound > 0.0 && bound <= 0.25, "{name} bound {bound}");
        let better = field(e, "better").and_then(Value::as_str);
        assert!(matches!(better, Some("lower" | "higher")), "{name}");
    }
    let setup = e2e
        .iter()
        .find(|e| field(e, "name").and_then(Value::as_str) == Some("setup_s"));
    let setup_bound = setup
        .and_then(|e| field(e, "bound"))
        .and_then(Value::as_num)
        .expect("setup_s");
    for e in e2e {
        let b = field(e, "bound").and_then(Value::as_num).expect("bound");
        assert!(b <= setup_bound, "setup_s must carry the largest bound");
    }
    let layers = entries(&v, "per_layer");
    assert_eq!(layers.len(), PER_LAYER.len());
    for (e, (name, unit)) in layers.iter().zip(PER_LAYER) {
        assert_eq!(field(e, "name").and_then(Value::as_str), Some(name));
        assert_eq!(
            field(e, "unit").and_then(Value::as_str),
            Some(unit),
            "{name}"
        );
    }
    let workloads: Vec<&str> = entries(&v, "workloads")
        .iter()
        .filter_map(|w| field(w, "name").and_then(Value::as_str))
        .collect();
    assert_eq!(workloads, WORKLOADS);
}
