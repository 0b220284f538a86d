//! `perfbench --workload <ld_batch|fastid_stream|serve_mixed|all> --seed N
//! --seconds S --trace <0|1> [--out DIR]`
//!
//! Prints every metric by name, unit and clock, writes a result file with
//! the host fingerprint, and ends with one JSON result line. Exits 1 when
//! any output check failed, 2 on bad arguments.
//!
//! `perfbench compare A.json B.json` compares two result files: virtual
//! metrics exactly, wall and CPU-time metrics only when the host
//! fingerprints match.

use std::process::ExitCode;

use perfbench::host::Fingerprint;
use perfbench::report::Report;
use perfbench::{Options, END_TO_END, PER_LAYER, WORKLOADS};

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        out_dir: perfbench::default_out_dir(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => opts.workload = value()?.clone(),
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(opts.seconds > 0.0 && opts.seconds <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace must be 0 or 1, got {v}")),
                }
            }
            "--out" => opts.out_dir = value()?.into(),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if opts.workload != "all" && !WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    Ok(opts)
}

fn main() -> ExitCode {
    perfbench::host::single_malloc_arena();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return compare(&args[1..]);
    }
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let fp = Fingerprint::probe();
    println!("{}", fp.render(opts.seed));
    let names: Vec<&str> = if opts.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![opts.workload.as_str()]
    };
    let wanted: Vec<&str> = if opts.trace {
        PER_LAYER.iter().map(|m| m.0).collect()
    } else {
        END_TO_END.iter().map(|m| m.0).collect()
    };
    let mut total = Report::default();
    let mut keys = Vec::new();
    for name in &names {
        let report = perfbench::run_named(name, &opts).expect("workload name checked");
        let clock = if opts.trace { "traced" } else { "untraced" };
        print!(
            "{}",
            report.render(&format!("{name} (seed {}, {clock})", opts.seed))
        );
        let file = opts.out_dir.join(format!(
            "{name}-seed{}-trace{}.result.json",
            opts.seed, opts.trace as u8
        ));
        let body = perfbench::results_json(name, &opts, &fp, &report);
        match std::fs::create_dir_all(&opts.out_dir).and_then(|_| std::fs::write(&file, body)) {
            Ok(()) => println!("  result file: {}", file.display()),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", file.display()),
        }
        total.attempted += report.attempted;
        total.failed += report.failed;
        // With several workloads in one process, metric names carry the
        // workload as a prefix.
        let prefix = if names.len() > 1 {
            format!("{name}.")
        } else {
            String::new()
        };
        for want in &wanted {
            keys.push(format!("{prefix}{want}"));
            if let Some(m) = report.get(want) {
                let mut m = m.clone();
                m.name = format!("{prefix}{want}");
                total.metrics.push(m);
            }
        }
    }
    let keys: Vec<&str> = keys.iter().map(String::as_str).collect();
    match total.result_line(&keys) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    }
    if total.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Compares two result files.
fn compare(paths: &[String]) -> ExitCode {
    use snp_trace::json::{parse, Value};
    let [a, b] = paths else {
        eprintln!("usage: perfbench compare A.json B.json");
        return ExitCode::from(2);
    };
    let load = |p: &str| -> Result<Value, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        parse(&text).map_err(|e| format!("{p}: {e:?}"))
    };
    let (va, vb) = match (load(a), load(b)) {
        (Ok(x), Ok(y)) => (x, y),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("perfbench compare: {e}");
            return ExitCode::from(2);
        }
    };
    let field = |v: &Value, path: &[&str]| -> Option<String> {
        let mut cur = v;
        for k in path {
            cur = cur.as_obj()?.get(*k)?;
        }
        cur.as_str()
            .map(str::to_string)
            .or_else(|| cur.as_num().map(|n| n.to_string()))
    };
    let same_host =
        field(&va, &["fingerprint", "host_id"]) == field(&vb, &["fingerprint", "host_id"]);
    let same_input = field(&va, &["workload"]) == field(&vb, &["workload"])
        && field(&va, &["fingerprint", "seed"]) == field(&vb, &["fingerprint", "seed"]);
    let metrics = |v: &Value| -> Vec<(String, String, f64)> {
        v.as_obj()
            .and_then(|o| o.get("metrics"))
            .and_then(Value::as_arr)
            .unwrap_or(&[])
            .iter()
            .filter_map(|m| {
                let o = m.as_obj()?;
                Some((
                    o.get("name")?.as_str()?.to_string(),
                    o.get("clock")?.as_str()?.to_string(),
                    o.get("value")?.as_num()?,
                ))
            })
            .collect()
    };
    let mb = metrics(&vb);
    let mut drift = 0;
    println!(
        "wall and cpu metrics: {}",
        if same_host {
            "compared (same host fingerprint)"
        } else {
            "NOT compared (host fingerprints differ)"
        }
    );
    for (name, clock, x) in metrics(&va) {
        let Some((_, _, y)) = mb.iter().find(|m| m.0 == name) else {
            continue;
        };
        match clock.as_str() {
            "virtual" if same_input => {
                let ok = x.to_bits() == y.to_bits();
                drift += usize::from(!ok);
                println!(
                    "  {name:<34} virtual {x} -> {y} {}",
                    if ok { "same" } else { "DRIFT" }
                );
            }
            "wall" | "cpu" | "ref" if same_host => println!(
                "  {name:<34} {clock:<7} {x:.4} -> {y:.4} ({:+.1}%)",
                (y / x - 1.0) * 100.0
            ),
            _ => {}
        }
    }
    if drift > 0 {
        println!("{drift} virtual metric(s) drifted");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
