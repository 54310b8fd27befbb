//! `etx-perfbench`: the end-to-end and per-layer benchmark of the
//! simulator, the fleet controller and the route daemon.
//!
//! ```text
//! etx-perfbench --workload <sim_k1024|fleet_mixed|wire_mixed> --seed <n>
//!               --seconds <s> --trace <0|1>
//! ```
//!
//! Every input is generated here from `--seed`; the library only ever
//! sees the generated specs, batches and ingest items. The last line of
//! standard output is the result object; the lines before it are the
//! human-readable notes (percentiles with sample counts, checks, and in
//! traced runs the layer tables). A traced run also writes its spans to
//! `.bench_out/trace-<workload>-<seed>.jsonl` under the working directory.

mod common;
mod fleet_mixed;
mod sim_k1024;
mod wire_mixed;

use std::fmt::Write as _;
use std::path::Path;

use common::{json_num, Outcome, Tracer};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 0, seconds: 10.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: `{value}`");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(args)
}

fn result_line(out: &Outcome, traced: bool) -> String {
    let metrics = if traced {
        out.layers.as_ref().map(common::Layers::metrics).unwrap_or_default()
    } else {
        out.e2e.metrics()
    };
    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.correct(),
        out.attempted,
        out.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        let _ = write!(
            line,
            "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            m.name,
            json_num(m.value),
            m.unit
        );
    }
    line.push_str("}}");
    line
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("etx-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut tracer = args.trace.then(Tracer::new);
    let outcome = match args.workload.as_str() {
        "sim_k1024" => sim_k1024::run(args.seed, args.seconds, tracer.as_mut()),
        "fleet_mixed" => fleet_mixed::run(args.seed, args.seconds, tracer.as_mut()),
        "wire_mixed" => wire_mixed::run(args.seed, args.seconds, tracer.as_mut()),
        other => Err(format!("unknown workload `{other}` (sim_k1024|fleet_mixed|wire_mixed)")),
    };
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("etx-perfbench: {e}");
            std::process::exit(1);
        }
    };
    for note in &outcome.notes {
        println!("{note}");
    }
    for (name, ok) in &outcome.checks {
        if !ok {
            println!("check FAILED: {name}");
        }
    }
    println!(
        "checks: {} of {} passed",
        outcome.checks.iter().filter(|(_, ok)| *ok).count(),
        outcome.checks.len()
    );
    if let Some(tracer) = &tracer {
        for (name, self_ms) in tracer.self_times() {
            println!("span self time: {name:<24} {self_ms:>12.3} ms");
        }
        let path =
            Path::new(".bench_out").join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        if let Err(e) = tracer.write(&path) {
            eprintln!("etx-perfbench: writing {}: {e}", path.display());
            std::process::exit(1);
        }
        println!("spans written to {}", path.display());
    }
    println!("{}", result_line(&outcome, args.trace));
}
