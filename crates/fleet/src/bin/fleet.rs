//! `fleet` — run a scenario spec across a sharded fleet and print the
//! aggregate distributions.
//!
//! ```text
//! fleet --preset mixed --instances 1000          # built-in spec, table output
//! fleet --spec my_scenario.spec --json           # spec file, JSON output
//! fleet --smoke                                  # tiny CI exercise of every layer
//! fleet --preset churn --print-spec              # show a spec's canonical form
//! ```
//!
//! Options: `--preset NAME` (mixed|smoke|churn), `--spec FILE`,
//! `--instances N`, `--seed S`, `--shards N`,
//! `--strategy full|auto` (routing recompute strategy; cost-only,
//! results are identical), `--json`, `--print-spec`, `--smoke`
//! (shorthand for `--preset smoke`, defaulting to 2 shards unless
//! `--shards` is given).
//!
//! Frame tracing (see the `etx-trace` crate):
//! `--record DIR` runs every instance with a frame recorder attached
//! and writes one `.etxtrace` file per instance (the spec's
//! `record_frames` key bounds retention: 0 = full trace, N = last N
//! frames); `--record-no-wall` omits per-frame wall time so the files
//! are byte-deterministic (golden traces). `--replay FILE` re-drives
//! the recorded instance from the trace's embedded spec and exits 1
//! with a divergence report if any frame fails to reproduce.
//! `--timeline N` (with `--json`) splices a `"frames"` block — the last
//! N per-frame wall/energy samples of instance 0 — into the JSON.
//!
//! Metrics (see the `etx-metrics` crate): `--metrics` prints the run's
//! deterministic metrics snapshot (stable counters only — byte-identical
//! across shard counts and recompute strategies) after the
//! regular output; `--metrics=FILE` writes it to FILE instead.

use etx_fleet::{FleetController, ScenarioSpec, ShardPlan};
use etx_sim::RecomputeStrategy;
use etx_trace::{record_run, render_divergence, RecordMode, RecordOptions, Trace};

struct Options {
    spec: ScenarioSpec,
    plan: ShardPlan,
    json: bool,
    print_spec: bool,
    record: Option<String>,
    replay: Option<String>,
    timeline: usize,
    record_wall: bool,
    /// `Some(None)`: print the metrics snapshot to stdout;
    /// `Some(Some(path))`: write it to `path`.
    metrics: Option<Option<String>>,
}

fn parse_args() -> Result<Options, String> {
    let mut spec: Option<ScenarioSpec> = None;
    let mut instances: Option<usize> = None;
    let mut seed: Option<u64> = None;
    let mut strategy: Option<RecomputeStrategy> = None;
    let mut plan: Option<ShardPlan> = None;
    let mut smoke = false;
    let mut json = false;
    let mut print_spec = false;
    let mut record: Option<String> = None;
    let mut replay: Option<String> = None;
    let mut timeline: usize = 0;
    let mut record_wall = true;
    let mut metrics: Option<Option<String>> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--preset" => {
                let name = args.next().ok_or("--preset needs a value")?;
                spec = Some(
                    ScenarioSpec::preset(&name)
                        .ok_or_else(|| format!("unknown preset `{name}` (mixed|smoke|churn)"))?,
                );
                smoke = false;
            }
            "--spec" => {
                let path = args.next().ok_or("--spec needs a file path")?;
                let text = std::fs::read_to_string(&path)
                    .map_err(|e| format!("cannot read `{path}`: {e}"))?;
                spec = Some(ScenarioSpec::parse(&text).map_err(|e| format!("{path}: {e}"))?);
                smoke = false;
            }
            "--smoke" => {
                spec = Some(ScenarioSpec::smoke());
                smoke = true;
            }
            "--instances" => {
                let n = args.next().ok_or("--instances needs a value")?;
                instances = Some(n.parse().map_err(|e| format!("bad instance count `{n}`: {e}"))?);
            }
            "--seed" => {
                let s = args.next().ok_or("--seed needs a value")?;
                seed = Some(s.parse().map_err(|e| format!("bad seed `{s}`: {e}"))?);
            }
            "--strategy" => {
                let name = args.next().ok_or("--strategy needs a value")?;
                strategy = Some(
                    RecomputeStrategy::parse(&name)
                        .ok_or_else(|| format!("unknown strategy `{name}` (full|auto)"))?,
                );
            }
            "--shards" => {
                let n = args.next().ok_or("--shards needs a value")?;
                plan = Some(ShardPlan::Fixed(
                    n.parse().map_err(|e| format!("bad shard count `{n}`: {e}"))?,
                ));
            }
            "--json" => json = true,
            "--print-spec" => print_spec = true,
            "--record" => {
                record = Some(args.next().ok_or("--record needs a directory")?);
            }
            "--replay" => {
                replay = Some(args.next().ok_or("--replay needs a trace file")?);
            }
            "--timeline" => {
                let n = args.next().ok_or("--timeline needs a frame count")?;
                timeline = n.parse().map_err(|e| format!("bad timeline length `{n}`: {e}"))?;
            }
            "--record-no-wall" => record_wall = false,
            "--metrics" => metrics = Some(None),
            other if other.starts_with("--metrics=") => {
                let path = &other["--metrics=".len()..];
                if path.is_empty() {
                    return Err("--metrics= needs a file path (or use bare --metrics)".to_string());
                }
                metrics = Some(Some(path.to_string()));
            }
            other => {
                return Err(format!(
                    "unknown argument `{other}`\nusage: fleet [--preset NAME | --spec FILE | --smoke] \
                     [--instances N] [--seed S] [--shards N] [--strategy NAME] \
                     [--json] [--print-spec] [--metrics[=FILE]] \
                     [--record DIR [--record-no-wall]] [--replay FILE] [--timeline N]"
                ));
            }
        }
    }
    let mut spec = spec.unwrap_or_default();
    if let Some(n) = instances {
        spec.instances = n;
    }
    if let Some(s) = seed {
        spec.seed = s;
    }
    if let Some(s) = strategy {
        spec.strategy = s;
    }
    spec.check()?;
    if timeline > 0 && !json {
        return Err("--timeline only augments --json output".to_string());
    }
    // `--smoke` defaults to two shards (exercising the merge path), but
    // an explicit `--shards` wins regardless of flag order.
    let plan = plan.unwrap_or(if smoke { ShardPlan::Fixed(2) } else { ShardPlan::Auto });
    Ok(Options { spec, plan, json, print_spec, record, replay, timeline, record_wall, metrics })
}

/// `--replay FILE`: re-drives the recorded instance from the trace's
/// embedded spec and reports the first diverging frame, if any.
fn run_replay(path: &str) -> ! {
    let trace = match Trace::read_file(path) {
        Ok(trace) => trace,
        Err(e) => {
            eprintln!("fleet: {path}: {e}");
            std::process::exit(2);
        }
    };
    if trace.header.spec.is_empty() {
        eprintln!("fleet: {path}: trace has no embedded scenario spec (not recorded by fleet?)");
        std::process::exit(2);
    }
    let spec = match ScenarioSpec::parse(&trace.header.spec) {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("fleet: {path}: embedded spec: {e}");
            std::process::exit(2);
        }
    };
    let instance = usize::try_from(trace.header.instance).unwrap_or(usize::MAX);
    match etx_trace::replay(spec.sample(instance), &trace) {
        Ok(outcome) if outcome.diff.identical() => {
            println!(
                "replay ok: `{}` instance {} reproduced {} frame(s) ({} with cost-counter drift)",
                spec.name, instance, outcome.diff.frames_compared, outcome.diff.cost_only_frames
            );
            std::process::exit(0);
        }
        Ok(outcome) => {
            eprintln!("fleet: replay of {path} DIVERGED from the recording:");
            eprint!("{}", render_divergence("recorded", "replayed", &outcome.diff));
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("fleet: {path}: {e}");
            std::process::exit(2);
        }
    }
}

/// `--record DIR`: runs every instance sequentially with a frame
/// recorder attached, writing `DIR/<name>-<instance>.etxtrace` each.
fn run_record(spec: &ScenarioSpec, dir: &str, wall_time: bool) -> ! {
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("fleet: cannot create `{dir}`: {e}");
        std::process::exit(2);
    }
    let spec_text = spec.to_text();
    let mode = match usize::try_from(spec.record_frames).unwrap_or(usize::MAX) {
        0 => RecordMode::Full,
        n => RecordMode::Ring(n),
    };
    let mut recorded = 0usize;
    let mut rejected = 0usize;
    for index in 0..spec.instances {
        let options =
            RecordOptions { spec: spec_text.clone(), instance: index as u64, mode, wall_time };
        match record_run(spec.sample(index), &options) {
            Ok((_report, trace)) => {
                let path = format!("{dir}/{}-{index:04}.etxtrace", spec.name);
                if let Err(e) = std::fs::write(&path, trace.to_bytes()) {
                    eprintln!("fleet: cannot write `{path}`: {e}");
                    std::process::exit(2);
                }
                recorded += 1;
            }
            // Build rejection: the sampled combination failed config
            // validation, same as a rejected fleet instance.
            Err(_) => rejected += 1,
        }
    }
    println!(
        "recorded {recorded} instance(s) of `{}` to {dir} ({rejected} rejected, {} retention)",
        spec.name,
        if spec.record_frames == 0 {
            "full".to_string()
        } else {
            format!("last-{}-frame", spec.record_frames)
        }
    );
    std::process::exit(if recorded == 0 { 1 } else { 0 });
}

/// Renders the last `limit` frames of `trace` as a JSON `"frames"`
/// array block (two-space indented, no trailing comma).
fn frames_json(trace: &Trace, limit: usize) -> String {
    use core::fmt::Write as _;
    let mut out = String::from("  \"frames\": [\n");
    let skip = trace.records.len().saturating_sub(limit);
    let shown = &trace.records[skip..];
    for (i, rec) in shown.iter().enumerate() {
        let comma = if i + 1 == shown.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"frame\": {}, \"cycle\": {}, \"wall_ns\": {}, \"medium_pj\": {:.3}, \
             \"controller_pj\": {:.3}, \"jobs_completed\": {}, \"jobs_lost\": {}, \"events\": {}}}{comma}",
            rec.frame,
            rec.cycle,
            rec.wall_ns,
            rec.medium_pj(),
            rec.controller_pj(),
            rec.jobs_completed,
            rec.jobs_lost,
            rec.events.len(),
        );
    }
    out.push_str("  ]");
    out
}

/// Splices a `"frames"` timeline block (instance 0, last `limit`
/// frames) into the aggregate JSON object, just before its closing
/// brace.
fn splice_timeline(json: &str, spec: &ScenarioSpec, limit: usize) -> String {
    let Ok((_report, trace)) = record_run(
        spec.sample(0),
        &RecordOptions {
            spec: String::new(),
            instance: 0,
            mode: RecordMode::Ring(limit),
            wall_time: true,
        },
    ) else {
        // Instance 0 was rejected: nothing to splice.
        return json.to_string();
    };
    let Some(body) = json.trim_end().strip_suffix('}') else {
        return json.to_string();
    };
    format!("{},\n{}\n}}", body.trim_end(), frames_json(&trace, limit))
}

fn main() {
    let options = match parse_args() {
        Ok(options) => options,
        Err(message) => {
            eprintln!("fleet: {message}");
            std::process::exit(2);
        }
    };
    if options.print_spec {
        print!("{}", options.spec.to_text());
        return;
    }
    if let Some(path) = &options.replay {
        run_replay(path);
    }
    if let Some(dir) = &options.record {
        run_record(&options.spec, dir, options.record_wall);
    }
    let start = std::time::Instant::now();
    // The spec passed `check()` in `parse_args`, so this cannot fail.
    let result = match FleetController::new().with_shards(options.plan).run(&options.spec) {
        Ok(result) => result,
        Err(message) => {
            eprintln!("fleet: {message}");
            std::process::exit(2);
        }
    };
    let elapsed = start.elapsed();
    if options.json {
        let mut json = result.aggregate.to_json();
        if options.timeline > 0 {
            json = splice_timeline(&json, &options.spec, options.timeline);
        }
        println!("{json}");
    } else {
        println!(
            "fleet `{}` (seed {}): {} instances over {} shard{}",
            result.spec_name,
            result.seed,
            options.spec.instances,
            result.shards,
            if result.shards == 1 { "" } else { "s" },
        );
        println!("{}", result.aggregate);
        let per_sec = options.spec.instances as f64 / elapsed.as_secs_f64().max(1e-9);
        eprintln!("({:.2?} wall, {per_sec:.0} instances/sec)", elapsed);
    }
    match &options.metrics {
        Some(Some(path)) => {
            // The file form writes *only* the deterministic snapshot, so
            // CI can byte-diff it across shard counts and strategies.
            if let Err(e) = std::fs::write(path, result.metrics.to_json() + "\n") {
                eprintln!("fleet: cannot write `{path}`: {e}");
                std::process::exit(2);
            }
        }
        Some(None) => println!("{}", result.metrics.to_json()),
        None => {}
    }
    // A fleet where *every* instance was rejected means the spec is
    // unusable — signal failure so CI smoke jobs catch it.
    if result.aggregate.instances == 0 {
        eprintln!("fleet: every sampled instance was rejected");
        std::process::exit(1);
    }
}
