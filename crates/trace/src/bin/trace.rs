//! `trace` — inspect and compare frame-trace files.
//!
//! ```text
//! trace info run.etxtrace              # header + per-frame summary
//! trace info --timeline run.etxtrace  # add a per-frame wall/energy table
//! trace diff a.etxtrace b.etxtrace    # first divergence, exit 1 if any
//! trace bisect a.etxtrace b.etxtrace  # diff + side-by-side frame report
//! ```
//!
//! `diff` and `bisect` exit 0 when the traces are semantically
//! identical (cost-counter drift between recompute strategies is
//! reported but tolerated) and 1 on the first state divergence.
//! Replaying a trace against a live engine is `fleet --replay` (the
//! scenario registry lives there).

use std::process::ExitCode;

use etx_trace::{diff_traces, render_divergence, Trace, TraceDiff};

fn usage() -> String {
    "usage:\n  trace info [--timeline] <file>\n  trace diff <left> <right>\n  trace bisect <left> <right>"
        .to_string()
}

fn load(path: &str) -> Result<Trace, String> {
    Trace::read_file(path).map_err(|e| format!("{path}: {e}"))
}

fn cmd_info(path: &str, timeline: bool) -> Result<(), String> {
    let trace = load(path)?;
    let h = &trace.header;
    println!("file:               {path}");
    println!("format version:     {}", etx_trace::FORMAT_VERSION);
    println!("storage:            {}", if h.ring { "ring (tail only)" } else { "full" });
    println!("config fingerprint: {:016x}", h.config_fingerprint);
    println!("instance:           {}", h.instance);
    if h.ring {
        println!("dropped frames:     {}", h.dropped_frames);
    }
    println!("frames retained:    {}", trace.records.len());
    if let (Some(first), Some(last)) = (trace.first_frame(), trace.last_frame()) {
        println!("frame range:        {first}..={last}");
    }
    println!("events:             {}", trace.event_count());
    if let Some(last) = trace.records.last() {
        println!("final jobs:         {} completed, {} lost", last.jobs_completed, last.jobs_lost);
        println!(
            "final energy:       {:.3} pJ medium, {:.3} pJ controller",
            last.medium_pj(),
            last.controller_pj()
        );
    }
    if h.spec.is_empty() {
        println!("spec:               (none)");
    } else {
        println!("spec:");
        for line in h.spec.lines() {
            println!("  {line}");
        }
    }
    if timeline {
        println!();
        println!(
            "{:>8} {:>10} {:>10} {:>6} {:>12} {:>12} {:>8}",
            "frame", "cycle", "wall_ns", "events", "medium_pJ", "ctrl_pJ", "jobs"
        );
        for rec in &trace.records {
            println!(
                "{:>8} {:>10} {:>10} {:>6} {:>12.3} {:>12.3} {:>8}",
                rec.frame,
                rec.cycle,
                rec.wall_ns,
                rec.events.len(),
                rec.medium_pj(),
                rec.controller_pj(),
                rec.jobs_completed
            );
        }
    }
    Ok(())
}

fn diff_pair(left: &str, right: &str) -> Result<(TraceDiff, Trace, Trace), String> {
    let l = load(left)?;
    let r = load(right)?;
    if l.header.config_fingerprint != r.header.config_fingerprint {
        eprintln!(
            "note: traces record different configs ({:016x} vs {:016x})",
            l.header.config_fingerprint, r.header.config_fingerprint
        );
    }
    let diff = diff_traces(&l, &r);
    Ok((diff, l, r))
}

fn cmd_diff(left: &str, right: &str, bisect: bool) -> Result<ExitCode, String> {
    let (diff, _, _) = diff_pair(left, right)?;
    if diff.identical() {
        println!(
            "identical: {} frame(s) compared, {} with cost-counter drift only",
            diff.frames_compared, diff.cost_only_frames
        );
        return Ok(ExitCode::SUCCESS);
    }
    if bisect {
        print!("{}", render_divergence(left, right, &diff));
    } else {
        let div = diff.divergence.as_ref().expect("checked non-identical");
        let labels: Vec<String> = div.components.iter().map(ToString::to_string).collect();
        println!(
            "divergence at frame {} (after {} identical frame(s)): {}",
            div.frame,
            diff.frames_compared,
            labels.join(", ")
        );
        println!("run `trace bisect {left} {right}` for the side-by-side frame report");
    }
    Ok(ExitCode::FAILURE)
}

fn run() -> Result<ExitCode, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("info") => {
            let mut timeline = false;
            let mut path = None;
            for arg in &args[1..] {
                match arg.as_str() {
                    "--timeline" => timeline = true,
                    other if path.is_none() => path = Some(other.to_string()),
                    other => return Err(format!("unexpected argument `{other}`\n{}", usage())),
                }
            }
            let path = path.ok_or_else(usage)?;
            cmd_info(&path, timeline)?;
            Ok(ExitCode::SUCCESS)
        }
        Some(cmd @ ("diff" | "bisect")) => {
            let [left, right] = &args[1..] else {
                return Err(usage());
            };
            cmd_diff(left, right, cmd == "bisect")
        }
        _ => Err(usage()),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
