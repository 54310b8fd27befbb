//! `served` — the `etx-served` daemon binary, plus the client and
//! local dump modes CI diffs against each other.
//!
//! ```text
//! served --preset smoke --shards 2 --port 0            # serve; prints "listening on ADDR"
//! served --spec scenario.spec --metrics metrics.json   # full-metrics JSON at shutdown
//! served --client-dump 127.0.0.1:7405 --out wire.txt --shutdown
//! served --local-dump --preset smoke --out local.txt
//! ```
//!
//! The two dump modes render identical workload streams through
//! identical renderers — one over the wire, one in-process via
//! [`FleetFrontend`] — so `cmp wire.txt local.txt` is the end-to-end
//! proof that the daemon's answers are byte-identical to the
//! in-process query surface on the same spec and warm-up.

use std::fmt::Write as _;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

use etx_fleet::ScenarioSpec;
use etx_metrics::{MetricsHandle, Registry};
use etx_serve::net::{ResponseKind, RouteClient, Served, ServedConfig};
use etx_serve::{FleetFrontend, QueryBatch, QueryOutput, QueryResult, WorkloadGen, WorkloadSpec};

struct Options {
    spec: ScenarioSpec,
    shards: usize,
    port: u16,
    warm: Option<u64>,
    queue: usize,
    metrics_path: Option<String>,
    client_dump: Option<SocketAddr>,
    local_dump: bool,
    out: String,
    rounds: u64,
    seed: u64,
    batch: usize,
    send_shutdown: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut options = Options {
        spec: ScenarioSpec::smoke(),
        shards: 1,
        port: 0,
        warm: None,
        queue: 64,
        metrics_path: None,
        client_dump: None,
        local_dump: false,
        out: "served_dump.txt".to_string(),
        rounds: 3,
        seed: 77,
        batch: 512,
        send_shutdown: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| args.next().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--preset" => {
                let name = value("--preset")?;
                options.spec = ScenarioSpec::preset(&name)
                    .ok_or_else(|| format!("unknown preset `{name}`"))?;
            }
            "--spec" => {
                let path = value("--spec")?;
                let text =
                    std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
                options.spec = ScenarioSpec::parse(&text).map_err(|e| format!("{path}: {e}"))?;
            }
            "--shards" => {
                let n = value("--shards")?;
                options.shards = n.parse().map_err(|e| format!("bad shard count `{n}`: {e}"))?;
            }
            "--port" => {
                let n = value("--port")?;
                options.port = n.parse().map_err(|e| format!("bad port `{n}`: {e}"))?;
            }
            "--warm" => {
                let n = value("--warm")?;
                options.warm = Some(n.parse().map_err(|e| format!("bad warm cycles `{n}`: {e}"))?);
            }
            "--queue" => {
                let n = value("--queue")?;
                options.queue = n.parse().map_err(|e| format!("bad queue depth `{n}`: {e}"))?;
            }
            "--metrics" => options.metrics_path = Some(value("--metrics")?),
            "--client-dump" => {
                let addr = value("--client-dump")?;
                options.client_dump =
                    Some(addr.parse().map_err(|e| format!("bad address `{addr}`: {e}"))?);
            }
            "--local-dump" => options.local_dump = true,
            "--out" => options.out = value("--out")?,
            "--rounds" => {
                let n = value("--rounds")?;
                options.rounds = n.parse().map_err(|e| format!("bad round count `{n}`: {e}"))?;
            }
            "--seed" => {
                let n = value("--seed")?;
                options.seed = n.parse().map_err(|e| format!("bad seed `{n}`: {e}"))?;
            }
            "--batch" => {
                let n = value("--batch")?;
                options.batch = n.parse().map_err(|e| format!("bad batch size `{n}`: {e}"))?;
            }
            "--shutdown" => options.send_shutdown = true,
            other => {
                return Err(format!(
                    "unknown argument `{other}`\nusage: served [--preset NAME | --spec FILE] \
                     [--shards N] [--port P] [--warm N] [--queue N] [--metrics FILE] \
                     [--client-dump ADDR [--shutdown]] [--local-dump] [--out FILE] \
                     [--rounds N] [--seed N] [--batch N]"
                ))
            }
        }
    }
    Ok(options)
}

/// Renders one answered batch in the `bench_serve --dump` line format,
/// shared verbatim by the wire and local dump paths.
fn render_round(text: &mut String, round: u64, batch: &QueryBatch, out: &QueryOutput) {
    for (query, result) in batch.queries().iter().zip(out.results()) {
        let _ = write!(text, "round {round} {query:?} => ");
        match result {
            QueryResult::Path { entry, .. } => {
                let _ = writeln!(text, "Path {entry:?} via {:?}", out.path_nodes(result));
            }
            other => {
                let _ = writeln!(text, "{other:?}");
            }
        }
    }
}

fn client_dump(options: &Options, addr: SocketAddr) -> Result<(), String> {
    let mut client = RouteClient::connect_retry(addr, Duration::from_secs(120))
        .map_err(|e| format!("connect {addr}: {e}"))?;
    let workload =
        WorkloadSpec { seed: options.seed, batch: options.batch, ..WorkloadSpec::default() };
    let mut generator = WorkloadGen::new(workload);
    let mut batch = QueryBatch::new();
    let mut out = QueryOutput::new();
    let mut text = String::new();
    for round in 0..options.rounds {
        generator.fill(&client, &mut batch);
        let response =
            client.query(batch.queries(), &mut out).map_err(|e| format!("round {round}: {e}"))?;
        if !matches!(response.kind, ResponseKind::Results) {
            return Err(format!("round {round}: unexpected response {:?}", response.kind));
        }
        render_round(&mut text, round, &batch, &out);
    }
    if options.send_shutdown {
        client.send_shutdown().map_err(|e| format!("shutdown: {e}"))?;
    }
    std::fs::write(&options.out, &text).map_err(|e| format!("write {}: {e}", options.out))?;
    eprintln!("wrote {} ({} rounds over the wire from {addr})", options.out, options.rounds);
    Ok(())
}

fn local_dump(options: &Options) -> Result<(), String> {
    let warm = options.warm.unwrap_or(options.spec.warm_cycles);
    let frontend = FleetFrontend::from_spec(&options.spec, warm)?;
    let workload =
        WorkloadSpec { seed: options.seed, batch: options.batch, ..WorkloadSpec::default() };
    let mut generator = WorkloadGen::new(workload);
    let mut batch = QueryBatch::new();
    let mut out = QueryOutput::new();
    let mut text = String::new();
    for round in 0..options.rounds {
        generator.fill(&frontend, &mut batch);
        frontend.execute(&mut batch, &mut out);
        render_round(&mut text, round, &batch, &out);
    }
    std::fs::write(&options.out, &text).map_err(|e| format!("write {}: {e}", options.out))?;
    eprintln!("wrote {} ({} rounds in-process)", options.out, options.rounds);
    Ok(())
}

fn serve(options: Options) -> Result<(), String> {
    let metrics = if options.metrics_path.is_some() {
        MetricsHandle::new(Arc::new(Registry::full()))
    } else {
        MetricsHandle::default()
    };
    let mut config = ServedConfig::new(options.spec.clone());
    config.shards = options.shards;
    config.port = options.port;
    config.warm_cycles = options.warm;
    config.queue_capacity = options.queue;
    config.metrics = metrics.clone();
    eprintln!("warming {} instance(s) of `{}`...", options.spec.instances, options.spec.name);
    let mut served = Served::start(config)?;
    // The launch handshake for scripts: the one stdout line carries the
    // resolved (possibly ephemeral) address.
    println!("listening on {}", served.addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    served.wait();
    if let Some(path) = &options.metrics_path {
        std::fs::write(path, metrics.snapshot().to_json_full())
            .map_err(|e| format!("write {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    eprintln!("shut down");
    Ok(())
}

fn main() {
    let options = match parse_args() {
        Ok(options) => options,
        Err(e) => {
            eprintln!("served: {e}");
            std::process::exit(2);
        }
    };
    let run = if let Some(addr) = options.client_dump {
        client_dump(&options, addr)
    } else if options.local_dump {
        local_dump(&options)
    } else {
        serve(options)
    };
    if let Err(e) = run {
        eprintln!("served: {e}");
        std::process::exit(1);
    }
}
