//! End-to-end equivalence: answers served over the TCP wire must be
//! exactly the answers [`FleetFrontend`] gives in-process for the same
//! scenario spec and warm-up — across shard counts, across
//! connections, and across telemetry ingests.

use etx_fleet::ScenarioSpec;
use etx_serve::net::proto::code;
use etx_serve::net::{ResponseKind, RouteClient, Served, ServedConfig};
use etx_serve::{
    FabricDirectory, FleetFrontend, QueryBatch, QueryOutput, QueryResult, WorkloadGen, WorkloadSpec,
};

const WARM: u64 = 800;

/// Results are equal when every entry and every materialized path
/// agrees; the raw arena span offsets inside `QueryResult::Path` are
/// an internal layout detail (the executor fills the arena in sorted
/// fabric order, the wire decoder rebuilds in result order).
fn assert_outputs_equal(label: &str, a_out: &QueryOutput, b_out: &QueryOutput) {
    assert_eq!(a_out.results().len(), b_out.results().len(), "{label}: length");
    for (i, (a, b)) in a_out.results().iter().zip(b_out.results()).enumerate() {
        match (a, b) {
            (QueryResult::Path { entry: ea, .. }, QueryResult::Path { entry: eb, .. }) => {
                assert_eq!(ea, eb, "{label}: path entry {i}");
                assert_eq!(a_out.path_nodes(a), b_out.path_nodes(b), "{label}: path nodes {i}");
            }
            _ => assert_eq!(a, b, "{label}: result {i}"),
        }
    }
}

fn spec() -> ScenarioSpec {
    ScenarioSpec { instances: 3, ..ScenarioSpec::smoke() }
}

fn start(shards: usize) -> Served {
    let mut config = ServedConfig::new(spec());
    config.warm_cycles = Some(WARM);
    config.shards = shards;
    Served::start(config).expect("daemon starts")
}

fn assert_wire_matches_local(client: &mut RouteClient, frontend: &FleetFrontend, seed: u64) {
    let workload = WorkloadSpec { seed, batch: 256, ..WorkloadSpec::default() };
    let mut wire_gen = WorkloadGen::new(workload.clone());
    let mut local_gen = WorkloadGen::new(workload);
    let mut wire_batch = QueryBatch::new();
    let mut local_batch = QueryBatch::new();
    let mut wire_out = QueryOutput::new();
    let mut local_out = QueryOutput::new();
    for round in 0..4 {
        wire_gen.fill(client, &mut wire_batch);
        local_gen.fill(frontend, &mut local_batch);
        assert_eq!(
            wire_batch.queries(),
            local_batch.queries(),
            "round {round}: the HELLO_ACK dims must reproduce the local query stream"
        );
        let response = client.query(wire_batch.queries(), &mut wire_out).expect("wire query");
        assert!(matches!(response.kind, ResponseKind::Results));
        frontend.execute(&mut local_batch, &mut local_out);
        assert_outputs_equal(&format!("round {round}"), &wire_out, &local_out);
    }
}

#[test]
fn wire_answers_match_in_process_frontend() {
    let served = start(1);
    let frontend = FleetFrontend::from_spec(&spec(), WARM).expect("frontend");
    let mut client = RouteClient::connect(served.addr()).expect("connect");

    assert_eq!(client.fabric_count(), frontend.fabric_count());
    for fabric in 0..client.fabric_count() as u32 {
        assert_eq!(client.node_count(fabric), frontend.node_count(fabric));
        assert_eq!(client.module_count(fabric), frontend.module_count(fabric));
    }

    assert_wire_matches_local(&mut client, &frontend, 7);
}

#[test]
fn sharded_daemon_matches_single_shard_frontend() {
    let served = start(2);
    // The serving side's shard count must not change a single answer:
    // the in-process frontend runs the same executor with no workers.
    let frontend = FleetFrontend::from_spec(&spec(), WARM).expect("frontend");

    // Round-robin pinning: consecutive connections land on different
    // shards, and both answer identically.
    let mut first = RouteClient::connect(served.addr()).expect("connect");
    let mut second = RouteClient::connect(served.addr()).expect("connect");
    assert_eq!(first.shard_count(), 2);
    assert_ne!(first.shard(), second.shard(), "round-robin must spread connections");

    assert_wire_matches_local(&mut first, &frontend, 11);
    assert_wire_matches_local(&mut second, &frontend, 11);
}

/// Sends one INGEST and returns its `(epoch, applied)` acknowledgement.
fn ingest(client: &mut RouteClient, fabric: u32, items: &[(u32, u32)], label: &str) -> (u64, u64) {
    let mut out = QueryOutput::new();
    client.send_ingest(fabric, items).expect("send ingest");
    match client.recv(&mut out).expect("recv ack").kind {
        ResponseKind::IngestAck { epoch, applied } => (epoch, applied),
        other => panic!("{label}: expected INGEST_ACK, got {other:?}"),
    }
}

#[test]
fn ingest_advances_epochs_deterministically() {
    // On two shards the write sides split across both workers, so every
    // fabric's ingest must be routed to the worker that owns it.
    for shards in [1, 2] {
        let served = start(shards);
        let mut client = RouteClient::connect(served.addr()).expect("connect");
        for fabric in 0..client.fabric_count() as u32 {
            if client.node_count(fabric).is_none() {
                continue; // a rejected instance has no write side
            }
            let label = format!("{shards} shard(s), fabric {fabric}");
            // First ingest: two distinct telemetry updates. Whatever the
            // warm state left behind, a second identical ingest must be a
            // pure no-op — same epoch, zero applied.
            let items = [(1u32, 1u32), (2, 0)];
            let (epoch, _applied) = ingest(&mut client, fabric, &items, &label);
            assert_eq!(
                ingest(&mut client, fabric, &items, &label),
                (epoch, 0),
                "{label}: repeated telemetry must apply nothing and publish no epoch"
            );
            // A genuinely new report advances the epoch by exactly one
            // recompute and applies exactly the changed nodes.
            assert_eq!(
                ingest(&mut client, fabric, &[(1, 5), (2, 5)], &label),
                (epoch + 1, 2),
                "{label}: a new report publishes one epoch"
            );
        }

        // Post-ingest answers are served from the new tables and are
        // deterministic: the same batch twice is bit-identical.
        let workload = WorkloadSpec { seed: 23, batch: 128, ..WorkloadSpec::default() };
        let mut generator = WorkloadGen::new(workload);
        let mut batch = QueryBatch::new();
        generator.fill(&client, &mut batch);
        let mut out = QueryOutput::new();
        let mut again = QueryOutput::new();
        client.query(batch.queries(), &mut out).expect("query");
        client.query(batch.queries(), &mut again).expect("query again");
        assert_eq!(out.results(), again.results());
    }
}

#[test]
fn ingest_to_unknown_fabric_is_rejected() {
    let served = start(1);
    let mut client = RouteClient::connect(served.addr()).expect("connect");
    let mut out = QueryOutput::new();
    client.send_ingest(99, &[(0, 1)]).expect("send");
    let response = client.recv(&mut out).expect("recv");
    match response.kind {
        ResponseKind::Rejected { code } => assert_eq!(code, code::UNKNOWN_FABRIC),
        other => panic!("expected REJECT, got {other:?}"),
    }
    // The connection survives the rejection.
    client.send_ingest(0, &[(3, 2)]).expect("send valid");
    let ack = client.recv(&mut out).expect("recv ack");
    assert!(matches!(ack.kind, ResponseKind::IngestAck { .. }));
}
