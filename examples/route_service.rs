//! The read side of the controller: a live simulation publishes its
//! routing tables through an epoch publisher, and a query service
//! answers next-hop / full-path / path-cost queries against pinned
//! snapshots while the fabric drains underneath.
//!
//! ```text
//! cargo run --example route_service
//! ```

use etx::prelude::*;
use etx::serve::{EpochPublisher, Query, QueryBatch, QueryOutput, QueryResult};
use etx::sim::BatteryModel;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 6x6 EAR fabric with scaled-down batteries so it visibly drains.
    let mut sim = SimConfig::builder()
        .mesh_square(6)
        .algorithm(Algorithm::Ear)
        .mapping(MappingKind::Proportional)
        .battery(BatteryModel::Ideal)
        .battery_capacity_picojoules(30_000.0)
        .build()?;

    // Attach the publish hook: every TDMA-frame recompute becomes one
    // immutable, epoch-numbered snapshot.
    let (publisher, reader) = EpochPublisher::new();
    sim.set_table_observer(Box::new(publisher));

    let mut frontend = FleetFrontend::new(1);
    let fabric = frontend.register(reader.clone(), 36, 3);

    // Pin the fresh-system tables: this snapshot stays valid (and
    // byte-stable) no matter how far the simulation runs ahead.
    let fresh_pin = reader.pin();
    println!("pinned epoch {} ({} nodes)", fresh_pin.epoch(), fresh_pin.routing().node_count());

    // Drain the fabric for a while; the controller republishes as
    // battery buckets drop and nodes die.
    for _ in 0..60_000 {
        if sim.step().is_some() {
            break;
        }
    }
    println!("fabric at cycle {}, table epoch {}", sim.now(), reader.epoch());

    // Batched queries: all three kinds, answered from one snapshot per
    // fabric, results in submission order.
    let mut batch = QueryBatch::new();
    for node in 0..6 {
        batch.push(Query::NextHop { fabric, source: NodeId::new(node), module: 0 });
        batch.push(Query::Path { fabric, source: NodeId::new(node), module: 2 });
        batch.push(Query::Cost {
            fabric,
            source: NodeId::new(node),
            target: NodeId::new(35 - node),
        });
    }
    let mut out = QueryOutput::new();
    frontend.execute(&mut batch, &mut out);

    for (query, result) in batch.queries().iter().zip(out.results()) {
        match (query, result) {
            (Query::NextHop { source, module, .. }, QueryResult::NextHop(entry)) => match entry {
                Some(e) => println!(
                    "next hop  n{:<2} module {module}: -> n{} (dest n{}, cost {:.1})",
                    source.index(),
                    e.next_hop.index(),
                    e.destination.index(),
                    e.distance
                ),
                None => println!("next hop  n{:<2} module {module}: unroutable", source.index()),
            },
            (Query::Path { source, module, .. }, path @ QueryResult::Path { entry, .. }) => {
                let nodes: Vec<String> =
                    out.path_nodes(path).iter().map(|n| format!("n{}", n.index())).collect();
                match entry {
                    Some(e) => println!(
                        "full path n{:<2} module {module}: {} (cost {:.1})",
                        source.index(),
                        nodes.join(" -> "),
                        e.distance
                    ),
                    None => {
                        println!("full path n{:<2} module {module}: unroutable", source.index())
                    }
                }
            }
            (Query::Cost { source, target, .. }, QueryResult::Cost(cost)) => match cost {
                Some(c) => {
                    println!("path cost n{:<2} -> n{:<2}: {c:.1}", source.index(), target.index())
                }
                None => println!(
                    "path cost n{:<2} -> n{:<2}: unreachable",
                    source.index(),
                    target.index()
                ),
            },
            _ => unreachable!("results arrive in submission order"),
        }
    }

    // The old pin is untouched by everything that happened since.
    println!(
        "pinned epoch {} still answers from the fresh system (epoch now {})",
        fresh_pin.epoch(),
        reader.epoch()
    );
    Ok(())
}
