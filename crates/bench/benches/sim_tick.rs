//! Simulator throughput: bit-ticks per second with realistic node counts —
//! validates that 2-second captures (100k bits at 50 kbit/s) stay cheap.

use std::hint::black_box;

use bench::scenarios::restbus_matrix;
use can_core::app::SilentApplication;
use can_core::BusSpeed;
use can_sim::{Node, SimBuilder};
use criterion::{criterion_group, criterion_main, Criterion};
use restbus::ReplayApp;

fn bench_sim(c: &mut Criterion) {
    c.bench_function("sim/idle_bus_3_nodes_1k_bits", |b| {
        b.iter(|| {
            let mut builder = SimBuilder::new(BusSpeed::K500);
            for i in 0..3 {
                builder = builder.node(Node::new(format!("n{i}"), Box::new(SilentApplication)));
            }
            let mut sim = builder.build();
            sim.run(black_box(1_000));
            sim.now()
        })
    });

    c.bench_function("sim/restbus_replay_1k_bits", |b| {
        b.iter(|| {
            let mut sim = SimBuilder::new(BusSpeed::K50)
                .node(Node::new(
                    "restbus",
                    Box::new(ReplayApp::for_matrix(&restbus_matrix())),
                ))
                .node(Node::new("rx", Box::new(SilentApplication)))
                .build();
            sim.run(black_box(1_000));
            sim.events().len()
        })
    });

    c.bench_function("sim/restbus_replay_1k_bits_no_logging", |b| {
        b.iter(|| {
            let mut sim = SimBuilder::new(BusSpeed::K50)
                .event_logging(false)
                .node(Node::new(
                    "restbus",
                    Box::new(ReplayApp::for_matrix(&restbus_matrix())),
                ))
                .node(Node::new("rx", Box::new(SilentApplication)))
                .build();
            sim.run(black_box(1_000));
            sim.busy_bits()
        })
    });

    c.bench_function("sim/table2_experiment4_full_episode", |b| {
        use bench::runner::ExecOpts;
        use bench::scenarios::{experiment_builder, table2_experiments};
        let exp = table2_experiments()
            .into_iter()
            .find(|e| e.number == 4)
            .unwrap();
        b.iter(|| {
            let mut sim = experiment_builder(black_box(&exp), &ExecOpts::new())
                .0
                .build();
            sim.run_until(5_000, |e| matches!(e.kind, can_sim::EventKind::BusOff))
        })
    });
}

criterion_group!(benches, bench_sim);
criterion_main!(benches);
