//! `bussim` — an ad-hoc scenario runner for the bit-level CAN simulator.
//!
//! ```text
//! bussim [--speed 50|125|250|500|1000] [--ms <capture-ms>]
//!        [--sender <id>:<period-ms>[:<dlc>]]...
//!        [--attack <id>]... [--toggle <id>,<id>]
//!        [--defend <own-id>[,<peer-id>...]]
//!        [--parrot <own-id>] [--ids] [--ber <rate>]
//!        [--timeline] [--candump] [--vcd]
//! ```
//!
//! Examples:
//!
//! ```text
//! # The paper's Experiment 4 in one line:
//! bussim --speed 50 --ms 500 --attack 0x064 --defend 0x173 --timeline
//!
//! # Healthy bus with three senders, candump output:
//! bussim --sender 0x0A4:10 --sender 0x260:50 --sender 0x3E6:200 --candump
//! ```

use std::env;
use std::process::ExitCode;

use can_attacks::{DosKind, SuspensionAttacker, TogglingAttacker};
use can_core::app::{PeriodicSender, SilentApplication};
use can_core::{BusSpeed, CanFrame, CanId};
use can_ids::{variants_for, DetectorTap};
use can_sim::{bus_off_episodes, EventKind, FaultModel, Node, SimBuilder};
use can_trace::{write_log, LogEntry, Timeline};
use michican::prelude::*;
use parrot::ParrotDefender;

#[derive(Debug, Default)]
struct Scenario {
    speed: Option<BusSpeed>,
    capture_ms: f64,
    senders: Vec<(CanId, f64, u8)>,
    attacks: Vec<CanId>,
    toggle: Option<(CanId, CanId)>,
    defend: Option<Vec<CanId>>,
    parrot: Option<CanId>,
    ids: bool,
    ber: Option<f64>,
    timeline: bool,
    candump: bool,
    vcd: bool,
}

fn parse_id(token: &str) -> Result<CanId, String> {
    let raw = token.trim().trim_start_matches("0x");
    let value = u16::from_str_radix(raw, 16).map_err(|_| format!("bad identifier {token}"))?;
    CanId::new(value).map_err(|e| e.to_string())
}

fn parse_args() -> Result<Scenario, String> {
    let mut scenario = Scenario {
        capture_ms: 200.0,
        ..Scenario::default()
    };
    let mut args = env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut next = |name: &str| args.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--speed" => {
                scenario.speed = Some(match next("--speed")?.as_str() {
                    "50" => BusSpeed::K50,
                    "125" => BusSpeed::K125,
                    "250" => BusSpeed::K250,
                    "500" => BusSpeed::K500,
                    "1000" => BusSpeed::M1,
                    other => return Err(format!("unknown speed {other}")),
                });
            }
            "--ms" => {
                scenario.capture_ms = next("--ms")?
                    .parse()
                    .map_err(|_| "bad --ms value".to_string())?;
            }
            "--sender" => {
                let spec = next("--sender")?;
                let parts: Vec<&str> = spec.split(':').collect();
                if parts.len() < 2 || parts.len() > 3 {
                    return Err(format!("--sender expects id:period-ms[:dlc], got {spec}"));
                }
                let id = parse_id(parts[0])?;
                let period: f64 = parts[1]
                    .parse()
                    .map_err(|_| format!("bad period in {spec}"))?;
                let dlc: u8 = if parts.len() == 3 {
                    parts[2].parse().map_err(|_| format!("bad dlc in {spec}"))?
                } else {
                    8
                };
                if dlc > 8 {
                    return Err("dlc must be 0-8".into());
                }
                scenario.senders.push((id, period, dlc));
            }
            "--attack" => scenario.attacks.push(parse_id(&next("--attack")?)?),
            "--toggle" => {
                let spec = next("--toggle")?;
                let (a, b) = spec
                    .split_once(',')
                    .ok_or(format!("--toggle expects id,id, got {spec}"))?;
                scenario.toggle = Some((parse_id(a)?, parse_id(b)?));
            }
            "--defend" => {
                let ids: Result<Vec<CanId>, String> =
                    next("--defend")?.split(',').map(parse_id).collect();
                scenario.defend = Some(ids?);
            }
            "--parrot" => scenario.parrot = Some(parse_id(&next("--parrot")?)?),
            "--ids" => scenario.ids = true,
            "--ber" => {
                scenario.ber = Some(
                    next("--ber")?
                        .parse()
                        .map_err(|_| "bad --ber value".to_string())?,
                );
            }
            "--timeline" => scenario.timeline = true,
            "--candump" => scenario.candump = true,
            "--vcd" => scenario.vcd = true,
            other => return Err(format!("unknown option {other} (see module docs)")),
        }
    }
    Ok(scenario)
}

fn run() -> Result<(), String> {
    let scenario = parse_args()?;
    let speed = scenario.speed.unwrap_or(BusSpeed::K500);
    let mut builder = SimBuilder::new(speed);
    let mut watched: Vec<(usize, String)> = Vec::new();

    for &(id, period_ms, dlc) in &scenario.senders {
        let payload = vec![0x5Au8; dlc as usize];
        let frame = CanFrame::data_frame(id, &payload).map_err(|e| e.to_string())?;
        watched.push((builder.node_id(), format!("{id}")));
        builder = builder.node(Node::new(
            format!("sender-{id}"),
            Box::new(PeriodicSender::new(
                frame,
                speed.bits_in_millis(period_ms).max(1),
                0,
            )),
        ));
    }

    for &id in &scenario.attacks {
        watched.push((builder.node_id(), format!("atk {id}")));
        builder = builder.node(Node::new(
            format!("attacker-{id}"),
            Box::new(SuspensionAttacker::new(
                DosKind::Targeted { id },
                speed.bits_in_millis(30.0).max(1),
            )),
        ));
    }
    if let Some((a, b)) = scenario.toggle {
        watched.push((builder.node_id(), format!("tgl {a}")));
        builder = builder.node(Node::new(
            "attacker-toggle",
            Box::new(TogglingAttacker::new(
                a,
                b,
                speed.bits_in_millis(10.0).max(1),
            )),
        ));
    }

    if let Some(ids) = &scenario.defend {
        let mut all = ids.clone();
        all.sort_unstable();
        let list = EcuList::new(all).map_err(|e| e.to_string())?;
        let own = ids[0];
        let index = list.index_of(own).expect("own id is in the list");
        builder = builder.node(
            Node::new(format!("michican-{own}"), Box::new(SilentApplication))
                .with_agent(Box::new(MichiCan::new(DetectionFsm::for_ecu(&list, index)))),
        );
    }
    if let Some(own) = scenario.parrot {
        builder = builder.node(Node::new(
            format!("parrot-{own}"),
            Box::new(ParrotDefender::new(own, speed.bits_in_millis(100.0))),
        ));
    }
    // The IDS: a silent node plus the registry's typical 500 kbit/s
    // detector pair as passive taps (10 ms frequency window, 10-frame
    // threshold; interval training over 8 samples with ±50 % tolerance).
    let mut taps = Vec::new();
    if scenario.ids {
        builder = builder.node(Node::new("ids", Box::new(SilentApplication)));
        for family in ["frequency", "interval"] {
            let variant = variants_for(family).expect("registry family")[0];
            taps.push(DetectorTap::new(variant.detector, variant.instantiate()));
        }
        for tap in &taps {
            builder = builder.tap(tap.as_frame_tap());
        }
    }
    // An always-present listener keeps lone senders acknowledged.
    let monitor = builder.node_id();
    builder = builder.node(Node::new("monitor", Box::new(SilentApplication)));

    if let Some(ber) = scenario.ber {
        builder = builder.fault(FaultModel::random(ber, 0xB5));
    }
    if scenario.vcd {
        builder = builder.trace();
    }

    let mut sim = builder.build();
    sim.run_millis(scenario.capture_ms);

    // Report.
    println!(
        "capture: {:.1} ms at {} — {} nodes, {} events, bus load {:.1} %",
        scenario.capture_ms,
        speed,
        sim.node_count(),
        sim.events().len(),
        sim.observed_bus_load() * 100.0
    );
    let count = |f: &dyn Fn(&EventKind) -> bool| sim.events().iter().filter(|e| f(&e.kind)).count();
    println!(
        "  frames delivered: {}   errors: {}   bus-offs: {}   recoveries: {}",
        count(&|k| matches!(k, EventKind::FrameReceived { .. })) / sim.node_count().max(1),
        count(&|k| matches!(k, EventKind::ErrorDetected { .. })),
        count(&|k| matches!(k, EventKind::BusOff)),
        count(&|k| matches!(k, EventKind::Recovered)),
    );
    for tap in &taps {
        println!("  ids {}: {} alerts", tap.label(), tap.alerts().len());
    }
    for &(node, ref label) in &watched {
        let episodes = bus_off_episodes(sim.events(), node);
        for ep in episodes {
            println!(
                "  {label}: bused off after {} attempts in {} bits ({:.2} ms)",
                ep.attempts,
                ep.duration().as_bits(),
                ep.duration().as_millis(speed)
            );
        }
    }

    if scenario.timeline {
        let events = bench::scenarios::timeline_events(sim.events());
        let nodes: Vec<usize> = watched.iter().map(|&(n, _)| n).collect();
        let labels: Vec<(usize, &str)> =
            watched.iter().map(|&(n, ref l)| (n, l.as_str())).collect();
        let timeline = Timeline::build(&events, &nodes, sim.now().bits());
        print!("{}", timeline.render_ascii(&labels, 100));
    }

    if scenario.vcd {
        if let Some(trace) = sim.trace() {
            let signal = can_trace::VcdSignal::new("CAN_RX", trace.levels().to_vec());
            print!("{}", can_trace::write_vcd(speed, &[signal]));
        }
    }

    if scenario.candump {
        let log: Vec<LogEntry> = sim
            .events()
            .iter()
            .filter(|e| e.node == monitor)
            .filter_map(|e| match &e.kind {
                EventKind::FrameReceived { frame } => {
                    Some(LogEntry::from_bits(e.at.bits(), speed, "vcan0", *frame))
                }
                _ => None,
            })
            .collect();
        print!("{}", write_log(&log));
    }

    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}
