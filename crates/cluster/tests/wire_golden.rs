//! The bytes of every cluster message, pinned.
//!
//! `golden/messages.hex` holds one line per sample below, in order: the
//! message's [`encode_to_vec`] payload as lowercase hex (the frame without
//! its length prefix). Every variant of [`Message`], [`Inbound`] and [`Seed`]
//! appears, each field carrying a distinct value, so a renumbered tag or a
//! reordered field changes a line. A change to this file is a change of the
//! wire format: a worker of one build no longer talks to a coordinator of
//! another.

use cluster::protocol::{AdjRows, Inbound, Message, Seed};
use dataflow::codec::{decode_exact, encode_to_vec};

fn samples() -> Vec<Message> {
    let reset = |inbound: Inbound, committed: Option<u32>, cut: bool| Message::StepReset {
        superstep: 0x0a0b_0c0d,
        step: 0x1112_1314_1516_1718,
        committed,
        parts: vec![
            (1, Seed::Committed),
            (3, Seed::Init),
            (5, Seed::Compensate),
            (7, Seed::Pushed(vec![(7, 0x21), (15, 0x22)])),
            (9, Seed::Pushed(vec![])),
        ],
        inbound,
        cut,
    };
    vec![
        Message::Hello { worker: 0x0102_0304_0506_0708 },
        Message::Welcome,
        Message::LoadProgram {
            program: "pagerank·".into(),
            n: 0x1234,
            adjacency: vec![
                (2, vec![(2, vec![3, 4, 5]), (6, vec![])].into()),
                (4, AdjRows::default()),
                (9, vec![(9, vec![0])].into()),
            ],
        },
        Message::LoadProgram { program: String::new(), n: 0, adjacency: vec![] },
        Message::StepDone { pid: 0x31, superstep: 0x3233, changed: 0x3435, shuffled: 0x3637 },
        Message::Heartbeat { nonce: 0x4142_4344 },
        Message::HeartbeatAck { nonce: u64::MAX },
        Message::Shutdown,
        Message::TelemetryFrame {
            worker: 0x51,
            superstep: 0x52,
            seq: 0x53,
            spans: vec![(1, 0, 12, 1_500), (1, 1, 12, 900), (2, 2, 7, 300), (3, 3, 4_096, 2)],
        },
        Message::Membership {
            epoch: 0x61,
            data_timeout_ms: 2_500,
            peers: vec![(0, 40_001), (1, 40_002), (2, 40_003)],
            assignment: vec![0, 1, 2, 0, 2, 1],
        },
        Message::PeerHello { from_worker: 0x71, epoch: 0x72 },
        Message::ShuffleFrame {
            from_worker: 0x81,
            epoch: 0x82,
            superstep: 0x83,
            msgs: vec![(0, 4, 17), (1, 6, u64::MAX - 1)],
        },
        Message::ShuffleFrame { from_worker: 0x81, epoch: 0x82, superstep: 0x84, msgs: vec![] },
        Message::ShuffleFlush {
            from_worker: 0x91,
            epoch: 0x92,
            superstep: 0x93,
            frames: 0x94,
            bytes: 0x95,
        },
        Message::StepGo {
            superstep: 0xa1,
            step: 0xa2,
            inbound: None,
            pids: vec![1, 3],
            cut: false,
        },
        Message::StepGo {
            superstep: 0xa3,
            step: 0xa4,
            inbound: Some(0xa5),
            pids: vec![],
            cut: true,
        },
        reset(Inbound::Empty, None, false),
        reset(Inbound::Slot(0x0a0b_0c0c), Some(0x0a0b_0c0b), true),
        reset(Inbound::Regenerate, Some(0x0a0b_0c0a), false),
        Message::StepFailed { superstep: 0xb1, waiting_on: vec![0, 2] },
        Message::Pull { committed: 0xc1, pids: vec![1, 3, 5] },
        Message::PartState {
            pid: 0xd1,
            superstep: 0xd2,
            state: vec![(3, 0), (7, 1), (11, u64::MAX)],
        },
    ]
}

/// Which variant each sample is, by an exhaustive match: a variant added to
/// the protocol does not compile here until it has a sample.
fn variants(msg: &Message) -> Vec<&'static str> {
    let mut names = vec![match msg {
        Message::Hello { .. } => "Hello",
        Message::Welcome => "Welcome",
        Message::LoadProgram { .. } => "LoadProgram",
        Message::StepDone { .. } => "StepDone",
        Message::Heartbeat { .. } => "Heartbeat",
        Message::HeartbeatAck { .. } => "HeartbeatAck",
        Message::Shutdown => "Shutdown",
        Message::TelemetryFrame { .. } => "TelemetryFrame",
        Message::Membership { .. } => "Membership",
        Message::PeerHello { .. } => "PeerHello",
        Message::ShuffleFrame { .. } => "ShuffleFrame",
        Message::ShuffleFlush { .. } => "ShuffleFlush",
        Message::StepGo { .. } => "StepGo",
        Message::StepReset { .. } => "StepReset",
        Message::StepFailed { .. } => "StepFailed",
        Message::Pull { .. } => "Pull",
        Message::PartState { .. } => "PartState",
    }];
    if let Message::StepReset { parts, inbound, .. } = msg {
        names.push(match inbound {
            Inbound::Empty => "Inbound::Empty",
            Inbound::Slot(_) => "Inbound::Slot",
            Inbound::Regenerate => "Inbound::Regenerate",
        });
        names.extend(parts.iter().map(|(_, seed)| match seed {
            Seed::Committed => "Seed::Committed",
            Seed::Init => "Seed::Init",
            Seed::Compensate => "Seed::Compensate",
            Seed::Pushed(_) => "Seed::Pushed",
        }));
    }
    names
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|byte| format!("{byte:02x}")).collect()
}

fn unhex(line: &str) -> Vec<u8> {
    (0..line.len())
        .step_by(2)
        .map(|at| u8::from_str_radix(&line[at..at + 2], 16).expect("a hex byte"))
        .collect()
}

#[test]
fn every_message_encodes_to_its_golden_line_and_decodes_back() {
    let golden: Vec<&str> = include_str!("../golden/messages.hex").lines().collect();
    let samples = samples();
    assert_eq!(golden.len(), samples.len(), "one golden line per sample");
    for (msg, line) in samples.iter().zip(&golden) {
        assert_eq!(hex(&encode_to_vec(msg)), *line, "{msg:?}");
        assert_eq!(&decode_exact::<Message>(&unhex(line)).expect(line), msg, "{line}");
    }
}

#[test]
fn the_samples_cover_every_variant() {
    let mut seen: Vec<&str> = samples().iter().flat_map(variants).collect();
    seen.sort_unstable();
    seen.dedup();
    assert_eq!(seen.len(), 17 + 3 + 4, "{seen:?}");
}
