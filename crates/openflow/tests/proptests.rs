//! Property tests for flow-table invariants.

use tm_prop::prelude::*;

use openflow::{Action, FlowEntry, FlowMatch, FlowTable, MatchOutcome};
use sdn_types::packet::{EthernetFrame, Payload};
use sdn_types::{Duration, MacAddr, PortNo, SimTime};

fn arb_match() -> impl Strategy<Value = FlowMatch> {
    (
        option::of(0u16..8),
        option::of(any::<u8>()),
        option::of(any::<u8>()),
    )
        .prop_map(|(in_port, src, dst)| {
            let mut m = FlowMatch::new();
            if let Some(p) = in_port {
                m = m.with_in_port(PortNo::new(p));
            }
            if let Some(s) = src {
                m = m.with_eth_src(MacAddr::new([s; 6]));
            }
            if let Some(d) = dst {
                m = m.with_eth_dst(MacAddr::new([d; 6]));
            }
            m
        })
}

fn arb_entry() -> impl Strategy<Value = FlowEntry> {
    (arb_match(), 0u16..1000, 0u16..8).prop_map(|(m, priority, port)| {
        FlowEntry::new(m, vec![Action::Output(PortNo::new(port))]).with_priority(priority)
    })
}

fn frame(src: u8, dst: u8) -> EthernetFrame {
    EthernetFrame::new(
        MacAddr::new([src; 6]),
        MacAddr::new([dst; 6]),
        Payload::Opaque {
            ethertype: 0x1234,
            data: vec![0; 10],
        },
    )
}

tm_prop! {
    /// The table always consults rules in non-increasing priority order.
    #[test]
    fn priorities_are_sorted_after_any_insert_sequence(entries in collection::vec(arb_entry(), 0..40)) {
        let mut table = FlowTable::new();
        for e in entries {
            table.insert(e, SimTime::ZERO);
        }
        let priorities: Vec<u16> = table.entries().map(|e| e.priority).collect();
        for pair in priorities.windows(2) {
            prop_assert!(pair[0] >= pair[1], "priorities must be non-increasing: {priorities:?}");
        }
    }

    /// A returned match must actually match the frame, and must be the
    /// first (highest-priority) matching rule.
    #[test]
    fn process_returns_highest_priority_match(
        entries in collection::vec(arb_entry(), 1..30),
        src in any::<u8>(),
        dst in any::<u8>(),
        in_port in 0u16..8,
    ) {
        let mut table = FlowTable::new();
        for e in entries {
            table.insert(e, SimTime::ZERO);
        }
        let f = frame(src, dst);
        let port = PortNo::new(in_port);
        let expected = table
            .entries()
            .find(|e| e.flow_match.matches(&f, port))
            .map(|e| e.actions.clone());
        let snapshot: Vec<FlowEntry> = table.entries().cloned().collect();
        match (table.process(&f, port, SimTime::ZERO), expected) {
            (MatchOutcome::Miss, None) => {}
            (MatchOutcome::Miss, Some(_)) => prop_assert!(false, "missed but a rule matches"),
            (MatchOutcome::Forward { .. }, None) => prop_assert!(false, "forwarded with no matching rule: {snapshot:?}"),
            (MatchOutcome::Forward { ports, .. }, Some(actions)) => {
                let want: Vec<PortNo> = actions.iter().filter_map(|a| match a {
                    Action::Output(p) => Some(*p),
                    _ => None,
                }).collect();
                prop_assert_eq!(ports, want);
            }
        }
    }

    /// Counters: total packet count across rules equals the number of hits.
    #[test]
    fn counters_sum_to_hits(
        entries in collection::vec(arb_entry(), 1..10),
        frames in collection::vec((any::<u8>(), any::<u8>(), 0u16..8), 0..50),
    ) {
        let mut table = FlowTable::new();
        for e in entries {
            table.insert(e, SimTime::ZERO);
        }
        let mut hits = 0u64;
        for (src, dst, port) in frames {
            if let MatchOutcome::Forward { .. } =
                table.process(&frame(src, dst), PortNo::new(port), SimTime::ZERO)
            {
                hits += 1;
            }
        }
        let total: u64 = table.stats().iter().map(|s| s.packet_count).sum();
        prop_assert_eq!(total, hits);
    }

    /// Expiry is total: after expire(t ≥ all hard timeouts), no timed rule
    /// survives, and expire never removes a rule with no timeout.
    #[test]
    fn expiry_respects_timeouts(
        timeouts in collection::vec(option::of(1u64..100), 1..20),
    ) {
        let mut table = FlowTable::new();
        let mut timed = 0usize;
        for (i, t) in timeouts.iter().enumerate() {
            let mut e = FlowEntry::new(
                FlowMatch::new().with_in_port(PortNo::new(i as u16)),
                vec![Action::Output(PortNo::new(1))],
            );
            if let Some(secs) = t {
                e = e.with_hard_timeout(Duration::from_secs(*secs));
                timed += 1;
            }
            table.insert(e, SimTime::ZERO);
        }
        let total = table.len();
        let removed = table.expire(SimTime::from_secs(200));
        prop_assert_eq!(removed.len(), timed);
        prop_assert_eq!(table.len(), total - timed);
    }
}

// ---------- wire codec ----------

use openflow::wire;
use openflow::{
    FlowModCommand, FlowRemovedReason, FlowStatsEntry, OfMessage, PacketInReason, PortDesc,
    PortLinkState, PortStatsEntry, PortStatusReason, Xid,
};
use sdn_types::{DatapathId, IpAddr, MacAddr as Mac};
use tm_prop::bytes::mutation;

fn arb_full_match() -> impl Strategy<Value = FlowMatch> {
    (
        option::of(0u16..0xff00),
        option::of(any::<[u8; 6]>()),
        option::of(any::<[u8; 6]>()),
        option::of(any::<u16>()),
        option::of(any::<[u8; 4]>()),
        option::of(any::<[u8; 4]>()),
        option::of(any::<u8>()),
        option::of(any::<u16>()),
        option::of(any::<u16>()),
    )
        .prop_map(
            |(in_port, src, dst, et, ip_s, ip_d, proto, l4s, l4d)| FlowMatch {
                in_port: in_port.map(PortNo::new),
                eth_src: src.map(Mac::new),
                eth_dst: dst.map(Mac::new),
                ethertype: et,
                ip_src: ip_s.map(IpAddr::from),
                ip_dst: ip_d.map(IpAddr::from),
                ip_proto: proto,
                l4_src: l4s,
                l4_dst: l4d,
            },
        )
}

fn arb_actions() -> impl Strategy<Value = Vec<Action>> {
    collection::vec(
        prop_oneof![
            (0u16..0xff00).prop_map(|p| Action::Output(PortNo::new(p))),
            any::<[u8; 6]>().prop_map(|m| Action::SetEthSrc(Mac::new(m))),
            any::<[u8; 6]>().prop_map(|m| Action::SetEthDst(Mac::new(m))),
            any::<[u8; 4]>().prop_map(|ip| Action::SetIpSrc(IpAddr::from(ip))),
            any::<[u8; 4]>().prop_map(|ip| Action::SetIpDst(IpAddr::from(ip))),
        ],
        0..5,
    )
}

fn arb_port_desc() -> impl Strategy<Value = PortDesc> {
    (any::<u16>(), any::<[u8; 6]>(), any::<bool>()).prop_map(|(port, mac, up)| PortDesc {
        port_no: PortNo::new(port),
        hw_addr: Mac::new(mac),
        state: if up {
            PortLinkState::Up
        } else {
            PortLinkState::Down
        },
    })
}

/// Every `OfMessage` variant, with the field ranges the wire can carry
/// (xids are 32-bit on the wire; `PortStatus::observed_at` is not sent).
fn arb_message() -> impl Strategy<Value = OfMessage> {
    let xid = || any::<u32>().prop_map(|x| Xid(u64::from(x)));
    prop_oneof![
        Just(OfMessage::Hello),
        Just(OfMessage::FeaturesRequest),
        (xid(), any::<u64>()).prop_map(|(xid, payload)| OfMessage::EchoRequest { xid, payload }),
        (xid(), any::<u64>()).prop_map(|(xid, payload)| OfMessage::EchoReply { xid, payload }),
        (any::<u64>(), collection::vec(arb_port_desc(), 0..4)).prop_map(|(dpid, ports)| {
            OfMessage::FeaturesReply {
                dpid: DatapathId::new(dpid),
                ports,
            }
        }),
        (
            any::<u16>(),
            any::<bool>(),
            collection::vec(any::<u8>(), 0..64)
        )
            .prop_map(|(port, action, data)| OfMessage::PacketIn {
                in_port: PortNo::new(port),
                reason: if action {
                    PacketInReason::Action
                } else {
                    PacketInReason::NoMatch
                },
                data,
            }),
        (
            any::<u16>(),
            arb_actions(),
            collection::vec(any::<u8>(), 0..64)
        )
            .prop_map(|(port, actions, data)| OfMessage::PacketOut {
                in_port: PortNo::new(port),
                actions,
                data,
            }),
        (
            arb_full_match(),
            arb_actions(),
            any::<u16>(),
            any::<u64>(),
            any::<bool>()
        )
            .prop_map(|(flow_match, actions, priority, cookie, delete)| {
                OfMessage::FlowMod {
                    command: if delete {
                        FlowModCommand::Delete
                    } else {
                        FlowModCommand::Add
                    },
                    flow_match,
                    priority,
                    idle_timeout_secs: priority / 3,
                    hard_timeout_secs: priority / 7,
                    actions,
                    cookie,
                }
            }),
        (
            arb_full_match(),
            any::<u16>(),
            0u8..3,
            any::<u64>(),
            any::<u64>()
        )
            .prop_map(|(flow_match, priority, reason, packet_count, byte_count)| {
                OfMessage::FlowRemoved {
                    flow_match,
                    priority,
                    reason: match reason {
                        0 => FlowRemovedReason::IdleTimeout,
                        1 => FlowRemovedReason::HardTimeout,
                        _ => FlowRemovedReason::Delete,
                    },
                    packet_count,
                    byte_count,
                }
            }),
        (0u8..3, arb_port_desc()).prop_map(|(reason, desc)| OfMessage::PortStatus {
            reason: match reason {
                0 => PortStatusReason::Add,
                1 => PortStatusReason::Delete,
                _ => PortStatusReason::Modify,
            },
            desc,
            observed_at: SimTime::ZERO,
        }),
        xid().prop_map(|xid| OfMessage::FlowStatsRequest { xid }),
        xid().prop_map(|xid| OfMessage::PortStatsRequest { xid }),
        (
            xid(),
            collection::vec(
                (arb_full_match(), any::<u16>(), any::<u64>(), any::<u64>()),
                0..3
            )
        )
            .prop_map(|(xid, flows)| OfMessage::FlowStatsReply {
                xid,
                flows: flows
                    .into_iter()
                    .map(
                        |(flow_match, priority, packet_count, byte_count)| FlowStatsEntry {
                            flow_match,
                            priority,
                            packet_count,
                            byte_count,
                        }
                    )
                    .collect(),
            }),
        (
            xid(),
            collection::vec(
                (
                    any::<u16>(),
                    any::<u64>(),
                    any::<u64>(),
                    any::<u64>(),
                    any::<u64>()
                ),
                0..3
            )
        )
            .prop_map(|(xid, ports)| OfMessage::PortStatsReply {
                xid,
                ports: ports
                    .into_iter()
                    .map(
                        |(port, rx_packets, tx_packets, rx_bytes, tx_bytes)| PortStatsEntry {
                            port_no: PortNo::new(port),
                            rx_packets,
                            tx_packets,
                            rx_bytes,
                            tx_bytes,
                        }
                    )
                    .collect(),
            }),
    ]
}

tm_prop! {
    /// Every message variant round-trips through the wire format as is.
    #[test]
    fn wire_every_message_round_trips(xid in any::<u32>(), msg in arb_message()) {
        let (got_xid, decoded) = wire::decode(&wire::encode(Xid(u64::from(xid)), &msg))
            .expect("round trip");
        prop_assert_eq!(decoded, msg);
        let header_xid = match &msg {
            OfMessage::EchoRequest { xid, .. }
            | OfMessage::EchoReply { xid, .. }
            | OfMessage::FlowStatsRequest { xid }
            | OfMessage::FlowStatsReply { xid, .. }
            | OfMessage::PortStatsRequest { xid }
            | OfMessage::PortStatsReply { xid, .. } => *xid,
            _ => Xid(u64::from(xid)),
        };
        prop_assert_eq!(got_xid, header_xid);
    }

    /// Truncations, flips and splices of a valid encoding decode to `Err`
    /// or to a message that is a fixed point of another encode/decode
    /// round; the decoder never panics.
    #[test]
    fn wire_mutated_messages_decode_to_err_or_a_stable_message(
        xid in any::<u32>(),
        msg in arb_message(),
        mutations in collection::vec(mutation(), 1..4),
    ) {
        let mut bytes = wire::encode(Xid(u64::from(xid)), &msg);
        for m in &mutations {
            bytes = m.apply(&bytes);
        }
        if let Ok((xid, decoded)) = wire::decode(&bytes) {
            let again = wire::decode(&wire::encode(xid, &decoded));
            prop_assert_eq!(again, Ok((xid, decoded)));
        }
    }

    /// Any FlowMod survives the OpenFlow 1.0 binary wire format.
    #[test]
    fn wire_flow_mod_round_trips(
        xid in any::<u32>(),
        m in arb_full_match(),
        actions in arb_actions(),
        priority in any::<u16>(),
        idle in any::<u16>(),
        hard in any::<u16>(),
        cookie in any::<u64>(),
        delete in any::<bool>(),
    ) {
        let msg = OfMessage::FlowMod {
            command: if delete { FlowModCommand::Delete } else { FlowModCommand::Add },
            flow_match: m,
            priority,
            idle_timeout_secs: idle,
            hard_timeout_secs: hard,
            actions,
            cookie,
        };
        let bytes = wire::encode(Xid(u64::from(xid)), &msg);
        let (got_xid, decoded) = wire::decode(&bytes).expect("round trip");
        prop_assert_eq!(got_xid, Xid(u64::from(xid)));
        prop_assert_eq!(decoded, msg);
    }

    /// PacketIn/PacketOut data payloads survive byte-exactly.
    #[test]
    fn wire_packet_messages_round_trip(
        data in collection::vec(any::<u8>(), 0..256),
        in_port in 0u16..0xff00,
        actions in arb_actions(),
    ) {
        let pin = OfMessage::PacketIn {
            in_port: PortNo::new(in_port),
            reason: openflow::PacketInReason::NoMatch,
            data: data.clone(),
        };
        let (_, decoded) = wire::decode(&wire::encode(Xid(1), &pin)).expect("packet-in");
        prop_assert_eq!(decoded, pin);

        let pout = OfMessage::PacketOut {
            in_port: PortNo::new(in_port),
            actions,
            data,
        };
        let (_, decoded) = wire::decode(&wire::encode(Xid(2), &pout)).expect("packet-out");
        prop_assert_eq!(decoded, pout);
    }

    /// Arbitrary bytes never panic the decoder.
    #[test]
    fn wire_decoder_is_total(bytes in collection::vec(any::<u8>(), 0..256)) {
        let _ = wire::decode(&bytes);
    }
}
