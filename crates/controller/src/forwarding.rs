//! Reactive shortest-path forwarding.
//!
//! On a dataplane table miss the controller either floods (broadcast /
//! unknown destination) or installs a rule chain along the shortest path to
//! the destination's tracked location and re-injects the packet. Rules use
//! Floodlight-style 5-second idle timeouts, so paths dissolve shortly after
//! traffic stops — which is why a host-location hijack takes effect as soon
//! as new flows are set up toward the attacker's location.

use openflow::{Action, FlowMatch, FlowModCommand, OfMessage};
use sdn_types::packet::EthernetFrame;
use sdn_types::{DatapathId, PortNo};

use crate::devices::DeviceTable;
use crate::topology::Topology;

/// Idle timeout for reactive rules, seconds (Floodlight default).
pub const RULE_IDLE_TIMEOUT_SECS: u16 = 5;

/// Priority for reactive rules.
pub const RULE_PRIORITY: u16 = 100;

/// Computes the control messages answering a dataplane table miss.
///
/// Returns `(messages, flooded)`: the FlowMods/PacketOuts to send, and
/// whether the packet was flooded rather than path-routed.
///
/// `flood_scope` restricts flooding to an explicit port list instead of the
/// switch's `FLOOD` action. On loop-free testbeds it is `None` and floods
/// use plain `Output(FLOOD)`; on fabrics with cycles the controller passes
/// the switch's spanning-tree flood ports (tree trunks plus host-facing
/// ports) so a broadcast traverses each switch exactly once instead of
/// storming.
pub fn handle_table_miss(
    topology: &Topology,
    devices: &DeviceTable,
    dpid: DatapathId,
    in_port: PortNo,
    frame: &EthernetFrame,
    flood_scope: Option<&[PortNo]>,
) -> (Vec<(DatapathId, OfMessage)>, bool) {
    let data = frame.encode_to_vec();

    // Broadcast/multicast or unknown unicast: flood at the reporting switch.
    let dst_loc = if frame.dst.is_multicast() {
        None
    } else {
        devices.location_of(&frame.dst)
    };
    let Some(dst_loc) = dst_loc else {
        return (
            vec![(
                dpid,
                OfMessage::PacketOut {
                    in_port,
                    actions: flood_actions(in_port, flood_scope),
                    data,
                },
            )],
            true,
        );
    };

    // Known unicast: install the path and re-inject.
    let Some(path) = topology.shortest_path(dpid, dst_loc.dpid) else {
        // Destination tracked but unreachable in the link graph: flood.
        return (
            vec![(
                dpid,
                OfMessage::PacketOut {
                    in_port,
                    actions: flood_actions(in_port, flood_scope),
                    data,
                },
            )],
            true,
        );
    };

    let flow_match = FlowMatch::new()
        .with_eth_src(frame.src)
        .with_eth_dst(frame.dst);
    let mut msgs = Vec::new();

    // Egress rule at the destination switch.
    msgs.push((dst_loc.dpid, flow_mod(flow_match, dst_loc.port)));
    // Transit rules along the path.
    for hop in &path {
        msgs.push((hop.src.dpid, flow_mod(flow_match, hop.src.port)));
    }

    // Re-inject at the reporting switch toward the first hop (or straight
    // to the host if it is local).
    let out_port = path.first().map(|hop| hop.src.port).unwrap_or(dst_loc.port);
    msgs.push((
        dpid,
        OfMessage::PacketOut {
            in_port,
            actions: vec![Action::Output(out_port)],
            data,
        },
    ));
    (msgs, false)
}

/// The flood action list: the switch-native `FLOOD` port when unscoped, or
/// one explicit `Output` per scoped port (ascending, `in_port` excluded).
fn flood_actions(in_port: PortNo, flood_scope: Option<&[PortNo]>) -> Vec<Action> {
    match flood_scope {
        None => vec![Action::Output(PortNo::FLOOD)],
        Some(ports) => ports
            .iter()
            .filter(|p| **p != in_port)
            .map(|p| Action::Output(*p))
            .collect(),
    }
}

fn flow_mod(flow_match: FlowMatch, out: PortNo) -> OfMessage {
    OfMessage::FlowMod {
        command: FlowModCommand::Add,
        flow_match,
        priority: RULE_PRIORITY,
        idle_timeout_secs: RULE_IDLE_TIMEOUT_SECS,
        hard_timeout_secs: 0,
        actions: vec![Action::Output(out)],
        cookie: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::DirectedLink;
    use sdn_types::packet::Payload;
    use sdn_types::{IpAddr, MacAddr, SimTime, SwitchPort};

    fn sp(d: u64, p: u16) -> SwitchPort {
        SwitchPort::new(DatapathId::new(d), PortNo::new(p))
    }

    fn frame(src: u32, dst_mac: MacAddr) -> EthernetFrame {
        EthernetFrame::new(
            MacAddr::from_index(src),
            dst_mac,
            Payload::Opaque {
                ethertype: 0x1234,
                data: vec![],
            },
        )
    }

    fn line_topology() -> (Topology, DeviceTable) {
        let mut t = Topology::new();
        let now = SimTime::ZERO;
        t.observe(DirectedLink::new(sp(1, 2), sp(2, 1)), now, None);
        t.observe(DirectedLink::new(sp(2, 1), sp(1, 2)), now, None);
        t.observe(DirectedLink::new(sp(2, 2), sp(3, 1)), now, None);
        t.observe(DirectedLink::new(sp(3, 1), sp(2, 2)), now, None);
        let mut d = DeviceTable::new();
        d.commit(
            MacAddr::from_index(1),
            Some(IpAddr::new(10, 0, 0, 1)),
            sp(1, 1),
            now,
        );
        d.commit(
            MacAddr::from_index(2),
            Some(IpAddr::new(10, 0, 0, 2)),
            sp(3, 3),
            now,
        );
        (t, d)
    }

    #[test]
    fn broadcast_floods() {
        let (t, d) = line_topology();
        let (msgs, flooded) = handle_table_miss(
            &t,
            &d,
            DatapathId::new(1),
            PortNo::new(1),
            &frame(1, MacAddr::BROADCAST),
            None,
        );
        assert!(flooded);
        assert_eq!(msgs.len(), 1);
        assert!(matches!(&msgs[0].1, OfMessage::PacketOut { actions, .. }
            if actions == &vec![Action::Output(PortNo::FLOOD)]));
    }

    #[test]
    fn unknown_unicast_floods() {
        let (t, d) = line_topology();
        let (_, flooded) = handle_table_miss(
            &t,
            &d,
            DatapathId::new(1),
            PortNo::new(1),
            &frame(1, MacAddr::from_index(99)),
            None,
        );
        assert!(flooded);
    }

    #[test]
    fn known_unicast_installs_path_rules_and_reinjects() {
        let (t, d) = line_topology();
        let (msgs, flooded) = handle_table_miss(
            &t,
            &d,
            DatapathId::new(1),
            PortNo::new(1),
            &frame(1, MacAddr::from_index(2)),
            None,
        );
        assert!(!flooded);
        // Rules: egress at sw3 + transit at sw1, sw2; then one PacketOut.
        let flow_mods: Vec<&(DatapathId, OfMessage)> = msgs
            .iter()
            .filter(|(_, m)| matches!(m, OfMessage::FlowMod { .. }))
            .collect();
        assert_eq!(flow_mods.len(), 3);
        let targets: Vec<u64> = flow_mods.iter().map(|(d, _)| d.raw()).collect();
        assert!(targets.contains(&1) && targets.contains(&2) && targets.contains(&3));
        let packet_outs: Vec<&(DatapathId, OfMessage)> = msgs
            .iter()
            .filter(|(_, m)| matches!(m, OfMessage::PacketOut { .. }))
            .collect();
        assert_eq!(packet_outs.len(), 1);
        assert_eq!(packet_outs[0].0, DatapathId::new(1));
        // Re-injection must go toward sw2 (port 2 on sw1).
        if let OfMessage::PacketOut { actions, .. } = &packet_outs[0].1 {
            assert_eq!(actions, &vec![Action::Output(PortNo::new(2))]);
        }
    }

    #[test]
    fn same_switch_destination_outputs_directly() {
        let (t, mut d) = line_topology();
        d.commit(
            MacAddr::from_index(3),
            Some(IpAddr::new(10, 0, 0, 3)),
            sp(1, 4),
            SimTime::ZERO,
        );
        let (msgs, flooded) = handle_table_miss(
            &t,
            &d,
            DatapathId::new(1),
            PortNo::new(1),
            &frame(1, MacAddr::from_index(3)),
            None,
        );
        assert!(!flooded);
        if let Some((_, OfMessage::PacketOut { actions, .. })) = msgs.last() {
            assert_eq!(actions, &vec![Action::Output(PortNo::new(4))]);
        } else {
            panic!("last message must be the PacketOut");
        }
    }

    #[test]
    fn tracked_but_unreachable_floods() {
        let (mut t, d) = line_topology();
        // Cut the graph: remove links out of sw1.
        t.remove(&DirectedLink::new(sp(1, 2), sp(2, 1)));
        let (_, flooded) = handle_table_miss(
            &t,
            &d,
            DatapathId::new(1),
            PortNo::new(1),
            &frame(1, MacAddr::from_index(2)),
            None,
        );
        assert!(flooded);
    }

    #[test]
    fn scoped_flood_outputs_explicit_ports_minus_ingress() {
        let (t, d) = line_topology();
        let scope = vec![PortNo::new(1), PortNo::new(2), PortNo::new(3)];
        let (msgs, flooded) = handle_table_miss(
            &t,
            &d,
            DatapathId::new(1),
            PortNo::new(1),
            &frame(1, MacAddr::BROADCAST),
            Some(&scope),
        );
        assert!(flooded);
        assert_eq!(msgs.len(), 1);
        if let OfMessage::PacketOut { actions, .. } = &msgs[0].1 {
            assert_eq!(
                actions,
                &vec![
                    Action::Output(PortNo::new(2)),
                    Action::Output(PortNo::new(3)),
                ]
            );
        } else {
            panic!("expected a PacketOut");
        }
    }
}
