//! OpenFlow 1.0 binary wire encoding.
//!
//! The simulator passes [`crate::OfMessage`] values in memory,
//! but a controller library is only complete if it can speak the actual
//! protocol. This module implements the OpenFlow 1.0 (wire version `0x01`)
//! binary format for the message subset the workspace uses:
//!
//! `HELLO`, `ECHO_REQUEST`/`ECHO_REPLY`, `FEATURES_REQUEST`/`FEATURES_REPLY`,
//! `PACKET_IN`, `PACKET_OUT`, `FLOW_MOD`, `FLOW_REMOVED`, `PORT_STATUS`,
//! and `STATS_REQUEST`/`STATS_REPLY` (flow + port statistics).
//!
//! Every message round-trips: `decode(encode(m)) == m` (up to the
//! simulator-side `observed_at` diagnostic on `PortStatus`, which has no
//! wire representation and decodes as zero). Unknown or malformed bytes
//! decode to an error, never a panic — verified by fuzz-style property
//! tests.

use sdn_types::buf::BytesMut;

use sdn_types::{IpAddr, MacAddr, ParseError, PortNo, SimTime};

use crate::messages::{
    FlowModCommand, FlowRemovedReason, FlowStatsEntry, OfMessage, PacketInReason, PortStatsEntry,
    PortStatusReason, Xid,
};
use crate::{Action, FlowMatch, PortDesc, PortLinkState};

/// The OpenFlow wire version this codec speaks.
pub const OFP_VERSION: u8 = 0x01;

// Message type codes (OpenFlow 1.0 §5.1).
mod msg_type {
    pub const HELLO: u8 = 0;
    pub const ECHO_REQUEST: u8 = 2;
    pub const ECHO_REPLY: u8 = 3;
    pub const FEATURES_REQUEST: u8 = 5;
    pub const FEATURES_REPLY: u8 = 6;
    pub const PACKET_IN: u8 = 10;
    pub const FLOW_REMOVED: u8 = 11;
    pub const PORT_STATUS: u8 = 12;
    pub const PACKET_OUT: u8 = 13;
    pub const FLOW_MOD: u8 = 14;
    pub const STATS_REQUEST: u8 = 16;
    pub const STATS_REPLY: u8 = 17;
}

// ofp_flow_wildcards bits (OpenFlow 1.0 §5.2.3).
mod wildcard {
    pub const IN_PORT: u32 = 1 << 0;
    pub const DL_VLAN: u32 = 1 << 1;
    pub const DL_SRC: u32 = 1 << 2;
    pub const DL_DST: u32 = 1 << 3;
    pub const DL_TYPE: u32 = 1 << 4;
    pub const NW_PROTO: u32 = 1 << 5;
    pub const TP_SRC: u32 = 1 << 6;
    pub const TP_DST: u32 = 1 << 7;
    pub const NW_SRC_ALL: u32 = 32 << 8;
    pub const NW_DST_ALL: u32 = 32 << 14;
    pub const DL_VLAN_PCP: u32 = 1 << 20;
    pub const NW_TOS: u32 = 1 << 21;
}

// ofp_action_type codes.
mod action_type {
    pub const OUTPUT: u16 = 0;
    pub const SET_DL_SRC: u16 = 4;
    pub const SET_DL_DST: u16 = 5;
    pub const SET_NW_SRC: u16 = 6;
    pub const SET_NW_DST: u16 = 7;
}

// ofp_stats_types.
const STATS_FLOW: u16 = 1;
const STATS_PORT: u16 = 4;

const HEADER_LEN: usize = 8;

const PHY_PORT_LEN: usize = 48;

/// Encodes `msg` (with transaction id `xid`) to OpenFlow 1.0 wire bytes.
pub fn encode(xid: Xid, msg: &OfMessage) -> Vec<u8> {
    let mut body = BytesMut::new();
    let (ty, xid) = match msg {
        OfMessage::Hello => (msg_type::HELLO, xid),
        OfMessage::EchoRequest { xid, payload } => {
            body.put_u64(*payload);
            (msg_type::ECHO_REQUEST, *xid)
        }
        OfMessage::EchoReply { xid, payload } => {
            body.put_u64(*payload);
            (msg_type::ECHO_REPLY, *xid)
        }
        OfMessage::FeaturesRequest => (msg_type::FEATURES_REQUEST, xid),
        OfMessage::FeaturesReply { dpid, ports } => {
            body.put_u64(dpid.raw());
            body.put_u32(256); // n_buffers
            body.put_u8(1); // n_tables
            body.put_slice(&[0; 3]); // pad
            body.put_u32(0); // capabilities
            body.put_u32(0xfff); // actions bitmap
            for p in ports {
                encode_phy_port(&mut body, p);
            }
            (msg_type::FEATURES_REPLY, xid)
        }
        OfMessage::PacketIn {
            in_port,
            reason,
            data,
        } => {
            body.put_u32(u32::MAX); // buffer_id: none (full packet included)
            debug_assert!(
                data.len() <= usize::from(u16::MAX),
                "PacketIn data fits total_len"
            );
            body.put_u16(data.len() as u16);
            body.put_u16(in_port.raw());
            body.put_u8(match reason {
                PacketInReason::NoMatch => 0,
                PacketInReason::Action => 1,
            });
            body.put_u8(0); // pad
            body.put_slice(data);
            (msg_type::PACKET_IN, xid)
        }
        OfMessage::PacketOut {
            in_port,
            actions,
            data,
        } => {
            body.put_u32(u32::MAX); // buffer_id: none
            body.put_u16(in_port.raw());
            let mut acts = BytesMut::new();
            for a in actions {
                encode_action(&mut acts, a);
            }
            debug_assert!(
                acts.len() <= usize::from(u16::MAX),
                "actions fit the length field"
            );
            body.put_u16(acts.len() as u16);
            body.put_slice(&acts);
            body.put_slice(data);
            (msg_type::PACKET_OUT, xid)
        }
        OfMessage::FlowMod {
            command,
            flow_match,
            priority,
            idle_timeout_secs,
            hard_timeout_secs,
            actions,
            cookie,
        } => {
            encode_match(&mut body, flow_match);
            body.put_u64(*cookie);
            body.put_u16(match command {
                FlowModCommand::Add => 0,
                FlowModCommand::Delete => 3,
            });
            body.put_u16(*idle_timeout_secs);
            body.put_u16(*hard_timeout_secs);
            body.put_u16(*priority);
            body.put_u32(u32::MAX); // buffer_id
            body.put_u16(PortNo::NONE.raw()); // out_port
            body.put_u16(1); // flags: OFPFF_SEND_FLOW_REM
            for a in actions {
                encode_action(&mut body, a);
            }
            (msg_type::FLOW_MOD, xid)
        }
        OfMessage::FlowRemoved {
            flow_match,
            priority,
            reason,
            packet_count,
            byte_count,
        } => {
            encode_match(&mut body, flow_match);
            body.put_u64(0); // cookie
            body.put_u16(*priority);
            body.put_u8(match reason {
                FlowRemovedReason::IdleTimeout => 0,
                FlowRemovedReason::HardTimeout => 1,
                FlowRemovedReason::Delete => 2,
            });
            body.put_u8(0); // pad
            body.put_u32(0); // duration_sec
            body.put_u32(0); // duration_nsec
            body.put_u16(0); // idle_timeout
            body.put_slice(&[0; 2]); // pad
            body.put_u64(*packet_count);
            body.put_u64(*byte_count);
            (msg_type::FLOW_REMOVED, xid)
        }
        OfMessage::PortStatus { reason, desc, .. } => {
            body.put_u8(match reason {
                PortStatusReason::Add => 0,
                PortStatusReason::Delete => 1,
                PortStatusReason::Modify => 2,
            });
            body.put_slice(&[0; 7]); // pad
            encode_phy_port(&mut body, desc);
            (msg_type::PORT_STATUS, xid)
        }
        OfMessage::FlowStatsRequest { xid } => {
            body.put_u16(STATS_FLOW);
            body.put_u16(0); // flags
            encode_match(&mut body, &FlowMatch::new());
            body.put_u8(0xff); // table_id: all
            body.put_u8(0); // pad
            body.put_u16(PortNo::NONE.raw()); // out_port
            (msg_type::STATS_REQUEST, *xid)
        }
        OfMessage::PortStatsRequest { xid } => {
            body.put_u16(STATS_PORT);
            body.put_u16(0);
            body.put_u16(PortNo::NONE.raw());
            body.put_slice(&[0; 6]); // pad
            (msg_type::STATS_REQUEST, *xid)
        }
        OfMessage::FlowStatsReply { xid, flows } => {
            body.put_u16(STATS_FLOW);
            body.put_u16(0);
            for f in flows {
                encode_flow_stats(&mut body, f);
            }
            (msg_type::STATS_REPLY, *xid)
        }
        OfMessage::PortStatsReply { xid, ports } => {
            body.put_u16(STATS_PORT);
            body.put_u16(0);
            for p in ports {
                encode_port_stats(&mut body, p);
            }
            (msg_type::STATS_REPLY, *xid)
        }
    };

    debug_assert!(
        HEADER_LEN + body.len() <= usize::from(u16::MAX),
        "message fits header length"
    );
    debug_assert!(
        xid.0 <= u64::from(u32::MAX),
        "xid fits the 32-bit wire field"
    );
    let mut out = Vec::with_capacity(HEADER_LEN + body.len());
    out.push(OFP_VERSION);
    out.push(ty);
    out.extend_from_slice(&((HEADER_LEN + body.len()) as u16).to_be_bytes());
    out.extend_from_slice(&(xid.0 as u32).to_be_bytes());
    out.extend_from_slice(&body);
    out
}

/// Decodes one OpenFlow 1.0 message, returning its transaction id and the
/// parsed message.
pub fn decode(bytes: &[u8]) -> Result<(Xid, OfMessage), ParseError> {
    if bytes.len() < HEADER_LEN {
        return Err(ParseError::truncated("OfMessage", HEADER_LEN, bytes.len()));
    }
    if bytes[0] != OFP_VERSION {
        return Err(ParseError::bad_field("OfMessage", "unsupported version"));
    }
    let ty = bytes[1];
    let length = usize::from(u16::from_be_bytes([bytes[2], bytes[3]]));
    if length < HEADER_LEN || length > bytes.len() {
        return Err(ParseError::bad_field("OfMessage", "bad length"));
    }
    let xid = Xid(u64::from(u32::from_be_bytes([
        bytes[4], bytes[5], bytes[6], bytes[7],
    ])));
    let body = &bytes[HEADER_LEN..length];
    let mut r = Reader::new(body);

    let msg = match ty {
        msg_type::HELLO => OfMessage::Hello,
        msg_type::ECHO_REQUEST => OfMessage::EchoRequest {
            xid,
            payload: r.u64()?,
        },
        msg_type::ECHO_REPLY => OfMessage::EchoReply {
            xid,
            payload: r.u64()?,
        },
        msg_type::FEATURES_REQUEST => OfMessage::FeaturesRequest,
        msg_type::FEATURES_REPLY => {
            let dpid = sdn_types::DatapathId::new(r.u64()?);
            r.skip(4 + 1 + 3 + 4 + 4)?;
            let mut ports = Vec::new();
            while r.remaining() >= PHY_PORT_LEN {
                ports.push(decode_phy_port(&mut r)?);
            }
            OfMessage::FeaturesReply { dpid, ports }
        }
        msg_type::PACKET_IN => {
            let _buffer_id = r.u32()?;
            let total_len = usize::from(r.u16()?);
            let in_port = PortNo::new(r.u16()?);
            let reason = match r.u8()? {
                0 => PacketInReason::NoMatch,
                1 => PacketInReason::Action,
                _ => return Err(ParseError::bad_field("PacketIn", "bad reason")),
            };
            r.skip(1)?;
            let data = r.rest().to_vec();
            if data.len() != total_len {
                return Err(ParseError::bad_field("PacketIn", "length mismatch"));
            }
            OfMessage::PacketIn {
                in_port,
                reason,
                data,
            }
        }
        msg_type::PACKET_OUT => {
            let _buffer_id = r.u32()?;
            let in_port = PortNo::new(r.u16()?);
            let actions_len = usize::from(r.u16()?);
            let mut actions_reader = Reader::new(r.take(actions_len)?);
            let mut actions = Vec::new();
            while actions_reader.remaining() > 0 {
                actions.push(decode_action(&mut actions_reader)?);
            }
            OfMessage::PacketOut {
                in_port,
                actions,
                data: r.rest().to_vec(),
            }
        }
        msg_type::FLOW_MOD => {
            let flow_match = decode_match(&mut r)?;
            let cookie = r.u64()?;
            let command = match r.u16()? {
                0 => FlowModCommand::Add,
                3 => FlowModCommand::Delete,
                _ => return Err(ParseError::bad_field("FlowMod", "unsupported command")),
            };
            let idle_timeout_secs = r.u16()?;
            let hard_timeout_secs = r.u16()?;
            let priority = r.u16()?;
            r.skip(4 + 2 + 2)?;
            let mut actions = Vec::new();
            while r.remaining() > 0 {
                actions.push(decode_action(&mut r)?);
            }
            OfMessage::FlowMod {
                command,
                flow_match,
                priority,
                idle_timeout_secs,
                hard_timeout_secs,
                actions,
                cookie,
            }
        }
        msg_type::FLOW_REMOVED => {
            let flow_match = decode_match(&mut r)?;
            let _cookie = r.u64()?;
            let priority = r.u16()?;
            let reason = match r.u8()? {
                0 => FlowRemovedReason::IdleTimeout,
                1 => FlowRemovedReason::HardTimeout,
                2 => FlowRemovedReason::Delete,
                _ => return Err(ParseError::bad_field("FlowRemoved", "bad reason")),
            };
            r.skip(1 + 4 + 4 + 2 + 2)?;
            let packet_count = r.u64()?;
            let byte_count = r.u64()?;
            OfMessage::FlowRemoved {
                flow_match,
                priority,
                reason,
                packet_count,
                byte_count,
            }
        }
        msg_type::PORT_STATUS => {
            let reason = match r.u8()? {
                0 => PortStatusReason::Add,
                1 => PortStatusReason::Delete,
                2 => PortStatusReason::Modify,
                _ => return Err(ParseError::bad_field("PortStatus", "bad reason")),
            };
            r.skip(7)?;
            let desc = decode_phy_port(&mut r)?;
            OfMessage::PortStatus {
                reason,
                desc,
                observed_at: SimTime::ZERO,
            }
        }
        msg_type::STATS_REQUEST => match r.u16()? {
            STATS_FLOW => OfMessage::FlowStatsRequest { xid },
            STATS_PORT => OfMessage::PortStatsRequest { xid },
            _ => return Err(ParseError::bad_field("StatsRequest", "unsupported type")),
        },
        msg_type::STATS_REPLY => {
            let stats_type = r.u16()?;
            r.skip(2)?; // flags
            match stats_type {
                STATS_FLOW => {
                    let mut flows = Vec::new();
                    while r.remaining() > 0 {
                        flows.push(decode_flow_stats(&mut r)?);
                    }
                    OfMessage::FlowStatsReply { xid, flows }
                }
                STATS_PORT => {
                    let mut ports = Vec::new();
                    while r.remaining() > 0 {
                        ports.push(decode_port_stats(&mut r)?);
                    }
                    OfMessage::PortStatsReply { xid, ports }
                }
                _ => return Err(ParseError::bad_field("StatsReply", "unsupported type")),
            }
        }
        _ => return Err(ParseError::bad_field("OfMessage", "unsupported type")),
    };
    Ok((xid, msg))
}

// ---------- sub-structures ----------

fn encode_match(buf: &mut BytesMut, m: &FlowMatch) {
    let mut wc = 0u32;
    if m.in_port.is_none() {
        wc |= wildcard::IN_PORT;
    }
    wc |= wildcard::DL_VLAN | wildcard::DL_VLAN_PCP | wildcard::NW_TOS;
    if m.eth_src.is_none() {
        wc |= wildcard::DL_SRC;
    }
    if m.eth_dst.is_none() {
        wc |= wildcard::DL_DST;
    }
    if m.ethertype.is_none() {
        wc |= wildcard::DL_TYPE;
    }
    if m.ip_proto.is_none() {
        wc |= wildcard::NW_PROTO;
    }
    if m.l4_src.is_none() {
        wc |= wildcard::TP_SRC;
    }
    if m.l4_dst.is_none() {
        wc |= wildcard::TP_DST;
    }
    if m.ip_src.is_none() {
        wc |= wildcard::NW_SRC_ALL;
    }
    if m.ip_dst.is_none() {
        wc |= wildcard::NW_DST_ALL;
    }
    buf.put_u32(wc);
    buf.put_u16(m.in_port.map(|p| p.raw()).unwrap_or(0));
    buf.put_slice(&m.eth_src.unwrap_or(MacAddr::ZERO).octets());
    buf.put_slice(&m.eth_dst.unwrap_or(MacAddr::ZERO).octets());
    buf.put_u16(0xffff); // dl_vlan: none
    buf.put_u8(0); // dl_vlan_pcp
    buf.put_u8(0); // pad
    buf.put_u16(m.ethertype.unwrap_or(0));
    buf.put_u8(0); // nw_tos
    buf.put_u8(m.ip_proto.unwrap_or(0));
    buf.put_slice(&[0; 2]); // pad
    buf.put_u32(m.ip_src.map(|ip| ip.to_u32()).unwrap_or(0));
    buf.put_u32(m.ip_dst.map(|ip| ip.to_u32()).unwrap_or(0));
    buf.put_u16(m.l4_src.unwrap_or(0));
    buf.put_u16(m.l4_dst.unwrap_or(0));
}

fn decode_match(r: &mut Reader<'_>) -> Result<FlowMatch, ParseError> {
    let wc = r.u32()?;
    let in_port = r.u16()?;
    let eth_src = r.mac()?;
    let eth_dst = r.mac()?;
    r.skip(2 + 1 + 1)?; // vlan, pcp, pad
    let ethertype = r.u16()?;
    r.skip(1)?; // tos
    let ip_proto = r.u8()?;
    r.skip(2)?;
    let ip_src = r.u32()?;
    let ip_dst = r.u32()?;
    let l4_src = r.u16()?;
    let l4_dst = r.u16()?;

    let nw_src_bits = (wc >> 8) & 0x3f;
    let nw_dst_bits = (wc >> 14) & 0x3f;
    Ok(FlowMatch {
        in_port: (wc & wildcard::IN_PORT == 0).then_some(PortNo::new(in_port)),
        eth_src: (wc & wildcard::DL_SRC == 0).then_some(eth_src),
        eth_dst: (wc & wildcard::DL_DST == 0).then_some(eth_dst),
        ethertype: (wc & wildcard::DL_TYPE == 0).then_some(ethertype),
        ip_src: (nw_src_bits < 32).then_some(IpAddr::from_u32(ip_src)),
        ip_dst: (nw_dst_bits < 32).then_some(IpAddr::from_u32(ip_dst)),
        ip_proto: (wc & wildcard::NW_PROTO == 0).then_some(ip_proto),
        l4_src: (wc & wildcard::TP_SRC == 0).then_some(l4_src),
        l4_dst: (wc & wildcard::TP_DST == 0).then_some(l4_dst),
    })
}

fn encode_action(buf: &mut BytesMut, action: &Action) {
    match action {
        Action::Output(port) => {
            buf.put_u16(action_type::OUTPUT);
            buf.put_u16(8);
            buf.put_u16(port.raw());
            buf.put_u16(0xffff); // max_len: send full packet to controller
        }
        Action::SetEthSrc(mac) => {
            buf.put_u16(action_type::SET_DL_SRC);
            buf.put_u16(16);
            buf.put_slice(&mac.octets());
            buf.put_slice(&[0; 6]);
        }
        Action::SetEthDst(mac) => {
            buf.put_u16(action_type::SET_DL_DST);
            buf.put_u16(16);
            buf.put_slice(&mac.octets());
            buf.put_slice(&[0; 6]);
        }
        Action::SetIpSrc(ip) => {
            buf.put_u16(action_type::SET_NW_SRC);
            buf.put_u16(8);
            buf.put_u32(ip.to_u32());
        }
        Action::SetIpDst(ip) => {
            buf.put_u16(action_type::SET_NW_DST);
            buf.put_u16(8);
            buf.put_u32(ip.to_u32());
        }
    }
}

/// The one length each supported action type has on the wire, header
/// included.
fn action_len(ty: u16) -> Option<usize> {
    match ty {
        action_type::OUTPUT | action_type::SET_NW_SRC | action_type::SET_NW_DST => Some(8),
        action_type::SET_DL_SRC | action_type::SET_DL_DST => Some(16),
        _ => None,
    }
}

/// Decodes one action. Its length field must be the type's fixed length:
/// a decoded action re-encodes to exactly as many bytes as it was read
/// from, so a decoded message never outgrows the 16-bit length field when
/// it is encoded again.
fn decode_action(r: &mut Reader<'_>) -> Result<Action, ParseError> {
    let ty = r.u16()?;
    let len = usize::from(r.u16()?);
    let expected = action_len(ty).ok_or(ParseError::bad_field("Action", "unsupported type"))?;
    if len != expected {
        return Err(ParseError::bad_field(
            "Action",
            "length does not match type",
        ));
    }
    let mut body = Reader::new(r.take(len - 4)?);
    match ty {
        action_type::OUTPUT => {
            let port = PortNo::new(body.u16()?);
            let _max_len = body.u16()?;
            Ok(Action::Output(port))
        }
        action_type::SET_DL_SRC => Ok(Action::SetEthSrc(body.mac()?)),
        action_type::SET_DL_DST => Ok(Action::SetEthDst(body.mac()?)),
        action_type::SET_NW_SRC => Ok(Action::SetIpSrc(IpAddr::from_u32(body.u32()?))),
        action_type::SET_NW_DST => Ok(Action::SetIpDst(IpAddr::from_u32(body.u32()?))),
        _ => Err(ParseError::bad_field("Action", "unsupported type")),
    }
}

fn encode_phy_port(buf: &mut BytesMut, p: &PortDesc) {
    buf.put_u16(p.port_no.raw());
    buf.put_slice(&p.hw_addr.octets());
    let mut name = [0u8; 16];
    let label = format!("port{}", p.port_no.raw());
    name[..label.len().min(16)].copy_from_slice(&label.as_bytes()[..label.len().min(16)]);
    buf.put_slice(&name);
    buf.put_u32(0); // config
    buf.put_u32(match p.state {
        PortLinkState::Up => 0,
        PortLinkState::Down => 1, // OFPPS_LINK_DOWN
    });
    buf.put_u32(0); // curr
    buf.put_u32(0); // advertised
    buf.put_u32(0); // supported
    buf.put_u32(0); // peer
}

fn decode_phy_port(r: &mut Reader<'_>) -> Result<PortDesc, ParseError> {
    let port_no = PortNo::new(r.u16()?);
    let hw_addr = r.mac()?;
    r.skip(16)?; // name
    r.skip(4)?; // config
    let state = r.u32()?;
    r.skip(16)?; // curr/advertised/supported/peer
    Ok(PortDesc {
        port_no,
        hw_addr,
        state: if state & 1 == 0 {
            PortLinkState::Up
        } else {
            PortLinkState::Down
        },
    })
}

const FLOW_STATS_LEN: usize = 88;

fn encode_flow_stats(buf: &mut BytesMut, f: &FlowStatsEntry) {
    buf.put_u16(FLOW_STATS_LEN as u16);
    buf.put_u8(0); // table_id
    buf.put_u8(0); // pad
    encode_match(buf, &f.flow_match);
    buf.put_u32(0); // duration_sec
    buf.put_u32(0); // duration_nsec
    buf.put_u16(f.priority);
    buf.put_u16(0); // idle_timeout
    buf.put_u16(0); // hard_timeout
    buf.put_slice(&[0; 6]); // pad
    buf.put_u64(0); // cookie
    buf.put_u64(f.packet_count);
    buf.put_u64(f.byte_count);
}

fn decode_flow_stats(r: &mut Reader<'_>) -> Result<FlowStatsEntry, ParseError> {
    let len = usize::from(r.u16()?);
    if len != FLOW_STATS_LEN {
        return Err(ParseError::bad_field(
            "FlowStats",
            "unexpected entry length",
        ));
    }
    r.skip(2)?; // table_id + pad
    let flow_match = decode_match(r)?;
    r.skip(4 + 4)?;
    let priority = r.u16()?;
    r.skip(2 + 2 + 6 + 8)?;
    let packet_count = r.u64()?;
    let byte_count = r.u64()?;
    Ok(FlowStatsEntry {
        flow_match,
        priority,
        packet_count,
        byte_count,
    })
}

fn encode_port_stats(buf: &mut BytesMut, p: &PortStatsEntry) {
    buf.put_u16(p.port_no.raw());
    buf.put_slice(&[0; 6]); // pad
    buf.put_u64(p.rx_packets);
    buf.put_u64(p.tx_packets);
    buf.put_u64(p.rx_bytes);
    buf.put_u64(p.tx_bytes);
    // rx_dropped .. collisions: unused counters.
    for _ in 0..8 {
        buf.put_u64(0);
    }
}

fn decode_port_stats(r: &mut Reader<'_>) -> Result<PortStatsEntry, ParseError> {
    let port_no = PortNo::new(r.u16()?);
    r.skip(6)?;
    let rx_packets = r.u64()?;
    let tx_packets = r.u64()?;
    let rx_bytes = r.u64()?;
    let tx_bytes = r.u64()?;
    r.skip(8 * 8)?;
    Ok(PortStatsEntry {
        port_no,
        rx_packets,
        tx_packets,
        rx_bytes,
        tx_bytes,
    })
}

// ---------- byte reader ----------

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ParseError> {
        let out = self
            .buf
            .get(self.pos..self.pos.saturating_add(n))
            .ok_or_else(|| ParseError::truncated("OfMessage", n, self.remaining()))?;
        self.pos += n;
        Ok(out)
    }

    fn rest(&mut self) -> &'a [u8] {
        let out = &self.buf[self.pos..];
        self.pos = self.buf.len();
        out
    }

    fn skip(&mut self, n: usize) -> Result<(), ParseError> {
        self.take(n).map(|_| ())
    }

    fn u8(&mut self) -> Result<u8, ParseError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, ParseError> {
        let b = self.take(2)?;
        Ok(u16::from_be_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, ParseError> {
        let b = self.take(4)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, ParseError> {
        let b = self.take(8)?;
        Ok(u64::from_be_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn mac(&mut self) -> Result<MacAddr, ParseError> {
        let b = self.take(6)?;
        Ok(MacAddr::from([b[0], b[1], b[2], b[3], b[4], b[5]]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdn_types::DatapathId;

    fn round_trip(msg: OfMessage) {
        let wire = encode(Xid(42), &msg);
        let (xid, decoded) = decode(&wire).expect("decodes");
        assert_eq!(xid, Xid(42));
        // PortStatus loses its simulator-side timestamp on the wire.
        let expected = match msg {
            OfMessage::PortStatus { reason, desc, .. } => OfMessage::PortStatus {
                reason,
                desc,
                observed_at: SimTime::ZERO,
            },
            other => other,
        };
        assert_eq!(decoded, expected);
    }

    #[test]
    fn header_is_openflow_1_0() {
        let wire = encode(Xid(7), &OfMessage::Hello);
        assert_eq!(wire[0], 0x01);
        assert_eq!(wire[1], msg_type::HELLO);
        assert_eq!(u16::from_be_bytes([wire[2], wire[3]]), 8);
        assert_eq!(u32::from_be_bytes([wire[4], wire[5], wire[6], wire[7]]), 7);
    }

    #[test]
    fn control_messages_round_trip() {
        round_trip(OfMessage::Hello);
        round_trip(OfMessage::EchoRequest {
            xid: Xid(42),
            payload: 0xdead_beef,
        });
        round_trip(OfMessage::EchoReply {
            xid: Xid(42),
            payload: 1,
        });
        round_trip(OfMessage::FeaturesRequest);
    }

    #[test]
    fn features_reply_round_trips() {
        round_trip(OfMessage::FeaturesReply {
            dpid: DatapathId::new(0xabc),
            ports: vec![
                PortDesc {
                    port_no: PortNo::new(1),
                    hw_addr: MacAddr::from_index(1),
                    state: PortLinkState::Up,
                },
                PortDesc {
                    port_no: PortNo::new(2),
                    hw_addr: MacAddr::from_index(2),
                    state: PortLinkState::Down,
                },
            ],
        });
    }

    #[test]
    fn packet_in_and_out_round_trip() {
        round_trip(OfMessage::PacketIn {
            in_port: PortNo::new(3),
            reason: PacketInReason::NoMatch,
            data: vec![1, 2, 3, 4, 5],
        });
        round_trip(OfMessage::PacketOut {
            in_port: PortNo::NONE,
            actions: vec![
                Action::SetEthDst(MacAddr::from_index(9)),
                Action::Output(PortNo::FLOOD),
            ],
            data: vec![9; 60],
        });
    }

    #[test]
    fn flow_mod_round_trips_with_full_match() {
        round_trip(OfMessage::FlowMod {
            command: FlowModCommand::Add,
            flow_match: FlowMatch::new()
                .with_in_port(PortNo::new(1))
                .with_eth_src(MacAddr::from_index(1))
                .with_eth_dst(MacAddr::from_index(2))
                .with_ethertype(0x0800)
                .with_ip_src(IpAddr::new(10, 0, 0, 1))
                .with_ip_dst(IpAddr::new(10, 0, 0, 2))
                .with_ip_proto(6)
                .with_l4_dst(80),
            priority: 1234,
            idle_timeout_secs: 5,
            hard_timeout_secs: 60,
            actions: vec![Action::Output(PortNo::new(2))],
            cookie: 0x1122_3344,
        });
    }

    #[test]
    fn wildcard_match_round_trips() {
        round_trip(OfMessage::FlowMod {
            command: FlowModCommand::Delete,
            flow_match: FlowMatch::new(),
            priority: 0,
            idle_timeout_secs: 0,
            hard_timeout_secs: 0,
            actions: vec![],
            cookie: 0,
        });
    }

    #[test]
    fn flow_removed_and_port_status_round_trip() {
        round_trip(OfMessage::FlowRemoved {
            flow_match: FlowMatch::new().with_eth_dst(MacAddr::from_index(4)),
            priority: 7,
            reason: FlowRemovedReason::IdleTimeout,
            packet_count: 100,
            byte_count: 6400,
        });
        round_trip(OfMessage::PortStatus {
            reason: PortStatusReason::Modify,
            desc: PortDesc {
                port_no: PortNo::new(5),
                hw_addr: MacAddr::from_index(5),
                state: PortLinkState::Down,
            },
            observed_at: SimTime::from_millis(123),
        });
    }

    #[test]
    fn stats_round_trip() {
        round_trip(OfMessage::FlowStatsRequest { xid: Xid(42) });
        round_trip(OfMessage::PortStatsRequest { xid: Xid(42) });
        round_trip(OfMessage::FlowStatsReply {
            xid: Xid(42),
            flows: vec![FlowStatsEntry {
                flow_match: FlowMatch::new().with_eth_src(MacAddr::from_index(1)),
                priority: 10,
                packet_count: 55,
                byte_count: 5500,
            }],
        });
        round_trip(OfMessage::PortStatsReply {
            xid: Xid(42),
            ports: vec![PortStatsEntry {
                port_no: PortNo::new(1),
                rx_packets: 1,
                tx_packets: 2,
                rx_bytes: 3,
                tx_bytes: 4,
            }],
        });
    }

    #[test]
    fn garbage_is_rejected_not_panicked() {
        assert!(decode(&[]).is_err());
        assert!(
            decode(&[0x04, 0, 0, 8, 0, 0, 0, 0]).is_err(),
            "wrong version"
        );
        assert!(
            decode(&[0x01, 99, 0, 8, 0, 0, 0, 0]).is_err(),
            "unknown type"
        );
        assert!(decode(&[0x01, 0, 0, 99, 0, 0, 0, 0]).is_err(), "bad length");
    }

    #[test]
    fn short_actions_cannot_outgrow_the_length_field_on_re_encode() {
        // A FlowMod filled to 65,532 bytes with 6,546 SET_DL_SRC actions
        // that claim 10 bytes each instead of 16. Accepting them would
        // yield a message whose re-encoding needs 104,808 bytes.
        let mut wire = encode(
            Xid(1),
            &OfMessage::FlowMod {
                command: FlowModCommand::Add,
                flow_match: FlowMatch::new(),
                priority: 1,
                idle_timeout_secs: 0,
                hard_timeout_secs: 0,
                actions: vec![],
                cookie: 0,
            },
        );
        for _ in 0..6_546 {
            wire.extend_from_slice(&action_type::SET_DL_SRC.to_be_bytes());
            wire.extend_from_slice(&10u16.to_be_bytes());
            wire.extend_from_slice(&[0xaa; 6]);
        }
        let len = u16::try_from(wire.len()).expect("fits the length field");
        wire[2..4].copy_from_slice(&len.to_be_bytes());
        match decode(&wire) {
            Err(_) => {}
            Ok((xid, msg)) => assert_eq!(decode(&encode(xid, &msg)), Ok((xid, msg))),
        }
        // The canonical 16-byte form of the same action still decodes.
        round_trip(OfMessage::PacketOut {
            in_port: PortNo::NONE,
            actions: vec![Action::SetEthSrc(MacAddr::from_index(3))],
            data: vec![],
        });
    }
}
