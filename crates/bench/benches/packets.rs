//! Microbenchmarks for packet encode/size/parse — the per-frame cost floor
//! of the whole simulation.

use bench::harness::{black_box, Bench};

use sdn_types::packet::{
    ArpPacket, EthernetFrame, IcmpPacket, Ipv4Packet, LldpPacket, Payload, TcpSegment, Transport,
};
use sdn_types::{DatapathId, IpAddr, MacAddr, PortNo};

fn frames() -> Vec<(&'static str, EthernetFrame)> {
    let src = MacAddr::from_index(1);
    let dst = MacAddr::from_index(2);
    vec![
        (
            "arp",
            EthernetFrame::new(
                src,
                MacAddr::BROADCAST,
                Payload::Arp(ArpPacket::request(
                    src,
                    IpAddr::new(10, 0, 0, 1),
                    IpAddr::new(10, 0, 0, 2),
                )),
            ),
        ),
        (
            "icmp",
            EthernetFrame::new(
                src,
                dst,
                Payload::Ipv4(Ipv4Packet::new(
                    IpAddr::new(10, 0, 0, 1),
                    IpAddr::new(10, 0, 0, 2),
                    Transport::Icmp(IcmpPacket::echo_request(1, 1, vec![0xAB; 32])),
                )),
            ),
        ),
        (
            "tcp_syn",
            EthernetFrame::new(
                src,
                dst,
                Payload::Ipv4(Ipv4Packet::new(
                    IpAddr::new(10, 0, 0, 1),
                    IpAddr::new(10, 0, 0, 2),
                    Transport::Tcp(TcpSegment::syn(40_000, 80, 7)),
                )),
            ),
        ),
        (
            "lldp",
            EthernetFrame::new(
                src,
                MacAddr::LLDP_MULTICAST,
                Payload::Lldp(LldpPacket::new(DatapathId::new(1), PortNo::new(1))),
            ),
        ),
    ]
}

fn main() {
    let encode = Bench::new("encode");
    for (name, frame) in frames() {
        encode.bench(name, || black_box(&frame).encode());
    }

    // Sizing is arithmetic: it must stay far below `encode/*`.
    let wire_len = Bench::new("wire_len");
    for (name, frame) in frames() {
        wire_len.bench(name, || black_box(&frame).wire_len());
    }

    let parse = Bench::new("parse");
    for (name, frame) in frames() {
        let wire = frame.encode();
        parse.bench(name, || {
            EthernetFrame::parse(black_box(&wire)).expect("parses")
        });
    }
}
