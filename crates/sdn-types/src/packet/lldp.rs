//! LLDP (IEEE 802.1AB) packets with the TLV extensions used by link
//! discovery and by the paper's defenses.
//!
//! A controller-emitted discovery LLDP packet carries:
//!
//! * **Chassis ID** (type 1) and **Port ID** (type 2) identifying the switch
//!   port the packet was sent out of;
//! * **TTL** (type 3);
//! * an org-specific **DPID TLV** carrying the full 64-bit datapath id, as
//!   Floodlight does;
//! * optionally an org-specific **authentication TLV** (TopoGuard: an HMAC
//!   over the packet body so hosts cannot forge LLDP);
//! * optionally an org-specific **timestamp TLV** (TopoGuard+'s Link Latency
//!   Inspector: the controller's departure time, encrypted under a
//!   controller-owned key so hosts cannot rewrite it).
//!
//! Crucially, *relaying* a byte-exact LLDP packet keeps every TLV — including
//! the HMAC — valid. That is exactly why authenticated LLDP alone does not
//! stop link fabrication, and why the LLI falls back to timing.

use crate::buf::BytesMut;

use crate::crypto::{Hmac, Key, StreamCipher, Tag};
use crate::{DatapathId, ParseError, PortNo, SimTime};

/// The 24-bit organizationally-unique identifier used for this project's
/// org-specific TLVs.
pub const LLDP_ORG_TOPOMIRAGE: [u8; 3] = [0x00, 0x26, 0xe1];

/// Org-specific TLV subtypes under [`LLDP_ORG_TOPOMIRAGE`].
mod subtype {
    /// Full 64-bit DPID (Floodlight-style).
    pub const DPID: u8 = 0x01;
    /// HMAC authentication tag (TopoGuard authenticated LLDP).
    pub const AUTH: u8 = 0x02;
    /// Encrypted departure timestamp (TopoGuard+ LLI).
    pub const TIMESTAMP: u8 = 0x03;
}

/// LLDP TLV type codes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TlvType(pub u8);

impl TlvType {
    /// End of LLDPDU (type 0).
    pub const END: TlvType = TlvType(0);
    /// Chassis ID (type 1).
    pub const CHASSIS_ID: TlvType = TlvType(1);
    /// Port ID (type 2).
    pub const PORT_ID: TlvType = TlvType(2);
    /// Time to live (type 3).
    pub const TTL: TlvType = TlvType(3);
    /// Organizationally specific (type 127).
    pub const ORG_SPECIFIC: TlvType = TlvType(127);
}

/// A raw LLDP TLV: 7-bit type, 9-bit length, value bytes.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LldpTlv {
    /// TLV type code (0..=127).
    pub tlv_type: TlvType,
    /// Value bytes (up to 511).
    pub value: Vec<u8>,
}

impl LldpTlv {
    /// Creates a TLV. Panics if the value exceeds the 9-bit length field.
    pub fn new(tlv_type: TlvType, value: Vec<u8>) -> Self {
        assert!(value.len() <= 511, "LLDP TLV value exceeds 511 bytes");
        LldpTlv { tlv_type, value }
    }

    fn encoded_len(&self) -> usize {
        TLV_HEADER_LEN + self.value.len()
    }

    fn encode_into(&self, buf: &mut BytesMut) {
        debug_assert!(
            self.value.len() <= 511,
            "new() enforces the 9-bit length field"
        );
        put_tlv_header(buf, self.tlv_type, self.value.len() as u16);
        buf.put_slice(&self.value);
    }
}

/// A TLV header: 7-bit type, 9-bit value length.
const TLV_HEADER_LEN: usize = 2;
/// Chassis ID value: subtype byte plus 16 ASCII hex digits.
const CHASSIS_VALUE_LEN: u16 = 17;
/// Org-specific value prefix: 3-byte OUI plus subtype byte.
const ORG_PREFIX_LEN: u16 = 4;
/// Chassis ID, Port ID (subtype + port), TTL and DPID org TLVs, headers
/// included.
const FIXED_TLVS_LEN: usize = (TLV_HEADER_LEN + CHASSIS_VALUE_LEN as usize)
    + (TLV_HEADER_LEN + 3)
    + (TLV_HEADER_LEN + 2)
    + (TLV_HEADER_LEN + ORG_PREFIX_LEN as usize + 8);
/// The timestamp org TLV: header, prefix, nonce and sealed value.
const TIMESTAMP_TLV_LEN: usize = TLV_HEADER_LEN + ORG_PREFIX_LEN as usize + 16;
/// The auth org TLV: header, prefix and 8-byte tag.
const AUTH_TLV_LEN: usize = TLV_HEADER_LEN + ORG_PREFIX_LEN as usize + 8;

const HEX_DIGITS: &[u8; 16] = b"0123456789abcdef";

fn put_tlv_header(buf: &mut BytesMut, tlv_type: TlvType, value_len: u16) {
    buf.put_u16((u16::from(tlv_type.0) << 9) | value_len);
}

/// Writes an org-specific TLV header plus the OUI and `subtype`; the
/// caller appends `body_len` bytes of body.
fn put_org_header(buf: &mut BytesMut, subtype: u8, body_len: u16) {
    put_tlv_header(buf, TlvType::ORG_SPECIFIC, ORG_PREFIX_LEN + body_len);
    buf.put_slice(&LLDP_ORG_TOPOMIRAGE);
    buf.put_u8(subtype);
}

/// An encrypted departure timestamp carried in an LLDP packet.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SealedTimestamp {
    /// The nonce the timestamp was sealed under.
    pub nonce: u64,
    /// The encrypted nanosecond timestamp.
    pub sealed: u64,
}

/// A parsed LLDP packet.
///
/// The discovery-relevant fields are first-class; any TLVs this crate does
/// not understand are preserved byte-exact in `extra_tlvs` so that relaying
/// (the attack primitive) is always faithful.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LldpPacket {
    /// The emitting switch's datapath id (from the DPID org TLV, falling
    /// back to the chassis ID TLV).
    pub dpid: DatapathId,
    /// The emitting switch port (from the Port ID TLV).
    pub port: PortNo,
    /// Time to live, in seconds.
    pub ttl_secs: u16,
    /// HMAC tag, if the controller signs its LLDP packets.
    pub auth_tag: Option<Tag>,
    /// Encrypted departure timestamp, if the LLI extension is enabled.
    pub timestamp: Option<SealedTimestamp>,
    /// Unrecognized TLVs, preserved in order.
    pub extra_tlvs: Vec<LldpTlv>,
}

impl LldpPacket {
    /// Creates a plain discovery packet for `dpid`/`port` with the default
    /// 120-second TTL.
    pub fn new(dpid: DatapathId, port: PortNo) -> Self {
        LldpPacket {
            dpid,
            port,
            ttl_secs: 120,
            auth_tag: None,
            timestamp: None,
            extra_tlvs: Vec::new(),
        }
    }

    /// Attaches an encrypted departure timestamp (TopoGuard+ LLI).
    ///
    /// The nonce is derived from `(dpid, port, departure)` so each probe
    /// seals under a fresh nonce.
    pub fn with_timestamp(mut self, key: Key, departure: SimTime) -> Self {
        let cipher = StreamCipher::new(key);
        let nonce = self
            .dpid
            .raw()
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(u64::from(self.port.raw()))
            .wrapping_add(departure.as_nanos());
        self.timestamp = Some(SealedTimestamp {
            nonce,
            sealed: cipher.seal_u64(nonce, departure.as_nanos()),
        });
        self
    }

    /// Decrypts the departure timestamp, if present.
    pub fn open_timestamp(&self, key: Key) -> Option<SimTime> {
        let ts = self.timestamp?;
        let cipher = StreamCipher::new(key);
        Some(SimTime::from_nanos(cipher.open_u64(ts.nonce, ts.sealed)))
    }

    /// Signs the packet (TopoGuard authenticated LLDP). The tag covers the
    /// DPID, port, TTL, and timestamp TLV, so none can be modified — but a
    /// byte-exact relay of the whole packet remains valid.
    pub fn signed(mut self, key: Key) -> Self {
        let mac = Hmac::new(key);
        self.auth_tag = Some(mac.tag(&self.signing_bytes()));
        self
    }

    /// Verifies the authentication tag. Returns `false` if the packet is
    /// unsigned or the tag does not match.
    pub fn verify(&self, key: Key) -> bool {
        match self.auth_tag {
            Some(tag) => Hmac::new(key).verify(&self.signing_bytes(), tag),
            None => false,
        }
    }

    fn signing_bytes(&self) -> Vec<u8> {
        let mut data = Vec::with_capacity(32);
        data.extend_from_slice(&self.dpid.to_bytes());
        data.extend_from_slice(&self.port.raw().to_be_bytes());
        data.extend_from_slice(&self.ttl_secs.to_be_bytes());
        if let Some(ts) = self.timestamp {
            data.extend_from_slice(&ts.nonce.to_be_bytes());
            data.extend_from_slice(&ts.sealed.to_be_bytes());
        }
        data
    }

    /// The encoded length in bytes, computed without encoding: the fixed
    /// TLVs, the optional timestamp and auth TLVs, every extra TLV and the
    /// End TLV.
    pub fn encoded_len(&self) -> usize {
        let optional = self.timestamp.map_or(0, |_| TIMESTAMP_TLV_LEN)
            + self.auth_tag.map_or(0, |_| AUTH_TLV_LEN);
        let extra: usize = self.extra_tlvs.iter().map(LldpTlv::encoded_len).sum();
        FIXED_TLVS_LEN + optional + extra + TLV_HEADER_LEN
    }

    /// Appends the wire encoding to `buf`, writing each TLV in place.
    pub fn encode_into(&self, buf: &mut BytesMut) {
        // Chassis ID, subtype 7 (locally assigned): ASCII hex of the DPID.
        put_tlv_header(buf, TlvType::CHASSIS_ID, CHASSIS_VALUE_LEN);
        buf.put_u8(7);
        let raw = self.dpid.raw();
        for shift in (0..16).rev() {
            buf.put_u8(HEX_DIGITS[((raw >> (shift * 4)) & 0xf) as usize]);
        }

        // Port ID, subtype 2 (port component): big-endian port number.
        put_tlv_header(buf, TlvType::PORT_ID, 3);
        buf.put_u8(2);
        buf.put_u16(self.port.raw());

        put_tlv_header(buf, TlvType::TTL, 2);
        buf.put_u16(self.ttl_secs);

        put_org_header(buf, subtype::DPID, 8);
        buf.put_u64(self.dpid.raw());

        if let Some(ts) = self.timestamp {
            put_org_header(buf, subtype::TIMESTAMP, 16);
            buf.put_u64(ts.nonce);
            buf.put_u64(ts.sealed);
        }

        if let Some(tag) = self.auth_tag {
            put_org_header(buf, subtype::AUTH, 8);
            buf.put_u64(tag);
        }

        for tlv in &self.extra_tlvs {
            tlv.encode_into(buf);
        }

        put_tlv_header(buf, TlvType::END, 0);
    }

    /// Parses from wire bytes.
    pub fn parse(bytes: &[u8]) -> Result<Self, ParseError> {
        let mut offset = 0usize;
        let mut chassis_dpid: Option<DatapathId> = None;
        let mut org_dpid: Option<DatapathId> = None;
        let mut port: Option<PortNo> = None;
        let mut ttl_secs: Option<u16> = None;
        let mut auth_tag = None;
        let mut timestamp = None;
        let mut extra_tlvs = Vec::new();
        let mut saw_end = false;

        while offset + 2 <= bytes.len() {
            let header = u16::from_be_bytes([bytes[offset], bytes[offset + 1]]);
            let tlv_type = TlvType((header >> 9) as u8);
            let len = usize::from(header & 0x1ff);
            offset += 2;
            if offset + len > bytes.len() {
                return Err(ParseError::truncated(
                    "LldpPacket",
                    offset + len,
                    bytes.len(),
                ));
            }
            let value = &bytes[offset..offset + len];
            offset += len;

            match tlv_type {
                TlvType::END => {
                    saw_end = true;
                    break;
                }
                TlvType::CHASSIS_ID => {
                    // Subtype 7 (locally assigned): ASCII hex DPID.
                    if let Some((7, hex)) = value.split_first() {
                        if let Ok(s) = std::str::from_utf8(hex) {
                            if let Ok(raw) = u64::from_str_radix(s, 16) {
                                chassis_dpid = Some(DatapathId::new(raw));
                            }
                        }
                    }
                }
                TlvType::PORT_ID => {
                    if let Some((2, rest)) = value.split_first() {
                        if rest.len() >= 2 {
                            port = Some(PortNo::new(u16::from_be_bytes([rest[0], rest[1]])));
                        }
                    }
                }
                TlvType::TTL => {
                    if value.len() >= 2 {
                        ttl_secs = Some(u16::from_be_bytes([value[0], value[1]]));
                    }
                }
                TlvType::ORG_SPECIFIC if value.len() >= 4 && value[..3] == LLDP_ORG_TOPOMIRAGE => {
                    let body = &value[4..];
                    match value[3] {
                        subtype::DPID => {
                            org_dpid = DatapathId::from_slice(body);
                        }
                        subtype::AUTH => {
                            if body.len() >= 8 {
                                auth_tag = Some(super::u64_be_at(body, 0));
                            }
                        }
                        subtype::TIMESTAMP => {
                            if body.len() >= 16 {
                                timestamp = Some(SealedTimestamp {
                                    nonce: super::u64_be_at(body, 0),
                                    sealed: super::u64_be_at(body, 8),
                                });
                            }
                        }
                        _ => extra_tlvs.push(LldpTlv::new(tlv_type, value.to_vec())),
                    }
                }
                _ => extra_tlvs.push(LldpTlv::new(tlv_type, value.to_vec())),
            }
        }

        if !saw_end {
            return Err(ParseError::malformed("LldpPacket", "missing End TLV"));
        }
        let dpid = org_dpid
            .or(chassis_dpid)
            .ok_or_else(|| ParseError::malformed("LldpPacket", "no chassis/DPID TLV"))?;
        let port = port.ok_or_else(|| ParseError::malformed("LldpPacket", "no Port ID TLV"))?;
        Ok(LldpPacket {
            dpid,
            port,
            ttl_secs: ttl_secs.unwrap_or(120),
            auth_tag,
            timestamp,
            extra_tlvs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encode(pkt: &LldpPacket) -> Vec<u8> {
        let mut buf = BytesMut::new();
        pkt.encode_into(&mut buf);
        buf.to_vec()
    }

    #[test]
    fn plain_packet_round_trips() {
        let pkt = LldpPacket::new(DatapathId::new(0x2a), PortNo::new(3));
        assert_eq!(LldpPacket::parse(&encode(&pkt)).unwrap(), pkt);
    }

    #[test]
    fn signed_packet_verifies_after_round_trip() {
        let key = Key::from_seed(1);
        let pkt = LldpPacket::new(DatapathId::new(7), PortNo::new(1)).signed(key);
        let parsed = LldpPacket::parse(&encode(&pkt)).unwrap();
        assert!(parsed.verify(key));
        assert!(!parsed.verify(Key::from_seed(2)));
    }

    #[test]
    fn unsigned_packet_fails_verification() {
        let pkt = LldpPacket::new(DatapathId::new(7), PortNo::new(1));
        assert!(!pkt.verify(Key::from_seed(1)));
    }

    #[test]
    fn forged_dpid_breaks_signature() {
        let key = Key::from_seed(1);
        let pkt = LldpPacket::new(DatapathId::new(7), PortNo::new(1)).signed(key);
        let mut forged = LldpPacket::parse(&encode(&pkt)).unwrap();
        forged.dpid = DatapathId::new(8);
        assert!(!forged.verify(key));
    }

    #[test]
    fn timestamp_seals_and_opens() {
        let key = Key::from_seed(9);
        let departure = SimTime::from_millis(1234);
        let pkt = LldpPacket::new(DatapathId::new(1), PortNo::new(2))
            .with_timestamp(key, departure)
            .signed(key);
        let parsed = LldpPacket::parse(&encode(&pkt)).unwrap();
        assert!(parsed.verify(key));
        assert_eq!(parsed.open_timestamp(key), Some(departure));
        // A host without the key sees only ciphertext.
        let sealed = parsed.timestamp.unwrap().sealed;
        assert_ne!(sealed, departure.as_nanos());
    }

    #[test]
    fn tampered_timestamp_breaks_signature() {
        let key = Key::from_seed(9);
        let pkt = LldpPacket::new(DatapathId::new(1), PortNo::new(2))
            .with_timestamp(key, SimTime::from_millis(100))
            .signed(key);
        let mut tampered = LldpPacket::parse(&encode(&pkt)).unwrap();
        let ts = tampered.timestamp.as_mut().unwrap();
        ts.sealed ^= 1;
        assert!(!tampered.verify(key));
    }

    #[test]
    fn relayed_bytes_remain_valid() {
        // The attack primitive: a byte-exact copy keeps both the signature
        // and the timestamp valid.
        let key = Key::from_seed(4);
        let pkt = LldpPacket::new(DatapathId::new(1), PortNo::new(2))
            .with_timestamp(key, SimTime::from_millis(5))
            .signed(key);
        let wire = encode(&pkt);
        let relayed = wire.clone();
        let parsed = LldpPacket::parse(&relayed).unwrap();
        assert!(parsed.verify(key));
    }

    #[test]
    fn unknown_tlvs_are_preserved() {
        let mut pkt = LldpPacket::new(DatapathId::new(1), PortNo::new(2));
        pkt.extra_tlvs
            .push(LldpTlv::new(TlvType(8), b"sysname".to_vec()));
        let parsed = LldpPacket::parse(&encode(&pkt)).unwrap();
        assert_eq!(parsed.extra_tlvs, pkt.extra_tlvs);
    }

    /// The wire image of a signed, timestamped TOPOGUARD+ discovery frame,
    /// pinned byte for byte: the TLV-by-TLV encoder must not drift.
    #[test]
    fn topoguard_plus_frame_matches_golden_bytes() {
        use crate::packet::{EthernetFrame, Payload};
        use crate::MacAddr;

        let key = Key::new(0x1234_5678_9abc_def0, 0x0fed_cba9_8765_4321);
        let lldp = LldpPacket::new(DatapathId::new(0x00ab_cdef_0123), PortNo::new(7))
            .with_timestamp(key, SimTime::from_millis(123))
            .signed(key);
        let frame = EthernetFrame::new(
            MacAddr::from_index(1),
            MacAddr::LLDP_MULTICAST,
            Payload::Lldp(lldp),
        );
        #[rustfmt::skip]
        let golden: [u8; 94] = [
            // Ethernet: LLDP multicast dst, src, EtherType 0x88cc.
            0x01, 0x80, 0xc2, 0x00, 0x00, 0x0e, 0x02, 0x00, 0x00, 0x00, 0x00, 0x01, 0x88, 0xcc,
            // Chassis ID: subtype 7, ASCII hex DPID.
            0x02, 0x11, 0x07, b'0', b'0', b'0', b'0', b'0', b'0', b'a', b'b', b'c', b'd', b'e',
            b'f', b'0', b'1', b'2', b'3',
            // Port ID: subtype 2, port 7.
            0x04, 0x03, 0x02, 0x00, 0x07,
            // TTL: 120 s.
            0x06, 0x02, 0x00, 0x78,
            // DPID org TLV.
            0xfe, 0x0c, 0x00, 0x26, 0xe1, 0x01, 0x00, 0x00, 0x00, 0xab, 0xcd, 0xef, 0x01, 0x23,
            // Timestamp org TLV: nonce, sealed departure.
            0xfe, 0x14, 0x00, 0x26, 0xe1, 0x03, 0x0e, 0xec, 0xbb, 0xc9, 0x61, 0x9a, 0xe0, 0xa6,
            0x96, 0x07, 0xaf, 0xa4, 0x66, 0x3a, 0x3d, 0xea,
            // Auth org TLV: HMAC tag.
            0xfe, 0x0c, 0x00, 0x26, 0xe1, 0x02, 0xd0, 0xa6, 0xce, 0x2f, 0x16, 0xe2, 0x46, 0xb0,
            // End.
            0x00, 0x00,
        ];
        assert_eq!(frame.encode(), golden);
        assert_eq!(frame.wire_len(), golden.len());
    }

    #[test]
    fn missing_end_tlv_rejected() {
        let pkt = LldpPacket::new(DatapathId::new(1), PortNo::new(2));
        let wire = encode(&pkt);
        // Strip the End TLV (2 bytes).
        assert!(LldpPacket::parse(&wire[..wire.len() - 2]).is_err());
    }

    #[test]
    fn chassis_id_fallback_when_no_org_dpid() {
        // Build a packet manually with only standard TLVs.
        let mut buf = BytesMut::new();
        let mut chassis = vec![7u8];
        chassis.extend_from_slice(format!("{:016x}", 0x99).as_bytes());
        LldpTlv::new(TlvType::CHASSIS_ID, chassis).encode_into(&mut buf);
        let mut port = vec![2u8];
        port.extend_from_slice(&5u16.to_be_bytes());
        LldpTlv::new(TlvType::PORT_ID, port).encode_into(&mut buf);
        LldpTlv::new(TlvType::TTL, 120u16.to_be_bytes().to_vec()).encode_into(&mut buf);
        LldpTlv::new(TlvType::END, vec![]).encode_into(&mut buf);
        let parsed = LldpPacket::parse(&buf).unwrap();
        assert_eq!(parsed.dpid, DatapathId::new(0x99));
        assert_eq!(parsed.port, PortNo::new(5));
    }
}
