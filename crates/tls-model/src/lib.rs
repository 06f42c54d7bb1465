//! TLS 1.2/1.3 handshake and record-layer **byte model**.
//!
//! This crate counts bytes; it performs no cryptography. It reproduces the
//! two quantities the paper's cost accounting needs from TLS:
//!
//! 1. **Handshake transcripts** — [`handshake_flights`] turns a
//!    [`TlsConfig`] (protocol version, SNI hostname, ALPN protocols,
//!    certificate-chain sizes, session resumption) into an ordered list of
//!    [`Flight`]s with realistic byte counts, built from the per-message
//!    size formulas of RFC 5246/8446. Certificate bytes dominate a full
//!    handshake; resumption removes them, which is exactly the
//!    fresh-vs-resumed contrast the paper measures.
//! 2. **Record framing** — every application write is wrapped into records
//!    of at most [`MAX_PLAINTEXT`] bytes, each costing [`RECORD_HEADER`] +
//!    [`AEAD_TAG`] bytes of overhead. [`seal`] produces on-wire records
//!    (type/version/length header, the plaintext verbatim, a zero tag) and
//!    [`Deframer`] parses them back out of a byte stream. [`seal`] owns a
//!    copy of every chunk, so it is the *reference*: the transports in
//!    `dohmark-doh` write the same bytes without that copy, from
//!    [`record_header`] and [`ZERO_TAG`], and are tested against it.
//!
//! Transports charge the framing and handshake bytes to
//! `LayerTag::Tls` and the carried plaintext to the layer it belongs to
//! (see `dohmark-doh`), so handshake amortisation across resolutions is
//! measurable exactly as the paper measures it.
//!
//! Deliberate simplifications, chosen to keep counts deterministic without
//! changing any qualitative result: the AEAD overhead is a uniform 16-byte
//! tag (no TLS 1.2 explicit IV), NewSessionTicket issuance is not modelled,
//! and TLS 1.3 0-RTT is out of scope.
//!
//! # Example
//!
//! ```
//! use dohmark_tls_model::{handshake_bytes, handshake_flights, TlsConfig};
//!
//! let full = TlsConfig::for_server("dns.example.net");
//! let resumed = TlsConfig { resumption: true, ..full.clone() };
//! // Resumption elides the certificate chain and signature.
//! assert!(handshake_bytes(&resumed) + 2000 < handshake_bytes(&full));
//! assert!(handshake_flights(&full)[0].from_client);
//! ```

#![warn(missing_docs)]
#![warn(clippy::print_stdout, clippy::print_stderr, clippy::unwrap_used)]
#![warn(clippy::allow_attributes, clippy::allow_attributes_without_reason)]
#![forbid(unsafe_code)]

/// ALPN protocol id for DNS over TLS (a conventional private label; DoT
/// deployments rarely negotiate ALPN, but the offer's bytes are modelled).
pub const ALPN_DOT: &str = "dot";
/// ALPN protocol id for HTTP/1.1 (RFC 7301).
pub const ALPN_HTTP11: &str = "http/1.1";
/// ALPN protocol id for HTTP/2 over TLS (RFC 9113 §3.3).
pub const ALPN_H2: &str = "h2";

/// TLS record header: content type (1), legacy version (2), length (2).
pub const RECORD_HEADER: usize = 5;
/// AEAD authentication tag appended to every encrypted record.
pub const AEAD_TAG: usize = 16;
/// Maximum plaintext bytes per record (RFC 8446 §5.1: 2^14).
pub const MAX_PLAINTEXT: usize = 16_384;
/// Handshake message header: type (1) + 24-bit length (3).
const HS_HEADER: usize = 4;
/// A ChangeCipherSpec record: header + 1 payload byte.
const CCS_RECORD: usize = RECORD_HEADER + 1;

/// Which TLS protocol version the handshake model follows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TlsVersion {
    /// TLS 1.2 (RFC 5246): 2-RTT full handshake, 1-RTT session-ID resumption.
    Tls12,
    /// TLS 1.3 (RFC 8446): 1-RTT full handshake, PSK resumption.
    Tls13,
}

/// Parameters of a modelled TLS connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TlsConfig {
    /// Protocol version to model.
    pub version: TlsVersion,
    /// Server name sent in the SNI extension (its length is on the wire).
    pub sni: String,
    /// ALPN protocol names offered by the client (e.g. `"dot"`, `"h2"`).
    pub alpn: Vec<String>,
    /// DER sizes of the server certificate chain, leaf first. The default
    /// models a typical leaf + intermediate pair (~2.3 kB total).
    pub cert_chain: Vec<usize>,
    /// Server signature length (CertificateVerify / ServerKeyExchange);
    /// 256 models RSA-2048, 72 would model ECDSA-P256.
    pub signature_len: usize,
    /// Resume a previous session (TLS 1.3 PSK / TLS 1.2 session ID),
    /// eliding the certificate chain and signature.
    pub resumption: bool,
    /// PSK identity (session-ticket) length offered on TLS 1.3 resumption.
    pub ticket_len: usize,
}

impl Default for TlsConfig {
    fn default() -> TlsConfig {
        TlsConfig {
            version: TlsVersion::Tls13,
            sni: String::new(),
            alpn: Vec::new(),
            cert_chain: vec![1200, 1100],
            signature_len: 256,
            resumption: false,
            ticket_len: 128,
        }
    }
}

impl TlsConfig {
    /// A fresh TLS 1.3 connection to `sni` with no ALPN.
    pub fn for_server(sni: &str) -> TlsConfig {
        TlsConfig { sni: sni.to_string(), ..TlsConfig::default() }
    }

    /// Adds an ALPN offer (builder style).
    pub fn alpn(mut self, protocol: &str) -> TlsConfig {
        self.alpn.push(protocol.to_string());
        self
    }
}

/// One direction-contiguous burst of handshake bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flight {
    /// `true` when the client transmits this flight.
    pub from_client: bool,
    /// Total wire bytes of the flight, record framing included.
    pub bytes: usize,
    /// The handshake messages the flight carries, for reports.
    pub label: &'static str,
}

/// Total plaintext-record length: payload plus one 5-byte header per
/// (at most 16 kB) record, no AEAD tag. Used for pre-encryption messages.
fn plain_records(payload: usize) -> usize {
    payload + RECORD_HEADER * payload.div_ceil(MAX_PLAINTEXT).max(1)
}

/// Total encrypted-record length: payload plus header and tag per record.
fn sealed_records(payload: usize) -> usize {
    payload + (RECORD_HEADER + AEAD_TAG) * payload.div_ceil(MAX_PLAINTEXT).max(1)
}

/// ClientHello size: fixed fields (version, random, legacy session id,
/// cipher suites, compression, extension length prefix) plus the
/// variable-length extensions the config controls.
fn client_hello(cfg: &TlsConfig) -> usize {
    // 2 version + 32 random + 33 session id + 8 cipher suites (three
    // offered) + 2 compression + 2 extensions length.
    let mut body = 79;
    if !cfg.sni.is_empty() {
        // type+len (4) + list len (2) + entry type (1) + name len (2).
        body += 9 + cfg.sni.len();
    }
    if !cfg.alpn.is_empty() {
        body += 6 + cfg.alpn.iter().map(|p| 1 + p.len()).sum::<usize>();
    }
    body += match cfg.version {
        // supported_versions, x25519 key_share, supported_groups,
        // signature_algorithms, psk_key_exchange_modes.
        TlsVersion::Tls13 => 7 + 42 + 12 + 22 + 6,
        // supported_groups, signature_algorithms, ec_point_formats,
        // extended_master_secret, renegotiation_info, session_ticket.
        TlsVersion::Tls12 => 12 + 22 + 6 + 4 + 5 + 4,
    };
    if cfg.version == TlsVersion::Tls13 && cfg.resumption {
        // pre_shared_key: one identity (ticket + 4-byte obfuscated age)
        // plus one 32-byte binder, with the nested length prefixes.
        body += 47 + cfg.ticket_len;
    }
    HS_HEADER + body
}

/// Certificate message size for the chain (TLS 1.3 shape: request context,
/// list length, then per-entry 3-byte length + DER + 2-byte extensions).
fn certificate(cfg: &TlsConfig) -> usize {
    HS_HEADER + 4 + cfg.cert_chain.iter().map(|der| 5 + der).sum::<usize>()
}

/// Computes the ordered handshake flights for `cfg`.
///
/// Alternating bursts, client first. Application data may flow once every
/// flight has been delivered (no False Start / 0-RTT modelling).
pub fn handshake_flights(cfg: &TlsConfig) -> Vec<Flight> {
    let ch = plain_records(client_hello(cfg));
    match (cfg.version, cfg.resumption) {
        (TlsVersion::Tls13, false) => {
            // ServerHello: fixed fields + supported_versions + key_share.
            let sh = plain_records(HS_HEADER + 72 + 6 + 40);
            let encrypted = (HS_HEADER + 10) // EncryptedExtensions
                + certificate(cfg)
                + (HS_HEADER + 4 + cfg.signature_len) // CertificateVerify
                + (HS_HEADER + 32); // Finished
            vec![
                Flight { from_client: true, bytes: ch, label: "ClientHello" },
                Flight {
                    from_client: false,
                    bytes: sh + CCS_RECORD + sealed_records(encrypted),
                    label: "ServerHello..Finished",
                },
                Flight {
                    from_client: true,
                    bytes: CCS_RECORD + sealed_records(HS_HEADER + 32),
                    label: "Finished",
                },
            ]
        }
        (TlsVersion::Tls13, true) => {
            let sh = plain_records(HS_HEADER + 72 + 6 + 40 + 6); // + pre_shared_key
            let encrypted = (HS_HEADER + 10) + (HS_HEADER + 32); // EE + Finished
            vec![
                Flight { from_client: true, bytes: ch, label: "ClientHello(PSK)" },
                Flight {
                    from_client: false,
                    bytes: sh + CCS_RECORD + sealed_records(encrypted),
                    label: "ServerHello..Finished",
                },
                Flight {
                    from_client: true,
                    bytes: CCS_RECORD + sealed_records(HS_HEADER + 32),
                    label: "Finished",
                },
            ]
        }
        (TlsVersion::Tls12, false) => {
            // ServerHello with renegotiation_info, EMS, session_ticket and
            // ALPN echo; then Certificate, ECDHE ServerKeyExchange (curve
            // info + 32-byte point + signature), ServerHelloDone.
            let alpn_echo = cfg.alpn.first().map(|p| 9 + p.len()).unwrap_or(0);
            let server = (HS_HEADER + 70 + alpn_echo)
                + certificate(cfg)
                + (HS_HEADER + 40 + cfg.signature_len)
                + HS_HEADER;
            // ClientKeyExchange: 1-byte length + 32-byte ECDHE point.
            let cke = plain_records(HS_HEADER + 33);
            let fin = sealed_records(HS_HEADER + 12);
            vec![
                Flight { from_client: true, bytes: ch, label: "ClientHello" },
                Flight {
                    from_client: false,
                    bytes: plain_records(server),
                    label: "ServerHello..HelloDone",
                },
                Flight {
                    from_client: true,
                    bytes: cke + CCS_RECORD + fin,
                    label: "ClientKeyExchange+Finished",
                },
                Flight { from_client: false, bytes: CCS_RECORD + fin, label: "Finished" },
            ]
        }
        (TlsVersion::Tls12, true) => {
            let alpn_echo = cfg.alpn.first().map(|p| 9 + p.len()).unwrap_or(0);
            let sh = plain_records(HS_HEADER + 70 + alpn_echo);
            let fin = sealed_records(HS_HEADER + 12);
            vec![
                Flight { from_client: true, bytes: ch, label: "ClientHello(session-id)" },
                Flight { from_client: false, bytes: sh + CCS_RECORD + fin, label: "Finished" },
                Flight { from_client: true, bytes: CCS_RECORD + fin, label: "Finished" },
            ]
        }
    }
}

/// Total handshake bytes over all flights.
pub fn handshake_bytes(cfg: &TlsConfig) -> usize {
    handshake_flights(cfg).iter().map(|f| f.bytes).sum()
}

/// An application-data record ready for the wire: real header bytes, the
/// plaintext verbatim (this is a byte model, not encryption), a zero tag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SealedRecord {
    /// `[0x17, 0x03, 0x03, len_hi, len_lo]`; length covers payload + tag.
    pub header: [u8; RECORD_HEADER],
    /// The carried plaintext.
    pub plaintext: Vec<u8>,
    /// Stand-in AEAD tag (all zeros).
    pub tag: [u8; AEAD_TAG],
}

/// The stand-in AEAD tag every sealed record ends with.
pub const ZERO_TAG: [u8; AEAD_TAG] = [0; AEAD_TAG];

/// The header of an application-data record carrying `plain_len` (at most
/// [`MAX_PLAINTEXT`]) plaintext bytes: `[0x17, 0x03, 0x03, len_hi, len_lo]`
/// with a length that covers the plaintext and the tag.
///
/// Record boundaries depend on nothing but the total length of a write —
/// a record per [`MAX_PLAINTEXT`] bytes, the last one shorter — so a caller
/// that frames its own buffers in place needs only this and [`ZERO_TAG`].
pub fn record_header(plain_len: usize) -> [u8; RECORD_HEADER] {
    debug_assert!(plain_len <= MAX_PLAINTEXT);
    let len = (plain_len + AEAD_TAG) as u16;
    [0x17, 0x03, 0x03, (len >> 8) as u8, (len & 0xFF) as u8]
}

/// Frames `plaintext` into on-wire [`SealedRecord`]s, each owning a copy of
/// its chunk: the reference framing (see the crate docs).
pub fn seal(plaintext: &[u8]) -> Vec<SealedRecord> {
    plaintext
        .chunks(MAX_PLAINTEXT)
        .map(|chunk| SealedRecord {
            header: record_header(chunk.len()),
            plaintext: chunk.to_vec(),
            tag: ZERO_TAG,
        })
        .collect()
}

/// Splits the record at the front of `stream` into its plaintext and its
/// total wire length, or `None` while it is incomplete. Total on malformed
/// input: see [`Deframer::next_plaintext`].
fn split_record(stream: &[u8]) -> Option<(&[u8], usize)> {
    let header = stream.get(..RECORD_HEADER)?;
    let len = usize::from(u16::from_be_bytes([header[3], header[4]]));
    let total = RECORD_HEADER + len;
    if stream.len() < total {
        return None;
    }
    Some((&stream[RECORD_HEADER..RECORD_HEADER + len.saturating_sub(AEAD_TAG)], total))
}

/// Appends the plaintext of every complete record at the front of `stream`
/// to `out`; returns how many bytes of `stream` those records took.
fn deframe_all(stream: &[u8], out: &mut Vec<u8>) -> usize {
    let mut consumed = 0;
    while let Some((plaintext, total)) = split_record(&stream[consumed..]) {
        out.extend_from_slice(plaintext);
        consumed += total;
    }
    consumed
}

/// Incremental parser for a stream of sealed records.
///
/// Feed raw received bytes with [`Deframer::push`]; complete plaintexts
/// come back out of [`Deframer::next_plaintext`] in order, one record (and
/// one copy of the buffered tail) at a time. A stream that wants all of
/// them at once calls [`Deframer::deframe_into`] instead, which is a single
/// pass over the same parser.
#[derive(Debug, Default)]
pub struct Deframer {
    buf: Vec<u8>,
}

impl Deframer {
    /// An empty deframer.
    pub fn new() -> Deframer {
        Deframer::default()
    }

    /// Appends received stream bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet returned.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Pops the next complete record's plaintext, if fully received.
    ///
    /// A malformed record whose length field is shorter than the AEAD tag
    /// is consumed as an empty plaintext rather than panicking — a real
    /// TLS stack would abort the connection there, but a byte model only
    /// needs to stay total.
    pub fn next_plaintext(&mut self) -> Option<Vec<u8>> {
        let (plaintext, total) = split_record(&self.buf)?;
        let plaintext = plaintext.to_vec();
        self.buf.drain(..total);
        Some(plaintext)
    }

    /// Takes `incoming` as the next stream bytes and appends to `out`, in
    /// order, the plaintext of every record that is now complete — what
    /// [`Deframer::push`] followed by [`Deframer::next_plaintext`] until
    /// `None` yields, concatenated. Each plaintext byte is copied once; only
    /// an incomplete trailing record is buffered.
    pub fn deframe_into(&mut self, incoming: &[u8], out: &mut Vec<u8>) {
        if self.buf.is_empty() {
            let consumed = deframe_all(incoming, out);
            self.buf.extend_from_slice(&incoming[consumed..]);
        } else {
            self.buf.extend_from_slice(incoming);
            let consumed = deframe_all(&self.buf, out);
            self.buf.drain(..consumed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dot_config() -> TlsConfig {
        TlsConfig::for_server("dns.example.net").alpn("dot")
    }

    #[test]
    fn flights_alternate_and_start_with_the_client() {
        for cfg in [
            dot_config(),
            TlsConfig { resumption: true, ..dot_config() },
            TlsConfig { version: TlsVersion::Tls12, ..dot_config() },
            TlsConfig { version: TlsVersion::Tls12, resumption: true, ..dot_config() },
        ] {
            let flights = handshake_flights(&cfg);
            assert!(flights[0].from_client, "{cfg:?}");
            assert!(flights.iter().all(|f| f.bytes > 0));
            for pair in flights.windows(2) {
                assert_ne!(pair[0].from_client, pair[1].from_client, "{cfg:?}");
            }
        }
    }

    #[test]
    fn tls13_is_one_round_trip_shorter_than_tls12() {
        assert_eq!(handshake_flights(&dot_config()).len(), 3);
        let tls12 = TlsConfig { version: TlsVersion::Tls12, ..dot_config() };
        assert_eq!(handshake_flights(&tls12).len(), 4);
    }

    #[test]
    fn certificates_dominate_a_full_handshake() {
        let cfg = dot_config();
        let chain: usize = cfg.cert_chain.iter().sum();
        let total = handshake_bytes(&cfg);
        assert!(total > chain, "handshake {total} must carry the {chain}-byte chain");
        // Within the right order of magnitude of a real TLS 1.3 handshake.
        assert!((2000..8000).contains(&total), "total {total}");
    }

    #[test]
    fn resumption_elides_the_certificate_chain() {
        for version in [TlsVersion::Tls12, TlsVersion::Tls13] {
            let full = TlsConfig { version, ..dot_config() };
            let resumed = TlsConfig { resumption: true, ..full.clone() };
            let saved = handshake_bytes(&full) as i64 - handshake_bytes(&resumed) as i64;
            let chain: i64 = full.cert_chain.iter().sum::<usize>() as i64;
            assert!(saved >= chain, "{version:?}: saved {saved} < chain {chain}");
        }
    }

    #[test]
    fn sni_and_alpn_lengths_are_on_the_wire() {
        let base = TlsConfig::default();
        let with_sni = TlsConfig { sni: "a".repeat(30), ..base.clone() };
        assert_eq!(handshake_bytes(&with_sni), handshake_bytes(&base) + 9 + 30);
        let with_alpn = base.clone().alpn("dot");
        // Client offer + TLS 1.3 has no plaintext ALPN echo in ServerHello.
        assert_eq!(handshake_bytes(&with_alpn), handshake_bytes(&base) + 6 + 4);
    }

    #[test]
    fn seal_then_deframe_round_trips_across_partial_pushes() {
        let msg: Vec<u8> = (0..40_000u32).map(|i| (i % 251) as u8).collect();
        let mut stream = Vec::new();
        for rec in seal(&msg) {
            stream.extend_from_slice(&rec.header);
            stream.extend_from_slice(&rec.plaintext);
            stream.extend_from_slice(&rec.tag);
        }
        // 40 000 bytes are three records, each with a header and a tag.
        assert_eq!(stream.len(), msg.len() + 3 * (RECORD_HEADER + AEAD_TAG));
        let mut deframer = Deframer::new();
        let mut out = Vec::new();
        // Push in awkward 997-byte chunks to exercise partial records.
        for chunk in stream.chunks(997) {
            deframer.push(chunk);
            while let Some(p) = deframer.next_plaintext() {
                out.extend_from_slice(&p);
            }
        }
        assert_eq!(out, msg);
        assert_eq!(deframer.buffered(), 0);
    }

    #[test]
    fn deframe_into_yields_what_push_and_next_plaintext_do() {
        let msg: Vec<u8> = (0..40_000u32).map(|i| (i % 253) as u8).collect();
        let mut stream = vec![0x17, 0x03, 0x03, 0x00, 0x05, 1, 2, 3, 4, 5]; // malformed: no tag
        for rec in seal(&msg).into_iter().chain(seal(&[7; 3])) {
            stream.extend_from_slice(&rec.header);
            stream.extend_from_slice(&rec.plaintext);
            stream.extend_from_slice(&rec.tag);
        }
        // Chunk sizes that split headers, leave whole records pending and
        // (the last) deliver everything at once.
        for chunk in [1, 4, 997, 16_405, 20_000, stream.len()] {
            let (mut reference, mut single_pass) = (Deframer::new(), Deframer::new());
            let (mut want, mut got) = (Vec::new(), Vec::new());
            for bytes in stream.chunks(chunk) {
                reference.push(bytes);
                while let Some(p) = reference.next_plaintext() {
                    want.extend_from_slice(&p);
                }
                single_pass.deframe_into(bytes, &mut got);
                assert_eq!(got, want, "chunk {chunk}");
                assert_eq!(single_pass.buffered(), reference.buffered(), "chunk {chunk}");
            }
            assert_eq!(got, [&msg[..], &[7; 3]].concat(), "chunk {chunk}");
            assert_eq!(single_pass.buffered(), 0);
        }
    }

    #[test]
    fn deframer_tolerates_a_record_shorter_than_the_tag() {
        // Length field 5 < the 16-byte tag: a real stack would abort the
        // connection; the byte model consumes it as an empty plaintext and
        // keeps parsing whatever follows.
        let mut d = Deframer::new();
        d.push(&[0x17, 0x03, 0x03, 0x00, 0x05, 1, 2, 3, 4, 5]);
        assert_eq!(d.next_plaintext(), Some(Vec::new()));
        assert_eq!(d.buffered(), 0);
        for rec in seal(&[9; 8]) {
            d.push(&rec.header);
            d.push(&rec.plaintext);
            d.push(&rec.tag);
        }
        assert_eq!(d.next_plaintext(), Some(vec![9; 8]));
    }

    /// Every truncation point and every single-bit flip of a two-record
    /// stream: the deframer never panics, never yields more records than
    /// the bytes can hold, and never yields more plaintext than it was fed.
    #[test]
    fn deframer_is_total_and_bounded_on_truncated_and_bit_flipped_records() {
        let mut stream = Vec::new();
        for rec in seal(&[0xA5; 40]).into_iter().chain(seal(&[0x5A; 3])) {
            stream.extend_from_slice(&rec.header);
            stream.extend_from_slice(&rec.plaintext);
            stream.extend_from_slice(&rec.tag);
        }
        let truncations = (0..=stream.len()).map(|cut| stream[..cut].to_vec());
        let flips = (0..stream.len() * 8).map(|bit| {
            let mut flipped = stream.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            flipped
        });
        for input in truncations.chain(flips) {
            let mut d = Deframer::new();
            d.push(&input);
            let (mut records, mut plain) = (0, 0);
            while let Some(p) = d.next_plaintext() {
                records += 1;
                plain += p.len();
                assert!(records * RECORD_HEADER <= input.len(), "{records} records of {input:?}");
            }
            assert!(plain + d.buffered() <= input.len(), "{plain} plaintext bytes of {input:?}");
        }
    }

    #[test]
    fn sealed_header_length_field_covers_payload_and_tag() {
        let recs = seal(&[7; 10]);
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].header, [0x17, 0x03, 0x03, 0x00, 26]);
    }

    #[test]
    fn model_is_deterministic() {
        let cfg = dot_config();
        assert_eq!(handshake_flights(&cfg), handshake_flights(&cfg));
    }
}
