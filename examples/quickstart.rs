//! Quickstart: encode a DNS query, decode it back, and push it through the
//! deterministic simulator to see what the bytes cost on the wire.
//!
//! Run with: `cargo run --example quickstart`

use dohmark::dns::{Message, Name, RecordType};
use dohmark::netsim::{LayerTag, LinkConfig, Sim, Wake};

#[expect(
    clippy::disallowed_methods,
    reason = "the demo shows the raw event loop, one layer below the Driver"
)]
fn main() {
    // 1. A real RFC 1035 query, byte for byte.
    let name = Name::parse("example.com.").expect("valid name");
    let query = Message::query(0x1234, &name, RecordType::A);
    let wire = query.encode();
    println!("query for {name} encodes to {} bytes", wire.len());

    // 2. Decoding gives back the same logical message.
    let back = Message::decode(&wire).expect("round trip");
    assert_eq!(back.header.id, 0x1234);
    assert_eq!(back.questions[0].name, name);
    println!("decoded back: id={:#06x} qname={}", back.header.id, back.questions[0].name);

    // 3. Send it over simulated TCP (the DoT/DoH substrate) and account
    //    every wire byte by layer, as the paper's Figures 3-5 do.
    let mut sim = Sim::new(7);
    let client = sim.add_host("client");
    let resolver = sim.add_host("resolver");
    sim.add_link(client, resolver, LinkConfig::localhost());
    sim.tcp_listen(resolver, 853);
    let conn = sim.tcp_connect(client, (resolver, 853));
    while let Some(wake) = sim.next_wake() {
        if let Wake::TcpConnected { .. } = wake {
            sim.tcp_send(conn, LayerTag::DnsPayload, &wire);
            break;
        }
    }
    sim.drain();

    let cost = sim.meter.total();
    println!(
        "on the wire: {} packets, {} bytes total ({} DNS payload, {} transport headers)",
        cost.packets, cost.bytes, cost.layers.dns, cost.layers.l4_header
    );
    assert_eq!(cost.layers.dns, wire.len() as u64);
    println!("ok");
}
