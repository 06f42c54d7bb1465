//! Deterministic discrete-event network simulator.
//!
//! This crate provides the measurement substrate of the reproduction: a
//! virtual clock ([`time`]), point-to-point links with latency, bandwidth,
//! jitter and fault injection ([`link`]), simulated UDP datagrams and a
//! byte-stream TCP model ([`tcp`]), and per-layer byte/packet accounting
//! ([`trace`]) behind the paper's Figures 3–5.
//!
//! Everything is bit-for-bit reproducible: the only randomness comes from
//! the seeded [`SimRng`], events at equal times fire in FIFO order, and no
//! wall-clock time or environment state leaks in.
//!
//! # Example
//!
//! ```
//! use dohmark_netsim::{LayerTag, LinkConfig, Sim, Wake};
//!
//! let mut sim = Sim::new(42);
//! let client = sim.add_host("client");
//! let server = sim.add_host("server");
//! sim.add_link(client, server, LinkConfig::localhost());
//!
//! sim.tcp_listen(server, 853);
//! let conn = sim.tcp_connect(client, (server, 853));
//! while let Some(wake) = sim.next_wake() {
//!     if let Wake::TcpConnected { .. } = wake {
//!         sim.tcp_send(conn, LayerTag::DnsPayload, &[0u8; 64]);
//!         break;
//!     }
//! }
//! sim.drain();
//! assert!(sim.meter.total().bytes > 0);
//! ```

#![warn(missing_docs)]
#![warn(clippy::print_stdout, clippy::print_stderr, clippy::unwrap_used)]
#![warn(clippy::allow_attributes, clippy::allow_attributes_without_reason)]
#![forbid(unsafe_code)]

pub mod link;
pub mod packet;
pub mod rng;
pub mod sim;
pub mod tcp;
pub mod time;
pub mod trace;

pub use link::{DirLink, LinkConfig};
pub use packet::{Packet, Proto, TcpFlags, TcpSegMeta, IP_HEADER, TCP_HEADER, UDP_HEADER};
pub use rng::SimRng;
pub use sim::{EngineStats, HostId, ListenerId, Side, Sim, SockId, TcpHandle, Wake};
pub use tcp::{Listener, TcpConn};
pub use time::{SimDuration, SimTime};
pub use trace::{
    Cost, CostMeter, Counters, LayerBytes, LayerTag, PacketRecord, TraceLog, MAX_ATTR,
};
