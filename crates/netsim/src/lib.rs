//! Deterministic discrete-event network simulator.
//!
//! This crate provides the measurement substrate of the reproduction: a
//! virtual clock ([`SimTime`], [`SimDuration`]), point-to-point links with
//! latency, bandwidth, jitter and fault injection ([`LinkConfig`]),
//! simulated UDP datagrams and a byte-stream TCP model ([`tcp`]), all
//! driven through [`Sim`], and per-layer byte/packet accounting
//! ([`CostMeter`]) behind the paper's Figures 3–5.
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

mod link;
mod packet;
mod rng;
mod sim;
pub mod tcp;
mod time;
mod trace;

pub use link::LinkConfig;
pub use packet::{IP_HEADER, TCP_HEADER, UDP_HEADER};
pub use rng::SimRng;
pub use sim::{EngineStats, HostId, ListenerId, Side, Sim, SockId, TcpHandle, Wake};
pub use time::{SimDuration, SimTime};
pub use trace::{Cost, CostMeter, Counters, LayerBytes, LayerTag, MAX_ATTR};
