//! Deterministic discrete-event network simulator.
//!
//! This crate provides the measurement substrate of the reproduction: a
//! virtual clock ([`SimTime`], [`SimDuration`]), point-to-point links with
//! latency, bandwidth, jitter and loss ([`LinkConfig`]), simulated UDP
//! datagrams and a byte-stream TCP model ([`tcp`]), all driven through
//! [`Sim`], and per-layer byte/packet accounting ([`CostMeter`]) behind
//! the paper's Figures 3–5. A datagram's payload is moved from sender to
//! receiver; a TCP segment carries no bytes, and the receiver reads the
//! sender's send buffer in place ([`Sim::tcp_read`]).
//! [`Sim::stats`] counts what the engine did ([`EngineStats`]), the bytes
//! put on links included.
//!
//! Everything is bit-for-bit reproducible: the only randomness comes from
//! the seeded [`SimRng`], events at equal times fire in FIFO order, and no
//! wall-clock time or environment state leaks in.
//!
//! # Surface
//!
//! Every module is private except [`tcp`] (`INIT_RTO`, `MAX_RETRIES` and
//! [`tcp::backoff`]); the root re-exports are the one path to each item.
//! A [`HostId`] is what [`Sim::add_host`] returned. A [`SimDuration`] is
//! built by `from_nanos` (or coarser units), a [`SimTime`] is
//! [`SimTime::ZERO`] plus one, and both read in nanoseconds by `as_nanos`.
//! [`LayerBytes`] is read by tag, with [`LayerBytes::get`].
//! [`Sim::tcp_recv`] (a copying [`Sim::tcp_read`]) and
//! [`Sim::dropped_packets`] (a field of [`Sim::stats`]) say what another
//! item says; they stay public because `perfbench` names them.
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
#![warn(unreachable_pub)]
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
pub use trace::{Cost, CostMeter, Counters, LayerBytes, LayerTag};
