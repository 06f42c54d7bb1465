//! Byte-accurate DNS wireformat (RFC 1035) codec.
//!
//! Its surface is [`Message`] — a [`Header`] (its id, flags word and
//! [`Rcode`]), [`Question`]s and [`Record`]s — built with
//! [`Message::query`] or [`Message::response`] and put on the wire with
//! [`Message::encode`] and [`Message::decode`]; a record's [`RecordType`]
//! and typed [`Rdata`] ([`SoaRdata`] for a negative answer's SOA); domain
//! [`Name`]s, written with RFC 1035 pointer compression to a [`Writer`]
//! and read back from a [`Reader`]; and [`DnsError`] with its [`Result`].
//! The four section counts of the wire header belong to the message, not
//! to its [`Header`]: encoding writes the sections' lengths, and decoding
//! reads the sections by them. RDATA is typed for A, AAAA, CNAME, SOA, MX
//! and TXT; any other type is [`Rdata::Unknown`], its bytes kept verbatim
//! (RFC 3597 §5). [`jsontext`] is the JSON text codec the figure reports
//! are written and validated with.
//!
//! Every byte produced by [`Message::encode`] is real wire data: the
//! overhead figures of the reproduced paper are computed over these bytes.
//!
//! # Example
//!
//! ```
//! use dohmark_dns_wire::{Message, Name, RecordType};
//!
//! let query = Message::query(0x1234, &Name::parse("example.com.").unwrap(), RecordType::A);
//! let wire = query.encode();
//! let back = Message::decode(&wire).unwrap();
//! assert_eq!(back.header.id, 0x1234);
//! assert_eq!(back.questions[0].name.to_string(), "example.com.");
//! assert_eq!(back, query);
//! ```

#![warn(missing_docs)]
#![warn(clippy::print_stdout, clippy::print_stderr, clippy::unwrap_used)]
#![warn(clippy::allow_attributes, clippy::allow_attributes_without_reason)]
#![warn(unreachable_pub)]
#![forbid(unsafe_code)]

mod error;
mod header;
pub mod jsontext;
mod message;
mod name;
mod rdata;
mod record;
mod wire;

pub use error::{DnsError, Result};
pub use header::{Header, Rcode};
pub use message::{Message, Question};
pub use name::Name;
pub use rdata::{Rdata, SoaRdata};
pub use record::{Record, RecordType};
pub use wire::{Reader, Writer};
