//! Byte-accurate DNS wireformat (RFC 1035) codec.
//!
//! This crate implements the DNS message format from first principles:
//! domain names with RFC 1035 pointer compression, the 12-byte header,
//! questions, resource records with typed RDATA (A, AAAA, CNAME, NS, PTR,
//! SOA, MX, TXT, SRV and EDNS0 OPT), and complete message encode/decode.
//! [`jsontext`] is the JSON text codec the figure reports are written and
//! validated with.
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
//! ```

#![warn(missing_docs)]
#![warn(clippy::print_stdout, clippy::print_stderr, clippy::unwrap_used)]
#![warn(clippy::allow_attributes, clippy::allow_attributes_without_reason)]
#![warn(unreachable_pub)]
#![forbid(unsafe_code)]

pub mod error;
pub mod header;
pub mod jsontext;
pub mod message;
pub mod name;
pub mod rdata;
pub mod record;
pub mod wire;

pub use error::{DnsError, Result};
pub use header::{Header, Opcode, Rcode};
pub use message::{Message, Question};
pub use name::Name;
pub use rdata::{Rdata, SoaRdata, SrvRdata};
pub use record::{Record, RecordClass, RecordType};
