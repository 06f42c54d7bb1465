//! Complete DNS messages: header + question/answer/authority/additional.

use crate::error::{DnsError, Result};
use crate::header::{Header, Rcode};
use crate::name::Name;
use crate::rdata::Rdata;
use crate::record::{Record, RecordType, CLASS_IN};
use crate::wire::{Reader, Writer};

/// One entry of the question section (RFC 1035 §4.1.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Question {
    /// Queried name.
    pub name: Name,
    /// Queried type.
    pub qtype: RecordType,
    /// Queried class, the 16-bit wire value.
    pub qclass: u16,
}

impl Question {
    /// An `IN`-class question.
    pub(crate) fn new(name: Name, qtype: RecordType) -> Question {
        Question { name, qtype, qclass: CLASS_IN }
    }

    fn encode(&self, w: &mut Writer) {
        self.name.encode(w);
        w.u16(self.qtype.to_u16());
        w.u16(self.qclass);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Question> {
        Ok(Question {
            name: Name::decode(r)?,
            qtype: RecordType::from_u16(r.u16("question type")?),
            qclass: r.u16("question class")?,
        })
    }
}

/// A full DNS message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Message header. Its section counts on the wire are the lengths of
    /// the four sections below.
    pub header: Header,
    /// Question section.
    pub questions: Vec<Question>,
    /// Answer section.
    pub answers: Vec<Record>,
    /// Authority section.
    pub authorities: Vec<Record>,
    /// Additional section.
    pub additionals: Vec<Record>,
}

impl Message {
    /// Builds a standard recursive query for `name`/`qtype`.
    pub fn query(id: u16, name: &Name, qtype: RecordType) -> Message {
        Message {
            header: Header::new_query(id),
            questions: vec![Question::new(name.clone(), qtype)],
            answers: Vec::new(),
            authorities: Vec::new(),
            additionals: Vec::new(),
        }
    }

    /// Builds a response to `query` carrying `answers`.
    pub fn response(query: &Message, rcode: Rcode, answers: Vec<Record>) -> Message {
        Message {
            header: Header::new_response(&query.header, rcode),
            questions: query.questions.clone(),
            answers,
            authorities: Vec::new(),
            additionals: Vec::new(),
        }
    }

    /// Convenience: a response answering the first question with a single A
    /// record pointing at `addr` — the fixed-answer resolver of the paper's
    /// §3 controlled experiment.
    pub fn fixed_a_response(query: &Message, addr: std::net::Ipv4Addr, ttl: u32) -> Message {
        let answers = query
            .questions
            .first()
            .map(|q| vec![Record::new(q.name.clone(), ttl, Rdata::A(addr))])
            .unwrap_or_default();
        Message::response(query, Rcode::NoError, answers)
    }

    /// The first question, if any.
    pub fn question(&self) -> Option<&Question> {
        self.questions.first()
    }

    /// Encodes the message with name compression.
    pub fn encode(&self) -> Vec<u8> {
        self.encode_with(Writer::new())
    }

    /// Encodes the message without name compression (for measuring how much
    /// compression saves — an ablation knob).
    pub fn encode_uncompressed(&self) -> Vec<u8> {
        self.encode_with(Writer::uncompressed())
    }

    fn encode_with(&self, mut w: Writer) -> Vec<u8> {
        let counts = [
            self.questions.len(),
            self.answers.len(),
            self.authorities.len(),
            self.additionals.len(),
        ];
        self.header.encode(counts.map(|n| n as u16), &mut w);
        for q in &self.questions {
            q.encode(&mut w);
        }
        for rec in self.answers.iter().chain(&self.authorities).chain(&self.additionals) {
            rec.encode(&mut w);
        }
        w.finish()
    }

    /// Decodes a message, requiring the entire buffer to be consumed.
    pub fn decode(buf: &[u8]) -> Result<Message> {
        let mut r = Reader::new(buf);
        let msg = Self::decode_from(&mut r)?;
        if !r.is_empty() {
            return Err(DnsError::TrailingBytes(r.remaining()));
        }
        Ok(msg)
    }

    /// Decodes a message from the reader's position, leaving trailing bytes.
    pub(crate) fn decode_from(r: &mut Reader<'_>) -> Result<Message> {
        let (header, counts) = Header::decode(r)?;
        Header::validate_counts(counts, r.message().len())?;
        let [qdcount, ancount, nscount, arcount] = counts;
        let mut questions = Vec::with_capacity(qdcount as usize);
        for _ in 0..qdcount {
            questions.push(Question::decode(r)?);
        }
        let mut decode_section = |count: u16| -> Result<Vec<Record>> {
            let mut recs = Vec::with_capacity(count as usize);
            for _ in 0..count {
                recs.push(Record::decode(r)?);
            }
            Ok(recs)
        };
        let answers = decode_section(ancount)?;
        let authorities = decode_section(nscount)?;
        let additionals = decode_section(arcount)?;
        Ok(Message { header, questions, answers, authorities, additionals })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn example_query() -> Message {
        Message::query(0x1234, &Name::parse("www.example.com").unwrap(), RecordType::A)
    }

    #[test]
    fn query_round_trip() {
        let q = example_query();
        assert_eq!(Message::decode(&q.encode()), Ok(q));
    }

    #[test]
    fn typical_query_size_matches_hand_count() {
        // header 12 + name (www.example.com. = 17) + type 2 + class 2 = 33
        let q = example_query();
        assert_eq!(q.encode().len(), 33);
    }

    #[test]
    fn response_round_trip_with_all_sections() {
        let q = example_query();
        let mut resp = Message::fixed_a_response(&q, Ipv4Addr::new(192, 0, 2, 1), 60);
        resp.authorities.push(Record::new(
            Name::parse("example.com").unwrap(),
            3600,
            Rdata::Cname(Name::parse("cdn.example.net").unwrap()),
        ));
        // An EDNS0 OPT record (RFC 6891 §6.1.2): root owner, class = the
        // UDP payload size, no options; the codec keeps its RDATA opaque.
        resp.additionals.push(Record {
            name: Name::root(),
            class: 4096,
            ttl: 0,
            rdata: Rdata::Unknown { rtype: 41, data: Vec::new() },
        });
        let wire = resp.encode();
        // ANCOUNT, NSCOUNT and ARCOUNT come from the sections.
        assert_eq!(wire[6..12], [0, 1, 0, 1, 0, 1]);
        assert_eq!(Message::decode(&wire), Ok(resp));
    }

    #[test]
    fn compression_shrinks_responses() {
        let q = example_query();
        let resp = Message::fixed_a_response(&q, Ipv4Addr::new(192, 0, 2, 1), 60);
        let compressed = resp.encode();
        let plain = resp.encode_uncompressed();
        // Answer owner name repeats the question name: a pointer saves
        // wire_len(name) - 2 bytes.
        assert_eq!(plain.len() - compressed.len(), 17 - 2);
        assert_eq!(Message::decode(&compressed), Ok(resp.clone()));
        assert_eq!(Message::decode(&plain), Ok(resp));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut wire = example_query().encode();
        wire.push(0);
        assert!(matches!(Message::decode(&wire), Err(DnsError::TrailingBytes(1))));
    }

    #[test]
    fn count_beyond_content_is_an_error() {
        let mut wire = example_query().encode();
        // Claim 4 questions where there is 1.
        wire[4] = 0;
        wire[5] = 4;
        assert!(Message::decode(&wire).is_err());
    }

    #[test]
    fn fixed_a_response_answers_the_question_name() {
        let q = Message::query(9, &Name::parse("abcde.dohmark.test").unwrap(), RecordType::A);
        let r = Message::fixed_a_response(&q, Ipv4Addr::new(10, 0, 0, 1), 1);
        assert_eq!(r.answers[0].name, q.questions[0].name);
        assert_eq!(r.header.id, 9);
    }

    #[test]
    fn empty_message_decode_fails() {
        assert!(Message::decode(&[]).is_err());
    }

    #[test]
    fn decode_from_leaves_trailing_data() {
        let mut wire = example_query().encode();
        let orig_len = wire.len();
        wire.extend_from_slice(&[9, 9, 9]);
        let mut r = Reader::new(&wire);
        let msg = Message::decode_from(&mut r).unwrap();
        assert_eq!(msg.questions.len(), 1);
        assert_eq!(r.position(), orig_len);
        assert_eq!(r.remaining(), 3);
    }
}
