//! The receive buffer under both incremental parsers.

use std::cell::Cell;

/// Received stream bytes with a consumed prefix.
///
/// A parser that hands out views of its buffer cannot shift bytes when a
/// message is consumed — the view is still borrowed — so consuming only
/// advances `head`, through a shared reference: a parser can cut its views
/// from [`StreamBuf::pending`] and consume them in the same call. And
/// [`StreamBuf::push`] compacts before it appends,
/// by the rule of `netsim`'s `TaggedBuf::advance`: once the dead prefix is
/// longer than the pending bytes. A byte is moved at most once per time it
/// is overtaken, and `data` never holds more than twice the pending bytes
/// plus the chunk just pushed.
#[derive(Debug, Default)]
pub(crate) struct StreamBuf {
    data: Vec<u8>,
    /// Length of the consumed prefix of `data`.
    head: Cell<usize>,
}

impl StreamBuf {
    /// Appends received bytes.
    pub(crate) fn push(&mut self, bytes: &[u8]) {
        let head = self.head.get();
        let pending = self.data.len() - head;
        if head > pending {
            self.data.copy_within(head.., 0);
            self.data.truncate(pending);
            self.head.set(0);
        }
        self.data.extend_from_slice(bytes);
    }

    /// The bytes received and not yet consumed.
    pub(crate) fn pending(&self) -> &[u8] {
        &self.data[self.head.get()..]
    }

    /// Consumes the first `n` pending bytes and returns them; they stay
    /// where they are until the next [`StreamBuf::push`].
    pub(crate) fn consume(&self, n: usize) -> &[u8] {
        let start = self.head.get();
        self.head.set(start + n);
        &self.data[start..start + n]
    }

    /// Bytes held, consumed prefix included.
    #[cfg(test)]
    pub(crate) fn held(&self) -> usize {
        self.data.len()
    }
}
