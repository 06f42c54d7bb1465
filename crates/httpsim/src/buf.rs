//! The receive buffer under both incremental parsers.

/// Received stream bytes with a consumed prefix.
///
/// A parser that hands out views of its buffer cannot shift bytes when a
/// message is consumed — the view is still borrowed — so consuming only
/// advances `head`, and [`StreamBuf::push`] compacts before it appends,
/// by the rule of `netsim`'s `TaggedBuf::advance`: once the dead prefix is
/// longer than the pending bytes. A byte is moved at most once per time it
/// is overtaken, and `data` never holds more than twice the pending bytes
/// plus the chunk just pushed.
#[derive(Debug, Default)]
pub(crate) struct StreamBuf {
    data: Vec<u8>,
    /// Length of the consumed prefix of `data`.
    head: usize,
}

impl StreamBuf {
    /// Appends received bytes.
    pub(crate) fn push(&mut self, bytes: &[u8]) {
        let pending = self.data.len() - self.head;
        if self.head > pending {
            self.data.copy_within(self.head.., 0);
            self.data.truncate(pending);
            self.head = 0;
        }
        self.data.extend_from_slice(bytes);
    }

    /// The bytes received and not yet consumed.
    pub(crate) fn pending(&self) -> &[u8] {
        &self.data[self.head..]
    }

    /// Consumes the first `n` pending bytes and returns them; they stay
    /// where they are until the next [`StreamBuf::push`].
    pub(crate) fn consume(&mut self, n: usize) -> &[u8] {
        let start = self.head;
        self.head += n;
        &self.data[start..self.head]
    }

    /// Bytes held, consumed prefix included.
    #[cfg(test)]
    pub(crate) fn held(&self) -> usize {
        self.data.len()
    }
}
