//! The wire bytes of a frame as a gather list: headers inline, payload
//! shared.

use crate::{Bytes, ETHERNET_HEADER_LEN, IPV4_HEADER_LEN, TCP_HEADER_LEN};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Range;

/// The longest header stack: Ethernet, IPv4, TCP.
pub const HEADERS_MAX: usize = ETHERNET_HEADER_LEN + IPV4_HEADER_LEN + TCP_HEADER_LEN;

/// The wire bytes of a frame, or of a prefix of one — what a `packet_in`
/// and a `packet_out` carry.
///
/// The first bytes (at most [`HEADERS_MAX`], a header stack) are stored in
/// place; the rest is a packet's own [`Bytes`] up to a length cap. Building
/// one from a [`Packet`](crate::Packet), cloning it and moving it allocate
/// nothing, and [`Packet::decode`](crate::Packet::decode) takes the payload
/// back by reference count — so a frame that rides to the controller and
/// back is 54 copied bytes, however long it is.
///
/// Where the bytes are split is not observable: two frames are equal, hash
/// equal and print alike when their bytes are, and compare with a
/// `Vec<u8>` or a slice of the same bytes.
///
/// # Example
///
/// ```
/// use sdnbuf_net::{Packet, PacketBuilder, WireFrame};
/// let p = PacketBuilder::udp().frame_size(1000).build();
/// let frame = p.wire();
/// assert_eq!(frame.len(), 1000);
/// assert_eq!(frame, p.encode());
/// assert_eq!(frame, WireFrame::from(p.encode())); // gathered == flat
/// assert_eq!(p.wire_prefix(128), p.encode()[..128]);
/// assert_eq!(Packet::decode(&frame).unwrap(), p);
/// ```
#[derive(Clone)]
pub struct WireFrame {
    head: [u8; HEADERS_MAX],
    head_len: u8,
    /// The bytes after the head are the first `tail_len` of `tail`; `None`
    /// exactly when there are none.
    tail: Option<Bytes>,
    tail_len: usize,
}

impl WireFrame {
    /// The empty frame.
    pub const fn new() -> WireFrame {
        WireFrame {
            head: [0; HEADERS_MAX],
            head_len: 0,
            tail: None,
            tail_len: 0,
        }
    }

    /// The frame `head ++ tail`, copying `head` and sharing `tail`.
    ///
    /// # Panics
    ///
    /// If `head` is longer than [`HEADERS_MAX`].
    pub fn from_parts(head: &[u8], tail: Bytes) -> WireFrame {
        let mut frame = WireFrame::new();
        frame.push_head(head);
        frame.set_tail(tail);
        frame
    }

    /// Appends `bytes` to the inline head. Only while there is no tail.
    pub(crate) fn push_head(&mut self, bytes: &[u8]) {
        debug_assert!(self.tail.is_none());
        let at = self.head_len as usize;
        self.head[at..at + bytes.len()].copy_from_slice(bytes);
        self.head_len += bytes.len() as u8;
    }

    /// Makes the whole of `tail` the bytes after the head.
    pub(crate) fn set_tail(&mut self, tail: Bytes) {
        self.tail_len = tail.len();
        self.tail = (!tail.is_empty()).then_some(tail);
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.head_len as usize + self.tail_len
    }

    /// Whether there are no bytes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Keeps the first `n` bytes and drops the rest; no effect when `n`
    /// is not below [`WireFrame::len`].
    pub fn truncate(&mut self, n: usize) {
        let head_len = self.head_len as usize;
        if n < head_len {
            self.head_len = n as u8;
        }
        self.tail_len = self.tail_len.min(n.saturating_sub(head_len));
        if self.tail_len == 0 {
            self.tail = None;
        }
    }

    /// Appends the bytes to `buf`.
    pub fn append_to(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(self.head());
        buf.extend_from_slice(self.tail());
    }

    /// The bytes, contiguous, in one allocation.
    pub fn to_vec(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.len());
        self.append_to(&mut buf);
        buf
    }

    fn head(&self) -> &[u8] {
        &self.head[..self.head_len as usize]
    }

    fn tail(&self) -> &[u8] {
        match &self.tail {
            Some(tail) => &tail[..self.tail_len],
            None => &[],
        }
    }

    fn bytes(&self) -> impl Iterator<Item = &u8> {
        self.head().iter().chain(self.tail())
    }
}

impl Default for WireFrame {
    fn default() -> Self {
        WireFrame::new()
    }
}

/// Flat bytes: the first [`HEADERS_MAX`] go inline, the rest into one
/// allocation.
impl From<&[u8]> for WireFrame {
    fn from(bytes: &[u8]) -> Self {
        let (head, tail) = bytes.split_at(bytes.len().min(HEADERS_MAX));
        let mut frame = WireFrame::new();
        frame.push_head(head);
        if !tail.is_empty() {
            frame.set_tail(tail.into());
        }
        frame
    }
}

impl From<Vec<u8>> for WireFrame {
    fn from(bytes: Vec<u8>) -> Self {
        bytes.as_slice().into()
    }
}

impl PartialEq for WireFrame {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.bytes().eq(other.bytes())
    }
}

impl Eq for WireFrame {}

impl PartialEq<[u8]> for WireFrame {
    fn eq(&self, other: &[u8]) -> bool {
        let (head, tail) = (self.head(), self.tail());
        other.len() == self.len() && other[..head.len()] == *head && other[head.len()..] == *tail
    }
}

impl PartialEq<Vec<u8>> for WireFrame {
    fn eq(&self, other: &Vec<u8>) -> bool {
        *self == other[..]
    }
}

impl PartialEq<WireFrame> for Vec<u8> {
    fn eq(&self, other: &WireFrame) -> bool {
        other == self
    }
}

/// By content, one byte at a time: a `Hasher` need not hash two writes as
/// it hashes their concatenation, and the split must not show.
impl Hash for WireFrame {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_usize(self.len());
        for &b in self.bytes() {
            state.write_u8(b);
        }
    }
}

/// Prints as the `Vec<u8>` of the same bytes does.
impl fmt::Debug for WireFrame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.bytes()).finish()
    }
}

/// Frame bytes [`Packet::decode`](crate::Packet::decode) can parse: flat
/// (`[u8]`, `Vec<u8>`, arrays — anything `AsRef<[u8]>`) or gathered
/// ([`WireFrame`]). A parser reads the headers through
/// [`leading`](FrameBytes::leading) and takes what lies above them with
/// [`payload`](FrameBytes::payload), so flat and gathered bytes go through
/// one parser and come out as the same packet or the same error.
pub trait FrameBytes {
    /// Length of the frame in bytes.
    fn frame_len(&self) -> usize;

    /// The first `min(frame_len, HEADERS_MAX)` bytes, contiguous: borrowed
    /// where they already are, gathered into `scratch` otherwise.
    fn leading<'a>(&'a self, scratch: &'a mut [u8; HEADERS_MAX]) -> &'a [u8];

    /// Bytes `range` of the frame as payload bytes.
    ///
    /// # Panics
    ///
    /// If `range` does not lie within `0..frame_len`.
    fn payload(&self, range: Range<usize>) -> Bytes;
}

impl<T: AsRef<[u8]> + ?Sized> FrameBytes for T {
    fn frame_len(&self) -> usize {
        self.as_ref().len()
    }

    fn leading<'a>(&'a self, _scratch: &'a mut [u8; HEADERS_MAX]) -> &'a [u8] {
        let bytes = self.as_ref();
        &bytes[..bytes.len().min(HEADERS_MAX)]
    }

    fn payload(&self, range: Range<usize>) -> Bytes {
        self.as_ref()[range].into()
    }
}

impl FrameBytes for WireFrame {
    fn frame_len(&self) -> usize {
        self.len()
    }

    fn leading<'a>(&'a self, scratch: &'a mut [u8; HEADERS_MAX]) -> &'a [u8] {
        let head = self.head();
        let want = self.len().min(HEADERS_MAX);
        if head.len() == want {
            return head;
        }
        scratch[..head.len()].copy_from_slice(head);
        scratch[head.len()..want].copy_from_slice(&self.tail()[..want - head.len()]);
        &scratch[..want]
    }

    /// Shares the tail when `range` is exactly the whole of it — every
    /// byte of the allocation, none cut off by the cap — and copies
    /// otherwise, so the result is always the bytes of `range` and nothing
    /// that is not on the wire.
    fn payload(&self, range: Range<usize>) -> Bytes {
        let head_len = self.head_len as usize;
        if let Some(tail) = &self.tail {
            if self.tail_len == tail.len() && range == (head_len..self.len()) {
                return tail.clone();
            }
        }
        let (head, tail) = (self.head(), self.tail());
        let in_head = &head[range.start.min(head_len)..range.end.min(head_len)];
        let in_tail =
            &tail[range.start.saturating_sub(head_len)..range.end.saturating_sub(head_len)];
        if in_head.is_empty() {
            in_tail.into()
        } else {
            [in_head, in_tail].concat().into()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_frame_is_eighty_bytes_with_nothing_on_the_heap() {
        assert_eq!(std::mem::size_of::<WireFrame>(), 80);
        assert!(WireFrame::new().is_empty());
        assert_eq!(WireFrame::default(), Vec::new());
    }

    #[test]
    fn truncate_cuts_head_and_tail_and_never_grows() {
        let bytes: Vec<u8> = (0..200u8).collect();
        for split in [0, 10, HEADERS_MAX] {
            for n in [0, 5, 10, 11, HEADERS_MAX, 100, 200, 500] {
                let mut frame = WireFrame::from_parts(&bytes[..split], bytes[split..].into());
                frame.truncate(n);
                assert_eq!(frame, bytes[..n.min(200)], "split {split}, cut at {n}");
                assert_eq!(frame.tail.is_none(), frame.tail_len == 0);
            }
        }
    }

    #[test]
    fn payload_shares_only_the_whole_uncapped_tail() {
        let tail: Bytes = (0..100u8).collect();
        let frame = WireFrame::from_parts(&[7; 42], tail.clone());
        assert!(std::sync::Arc::ptr_eq(&frame.payload(42..142), &tail));
        // One byte short at either end, or a capped tail, is a copy of the
        // right bytes.
        for range in [43..142, 42..141, 40..142, 10..30, 142..142] {
            let copy = frame.payload(range.clone());
            assert!(!std::sync::Arc::ptr_eq(&copy, &tail));
            assert_eq!(*copy, frame.to_vec()[range]);
        }
        let mut capped = frame.clone();
        capped.truncate(141);
        assert_eq!(*capped.payload(42..141), tail[..99]);
    }

    #[test]
    #[should_panic]
    fn payload_past_the_cap_panics_rather_than_leak_the_tail() {
        let mut frame = WireFrame::from_parts(&[7; 42], (0..100u8).collect());
        frame.truncate(100);
        frame.payload(42..142);
    }
}
