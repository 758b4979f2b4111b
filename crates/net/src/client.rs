//! A minimal blocking client for the wire protocol — enough to drive a
//! server from tests, examples, and other processes without pulling in
//! any async machinery.

use crate::server::NetStream;
use crate::wire::{
    announced_payload_len, decode_frame, encode_frame, Frame, SubmitSpec, WireError, WireReport,
    HEADER_LEN,
};
use rdx_core::error::RdxError;
use std::io::{self, Read, Write};
use std::net::SocketAddr;
use std::path::Path;
use std::time::Duration;

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// The transport failed.
    Io(io::Error),
    /// The server sent bytes that do not decode.
    Wire(WireError),
    /// The server answered with a frame the call did not expect, or sent
    /// [`Frame::ProtocolError`] (the connection is about to be closed).
    Protocol(String),
    /// The server closed the connection.
    Disconnected,
    /// The server refused the request with a typed engine error.
    Rejected(RdxError),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Wire(e) => write!(f, "undecodable server bytes: {e}"),
            ClientError::Protocol(d) => write!(f, "protocol violation: {d}"),
            ClientError::Disconnected => write!(f, "server closed the connection"),
            ClientError::Rejected(e) => write!(f, "request rejected: {e}"),
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Io(e) => Some(e),
            ClientError::Wire(e) => Some(e),
            ClientError::Rejected(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

/// Room offered to a read while the next frame's length is not known yet:
/// enough that a small reply arrives in one `read`, small enough to cost a
/// new connection nothing.
const MIN_READ: usize = 4096;

/// The receive side of a connection: bytes read off the stream but not yet
/// decoded, in a buffer the stream reads into **directly**.
///
/// `buf[..filled]` holds received bytes; the rest of `buf` is initialised
/// room for the next read.  Once a header has been decoded — and thereby
/// validated, so the announced length is at most `max_payload` — the
/// buffer grows once to exactly the frame's size and the remaining reads
/// fill it in place: a multi-megabyte `Done` costs one allocation and as
/// many `read`s as the socket needs, not one per 4 KB.
struct FrameReader {
    buf: Vec<u8>,
    filled: usize,
    max_payload: u32,
}

impl FrameReader {
    fn new(max_payload: u32) -> FrameReader {
        FrameReader {
            buf: Vec::new(),
            filled: 0,
            max_payload,
        }
    }

    /// Blocks until the next complete frame has arrived on `stream`.
    fn read_frame(&mut self, stream: &mut impl Read) -> Result<Frame, ClientError> {
        loop {
            let received = &self.buf[..self.filled];
            // A malformed or oversized header fails here, before the
            // buffer grows to meet whatever length it announces.
            if let Some((frame, consumed)) = decode_frame(received, self.max_payload)? {
                self.buf.copy_within(consumed..self.filled, 0);
                self.filled -= consumed;
                return Ok(frame);
            }
            // Incomplete: make room up to the end of the frame if its
            // header is in, for a first read otherwise.
            let want = match announced_payload_len(received) {
                Some(payload) => HEADER_LEN + payload as usize,
                None => self.filled + MIN_READ,
            };
            if self.buf.len() < want {
                self.buf.reserve_exact(want - self.buf.len());
                self.buf.resize(want, 0);
            }
            match stream.read(&mut self.buf[self.filled..]) {
                Ok(0) => return Err(ClientError::Disconnected),
                Ok(n) => self.filled += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(ClientError::Io(e)),
            }
        }
    }
}

/// A blocking connection to a [`crate::NetServer`].
///
/// One request/reply at a time: each helper sends its frame and blocks on
/// the matching reply.  [`NetClient::wait`] layers a poll loop on top to
/// block until a ticket finishes.
pub struct NetClient {
    stream: NetStream,
    inbound: FrameReader,
    /// Delay between polls inside [`NetClient::wait`].
    poll_interval: Duration,
}

impl NetClient {
    /// Connects over TCP.
    pub fn connect_tcp(addr: SocketAddr) -> Result<NetClient, ClientError> {
        Ok(NetClient::new(NetStream::connect_tcp(addr)?))
    }

    /// Connects over a unix-domain socket.
    #[cfg(unix)]
    pub fn connect_unix(path: &Path) -> Result<NetClient, ClientError> {
        Ok(NetClient::new(NetStream::connect_unix(path)?))
    }

    /// Wraps an already-connected (blocking-mode) stream.
    pub fn new(stream: NetStream) -> NetClient {
        NetClient {
            stream,
            inbound: FrameReader::new(crate::wire::DEFAULT_MAX_PAYLOAD),
            poll_interval: Duration::from_micros(200),
        }
    }

    /// Sends one frame.
    pub fn send(&mut self, frame: &Frame) -> Result<(), ClientError> {
        let mut bytes = Vec::new();
        encode_frame(frame, &mut bytes);
        self.stream.write_all(&bytes)?;
        Ok(())
    }

    /// Blocks until the next complete frame arrives.
    pub fn recv(&mut self) -> Result<Frame, ClientError> {
        self.inbound.read_frame(&mut self.stream)
    }

    /// Receives, turning a server-side [`Frame::ProtocolError`] into the
    /// typed client error every helper reports it as.
    fn recv_expected(&mut self) -> Result<Frame, ClientError> {
        match self.recv()? {
            Frame::ProtocolError { detail } => Err(ClientError::Protocol(detail)),
            frame => Ok(frame),
        }
    }

    /// Opens the session, optionally naming the tenant every subsequent
    /// submit is billed to.  Returns the server's wire version and the
    /// interned raw tenant id.
    pub fn hello(&mut self, tenant: Option<&str>) -> Result<(u8, Option<u32>), ClientError> {
        self.send(&Frame::Hello {
            tenant: tenant.map(str::to_owned),
        })?;
        match self.recv_expected()? {
            Frame::HelloOk { version, tenant } => Ok((version, tenant)),
            other => Err(ClientError::Protocol(format!(
                "expected HelloOk, got {other:?}"
            ))),
        }
    }

    /// Submits one query, returning its ticket.  A pre-ticket refusal
    /// (zero-byte budget) surfaces as [`ClientError::Rejected`].
    pub fn submit(&mut self, spec: SubmitSpec) -> Result<u64, ClientError> {
        self.send(&Frame::Submit(spec))?;
        match self.recv_expected()? {
            Frame::Submitted { ticket } => Ok(ticket),
            Frame::Rejected { error, .. } => Err(ClientError::Rejected(error)),
            other => Err(ClientError::Protocol(format!(
                "expected Submitted, got {other:?}"
            ))),
        }
    }

    /// Polls a ticket once, returning the raw status frame (`Queued`,
    /// `Chunk`, `Done`, or `Rejected`).
    pub fn poll(&mut self, ticket: u64) -> Result<Frame, ClientError> {
        self.send(&Frame::Poll { ticket })?;
        match self.recv_expected()? {
            frame @ (Frame::Queued { .. }
            | Frame::Chunk { .. }
            | Frame::Done { .. }
            | Frame::Rejected { .. }) => Ok(frame),
            other => Err(ClientError::Protocol(format!(
                "expected a status frame, got {other:?}"
            ))),
        }
    }

    /// Cancels a ticket; `false` means it had already finished (or was
    /// never this connection's).
    pub fn cancel(&mut self, ticket: u64) -> Result<bool, ClientError> {
        self.send(&Frame::Cancel { ticket })?;
        match self.recv_expected()? {
            Frame::CancelResult { cancelled, .. } => Ok(cancelled),
            other => Err(ClientError::Protocol(format!(
                "expected CancelResult, got {other:?}"
            ))),
        }
    }

    /// Polls until the ticket finishes: the completion report on success,
    /// the typed engine error on refusal — the same `Result` shape the
    /// in-process `run` returns.
    pub fn wait(&mut self, ticket: u64) -> Result<Result<WireReport, RdxError>, ClientError> {
        loop {
            match self.poll(ticket)? {
                Frame::Done { report, .. } => return Ok(Ok(report)),
                Frame::Rejected { error, .. } => return Ok(Err(error)),
                _ => std::thread::sleep(self.poll_interval),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::DEFAULT_MAX_PAYLOAD;
    use std::collections::VecDeque;

    /// A stream that delivers scripted pieces, one (or part of one) per
    /// `read`, then EOF — what a socket does, minus the kernel's freedom
    /// to coalesce.
    struct Script {
        pieces: VecDeque<Vec<u8>>,
        reads: usize,
    }

    impl Script {
        fn new(pieces: impl IntoIterator<Item = Vec<u8>>) -> Script {
            Script {
                pieces: pieces.into_iter().filter(|p| !p.is_empty()).collect(),
                reads: 0,
            }
        }
    }

    impl Read for Script {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.reads += 1;
            let Some(mut piece) = self.pieces.pop_front() else {
                return Ok(0);
            };
            let n = piece.len().min(buf.len());
            buf[..n].copy_from_slice(&piece[..n]);
            if n < piece.len() {
                self.pieces.push_front(piece.split_off(n));
            }
            Ok(n)
        }
    }

    fn sample_frames() -> Vec<Frame> {
        vec![
            Frame::Submitted { ticket: 7 },
            Frame::Done {
                ticket: 7,
                report: WireReport {
                    rows: 3,
                    chunks: 1,
                    cache_hit: false,
                    share_bytes: 64,
                    columns: vec![vec![1, 2, 3], vec![-1, -2, -3]],
                },
            },
            Frame::Queued {
                ticket: 8,
                position: 2,
            },
        ]
    }

    fn encoded(frames: &[Frame]) -> Vec<u8> {
        let mut bytes = Vec::new();
        for frame in frames {
            encode_frame(frame, &mut bytes);
        }
        bytes
    }

    /// Reads until EOF, asserting the stream decodes to exactly `frames`.
    fn assert_reads(stream: &mut Script, frames: &[Frame], what: &str) {
        let mut reader = FrameReader::new(DEFAULT_MAX_PAYLOAD);
        for frame in frames {
            let got = reader
                .read_frame(stream)
                .unwrap_or_else(|e| panic!("{what}: {e}"));
            assert_eq!(&got, frame, "{what}");
        }
        assert!(
            matches!(reader.read_frame(stream), Err(ClientError::Disconnected)),
            "{what}: EOF after the last frame"
        );
    }

    #[test]
    fn frames_split_at_every_byte_offset_decode() {
        let frames = sample_frames();
        let bytes = encoded(&frames);
        // cut = 0 and cut = len deliver all three frames in one read;
        // cuts 1..8 split the first header; the rest split payloads,
        // later headers and frame boundaries.
        for cut in 0..=bytes.len() {
            let mut stream = Script::new([bytes[..cut].to_vec(), bytes[cut..].to_vec()]);
            assert_reads(&mut stream, &frames, &format!("split at {cut}"));
        }
    }

    #[test]
    fn a_one_byte_dribble_decodes() {
        let frames = sample_frames();
        let mut stream = Script::new(encoded(&frames).into_iter().map(|b| vec![b]));
        assert_reads(&mut stream, &frames, "1-byte dribble");
    }

    #[test]
    fn a_large_done_is_read_in_place_into_an_exactly_sized_buffer() {
        let column: Vec<i32> = (0..300_000).collect();
        let frame = Frame::Done {
            ticket: 1,
            report: WireReport {
                rows: column.len() as u64,
                chunks: 12,
                cache_hit: true,
                share_bytes: 1 << 20,
                columns: vec![column.clone(), column],
            },
        };
        let bytes = encoded(std::slice::from_ref(&frame));
        // Delivered the way loopback does: 64 KB at a time.
        let pieces: Vec<Vec<u8>> = bytes.chunks(64 << 10).map(<[u8]>::to_vec).collect();
        let deliveries = pieces.len();
        let mut stream = Script::new(pieces);
        let mut reader = FrameReader::new(DEFAULT_MAX_PAYLOAD);
        assert_eq!(reader.read_frame(&mut stream).expect("read"), frame);
        // One first read of MIN_READ learns the length; after it every
        // read takes a whole delivery (not 4 KB of it).
        assert_eq!(stream.reads, deliveries + 1);
        assert_eq!(
            reader.buf.len(),
            bytes.len(),
            "grown to the frame, no further"
        );
        assert_eq!(reader.buf.capacity(), bytes.len());
        assert_eq!(reader.filled, 0);
    }

    #[test]
    fn a_hostile_length_is_refused_before_the_buffer_grows_to_meet_it() {
        for (max, announced) in [(1024u32, 1025u32), (DEFAULT_MAX_PAYLOAD, u32::MAX)] {
            let mut header = encoded(&[Frame::Poll { ticket: 0 }]);
            header.truncate(HEADER_LEN);
            header[4..8].copy_from_slice(&announced.to_le_bytes());
            // The peer would even follow up with payload; it is never read.
            let mut stream = Script::new([header, vec![0xAB; 1 << 16]]);
            let mut reader = FrameReader::new(max);
            match reader.read_frame(&mut stream) {
                Err(ClientError::Wire(WireError::Oversized { len, max: cap })) => {
                    assert_eq!((len, cap), (announced, max));
                }
                other => panic!("expected Oversized, got {other:?}"),
            }
            assert_eq!(stream.reads, 1, "refused from the header alone");
            assert!(
                reader.buf.capacity() <= HEADER_LEN + MIN_READ,
                "buffer grew to {} B for a refused frame",
                reader.buf.capacity()
            );
        }
    }

    #[test]
    fn a_payload_at_the_cap_is_accepted_and_sized_exactly() {
        // max_payload bounds the buffer from above: the largest frame the
        // decoder admits makes it HEADER_LEN + max_payload, not a byte more.
        const CAP: usize = 10_000;
        let frame = Frame::ProtocolError {
            detail: "x".repeat(CAP - 4),
        };
        let bytes = encoded(std::slice::from_ref(&frame));
        assert_eq!(bytes.len(), HEADER_LEN + CAP);
        let mut stream = Script::new(bytes.chunks(100).map(<[u8]>::to_vec));
        let mut reader = FrameReader::new(CAP as u32);
        assert_eq!(reader.read_frame(&mut stream).expect("read"), frame);
        assert_eq!(reader.buf.capacity(), HEADER_LEN + CAP);
    }
}
