//! A minimal client for the wire protocol — enough to drive a server from
//! tests, examples, and other processes without pulling in any async
//! machinery.  Each call returns once its reply is in; the wait for it
//! follows the server's own idle policy (see [`NetClient`]).  The server
//! pushes each ticket's outcome unasked, so the client keeps the outcomes
//! that arrive while a call waits for its own reply.

use crate::idle::{IdleAction, IdlePolicy};
use crate::server::{NetStream, NO_TICKET};
use crate::wire::{
    announced_payload_len, decode_frame, encode_frame, Frame, SubmitSpec, WireError, WireReport,
    HEADER_LEN,
};
use rdx_core::error::RdxError;
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::SocketAddr;
use std::path::Path;
use std::time::Instant;

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
pub(crate) const MIN_READ: usize = 4096;

/// A stream whose blocking mode can be switched, so a wait that has
/// outlasted the quiet window can hand itself to the kernel.
trait Blocking {
    fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()>;
}

impl Blocking for NetStream {
    fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        NetStream::set_nonblocking(self, nonblocking)
    }
}

/// Runs `op` — one read or write on the non-blocking `stream` — until it
/// moves bytes or fails for real, waiting out each `WouldBlock` under
/// [`IdlePolicy`]: re-try after a `yield_now()` within the quiet window,
/// then make one attempt in blocking mode and switch back.
fn until_ready<S: Blocking>(
    stream: &mut S,
    mut op: impl FnMut(&mut S) -> io::Result<usize>,
) -> io::Result<usize> {
    let mut idle = IdlePolicy::default();
    let mut last = Instant::now();
    let mut block = false;
    loop {
        let result = if block {
            stream.set_nonblocking(false)?;
            let result = op(stream);
            stream.set_nonblocking(true)?;
            result
        } else {
            op(stream)
        };
        match result {
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted
                ) => {}
            done => return done,
        }
        let now = Instant::now();
        block = match idle.next(false, now - last) {
            IdleAction::Sleep(_) => true,
            IdleAction::Continue | IdleAction::Yield => {
                std::thread::yield_now();
                false
            }
        };
        last = now;
    }
}

/// The receive side of a connection, at both ends of the wire: bytes read
/// off the stream but not yet decoded, in a buffer the stream reads into
/// **directly**.  The client waits with [`FrameReader::read_frame`]; the
/// server's cycle calls [`FrameReader::decode`], and [`FrameReader::fill`]
/// only when no frame is buffered and it has room to answer one.
///
/// `buf[start..filled]` holds received bytes; the rest of `buf` is
/// initialised room for the next read.  Frames decode at the `start`
/// offset, so a burst that one read brought in is not moved per frame.
/// Once a header has been decoded — and thereby validated, so the announced
/// length is at most `max_payload` — the buffer grows once to exactly the
/// frame's size and the remaining reads fill it in place: a multi-megabyte
/// `Done` costs one allocation and as many `read`s as the socket needs,
/// not one per 4 KB.  Small frames never grow it past
/// [`HEADER_LEN`] + [`MIN_READ`].
pub(crate) struct FrameReader {
    buf: Vec<u8>,
    start: usize,
    filled: usize,
    max_payload: u32,
}

impl FrameReader {
    pub(crate) fn new(max_payload: u32) -> FrameReader {
        FrameReader {
            buf: Vec::new(),
            start: 0,
            filled: 0,
            max_payload,
        }
    }

    /// The next frame already buffered, if one is complete; does no I/O.
    /// A malformed or oversized header fails here, before the buffer grows
    /// to meet whatever length it announces.
    pub(crate) fn decode(&mut self) -> Result<Option<Frame>, WireError> {
        let received = &self.buf[self.start..self.filled];
        let Some((frame, used)) = decode_frame(received, self.max_payload)? else {
            return Ok(None);
        };
        self.start += used;
        if self.start == self.filled {
            // All decoded: the next read starts at the front.
            (self.start, self.filled) = (0, 0);
        }
        Ok(Some(frame))
    }

    /// Makes one `read` from `stream` once [`FrameReader::decode`] has found
    /// no complete frame (and so validated any header that is in), into room
    /// for the rest of that frame, or for [`MIN_READ`] bytes before its
    /// header is in.  The undecoded bytes move to the front only when that
    /// room does not fit behind them.  `Ok(0)` is EOF.
    pub(crate) fn fill<S: Read>(&mut self, stream: &mut S) -> io::Result<usize> {
        let pending = self.filled - self.start;
        let want = match announced_payload_len(&self.buf[self.start..self.filled]) {
            Some(payload) => HEADER_LEN + payload as usize,
            None => pending + MIN_READ,
        };
        if self.start + want > self.buf.len() {
            self.buf.copy_within(self.start..self.filled, 0);
            (self.start, self.filled) = (0, pending);
            if self.buf.len() < want {
                self.buf.reserve_exact(want - self.buf.len());
                self.buf.resize(want, 0);
            }
        }
        let n = stream.read(&mut self.buf[self.filled..])?;
        self.filled += n;
        Ok(n)
    }

    /// Waits until the next complete frame has arrived on `stream`.
    fn read_frame<S: Read + Blocking>(&mut self, stream: &mut S) -> Result<Frame, ClientError> {
        loop {
            if let Some(frame) = self.decode()? {
                return Ok(frame);
            }
            if until_ready(stream, |s| self.fill(s))? == 0 {
                return Err(ClientError::Disconnected);
            }
        }
    }
}

/// A ticket's outcome: the completion report, or the typed engine error.
type Outcome = Result<WireReport, RdxError>;

/// Splits off a frame only a push carries, as its ticket and outcome: a
/// `Done`, or a `Rejected` of an issued ticket.  The server's replies
/// refuse only with `UnknownTicket` (a `Poll`) or under [`NO_TICKET`] (a
/// `Submit`).
fn pushed(frame: Frame) -> Result<(u64, Outcome), Frame> {
    match frame {
        Frame::Done { ticket, report } => Ok((ticket, Ok(report))),
        Frame::Rejected { ticket, error }
            if ticket != NO_TICKET && !matches!(error, RdxError::UnknownTicket { .. }) =>
        {
            Ok((ticket, Err(error)))
        }
        frame => Err(frame),
    }
}

/// The terminal frame that carries `ticket`'s outcome.
fn terminal_frame(ticket: u64, outcome: Outcome) -> Frame {
    match outcome {
        Ok(report) => Frame::Done { ticket, report },
        Err(error) => Frame::Rejected { ticket, error },
    }
}

/// A connection to a [`crate::NetServer`].
///
/// Each helper sends its frame and returns once the matching reply is in.
/// The server pushes every ticket's terminal frame (`Done` or `Rejected`)
/// unasked, in the cycle the ticket finishes, so a pushed frame can arrive
/// while a helper waits for its own reply: the client keeps it, by ticket,
/// until [`NetClient::poll`] or [`NetClient::wait`] asks for that ticket.
/// `wait` sends nothing; it reads until the ticket's frame is in.  Raw
/// [`NetClient::recv`] returns whatever frame comes next, a pushed one
/// included, and keeps nothing.
///
/// **Waiting.**  The stream is non-blocking, and a reply that is not in
/// yet is waited for under the same policy [`crate::NetServer::serve`]
/// uses between idle cycles: for a quiet window of 2 ms the client
/// re-reads with `std::thread::yield_now()` in between, and after that it
/// makes one blocking read and goes back to non-blocking.  A send that
/// meets a full socket buffer waits the same way.  A reply from a server
/// on another core is thus picked up by a running thread instead of
/// waking a parked one.  The price is CPU: a waiting client holds its core
/// for up to the quiet window per reply, and when it shares one core with
/// the server its yields hand that core over but its re-reads still take
/// turns with the server's work.
pub struct NetClient {
    stream: NetStream,
    inbound: FrameReader,
    /// The tickets [`NetClient::submit`] returned whose outcome `poll` or
    /// `wait` has not handed out yet, each with its outcome once pushed.
    tickets: HashMap<u64, Option<Outcome>>,
}

impl NetClient {
    /// Connects over TCP.
    pub fn connect_tcp(addr: SocketAddr) -> Result<NetClient, ClientError> {
        NetClient::new(NetStream::connect_tcp(addr)?)
    }

    /// Connects over a unix-domain socket.
    #[cfg(unix)]
    pub fn connect_unix(path: &Path) -> Result<NetClient, ClientError> {
        NetClient::new(NetStream::connect_unix(path)?)
    }

    /// Wraps an already-connected stream, switching it to non-blocking
    /// mode (the client's waits switch it back for one blocking read or
    /// write at a time, see [`NetClient`]).
    pub fn new(stream: NetStream) -> Result<NetClient, ClientError> {
        stream.set_nonblocking(true)?;
        Ok(NetClient {
            stream,
            inbound: FrameReader::new(crate::wire::DEFAULT_MAX_PAYLOAD),
            tickets: HashMap::new(),
        })
    }

    /// Sends one frame.
    pub fn send(&mut self, frame: &Frame) -> Result<(), ClientError> {
        let mut bytes = Vec::new();
        encode_frame(frame, &mut bytes);
        let mut rest = &bytes[..];
        while !rest.is_empty() {
            match until_ready(&mut self.stream, |s| s.write(rest))? {
                0 => return Err(ClientError::Io(io::ErrorKind::WriteZero.into())),
                n => rest = &rest[n..],
            }
        }
        Ok(())
    }

    /// Waits until the next complete frame arrives — a reply, or an
    /// outcome the server pushed, which this call does not keep.
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

    /// Receives the reply to the request just sent, keeping every pushed
    /// outcome that arrives ahead of it.
    fn reply(&mut self) -> Result<Frame, ClientError> {
        loop {
            match pushed(self.recv_expected()?) {
                Ok((ticket, outcome)) => {
                    self.tickets.insert(ticket, Some(outcome));
                }
                Err(frame) => return Ok(frame),
            }
        }
    }

    /// Hands out `ticket`'s outcome if it has been pushed.
    fn take_pushed(&mut self, ticket: u64) -> Option<Outcome> {
        self.tickets.get(&ticket)?.as_ref()?;
        self.tickets.remove(&ticket).flatten()
    }

    /// Opens the session, optionally naming the tenant every subsequent
    /// submit is billed to.  Returns the server's wire version and the
    /// interned raw tenant id.
    pub fn hello(&mut self, tenant: Option<&str>) -> Result<(u8, Option<u32>), ClientError> {
        self.send(&Frame::Hello {
            tenant: tenant.map(str::to_owned),
        })?;
        match self.reply()? {
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
        match self.reply()? {
            Frame::Submitted { ticket } => {
                self.tickets.insert(ticket, None);
                Ok(ticket)
            }
            Frame::Rejected { error, .. } => Err(ClientError::Rejected(error)),
            other => Err(ClientError::Protocol(format!(
                "expected Submitted, got {other:?}"
            ))),
        }
    }

    /// The ticket's status frame (`Queued`, `Chunk`, `Done`, or
    /// `Rejected`).  A pushed outcome is handed out without sending
    /// anything; otherwise this is one `Poll` round trip.  An outcome is
    /// handed out once: a later poll of its ticket is
    /// `Rejected(UnknownTicket)`.
    pub fn poll(&mut self, ticket: u64) -> Result<Frame, ClientError> {
        if let Some(outcome) = self.take_pushed(ticket) {
            return Ok(terminal_frame(ticket, outcome));
        }
        self.send(&Frame::Poll { ticket })?;
        match self.reply()? {
            frame @ (Frame::Queued { .. } | Frame::Chunk { .. }) => Ok(frame),
            // The server forgets a ticket as it pushes the outcome, and
            // TCP keeps frame order: an outcome pushed while this poll was
            // on its way came in ahead of the `UnknownTicket` answering it.
            frame @ Frame::Rejected { .. } => Ok(match self.tickets.remove(&ticket).flatten() {
                Some(outcome) => terminal_frame(ticket, outcome),
                None => frame,
            }),
            other => Err(ClientError::Protocol(format!(
                "expected a status frame, got {other:?}"
            ))),
        }
    }

    /// Cancels a ticket; `false` means it had already finished (or was
    /// never this connection's).
    pub fn cancel(&mut self, ticket: u64) -> Result<bool, ClientError> {
        self.send(&Frame::Cancel { ticket })?;
        match self.reply()? {
            Frame::CancelResult { cancelled, .. } => Ok(cancelled),
            other => Err(ClientError::Protocol(format!(
                "expected CancelResult, got {other:?}"
            ))),
        }
    }

    /// Waits until the ticket's pushed outcome is in, sending nothing:
    /// the completion report on success, the typed engine error on
    /// refusal — the same `Result` shape the in-process `Query::run`
    /// returns.  A ticket this client's `submit` did not return, or whose
    /// outcome was handed out already, is `UnknownTicket` at once.
    pub fn wait(&mut self, ticket: u64) -> Result<Result<WireReport, RdxError>, ClientError> {
        while let Some(None) = self.tickets.get(&ticket) {
            let (pushed_ticket, outcome) = pushed(self.recv_expected()?).map_err(|frame| {
                ClientError::Protocol(format!("expected a pushed outcome, got {frame:?}"))
            })?;
            self.tickets.insert(pushed_ticket, Some(outcome));
        }
        let unknown = Err(RdxError::UnknownTicket { ticket });
        Ok(self.tickets.remove(&ticket).flatten().unwrap_or(unknown))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::idle::QUIET_WINDOW;
    use crate::wire::DEFAULT_MAX_PAYLOAD;
    use std::cell::Cell;
    use std::collections::VecDeque;
    use std::time::Duration;

    impl FrameReader {
        /// The bytes the reader holds: received, and room for the next read.
        pub(crate) fn capacity(&self) -> usize {
            self.buf.capacity()
        }
    }

    /// One scripted answer of a [`Script`].
    enum Delivery {
        /// Bytes, handed out over as many reads as they take.
        Bytes(Vec<u8>),
        /// This many non-blocking reads answer `WouldBlock`; a blocking
        /// read waits them out, as the kernel would.
        WouldBlock(usize),
    }

    /// A stream that delivers scripted pieces, one (or part of one) per
    /// `read`, then EOF — what a socket does, minus the kernel's freedom
    /// to coalesce.
    struct Script {
        deliveries: VecDeque<Delivery>,
        reads: usize,
        blocking: Cell<bool>,
        blocking_reads: usize,
    }

    impl Script {
        fn new(pieces: impl IntoIterator<Item = Vec<u8>>) -> Script {
            Script::with(
                pieces
                    .into_iter()
                    .filter(|p| !p.is_empty())
                    .map(Delivery::Bytes),
            )
        }

        /// The same pieces with one `WouldBlock` before each.
        fn stalled(pieces: impl IntoIterator<Item = Vec<u8>>) -> Script {
            Script::with(
                pieces
                    .into_iter()
                    .filter(|p| !p.is_empty())
                    .flat_map(|p| [Delivery::WouldBlock(1), Delivery::Bytes(p)]),
            )
        }

        fn with(deliveries: impl IntoIterator<Item = Delivery>) -> Script {
            Script {
                deliveries: deliveries.into_iter().collect(),
                reads: 0,
                blocking: Cell::new(false),
                blocking_reads: 0,
            }
        }
    }

    impl Blocking for Script {
        fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
            self.blocking.set(!nonblocking);
            Ok(())
        }
    }

    impl Read for Script {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.reads += 1;
            if self.blocking.get() {
                self.blocking_reads += 1;
            }
            loop {
                match self.deliveries.pop_front() {
                    None => return Ok(0),
                    Some(Delivery::WouldBlock(n)) if n > 0 && !self.blocking.get() => {
                        self.deliveries.push_front(Delivery::WouldBlock(n - 1));
                        return Err(io::ErrorKind::WouldBlock.into());
                    }
                    // A blocking read waits the stall out.
                    Some(Delivery::WouldBlock(_)) => {}
                    Some(Delivery::Bytes(mut piece)) => {
                        let n = piece.len().min(buf.len());
                        buf[..n].copy_from_slice(&piece[..n]);
                        if n < piece.len() {
                            self.deliveries
                                .push_front(Delivery::Bytes(piece.split_off(n)));
                        }
                        return Ok(n);
                    }
                }
            }
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
        // later headers and frame boundaries.  Each split is delivered
        // back to back and again with a `WouldBlock` before each piece.
        for cut in 0..=bytes.len() {
            let pieces = || [bytes[..cut].to_vec(), bytes[cut..].to_vec()];
            assert_reads(
                &mut Script::new(pieces()),
                &frames,
                &format!("split at {cut}"),
            );
            assert_reads(
                &mut Script::stalled(pieces()),
                &frames,
                &format!("stalled split at {cut}"),
            );
        }
    }

    #[test]
    fn a_reply_past_the_quiet_window_is_taken_by_one_blocking_read() {
        let frame = sample_frames().swap_remove(1);
        // No non-blocking read ever sees the bytes: only the fallback can.
        let mut stream = Script::with([
            Delivery::WouldBlock(usize::MAX),
            Delivery::Bytes(encoded(std::slice::from_ref(&frame))),
        ]);
        let mut reader = FrameReader::new(DEFAULT_MAX_PAYLOAD);
        let start = Instant::now();
        assert_eq!(reader.read_frame(&mut stream).expect("read"), frame);
        assert!(start.elapsed() >= QUIET_WINDOW, "re-read for the window");
        assert_eq!(stream.blocking_reads, 1);
        assert!(!stream.blocking.get(), "back to non-blocking");
    }

    /// A reply that comes after the quiet window — the server thread idles
    /// for 10 ms first — arrives intact through the blocking fallback, and
    /// the same client serves the next query straight after.
    #[test]
    fn a_late_reply_arrives_over_loopback_and_the_client_serves_on() {
        const LATE: Duration = Duration::from_millis(10);
        let report = |ticket: u64| WireReport {
            rows: 2,
            chunks: 1,
            cache_hit: ticket > 1,
            share_bytes: 64,
            columns: vec![vec![ticket as i32, 7], vec![-1, -2]],
        };
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        // A scripted server: answer each submit (the first one late), then
        // push its `Done` unasked.
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            let mut stream = NetStream::Tcp(stream);
            let mut reader = FrameReader::new(DEFAULT_MAX_PAYLOAD);
            let reply = |stream: &mut NetStream, frame: &Frame| {
                let mut bytes = Vec::new();
                encode_frame(frame, &mut bytes);
                stream.write_all(&bytes).expect("reply");
            };
            for (ticket, delay) in [(1, LATE), (2, Duration::ZERO)] {
                assert!(matches!(
                    reader.read_frame(&mut stream),
                    Ok(Frame::Submit(_))
                ));
                std::thread::sleep(delay);
                reply(&mut stream, &Frame::Submitted { ticket });
                let report = report(ticket);
                reply(&mut stream, &Frame::Done { ticket, report });
            }
        });
        let spec = SubmitSpec {
            larger: 0,
            smaller: 1,
            project_larger: 1,
            project_smaller: 1,
            budget_bytes: None,
            threads: None,
            codes: None,
            deadline_ns: None,
            priority: 1,
        };
        let mut client = NetClient::connect_tcp(addr).expect("connect");
        for ticket in [1, 2] {
            let start = Instant::now();
            assert_eq!(client.submit(spec).expect("submit"), ticket);
            if ticket == 1 {
                assert!(start.elapsed() >= LATE, "the reply was late");
            }
            let done = client.wait(ticket).expect("wait").expect("done");
            assert_eq!(done, report(ticket));
        }
        server.join().expect("server thread");
    }

    /// Pushed outcomes are kept until asked for, and handed out once.  A
    /// `Done` pushed ahead of the next `Submitted` is kept by `submit` and
    /// handed out by `poll` without a `Poll` on the wire; a `Poll` that
    /// crosses its ticket's pushed `Done` is answered `UnknownTicket` behind
    /// it, and `poll` returns the `Done`; after that the ticket is spent.
    #[test]
    fn pushed_outcomes_are_kept_until_asked_for_and_handed_out_once() {
        let done = |ticket: u64| Frame::Done {
            ticket,
            report: WireReport {
                rows: 1,
                chunks: 1,
                cache_hit: false,
                share_bytes: 64,
                columns: vec![vec![ticket as i32]],
            },
        };
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            let mut stream = NetStream::Tcp(stream);
            let mut reader = FrameReader::new(DEFAULT_MAX_PAYLOAD);
            let unknown = RdxError::UnknownTicket { ticket: 8 };
            // (the request read, the frames written), in order.
            let transcript = [
                (None, vec![Frame::Submitted { ticket: 7 }, done(7)]),
                (None, vec![Frame::Submitted { ticket: 8 }]),
                (
                    Some(Frame::Poll { ticket: 8 }),
                    vec![
                        done(8),
                        Frame::Rejected {
                            ticket: 8,
                            error: unknown,
                        },
                    ],
                ),
            ];
            for (request, frames) in transcript {
                let read = reader.read_frame(&mut stream).expect("a request");
                match request {
                    Some(request) => assert_eq!(read, request),
                    None => assert!(matches!(read, Frame::Submit(_)), "{read:?}"),
                }
                stream.write_all(&encoded(&frames)).expect("reply");
            }
            // The client sends nothing more before it hangs up.
            assert!(matches!(
                reader.read_frame(&mut stream),
                Err(ClientError::Disconnected)
            ));
        });
        let spec = SubmitSpec {
            larger: 0,
            smaller: 1,
            project_larger: 1,
            project_smaller: 1,
            budget_bytes: None,
            threads: None,
            codes: None,
            deadline_ns: None,
            priority: 1,
        };
        let mut client = NetClient::connect_tcp(addr).expect("connect");
        assert_eq!(client.submit(spec).expect("submit"), 7);
        assert_eq!(client.submit(spec).expect("submit past a push"), 8);
        assert_eq!(client.poll(7).expect("kept"), done(7));
        assert_eq!(client.poll(8).expect("crossed"), done(8));
        for ticket in [7, 8] {
            assert!(matches!(
                client.wait(ticket),
                Ok(Err(RdxError::UnknownTicket { .. }))
            ));
        }
        drop(client);
        server.join().expect("server thread");
    }

    #[test]
    fn a_one_byte_dribble_decodes() {
        let frames = sample_frames();
        let mut stream = Script::new(encoded(&frames).into_iter().map(|b| vec![b]));
        assert_reads(&mut stream, &frames, "1-byte dribble");
    }

    /// A burst that one read brings in is decoded at an offset, frame by
    /// frame, from that one read: 256 `Poll`s fill exactly [`MIN_READ`],
    /// and the buffer never grows past one read's room to hold them.
    #[test]
    fn a_burst_in_one_read_decodes_without_another_read_or_growth() {
        let frames: Vec<Frame> = (0..256).map(|ticket| Frame::Poll { ticket }).collect();
        let bytes = encoded(&frames);
        assert_eq!(bytes.len(), MIN_READ, "the burst fills one read");
        let mut stream = Script::new([bytes]);
        let mut reader = FrameReader::new(DEFAULT_MAX_PAYLOAD);
        for frame in &frames {
            assert_eq!(&reader.read_frame(&mut stream).expect("read"), frame);
        }
        assert_eq!(stream.reads, 1, "every frame decoded from the first read");
        assert!(
            reader.capacity() <= HEADER_LEN + MIN_READ,
            "buffer grew to {} B",
            reader.capacity()
        );
        assert!(matches!(reader.decode(), Ok(None)), "nothing left over");
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
