//! The socket front-end: a non-blocking accept/read/decode/write loop
//! interleaved with [`QueryEngine::step`].
//!
//! One thread owns everything — the listener, every connection's buffers,
//! and the engine.  A poll cycle services sockets *between* engine steps,
//! so a slow client never stalls query execution and a long chunk never
//! stalls `accept` for longer than one chunk's work.
//!
//! **Waiting.**  [`NetServer::poll_cycle`] never blocks; what happens
//! between cycles is the caller's choice.  [`NetServer::serve`] wakes on
//! arrival rather than on a timer: after a cycle that moved anything it
//! polls again at once, for a quiet window of 2 ms after the last progress
//! it re-polls with `std::thread::yield_now()` in between (a client
//! sharing the core gets the CPU, a client on another core is answered
//! within a cycle instead of after a timer tick), and only once the window
//! has passed with nothing to do does it fall back to 200 µs sleeps.  The
//! trade-off is CPU: a server that sees at least one request per quiet
//! window holds its core at 100 %, while a quiet server sleeps exactly as
//! a plain sleep loop would.  [`NetStats::idle_yields`] and
//! [`NetStats::idle_sleeps`] count the two kinds of wait.  Embedders that
//! call `poll_cycle()` themselves pick their own wait.
//!
//! Backpressure is
//! per-connection: each connection has a bounded outbound queue, and when
//! a client stops draining replies the server stops *decoding that
//! connection's requests* (bytes stay in its inbound buffer, the socket's
//! own flow control eventually pushes back on the client) while every
//! other connection and the engine proceed untouched.
//!
//! Protocol violations are connection-scoped by the same principle: a
//! malformed frame gets a best-effort [`Frame::ProtocolError`] reply and
//! tears down that connection only — the listener, the other connections,
//! and the engine all survive.

use crate::wire::{
    decode_frame, encode_done, encode_frame, DoneHead, Frame, SubmitSpec, DEFAULT_MAX_PAYLOAD,
    WIRE_VERSION,
};
use rdx_core::budget::MemoryBudget;
use rdx_core::error::RdxError;
use rdx_core::strategy::QuerySpec;
use rdx_serve::{
    QueryEngine, QueryOutcome, RelationId, ServerRequest, TenantId, TicketId, TicketStatus,
};
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::time::{Duration, Instant};

/// A non-blocking listening socket, TCP or unix-domain.
#[derive(Debug)]
pub enum NetListener {
    /// A TCP listener (loopback or otherwise).
    Tcp(TcpListener),
    /// A unix-domain socket listener.
    #[cfg(unix)]
    Unix(UnixListener),
}

impl NetListener {
    /// Binds a TCP listener (pass port 0 for an ephemeral port) and
    /// switches it to non-blocking mode.
    pub fn bind_tcp(addr: &str) -> io::Result<NetListener> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        Ok(NetListener::Tcp(listener))
    }

    /// Binds a unix-domain listener at `path` and switches it to
    /// non-blocking mode.  The caller owns the path (it must not exist).
    #[cfg(unix)]
    pub fn bind_unix(path: &Path) -> io::Result<NetListener> {
        let listener = UnixListener::bind(path)?;
        listener.set_nonblocking(true)?;
        Ok(NetListener::Unix(listener))
    }

    /// The bound TCP address, for handing an ephemeral port to clients.
    /// `None` for unix listeners.
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        match self {
            NetListener::Tcp(l) => l.local_addr().ok(),
            #[cfg(unix)]
            NetListener::Unix(_) => None,
        }
    }

    /// Accepts one pending connection, or `None` when nothing is pending.
    fn accept(&self) -> io::Result<Option<NetStream>> {
        match self {
            NetListener::Tcp(l) => match l.accept() {
                Ok((stream, _)) => Ok(Some(NetStream::Tcp(stream))),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
                Err(e) => Err(e),
            },
            #[cfg(unix)]
            NetListener::Unix(l) => match l.accept() {
                Ok((stream, _)) => Ok(Some(NetStream::Unix(stream))),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
                Err(e) => Err(e),
            },
        }
    }
}

/// One connected byte stream, TCP or unix-domain — the transport under
/// both the server's connections and the blocking [`crate::NetClient`].
#[derive(Debug)]
pub enum NetStream {
    /// A TCP connection.
    Tcp(TcpStream),
    /// A unix-domain connection.
    #[cfg(unix)]
    Unix(UnixStream),
}

impl NetStream {
    /// Connects to a TCP server (blocking mode — callers that poll flip
    /// it with [`NetStream::set_nonblocking`]).
    pub fn connect_tcp(addr: SocketAddr) -> io::Result<NetStream> {
        Ok(NetStream::Tcp(TcpStream::connect(addr)?))
    }

    /// Connects to a unix-domain server.
    #[cfg(unix)]
    pub fn connect_unix(path: &Path) -> io::Result<NetStream> {
        Ok(NetStream::Unix(UnixStream::connect(path)?))
    }

    /// Switches the stream between blocking and non-blocking mode.
    pub fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        match self {
            NetStream::Tcp(s) => s.set_nonblocking(nonblocking),
            #[cfg(unix)]
            NetStream::Unix(s) => s.set_nonblocking(nonblocking),
        }
    }
}

impl Read for NetStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            NetStream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            NetStream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for NetStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            NetStream::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            NetStream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            NetStream::Tcp(s) => s.flush(),
            #[cfg(unix)]
            NetStream::Unix(s) => s.flush(),
        }
    }
}

/// Tuning knobs for the poll loop.
#[derive(Debug, Clone, Copy)]
pub struct NetConfig {
    /// Per-frame payload cap handed to the decoder — a hostile length
    /// field is refused before any buffer grows to meet it.
    pub max_payload: u32,
    /// Bound on a connection's queued outbound frames.  At the bound the
    /// server stops decoding that connection's requests until the client
    /// drains replies — backpressure that never blocks the engine.
    pub outbound_limit: usize,
    /// Engine steps per poll cycle: the knob trading socket latency
    /// against query throughput.  It bounds how long sockets go unserviced
    /// while the engine has work; how the loop waits when a cycle finds
    /// *no* work is not configurable — [`NetServer::serve`] applies its
    /// fixed yield-then-sleep policy, and callers of
    /// [`NetServer::poll_cycle`] wait however they like.
    pub steps_per_cycle: usize,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            max_payload: DEFAULT_MAX_PAYLOAD,
            outbound_limit: 64,
            steps_per_cycle: 4,
        }
    }
}

/// Cumulative counters for one server's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Connections accepted.
    pub accepted: u64,
    /// Connections closed (all causes: client EOF, protocol teardown,
    /// socket errors).
    pub closed: u64,
    /// Frames decoded from clients.
    pub frames_in: u64,
    /// Frames queued to clients.
    pub frames_out: u64,
    /// Malformed-input events (each also tears its connection down).
    pub decode_errors: u64,
    /// Times a connection's request decoding paused because its outbound
    /// queue hit [`NetConfig::outbound_limit`].
    pub backpressure_pauses: u64,
    /// Idle cycles [`NetServer::serve`] answered with a
    /// `std::thread::yield_now()` (inside the quiet window after the last
    /// progress).  Zero when the caller drives [`NetServer::poll_cycle`]
    /// itself.
    pub idle_yields: u64,
    /// Idle cycles [`NetServer::serve`] answered with a 200 µs sleep (the
    /// quiet window had passed).  A busy connection should add next to
    /// none; a count that grows with the number of requests means clients
    /// are paying a timer tick per round trip.
    pub idle_sleeps: u64,
}

/// How long after the last cycle that made progress [`NetServer::serve`]
/// keeps re-polling (yielding in between) before it starts to sleep.  Long
/// enough to cover a closed-loop client's turnaround — including the
/// 200 µs poll interval of [`crate::NetClient::wait`] and the timer slack
/// on top of it — short enough that an abandoned server spins for a
/// negligible time.
const QUIET_WINDOW: Duration = Duration::from_millis(2);

/// One sleep of a server that has been quiet for longer than
/// [`QUIET_WINDOW`]: the bound on how late a request into a sleeping
/// server is noticed.
const IDLE_SLEEP: Duration = Duration::from_micros(200);

/// What [`NetServer::serve`] does between two poll cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum IdleAction {
    /// The cycle made progress: poll again immediately.
    Continue,
    /// Nothing moved, but something did recently: let another thread run,
    /// then poll again.
    Yield,
    /// Nothing has moved for a whole quiet window: sleep this long.
    Sleep(Duration),
}

/// The idle policy of [`NetServer::serve`] as a clock-free state machine:
/// fed each cycle's outcome and the time since the previous cycle, it
/// tracks how long the loop has been quiet and answers how to wait.
#[derive(Debug, Default)]
struct IdlePolicy {
    /// Time accumulated since the last cycle that made progress.
    quiet: Duration,
}

impl IdlePolicy {
    fn next(&mut self, progressed: bool, elapsed: Duration) -> IdleAction {
        if progressed {
            self.quiet = Duration::ZERO;
            return IdleAction::Continue;
        }
        self.quiet = self.quiet.saturating_add(elapsed);
        if self.quiet < QUIET_WINDOW {
            IdleAction::Yield
        } else {
            IdleAction::Sleep(IDLE_SLEEP)
        }
    }
}

/// Per-connection state: buffered bytes in, queued frames out, and the
/// session facts (tenant, issued tickets) the protocol scopes per
/// connection.
struct Conn {
    stream: NetStream,
    inbound: Vec<u8>,
    outbound: VecDeque<Vec<u8>>,
    /// Bytes of `outbound.front()` already written (partial writes).
    write_pos: usize,
    /// Interned tenant from this connection's `Hello`, billed on every
    /// subsequent `Submit`.
    tenant: Option<TenantId>,
    /// Tickets issued to this connection: raw wire number → engine handle.
    /// Tickets are connection-scoped — polling another client's ticket is
    /// `UnknownTicket` by construction.
    tickets: HashMap<u64, TicketId>,
    /// Tear down once the outbound queue drains (EOF seen, or a protocol
    /// error reply is on its way out).
    close_after_flush: bool,
    /// Set while this connection is holding off decoding at the outbound
    /// bound, so one pause is counted once, not once per poll cycle.
    paused: bool,
}

impl Conn {
    fn new(stream: NetStream) -> Conn {
        Conn {
            stream,
            inbound: Vec::new(),
            outbound: VecDeque::new(),
            write_pos: 0,
            tenant: None,
            tickets: HashMap::new(),
            close_after_flush: false,
            paused: false,
        }
    }
}

/// What one cycle's socket servicing did to a connection.
enum ConnFate {
    Keep,
    Close,
}

/// The engine's socket front-end: owns a [`QueryEngine`], a listener, and
/// every connection, and multiplexes them from one thread.
///
/// ```no_run
/// use rdx_net::{NetConfig, NetListener, NetServer};
/// use rdx_serve::{QueryEngine, ServeConfig};
///
/// let engine = QueryEngine::new(ServeConfig::default());
/// let listener = NetListener::bind_tcp("127.0.0.1:0").unwrap();
/// let mut server = NetServer::new(listener, engine, NetConfig::default());
/// // register relations via server.engine_mut(), hand out the address...
/// let stats = server.serve();
/// # let _ = stats;
/// ```
pub struct NetServer {
    listener: NetListener,
    engine: QueryEngine,
    config: NetConfig,
    conns: Vec<Conn>,
    stats: NetStats,
    /// `serve` runs until the server has seen at least one client and then
    /// drained back to zero connections with an idle engine.
    seen_any: bool,
}

impl NetServer {
    /// Wraps `engine` behind `listener`.
    pub fn new(listener: NetListener, engine: QueryEngine, config: NetConfig) -> NetServer {
        NetServer {
            listener,
            engine,
            config,
            conns: Vec::new(),
            stats: NetStats::default(),
            seen_any: false,
        }
    }

    /// The engine, for registering relations (and inspecting stats)
    /// before/after serving.
    pub fn engine_mut(&mut self) -> &mut QueryEngine {
        &mut self.engine
    }

    /// The engine, read-only.
    pub fn engine(&self) -> &QueryEngine {
        &self.engine
    }

    /// The bound TCP address (for ephemeral ports); `None` on unix.
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.listener.tcp_addr()
    }

    /// Lifetime counters so far.
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// Live connection count.
    pub fn connections(&self) -> usize {
        self.conns.len()
    }

    /// Runs one cycle: accept pending connections, flush writes, read and
    /// decode requests (respecting per-connection backpressure), then run
    /// up to [`NetConfig::steps_per_cycle`] engine steps.  Returns `true`
    /// when the cycle did any work (socket bytes moved, frames handled, or
    /// engine progress).  Never blocks: after a `false` the caller decides
    /// how to wait — yield, sleep, or poll again (see the module docs for
    /// what [`NetServer::serve`] does).
    pub fn poll_cycle(&mut self) -> bool {
        let mut progressed = false;

        // Accept everything pending; each new socket goes non-blocking so
        // it can never stall the loop.
        while let Ok(Some(stream)) = self.listener.accept() {
            if stream.set_nonblocking(true).is_ok() {
                self.conns.push(Conn::new(stream));
                self.stats.accepted += 1;
                self.seen_any = true;
                progressed = true;
            }
        }

        // Service each connection: writes first (draining replies is what
        // releases backpressure), then reads.
        let mut idx = 0;
        while idx < self.conns.len() {
            let fate = self.service_conn(idx, &mut progressed);
            match fate {
                ConnFate::Keep => idx += 1,
                ConnFate::Close => {
                    let conn = self.conns.swap_remove(idx);
                    self.teardown(conn);
                    self.stats.closed += 1;
                    progressed = true;
                }
            }
        }

        // Engine work, bounded so sockets are re-serviced between bursts.
        for _ in 0..self.config.steps_per_cycle {
            match self.engine.step() {
                rdx_serve::EngineStep::Idle => break,
                rdx_serve::EngineStep::Waiting => {
                    // Parked retries advance on the step clock; count it
                    // as progress so serve() keeps stepping instead of
                    // sleeping the backoff away one cycle at a time.
                    progressed = true;
                }
                _ => progressed = true,
            }
        }

        progressed
    }

    /// Serves until at least one client has connected and then *all*
    /// clients have disconnected with the engine drained — the natural
    /// shape for tests and batch front-ends.  Long-running deployments
    /// call [`NetServer::poll_cycle`] in their own loop instead.  Borrows
    /// rather than consumes, so the caller can inspect the engine (stats,
    /// traces, tenant accounting) after the run.
    ///
    /// Between cycles the loop wakes on arrival, not on a timer: it polls
    /// again at once after progress, yields the CPU between polls for 2 ms
    /// after the last progress, and sleeps 200 µs per idle cycle after
    /// that.  A server with at least one request per 2 ms therefore keeps
    /// its core busy; a quiet one costs what a sleep loop costs.  The two
    /// waits are counted in [`NetStats::idle_yields`] and
    /// [`NetStats::idle_sleeps`].
    pub fn serve(&mut self) -> NetStats {
        let mut idle = IdlePolicy::default();
        let mut last_cycle = Instant::now();
        loop {
            let progressed = self.poll_cycle();
            if self.drained() {
                return self.stats;
            }
            let now = Instant::now();
            match idle.next(progressed, now - last_cycle) {
                IdleAction::Continue => {}
                IdleAction::Yield => {
                    self.stats.idle_yields += 1;
                    std::thread::yield_now();
                }
                IdleAction::Sleep(d) => {
                    self.stats.idle_sleeps += 1;
                    std::thread::sleep(d);
                }
            }
            last_cycle = now;
        }
    }

    /// [`NetServer::serve`]'s exit rule: at least one client has been
    /// seen, every connection is gone, and the engine has nothing left.
    fn drained(&self) -> bool {
        self.seen_any && self.conns.is_empty() && self.engine.is_idle()
    }

    /// Cancels and drains a departing connection's outstanding tickets so
    /// nothing stays parked in the engine forever.
    fn teardown(&mut self, conn: Conn) {
        for (_, ticket) in conn.tickets {
            self.engine.cancel(ticket);
            let _ = self.engine.take_outcome(ticket);
        }
    }

    fn service_conn(&mut self, idx: usize, progressed: &mut bool) -> ConnFate {
        // --- flush queued replies (partial writes resume at write_pos) ---
        loop {
            let conn = &mut self.conns[idx];
            let Some(front) = conn.outbound.front() else {
                break;
            };
            match conn.stream.write(&front[conn.write_pos..]) {
                Ok(0) => return ConnFate::Close,
                Ok(n) => {
                    *progressed = true;
                    conn.write_pos += n;
                    if conn.write_pos == front.len() {
                        conn.outbound.pop_front();
                        conn.write_pos = 0;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return ConnFate::Close,
            }
        }
        if self.conns[idx].outbound.is_empty() && self.conns[idx].close_after_flush {
            return ConnFate::Close;
        }

        // --- read whatever the socket has ---
        let mut buf = [0u8; 4096];
        loop {
            let conn = &mut self.conns[idx];
            if conn.close_after_flush {
                break; // tearing down: ignore further input
            }
            match conn.stream.read(&mut buf) {
                Ok(0) => {
                    // EOF: finish flushing replies, then close.
                    conn.close_after_flush = true;
                    if conn.outbound.is_empty() {
                        return ConnFate::Close;
                    }
                    break;
                }
                Ok(n) => {
                    *progressed = true;
                    conn.inbound.extend_from_slice(&buf[..n]);
                    if n < buf.len() {
                        // A short read emptied the socket; asking again
                        // would only buy a `WouldBlock`.  (An EOF behind
                        // these bytes is seen next cycle.)
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return ConnFate::Close,
            }
        }

        // --- decode + handle, while the outbound queue has room ---
        loop {
            let conn = &mut self.conns[idx];
            if conn.close_after_flush {
                break;
            }
            if conn.outbound.len() >= self.config.outbound_limit {
                if !conn.paused {
                    conn.paused = true;
                    self.stats.backpressure_pauses += 1;
                }
                break;
            }
            conn.paused = false;
            match decode_frame(&conn.inbound, self.config.max_payload) {
                Ok(None) => break,
                Ok(Some((frame, consumed))) => {
                    conn.inbound.drain(..consumed);
                    self.stats.frames_in += 1;
                    *progressed = true;
                    self.handle_frame(idx, frame);
                }
                Err(err) => {
                    // Protocol violation: best-effort notice, then tear
                    // down this connection only.
                    self.stats.decode_errors += 1;
                    *progressed = true;
                    self.enqueue(
                        idx,
                        &Frame::ProtocolError {
                            detail: err.to_string(),
                        },
                    );
                    self.conns[idx].close_after_flush = true;
                    break;
                }
            }
        }
        ConnFate::Keep
    }

    fn enqueue(&mut self, idx: usize, frame: &Frame) {
        let mut bytes = Vec::new();
        encode_frame(frame, &mut bytes);
        self.enqueue_bytes(idx, bytes);
    }

    /// Queues one already-encoded frame.
    fn enqueue_bytes(&mut self, idx: usize, bytes: Vec<u8>) {
        self.conns[idx].outbound.push_back(bytes);
        self.stats.frames_out += 1;
    }

    fn handle_frame(&mut self, idx: usize, frame: Frame) {
        match frame {
            Frame::Hello { tenant } => {
                let id = tenant.map(|name| self.engine.tenant_id(&name));
                self.conns[idx].tenant = id;
                self.enqueue(
                    idx,
                    &Frame::HelloOk {
                        version: WIRE_VERSION,
                        tenant: id.map(|t| t.raw()),
                    },
                );
            }
            Frame::Submit(spec) => self.handle_submit(idx, spec),
            Frame::Poll { ticket } => self.handle_poll(idx, ticket),
            Frame::Cancel { ticket } => {
                let cancelled = match self.conns[idx].tickets.get(&ticket) {
                    Some(&tid) => self.engine.cancel(tid),
                    None => false,
                };
                self.enqueue(idx, &Frame::CancelResult { ticket, cancelled });
            }
            // A client echoing server frames is a protocol violation of
            // the same severity as unparseable bytes.
            _ => {
                self.stats.decode_errors += 1;
                self.enqueue(
                    idx,
                    &Frame::ProtocolError {
                        detail: "server-to-client frame sent by client".into(),
                    },
                );
                self.conns[idx].close_after_flush = true;
            }
        }
    }

    fn handle_submit(&mut self, idx: usize, spec: SubmitSpec) {
        // A zero budget can never become a valid `MemoryBudget` value, so
        // it is refused before a ticket exists; `NO_TICKET` marks the
        // rejection as pre-admission.  Every other validation failure
        // (unknown relation, too many columns, below-one-row budget…)
        // flows through the engine and surfaces on the ticket, exactly as
        // it does in-process.
        let budget = match spec.budget_bytes {
            Some(bytes) => match MemoryBudget::try_bytes(bytes as usize) {
                Ok(b) => Some(b),
                Err(e) => {
                    self.enqueue(
                        idx,
                        &Frame::Rejected {
                            ticket: NO_TICKET,
                            error: RdxError::Budget(e),
                        },
                    );
                    return;
                }
            },
            None => None,
        };
        let mut request = ServerRequest::new(
            RelationId::from_raw(spec.larger),
            RelationId::from_raw(spec.smaller),
            QuerySpec {
                project_larger: spec.project_larger as usize,
                project_smaller: spec.project_smaller as usize,
            },
        )
        .with_priority(spec.priority);
        if let Some(b) = budget {
            request = request.with_budget_hint(b);
        }
        if let Some(t) = spec.threads {
            request = request.with_threads(t as usize);
        }
        if let Some(codes) = spec.codes {
            request = request.with_codes(codes);
        }
        if let Some(d) = spec.deadline_ns {
            request = request.with_deadline(d);
        }
        if let Some(t) = self.conns[idx].tenant {
            request = request.with_tenant(t);
        }
        let ticket = self.engine.submit(request);
        let raw = ticket.raw();
        self.conns[idx].tickets.insert(raw, ticket);
        self.enqueue(idx, &Frame::Submitted { ticket: raw });
    }

    fn handle_poll(&mut self, idx: usize, ticket: u64) {
        let Some(&tid) = self.conns[idx].tickets.get(&ticket) else {
            self.enqueue(
                idx,
                &Frame::Rejected {
                    ticket,
                    error: RdxError::UnknownTicket { ticket },
                },
            );
            return;
        };
        match self.engine.status(tid) {
            Some(TicketStatus::Queued { position }) => self.enqueue(
                idx,
                &Frame::Queued {
                    ticket,
                    position: position as u64,
                },
            ),
            Some(TicketStatus::Running { chunks, rows }) => self.enqueue(
                idx,
                &Frame::Chunk {
                    ticket,
                    chunks: chunks as u64,
                    rows: rows as u64,
                },
            ),
            Some(TicketStatus::Finished) => {
                // Consume the parked outcome; the ticket is spent.
                let outcome = self.engine.take_outcome(tid);
                self.conns[idx].tickets.remove(&ticket);
                match outcome {
                    Some(QueryOutcome {
                        outcome: Ok(result),
                        ..
                    }) => {
                        // Encoded straight from the result's columns into
                        // one exactly-sized buffer: a `Done` is the one
                        // frame that can run to megabytes.
                        let head = DoneHead {
                            ticket,
                            rows: result.stats.rows as u64,
                            chunks: result.stats.chunks as u64,
                            cache_hit: result.stats.cache_hit,
                            share_bytes: result.stats.share_bytes as u64,
                        };
                        let mut bytes = Vec::new();
                        encode_done(
                            &head,
                            result.result.columns().iter().map(|c| c.as_slice()),
                            &mut bytes,
                        );
                        self.enqueue_bytes(idx, bytes);
                    }
                    Some(QueryOutcome {
                        outcome: Err(error),
                        ..
                    }) => self.enqueue(idx, &Frame::Rejected { ticket, error }),
                    None => self.enqueue(
                        idx,
                        &Frame::Rejected {
                            ticket,
                            error: RdxError::UnknownTicket { ticket },
                        },
                    ),
                }
            }
            None => self.enqueue(
                idx,
                &Frame::Rejected {
                    ticket,
                    error: RdxError::UnknownTicket { ticket },
                },
            ),
        }
    }
}

/// The sentinel ticket number on a [`Frame::Rejected`] for a submit that
/// was refused before a ticket could be issued (only a zero-byte budget,
/// which no `MemoryBudget` value can represent).  Real tickets count up
/// from zero and can never reach it.
pub const NO_TICKET: u64 = u64::MAX;

#[cfg(test)]
mod tests {
    use super::*;
    use rdx_serve::ServeConfig;

    const US: Duration = Duration::from_micros(1);

    /// Feeds `(progressed, elapsed)` pairs, returns the actions.
    fn run(policy: &mut IdlePolicy, script: &[(bool, Duration)]) -> Vec<IdleAction> {
        script
            .iter()
            .map(|&(progressed, elapsed)| policy.next(progressed, elapsed))
            .collect()
    }

    #[test]
    fn progress_polls_again_at_once_and_resets_the_quiet_window() {
        let mut policy = IdlePolicy::default();
        let almost = QUIET_WINDOW - US;
        assert_eq!(
            run(
                &mut policy,
                &[
                    (true, US),
                    // Quiet for almost a whole window: still yielding.
                    (false, almost),
                    // Progress — however late — starts the window afresh,
                    (true, 10 * QUIET_WINDOW),
                    // so the same quiet stretch yields again,
                    (false, almost),
                    // and only its completion sleeps.
                    (false, US),
                ]
            ),
            [
                IdleAction::Continue,
                IdleAction::Yield,
                IdleAction::Continue,
                IdleAction::Yield,
                IdleAction::Sleep(IDLE_SLEEP),
            ]
        );
    }

    #[test]
    fn the_yield_window_is_bounded_and_every_idle_cycle_after_it_sleeps() {
        let mut policy = IdlePolicy::default();
        let step = 50 * US;
        let actions = run(&mut policy, &[(false, step); 1_000]);
        let yields = actions
            .iter()
            .take_while(|a| **a == IdleAction::Yield)
            .count();
        // Quiet time reaches the window on cycle ⌈window / step⌉.
        assert_eq!(
            yields as u128,
            QUIET_WINDOW.as_nanos() / step.as_nanos() - 1
        );
        assert!(
            actions[yields..]
                .iter()
                .all(|a| *a == IdleAction::Sleep(IDLE_SLEEP)),
            "a server quiet past its window sleeps on every idle cycle"
        );
        // However long a sleep overshoots, the quiet time cannot wrap
        // around into a fresh window.
        assert_eq!(
            policy.next(false, Duration::MAX),
            IdleAction::Sleep(IDLE_SLEEP)
        );
        assert_eq!(policy.next(false, US), IdleAction::Sleep(IDLE_SLEEP));
    }

    #[test]
    fn one_slow_idle_cycle_goes_straight_to_sleep() {
        // The thread was descheduled for longer than the window: the
        // first idle cycle after it already sleeps.
        let mut policy = IdlePolicy::default();
        assert_eq!(
            policy.next(false, QUIET_WINDOW),
            IdleAction::Sleep(IDLE_SLEEP)
        );
    }

    #[test]
    fn serve_exits_only_after_a_client_has_come_and_gone() {
        let listener = NetListener::bind_tcp("127.0.0.1:0").expect("bind");
        let addr = listener.tcp_addr().expect("addr");
        let engine = QueryEngine::new(ServeConfig::default());
        let mut server = NetServer::new(listener, engine, NetConfig::default());

        // Idle engine, no connection yet: not drained, however often polled.
        assert!(!server.poll_cycle());
        assert!(!server.drained());

        // The kernel completes the handshake against the backlog, so one
        // thread can play both ends.
        let client = TcpStream::connect(addr).expect("connect");
        while server.connections() == 0 {
            server.poll_cycle();
        }
        assert!(!server.drained(), "a live connection keeps serve() running");

        drop(client);
        while server.connections() > 0 {
            server.poll_cycle();
        }
        assert!(server.drained());
        let stats = server.stats();
        assert_eq!((stats.accepted, stats.closed), (1, 1));
        // The waits are serve()'s: a caller-driven loop counts none.
        assert_eq!((stats.idle_yields, stats.idle_sleeps), (0, 0));
        // serve() on a drained server returns on its first cycle.
        assert_eq!(server.serve(), stats);
    }
}
