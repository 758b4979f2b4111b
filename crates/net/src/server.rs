//! The socket front-end: a non-blocking accept/read/decode/write loop
//! interleaved with [`QueryEngine::step`].
//!
//! One thread owns everything — the listener, every connection's buffers,
//! and the engine.  A poll cycle services sockets *between* engine steps,
//! so a slow client never stalls query execution and a long chunk never
//! stalls `accept` for longer than one chunk's work.
//!
//! **Cycle order.**  A cycle first polls the listener — but only when a
//! new connection can be used at once: on every cycle while the server has
//! no connection, and otherwise at most once per 200 µs (the idle sleep),
//! each poll draining the accept queue.  With a connection open nearly
//! every `accept` returns `WouldBlock`, and one per cycle cost a busy
//! point-query loop about a third of its busy time; bounded, a server with
//! a connection open notices a new one within the same 200 µs a sleeping
//! server takes.  [`NetStats::accept_polls`] counts the `accept` calls.
//! Then each connection is serviced once per cycle: its frames are decoded
//! and handled, its socket read at most once and only for a frame not yet
//! buffered (through the `FrameReader` [`crate::NetClient`] reads with),
//! then its replies are flushed: they reach the socket in the cycle that
//! asked for them, before the cycle's engine steps run, so
//! a `Submitted`, status or `CancelResult` reply never waits behind up to
//! four chunk steps (`STEPS_PER_CYCLE`).  Then the engine steps.  Last,
//! the cycle **pushes** every outcome that became terminal — the last
//! chunk, a refusal at submit or at admission, a tenant-quota shed, a
//! deadline teardown, a cancel, a poisoned run alike: it lists the
//! engine's finished tickets ([`QueryEngine::finished`]), takes each one a
//! connection owns through [`QueryEngine::poll`], queues its `Done` or
//! `Rejected` frame on that connection and forgets the ticket, so a later
//! `Poll` of it answers `UnknownTicket`.  The next cycle's service flushes
//! it, so an outcome costs the client no `Poll` round trip.  A `Done` is
//! the engine's frame itself, moved into the queue with its header
//! written, never copied or encoded again.  What a cycle cannot write (a
//! full socket buffer) stays queued for the next one.
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
//! [`NetStats::idle_sleeps`] count the two kinds of wait.
//! [`crate::NetClient`] waits for replies under the same policy.
//! Embedders that call `poll_cycle()` themselves pick their own wait; the
//! listener bound above is the cycle's own, so it holds whatever they
//! pick.
//!
//! **Backpressure** is per-connection: each connection has a bounded
//! outbound queue, and when a client stops draining replies the server
//! stops *reading that connection's requests* — unread bytes stay in the
//! kernel's socket buffers, whose flow control stops the client's writes,
//! and the server holds at most one frame and one read's room — while
//! every other connection and the engine proceed untouched.
//!
//! Protocol violations are connection-scoped by the same principle: a
//! malformed frame gets a best-effort [`Frame::ProtocolError`] reply and
//! tears down that connection only — the listener, the other connections,
//! and the engine all survive.

use crate::client::FrameReader;
use crate::idle::{IdleAction, IdlePolicy, IDLE_SLEEP};
use crate::wire::{encode_frame, seal_done, Frame, SubmitSpec, DEFAULT_MAX_PAYLOAD, WIRE_VERSION};
use rdx_core::budget::MemoryBudget;
use rdx_core::error::RdxError;
use rdx_core::strategy::QuerySpec;
use rdx_obs::Counter;
use rdx_serve::{
    QueryEngine, RelationId, ResultForm, Served, ServerRequest, TenantId, TicketId, TicketPoll,
};
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::time::Instant;

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
                Ok((stream, _)) => {
                    // A pushed `Done` is followed by the reply to the
                    // client's next request; Nagle would hold that small
                    // write until the client ACKs the `Done`, which a
                    // delayed ACK puts off by up to tens of milliseconds.
                    stream.set_nodelay(true)?;
                    Ok(Some(NetStream::Tcp(stream)))
                }
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
/// both the server's connections and [`crate::NetClient`].
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
    /// it with [`NetStream::set_nonblocking`], as [`crate::NetClient`]
    /// does) with `TCP_NODELAY` set, as the server sets it on every
    /// connection it accepts: each end's small frames leave at once.
    pub fn connect_tcp(addr: SocketAddr) -> io::Result<NetStream> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(NetStream::Tcp(stream))
    }

    /// Connects to a unix-domain server.
    #[cfg(unix)]
    pub fn connect_unix(path: &Path) -> io::Result<NetStream> {
        Ok(NetStream::Unix(UnixStream::connect(path)?))
    }

    /// Whether a small write leaves at once instead of waiting for the
    /// peer to acknowledge earlier bytes: `TCP_NODELAY` on TCP, which
    /// [`NetStream::connect_tcp`] and the server's accept both set; always
    /// `true` on a unix socket, which has no such delay.
    pub fn nodelay(&self) -> io::Result<bool> {
        match self {
            NetStream::Tcp(s) => s.nodelay(),
            #[cfg(unix)]
            NetStream::Unix(_) => Ok(true),
        }
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

/// Engine steps per poll cycle.  It bounds how long sockets go unserviced
/// while the engine has work; how the loop waits when a cycle finds *no*
/// work is [`NetServer::serve`]'s fixed yield-then-sleep policy, and
/// callers of [`NetServer::poll_cycle`] wait however they like.
const STEPS_PER_CYCLE: usize = 4;

/// Tuning knobs for the poll loop: the decoder's frame cap and the
/// per-connection outbound bound.
#[derive(Debug, Clone, Copy)]
pub struct NetConfig {
    /// Per-frame payload cap handed to the decoder — a hostile length
    /// field is refused before any buffer grows to meet it.  The server's
    /// own `Done` frames keep to it too: a result whose frame would not is
    /// refused with `RdxError::ResultTooLarge` before it runs.
    pub max_payload: u32,
    /// Bound on a connection's queued outbound frames.  At the bound the
    /// server stops reading that connection's socket until the client
    /// drains replies, and the socket's flow control stops the client —
    /// backpressure that never blocks the engine.  Pushed outcomes are
    /// queued past it: there is at most one per ticket the connection holds.
    pub outbound_limit: usize,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            max_payload: DEFAULT_MAX_PAYLOAD,
            outbound_limit: 64,
        }
    }
}

/// Cumulative counters for one server's lifetime — a read of the `net.*`
/// counters in the engine's registry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Connections accepted.
    pub accepted: u64,
    /// Calls the server made to its listener's `accept`, each pending
    /// connection's and the `WouldBlock` that ends each poll alike.  While
    /// a connection is open the listener is polled at most once per 200 µs
    /// (the idle sleep), so a busy server adds at most one poll per 200 µs
    /// of wall time, however many cycles it runs.
    pub accept_polls: u64,
    /// Connections closed (all causes: client EOF, protocol teardown,
    /// socket errors).
    pub closed: u64,
    /// Frames decoded from clients.
    pub frames_in: u64,
    /// Frames queued to clients: replies to their frames and pushed
    /// outcomes, which answer no frame.
    pub frames_out: u64,
    /// Malformed-input events (each also tears its connection down).
    pub decode_errors: u64,
    /// Times a connection's request reading paused because its outbound
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

/// The `net.*` registry counters, resolved once when the server is built.
struct NetCounters {
    accepted: Counter,
    accept_polls: Counter,
    closed: Counter,
    frames_in: Counter,
    frames_out: Counter,
    decode_errors: Counter,
    backpressure_pauses: Counter,
    idle_yields: Counter,
    idle_sleeps: Counter,
}

/// Per-connection state: a frame reader in, queued frames out, and the
/// session facts (tenant, issued tickets) the protocol scopes per
/// connection.
struct Conn {
    stream: NetStream,
    inbound: FrameReader,
    outbound: VecDeque<Vec<u8>>,
    /// Bytes of `outbound.front()` already written (partial writes).
    write_pos: usize,
    /// Interned tenant from this connection's `Hello`, billed on every
    /// subsequent `Submit`.
    tenant: Option<TenantId>,
    /// Tickets issued to this connection whose outcome is not pushed yet:
    /// raw wire number → engine handle.  Tickets are connection-scoped —
    /// polling another client's ticket is `UnknownTicket` by construction.
    tickets: HashMap<u64, TicketId>,
    /// Tear down once the outbound queue drains (EOF seen, or a protocol
    /// error reply is on its way out).
    close_after_flush: bool,
    /// Set while this connection is holding off decoding at the outbound
    /// bound, so one pause is counted once, not once per poll cycle.
    paused: bool,
}

impl Conn {
    fn new(stream: NetStream, max_payload: u32) -> Conn {
        Conn {
            stream,
            inbound: FrameReader::new(max_payload),
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
    counters: NetCounters,
    /// `serve` runs until the server has seen at least one client and then
    /// drained back to zero connections with an idle engine.
    seen_any: bool,
    /// When the listener was last polled: with a connection open, the next
    /// poll waits until [`IDLE_SLEEP`] has passed since.
    last_accept_poll: Instant,
    /// The machine's cores, resolved once: the cap on a peer's thread
    /// count.
    cores: usize,
    /// The engine's finished tickets, listed once per cycle; kept so the
    /// listing reuses one buffer.
    finished: Vec<TicketId>,
}

impl NetServer {
    /// Wraps `engine` behind `listener`; the server counts into the
    /// engine's registry under `net.*`.
    pub fn new(listener: NetListener, engine: QueryEngine, config: NetConfig) -> NetServer {
        let metrics = engine.obs().metrics();
        NetServer {
            counters: NetCounters {
                accepted: metrics.counter("net.accepted"),
                accept_polls: metrics.counter("net.accept_polls"),
                closed: metrics.counter("net.closed"),
                frames_in: metrics.counter("net.frames_in"),
                frames_out: metrics.counter("net.frames_out"),
                decode_errors: metrics.counter("net.decode_errors"),
                backpressure_pauses: metrics.counter("net.backpressure_pauses"),
                idle_yields: metrics.counter("net.idle_yields"),
                idle_sleeps: metrics.counter("net.idle_sleeps"),
            },
            listener,
            engine,
            config,
            conns: Vec::new(),
            seen_any: false,
            last_accept_poll: Instant::now(),
            // std reads the affinity mask and the cgroup quota on every
            // call, so the count is read here, not per `Submit`.
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            finished: Vec::new(),
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

    /// Lifetime counters so far, read from the registry.
    pub fn stats(&self) -> NetStats {
        let c = &self.counters;
        NetStats {
            accepted: c.accepted.get(),
            accept_polls: c.accept_polls.get(),
            closed: c.closed.get(),
            frames_in: c.frames_in.get(),
            frames_out: c.frames_out.get(),
            decode_errors: c.decode_errors.get(),
            backpressure_pauses: c.backpressure_pauses.get(),
            idle_yields: c.idle_yields.get(),
            idle_sleeps: c.idle_sleeps.get(),
        }
    }

    /// Live connection count.
    pub fn connections(&self) -> usize {
        self.conns.len()
    }

    /// Runs one cycle: accept pending connections, if the listener is due
    /// a poll; for each connection decode and handle its requests while its
    /// outbound queue has room (per-connection backpressure), reading its
    /// socket once if no frame is buffered, and flush the replies; then run
    /// up to `STEPS_PER_CYCLE` (four) engine steps; then queue every
    /// terminal outcome a connection owns on that connection, for the next
    /// cycle to flush.  A reply to a
    /// frame this cycle decoded is therefore on the socket when the cycle
    /// returns, unless the socket's buffer is full.  Returns `true` when
    /// the cycle did any work (a connection accepted, socket bytes moved,
    /// frames handled, engine progress, or an outcome pushed).  Never
    /// blocks: after a `false` the caller decides how to wait — yield,
    /// sleep, or poll again (see the module docs for what
    /// [`NetServer::serve`] does).
    ///
    /// The listener is due on every cycle while the server has no
    /// connection, so a first client is accepted by the first cycle after
    /// it connects; with a connection open it is due once 200 µs (the idle
    /// sleep) have passed since its last poll, so a client connecting to a
    /// busy server is accepted within 200 µs and one cycle.  Each poll
    /// drains the accept queue, counted in [`NetStats::accept_polls`].
    pub fn poll_cycle(&mut self) -> bool {
        let mut progressed = false;

        // Accept everything pending; each new socket goes non-blocking so
        // it can never stall the loop.
        let now = Instant::now();
        if self.conns.is_empty() || now.duration_since(self.last_accept_poll) >= IDLE_SLEEP {
            self.last_accept_poll = now;
            loop {
                self.counters.accept_polls.inc();
                let Ok(Some(stream)) = self.listener.accept() else {
                    break;
                };
                if stream.set_nonblocking(true).is_ok() {
                    self.conns.push(Conn::new(stream, self.config.max_payload));
                    self.counters.accepted.inc();
                    self.seen_any = true;
                    progressed = true;
                }
            }
        }

        // Service each connection: decoding with at most one read, then one
        // flush of everything queued — so replies leave before the engine
        // steps below, and a drained queue lifts backpressure next cycle.
        let mut idx = 0;
        while idx < self.conns.len() {
            let fate = self.service_conn(idx, &mut progressed);
            match fate {
                ConnFate::Keep => idx += 1,
                ConnFate::Close => {
                    let conn = self.conns.swap_remove(idx);
                    self.teardown(conn);
                    self.counters.closed.inc();
                    progressed = true;
                }
            }
        }

        // Engine work, bounded so sockets are re-serviced between bursts.
        for _ in 0..STEPS_PER_CYCLE {
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

        progressed |= self.push_finished();
        progressed
    }

    /// Pushes every finished ticket a connection owns to that connection;
    /// `true` when it pushed any.  A finished ticket no connection owns (an
    /// embedder's own submission) waits for its submitter's poll.
    fn push_finished(&mut self) -> bool {
        let mut finished = std::mem::take(&mut self.finished);
        finished.extend(self.engine.finished());
        let mut pushed = false;
        for ticket in finished.drain(..) {
            let raw = ticket.raw();
            let owner = self.conns.iter().position(|c| c.tickets.contains_key(&raw));
            if let Some(idx) = owner {
                let outcome = self.engine.poll(ticket);
                self.push(idx, raw, outcome);
                pushed = true;
            }
        }
        self.finished = finished;
        pushed
    }

    /// Queues the terminal frame of `ticket`, whose `outcome` a poll just
    /// took, and forgets the ticket: its outcome is delivered.
    fn push(&mut self, idx: usize, ticket: u64, outcome: TicketPoll) {
        self.conns[idx].tickets.remove(&ticket);
        let error = match outcome {
            // The engine filled the frame as the query emitted; only its
            // header is left to write.
            TicketPoll::Done(Served::Frame { mut frame, .. }) => {
                seal_done(&mut frame);
                return self.enqueue_bytes(idx, frame);
            }
            TicketPoll::Rejected(error) => error,
            // Every wire ticket is submitted in the frame form and only a
            // terminal poll is pushed, so no other outcome is this
            // connection's to send.
            _ => RdxError::UnknownTicket { ticket },
        };
        self.enqueue(idx, &Frame::Rejected { ticket, error });
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
    ///
    /// On a server already drained — called again after a run — it
    /// returns at once, without a cycle: a connection queued since is left
    /// for the caller's next `poll_cycle()`.
    pub fn serve(&mut self) -> NetStats {
        if self.drained() {
            return self.stats();
        }
        let mut idle = IdlePolicy::default();
        let mut last_cycle = Instant::now();
        loop {
            let progressed = self.poll_cycle();
            if self.drained() {
                return self.stats();
            }
            let now = Instant::now();
            match idle.next(progressed, now - last_cycle) {
                IdleAction::Continue => {}
                IdleAction::Yield => {
                    self.counters.idle_yields.inc();
                    std::thread::yield_now();
                }
                IdleAction::Sleep(d) => {
                    self.counters.idle_sleeps.inc();
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
            self.engine.poll(ticket);
        }
    }

    fn service_conn(&mut self, idx: usize, progressed: &mut bool) -> ConnFate {
        // --- decode + handle while the outbound queue has room ---
        // The socket is read at most once, for a frame not yet buffered, so
        // a paused connection reads nothing and its client meets flow control.
        let mut read = false;
        loop {
            let conn = &mut self.conns[idx];
            if conn.close_after_flush {
                break; // tearing down: ignore further input
            }
            if conn.outbound.len() >= self.config.outbound_limit {
                if !conn.paused {
                    conn.paused = true;
                    self.counters.backpressure_pauses.inc();
                }
                break;
            }
            conn.paused = false;
            match conn.inbound.decode() {
                Ok(Some(frame)) => {
                    self.counters.frames_in.inc();
                    *progressed = true;
                    self.handle_frame(idx, frame);
                }
                Ok(None) if read => break,
                Ok(None) => {
                    read = true;
                    match conn.inbound.fill(&mut conn.stream).map_err(|e| e.kind()) {
                        // EOF: finish flushing replies, then close.
                        Ok(0) => conn.close_after_flush = true,
                        Ok(_) => *progressed = true,
                        Err(io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted) => break,
                        Err(_) => return ConnFate::Close,
                    }
                }
                Err(err) => {
                    *progressed = true;
                    self.refuse(idx, err.to_string());
                }
            }
        }

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
        let conn = &self.conns[idx];
        if conn.outbound.is_empty() && conn.close_after_flush {
            ConnFate::Close
        } else {
            ConnFate::Keep
        }
    }

    /// Refuses a protocol violation: a best-effort [`Frame::ProtocolError`]
    /// notice, then this connection only is torn down once it is flushed.
    fn refuse(&mut self, idx: usize, detail: String) {
        self.counters.decode_errors.inc();
        self.enqueue(idx, &Frame::ProtocolError { detail });
        self.conns[idx].close_after_flush = true;
    }

    fn enqueue(&mut self, idx: usize, frame: &Frame) {
        let mut bytes = Vec::new();
        encode_frame(frame, &mut bytes);
        self.enqueue_bytes(idx, bytes);
    }

    /// Queues one already-encoded frame.
    fn enqueue_bytes(&mut self, idx: usize, bytes: Vec<u8>) {
        self.conns[idx].outbound.push_back(bytes);
        self.counters.frames_out.inc();
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
            _ => self.refuse(idx, "server-to-client frame sent by client".into()),
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
        let request = ServerRequest {
            budget_hint: budget,
            // A peer's thread count is clamped to the machine's cores (`0`
            // still means auto): results are byte-identical at every count,
            // and an unbounded one would have the kernels allocate and
            // spawn per worker until the process aborts.
            threads_hint: spec.threads.map(|t| (t as usize).min(self.cores)),
            codes: spec.codes,
            deadline_ns: spec.deadline_ns,
            priority: spec.priority,
            tenant: self.conns[idx].tenant,
            // The engine encodes the result into its `Done` frame as it
            // emits, and refuses one the client's decoder would.
            form: ResultForm::Frame {
                max_payload: self.config.max_payload as usize,
            },
            ..ServerRequest::new(
                RelationId::from_raw(spec.larger),
                RelationId::from_raw(spec.smaller),
                QuerySpec {
                    project_larger: spec.project_larger as usize,
                    project_smaller: spec.project_smaller as usize,
                },
            )
        };
        let ticket = self.engine.submit(request);
        let raw = ticket.raw();
        self.conns[idx].tickets.insert(raw, ticket);
        self.enqueue(idx, &Frame::Submitted { ticket: raw });
    }

    /// Answers a poll of a live ticket with the frame that mirrors the
    /// engine's [`TicketPoll`] (`Queued` or `Chunk`).  Any other ticket is
    /// unknown to this connection: another client's, never issued, or one
    /// whose outcome was pushed.  A ticket that became terminal since the
    /// last push (refused at submit, or cancelled, earlier in this cycle)
    /// is pushed first, so a poll never takes an outcome: it answers
    /// `UnknownTicket` behind the pushed frame.
    fn handle_poll(&mut self, idx: usize, ticket: u64) {
        let unknown = Frame::Rejected {
            ticket,
            error: RdxError::UnknownTicket { ticket },
        };
        let Some(&tid) = self.conns[idx].tickets.get(&ticket) else {
            return self.enqueue(idx, &unknown);
        };
        let frame = match self.engine.poll(tid) {
            TicketPoll::Queued { position } => Frame::Queued {
                ticket,
                position: position as u64,
            },
            TicketPoll::Running { chunks, rows } => Frame::Chunk {
                ticket,
                chunks: chunks as u64,
                rows: rows as u64,
            },
            outcome => {
                self.push(idx, ticket, outcome);
                unknown
            }
        };
        self.enqueue(idx, &frame);
    }
}

/// The sentinel ticket number on a [`Frame::Rejected`] for a submit that
/// was refused before a ticket could be issued (only a zero-byte budget,
/// which no `MemoryBudget` value can represent).  Real tickets are query
/// ids, which count up from one and can never reach it.
pub const NO_TICKET: u64 = u64::MAX;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::MIN_READ;
    use crate::wire::{decode_frame, WireReport, HEADER_LEN};
    use rdx_dsm::{Column, DsmRelation};
    use rdx_serve::{EngineStep, ServeConfig};
    use rdx_workload::JoinWorkloadBuilder;

    /// The frame a frame-form ticket's sink fills, once sealed, is byte for
    /// byte what `encode_frame` makes of the same request's columns — at
    /// one chunk and many, for a zero-row join and asymmetric projections.
    #[test]
    fn a_frame_ticket_is_byte_identical_to_encode_frame() {
        let w = JoinWorkloadBuilder::equal(3_000, 3).seed(21).build();
        let relation = |keys: std::ops::Range<u64>| {
            let attr = keys.clone().map(|k| k as i32 * 7).collect();
            DsmRelation::new(
                Column::from_vec(keys.collect()),
                vec![Column::from_vec(attr)],
            )
        };
        let mut engine = QueryEngine::new(ServeConfig::default());
        let larger = engine.register(w.larger.clone());
        let smaller = engine.register(w.smaller.clone());
        // Disjoint keys: the join is empty.
        let none_l = engine.register(relation(0..40));
        let none_s = engine.register(relation(1_000..1_040));
        let data_bytes = 2 * 3_000 * 3 * 4;
        let two = QuerySpec::symmetric(2);
        let cases = [
            (larger, smaller, two, None, 1),
            (larger, smaller, two, Some(4), 2),
            (larger, smaller, two, Some(16), 8),
            (
                larger,
                smaller,
                QuerySpec {
                    project_larger: 3,
                    project_smaller: 1,
                },
                Some(16),
                8,
            ),
            (
                larger,
                smaller,
                QuerySpec {
                    project_larger: 1,
                    project_smaller: 3,
                },
                Some(4),
                2,
            ),
            (none_l, none_s, QuerySpec::symmetric(1), None, 0),
        ];
        for (l, s, spec, denominator, min_chunks) in cases {
            let cell = format!("π = {spec:?} at 1/{denominator:?}");
            let request = ServerRequest {
                budget_hint: denominator.map(|d| MemoryBudget::fraction_of(data_bytes, d)),
                ..ServerRequest::new(l, s, spec)
            };
            let columns = engine.submit(request);
            let framed = engine.submit(ServerRequest {
                form: ResultForm::Frame {
                    max_payload: usize::MAX,
                },
                ..request
            });
            while engine.step() != EngineStep::Idle {}
            let TicketPoll::Done(Served::Columns(result)) = engine.poll(columns) else {
                panic!("{cell}: columns ticket not served");
            };
            let TicketPoll::Done(Served::Frame { mut frame, stats }) = engine.poll(framed) else {
                panic!("{cell}: frame ticket not served");
            };
            assert!(
                stats.chunks >= min_chunks,
                "{cell}: {} chunks",
                stats.chunks
            );
            assert_eq!(stats.rows, result.stats.rows, "{cell}");
            assert_eq!(
                stats.rows == 0,
                l == none_l,
                "{cell}: only the disjoint join is empty"
            );
            assert_eq!(frame.len(), frame.capacity(), "{cell}: sized once");
            seal_done(&mut frame);
            let report = WireReport {
                rows: stats.rows as u64,
                chunks: stats.chunks as u64,
                cache_hit: stats.cache_hit,
                share_bytes: stats.share_bytes as u64,
                columns: result
                    .result
                    .columns()
                    .iter()
                    .map(|c| c.as_slice().to_vec())
                    .collect(),
            };
            let mut expected = Vec::new();
            encode_frame(
                &Frame::Done {
                    ticket: framed.raw(),
                    report,
                },
                &mut expected,
            );
            assert_eq!(frame, expected, "{cell}");
        }
    }

    /// A reply leaves in the cycle that decoded its request: one
    /// `poll_cycle()` reads a `Submit`, handles it and flushes the
    /// `Submitted`, which the peer then reads without blocking and without
    /// a second cycle.  A unix socket's write lands in the peer's receive
    /// queue before it returns, so neither read races the other side.
    #[cfg(unix)]
    #[test]
    fn a_submit_is_answered_in_the_cycle_that_decoded_it() {
        let path =
            std::env::temp_dir().join(format!("rdx-net-same-cycle-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let listener = NetListener::bind_unix(&path).expect("bind");
        let w = JoinWorkloadBuilder::equal(100, 1).seed(3).build();
        let mut engine = QueryEngine::new(ServeConfig::default());
        engine.register(w.larger);
        engine.register(w.smaller);
        let mut server = NetServer::new(listener, engine, NetConfig::default());
        let mut peer = UnixStream::connect(&path).expect("connect");
        std::fs::remove_file(&path).expect("unlink the socket path");
        while server.connections() == 0 {
            server.poll_cycle();
        }

        let mut submit = Vec::new();
        encode_frame(
            &Frame::Submit(SubmitSpec {
                larger: 0,
                smaller: 1,
                project_larger: 1,
                project_smaller: 1,
                budget_bytes: None,
                threads: None,
                codes: None,
                deadline_ns: None,
                priority: 1,
            }),
            &mut submit,
        );
        peer.write_all(&submit).expect("send the submit");
        assert!(server.poll_cycle());
        assert_eq!(server.stats().frames_in, 1, "this cycle decoded it");

        peer.set_nonblocking(true).expect("non-blocking peer");
        let mut reply = [0u8; 64];
        let n = peer
            .read(&mut reply)
            .expect("the reply is on the socket after one cycle");
        assert!(
            matches!(
                decode_frame(&reply[..n], DEFAULT_MAX_PAYLOAD),
                Ok(Some((Frame::Submitted { .. }, used))) if used == n
            ),
            "expected exactly one Submitted frame, got {:?}",
            &reply[..n]
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

    /// Small frames leave at once from both ends of a TCP connection: the
    /// server sets `TCP_NODELAY` on the stream it accepts, `connect_tcp`
    /// on the one it opens.
    #[test]
    fn both_ends_of_a_tcp_connection_set_nodelay() {
        let listener = NetListener::bind_tcp("127.0.0.1:0").expect("bind");
        let addr = listener.tcp_addr().expect("addr");
        let engine = QueryEngine::new(ServeConfig::default());
        let mut server = NetServer::new(listener, engine, NetConfig::default());
        let client = NetStream::connect_tcp(addr).expect("connect");
        while server.connections() == 0 {
            server.poll_cycle();
        }
        assert!(client.nodelay().expect("the client's stream"));
        assert!(server.conns[0]
            .stream
            .nodelay()
            .expect("the accepted stream"));
    }

    /// A unix socket path, unlinked when the test ends.
    #[cfg(unix)]
    struct SocketPath(std::path::PathBuf);

    #[cfg(unix)]
    impl Drop for SocketPath {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    /// A server with no relations on a fresh unix socket.  A unix
    /// `connect` queues the connection on the listener before it returns,
    /// so a peer connected before a cycle is pending in that cycle.
    #[cfg(unix)]
    fn unix_server(name: &str) -> (NetServer, SocketPath) {
        let path = SocketPath(
            std::env::temp_dir().join(format!("rdx-net-{name}-{}.sock", std::process::id())),
        );
        let _ = std::fs::remove_file(&path.0);
        let listener = NetListener::bind_unix(&path.0).expect("bind");
        let engine = QueryEngine::new(ServeConfig::default());
        (NetServer::new(listener, engine, NetConfig::default()), path)
    }

    fn encoded(frame: &Frame) -> Vec<u8> {
        let mut bytes = Vec::new();
        encode_frame(frame, &mut bytes);
        bytes
    }

    /// Appends what a non-blocking peer can read now.
    #[cfg(unix)]
    fn read_available(peer: &mut UnixStream, into: &mut Vec<u8>) {
        let mut buf = [0u8; 4096];
        loop {
            match peer.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => into.extend_from_slice(&buf[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) => panic!("read: {e}"),
            }
        }
    }

    #[cfg(unix)]
    #[test]
    fn a_server_with_no_connection_accepts_in_its_first_cycle() {
        let (mut server, path) = unix_server("first-cycle");
        let peer = UnixStream::connect(&path.0).expect("connect");
        assert!(server.poll_cycle(), "an accept is progress");
        assert_eq!(server.connections(), 1);
        // The pending connection's accept, and the `WouldBlock` that ends
        // the drain.
        assert_eq!(server.stats().accept_polls, 2);

        // Once the only client has gone, the next is again accepted by the
        // first cycle after it connects.
        drop(peer);
        while server.connections() > 0 {
            server.poll_cycle();
        }
        let _next = UnixStream::connect(&path.0).expect("reconnect");
        server.poll_cycle();
        assert_eq!(server.connections(), 1);
        assert_eq!(server.stats().accepted, 2);
    }

    /// With a connection open, `poll_cycle()` in a tight loop polls the
    /// listener at most once per `IDLE_SLEEP` of wall time, plus the two
    /// calls of the cycle that accepted the connection.
    #[cfg(unix)]
    #[test]
    fn a_busy_server_polls_its_listener_at_most_once_per_idle_sleep() {
        let (mut server, path) = unix_server("accept-bound");
        let _peer = UnixStream::connect(&path.0).expect("connect");
        let start = Instant::now();
        let mut cycles = 0u64;
        while start.elapsed() < std::time::Duration::from_millis(10) {
            server.poll_cycle();
            cycles += 1;
        }
        let elapsed = start.elapsed();
        assert_eq!(server.connections(), 1);
        let polls = server.stats().accept_polls;
        let bound = (elapsed.as_nanos() / IDLE_SLEEP.as_nanos()) as u64 + 2;
        assert!(
            polls <= bound,
            "{polls} accept polls over {cycles} cycles in {elapsed:?}: at most {bound}"
        );
    }

    /// A second client that connects while the first keeps every cycle
    /// busy is accepted within `IDLE_SLEEP` and one cycle, and its `Hello`
    /// is answered by the cycle that accepts it.
    #[cfg(unix)]
    #[test]
    fn a_client_connecting_to_a_busy_server_is_answered_within_an_idle_sleep_and_a_cycle() {
        let (mut server, path) = unix_server("busy-accept");
        let mut first = UnixStream::connect(&path.0).expect("connect");
        first.set_nonblocking(true).expect("non-blocking peer");
        server.poll_cycle();
        let poll = encoded(&Frame::Poll { ticket: 0 });
        let mut replies = Vec::new();
        // One of the first client's polls answered per cycle.
        let mut busy_cycle = |server: &mut NetServer| {
            first.write_all(&poll).expect("send a poll");
            let progressed = server.poll_cycle();
            read_available(&mut first, &mut replies);
            replies.clear();
            progressed
        };
        let warm = Instant::now();
        while warm.elapsed() < 2 * IDLE_SLEEP {
            assert!(busy_cycle(&mut server));
        }

        let mut second = UnixStream::connect(&path.0).expect("connect");
        second
            .write_all(&encoded(&Frame::Hello { tenant: None }))
            .expect("send a hello");
        let connected = Instant::now();
        let mut passed_by = None;
        loop {
            let start = Instant::now();
            assert!(busy_cycle(&mut server), "the first client keeps it busy");
            if server.connections() == 2 {
                break;
            }
            passed_by = Some(start);
        }
        // Its last poll came before the connect, so the listener was due
        // again at most `IDLE_SLEEP` after it: every cycle that passed the
        // new connection by started inside that interval.
        if let Some(start) = passed_by {
            assert!(
                start < connected + IDLE_SLEEP,
                "a cycle {:?} after the connect did not accept it",
                start - connected
            );
        }
        second.set_nonblocking(true).expect("non-blocking peer");
        let mut reply = Vec::new();
        read_available(&mut second, &mut reply);
        assert!(
            matches!(
                decode_frame(&reply, DEFAULT_MAX_PAYLOAD),
                Ok(Some((Frame::HelloOk { .. }, used))) if used == reply.len()
            ),
            "expected exactly one HelloOk, got {reply:?}"
        );
    }

    /// A client that writes `Poll`s and never reads a reply meets the
    /// socket's flow control: once its connection pauses at the outbound
    /// bound the server reads nothing more from it, so the peer's writes
    /// stop, and the connection's reader never holds more than one read's
    /// room.  A unix socket's write lands in the peer's receive queue before
    /// it returns, so each round's verdict is decided by byte counts alone.
    #[cfg(unix)]
    #[test]
    fn a_peer_that_never_reads_is_stopped_by_flow_control() {
        const ROUNDS: usize = 32;
        const CYCLES_PER_ROUND: usize = 16;
        let (mut server, path) = unix_server("flow-control");
        let mut peer = UnixStream::connect(&path.0).expect("connect");
        peer.set_nonblocking(true).expect("non-blocking peer");
        server.poll_cycle();
        let batch: Vec<u8> = (0..256)
            .flat_map(|_| encoded(&Frame::Poll { ticket: 99 }))
            .collect();
        // Where the endless stream of `Poll`s stands within `batch`.
        let mut at = 0;
        let mut written = Vec::new();
        for round in 0..ROUNDS {
            let mut bytes = 0;
            loop {
                match peer.write(&batch[at..]) {
                    Ok(n) => {
                        bytes += n;
                        at = (at + n) % batch.len();
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) => panic!("write: {e}"),
                }
            }
            written.push(bytes);
            for _ in 0..CYCLES_PER_ROUND {
                server.poll_cycle();
            }
            let held = server.conns[0].inbound.capacity();
            assert!(
                held <= HEADER_LEN + MIN_READ,
                "round {round}: the reader holds {held} B after {written:?} B written"
            );
        }
        assert_eq!(server.connections(), 1, "the connection stays open");
        assert!(server.stats().backpressure_pauses > 0);
        assert_eq!(server.stats().decode_errors, 0);
        assert!(
            written[ROUNDS / 2..].iter().all(|&bytes| bytes == 0),
            "the peer still writes: {written:?}"
        );
    }

    /// Frames a client pipelines in one write are decoded at an offset
    /// into the buffered bytes, across the backpressure pauses the outbound
    /// bound forces: 2 000 `Poll`s sent at once are all answered, in order,
    /// byte for byte as when each is sent after the previous reply.
    #[cfg(unix)]
    #[test]
    fn pipelined_polls_in_one_write_are_answered_in_order_as_one_at_a_time() {
        const POLLS: u64 = 2_000;
        let (mut server, path) = unix_server("pipelined");
        let mut peer = UnixStream::connect(&path.0).expect("connect");
        peer.set_nonblocking(true).expect("non-blocking peer");
        server.poll_cycle();
        let mut one_at_a_time = Vec::new();
        for ticket in 0..POLLS {
            peer.write_all(&encoded(&Frame::Poll { ticket }))
                .expect("send a poll");
            server.poll_cycle();
            read_available(&mut peer, &mut one_at_a_time);
        }
        assert_eq!(server.stats().backpressure_pauses, 0);

        let batch: Vec<u8> = (0..POLLS)
            .flat_map(|ticket| encoded(&Frame::Poll { ticket }))
            .collect();
        // The socket buffers the whole batch, so one blocking write sends
        // it before any cycle reads it.
        peer.set_nonblocking(false).expect("blocking peer");
        peer.write_all(&batch).expect("send the batch");
        peer.set_nonblocking(true).expect("non-blocking peer");
        let mut pipelined = Vec::new();
        for _ in 0..100_000 {
            if pipelined.len() >= one_at_a_time.len() {
                break;
            }
            server.poll_cycle();
            read_available(&mut peer, &mut pipelined);
        }
        assert!(
            server.stats().backpressure_pauses > 0,
            "the batch outran the outbound bound"
        );
        assert_eq!(server.stats().frames_in, 2 * POLLS);
        assert!(pipelined == one_at_a_time, "the same bytes either way");

        let mut at = 0;
        for ticket in 0..POLLS {
            let Ok(Some((Frame::Rejected { ticket: t, .. }, used))) =
                decode_frame(&pipelined[at..], DEFAULT_MAX_PAYLOAD)
            else {
                panic!("reply {ticket} is not a Rejected frame");
            };
            assert_eq!(t, ticket, "replies in request order");
            at += used;
        }
        assert_eq!(at, pipelined.len());
    }
}
