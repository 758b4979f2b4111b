//! `rdx-net`: a std-only socket front-end for the `rdx-serve` query
//! engine — no async runtime, no external dependencies.
//!
//! Three layers, separately testable:
//!
//! - [`wire`] — the pure codec: a versioned, length-prefixed binary frame
//!   format ([`Frame`], [`encode_frame`], [`decode_frame`]) whose server
//!   frames mirror the engine's one ticket poll
//!   ([`rdx_serve::TicketPoll`]) exactly, and whose
//!   `Rejected` frame carries the workspace-wide
//!   [`rdx_core::error::RdxError`] losslessly.  Byte-in/byte-out total
//!   functions: incomplete input asks for more, malformed input fails
//!   with a typed [`WireError`], nothing panics on untrusted bytes.
//! - [`server`] — [`NetServer`]: one thread multiplexing a non-blocking
//!   listener (TCP or unix-domain via [`NetListener`]), every
//!   connection's buffers, and [`rdx_serve::QueryEngine::step`].
//!   Per-connection bounded outbound queues give backpressure that never
//!   blocks the engine; protocol violations tear down one connection,
//!   never the server.  [`NetServer::poll_cycle`] never blocks;
//!   [`NetServer::serve`] wraps it in a wake-on-arrival loop (poll again
//!   after progress, yield between polls for a short quiet window after
//!   the last progress, timed sleeps only after that) whose two waits are
//!   counted in [`NetStats`], a read of the `net.*` counters in the
//!   engine's `rdx-obs` registry.  A cycle polls the listener on every
//!   cycle while the server has no connection and at most once per 200 µs
//!   (the idle sleep) while one is open, counted in
//!   [`NetStats::accept_polls`].  Each cycle reads, decodes and handles
//!   a connection's frames and then flushes its replies, so a reply is on
//!   the socket before the cycle's engine steps run; after the steps it
//!   pushes every ticket that became terminal, `Done` or `Rejected`, to
//!   the connection that submitted it, unasked, so an outcome costs no
//!   `Poll` round trip.  Both ends set `TCP_NODELAY`.  A query's result is
//!   encoded where it is computed: every wire ticket is submitted in the
//!   engine's frame form, so the kernels write each value's bytes into the
//!   one pre-sized `Done` frame the engine's frame sink lends, and the
//!   server only writes its header before sending it.  A result whose frame would exceed
//!   [`NetConfig::max_payload`] is refused with a typed `ResultTooLarge`
//!   before it runs.
//! - [`client`] — [`NetClient`]: a small client for tests, examples, and
//!   other processes.  Its stream is non-blocking, and it waits for a
//!   reply under the server's idle policy (yield-and-retry for the quiet
//!   window, then one blocking read).  It keeps the outcomes pushed while
//!   it waits for a reply, so `poll` of a finished ticket and `wait` send
//!   nothing.  It reads each frame straight into a buffer sized by the
//!   validated header, never beyond the payload cap.
//!
//! The result columns ride the wire in full, so a networked query is
//! byte-identical to the same query run in-process — the conformance
//! suite (`tests/net_conformance.rs` at the workspace root) holds the
//! two paths equal over the full parameter grid.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
mod idle;
pub mod server;
pub mod wire;

pub use client::{ClientError, NetClient};
pub use server::{NetConfig, NetListener, NetServer, NetStats, NetStream, NO_TICKET};
pub use wire::{
    decode_frame, encode_frame, Frame, SubmitSpec, WireError, WireReport, DEFAULT_MAX_PAYLOAD,
    HEADER_LEN, MAGIC, WIRE_VERSION,
};
