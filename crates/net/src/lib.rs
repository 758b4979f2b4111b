//! `rdx-net`: a std-only socket front-end for the `rdx-serve` query
//! engine — no async runtime, no external dependencies.
//!
//! Three layers, separately testable:
//!
//! - [`wire`] — the pure codec: a versioned, length-prefixed binary frame
//!   format ([`Frame`], [`encode_frame`], [`decode_frame`]) whose server
//!   frames mirror the engine's `TicketStatus` exactly, and whose
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
//!   counted in [`NetStats`].  A finished query's columns are encoded once, from
//!   the result into an exactly-sized `Done` buffer.
//! - [`client`] — [`NetClient`]: a small blocking client for tests,
//!   examples, and other processes.  It reads each frame straight into a
//!   buffer sized by the validated header, never beyond the payload cap.
//!
//! The result columns ride the wire in full, so a networked query is
//! byte-identical to the same query run in-process — the conformance
//! suite (`tests/net_conformance.rs` at the workspace root) holds the
//! two paths equal over the full parameter grid.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod server;
pub mod wire;

pub use client::{ClientError, NetClient};
pub use server::{NetConfig, NetListener, NetServer, NetStats, NetStream, NO_TICKET};
pub use wire::{
    decode_frame, encode_frame, Frame, SubmitSpec, WireError, WireReport, DEFAULT_MAX_PAYLOAD,
    HEADER_LEN, MAGIC, WIRE_VERSION,
};
