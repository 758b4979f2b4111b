//! The **pure codec**: frame ⇄ bytes, no sockets, no engine.
//!
//! Every message is one length-prefixed frame:
//!
//! ```text
//! ┌────────┬─────────┬──────┬─────────────┬─────────────────┐
//! │ magic  │ version │ type │ payload_len │ payload         │
//! │ 2 B    │ 1 B     │ 1 B  │ 4 B LE      │ payload_len B   │
//! └────────┴─────────┴──────┴─────────────┴─────────────────┘
//! ```
//!
//! `magic` is `"RD"` (`0x52 0x44`), `version` is [`WIRE_VERSION`].  Client
//! frame types live below `0x80`, server types at or above it.  Integers
//! are little-endian; optional fields are a presence byte (`0`/`1`)
//! followed by the value; strings and columns are a `u32` length followed
//! by the bytes/values.  Everything here is a total function of the input
//! bytes: [`decode_frame`] returns `Ok(None)` for an incomplete buffer and
//! a typed [`WireError`] for a malformed one — it never panics on
//! untrusted input, which is what lets the server treat a bad client as a
//! per-connection event rather than a process event.
//!
//! A frame decoded under a *newer* `version` byte fails with
//! [`WireError::UnsupportedVersion`] before its type byte is even
//! considered, so protocol evolution is: bump [`WIRE_VERSION`], keep
//! decoding old versions where the layout allows, and let old servers
//! refuse new clients with a typed error instead of garbage.

use rdx_core::budget::BudgetError;
use rdx_core::error::{DeadlineError, RdxError, Side, TenantQuotaKind};
use rdx_core::strategy::common::{ProjectionCode, SecondSideCode};
use rdx_core::strategy::DsmPostProjection;

/// The two magic bytes every frame starts with: `"RD"`.
pub const MAGIC: [u8; 2] = [0x52, 0x44];

/// The protocol version this build speaks.
pub const WIRE_VERSION: u8 = 1;

/// Header size in bytes (magic + version + type + payload length).
pub const HEADER_LEN: usize = 8;

/// Default cap on a single frame's payload (16 MiB) — a decoded length
/// above the cap is refused with [`WireError::Oversized`] *before* any
/// buffer grows to meet it, so a hostile length field cannot balloon
/// server memory.
pub const DEFAULT_MAX_PAYLOAD: u32 = 16 << 20;

/// Why a byte sequence could not be decoded as a frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The first two bytes were not [`MAGIC`].
    BadMagic {
        /// The bytes found instead.
        found: [u8; 2],
    },
    /// The version byte names a protocol this build does not speak.
    UnsupportedVersion {
        /// The version byte found.
        found: u8,
    },
    /// The type byte names no known frame.
    UnknownFrameType {
        /// The type byte found.
        found: u8,
    },
    /// The declared payload length exceeds the decoder's cap.
    Oversized {
        /// Declared payload length.
        len: u32,
        /// The decoder's cap.
        max: u32,
    },
    /// The payload did not parse as its frame type's layout.
    BadPayload {
        /// What went wrong (static: decoding allocates only for values).
        detail: &'static str,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::BadMagic { found } => {
                write!(f, "bad frame magic {found:02x?} (expected \"RD\")")
            }
            WireError::UnsupportedVersion { found } => {
                write!(
                    f,
                    "unsupported wire version {found} (speaking {WIRE_VERSION})"
                )
            }
            WireError::UnknownFrameType { found } => {
                write!(f, "unknown frame type 0x{found:02x}")
            }
            WireError::Oversized { len, max } => {
                write!(f, "frame payload of {len} B exceeds the {max} B cap")
            }
            WireError::BadPayload { detail } => write!(f, "malformed frame payload: {detail}"),
        }
    }
}

impl std::error::Error for WireError {}

/// The submit payload: the wire form of a `ServerRequest` minus the
/// in-process-only knobs (adaptive policies, fault injection, profiling
/// stay server-side; the tenant rides the connection's `Hello`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubmitSpec {
    /// Raw id of the larger (probing) relation.
    pub larger: u32,
    /// Raw id of the smaller (build) relation.
    pub smaller: u32,
    /// Columns projected from the larger side.
    pub project_larger: u32,
    /// Columns projected from the smaller side.
    pub project_smaller: u32,
    /// Optional per-query budget cap in bytes.
    pub budget_bytes: Option<u64>,
    /// Optional worker-thread count (`0` = auto-detect).
    pub threads: Option<u32>,
    /// Optional pinned projection codes (bypasses the cost planner).
    pub codes: Option<DsmPostProjection>,
    /// Optional service-time deadline in nanoseconds.
    pub deadline_ns: Option<u64>,
    /// Scheduling priority (`1` default).
    pub priority: u32,
}

/// The completion report a [`Frame::Done`] carries — enough to reproduce
/// the in-process `QueryResult` byte for byte (the full result columns)
/// plus the headline stats.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireReport {
    /// Result cardinality.
    pub rows: u64,
    /// Chunks the query streamed in.
    pub chunks: u64,
    /// Whether the prepared prefix came from the clustered-index cache.
    pub cache_hit: bool,
    /// The budget share the query ran under, in bytes.
    pub share_bytes: u64,
    /// The materialised result columns, in projection order.
    pub columns: Vec<Vec<i32>>,
}

/// One protocol message, client or server.
///
/// The server frames mirror the engine's `TicketStatus` exactly:
/// `Queued { position }` ⇄ [`Frame::Queued`], `Running { chunks, rows }` ⇄
/// [`Frame::Chunk`], and a `Finished` ticket's outcome ⇄ [`Frame::Done`] /
/// [`Frame::Rejected`].
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Client: opens the connection, optionally naming the tenant every
    /// subsequent submit on this connection is billed to.
    Hello {
        /// Tenant name, interned server-side into a `TenantId`.
        tenant: Option<String>,
    },
    /// Client: submits one projection query.
    Submit(SubmitSpec),
    /// Client: asks where a ticket is in its state machine.
    Poll {
        /// The ticket, as returned by [`Frame::Submitted`].
        ticket: u64,
    },
    /// Client: cancels a ticket wherever it is.
    Cancel {
        /// The ticket to cancel.
        ticket: u64,
    },
    /// Server: answers [`Frame::Hello`] with the negotiated version and
    /// the interned tenant id (if a tenant was named).
    HelloOk {
        /// The server's wire version.
        version: u8,
        /// Raw interned tenant id.
        tenant: Option<u32>,
    },
    /// Server: answers [`Frame::Submit`] with the issued ticket.
    Submitted {
        /// The raw ticket number.
        ticket: u64,
    },
    /// Server: the ticket is waiting for admission (mirrors
    /// `TicketStatus::Queued`).
    Queued {
        /// The polled ticket.
        ticket: u64,
        /// 0-based position in the admission queue.
        position: u64,
    },
    /// Server: the ticket is running (mirrors `TicketStatus::Running`).
    Chunk {
        /// The polled ticket.
        ticket: u64,
        /// Chunks emitted so far.
        chunks: u64,
        /// Rows emitted so far.
        rows: u64,
    },
    /// Server: the ticket finished; the report carries the full result.
    Done {
        /// The polled ticket.
        ticket: u64,
        /// Result columns and headline stats.
        report: WireReport,
    },
    /// Server: the ticket failed with a typed engine error.
    Rejected {
        /// The polled ticket.
        ticket: u64,
        /// Why — the workspace-wide error, encoded losslessly.
        error: RdxError,
    },
    /// Server: answers [`Frame::Cancel`].
    CancelResult {
        /// The cancelled ticket.
        ticket: u64,
        /// `false` when the ticket was already finished (or unknown).
        cancelled: bool,
    },
    /// Server: the connection violated the protocol and will be closed
    /// (sent best-effort before teardown; the server itself survives).
    ProtocolError {
        /// Human-readable detail, mirroring the server-side [`WireError`].
        detail: String,
    },
}

/// [`Frame::Done`]'s wire type byte, shared by [`encode_frame`],
/// [`encode_done`] and [`decode_frame`].
const TYPE_DONE: u8 = 0x85;

impl Frame {
    /// This frame's wire type byte.
    fn type_byte(&self) -> u8 {
        match self {
            Frame::Hello { .. } => 0x01,
            Frame::Submit(_) => 0x02,
            Frame::Poll { .. } => 0x03,
            Frame::Cancel { .. } => 0x04,
            Frame::HelloOk { .. } => 0x81,
            Frame::Submitted { .. } => 0x82,
            Frame::Queued { .. } => 0x83,
            Frame::Chunk { .. } => 0x84,
            Frame::Done { .. } => TYPE_DONE,
            Frame::Rejected { .. } => 0x86,
            Frame::CancelResult { .. } => 0x87,
            Frame::ProtocolError { .. } => 0x88,
        }
    }
}

// ---------------------------------------------------------------- writing

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_opt_u32(out: &mut Vec<u8>, v: Option<u32>) {
    match v {
        Some(v) => {
            out.push(1);
            put_u32(out, v);
        }
        None => out.push(0),
    }
}

fn put_opt_u64(out: &mut Vec<u8>, v: Option<u64>) {
    match v {
        Some(v) => {
            out.push(1);
            put_u64(out, v);
        }
        None => out.push(0),
    }
}

fn put_string(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_error(out: &mut Vec<u8>, e: &RdxError) {
    match e {
        RdxError::Budget(b) => {
            out.push(0);
            match b {
                BudgetError::ZeroBytes => out.push(0),
                BudgetError::BelowOneRow {
                    budget_bytes,
                    bytes_per_row,
                } => {
                    out.push(1);
                    put_u64(out, *budget_bytes as u64);
                    put_u64(out, *bytes_per_row as u64);
                }
            }
        }
        RdxError::UnknownRelation { id } => {
            out.push(1);
            put_u32(out, *id);
        }
        RdxError::TooManyColumns {
            side,
            requested,
            available,
        } => {
            out.push(2);
            out.push(match side {
                Side::Larger => 0,
                Side::Smaller => 1,
            });
            put_u64(out, *requested as u64);
            put_u64(out, *available as u64);
        }
        RdxError::SelectionMismatch {
            selection_base,
            base_cardinality,
        } => {
            out.push(3);
            put_u64(out, *selection_base as u64);
            put_u64(out, *base_cardinality as u64);
        }
        RdxError::UnknownTicket { ticket } => {
            out.push(4);
            put_u64(out, *ticket);
        }
        RdxError::Deadline(d) => {
            out.push(5);
            match d {
                DeadlineError::Infeasible {
                    predicted_ns,
                    deadline_ns,
                } => {
                    out.push(0);
                    put_u64(out, *predicted_ns);
                    put_u64(out, *deadline_ns);
                }
                DeadlineError::Exceeded {
                    consumed_ns,
                    deadline_ns,
                } => {
                    out.push(1);
                    put_u64(out, *consumed_ns);
                    put_u64(out, *deadline_ns);
                }
            }
        }
        RdxError::Cancelled => out.push(6),
        RdxError::WorkerPanicked { worker } => {
            out.push(7);
            put_u64(out, *worker as u64);
        }
        RdxError::TenantQuota { tenant, kind } => {
            out.push(8);
            put_u32(out, *tenant);
            match kind {
                TenantQuotaKind::InFlight { in_flight, limit } => {
                    out.push(0);
                    put_u64(out, *in_flight as u64);
                    put_u64(out, *limit as u64);
                }
                TenantQuotaKind::ResidentBytes {
                    needed,
                    in_use,
                    limit,
                } => {
                    out.push(1);
                    put_u64(out, *needed as u64);
                    put_u64(out, *in_use as u64);
                    put_u64(out, *limit as u64);
                }
            }
        }
    }
}

/// Appends a frame header with a zero payload length and returns where
/// the length sits, for [`end_frame`] to patch once the payload is written.
fn begin_frame(out: &mut Vec<u8>, type_byte: u8) -> usize {
    out.extend_from_slice(&MAGIC);
    out.push(WIRE_VERSION);
    out.push(type_byte);
    let len_at = out.len();
    put_u32(out, 0);
    len_at
}

/// Patches the payload length of the frame [`begin_frame`] opened at
/// `len_at`: everything appended since.
fn end_frame(out: &mut [u8], len_at: usize) {
    let payload_len = (out.len() - len_at - 4) as u32;
    out[len_at..len_at + 4].copy_from_slice(&payload_len.to_le_bytes());
}

/// Everything a [`Frame::Done`] carries except the result columns, so the
/// server can encode a finished query straight from the columns it
/// already holds (see [`encode_done`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct DoneHead {
    pub ticket: u64,
    pub rows: u64,
    pub chunks: u64,
    pub cache_hit: bool,
    pub share_bytes: u64,
}

/// The one `Done` payload layout: head fields, column count, then each
/// column as a `u32` length and its little-endian values.
fn put_done<'a>(
    out: &mut Vec<u8>,
    head: &DoneHead,
    columns: impl ExactSizeIterator<Item = &'a [i32]>,
) {
    put_u64(out, head.ticket);
    put_u64(out, head.rows);
    put_u64(out, head.chunks);
    out.push(u8::from(head.cache_hit));
    put_u64(out, head.share_bytes);
    put_u16(out, columns.len() as u16);
    for col in columns {
        put_u32(out, col.len() as u32);
        for v in col {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
}

/// Appends a complete `Done` frame encoded from **borrowed** columns —
/// byte for byte what [`encode_frame`] emits for the equivalent
/// [`Frame::Done`], without first copying the columns into a
/// [`WireReport`].  The frame's exact size is reserved up front, so a
/// multi-megabyte result is written once into a buffer that never
/// reallocates.
pub(crate) fn encode_done<'a>(
    head: &DoneHead,
    columns: impl ExactSizeIterator<Item = &'a [i32]> + Clone,
    out: &mut Vec<u8>,
) {
    // Four u64 head fields, the cache-hit byte and the u16 column count,
    // then a u32 length and 4 B per value for each column.
    let fixed = 4 * 8 + 1 + 2;
    let columns_len: usize = columns.clone().map(|c| 4 + 4 * c.len()).sum();
    out.reserve_exact(HEADER_LEN + fixed + columns_len);
    let len_at = begin_frame(out, TYPE_DONE);
    put_done(out, head, columns);
    end_frame(out, len_at);
}

/// Appends `frame`, fully encoded (header + payload), to `out`.
pub fn encode_frame(frame: &Frame, out: &mut Vec<u8>) {
    let len_at = begin_frame(out, frame.type_byte());
    match frame {
        Frame::Hello { tenant } => match tenant {
            Some(name) => {
                out.push(1);
                put_string(out, name);
            }
            None => out.push(0),
        },
        Frame::Submit(s) => {
            put_u32(out, s.larger);
            put_u32(out, s.smaller);
            put_u32(out, s.project_larger);
            put_u32(out, s.project_smaller);
            put_opt_u64(out, s.budget_bytes);
            put_opt_u32(out, s.threads);
            match s.codes {
                Some(codes) => {
                    out.push(1);
                    out.push(match codes.first_side {
                        ProjectionCode::Unsorted => 0,
                        ProjectionCode::Sorted => 1,
                        ProjectionCode::PartialCluster => 2,
                    });
                    out.push(match codes.second_side {
                        SecondSideCode::Unsorted => 0,
                        SecondSideCode::Decluster => 1,
                    });
                }
                None => out.push(0),
            }
            put_opt_u64(out, s.deadline_ns);
            put_u32(out, s.priority);
        }
        Frame::Poll { ticket } | Frame::Cancel { ticket } | Frame::Submitted { ticket } => {
            put_u64(out, *ticket);
        }
        Frame::HelloOk { version, tenant } => {
            out.push(*version);
            put_opt_u32(out, *tenant);
        }
        Frame::Queued { ticket, position } => {
            put_u64(out, *ticket);
            put_u64(out, *position);
        }
        Frame::Chunk {
            ticket,
            chunks,
            rows,
        } => {
            put_u64(out, *ticket);
            put_u64(out, *chunks);
            put_u64(out, *rows);
        }
        Frame::Done { ticket, report } => put_done(
            out,
            &DoneHead {
                ticket: *ticket,
                rows: report.rows,
                chunks: report.chunks,
                cache_hit: report.cache_hit,
                share_bytes: report.share_bytes,
            },
            report.columns.iter().map(Vec::as_slice),
        ),
        Frame::Rejected { ticket, error } => {
            put_u64(out, *ticket);
            put_error(out, error);
        }
        Frame::CancelResult { ticket, cancelled } => {
            put_u64(out, *ticket);
            out.push(u8::from(*cancelled));
        }
        Frame::ProtocolError { detail } => put_string(out, detail),
    }
    end_frame(out, len_at);
}

// ---------------------------------------------------------------- reading

/// A bounds-checked little-endian cursor over one frame's payload.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::BadPayload {
            detail: "length overflow",
        })?;
        if end > self.buf.len() {
            return Err(WireError::BadPayload {
                detail: "truncated payload",
            });
        }
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::BadPayload {
                detail: "boolean byte not 0/1",
            }),
        }
    }

    fn opt_u32(&mut self) -> Result<Option<u32>, WireError> {
        Ok(if self.bool()? {
            Some(self.u32()?)
        } else {
            None
        })
    }

    fn opt_u64(&mut self) -> Result<Option<u64>, WireError> {
        Ok(if self.bool()? {
            Some(self.u64()?)
        } else {
            None
        })
    }

    fn string(&mut self) -> Result<String, WireError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::BadPayload {
            detail: "string not UTF-8",
        })
    }

    fn finish(self) -> Result<(), WireError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::BadPayload {
                detail: "trailing bytes after payload",
            })
        }
    }
}

fn read_error(r: &mut Reader<'_>) -> Result<RdxError, WireError> {
    let bad = |detail| WireError::BadPayload { detail };
    Ok(match r.u8()? {
        0 => RdxError::Budget(match r.u8()? {
            0 => BudgetError::ZeroBytes,
            1 => BudgetError::BelowOneRow {
                budget_bytes: r.u64()? as usize,
                bytes_per_row: r.u64()? as usize,
            },
            _ => return Err(bad("unknown budget error tag")),
        }),
        1 => RdxError::UnknownRelation { id: r.u32()? },
        2 => RdxError::TooManyColumns {
            side: match r.u8()? {
                0 => Side::Larger,
                1 => Side::Smaller,
                _ => return Err(bad("unknown side tag")),
            },
            requested: r.u64()? as usize,
            available: r.u64()? as usize,
        },
        3 => RdxError::SelectionMismatch {
            selection_base: r.u64()? as usize,
            base_cardinality: r.u64()? as usize,
        },
        4 => RdxError::UnknownTicket { ticket: r.u64()? },
        5 => RdxError::Deadline(match r.u8()? {
            0 => DeadlineError::Infeasible {
                predicted_ns: r.u64()?,
                deadline_ns: r.u64()?,
            },
            1 => DeadlineError::Exceeded {
                consumed_ns: r.u64()?,
                deadline_ns: r.u64()?,
            },
            _ => return Err(bad("unknown deadline error tag")),
        }),
        6 => RdxError::Cancelled,
        7 => RdxError::WorkerPanicked {
            worker: r.u64()? as usize,
        },
        8 => RdxError::TenantQuota {
            tenant: r.u32()?,
            kind: match r.u8()? {
                0 => TenantQuotaKind::InFlight {
                    in_flight: r.u64()? as usize,
                    limit: r.u64()? as usize,
                },
                1 => TenantQuotaKind::ResidentBytes {
                    needed: r.u64()? as usize,
                    in_use: r.u64()? as usize,
                    limit: r.u64()? as usize,
                },
                _ => return Err(bad("unknown tenant quota tag")),
            },
        },
        _ => return Err(bad("unknown error tag")),
    })
}

/// The payload length announced by the frame at the head of `buf`, once
/// its 8 header bytes are there.  Validates nothing: [`decode_frame`]
/// checks it against the cap, and a reader sizes its buffer with it only
/// after `decode_frame` answered `Ok(None)` for the same bytes — header
/// accepted (magic, version, cap), payload incomplete.
pub(crate) fn announced_payload_len(buf: &[u8]) -> Option<u32> {
    let len = buf.get(4..HEADER_LEN)?;
    Some(u32::from_le_bytes([len[0], len[1], len[2], len[3]]))
}

/// Decodes the first complete frame in `buf`.
///
/// Returns `Ok(Some((frame, consumed)))` when a whole frame was present
/// (`consumed` bytes should be drained from the buffer), `Ok(None)` when
/// more bytes are needed, and a typed [`WireError`] when the bytes can
/// never become a valid frame (the caller should tear the connection
/// down — resynchronising inside a corrupt byte stream is guesswork).
pub fn decode_frame(buf: &[u8], max_payload: u32) -> Result<Option<(Frame, usize)>, WireError> {
    let Some(payload_len) = announced_payload_len(buf) else {
        return Ok(None);
    };
    if buf[0..2] != MAGIC {
        return Err(WireError::BadMagic {
            found: [buf[0], buf[1]],
        });
    }
    if buf[2] != WIRE_VERSION {
        return Err(WireError::UnsupportedVersion { found: buf[2] });
    }
    let frame_type = buf[3];
    if payload_len > max_payload {
        return Err(WireError::Oversized {
            len: payload_len,
            max: max_payload,
        });
    }
    let total = HEADER_LEN + payload_len as usize;
    if buf.len() < total {
        return Ok(None);
    }
    let mut r = Reader::new(&buf[HEADER_LEN..total]);
    let frame = match frame_type {
        0x01 => Frame::Hello {
            tenant: if r.bool()? { Some(r.string()?) } else { None },
        },
        0x02 => Frame::Submit(SubmitSpec {
            larger: r.u32()?,
            smaller: r.u32()?,
            project_larger: r.u32()?,
            project_smaller: r.u32()?,
            budget_bytes: r.opt_u64()?,
            threads: r.opt_u32()?,
            codes: if r.bool()? {
                let first_side = match r.u8()? {
                    0 => ProjectionCode::Unsorted,
                    1 => ProjectionCode::Sorted,
                    2 => ProjectionCode::PartialCluster,
                    _ => {
                        return Err(WireError::BadPayload {
                            detail: "unknown first-side code",
                        })
                    }
                };
                let second_side = match r.u8()? {
                    0 => SecondSideCode::Unsorted,
                    1 => SecondSideCode::Decluster,
                    _ => {
                        return Err(WireError::BadPayload {
                            detail: "unknown second-side code",
                        })
                    }
                };
                Some(DsmPostProjection::with_codes(first_side, second_side))
            } else {
                None
            },
            deadline_ns: r.opt_u64()?,
            priority: r.u32()?,
        }),
        0x03 => Frame::Poll { ticket: r.u64()? },
        0x04 => Frame::Cancel { ticket: r.u64()? },
        0x81 => Frame::HelloOk {
            version: r.u8()?,
            tenant: r.opt_u32()?,
        },
        0x82 => Frame::Submitted { ticket: r.u64()? },
        0x83 => Frame::Queued {
            ticket: r.u64()?,
            position: r.u64()?,
        },
        0x84 => Frame::Chunk {
            ticket: r.u64()?,
            chunks: r.u64()?,
            rows: r.u64()?,
        },
        TYPE_DONE => {
            let ticket = r.u64()?;
            let rows = r.u64()?;
            let chunks = r.u64()?;
            let cache_hit = r.bool()?;
            let share_bytes = r.u64()?;
            let ncols = r.u16()? as usize;
            let mut columns = Vec::with_capacity(ncols);
            for _ in 0..ncols {
                let len = r.u32()? as usize;
                let bytes = r.take(len.checked_mul(4).ok_or(WireError::BadPayload {
                    detail: "column length overflow",
                })?)?;
                columns.push(
                    bytes
                        .chunks_exact(4)
                        .map(|b| i32::from_le_bytes([b[0], b[1], b[2], b[3]]))
                        .collect(),
                );
            }
            Frame::Done {
                ticket,
                report: WireReport {
                    rows,
                    chunks,
                    cache_hit,
                    share_bytes,
                    columns,
                },
            }
        }
        0x86 => Frame::Rejected {
            ticket: r.u64()?,
            error: read_error(&mut r)?,
        },
        0x87 => Frame::CancelResult {
            ticket: r.u64()?,
            cancelled: r.bool()?,
        },
        0x88 => Frame::ProtocolError {
            detail: r.string()?,
        },
        found => return Err(WireError::UnknownFrameType { found }),
    };
    r.finish()?;
    Ok(Some((frame, total)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(frame: Frame) {
        let mut buf = Vec::new();
        encode_frame(&frame, &mut buf);
        let (decoded, consumed) = decode_frame(&buf, DEFAULT_MAX_PAYLOAD)
            .expect("valid frame")
            .expect("complete frame");
        assert_eq!(consumed, buf.len(), "consumes exactly one frame");
        assert_eq!(decoded, frame);
    }

    #[test]
    fn every_frame_round_trips() {
        round_trip(Frame::Hello { tenant: None });
        round_trip(Frame::Hello {
            tenant: Some("acme".into()),
        });
        round_trip(Frame::Submit(SubmitSpec {
            larger: 3,
            smaller: 4,
            project_larger: 2,
            project_smaller: 1,
            budget_bytes: Some(4096),
            threads: Some(2),
            codes: Some(DsmPostProjection::with_codes(
                ProjectionCode::PartialCluster,
                SecondSideCode::Decluster,
            )),
            deadline_ns: Some(1_000_000),
            priority: 3,
        }));
        round_trip(Frame::Submit(SubmitSpec {
            larger: 0,
            smaller: 1,
            project_larger: 1,
            project_smaller: 1,
            budget_bytes: None,
            threads: None,
            codes: None,
            deadline_ns: None,
            priority: 1,
        }));
        round_trip(Frame::Poll { ticket: 77 });
        round_trip(Frame::Cancel { ticket: u64::MAX });
        round_trip(Frame::HelloOk {
            version: WIRE_VERSION,
            tenant: Some(9),
        });
        round_trip(Frame::Submitted { ticket: 12 });
        round_trip(Frame::Queued {
            ticket: 12,
            position: 4,
        });
        round_trip(Frame::Chunk {
            ticket: 12,
            chunks: 8,
            rows: 640,
        });
        round_trip(Frame::Done {
            ticket: 12,
            report: WireReport {
                rows: 3,
                chunks: 2,
                cache_hit: true,
                share_bytes: 512,
                columns: vec![vec![1, -2, 3], vec![i32::MIN, 0, i32::MAX]],
            },
        });
        round_trip(Frame::CancelResult {
            ticket: 12,
            cancelled: false,
        });
        round_trip(Frame::ProtocolError {
            detail: "bad frame magic".into(),
        });
    }

    /// Encodes `columns` both ways — owned through [`encode_frame`],
    /// borrowed through [`encode_done`] — after `prefix` bytes already in
    /// the buffer, and returns the borrowed buffer once the two agree.
    fn done_both_ways(prefix: &[u8], columns: Vec<Vec<i32>>) -> Vec<u8> {
        let head = DoneHead {
            ticket: 0x0102_0304_0506_0708,
            rows: columns.first().map_or(0, |c| c.len() as u64),
            chunks: 19,
            cache_hit: true,
            share_bytes: 800_000,
        };
        let mut borrowed = prefix.to_vec();
        encode_done(&head, columns.iter().map(Vec::as_slice), &mut borrowed);
        let grown_to = borrowed.capacity();

        let frame = Frame::Done {
            ticket: head.ticket,
            report: WireReport {
                rows: head.rows,
                chunks: head.chunks,
                cache_hit: head.cache_hit,
                share_bytes: head.share_bytes,
                columns,
            },
        };
        let mut owned = prefix.to_vec();
        encode_frame(&frame, &mut owned);
        assert_eq!(borrowed, owned, "one Done layout, whichever door");
        assert_eq!(
            (borrowed.len(), borrowed.capacity()),
            (grown_to, grown_to),
            "reserved exactly once, filled exactly"
        );
        let (decoded, used) = decode_frame(&borrowed[prefix.len()..], u32::MAX)
            .expect("valid")
            .expect("complete");
        assert_eq!((decoded, used), (frame, borrowed.len() - prefix.len()));
        borrowed
    }

    #[test]
    fn borrowed_done_is_byte_identical_and_never_reallocates() {
        // 0, 1 and many columns; empty, tiny and multi-megabyte ones.
        let big: Vec<i32> = (0..800_000).map(|i| i * 7 - 1_000_000).collect();
        let shapes: Vec<Vec<Vec<i32>>> = vec![
            vec![],
            vec![vec![]],
            vec![vec![i32::MIN, -1, 0, 1, i32::MAX]],
            vec![vec![], vec![], vec![]],
            (0..8).map(|c| vec![c; 3]).collect(),
            vec![big.clone(), big],
        ];
        for columns in shapes {
            let values: usize = columns.iter().map(Vec::len).sum();
            let bytes = done_both_ways(&[], columns.clone());
            assert_eq!(
                bytes.len(),
                HEADER_LEN + 35 + 4 * columns.len() + 4 * values
            );
            // Appending behind bytes already queued changes nothing.
            let behind = done_both_ways(b"earlier frame", columns);
            assert_eq!(behind[13..], bytes[..]);
        }
    }

    #[test]
    fn announced_payload_len_needs_a_whole_header() {
        let mut buf = Vec::new();
        encode_frame(&Frame::Poll { ticket: 9 }, &mut buf);
        for cut in 0..HEADER_LEN {
            assert_eq!(announced_payload_len(&buf[..cut]), None);
        }
        assert_eq!(announced_payload_len(&buf[..HEADER_LEN]), Some(8));
        assert_eq!(announced_payload_len(&buf), Some(8));
    }

    #[test]
    fn every_error_variant_round_trips() {
        let errors = [
            RdxError::Budget(BudgetError::ZeroBytes),
            RdxError::Budget(BudgetError::BelowOneRow {
                budget_bytes: 7,
                bytes_per_row: 16,
            }),
            RdxError::UnknownRelation { id: 42 },
            RdxError::TooManyColumns {
                side: Side::Smaller,
                requested: 9,
                available: 2,
            },
            RdxError::SelectionMismatch {
                selection_base: 100,
                base_cardinality: 50,
            },
            RdxError::UnknownTicket { ticket: 5 },
            RdxError::Deadline(DeadlineError::Infeasible {
                predicted_ns: 10,
                deadline_ns: 5,
            }),
            RdxError::Deadline(DeadlineError::Exceeded {
                consumed_ns: 11,
                deadline_ns: 10,
            }),
            RdxError::Cancelled,
            RdxError::WorkerPanicked { worker: 3 },
            RdxError::TenantQuota {
                tenant: 2,
                kind: TenantQuotaKind::InFlight {
                    in_flight: 3,
                    limit: 3,
                },
            },
            RdxError::TenantQuota {
                tenant: 2,
                kind: TenantQuotaKind::ResidentBytes {
                    needed: 16,
                    in_use: 120,
                    limit: 128,
                },
            },
        ];
        for error in errors {
            round_trip(Frame::Rejected { ticket: 1, error });
        }
    }

    #[test]
    fn incomplete_buffers_ask_for_more_bytes() {
        let mut buf = Vec::new();
        encode_frame(&Frame::Poll { ticket: 9 }, &mut buf);
        for cut in 0..buf.len() {
            assert_eq!(
                decode_frame(&buf[..cut], DEFAULT_MAX_PAYLOAD),
                Ok(None),
                "prefix of {cut} bytes must be incomplete, not malformed"
            );
        }
    }

    #[test]
    fn two_frames_in_one_buffer_decode_in_order() {
        let mut buf = Vec::new();
        encode_frame(&Frame::Poll { ticket: 1 }, &mut buf);
        encode_frame(&Frame::Cancel { ticket: 2 }, &mut buf);
        let (first, used) = decode_frame(&buf, DEFAULT_MAX_PAYLOAD).unwrap().unwrap();
        assert_eq!(first, Frame::Poll { ticket: 1 });
        let (second, used2) = decode_frame(&buf[used..], DEFAULT_MAX_PAYLOAD)
            .unwrap()
            .unwrap();
        assert_eq!(second, Frame::Cancel { ticket: 2 });
        assert_eq!(used + used2, buf.len());
    }

    #[test]
    fn malformed_frames_fail_with_typed_errors() {
        // Wrong magic.
        let bad_magic = [b'X', b'Y', WIRE_VERSION, 0x03, 8, 0, 0, 0];
        assert!(matches!(
            decode_frame(&bad_magic, DEFAULT_MAX_PAYLOAD),
            Err(WireError::BadMagic {
                found: [b'X', b'Y']
            })
        ));
        // Future version.
        let future = [MAGIC[0], MAGIC[1], 99, 0x03, 8, 0, 0, 0];
        assert!(matches!(
            decode_frame(&future, DEFAULT_MAX_PAYLOAD),
            Err(WireError::UnsupportedVersion { found: 99 })
        ));
        // Unknown type byte (with its declared payload present).
        let mut unknown = vec![MAGIC[0], MAGIC[1], WIRE_VERSION, 0x7E, 1, 0, 0, 0];
        unknown.push(0);
        assert!(matches!(
            decode_frame(&unknown, DEFAULT_MAX_PAYLOAD),
            Err(WireError::UnknownFrameType { found: 0x7E })
        ));
        // Oversized payload is refused from the header alone.
        let oversized = [MAGIC[0], MAGIC[1], WIRE_VERSION, 0x03, 255, 255, 255, 255];
        assert!(matches!(
            decode_frame(&oversized, 1024),
            Err(WireError::Oversized { max: 1024, .. })
        ));
        // Truncated-inside-payload: declared length is shorter than the
        // fields the type needs.
        let mut short = Vec::new();
        encode_frame(&Frame::Poll { ticket: 3 }, &mut short);
        short[4] = 4; // lie: 4-byte payload for an 8-byte field
        short.truncate(HEADER_LEN + 4);
        assert!(matches!(
            decode_frame(&short, DEFAULT_MAX_PAYLOAD),
            Err(WireError::BadPayload { .. })
        ));
        // Trailing garbage after a valid payload.
        let mut trailing = Vec::new();
        encode_frame(&Frame::Poll { ticket: 3 }, &mut trailing);
        let len = (trailing.len() - HEADER_LEN + 1) as u32;
        trailing[4..8].copy_from_slice(&len.to_le_bytes());
        trailing.push(0xAB);
        assert!(matches!(
            decode_frame(&trailing, DEFAULT_MAX_PAYLOAD),
            Err(WireError::BadPayload {
                detail: "trailing bytes after payload"
            })
        ));
        // Display stays human-readable (the teardown notice quotes it).
        let e = WireError::Oversized { len: 9, max: 4 };
        assert_eq!(e.to_string(), "frame payload of 9 B exceeds the 4 B cap");
    }
}
