//! The bounded **structured event trace**: a ring buffer of per-query
//! lifecycle spans, keyed by a process-unique [`QueryId`] so one query's
//! life can be replayed across layers (front door → admission → cache →
//! chunk loop → completion) from a single snapshot.
//!
//! Events are fixed-size [`Copy`] values and the ring is pre-allocated at
//! construction, so recording in the steady-state chunk loop performs **no
//! heap allocations** — it takes a short mutex (recording happens at chunk
//! granularity, not per tuple) and writes one slot.  When the ring is full
//! the oldest events are overwritten; [`TraceSnapshot::dropped`] reports
//! how many were lost so a replay can tell "the query emitted no events"
//! from "the events aged out".

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Process-wide query-id counter: ids are unique across every engine and
/// session in the process, so traces from different sessions can be merged
/// without aliasing.
static NEXT_QUERY_ID: AtomicU64 = AtomicU64::new(1);

/// A process-unique query identifier — the key every trace event carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryId(pub u64);

impl QueryId {
    /// Mints a fresh process-unique id.
    pub fn next() -> Self {
        QueryId(NEXT_QUERY_ID.fetch_add(1, Ordering::Relaxed))
    }

    /// The raw id.
    pub fn raw(&self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for QueryId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "q#{}", self.0)
    }
}

/// One structured span in a query's life.  All variants are `Copy` (reject
/// reasons are static strings) so recording never allocates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// The query entered the system as a ticket (`submit`, or the
    /// ticket a one-shot `run` submits).
    Submit,
    /// The query was attributed to a tenant — recorded right after
    /// [`EventKind::Submit`] when the request carried one, so a trace
    /// consumer can group every later event of this query under its
    /// principal.
    Tenant {
        /// The serving layer's interned numeric tenant id.
        tenant: u32,
    },
    /// Admission granted a share of the global budget after
    /// `queue_wait_ns` in the FIFO queue.
    Admit {
        /// Granted budget share in bytes (`usize::MAX` when unbounded).
        share_bytes: usize,
        /// Time spent queued before admission, in nanoseconds.
        queue_wait_ns: u64,
    },
    /// The query was refused (validation, admission or budget failure).
    Reject {
        /// A static label naming the error kind.
        reason: &'static str,
    },
    /// The clustered-join-index cache was consulted for the prepared
    /// prefix.
    CacheLookup {
        /// `true` when the prefix was served from the cache.
        hit: bool,
    },
    /// One streaming chunk was emitted by the pipeline.
    ChunkStep {
        /// Zero-based chunk index within this query.
        chunk: u32,
        /// Result rows in this chunk.
        rows: u32,
        /// Observed wall-clock of the chunk, in nanoseconds.
        observed_ns: u64,
        /// The cost model's per-chunk prediction, in nanoseconds (0 when
        /// no prediction was attached).
        predicted_ns: u64,
        /// The chunk's measured working set, in bytes.
        working_set_bytes: u64,
    },
    /// Simulated cache truth for one streaming chunk, recorded right after
    /// its [`EventKind::ChunkStep`] when the profiled pipeline mode is on:
    /// the chunk's accesses were charged to the cache simulator and
    /// these are the resulting miss counts (deterministic — a pure function
    /// of the access pattern, independent of wall-clock).
    ChunkProfile {
        /// Zero-based chunk index within this query (matches the adjacent
        /// `ChunkStep`).
        chunk: u32,
        /// Memory accesses issued by the profiled chunk's kernels.
        accesses: u64,
        /// Simulated L1 data-cache misses.
        l1_misses: u64,
        /// Simulated L2 cache misses.
        l2_misses: u64,
        /// Simulated TLB misses.
        tlb_misses: u64,
        /// Modeled stall cycles under the profiling cache parameters.
        stall_cycles: u64,
    },
    /// The query's consumed service time passed its deadline: the engine
    /// tore it down at the next chunk boundary (an adjacent
    /// [`EventKind::Cancel`] with reason `"deadline"` records the
    /// teardown itself).
    DeadlineMiss {
        /// The deadline the request carried, in nanoseconds.
        deadline_ns: u64,
        /// Service time consumed when the engine enforced it.
        consumed_ns: u64,
    },
    /// An in-flight (or queued) query was torn down before completion and
    /// its budget grant reclaimed.
    Cancel {
        /// Why: `"user"` (caller cancellation), `"deadline"` (timeout
        /// enforcement) or `"worker_panic"` (a morsel worker crashed while
        /// running one of this query's chunks).
        reason: &'static str,
    },
    /// The query completed and its outcome was parked/returned.
    Done {
        /// Total result rows.
        rows: u64,
        /// Admission-to-completion wall clock, in nanoseconds.
        wall_ns: u64,
    },
}

impl EventKind {
    /// A short static label for the variant (used by the text exporter and
    /// handy for grouping).
    pub fn label(&self) -> &'static str {
        match self {
            EventKind::Submit => "submit",
            EventKind::Tenant { .. } => "tenant",
            EventKind::Admit { .. } => "admit",
            EventKind::Reject { .. } => "reject",
            EventKind::CacheLookup { .. } => "cache_lookup",
            EventKind::ChunkStep { .. } => "chunk_step",
            EventKind::ChunkProfile { .. } => "chunk_profile",
            EventKind::DeadlineMiss { .. } => "deadline_miss",
            EventKind::Cancel { .. } => "cancel",
            EventKind::Done { .. } => "done",
        }
    }
}

/// One recorded event: which query, when (relative to the trace's epoch),
/// and what happened.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Global sequence number (gapless; survives ring overwrites, so
    /// ordering across queries is always reconstructable).
    pub seq: u64,
    /// Nanoseconds since the owning trace was created.
    pub at_ns: u64,
    /// The query this event belongs to.
    pub query: QueryId,
    /// What happened.
    pub kind: EventKind,
}

struct Ring {
    /// Pre-allocated at construction; once `len == capacity`, slot
    /// `seq % capacity` is overwritten in place.
    events: Vec<TraceEvent>,
    next_seq: u64,
}

/// A bounded ring buffer of [`TraceEvent`]s.
pub struct EventTrace {
    capacity: usize,
    ring: Mutex<Ring>,
}

impl std::fmt::Debug for EventTrace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventTrace")
            .field("capacity", &self.capacity)
            .field("recorded", &self.recorded())
            .finish()
    }
}

impl EventTrace {
    /// A trace retaining at most `capacity` events (the storage is
    /// allocated up front; recording never allocates).
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "trace capacity must be at least 1");
        EventTrace {
            capacity,
            ring: Mutex::new(Ring {
                events: Vec::with_capacity(capacity),
                next_seq: 0,
            }),
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records one event for `query` at time-offset `at_ns`, overwriting
    /// the oldest event when full.
    pub fn record(&self, at_ns: u64, query: QueryId, kind: EventKind) {
        let mut ring = self.ring.lock().expect("event trace poisoned");
        let seq = ring.next_seq;
        ring.next_seq += 1;
        let event = TraceEvent {
            seq,
            at_ns,
            query,
            kind,
        };
        if ring.events.len() < self.capacity {
            ring.events.push(event);
        } else {
            let slot = (seq % self.capacity as u64) as usize;
            ring.events[slot] = event;
        }
    }

    /// Events recorded since creation (including any since overwritten).
    pub fn recorded(&self) -> u64 {
        self.ring.lock().expect("event trace poisoned").next_seq
    }

    /// A point-in-time copy of the retained events, oldest first.
    pub fn snapshot(&self) -> TraceSnapshot {
        let ring = self.ring.lock().expect("event trace poisoned");
        let mut events = ring.events.clone();
        events.sort_by_key(|e| e.seq);
        TraceSnapshot {
            dropped: ring.next_seq - events.len() as u64,
            events,
        }
    }
}

/// A frozen, ordered copy of an [`EventTrace`].
#[derive(Debug, Clone, Default)]
pub struct TraceSnapshot {
    /// Retained events, ordered by sequence number (oldest first).
    pub events: Vec<TraceEvent>,
    /// Events recorded but no longer retained (ring overwrites).
    pub dropped: u64,
}

impl TraceSnapshot {
    /// The retained events of one query, in order — a query's replayable
    /// lifecycle.
    pub fn events_for(&self, query: QueryId) -> Vec<TraceEvent> {
        self.events
            .iter()
            .filter(|e| e.query == query)
            .copied()
            .collect()
    }

    /// Distinct query ids present, in first-appearance order.
    pub fn queries(&self) -> Vec<QueryId> {
        let mut seen = Vec::new();
        for e in &self.events {
            if !seen.contains(&e.query) {
                seen.push(e.query);
            }
        }
        seen
    }

    /// A human-readable rendering, one event per line.
    pub fn to_text(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        if self.dropped > 0 {
            let _ = writeln!(out, "({} older events dropped)", self.dropped);
        }
        for e in &self.events {
            let _ = write!(out, "[{:>12.3}ms] {:>6} ", e.at_ns as f64 / 1e6, e.query);
            let _ = match e.kind {
                EventKind::Submit => writeln!(out, "submit"),
                EventKind::Tenant { tenant } => writeln!(out, "tenant  #{tenant}"),
                EventKind::Admit {
                    share_bytes,
                    queue_wait_ns,
                } => writeln!(
                    out,
                    "admit   share={share_bytes}B wait={:.3}ms",
                    queue_wait_ns as f64 / 1e6
                ),
                EventKind::Reject { reason } => writeln!(out, "reject  {reason}"),
                EventKind::CacheLookup { hit } => writeln!(
                    out,
                    "cache   {}",
                    if hit { "hit" } else { "miss" }
                ),
                EventKind::ChunkStep {
                    chunk,
                    rows,
                    observed_ns,
                    predicted_ns,
                    working_set_bytes,
                } => writeln!(
                    out,
                    "chunk   #{chunk} rows={rows} observed={observed_ns}ns predicted={predicted_ns}ns ws={working_set_bytes}B"
                ),
                EventKind::ChunkProfile {
                    chunk,
                    accesses,
                    l1_misses,
                    l2_misses,
                    tlb_misses,
                    stall_cycles,
                } => writeln!(
                    out,
                    "profile #{chunk} accesses={accesses} l1={l1_misses} l2={l2_misses} tlb={tlb_misses} stall={stall_cycles}cy"
                ),
                EventKind::DeadlineMiss {
                    deadline_ns,
                    consumed_ns,
                } => writeln!(
                    out,
                    "miss    deadline={deadline_ns}ns consumed={consumed_ns}ns"
                ),
                EventKind::Cancel { reason } => writeln!(out, "cancel  {reason}"),
                EventKind::Done { rows, wall_ns } => writeln!(
                    out,
                    "done    rows={rows} wall={:.3}ms",
                    wall_ns as f64 / 1e6
                ),
            };
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_ids_are_unique_and_ordered() {
        let a = QueryId::next();
        let b = QueryId::next();
        assert!(b.raw() > a.raw());
        assert_eq!(format!("{a}"), format!("q#{}", a.raw()));
    }

    #[test]
    fn ring_retains_the_newest_events_and_counts_drops() {
        let trace = EventTrace::new(4);
        let q = QueryId::next();
        for i in 0..10u64 {
            trace.record(i, q, EventKind::Submit);
        }
        let snap = trace.snapshot();
        assert_eq!(trace.recorded(), 10);
        assert_eq!(snap.events.len(), 4);
        assert_eq!(snap.dropped, 6);
        // The newest four, in order.
        let seqs: Vec<u64> = snap.events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
        assert_eq!(snap.events[0].at_ns, 6);
    }

    #[test]
    fn events_for_replays_one_query_in_order() {
        let trace = EventTrace::new(64);
        let (a, b) = (QueryId::next(), QueryId::next());
        trace.record(0, a, EventKind::Submit);
        trace.record(
            1,
            b,
            EventKind::Reject {
                reason: "unknown_relation",
            },
        );
        trace.record(
            2,
            a,
            EventKind::Admit {
                share_bytes: 1024,
                queue_wait_ns: 500,
            },
        );
        trace.record(3, a, EventKind::CacheLookup { hit: false });
        trace.record(
            4,
            a,
            EventKind::ChunkStep {
                chunk: 0,
                rows: 128,
                observed_ns: 9000,
                predicted_ns: 8000,
                working_set_bytes: 2048,
            },
        );
        trace.record(
            5,
            a,
            EventKind::ChunkProfile {
                chunk: 0,
                accesses: 4096,
                l1_misses: 300,
                l2_misses: 40,
                tlb_misses: 12,
                stall_cycles: 9500,
            },
        );
        trace.record(
            6,
            a,
            EventKind::Done {
                rows: 128,
                wall_ns: 12_000,
            },
        );
        let snap = trace.snapshot();
        assert_eq!(snap.queries(), vec![a, b]);
        let life: Vec<&'static str> = snap.events_for(a).iter().map(|e| e.kind.label()).collect();
        assert_eq!(
            life,
            vec![
                "submit",
                "admit",
                "cache_lookup",
                "chunk_step",
                "chunk_profile",
                "done"
            ]
        );
        assert_eq!(snap.events_for(b).len(), 1);

        let text = snap.to_text();
        assert!(text.contains("submit"));
        assert!(text.contains("share=1024B"));
        assert!(text.contains("reject  unknown_relation"));
        assert!(text.contains("chunk   #0 rows=128"));
        assert!(text.contains("profile #0 accesses=4096 l1=300 l2=40 tlb=12 stall=9500cy"));
    }

    #[test]
    fn robustness_events_label_and_export() {
        let trace = EventTrace::new(16);
        let q = QueryId::next();
        trace.record(
            0,
            q,
            EventKind::DeadlineMiss {
                deadline_ns: 1_000,
                consumed_ns: 2_500,
            },
        );
        trace.record(1, q, EventKind::Cancel { reason: "deadline" });
        trace.record(2, q, EventKind::Cancel { reason: "user" });
        trace.record(
            3,
            q,
            EventKind::Cancel {
                reason: "worker_panic",
            },
        );
        let snap = trace.snapshot();
        let labels: Vec<&'static str> = snap.events_for(q).iter().map(|e| e.kind.label()).collect();
        assert_eq!(labels, vec!["deadline_miss", "cancel", "cancel", "cancel"]);
        let text = snap.to_text();
        assert!(text.contains("miss    deadline=1000ns consumed=2500ns"));
        assert!(text.contains("cancel  user"));
        assert!(text.contains("cancel  worker_panic"));
    }
}
