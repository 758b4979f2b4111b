//! Structure gates, run by tier-1 and offline with
//! `cargo test --test structure`: the rules that hold the stack to one copy
//! of each part of the paper's algorithm.  Four tables:
//!
//! - [`GATES`]: what a set of files may not hold;
//! - [`COLUMN_CHUNK_BODY`]: exact counts inside named function bodies;
//! - [`LADDER`]: the library lines of core + exec + serve, at most
//!   [`LADDER_GATE`];
//! - [`NAMED`]: the tests the gates' acceptance suites name, which must
//!   still be defined where they are named.
//!
//! A file's library lines are every line above its first `#[cfg(test)]`,
//! the whole file when it has none ([`Cut::Library`]).  This is the one
//! definition of that cut: the ladder, and the library-line counts ROADMAP
//! and CHANGES report, read it.

use std::fs;
use std::ops::Range;
use std::path::Path;

/// Which lines of a file a gate reads.
#[derive(Clone, Copy)]
enum Cut {
    /// Every line.
    Whole,
    /// The lines above the first `#[cfg(test)]`.
    Library,
    /// The lines of a manifest's `[dependencies]` table.
    Dependencies,
}

impl Cut {
    fn span(self, lines: &[&str]) -> Range<usize> {
        match self {
            Cut::Whole => 0..lines.len(),
            Cut::Library => {
                0..lines
                    .iter()
                    .position(|line| line.contains("#[cfg(test)]"))
                    .unwrap_or(lines.len())
            }
            Cut::Dependencies => {
                let start = lines
                    .iter()
                    .position(|line| *line == "[dependencies]")
                    .map_or(lines.len(), |at| at + 1);
                let end = lines[start..]
                    .iter()
                    .position(|line| line.starts_with('['))
                    .map_or(lines.len(), |n| start + n);
                start..end
            }
        }
    }
}

/// What a gate looks for: literal tokens, or a named predicate for a shape
/// no literal spells.  A token string is one or more literals separated by
/// `|`, as in the regexes it replaces; a literal's leading or trailing `\b`
/// asks for a word boundary there.  A predicate reads the cut's lines from
/// the one it judges on, so it can look ahead.
#[derive(Clone, Copy)]
enum Needle {
    Token(&'static str),
    Shape(&'static str, fn(&[&str]) -> bool),
}

use Needle::{Shape, Token};

impl Needle {
    fn name(self) -> &'static str {
        match self {
            Token(tokens) => tokens,
            Shape(name, _) => name,
        }
    }

    fn found_in(self, lines: &[&str]) -> bool {
        match self {
            Token(tokens) => tokens.split('|').any(|token| holds_token(lines[0], token)),
            Shape(_, matches) => matches(lines),
        }
    }
}

/// One gate: in the `cut` of every file of `scope` outside `skip`, except
/// the files `allowed` names, none of `needles` may appear.  A scope entry
/// is a file, or a directory whose `.rs` files are read recursively;
/// `crates/*/src` is every crate's `src`.  `skip` holds path prefixes and
/// `allowed` whole paths, both relative to the root.
/// Every scope entry must hold a file, and when the gate allows some files
/// each needle must appear in one of them, so a moved or renamed directory
/// cannot pass the gate by reading nothing.
struct Gate {
    name: &'static str,
    scope: &'static [&'static str],
    skip: &'static [&'static str],
    cut: Cut,
    needles: &'static [Needle],
    allowed: &'static [&'static str],
    message: &'static str,
}

/// The fields most gates share: the library lines of every file in scope.
const LIBRARY: Gate = Gate {
    name: "",
    scope: &[],
    skip: &[],
    cut: Cut::Library,
    needles: &[],
    allowed: &[],
    message: "",
};
const CODE: &[&str] = &["crates/*/src", "src"];
const CODE_AND_EXAMPLES: &[&str] = &["crates/*/src", "src", "examples"];
const UNREACHABLE: &str =
    "deleted unreachable code is back — reproduce through the paths the figures run instead";
const PRICE: &str = "a second price of a plan — price it with planner::predict_cost instead";
const BASELINE: &str = "a baseline is back in the served library — keep it in rdx_bench::paper";

const GATES: &[Gate] = &[
    Gate {
        name: "No stray prints in library crates",
        scope: &["crates/*/src", "src/lib.rs"],
        skip: &["crates/bench/src/bin/"],
        cut: Cut::Whole,
        needles: &[Shape("println!( off a comment", prints_off_a_comment)],
        message: "stray println!/eprintln! in library code — record through rdx-obs instead",
        ..LIBRARY
    },
    // A poisoned lock is already a propagating panic.
    Gate {
        name: "No new unwrap/expect in serve/exec library code",
        scope: &["crates/serve/src", "crates/exec/src"],
        needles: &[Shape(".unwrap( / .expect(", unwraps_off_docs_and_poisoning)],
        message: "new unwrap/expect in serve/exec library code — return a typed RdxError instead",
        ..LIBRARY
    },
    Gate {
        name: "One materialise entry",
        scope: CODE_AND_EXAMPLES,
        cut: Cut::Whole,
        needles: &[Token(
            "par_dsm_post_projection|par_nsm_post_projection_decluster|execute_materialized|\
             execute_nsm|fn try_execute|try_dsm_|try_nsm_",
        )],
        message: "a second materialise route — call ProjectionPipeline::materialize or the one fallible strategy entry instead",
        ..LIBRARY
    },
    Gate {
        name: "One chunk loop",
        scope: CODE_AND_EXAMPLES,
        cut: Cut::Whole,
        needles: &[Token(
            r"local_oids|local_positions|rebased_positions|expand_into|\bChunkCursors\b",
        )],
        message: "a chunk-local index copy — read the prefix in place through the chunk runs instead",
        ..LIBRARY
    },
    Gate {
        name: "One kernel source",
        scope: CODE_AND_EXAMPLES,
        cut: Cut::Whole,
        needles: &[Token(r"_traced\b|mod traced|pub mod trace;|replay_chunk")],
        message: "a traced kernel twin — run the shipped kernel under a SimProbe instead",
        ..LIBRARY
    },
    Gate {
        name: "One scatter",
        scope: CODE_AND_EXAMPLES,
        cut: Cut::Whole,
        needles: &[Token(
            "ScatterMode|SWWC|scatter_buffered|radix_cluster_buffered|buffered_cursor_budget|\
             plan_cluster_passes",
        )],
        message: "a second scatter mode — split the fan-out into more plain passes instead",
        ..LIBRARY
    },
    // The `\b`s spare the kept parallel `par_radix_decluster_into`.
    Gate {
        name: "One cluster entry",
        scope: CODE_AND_EXAMPLES,
        cut: Cut::Whole,
        needles: &[
            Token(r"ScratchClustered|_in_scratch\b|ParClusterScratch|radix_cluster_with_scratch"),
            Token(r"radix_cluster_oids_with_scratch|par_radix_sort_oids|\bradix_decluster_into"),
            Token(r"\bpar_radix_decluster("),
        ],
        message: "a second cluster entry — fill a Clustered with ClusterScratch::cluster_into instead",
        ..LIBRARY
    },
    // The tokens spare the pipeline's private `fn stream(` test helper and
    // `rdx_obs::Profile::resolve`.
    Gate {
        name: "One query lifecycle",
        scope: CODE_AND_EXAMPLES,
        cut: Cut::Whole,
        needles: &[Token(r"resolve_direct|ResolvedQuery|pub fn residual\b|pub fn stream\b")],
        message: "a second query lifecycle — submit a ticket and drive it instead",
        ..LIBRARY
    },
    Gate {
        name: "One Done layout",
        scope: &["crates/net/src"],
        needles: &[
            Shape("for … in, then to_le_bytes", loops_over_le_bytes),
            Shape("map(…to_le_bytes", maps_to_le_bytes),
            Token("i32::from_le_bytes"),
        ],
        message: "a second Done column codec — go through rdx_core::strategy::sink::{put_column, read_column} instead",
        ..LIBRARY
    },
    Gate {
        name: "One emit path",
        scope: &["crates/core/src", "crates/exec/src", "crates/serve/src"],
        needles: &[Token("&mut [Vec<i32>]|fn as_dyn")],
        message: "a second emit path — write into the cells RowChunkSink::column lends instead",
        ..LIBRARY
    },
    Gate {
        name: "Nothing unreachable",
        scope: CODE,
        needles: &[Token(
            "dsm_post_projection_with_strings|dsm_post_projection_sparse|radix_decluster_varsize|\
             PagedSink|FairnessPolicy|SelectionMismatch|MIN_STRIDE|MAX_STRIDE|struct Turn|\
             BoxedSource|over_dsm_arc|gather_packed_into|fn fetch_chunk|fn fetch_columns|\
             enum ChunkOrder|fn gather_offsets_into_probed|fn for_each_run|fn default_jive_bits|\
             fn default_join_bits|fn naive_join_len|fn measure_ms_samples|MorselQueue|\
             for_each_output_morsel|split_by_bounds|fn worker_threads|fn morsel_tuples",
        )],
        message: UNREACHABLE,
        ..LIBRARY
    },
    // Only there, so rdx-bench's own `to_json` stays.
    Gate {
        name: "Nothing unreachable in rdx-obs and rdx-dsm",
        scope: &["crates/obs/src", "crates/dsm/src"],
        needles: &[Token(
            "fn to_json|fn sort_by_larger|fn sort_by_smaller|fn into_columns|fn as_mut_slice",
        )],
        message: UNREACHABLE,
        ..LIBRARY
    },
    Gate {
        name: "Nothing unreachable in the engine",
        scope: &["crates/serve/src/engine.rs"],
        needles: &[Token("chunk_started")],
        message: UNREACHABLE,
        ..LIBRARY
    },
    Gate {
        name: "Nothing unreachable in the pipeline",
        scope: &["crates/exec/src/pipeline.rs"],
        needles: &[Token("chunk_start")],
        message: UNREACHABLE,
        ..LIBRARY
    },
    Gate {
        name: "One ticket observer",
        scope: CODE_AND_EXAMPLES,
        needles: &[Token(
            "TicketStatus|take_outcome|QueryOutcome|QueryPoll|ChunkProgress|fn status(",
        )],
        message: "a second way to observe a ticket — poll it with QueryEngine::poll instead",
        ..LIBRARY
    },
    // The facade's prelude keeps one alias and one trait for the frozen
    // `benchmark/` package, and `tests/benchmark_shapes.rs` pins them;
    // nothing else may wrap the engine again or call through the shim.
    Gate {
        name: "One front door",
        scope: &["crates/*/src", "src", "examples", "tests"],
        skip: &["src/lib.rs", "tests/benchmark_shapes.rs", "tests/structure.rs"],
        needles: &[Token("rdx_api|rdx-api|Session|SessionShim")],
        message: "a second front door — build requests with QueryEngine::query and serve with NetServer::new instead",
        ..LIBRARY
    },
    Gate {
        name: "One ticket table",
        scope: &["crates/serve/src/engine.rs"],
        needles: &[Token(
            "struct Pending|struct RetryParked|retry_parked|NEXT_TICKET|finished: HashMap",
        )],
        message: "a second ticket container or counter — give the ticket a State arm in the one table; its number is its query id",
        ..LIBRARY
    },
    Gate {
        name: "One admission decision",
        scope: &["crates/serve/src/engine.rs", "crates/serve/src/tenant.rs"],
        needles: &[Token("check_admit|remaining_bytes|admission::decide")],
        message: "a second admission decision — ask admission::admit once per queue head; it checks the tenant caps, splits the budget and tightens the grant",
        ..LIBRARY
    },
    Gate {
        name: "One request builder",
        scope: &["crates/serve/src/request.rs"],
        needles: &[Token("fn with_")],
        message: "a second request builder — set the field through Query, or fill the ServerRequest literal",
        ..LIBRARY
    },
    Gate {
        name: "One ledger",
        scope: CODE,
        needles: &[Token(
            "ChunkScheduler|AdmissionController|release_tenant|tenants.charge|tenants.release|\
             fn charges",
        )],
        message: "a second count of what is in flight — read it off the running set instead",
        ..LIBRARY
    },
    Gate {
        name: "One price",
        scope: CODE,
        needles: &[Token(
            "predict_projection_cost|predict_streaming_cost|concurrent_streaming_radix_decluster|\
             cluster_cost_millis|fn predicted_chunk_ns|fn predicted_total_ns|pub steps_per_cycle",
        )],
        message: PRICE,
        ..LIBRARY
    },
    Gate {
        name: "One price in rdx-exec",
        scope: &["crates/exec/src"],
        needles: &[Token("predict_cost|rdx_cost")],
        message: PRICE,
        ..LIBRARY
    },
    Gate {
        name: "One algorithm served",
        scope: &[
            "crates/core/src",
            "crates/exec/src",
            "crates/serve/src",
            "crates/net/src",
        ],
        needles: &[
            Token("rdx_nsm|NsmRelation|jive|dsm_pre|nsm_pre|nsm_post|decluster::paged"),
            Token(r"radix_decluster_paged|radix_sort_oids|fn radix_sort_spec\b|ObsConfig"),
        ],
        message: BASELINE,
        ..LIBRARY
    },
    Gate {
        name: "One algorithm served, by dependency",
        scope: &[
            "crates/core/Cargo.toml",
            "crates/exec/Cargo.toml",
            "crates/serve/Cargo.toml",
            "crates/net/Cargo.toml",
        ],
        cut: Cut::Dependencies,
        needles: &[Token("rdx-nsm")],
        message: BASELINE,
        ..LIBRARY
    },
    Gate {
        name: "One spawn site in rdx-exec",
        scope: &["crates/exec/src"],
        needles: &[Token("thread::scope"), Token(".spawn(")],
        allowed: &["crates/exec/src/pool.rs"],
        message: "a second spawn site: run the work through pool::run_workers and pool::Claims",
        ..LIBRARY
    },
    // Every count the serving stack keeps lives in the rdx-obs registry
    // and is bumped through its `Counter` handle; the `*Stats` structs are
    // reads of it, so a `stats.<field> +=` is a second copy of a count.
    Gate {
        name: "One increment site per count in serve/net library code",
        scope: &["crates/serve/src", "crates/net/src"],
        needles: &[Shape("stats.<field> +=", bumps_a_stats_field)],
        message: "a count kept outside the registry — bump its rdx-obs Counter instead",
        ..LIBRARY
    },
    // Both ends of the wire read frames through client.rs' `FrameReader`:
    // its `decode` is the one caller of the codec's decoder.
    Gate {
        name: "One frame reader",
        scope: &["crates/net/src"],
        needles: &[Token("decode_frame(")],
        allowed: &["crates/net/src/wire.rs", "crates/net/src/client.rs"],
        message: "a second frame decode loop — read frames through FrameReader's decode and fill instead",
        ..LIBRARY
    },
    // Every planned Radix-Cluster pass is sized by `cluster::pass_fanout`
    // and split by `RadixClusterSpec::planned`, the one caller of the
    // splitter: no fan-out constant, no second pass rule.
    Gate {
        name: "One pass rule",
        scope: CODE,
        needles: &[Token(
            "TLB_BOUNDED_FANOUT|DEFAULT_SCATTER_CURSOR_BUDGET|scatter_cursor_budget|bits > 11",
        )],
        message: "a second pass rule — plan passes with RadixClusterSpec::planned instead",
        ..LIBRARY
    },
    Gate {
        name: "One pass rule, one splitter",
        scope: CODE,
        needles: &[Token("passes_for_budget(")],
        allowed: &["crates/core/src/cluster/mod.rs", "crates/core/src/cluster/spec.rs"],
        message: "a pass count split outside the pass rule — call RadixClusterSpec::planned instead",
        ..LIBRARY
    },
    // `RadixClusterSpec::pass_bits` is the one split of B bits into passes:
    // the kernels, the pre-projection baselines' wide-tuple scatter and the
    // cost model's prices all read it, and `join::join_passes` names the
    // join's first pass and split for both join kernels and the price.
    Gate {
        name: "One bit split",
        scope: CODE,
        cut: Cut::Whole,
        needles: &[Token(
            "bits % passes|bits / passes|JOIN_FIRST_PASS_BITS|join_first_pass|WideBuffer",
        )],
        allowed: &["crates/core/src/cluster/spec.rs"],
        message: "a second split of bits into passes — read RadixClusterSpec::pass_bits, or join::join_passes for the join",
        ..LIBRARY
    },
];

/// One exact count: the library lines of `scope` that hold `needle` or,
/// when `body` names the start of a function, the lines of that function's
/// body there (its first line holding `body` through the next line that is
/// `    }`).
struct Tally {
    what: &'static str,
    scope: &'static str,
    body: Option<&'static str>,
    needle: Needle,
    want: usize,
}

const PIPELINE: &str = "crates/exec/src/pipeline.rs";

/// A column chunk does each thing once: rdx-dsm keeps one probed gather
/// loop for plain oids and packed offsets alike, `fetch_column` fetches
/// every side stored in result order by one arm, and `PipelineRun::step`
/// reads the one clock around the fetch and emit that feeds the side's
/// PhaseTimings, the observer and the profile.
const COLUMN_CHUNK_BODY: &[Tally] = &[
    Tally {
        what: "probed gather functions in rdx-dsm",
        scope: "crates/dsm/src",
        body: None,
        needle: Shape("fn <name>_probed", defines_a_probed_fn),
        want: 1,
    },
    Tally {
        what: "value reads reported in rdx-dsm",
        scope: "crates/dsm/src",
        body: None,
        needle: Token("probe.read(1,"),
        want: 1,
    },
    Tally {
        what: "in-order arms in fetch_column",
        scope: PIPELINE,
        body: Some("fn fetch_column<"),
        needle: Token("SideOids::InOrder("),
        want: 1,
    },
    Tally {
        what: "unreachable! in fetch_column",
        scope: PIPELINE,
        body: Some("fn fetch_column<"),
        needle: Token("unreachable!"),
        want: 0,
    },
    Tally {
        what: "clock reads in PipelineRun::step",
        scope: PIPELINE,
        body: Some("pub fn step<"),
        needle: Token("Instant::now()"),
        want: 1,
    },
    Tally {
        what: "clock reads in fetch_column",
        scope: PIPELINE,
        body: Some("fn fetch_column<"),
        needle: Token("Instant::now()"),
        want: 0,
    },
    Tally {
        what: "clock reads in QueryEngine::advance",
        scope: "crates/serve/src/engine.rs",
        body: Some("fn advance("),
        needle: Token("Instant::now()"),
        want: 0,
    },
];

/// ROADMAP aim 2's one-path ladder: the crates it counts and its gate.
const LADDER: &[&str] = &["core", "exec", "serve"];
const LADDER_GATE: usize = 8_400;

/// The tests the gates' acceptance suites name, by where they are named: a
/// crate (its `src` and `tests`) or one integration test file.  Each place
/// must define a test, each exact name must be a test function there, and
/// each filter must be a substring of some test's `<module path>::<fn>`
/// there.  `cargo test <filter>` passes when the filter matches nothing, so
/// this row is what fails when a named test is renamed or a suite is gone.
const NAMED: &[(&str, &[&str], &[&str])] = &[
    // Fault conformance and the engine against its reference model.
    ("tests/fault_conformance.rs", &[], &[]),
    ("tests/engine_model.rs", &[], &[]),
    // Net conformance, the wire result and the payload cap.
    (
        "tests/net_conformance.rs",
        &[
            "a_hostile_thread_count_is_served_and_the_server_serves_on",
            "an_oversized_result_is_refused_before_it_runs_and_the_connection_serves_on",
        ],
        &[],
    ),
    (
        "crates/net",
        &[
            "a_submit_is_answered_in_the_cycle_that_decoded_it",
            "a_busy_server_polls_its_listener_at_most_once_per_idle_sleep",
            "a_client_connecting_to_a_busy_server_is_answered_within_an_idle_sleep_and_a_cycle",
            "frames_split_at_every_byte_offset_decode",
            "a_reply_past_the_quiet_window_is_taken_by_one_blocking_read",
            "a_late_reply_arrives_over_loopback_and_the_client_serves_on",
            "a_frame_ticket_is_byte_identical_to_encode_frame",
        ],
        &[],
    ),
    // The hash join.
    ("tests/join_golden.rs", &[], &[]),
    (
        "tests/proptests.rs",
        &["partitioned_join_is_the_same_sequential_parallel_and_naive"],
        &[],
    ),
    // The kernel loop, the result hand-off, the packed prefix and the one
    // price.
    (
        "crates/core",
        &[
            "materialize_sink_takes_each_column_through_its_chunks_in_turn",
            "materialize_sink_rejects_a_column_chunk_out_of_order",
            "frame_sink_writes_each_chunk_at_its_fixed_offset",
            "packed_positions_round_trip_around_the_block_boundaries",
            "a_cluster_with_an_empty_block_starts_its_next_block_where_it_ends",
            "positions_that_do_not_ascend_in_their_cluster_are_refused",
            "a_large_share_spec_ignores_at_most_16_bits_and_packs",
        ],
        &["join", "decluster", "sink", "packed", "planner"],
    ),
    (
        "crates/exec",
        &[
            "the_sink_sees_each_column_through_all_of_its_chunks_and_the_bytes_never_move",
            "a_multi_chunk_run_hands_back_the_one_chunk_scratch_per_row",
            "the_chunk_steps_observe_exactly_the_run_timings",
            "packed_positions_decluster_like_wide_ones_around_the_blocks",
            "packed_prefix_of_every_declustering_benchmark_shape_is_at_most_6_25_bytes_per_row",
            "prefix_charges_only_what_the_chunk_loop_reads",
        ],
        &["join", "decluster", "pipeline", "packed_prefix"],
    ),
    (
        "crates/dsm",
        &[
            "gather_offsets_into_matches_gather_on_either_side_of_the_seqbase",
            "probed_gather_matches_and_shows_the_fig9c_contrast",
        ],
        &["gather_offsets_into"],
    ),
    (
        "tests/alloc_regression.rs",
        &[
            "a_warm_multi_chunk_wire_query_allocates_its_frame_once",
            "engine_step_allocates_nothing_mid_ticket",
        ],
        &[],
    ),
    (
        "tests/obs_conformance.rs",
        &["a_whole_result_profiled_chunk_replays_the_same_counts"],
        &[],
    ),
    (
        "crates/cost-model",
        &["concurrent_share_raises_predicted_cost_monotonically"],
        &[],
    ),
    // The prefix cache, the one price, remaining-work-first dispatch and
    // the one ticket observer.
    (
        "crates/serve",
        &[
            "the_work_left_key_falls_by_one_step_price_per_step_and_ends_at_zero",
            "a_long_run_behind_endless_one_chunk_queries_waits_at_most_the_starvation_bound",
            "equal_queries_finish_first_come_first_served",
            "tight_deadlines_outrun_loose_ones_under_contention",
            "a_deadline_is_charged_the_observed_chunk_steps_and_the_injected_slowdowns",
            "each_outcome_is_delivered_to_exactly_one_poll",
        ],
        &["cache", "priced", "scheduler::tests"],
    ),
];

fn is_word(c: Option<char>) -> bool {
    c.is_some_and(|c| c.is_alphanumeric() || c == '_')
}

/// Whether `line` holds `token`, a literal whose leading or trailing `\b`
/// asks for a word boundary there, as in a regex.
fn holds_token(line: &str, token: &str) -> bool {
    let (head, token) = match token.strip_prefix(r"\b") {
        Some(rest) => (true, rest),
        None => (false, token),
    };
    let (tail, token) = match token.strip_suffix(r"\b") {
        Some(rest) => (true, rest),
        None => (false, token),
    };
    if !line.contains(token) {
        return false;
    }
    line.char_indices().any(|(at, _)| {
        line[at..].starts_with(token)
            && (!head || is_word(line[..at].chars().next_back()) != is_word(token.chars().next()))
            && (!tail
                || is_word(line[at + token.len()..].chars().next())
                    != is_word(token.chars().next_back()))
    })
}

/// `println!(` or `eprintln!(` on a line that is not a comment.
fn prints_off_a_comment(lines: &[&str]) -> bool {
    lines[0].contains("println!(") && !lines[0].trim_start().starts_with("//")
}

/// `.unwrap(` or `.expect(` on a line that is neither a doc line (`///`)
/// nor about a poisoned lock.
fn unwraps_off_docs_and_poisoning(lines: &[&str]) -> bool {
    let line = lines[0];
    (line.contains(".unwrap(") || line.contains(".expect("))
        && !line.trim_start().starts_with("///")
        && !line.contains("poisoned")
}

/// `fn `, a name of lower-case letters and underscores, and `_probed`
/// closing it: the regex `fn [a-z_]+_probed`.
fn defines_a_probed_fn(lines: &[&str]) -> bool {
    lines[0].match_indices("fn ").any(|(at, prefix)| {
        let rest = &lines[0][at + prefix.len()..];
        let name = rest
            .bytes()
            .take_while(|b| b.is_ascii_lowercase() || *b == b'_')
            .count();
        name > 1 && rest[1..name].contains("_probed")
    })
}

/// A `for <pattern> in` line with `to_le_bytes` on it or on one of the next
/// three lines: a loop encoding values one at a time.
fn loops_over_le_bytes(lines: &[&str]) -> bool {
    let opens_a_loop = lines[0]
        .trim_start()
        .strip_prefix("for ")
        .and_then(|rest| rest.char_indices().nth(1).map(|(at, _)| &rest[at..]))
        .is_some_and(|rest| rest.contains(" in "));
    opens_a_loop
        && lines
            .iter()
            .take(4)
            .any(|line| line.contains("to_le_bytes"))
}

/// `map(` with `to_le_bytes` after it: an iterator encoding values one at a
/// time.
fn maps_to_le_bytes(lines: &[&str]) -> bool {
    lines[0]
        .find("map(")
        .is_some_and(|at| lines[0][at..].contains("to_le_bytes"))
}

/// Whether `line` adds to a field of something named `stats`: `stats.`,
/// a field of lower-case letters and underscores, then ` +=`.
fn bumps_a_stats_field(lines: &[&str]) -> bool {
    let line = lines[0];
    line.match_indices("stats.").any(|(at, prefix)| {
        let rest = &line[at + prefix.len()..];
        let field = rest
            .bytes()
            .take_while(|b| b.is_ascii_lowercase() || *b == b'_')
            .count();
        field > 0 && rest[field..].starts_with(" +=")
    })
}

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// The files of one scope entry, relative to the root and sorted: the file
/// itself, or the `.rs` files under a directory, recursively;
/// `<parent>/*/<child>` is each `<parent>/<dir>/<child>` that exists.
fn sources(scope: &str) -> Vec<String> {
    fn walk(rel: String, found: &mut Vec<String>) {
        let path = root().join(&rel);
        if path.is_file() {
            found.push(rel);
        } else if let Ok(entries) = fs::read_dir(&path) {
            let mut names: Vec<_> = entries
                .map(|entry| entry.expect("a directory entry").file_name())
                .collect();
            names.sort();
            for name in names {
                let child = format!("{rel}/{}", name.to_string_lossy());
                if root().join(&child).is_dir() || child.ends_with(".rs") {
                    walk(child, found);
                }
            }
        }
    }
    let mut found = Vec::new();
    match scope.split_once("/*/") {
        Some((parent, child)) => {
            let mut dirs: Vec<_> = fs::read_dir(root().join(parent))
                .unwrap_or_else(|e| panic!("cannot read {parent}: {e}"))
                .map(|entry| entry.expect("a directory entry").file_name())
                .collect();
            dirs.sort();
            for dir in dirs {
                walk(
                    format!("{parent}/{}/{child}", dir.to_string_lossy()),
                    &mut found,
                );
            }
        }
        None => walk(scope.to_string(), &mut found),
    }
    found
}

fn read(rel: &str) -> String {
    fs::read_to_string(root().join(rel)).unwrap_or_else(|e| panic!("cannot read {rel}: {e}"))
}

/// The number of library lines in `text`.
fn library_lines(text: &str) -> usize {
    let lines: Vec<&str> = text.lines().collect();
    Cut::Library.span(&lines).len()
}

#[test]
fn every_structure_gate_holds() {
    let mut failures = Vec::new();
    for gate in GATES {
        // A literal that can never match (a raw string's `\` line break, a
        // stray space) would pass every tree.
        for needle in gate.needles {
            let Token(tokens) = needle else { continue };
            for token in tokens.split('|') {
                let bare = token.trim_start_matches(r"\b").trim_end_matches(r"\b");
                let clean = !bare.is_empty() && bare.trim() == bare && !bare.contains('\\');
                assert!(clean, "{}: malformed token `{token}`", gate.name);
            }
        }
        let mut found = Vec::new();
        let mut seen = vec![false; gate.needles.len()];
        for scope in gate.scope {
            let files = sources(scope);
            if files.is_empty() {
                found.push(format!("{scope} holds no source file"));
            }
            for rel in files
                .iter()
                .filter(|rel| !gate.skip.iter().any(|skip| rel.starts_with(skip)))
            {
                let allowed = gate.allowed.contains(&rel.as_str());
                let text = read(rel);
                let lines: Vec<&str> = text.lines().collect();
                let span = gate.cut.span(&lines);
                for at in span.clone() {
                    for (n, needle) in gate.needles.iter().enumerate() {
                        if !needle.found_in(&lines[at..span.end]) {
                            continue;
                        }
                        seen[n] |= allowed;
                        if !allowed {
                            found.push(format!("{rel}:{}: {}", at + 1, lines[at]));
                        }
                    }
                }
            }
        }
        if !gate.allowed.is_empty() {
            for (needle, seen) in gate.needles.iter().zip(seen) {
                if !seen {
                    found.push(format!("`{}` is in no allowed file", needle.name()));
                }
            }
        }
        if !found.is_empty() {
            found.push(gate.message.to_string());
            failures.extend(found.iter().map(|f| format!("{}: {f}", gate.name)));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn the_column_chunk_body_does_each_thing_once() {
    let mut failures = Vec::new();
    for tally in COLUMN_CHUNK_BODY {
        let files = sources(tally.scope);
        if files.is_empty() {
            failures.push(format!(
                "{}: {} holds no source file",
                tally.what, tally.scope
            ));
        }
        let mut count = 0;
        let mut bodies = 0;
        for rel in &files {
            let text = read(rel);
            let lines: Vec<&str> = text.lines().collect();
            let mut span = Cut::Library.span(&lines);
            if let Some(start) = tally.body {
                let Some(first) = span.clone().find(|&at| lines[at].contains(start)) else {
                    continue;
                };
                let last = (first..span.end).find(|&at| lines[at] == "    }");
                span = first..last.map_or(span.end, |at| at + 1);
                bodies += 1;
            }
            count += span
                .clone()
                .filter(|&at| tally.needle.found_in(&lines[at..span.end]))
                .count();
        }
        if let Some(start) = tally.body.filter(|_| bodies == 0) {
            failures.push(format!(
                "{}: no body of `{start}` in {}",
                tally.what, tally.scope
            ));
        } else if count != tally.want {
            failures.push(format!(
                "{}: found {count}, want {}",
                tally.what, tally.want
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "{}\na column chunk does a thing twice — one gather loop, one plain-fetch arm, one clock",
        failures.join("\n")
    );
}

#[test]
fn the_library_line_ladder_holds() {
    let mut report = String::new();
    let mut total = 0;
    for krate in LADDER {
        let files = sources(&format!("crates/{krate}/src"));
        assert!(!files.is_empty(), "crates/{krate}/src holds no source file");
        let lines: usize = files.iter().map(|rel| library_lines(&read(rel))).sum();
        report += &format!("{krate}: {lines}, ");
        total += lines;
    }
    let report = format!("{report}core + exec + serve: {total}");
    println!("{report}");
    assert!(
        total <= LADDER_GATE,
        "{report}\ncore + exec + serve is above the 8 400-line ladder gate"
    );
}

/// Every test `#[test]` marks in `text`, as `<module>::<inline mods>::<fn>`.
fn tests_in(text: &str, module: &str) -> Vec<String> {
    let mut mods: Vec<(usize, &str)> = Vec::new();
    let mut marked = false;
    let mut tests = Vec::new();
    for line in text.lines() {
        let body = line.trim_start();
        let indent = line.len() - body.len();
        if mods
            .last()
            .is_some_and(|&(at, _)| indent == at && body == "}")
        {
            mods.pop();
        }
        let declared = body.strip_prefix("pub ").unwrap_or(body);
        if let Some(name) = declared
            .strip_prefix("mod ")
            .and_then(|rest| rest.strip_suffix(" {"))
        {
            mods.push((indent, name));
        }
        if body == "#[test]" {
            marked = true;
        } else if marked && !body.starts_with("#[") && !body.starts_with("//") {
            marked = false;
            if let Some(rest) = body
                .strip_prefix("pub ")
                .unwrap_or(body)
                .strip_prefix("fn ")
            {
                let name = rest.split(['(', '<']).next().unwrap_or(rest);
                let path = std::iter::once(module)
                    .chain(mods.iter().map(|&(_, m)| m))
                    .chain(std::iter::once(name))
                    .filter(|part| !part.is_empty());
                tests.push(path.collect::<Vec<_>>().join("::"));
            }
        }
    }
    tests
}

/// The tests defined at a `NAMED` place: an integration test file, or a
/// crate's unit tests (under the module path of their file) and its
/// integration tests.
fn tests_at(place: &str) -> Vec<String> {
    if place.ends_with(".rs") {
        return sources(place)
            .iter()
            .flat_map(|rel| tests_in(&read(rel), ""))
            .collect();
    }
    let src = format!("{place}/src/");
    let mut tests = Vec::new();
    for rel in sources(&format!("{place}/src")) {
        let module = rel[src.len()..].trim_end_matches(".rs");
        let module = module.trim_end_matches("/mod").replace('/', "::");
        let module = if module == "lib" { "" } else { &module };
        tests.extend(tests_in(&read(&rel), module));
    }
    for rel in sources(&format!("{place}/tests")) {
        tests.extend(tests_in(&read(&rel), ""));
    }
    tests
}

#[test]
fn every_test_a_gate_names_is_defined_where_it_is_named() {
    let mut failures = Vec::new();
    for (place, names, filters) in NAMED {
        let tests = tests_at(place);
        if tests.is_empty() {
            failures.push(format!("{place} defines no test"));
        }
        for name in *names {
            let defined = tests
                .iter()
                .any(|test| test.rsplit("::").next() == Some(*name));
            if !defined {
                failures.push(format!("{place} defines no test `{name}`"));
            }
        }
        for filter in *filters {
            if !tests.iter().any(|test| test.contains(filter)) {
                failures.push(format!("no test path in {place} contains `{filter}`"));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "{}\na test a gate names is gone — restore it, or rename it in NAMED as well",
        failures.join("\n")
    );
}

#[test]
fn a_word_boundary_token_matches_like_the_regex() {
    for (line, token, want) in [
        (
            "par_radix_decluster(data, 4)",
            r"\bpar_radix_decluster(",
            true,
        ),
        (
            "par_radix_decluster_into(data, 4)",
            r"\bpar_radix_decluster(",
            false,
        ),
        (
            "x.radix_decluster_into(&mut out)",
            r"\bradix_decluster_into",
            true,
        ),
        (
            "par_radix_decluster_into(&mut out)",
            r"\bradix_decluster_into",
            false,
        ),
        ("let c = ChunkCursors::new();", r"\bChunkCursors\b", true),
        (
            "let c = ChunkCursorsMut::new();",
            r"\bChunkCursors\b",
            false,
        ),
        ("let c = MyChunkCursors::new();", r"\bChunkCursors\b", false),
        ("fn gather_traced(", r"_traced\b", true),
        ("fn gather_traced_twice(", r"_traced\b", false),
        ("pub fn stream(self)", r"pub fn stream\b", true),
        ("pub fn streamed(self)", r"pub fn stream\b", false),
        ("let local_oids = 1;", "local_oids", true),
    ] {
        assert_eq!(holds_token(line, token), want, "{token} in {line}");
    }
}

/// Asserts that `shape` catches each of `caught` and spares each of
/// `spared`, each a text whose lines are the ones the predicate reads.
fn judge(shape: fn(&[&str]) -> bool, caught: &[&str], spared: &[&str]) {
    for (texts, want) in [(caught, true), (spared, false)] {
        for text in texts {
            let lines: Vec<&str> = text.lines().collect();
            assert_eq!(shape(&lines), want, "{text}");
        }
    }
}

#[test]
fn a_print_counts_off_comment_lines_only() {
    judge(
        prints_off_a_comment,
        &[
            "println!(\"{x}\");",
            "    eprintln!(\"warn\");",
            "f(); // println!(x)",
        ],
        &[
            "// println!(\"{x}\");",
            "    /// eprintln!(\"warn\");",
            "print!(\"x\");",
        ],
    );
}

#[test]
fn an_unwrap_counts_off_doc_lines_and_poisoning_only() {
    judge(
        unwraps_off_docs_and_poisoning,
        &[
            "let x = y.unwrap();",
            "    z.expect(\"a value\")",
            "//! y.unwrap();",
            "// y.unwrap()",
        ],
        &[
            "/// let x = y.unwrap();",
            "let g = m.lock().expect(\"lock poisoned\");",
            "let x = y.unwrap_or(0);",
            "expect(\"bare\")",
        ],
    );
}

#[test]
fn a_probed_fn_is_the_regex_shape() {
    judge(
        defines_a_probed_fn,
        &[
            "pub fn gather_into_probed<P: Probe>(",
            "fn a_probed(",
            "fn x_probed_twice(",
        ],
        &[
            "fn _probed(",
            "gather_into_probed(&mut out)",
            "fn Gather_probed(",
            "fn x2_probed(",
        ],
    );
    // One definition counts once, whatever follows it.
    let dsm = [
        "pub fn gather_into_probed<P: Probe>(",
        "    }",
        "fn gather_into(",
    ];
    let defined = (0..dsm.len()).filter(|&at| defines_a_probed_fn(&dsm[at..]));
    assert_eq!(defined.count(), 1);
}

#[test]
fn a_value_loop_is_caught_within_three_lines() {
    judge(
        loops_over_le_bytes,
        &[
            "for v in col {\n    let b = v;\n    out.extend(b.to_le_bytes());",
            "    for (i, v) in col.iter().enumerate() {\n\n\n        w(v.to_le_bytes());",
            "for v in col { out.extend(v.to_le_bytes()); }",
        ],
        &[
            "for v in col {\n\n\n\n    out.extend(v.to_le_bytes());",
            "while let Some(v) = it.next() {\n    out.extend(v.to_le_bytes());",
            "out.extend(v.to_le_bytes());\nfor v in col {",
            "for  in x {\nto_le_bytes",
            "// the for loop in the codec\nto_le_bytes",
        ],
    );
}

#[test]
fn a_mapped_encoding_is_caught() {
    judge(
        maps_to_le_bytes,
        &[
            "col.iter().map(|v| v.to_le_bytes())",
            "col.iter().flat_map(|v| v.to_le_bytes())",
        ],
        &[
            "let b = v.to_le_bytes(); col.map(f)",
            "col.iter().map(|v| v.to_be_bytes())",
        ],
    );
}

#[test]
fn the_stats_increment_shape_is_the_one_the_gate_names() {
    judge(
        bumps_a_stats_field,
        &[
            "self.stats.accepted += 1;",
            "    stats.frames_in += n;",
            "net_stats.idle_sleeps += 1",
        ],
        &[
            "self.counters.accepted.inc();",
            "stats.accepted = 1;",
            "stats.accepted+= 1;",
            "stats. += 1;",
            "stats.Accepted += 1;",
            "let stats = server.stats();",
        ],
    );
}
