#!/usr/bin/env bash
# Tier-1 verification gate plus the transport/fault determinism checks.
#
# Usage: scripts/verify.sh
# Runs from any directory; everything executes at the repository root.

set -euo pipefail
cd "$(dirname "$0")/.."

# Runs exactly the named tests of one test target in release mode and
# fails unless every name ran: libtest exits 0 when a name filter
# matches nothing, so a renamed test would silently drop out of a gate.
# Usage: run_named_tests <cargo test args...> -- [--ignored] <name>...
run_named_tests() {
  local cargo_args=() flags=() names=() out ran
  while [ "$1" != "--" ]; do cargo_args+=("$1"); shift; done
  shift
  for arg in "$@"; do
    case "$arg" in
      --*) flags+=("$arg") ;;
      *) names+=("$arg") ;;
    esac
  done
  if ! out=$(cargo test -q --release "${cargo_args[@]}" -- --exact "${flags[@]}" "${names[@]}" 2>&1); then
    printf '%s\n' "$out"
    return 1
  fi
  printf '%s\n' "$out"
  ran=$(printf '%s\n' "$out" | sed -n 's/^test result: ok\. \([0-9]*\) passed.*/\1/p' \
    | awk '{n += $1} END {print n + 0}')
  if [ "$ran" -ne "${#names[@]}" ]; then
    echo "gate named ${#names[@]} tests but $ran ran: a name matches no test" >&2
    return 1
  fi
}

echo "== tier 1: build =="
cargo build --release

echo "== tier 1: full test suite =="
cargo test -q

echo "== workspace: every crate's tests (release) =="
# Tier 1 runs only the root package. The member crates' suites (serve
# robustness and resilience, core remote lockstep/chaos, bench
# alloc_free, the pinned-digest unit tests) run here.
cargo test -q --release --workspace

echo "== docs: rustdoc without a warning =="
# A broken or private intra-doc link, or text rustdoc reads as an HTML
# tag, fails the gate instead of scrolling past.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "== transport: pinned campaign bytes (clean + faulted) =="
# The serial ping kernel must reproduce, byte for byte, the campaigns the
# removed 4-thread ping pool produced, with and without transport faults
# (NaN gaps compare as bits).
run_named_tests --test determinism -- \
  clean_campaign_matches_pinned_pool_output \
  faulted_campaign_matches_pinned_pool_output

echo "== ping kernels: pinned output =="
# Both pingClient kernels answer with one pass through geo's NearestK,
# which must keep exactly the first 8 of a stable sort by distance, ties
# within the 8 and across the 8th slot included. The Uber kernel must
# reproduce the removed 4-thread ping pool's lossy output and, with and
# without location noise, the wire response's conversion; the taxi
# kernel must reproduce the pings of the sorting kernel it replaced.
# The Uber kernel derives once per tick what every ping shares and once
# per client its origin and, per surge interval, its jitter window: in
# both eras, jitter forced on, across delay windows and interval
# boundaries, it must answer every client and tier as a reference that
# re-derives each of these per ping, and count the same jitter-window
# hits; and a system pinged with client slices that change between
# ticks (shifted, re-keyed, shortened) must answer every slot as
# ping_client does. The taxi kernel renders the available taxis once per
# tick, in fleet order: its visitor must walk exactly the taxis
# visible() lists, in that order.
# The wire response must convert to the same observations after a round
# trip through the binary PING layout the remote client reads, and the
# server's encoder, answering batches straight from the snapshot, must
# decode to exactly what ping_client answers, each car in its table once.
# The remote client decodes each reply straight into its observation
# slots through the one reply walker, with the in-process kernel's block
# writer and displacement formula: every undropped slot must equal the
# reference conversion of the decoded response, float bits included,
# over the remote world shape under drops and delays, with the slot
# buffer reused tick over tick through the fault delivery both Uber
# systems share. Once warm, the in-process ping path, clean and under
# drops and delays, and the taxi ping path must reach windows of ticks
# that allocate nothing: the delivery reuses its payload vectors and the
# late queue its buckets and its drain vector.
run_named_tests -p surgescope-bench --test alloc_free -- \
  tick_hot_path_allocates_zero
run_named_tests -p surgescope-geo --lib -- \
  nearest::tests::ties_rank_in_offer_order \
  nearest::tests::lattice_sweep_matches_stable_sort_with_ties_at_the_cutoff \
  nearest::tests::total_order_key_orders_like_total_cmp \
  nearest::proptests::nearest_k_matches_stable_sort
run_named_tests -p surgescope-api --lib -- \
  service::proptests::scan_tier_matches_stable_sort_and_first_min_scan \
  service::tests::tick_context_matches_inline_reference
run_named_tests -p surgescope-core --lib -- \
  systems::tests::lossy_ping_all_matches_pinned_pool_output \
  systems::tests::taxi_ping_all_matches_pinned_sort_output \
  systems::tests::changing_client_sets_match_ping_client \
  remote::tests::client_decoder_matches_reference_conversion
run_named_tests -p surgescope-taxi --lib -- \
  replay::tests::for_each_available_visits_visible_in_fleet_order
run_named_tests -p surgescope-core --test ping_equivalence -- \
  ping_all_matches_wire_response_conversion \
  ping_all_matches_wire_layout_round_trip \
  server_encoder_answers_as_ping_client_with_each_car_once

echo "== marketplace: idle index and EWT =="
# Dispatch and the marketplace's EWT scan one unordered idle list per
# tier. After every tick each list must hold exactly its tier's visible
# drivers, and the scan must answer as an index-order scan of the
# drivers does: ties go to the lowest driver index whatever the list
# order, the match radius is inclusive, and a restored world, whose
# lists are rebuilt in index order, continues bit-identically. The
# snapshot's EWT must equal the marketplace's, bit for bit.
run_named_tests -p surgescope-marketplace --lib -- \
  world::tests::incremental_idle_index_matches_fresh_rebuild \
  world::tests::nearest_idle_breaks_ties_by_index_and_radius_is_inclusive \
  world::tests::save_restore_continues_bit_identically
run_named_tests -p surgescope-api --lib -- \
  service::tests::snapshot_ewt_matches_marketplace_ewt

echo "== estimator: per-tick sighting memo =="
# The estimator skips a sighting that repeats, bit for bit, the last one
# it applied for that car at the same time, and hands each applied UberX
# sighting's surge area to the transition tracker and the runner's
# per-area sets. It must end every tick in the state of an estimator
# that never skips, and report each tick's (car, area) pairs exactly.
# The memo is never serialized: the estimator and the tracker must
# continue identically from a round trip, and resume must refuse a
# checkpoint whose per-client or per-area rows, or estimator areas, do
# not match the lattice and the city.
run_named_tests -p surgescope-core --lib -- \
  estimate::tests::memo_matches_memoryless_reference \
  estimate::tests::serde_round_trip_mid_campaign_continues_identically \
  transitions::tests::save_restore_continues_identically
run_named_tests -p surgescope-core --test checkpoint_resume -- \
  resume_rejects_malformed_row_counts

echo "== transport: fault-tolerance gate =="
cargo test -q --release --test fault_tolerance

echo "== store: checkpoint-resume determinism (4 h campaign, checkpoint at 2 h) =="
# A campaign interrupted at a tick boundary and resumed from its
# checkpoint must finish bit-identical to the uninterrupted run (NaN
# gaps compared as bit patterns), under a laggy/lossy transport with
# messages still in flight at the checkpoint — and the event log the
# resumed run writes whole at finish must replay to the same bytes
# without re-simulation.
run_named_tests -p surgescope-core --test checkpoint_resume \
  -- --ignored four_hour_campaign_checkpoint_at_two_hours_gate

echo "== store: checkpoint and log format, write memory =="
# A checkpoint file must keep its pinned digest (the format is the
# spec), and writing one must peak at no more than 4x the file's size
# above the live campaign state. The log, written once at finish to a
# temp file renamed into place, must keep its pinned digest clean,
# faulted and resumed from a checkpoint, and a campaign that never
# finishes must leave no log at all. Every client's per-tick series
# must be reserved to the horizon, fresh and after a resume. A store
# write that fails costs only the disk: a campaign whose log cannot be
# written, or whose checkpoint cannot be written (fresh, or resumed
# from a leftover checkpoint), runs to its end once and stays in the
# cache with its metrics entry and one store failure, and a failed
# checkpoint still leaves a log that replays to the same bytes.
run_named_tests -p surgescope-core --test checkpoint_resume -- \
  checkpoint_file_matches_pinned_bytes \
  log_file_matches_pinned_bytes \
  an_unfinished_campaign_leaves_no_log
run_named_tests -p surgescope-core --lib -- \
  campaign::tests::every_client_series_is_reserved_to_the_horizon
run_named_tests -p surgescope-experiments --lib -- \
  cache::tests::a_log_that_cannot_be_written_keeps_the_finished_campaign \
  cache::tests::a_checkpoint_that_cannot_be_written_costs_no_simulation
run_named_tests -p surgescope-bench --test checkpoint_heap -- \
  checkpoint_write_heap_peak_is_bounded_by_file_size

echo "== store: sliced CRC-32 =="
# Every frame, log record and checkpoint is checked by the slicing-by-8
# CRC, which must equal the bitwise definition at every length from 0 to
# 1,024 and every start offset from 0 to 7, and keep the known vectors.
run_named_tests -p surgescope-store --lib -- \
  crc32::tests::known_vectors \
  crc32::tests::sliced_matches_bitwise_reference_at_every_length_and_offset

echo "== store: corrupted-log handling =="
# Truncated tails and flipped bits must surface clean errors, not panics.
run_named_tests -p surgescope-core --test checkpoint_resume -- \
  truncated_log_errors_cleanly \
  corrupted_log_fails_crc_cleanly

echo "== serve: one frame reader, one PING per connection per tick naming its tick, car table, pipelined client decoding into its slots =="
# Client and server parse frames through one reader and differ only in
# what a stalled read means. The server waits at an idle frame boundary,
# drops a frame once io_timeout has passed since its first byte, whether
# the frame went silent or trickles in, refuses an oversized length on
# the prefix alone, and answers what arrives inside the shutdown drain
# window. The client fails a reply frame not complete within its socket
# deadline of its first byte, so a trickled reply cannot hold it. A
# payload nested past the codec's depth bound costs its connection,
# never the process, and a payload whose headers declare more elements
# than its bytes hold is refused before it reserves more than 40x its
# length. A non-PING request whose payload passes 64 KiB costs a frame
# error and its connection before it is decoded, before the handshake
# and after it. A frame is byte for byte an event-log record. PING
# carries one connection's whole chunk of a tick in a fixed binary
# layout, and its reply lists each shown car once in a table that the
# responses index: it round-trips every bit (NaN and -0 included), its
# request decoder and its one reply walker, through both of its sinks
# (the reference decode and the client's slot decoder), refuse every
# truncation, trailing bytes, an unknown tier, an index past the table
# and counts beyond the bytes that follow without a panic, a reply
# refused part-way leaves slots that rerunning the decode overwrites,
# a batch whose reply would pass max_frame is refused with
# RESP_ERR before any of it is written, serve.pings counts every sent
# ping exactly once, and serve.ping_sightings does not depend on the
# connection count (the ping kernels step above gates the encoder's
# replies against ping_client). Every PING names its tick: the server
# ticks a world on a PING for tick+1, reads it unmoved on a PING for the
# current tick, and refuses a skipped or past tick without moving it;
# any connection that said HELLO may ping, and the retired ADVANCE
# (0x04) is an unknown kind. Workers block in accept, so an idle server
# answers a fresh connection's HELLO within 10 ms, and shutdown wakes the
# janitor, so an idle server stops within 10 ms. The remote client
# counts ticks locally and sends exactly one PING per connection per
# tick, empty when the connection has no ping to carry, writes every
# connection's PING before it reads any reply, reads the replies on the
# calling thread, decodes each straight into its observation slots, and
# reconnects with connect + HELLO; at 1, 2 and 4
# connections, with a connection left without pings, with every ping
# dropped, and under chaos, its campaigns must equal the in-process
# bytes, and its pings.*, transport.* and campaign.* metrics the
# in-process ones. A campaign whose server is down falls back to a local
# run that is simulated once and counted as one cache miss.
run_named_tests -p surgescope-serve --test robustness -- \
  stall_after_the_length_prefix_is_dropped \
  idle_connection_outlives_io_timeout \
  slow_loris_partial_write_is_dropped \
  trickled_frame_is_dropped_at_io_timeout \
  oversized_frame_rejected_with_error_count \
  truncated_length_prefix_closes_with_error_count \
  deeply_nested_payload_costs_only_its_connection \
  oversized_value_request_is_a_frame_error_before_and_after_hello \
  ping_names_its_tick_and_a_skipped_or_past_tick_is_refused \
  unknown_kind_is_a_protocol_error_not_a_frame_error \
  fresh_connection_hello_is_answered_without_an_accept_poll \
  idle_server_shuts_down_without_waiting_for_the_janitor \
  shutdown_drains_inflight_requests \
  ping_reply_past_max_frame_is_refused_and_a_fresh_connection_is_served
run_named_tests -p surgescope-serve --lib -- \
  wire::tests::frame_roundtrip \
  wire::tests::crc_flip_detected \
  wire::tests::clean_close_vs_truncated_prefix \
  wire::tests::oversized_length_rejected_before_allocation \
  wire::tests::frame_bytes_match_log_record_bytes \
  wire::tests::trickled_reply_fails_the_client_read_at_its_deadline \
  wire::tests::ping_layout_round_trip_preserves_every_bit \
  wire::tests::ping_reply_stops_at_the_frame_limit
run_named_tests -p surgescope-core --lib -- \
  remote::tests::corrupt_ping_payloads_are_refused_without_panic \
  remote::tests::a_refused_reply_leaves_slots_safe_to_rerun
run_named_tests -p surgescope-store --lib -- \
  codec::tests::nesting_is_bounded_at_max_depth
run_named_tests -p surgescope-bench --test decode_heap -- \
  decode_reserves_in_proportion_to_the_payload
run_named_tests -p surgescope-core --test remote_lockstep -- \
  remote_campaign_matches_local_bytes_clean_and_faulted \
  more_connections_than_chunks_matches_local_bytes \
  every_ping_dropped_matches_local_bytes \
  remote_campaign_rejects_store_hooks \
  server_deterministic_counters_stable_across_reruns \
  server_answers_each_sent_ping_exactly_once
run_named_tests -p surgescope-core --test remote_chaos -- \
  chaotic_remote_campaign_matches_local_bytes_clean_and_faulted \
  zero_retry_budget_trips_the_breaker_and_local_fallback_matches \
  chaos_injection_counts_are_deterministic_per_seed
run_named_tests -p surgescope-experiments --lib -- \
  cache::tests::a_dead_server_costs_one_miss

echo "== scheduler: --jobs CSV byte-identity (jobs=1 vs jobs=4) =="
# The prefetch must declare every campaign (and the taxi replay) that
# any of the 26 experiments reads: after it, running them all builds
# nothing more, so none is left to build inline and serially. DESIGN.md
# §3 must index every experiment of the table, which names no id twice.
run_named_tests -p surgescope-experiments --test harness -- \
  prefetch_covers_every_campaign_the_experiments_read \
  design_index_lists_every_experiment
# A shared-campaign subset of `repro --quick` must emit byte-identical
# CSVs whether campaigns are simulated serially or prefetched on 4
# workers. Each run gets a fresh working directory and a fresh disk
# cache — otherwise the second run would replay the first run's logs
# and the comparison would be vacuous.
cargo build --release -p surgescope-experiments --bin repro
SCHED_TMP=$(mktemp -d)
trap 'rm -rf "$SCHED_TMP"' EXIT
REPRO="$PWD/target/release/repro"
for jobs in 1 4; do
  mkdir -p "$SCHED_TMP/j$jobs"
  (cd "$SCHED_TMP/j$jobs" && \
   SURGESCOPE_CACHE_DIR="$SCHED_TMP/j$jobs/cache" \
   "$REPRO" --quick --jobs "$jobs" --metrics metrics.json fig05 fig12 fig16 >/dev/null)
done
# With nullglob an empty results directory would silently skip the loop
# (and without it, the literal glob string would hit cmp with a bash
# error) — either way the gate must fail loudly, not pass vacuously.
shopt -s nullglob
j1_csvs=("$SCHED_TMP"/j1/results/*.csv)
shopt -u nullglob
if [ "${#j1_csvs[@]}" -eq 0 ]; then
  echo "scheduler gate: no CSVs found in $SCHED_TMP/j1/results/ — repro wrote nothing to compare" >&2
  exit 1
fi
for csv in "${j1_csvs[@]}"; do
  cmp "$csv" "$SCHED_TMP/j4/results/$(basename "$csv")"
done
echo "scheduler CSVs byte-identical at jobs=1 and jobs=4 (${#j1_csvs[@]} files)"
# The determinism-checked metrics sections (counters/gauges/histograms;
# wall-clock timers live in the excluded "timing" sections) must also be
# identical across jobs settings.
python3 - "$SCHED_TMP" <<'EOF'
import json, sys
def det(path):
    doc = json.load(open(path))
    return {"run": doc["run"]["deterministic"],
            "campaigns": {k: v["deterministic"] for k, v in doc["campaigns"].items()}}
a = det(sys.argv[1] + "/j1/metrics.json")
b = det(sys.argv[1] + "/j4/metrics.json")
assert a == b, "deterministic metrics sections differ between jobs=1 and jobs=4"
print("metrics deterministic sections identical at jobs=1 and jobs=4")
EOF

echo "== perf: campaign throughput and scheduler scaling =="
# Refresh BENCH_campaign.json from this build, then gate on it: the
# allocation-free tick pipeline must hold clean throughput at >= 1.3x
# the pre-arena baseline (4024.7 ticks/s). The jobs=2 scheduler scaling
# gate reads the median of bench_campaign's interleaved jobs=1/jobs=2
# pairs, since one pair swings with host noise, and only means
# something with a second core to scale onto.
cargo run --release -p surgescope-bench --bin bench_campaign >/dev/null
python3 - <<'EOF'
import json, os
b = json.load(open("BENCH_campaign.json"))
tps = b["ticks_per_sec"]
floor = 4024.7 * 1.3
assert tps >= floor, f"clean throughput {tps:.1f} ticks/s below gate {floor:.1f}"
print(f"clean throughput {tps:.1f} ticks/s (gate {floor:.1f})")
pairs = b["scaling_2j_pairs"]
assert len(pairs) >= 5, f"scheduler scaling read from {len(pairs)} pairs, not at least 5"
if (os.cpu_count() or 1) >= 2:
    s2 = b["scaling_2j"]
    assert s2 >= 1.5, f"jobs=2 scheduler scaling median {s2:.2f}x below 1.5x gate (pairs {pairs})"
    print(f"jobs=2 scheduler scaling median {s2:.2f}x over pairs {pairs} (gate 1.5x)")
else:
    print(f"jobs=2 scheduler scaling {b['scaling_2j']:.2f}x (single-core host; 1.5x gate skipped)")
serve = b["serve"]
assert serve["requests"] > 0 and serve["errors"] == 0, f"serve burst unhealthy: {serve}"
assert serve["serve.frame_errors"] == 0, f"serve burst raised frame errors: {serve}"
print(f"serve burst: {serve['serve.requests_per_sec']:.0f} req/s, "
      f"p99 {serve['serve.p99_us']}us, 0 frame errors")
EOF

echo "== serve: loopback byte-identity, load and chaos smoke =="
scripts/serve_smoke.sh

echo "verify: all gates passed"
