#!/usr/bin/env python3
"""Guards the benchmark JSON files against performance regressions.

Two kinds of files are understood, auto-detected per file:

Counting-kernel tiers (BENCH_counting.json, BENCH_simd.json): op names
end in "/reference" (the seed row-at-a-time loop), "/blocked" (the
cache-blocked kernel over packed value codes), or "/simd" (the vector
tier over the same packed codes), every variant measured at the same
thread count and workload. The script prints the blocked-over-reference
and simd-over-blocked speedups for every group and fails if a faster
tier is SLOWER than the one below it on the cube/add_dataset or car/mine
group — the regressions each tier exists to prevent. Files predating
the SIMD tier (no "/simd" record anywhere) are judged on the
reference/blocked pair alone. The simd-over-blocked guard keys off the
record's "simd" field, not the host's core count: vectorization pays on
one core, so the guard is enforced even at hardware_concurrency == 1 and
skipped only when the field says "none" (the binary ran the blocked
fallback because the CPU has no vector units).

Thread-scaling rows (BENCH_simd.json, from bench_parallel --scaling):
ops starting with "scaling/" record the same operation at increasing
thread counts on the SIMD tier. When the recording host actually had
cores to scale on (hardware_concurrency >= 2), the script fails unless
two threads beat one by >= 1.2x and the full-width run reaches >= 40%
parallel efficiency. On a one-core host the rows are reported only —
the honest reading the old 1-CPU BENCH_parallel.json thread rows never
got.

Serving-path ops (BENCH_serving.json, from bench_parallel --serving):
fails if the lazy v3 mapped load is slower than the eager v2 load
(store/load_v3_mmap vs store/load_v2), or if the warm cached all-pairs
sweep is not at least 2x faster than the cold one (compare/warm_cached
vs compare/cold) — the wins the mapped format and the result cache
exist to deliver.

Streaming-ingestion ops (BENCH_ingest.json, from bench_parallel
--ingest): fails if the append throughput record is missing or shows a
non-positive rate, if the concurrent query latency percentiles are
inconsistent (ingest/query_p50 above ingest/query_p99, or no sweep ever
completed), or if recovery replayed no WAL records (the bench always
holds back a tail to replay). The absolute append-rate floor is a rate
guard and obeys the one-core skip below, as does the reader bound:
ingest/query_p99 must stay within MAX_QUERY_P99_APPEND_FRACTION of the
ingest/append wall time, since Snapshot() never waits for an append.

Store allocation ops (BENCH_parallel.json, from bench_parallel's default
mode): cube/make (a zeroed CubeBuilder::Make over the workload's schema)
and cube/clone (CubeStore::Clone of the built store), one row per thread
count. Each row must show a positive time and rate, and neither may take
longer than the cube/add_dataset record at the same thread count:
allocating or copying a store is the fixed cost in front of counting
rows into it, never the bulk of it. The file's other rows (compare/fanout,
compare/all_pairs, car/mine, the figure benches) are reported by their
own tools, not guarded here.

Daemon serving ops (BENCH_server.json, from `opmap loadgen --json`):
ops starting with "server/". The file must carry a server/qps record
whose items_per_s (the achieved request rate) is positive — a loadgen
run that completed no request is a failure, not a measurement. Per-op
tail-latency rows (server/<op>_p50/_p99/_p999) must not invert:
percentiles of one latency population satisfy p50 <= p99 <= p999 by
construction, so an inversion means the records were mixed up. Two
guards obey the one-core skip below: an absolute QPS floor (set ~100x
under any healthy measurement, it catches an accidentally serialized
event loop, not jitter) and the wire-overhead bound — the daemon's warm
compare p50 over the socket (server/compare_p50) must stay within
MAX_WIRE_OVERHEAD of the in-process baseline p50 measured by the same
loadgen run (server/local_compare_p50), with a small absolute allowance
(WIRE_OVERHEAD_SLACK_MS) so microsecond-scale baselines on fast stores
do not turn scheduler noise into failures. On a one-core host client
threads, the event loop and the pool workers all contend for the same
CPU, so the ratio measures the scheduler, not the wire — reported,
never enforced there.

When the file carries several server/qps records whose embedded stats
snapshots disagree on the server.loops gauge (the run_bench.sh server
section records a single-loop and a multi-loop daemon back to back),
the best multi-loop rate must reach MIN_LOOPS_SPEEDUP x the single-loop
rate — the win the SO_REUSEPORT loop sharding exists to deliver. The
guard obeys the one-core skip (loops contend for one CPU there) and is
silent when only one loop configuration was recorded.

Open-loop sweep rows (server/sweep/<rate>_{p50,p99,p999,achieved_qps,
retry_later}, from `opmap loadgen --sweep`): each offered rate carries
its measured percentiles, the achieved post-warm-up rate, and the shed
rate. Per rate, percentiles must not invert (bookkeeping, enforced
always) and the achieved_qps record must exist and be positive. Across
rates, the achieved rate must be monotone non-decreasing (within
SWEEP_MONOTONE_TOLERANCE) while the daemon still tracks the offered
load (achieved >= SWEEP_KNEE_TRACK_FACTOR x offered) — it may plateau
at the knee, but collapsing below a rate it just sustained is
congestion collapse, a failure; pairs past the first saturated point
are unconstrained. The monotonicity guard obeys the one-core skip.

Speedup guards are skipped (reported, not enforced) when the records
carry hardware_concurrency == 1: on a one-core host the timings are
too contended to judge.

Records written since the observability layer also embed a "stats"
object (the process metrics snapshot at append time). When present, it
is guarded for consistency with the measurement:
  - compare/warm_cached must show cache.hits > 0 (the warm sweep is
    meaningless if nothing actually hit the cache);
  - the /blocked cube/add_dataset record must show zero
    cube.kernel_reference builds and zero cube.budget_fallbacks (a
    silent fallback would time the wrong kernel);
  - the /simd cube/add_dataset record (when its "simd" field is not
    "none") must show kernel.simd_selected > 0 and cube.kernel_simd > 0
    — proof the vector tier actually engaged during the measurement.

Usage: tools/check_bench.py [FILE...]   (default: BENCH_counting.json)
Exit: 0 all guards pass, 1 a guard failed, 2 unreadable/unrecognized
input.
"""

import json
import sys

KERNELS = ("reference", "blocked", "simd")

# Counting op pairs where a faster tier slower than the one below it is
# a failure (blocked vs reference, simd vs blocked).
GUARDED_PAIRS = ("cube/add_dataset", "car/mine")

# Minimum speedup of the warm cached sweep over the cold one.
MIN_WARM_SPEEDUP = 2.0

# The simd-vs-blocked guard is enforced only on runs of at least this
# many items. Below it the tier-sensitive work (the counting passes) is
# a minority of the op's wall time — at 20k records the miner spends
# most of car/mine evaluating candidates over cube cells, work no
# kernel tier touches — so the vector margin drowns in scheduler noise
# and the guard would flake. run_bench.sh records at 100k, above the
# floor; CI's 20k smokes still print the speedup but skip the guard.
MIN_SIMD_GUARD_ITEMS = 50000

# Thread-scaling floors, enforced only when hardware_concurrency >= 2:
# two threads must beat one by this factor, and the widest run must keep
# this fraction of perfect linear speedup.
MIN_TWO_THREAD_SPEEDUP = 1.2
MIN_PARALLEL_EFFICIENCY = 0.4

# Absolute floor on WAL-backed append throughput (rows/s). Deliberately
# far below any healthy measurement (~100x): it catches an accidentally
# serialized or fsync-per-row configuration, not ordinary jitter.
MIN_APPEND_ROWS_PER_S = 1000.0

# Ceiling on the concurrent reader's tail under ingest: ingest/query_p99
# (one Snapshot() plus an all-pairs sweep) may take at most this fraction
# of the whole ingest/append phase. A reader that never waits for the
# writer finishes a sweep in a few milliseconds of a phase lasting about a
# second; one queued behind appends and snapshot merges takes about the
# whole phase (1.01 measured on 4 cores with the lock-and-merge snapshot,
# 0.001 with copy-on-write publishing). Armed only with >= 2 cores, where
# the reader has a core of its own.
MAX_QUERY_P99_APPEND_FRACTION = 0.1

# Absolute floor on daemon request throughput (requests/s across all
# loadgen clients). Same philosophy as the append floor: a healthy run
# measures thousands; this catches a daemon that serializes on something
# pathological (a sleep in the loop, a blocking read), not jitter.
MIN_SERVER_QPS = 50.0

# The daemon's warm compare p50 over the socket must stay within this
# multiple of the in-process baseline p50 from the same run (framing +
# syscalls + scheduling, not query work, is all the socket adds)...
MAX_WIRE_OVERHEAD = 10.0
# ...unless the absolute difference is under this many ms: a 50 us
# baseline makes 10x just 0.5 ms, which one context switch exceeds.
WIRE_OVERHEAD_SLACK_MS = 2.0

# Minimum peak-QPS speedup of the best multi-loop daemon over the
# single-loop one, when a file records both (see the docstring).
MIN_LOOPS_SPEEDUP = 1.5

# Open-loop sweep guards: a point still "tracks" the offered load while
# achieved >= this fraction of offered (the first point below it is the
# knee), and before the knee each point's achieved rate must be at least
# this fraction of the previous point's (tolerance for short windows).
SWEEP_KNEE_TRACK_FACTOR = 0.9
SWEEP_MONOTONE_TOLERANCE = 0.85

SWEEP_KINDS = ("p50", "p99", "p999", "achieved_qps", "retry_later")

# Serving-path sweep rows; other compare/ ops (compare/fanout,
# compare/all_pairs) belong to the parallel trajectory.
SERVING_COMPARE_OPS = ("compare/cold", "compare/warm_cached")

# Store allocation rows of the parallel trajectory.
ALLOC_OPS = ("cube/make", "cube/clone")


def check_kernel_pairs(path: str, pairs: dict, skip_speedups: bool) -> bool:
    """Prints every tier group's speedups; True when a guard failed.

    `pairs` maps op base name -> {kernel: record}. A file with no /simd
    record anywhere predates the SIMD tier and is judged on the
    reference/blocked pair alone.
    """
    failed = False
    has_simd = any("simd" in times for times in pairs.values())
    for base in sorted(pairs):
        times = pairs[base]
        if any(k not in times for k in ("reference", "blocked")):
            print(f"{base:40s} INCOMPLETE (have: {sorted(times)})")
            continue
        ref_ms = float(times["reference"]["wall_ms"])
        blk_ms = float(times["blocked"]["wall_ms"])
        speedup = ref_ms / blk_ms
        print(f"{base:40s} reference={ref_ms:10.2f} ms  "
              f"blocked={blk_ms:10.2f} ms  "
              f"speedup={speedup:5.2f}x")
        if base in GUARDED_PAIRS and speedup < 1.0:
            if skip_speedups:
                print(f"check_bench: SKIP (hardware_concurrency=1): blocked "
                      f"slower than reference on {base} ({speedup:.2f}x)")
            else:
                print(f"check_bench: FAIL: blocked kernel is slower than the "
                      f"reference on {base} ({speedup:.2f}x)", file=sys.stderr)
                failed = True
        if "simd" not in times:
            if has_simd and base in GUARDED_PAIRS:
                print(f"check_bench: FAIL: {path} has SIMD records but no "
                      f"{base}/simd row to guard", file=sys.stderr)
                failed = True
            continue
        simd_ms = float(times["simd"]["wall_ms"])
        simd_level = times["simd"].get("simd", "")
        simd_speedup = blk_ms / simd_ms
        print(f"{base + ' [simd=' + (simd_level or '?') + ']':40s} "
              f"blocked={blk_ms:10.2f} ms  "
              f"simd={simd_ms:10.2f} ms  "
              f"speedup={simd_speedup:5.2f}x")
        # Vectorization pays on one core, so this guard ignores
        # hardware_concurrency; it is skipped only when the record says
        # the CPU has no vector units (the /simd row then timed the
        # blocked fallback and equality is all it can promise).
        if base in GUARDED_PAIRS and simd_speedup < 1.0:
            # Reconstruct the run size from the row itself (items/s is
            # items per wall second, so wall * rate = items measured).
            items = float(times["simd"]["wall_ms"]) * \
                float(times["simd"]["items_per_s"]) / 1e3
            if simd_level == "none":
                print(f"check_bench: SKIP (simd=none): simd row ran the "
                      f"blocked fallback on {base} ({simd_speedup:.2f}x)")
            elif items < MIN_SIMD_GUARD_ITEMS:
                print(f"check_bench: SKIP ({items:.0f} items < "
                      f"{MIN_SIMD_GUARD_ITEMS}): smoke-sized run cannot "
                      f"resolve the vector margin on {base} "
                      f"({simd_speedup:.2f}x)")
            else:
                print(f"check_bench: FAIL: simd kernel is slower than the "
                      f"blocked kernel on {base} ({simd_speedup:.2f}x)",
                      file=sys.stderr)
                failed = True
    for base in GUARDED_PAIRS:
        if base not in pairs:
            print(f"check_bench: FAIL: no {base} pair to guard in {path}",
                  file=sys.stderr)
            failed = True
    return failed


def check_scaling_ops(path: str, scaling: dict, hardware) -> bool:
    """Guards the thread-scaling rows; True when a guard failed.

    `scaling` maps op name -> {threads: wall_ms}. Enforced only when the
    recording host had cores to scale on (hardware_concurrency >= 2);
    one-core rows are reported as-is — a single t=1 row is the honest
    record there, not a failure.
    """
    failed = False
    for op in sorted(scaling):
        rows = scaling[op]
        base_ms = rows.get(1)
        for t in sorted(rows):
            s = base_ms / rows[t] if base_ms else float("nan")
            print(f"{op:40s} threads={t:<3d} {rows[t]:10.2f} ms  "
                  f"speedup={s:5.2f}x")
        if hardware is None or hardware < 2:
            print(f"check_bench: SKIP (hardware_concurrency="
                  f"{hardware}): scaling guards need >= 2 cores ({op})")
            continue
        if base_ms is None:
            print(f"check_bench: FAIL: {op} in {path} has no 1-thread "
                  f"baseline row", file=sys.stderr)
            failed = True
            continue
        if 2 not in rows:
            print(f"check_bench: FAIL: {op} in {path} has no 2-thread row "
                  f"on a {hardware}-core host", file=sys.stderr)
            failed = True
        elif base_ms / rows[2] < MIN_TWO_THREAD_SPEEDUP:
            print(f"check_bench: FAIL: {op} at 2 threads is only "
                  f"{base_ms / rows[2]:.2f}x the 1-thread run (need >= "
                  f"{MIN_TWO_THREAD_SPEEDUP}x)", file=sys.stderr)
            failed = True
        tmax = max(rows)
        if tmax > 1 and base_ms / rows[tmax] < MIN_PARALLEL_EFFICIENCY * tmax:
            print(f"check_bench: FAIL: {op} at {tmax} threads is only "
                  f"{base_ms / rows[tmax]:.2f}x the 1-thread run (need >= "
                  f"{MIN_PARALLEL_EFFICIENCY:.0%} of linear = "
                  f"{MIN_PARALLEL_EFFICIENCY * tmax:.1f}x)", file=sys.stderr)
            failed = True
    return failed


def check_serving_ops(path: str, wall_ms: dict, skip_speedups: bool) -> bool:
    """Guards the mapped-load and cached-sweep wins; True when failed."""
    failed = False

    def require(op: str) -> float:
        nonlocal failed
        if op not in wall_ms:
            print(f"check_bench: FAIL: no {op} record in {path}",
                  file=sys.stderr)
            failed = True
            return float("nan")
        return wall_ms[op]

    load_v2 = require("store/load_v2")
    load_v3 = require("store/load_v3_mmap")
    if not failed and load_v3 > load_v2:
        if skip_speedups:
            print(f"check_bench: SKIP (hardware_concurrency=1): mapped v3 "
                  f"load slower than eager v2 ({load_v3:.2f} ms vs "
                  f"{load_v2:.2f} ms)")
        else:
            print(f"check_bench: FAIL: mapped v3 load is slower than eager "
                  f"v2 ({load_v3:.2f} ms vs {load_v2:.2f} ms)",
                  file=sys.stderr)
            failed = True
    elif not failed:
        print(f"{'store/load_v3_mmap over load_v2':40s} "
              f"v2={load_v2:10.2f} ms  v3={load_v3:10.2f} ms  "
              f"speedup={load_v2 / load_v3:5.2f}x")

    cold = require("compare/cold")
    warm = require("compare/warm_cached")
    if cold == cold and warm == warm:  # both present (not NaN)
        speedup = cold / warm if warm > 0 else float("inf")
        print(f"{'compare/warm_cached over cold':40s} "
              f"cold={cold:10.2f} ms  warm={warm:10.2f} ms  "
              f"speedup={speedup:5.2f}x")
        if speedup < MIN_WARM_SPEEDUP:
            if skip_speedups:
                print(f"check_bench: SKIP (hardware_concurrency=1): warm "
                      f"cached sweep only {speedup:.2f}x the cold sweep")
            else:
                print(f"check_bench: FAIL: warm cached sweep is only "
                      f"{speedup:.2f}x the cold sweep (need >= "
                      f"{MIN_WARM_SPEEDUP:.0f}x)", file=sys.stderr)
                failed = True
    return failed


def check_ingest_ops(path: str, ingest: dict, skip_speedups: bool) -> bool:
    """Guards the streaming-ingestion ops; True when a guard failed."""
    failed = False

    def require(op: str):
        nonlocal failed
        if op not in ingest:
            print(f"check_bench: FAIL: no {op} record in {path}",
                  file=sys.stderr)
            failed = True
            return None
        return ingest[op]

    append = require("ingest/append")
    p50 = require("ingest/query_p50")
    p99 = require("ingest/query_p99")
    recover = require("ingest/recover")

    if append is not None:
        rows_per_s = float(append.get("items_per_s", 0.0))
        print(f"{'ingest/append throughput':40s} "
              f"{rows_per_s:14.1f} rows/s")
        if rows_per_s <= 0:
            print(f"check_bench: FAIL: ingest/append in {path} acknowledged "
                  f"no rows", file=sys.stderr)
            failed = True
        elif rows_per_s < MIN_APPEND_ROWS_PER_S:
            if skip_speedups:
                print(f"check_bench: SKIP (hardware_concurrency=1): append "
                      f"rate {rows_per_s:.1f} rows/s below the "
                      f"{MIN_APPEND_ROWS_PER_S:.0f} rows/s floor")
            else:
                print(f"check_bench: FAIL: ingest/append rate "
                      f"{rows_per_s:.1f} rows/s is below the "
                      f"{MIN_APPEND_ROWS_PER_S:.0f} rows/s floor "
                      f"(fsync-per-row or serialized ingest?)",
                      file=sys.stderr)
                failed = True

    if p50 is not None and p99 is not None:
        w50 = float(p50["wall_ms"])
        w99 = float(p99["wall_ms"])
        print(f"{'ingest query latency under load':40s} "
              f"p50={w50:10.2f} ms  p99={w99:10.2f} ms")
        if w50 > w99:
            print(f"check_bench: FAIL: ingest/query_p50 ({w50:.2f} ms) "
                  f"exceeds ingest/query_p99 ({w99:.2f} ms) in {path} — "
                  f"percentiles of one run cannot invert", file=sys.stderr)
            failed = True
        if float(p50.get("items_per_s", 0.0)) <= 0:
            print(f"check_bench: FAIL: no concurrent sweep ever completed "
                  f"during the ingest run in {path}", file=sys.stderr)
            failed = True
        if append is not None and float(append["wall_ms"]) > 0:
            append_ms = float(append["wall_ms"])
            fraction = w99 / append_ms
            print(f"{'ingest query p99 / append phase':40s} "
                  f"{fraction:10.3f} (max "
                  f"{MAX_QUERY_P99_APPEND_FRACTION:.2f})")
            if fraction > MAX_QUERY_P99_APPEND_FRACTION:
                if skip_speedups:
                    print(f"check_bench: SKIP (hardware_concurrency=1): "
                          f"ingest/query_p99 is {fraction:.3f} of the "
                          f"append phase")
                else:
                    print(f"check_bench: FAIL: ingest/query_p99 "
                          f"({w99:.2f} ms) exceeds "
                          f"{MAX_QUERY_P99_APPEND_FRACTION:.2f} x the "
                          f"ingest/append phase ({append_ms:.2f} ms) in "
                          f"{path} — the reader waited for the writer",
                          file=sys.stderr)
                    failed = True

    if recover is not None:
        if float(recover.get("items_per_s", 0.0)) <= 0:
            print(f"check_bench: FAIL: ingest/recover in {path} replayed no "
                  f"WAL records — the bench holds back a tail precisely so "
                  f"recovery has work to do", file=sys.stderr)
            failed = True
        else:
            print(f"{'ingest/recover':40s} "
                  f"{float(recover['wall_ms']):10.2f} ms  "
                  f"{float(recover['items_per_s']):10.1f} records/s")
    return failed


def check_server_ops(path: str, server: dict, skip_speedups: bool) -> bool:
    """Guards the daemon tail-latency records; True when a guard failed.

    `server` maps op name -> record for every op starting "server/".
    """
    failed = False

    qps_rec = server.get("server/qps")
    if qps_rec is None:
        print(f"check_bench: FAIL: no server/qps record in {path}",
              file=sys.stderr)
        return True
    qps = float(qps_rec.get("items_per_s", 0.0))
    clients = int(qps_rec.get("threads", 1))
    print(f"{'server/qps':40s} {qps:14.1f} req/s  "
          f"(clients={clients})")
    if qps <= 0:
        print(f"check_bench: FAIL: server/qps in {path} shows no completed "
              f"requests — the loadgen run measured nothing",
              file=sys.stderr)
        failed = True
    elif qps < MIN_SERVER_QPS:
        if skip_speedups:
            print(f"check_bench: SKIP (hardware_concurrency=1): qps "
                  f"{qps:.1f} below the {MIN_SERVER_QPS:.0f} req/s floor")
        else:
            print(f"check_bench: FAIL: server/qps {qps:.1f} req/s is below "
                  f"the {MIN_SERVER_QPS:.0f} req/s floor (serialized event "
                  f"loop or blocked dispatch?)", file=sys.stderr)
            failed = True

    # Percentile ordering per op: p50 <= p99 <= p999 always holds for
    # percentiles of one population; an inversion means mixed-up records.
    bases = sorted({op[: -len("_p50")] for op in server
                    if op.endswith("_p50") and op != "server/local_compare_p50"})
    for base in bases:
        quantiles = [(q, server.get(base + q)) for q in ("_p50", "_p99",
                                                         "_p999")]
        present = [(q, float(rec["wall_ms"])) for q, rec in quantiles
                   if rec is not None]
        row = "  ".join(f"{q[1:]}={ms:8.3f} ms" for q, ms in present)
        print(f"{base:40s} {row}")
        for (q_lo, ms_lo), (q_hi, ms_hi) in zip(present, present[1:]):
            if ms_lo > ms_hi:
                print(f"check_bench: FAIL: {base}{q_lo} ({ms_lo:.3f} ms) "
                      f"exceeds {base}{q_hi} ({ms_hi:.3f} ms) in {path} — "
                      f"percentiles of one run cannot invert",
                      file=sys.stderr)
                failed = True

    # Wire overhead: socket p50 vs the same run's in-process baseline.
    wire = server.get("server/compare_p50")
    local = server.get("server/local_compare_p50")
    if wire is not None and local is not None:
        wire_ms = float(wire["wall_ms"])
        local_ms = float(local["wall_ms"])
        overhead = wire_ms / local_ms if local_ms > 0 else float("inf")
        print(f"{'server/compare_p50 over in-process':40s} "
              f"wire={wire_ms:8.3f} ms  local={local_ms:8.3f} ms  "
              f"overhead={overhead:5.2f}x")
        if (overhead > MAX_WIRE_OVERHEAD
                and wire_ms - local_ms > WIRE_OVERHEAD_SLACK_MS):
            if skip_speedups:
                print(f"check_bench: SKIP (hardware_concurrency=1): wire "
                      f"overhead {overhead:.2f}x over the "
                      f"{MAX_WIRE_OVERHEAD:.0f}x bound")
            else:
                print(f"check_bench: FAIL: warm compare over the socket is "
                      f"{overhead:.2f}x the in-process baseline (need <= "
                      f"{MAX_WIRE_OVERHEAD:.0f}x or <= "
                      f"{WIRE_OVERHEAD_SLACK_MS:.1f} ms absolute) — the "
                      f"wire is adding query-scale work", file=sys.stderr)
                failed = True

    # The qps record embeds the daemon's own metrics snapshot: the daemon
    # must have counted the requests the clients measured.
    if isinstance(qps_rec.get("stats"), dict):
        stats = qps_rec["stats"]
        requests = stats.get("server.requests", 0)
        responses_ok = stats.get("server.responses_ok", 0)
        if qps > 0 and (requests <= 0 or responses_ok <= 0):
            print(f"check_bench: FAIL: server/qps in {path} measured "
                  f"completed requests but the daemon's own counters show "
                  f"server.requests={requests}, "
                  f"server.responses_ok={responses_ok} — the loadgen did "
                  f"not talk to this daemon", file=sys.stderr)
            failed = True
    return failed


def check_sweep_ops(path: str, sweep: dict, skip_speedups: bool) -> bool:
    """Guards the open-loop sweep rows; True when a guard failed.

    `sweep` maps op name -> record for every op starting "server/sweep/".
    """
    failed = False

    # "server/sweep/<rate>_<kind>" -> rates[float(rate)][kind] = record.
    # The rate label itself may contain underscores-free digits and a dot.
    rates: dict = {}
    for op, rec in sweep.items():
        rest = op[len("server/sweep/"):]
        for kind in SWEEP_KINDS:
            if rest.endswith("_" + kind):
                label = rest[: -(len(kind) + 1)]
                try:
                    rate = float(label)
                except ValueError:
                    break
                rates.setdefault(rate, {})[kind] = rec
                break
        else:
            print(f"check_bench: FAIL: unrecognized sweep op {op} in "
                  f"{path}", file=sys.stderr)
            failed = True

    achieved_by_rate: dict = {}
    for rate in sorted(rates):
        kinds = rates[rate]
        achieved_rec = kinds.get("achieved_qps")
        achieved = (float(achieved_rec.get("items_per_s", 0.0))
                    if achieved_rec is not None else None)
        shed_rec = kinds.get("retry_later")
        shed = (float(shed_rec.get("items_per_s", 0.0))
                if shed_rec is not None else 0.0)
        quantiles = [(q, kinds.get(q)) for q in ("p50", "p99", "p999")]
        present = [(q, float(rec["wall_ms"])) for q, rec in quantiles
                   if rec is not None]
        row = "  ".join(f"{q}={ms:8.3f} ms" for q, ms in present)
        print(f"{'server/sweep @ %g qps offered' % rate:40s} "
              f"achieved={achieved if achieved is not None else float('nan'):8.1f}  "
              f"shed/s={shed:7.1f}  {row}")
        # Percentile inversions are bookkeeping errors, enforced always.
        for (q_lo, ms_lo), (q_hi, ms_hi) in zip(present, present[1:]):
            if ms_lo > ms_hi:
                print(f"check_bench: FAIL: sweep rate {rate:g} {q_lo} "
                      f"({ms_lo:.3f} ms) exceeds {q_hi} ({ms_hi:.3f} ms) in "
                      f"{path} — percentiles of one run cannot invert",
                      file=sys.stderr)
                failed = True
        if achieved_rec is None:
            print(f"check_bench: FAIL: sweep rate {rate:g} in {path} has no "
                  f"achieved_qps record", file=sys.stderr)
            failed = True
            continue
        if achieved <= 0:
            print(f"check_bench: FAIL: sweep rate {rate:g} in {path} "
                  f"completed no request in the measured window",
                  file=sys.stderr)
            failed = True
            continue
        achieved_by_rate[rate] = achieved

    # Monotone until the knee: while a point still tracks the offered
    # load, the next point's achieved rate must not collapse below it
    # (tolerance for short windows) — it may plateau (the knee), but a
    # daemon that achieves *less* at a higher offered rate than it just
    # proved it could sustain is in congestion collapse, not saturation.
    # Pairs past the first saturated point are unconstrained.
    ordered = sorted(achieved_by_rate)
    tracking = [achieved_by_rate[r] >= SWEEP_KNEE_TRACK_FACTOR * r
                for r in ordered]
    knee = next((r for r, ok in zip(ordered, tracking) if not ok), None)
    for i, (lo, hi) in enumerate(zip(ordered, ordered[1:])):
        if not tracking[i]:
            break  # lo is saturated; later pairs are unconstrained
        if achieved_by_rate[hi] < \
                SWEEP_MONOTONE_TOLERANCE * achieved_by_rate[lo]:
            if skip_speedups:
                print(f"check_bench: SKIP (hardware_concurrency=1): "
                      f"achieved rate dropped from {achieved_by_rate[lo]:.1f} "
                      f"({lo:g} offered) to {achieved_by_rate[hi]:.1f} "
                      f"({hi:g} offered)")
            else:
                print(f"check_bench: FAIL: achieved rate fell from "
                      f"{achieved_by_rate[lo]:.1f} req/s at {lo:g} offered "
                      f"to {achieved_by_rate[hi]:.1f} req/s at {hi:g} "
                      f"offered, before the knee — throughput must not "
                      f"regress while the daemon still tracks the load",
                      file=sys.stderr)
                failed = True
    if knee is not None:
        print(f"{'server/sweep knee':40s} first saturated point at "
              f"{knee:g} qps offered ({achieved_by_rate[knee]:.1f} achieved)")
    return failed


def check_loops_speedup(path: str, qps_records: list,
                        skip_speedups: bool) -> bool:
    """Guards multi-loop vs single-loop peak QPS; True when failed.

    `qps_records` holds every server/qps record in file order. Loop
    counts come from the embedded daemon stats (server.loops); records
    without the gauge (pre-sharding files) are ignored.
    """
    best_by_loops: dict = {}
    for rec in qps_records:
        stats = rec.get("stats")
        if not isinstance(stats, dict) or "server.loops" not in stats:
            continue
        loops = int(stats["server.loops"])
        qps = float(rec.get("items_per_s", 0.0))
        best_by_loops[loops] = max(best_by_loops.get(loops, 0.0), qps)
    multi = {n: q for n, q in best_by_loops.items() if n >= 2}
    if 1 not in best_by_loops or not multi:
        return False  # one configuration only: nothing to compare
    single_qps = best_by_loops[1]
    best_loops, best_qps = max(multi.items(), key=lambda kv: kv[1])
    speedup = best_qps / single_qps if single_qps > 0 else float("inf")
    print(f"{'server/qps loops=%d over loops=1' % best_loops:40s} "
          f"multi={best_qps:12.1f} req/s  single={single_qps:12.1f} req/s  "
          f"speedup={speedup:5.2f}x")
    if speedup < MIN_LOOPS_SPEEDUP:
        if skip_speedups:
            print(f"check_bench: SKIP (hardware_concurrency=1): "
                  f"{best_loops} loops reach only {speedup:.2f}x the "
                  f"single-loop rate on one CPU")
            return False
        print(f"check_bench: FAIL: {best_loops} event loops reach only "
              f"{speedup:.2f}x the single-loop rate (need >= "
              f"{MIN_LOOPS_SPEEDUP}x) — the loop sharding is not "
              f"delivering", file=sys.stderr)
        return True
    return False


def check_alloc_ops(path: str, alloc: dict) -> bool:
    """Guards the store allocation rows; True when failed."""
    failed = False
    for threads in sorted(alloc):
        rows = alloc[threads]
        build = rows.get("cube/add_dataset")
        for op in ALLOC_OPS:
            rec = rows.get(op)
            if rec is None:
                print(f"check_bench: FAIL: no {op} record at threads="
                      f"{threads} in {path}", file=sys.stderr)
                failed = True
                continue
            wall = float(rec["wall_ms"])
            rate = float(rec.get("items_per_s", 0.0))
            print(f"{op:40s} threads={threads:<3d} {wall:10.3f} ms  "
                  f"{rate:14.1f} cubes/s")
            if not wall > 0 or not rate > 0:
                print(f"check_bench: FAIL: {op} at threads={threads} "
                      f"records a non-positive time or rate in {path}",
                      file=sys.stderr)
                failed = True
            elif build is not None and wall > float(build["wall_ms"]):
                print(f"check_bench: FAIL: {op} at threads={threads} takes "
                      f"{wall:.3f} ms, longer than the cube/add_dataset "
                      f"build it precedes ({float(build['wall_ms']):.3f} "
                      f"ms)", file=sys.stderr)
                failed = True
    return failed


def check_stats(path: str, latest: dict) -> bool:
    """Guards the embedded metrics snapshots; True when a guard failed.

    `latest` maps op name -> the freshest record for that op. Records
    without a "stats" object (pre-observability files) are skipped.
    """
    failed = False

    warm = latest.get("compare/warm_cached")
    if warm is not None and isinstance(warm.get("stats"), dict):
        hits = warm["stats"].get("cache.hits", 0)
        if hits <= 0:
            print(f"check_bench: FAIL: compare/warm_cached stats show no "
                  f"cache hits in {path} (cache.hits={hits}) — the warm "
                  f"sweep did not exercise the cache", file=sys.stderr)
            failed = True

    blocked = latest.get("cube/add_dataset/blocked")
    if blocked is not None and isinstance(blocked.get("stats"), dict):
        stats = blocked["stats"]
        ref_builds = stats.get("cube.kernel_reference", 0)
        fallbacks = stats.get("cube.budget_fallbacks", 0)
        if ref_builds > 0 or fallbacks > 0:
            print(f"check_bench: FAIL: blocked cube/add_dataset record in "
                  f"{path} fell back to the reference kernel "
                  f"(cube.kernel_reference={ref_builds}, "
                  f"cube.budget_fallbacks={fallbacks}) — the measurement "
                  f"timed the wrong kernel", file=sys.stderr)
            failed = True

    simd = latest.get("cube/add_dataset/simd")
    if (simd is not None and isinstance(simd.get("stats"), dict)
            and simd.get("simd", "") not in ("", "none")):
        stats = simd["stats"]
        selected = stats.get("kernel.simd_selected", 0)
        simd_builds = stats.get("cube.kernel_simd", 0)
        if selected <= 0 or simd_builds <= 0:
            print(f"check_bench: FAIL: simd cube/add_dataset record in "
                  f"{path} never engaged the vector tier "
                  f"(kernel.simd_selected={selected}, "
                  f"cube.kernel_simd={simd_builds}) — the measurement "
                  f"timed the wrong kernel", file=sys.stderr)
            failed = True
    return failed


def check_file(path: str) -> int:
    try:
        with open(path, "r", encoding="utf-8") as f:
            records = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"check_bench: cannot read {path}: {e}", file=sys.stderr)
        return 2

    # op base name -> {kernel: record}; later records win so re-runs of
    # an append-only file judge the freshest measurement.
    pairs: dict = {}
    serving: dict = {}
    ingest: dict = {}
    server: dict = {}
    sweep: dict = {}
    qps_records: list = []
    scaling: dict = {}  # op -> {threads: wall_ms}
    alloc: dict = {}  # threads -> {op: record}
    latest: dict = {}
    hardware = None
    for rec in records:
        op = rec.get("op", "")
        latest[op] = rec
        if op.startswith("scaling/"):
            threads = int(rec.get("threads", 1))
            scaling.setdefault(op, {})[threads] = float(rec["wall_ms"])
        for kernel in KERNELS:
            suffix = "/" + kernel
            if op.endswith(suffix):
                base = op[: -len(suffix)]
                pairs.setdefault(base, {})[kernel] = rec
        if op.startswith("store/") or op in SERVING_COMPARE_OPS:
            serving[op] = float(rec["wall_ms"])
        if op in ALLOC_OPS or op == "cube/add_dataset":
            threads = int(rec.get("threads", 1))
            alloc.setdefault(threads, {})[op] = rec
        if op.startswith("ingest/"):
            ingest[op] = rec
        if op.startswith("server/sweep/"):
            sweep[op] = rec
        elif op.startswith("server/"):
            server[op] = rec
        if op == "server/qps":
            qps_records.append(rec)
        if "hardware_concurrency" in rec:
            hardware = int(rec["hardware_concurrency"])

    has_alloc = any(op in rows for rows in alloc.values()
                    for op in ALLOC_OPS)
    if not pairs and not serving and not ingest and not server \
            and not sweep and not scaling and not has_alloc:
        print(f"check_bench: no kernel pairs, serving ops, ingest ops, "
              f"server ops, sweep rows, scaling rows, or store allocation "
              f"rows in {path}", file=sys.stderr)
        return 2

    # Records predating the hardware_concurrency field enforce as before.
    skip_speedups = hardware == 1
    if skip_speedups:
        print(f"check_bench: hardware_concurrency=1 in {path}; speedup "
              f"guards are reported but not enforced")

    failed = False
    if pairs:
        failed |= check_kernel_pairs(path, pairs, skip_speedups)
    if serving and not pairs:
        failed |= check_serving_ops(path, serving, skip_speedups)
    if ingest:
        failed |= check_ingest_ops(path, ingest, skip_speedups)
    if server:
        failed |= check_server_ops(path, server, skip_speedups)
        failed |= check_loops_speedup(path, qps_records, skip_speedups)
    if sweep:
        failed |= check_sweep_ops(path, sweep, skip_speedups)
    if scaling:
        failed |= check_scaling_ops(path, scaling, hardware)
    if has_alloc:
        failed |= check_alloc_ops(path, alloc)
    failed |= check_stats(path, latest)
    return 1 if failed else 0


def main() -> int:
    paths = sys.argv[1:] if len(sys.argv) > 1 else ["BENCH_counting.json"]
    worst = 0
    for path in paths:
        worst = max(worst, check_file(path))
    return worst


if __name__ == "__main__":
    sys.exit(main())
