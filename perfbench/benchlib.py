"""Arithmetic of the benchmark: percentiles, failure accounting, pool
occupancy, span self time, the simulated-stat digest and the per-layer
metrics derived from a perf_layers document. Pure functions only, so
test_benchlib.py can check each one on hand-made inputs."""

import hashlib
import json
import math
import statistics

# Percentiles the tail metric may use, highest first.
PERCENTILE_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

# Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least p%
    of the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    return ordered[_rank(len(ordered), p) - 1]


def _rank(n, p):
    # Rounded first so 99.9% of 10000 is rank 9990, not 9991.
    return max(1, math.ceil(round(p * n / 100.0, 9)))


def beyond(n, p):
    """Samples strictly above the nearest-rank p-th percentile of n."""
    return n - _rank(n, p)


def supported_percentile(n, ladder=PERCENTILE_LADDER):
    """The highest percentile of the ladder with at least MIN_BEYOND of
    n samples beyond it, or None when even the lowest has fewer."""
    for p in ladder:
        if beyond(n, p) >= MIN_BEYOND:
            return p
    return None


def failed_ratio(attempted, failed):
    """Failed operations over attempted ones; a run that attempted
    nothing is a failure of the benchmark itself."""
    if attempted <= 0:
        raise ValueError("no operation was attempted")
    if failed < 0 or failed > attempted:
        raise ValueError("failed must lie in [0, attempted]")
    return failed / attempted


def pool_busy_ratio(pools):
    """Summed cell seconds over the summed capacity (threads x wall) of
    one or more pools, each a (cell seconds, threads, wall) triple."""
    capacity = sum(threads * wall for _, threads, wall in pools)
    if capacity <= 0:
        raise ValueError("pool busy ratio needs threads and wall time")
    return sum(sum(cells) for cells, _, _ in pools) / capacity


def driver_metrics(pools):
    """driver.* of one matrix rep from its gaze_sim pools. The longest
    cell's share is of the rep's summed matrix wall time."""
    wall = sum(w for _, _, w in pools)
    longest = max((max(cells) for cells, _, _ in pools if cells),
                  default=0.0)
    return {"driver.pool_busy_ratio": pool_busy_ratio(pools),
            "driver.longest_cell_share": longest / wall}


def baseline_hit_ratio(cells, baselines):
    """Share of prefetcher cells whose baseline no simulation of their
    own produced: gaze_sim simulates each baseline once and shares it
    with every cell of its workload."""
    return (cells - baselines) / cells if cells else 0.0


def best_of(samples):
    """Best of N: the smallest value of each key over @p samples, a
    list of dicts mapping a key to a time. A key missing from some
    samples takes its best over the others."""
    out = {}
    for s in samples:
        for k, v in s.items():
            out[k] = min(v, out.get(k, v))
    return out


def host_scale(ref_s, calib_s):
    """Factor from host seconds to reference seconds: the reference
    kernel time @p ref_s over the fastest of the run's kernel times
    @p calib_s. The fastest is the one other tenants disturbed least,
    so it follows the host's own speed, not their bursts."""
    if not calib_s or min(calib_s) <= 0:
        raise ValueError("host scale needs positive kernel times")
    return ref_s / min(calib_s)


def _covered(intervals):
    """Length of the union of [t0, t1) intervals."""
    total, end = 0, None
    for t0, t1 in sorted(intervals):
        if end is None or t0 >= end:
            total += t1 - t0
            end = t1
        elif t1 > end:
            total += t1 - end
            end = t1
    return total


def self_times(spans):
    """Self time of every span: its duration minus the part of it its
    child spans cover, minus the summed hook and fetch time recorded on
    it (children too frequent to log one by one). Spans are dicts with
    log, id, parent, t0 and t1; the result maps (log, id) to ns."""
    children = {}
    for s in spans:
        if s["parent"] >= 0:
            children.setdefault((s["log"], s["parent"]), []).append(
                (s["t0"], s["t1"]))
    out = {}
    for s in spans:
        key = (s["log"], s["id"])
        inner = _covered(children.get(key, []))
        inner += s.get("hook_ns", 0) + s.get("fetch_ns", 0)
        out[key] = (s["t1"] - s["t0"]) - inner
    return out


# Simulated statistics that every engine and trace source must
# reproduce exactly; host-time fields are left out.
DIGEST_FIELDS = ("cycles_total", "pf_issued", "pf_filled", "pf_useful",
                 "pf_late")


def cell_digest_key(cell):
    """The engine-invariant identity of one cell's simulated result."""
    schemes = tuple((s["name"], s["issued"], s["filled"], s["useful"],
                     s["late"], s["useless"])
                    for s in cell.get("schemes", []))
    return tuple(cell[f] for f in DIGEST_FIELDS) + (schemes,)


def digest(cells):
    """sha256 over the sorted (label, stats) pairs of @p cells, a dict
    mapping a cell label to its stats dict."""
    h = hashlib.sha256()
    for label in sorted(cells):
        h.update(json.dumps([label, cell_digest_key(cells[label])])
                 .encode())
    return h.hexdigest()


def gaze_sim_cells(doc, cores=1):
    """Cells of a gaze_sim BENCH document, keyed "<pf>|<wl>|<cores>c",
    with the cycle total the engines agree on."""
    out = {}
    for c in doc["cells"]:
        cell = dict(c)
        cell["cycles_total"] = c["cycles_executed"] + c["cycles_skipped"]
        out["%s|%s|%dc" % (c["prefetcher"], c["workload"], cores)] = cell
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(doc, schemes):
    """Per-layer metrics from a perf_layers output document.

    Times come from the traced pass (and the standalone record/decode
    spans); the overhead compares the traced pass's cell time with the
    plain pass's on the same cells. prefetchers.* covers @p schemes, the
    ones the workload runs; campaign.* and serve.* exist only for a
    serve document."""
    spans = doc["spans"]
    traced = [s for s in spans if s["pass"] == "traced"]
    plain = [s for s in spans if s["pass"] == "plain"]
    standalone = [s for s in spans if s["pass"] == "setup"]
    selfs = self_times(traced)

    def named(group, name):
        return [s for s in group if s["name"] == name]

    def total(group):
        return sum(s["t1"] - s["t0"] for s in group)

    cells = named(traced, "cell")
    cell_ns = total(cells)
    sim_spans = named(traced, "run") + named(traced, "simulate")
    sim_self = sum(selfs[(s["log"], s["id"])] for s in sim_spans)
    instructions = sum(c["instructions"] for c in cells)
    measured = sum(c["measured_instructions"] for c in cells)
    events = sum(c["events"] for c in cells)
    executed = sum(c["cycles_executed"] for c in cells)
    skipped = sum(c["cycles_skipped"] for c in cells)

    gen = named(traced, "gen") + named(standalone, "gen")
    cell_gen = named(traced, "gen")
    record = named(standalone, "record")
    file_fetch = [s for s in sim_spans if s.get("from_file")]
    if file_fetch:
        decode_ns = sum(s["fetch_ns"] for s in file_fetch)
        decode_n = sum(s["fetches"] for s in file_fetch)
    else:
        decode = named(standalone, "decode")
        decode_ns = total(decode)
        decode_n = sum(s["records"] for s in decode)

    kinstr = instructions / 1000.0
    mkinstr = measured / 1000.0
    m = {
        "workloads.gen_ns_per_record":
            _ratio(total(gen), sum(s["records"] for s in gen)),
        "workloads.gen_share": _ratio(total(cell_gen), cell_ns),
        "tracing.record_ns_per_record":
            _ratio(total(record), sum(s["records"] for s in record)),
        "tracing.decode_ns_per_record": _ratio(decode_ns, decode_n),
        "sim.self_ns_per_instr": _ratio(sim_self, instructions),
        "sim.ns_per_executed_cycle": _ratio(sim_self, executed),
        "sim.ns_per_event": _ratio(sim_self, events),
        # Self time: trace generation runs inside construction.
        "sim.construct_ms":
            _ratio(sum(selfs[(s["log"], s["id"])]
                       for s in named(traced, "construct")) / 1e6,
                   len(named(traced, "construct"))),
        "sim.skip_fraction": _ratio(skipped, executed + skipped),
        "sim.events_per_kinstr": _ratio(events, kinstr),
        "sim.executed_cycles_per_kinstr": _ratio(executed, kinstr),
        "sim.l1d.accesses_per_kinstr":
            _ratio(sum(c["l1d_accesses"] for c in cells), mkinstr),
        "sim.l2.accesses_per_kinstr":
            _ratio(sum(c["l2_accesses"] for c in cells), mkinstr),
        "sim.llc.misses_per_kinstr":
            _ratio(sum(c["llc_miss"] for c in cells), mkinstr),
        "sim.mshr_merges_per_kinstr":
            _ratio(sum(c["mshr_merges"] for c in cells), mkinstr),
        "sim.dram.requests_per_kinstr":
            _ratio(sum(c["dram_requests"] for c in cells), mkinstr),
    }

    useful, filled = {}, {}
    for c in cells:
        for s in c["schemes"]:
            base = s["name"].split("@")[0]
            useful[base] = useful.get(base, 0) + s["useful"]
            filled[base] = filled.get(base, 0) + s["filled"]
    for name in schemes:
        t = doc["schemes"].get(name, {})
        hooks = t.get("train_ns", 0) + t.get("fill_ns", 0) \
            + t.get("tick_ns", 0)
        p = "prefetchers.%s." % name
        m[p + "train_ns"] = _ratio(t.get("train_ns", 0),
                                   t.get("train_calls", 0))
        m[p + "fill_ns"] = _ratio(t.get("fill_ns", 0),
                                  t.get("fill_calls", 0))
        m[p + "tick_ns"] = _ratio(t.get("tick_ns", 0),
                                  t.get("tick_calls", 0))
        m[p + "share"] = _ratio(hooks, cell_ns)
        m[p + "accuracy"] = _ratio(useful.get(name, 0),
                                   filled.get(name, 0))

    plain_ns = total(named(plain, "cell"))
    m["bench.tracing_overhead_ratio"] = \
        _ratio(cell_ns, plain_ns) - 1.0 if plain_ns else 0.0

    if doc.get("mode") != "serve":
        return m

    def mean_of(name, scale):
        group = named(traced, name) + named(standalone, name)
        return _ratio(total(group) / scale, len(group))

    m["campaign.json_parse_us"] = mean_of("parse", 1e3)
    m["campaign.expand_ms"] = mean_of("expand", 1e6)
    m["campaign.cache_lookup_us"] = mean_of("lookup", 1e3)
    m["campaign.cache_store_us"] = mean_of("store", 1e3)
    m["campaign.report_ms"] = mean_of("report", 1e6)
    m.update(serve_layer(named(traced, "submit")))
    return m


def serve_layer(submits):
    """serve.* from the in-process submissions' event timelines."""
    waits, cells, cached, shared, enqueued, rejected = [], 0, 0, 0, 0, 0
    for s in submits:
        events = s["events"]
        accepted = [e for t, e in events if e["event"] == "accepted"]
        if not accepted:
            rejected += 1
            continue
        a = accepted[0]
        cells += a["cells"]
        cached += a["cached"]
        shared += a["shared"]
        enqueued += a["enqueued"]
        t_acc = next(t for t, e in events if e["event"] == "accepted")
        # A submission answered wholly from the cache has no progress
        # event: its wait ends at the report.
        t_next = next((t for t, e in events
                       if e["event"] in ("progress", "report", "error")),
                      t_acc)
        waits.append((t_next - t_acc) / 1e6)
    n = len(submits)
    return {
        "serve.queue_wait_ms": percentile(waits, 50) if waits else 0.0,
        "serve.cache_hit_ratio": _ratio(cached, cells),
        "serve.dedup_ratio": _ratio(shared, cells),
        "serve.executed_per_submit": _ratio(enqueued, n),
        "serve.rejected": rejected,
    }
