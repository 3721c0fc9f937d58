"""Turns one workload run's observations into the benchmark's metrics.

Each run of the workload program (cpp/, one process per run) writes a JSON
document of raw observations. The functions here derive from it:

  * end_to_end(docs) -> the BENCHMARK.json end-to-end metrics of one run,
    pooled over its processes; every workload reports them under the same
    names (README.md says what each means on each workload);
    sample_counts(docs) gives the sample count of each median;
  * extras(docs)     -> figures that are printed but not gated (the paper's
    GF/s, tail latency, peak RSS, fail rate);
  * failures(docs)   -> (attempted, failed operations, failed checks);
  * per_layer(traced, untraced, spans) -> the per-layer metrics of a traced
    run, plus the checks that compare it with the untraced run.
"""

import stats

WORKLOADS = ("mxp_solve", "serve_zipf", "fleetsim_frontier")
FLEETSIM_CLASSES = (
    "lu-iteration", "lu-panel-arrival", "lu-done", "request-arrival",
    "batch-window", "solve-done", "crash", "resurrect", "slowdown",
    "heartbeat", "hedge-fire",
)


def _solve_ok(s):
    return (not s["error"] and s["converged"]
            and s["scaled_residual"] is not None
            and 0.0 <= s["scaled_residual"] < 1.0)


def _request_ok(r):
    return r["status"] == "completed" and r["converged"]


def _ops(doc):
    """(operation records, per-record ok flags) of a workload document."""
    if doc["workload"] == "mxp_solve":
        return doc["solves"], [_solve_ok(s) for s in doc["solves"]]
    if doc["workload"] == "serve_zipf":
        return doc["requests"], [_request_ok(r) for r in doc["requests"]]
    return None, None


def failures(docs):
    """(attempted operations, failed operations, failed checks)."""
    attempted = failed_ops = failed_checks = 0
    for doc in docs:
        failed_checks += sum(1 for c in doc["checks"] if not c["ok"])
        if doc["workload"] == "fleetsim_frontier":
            c = doc["counters"]
            attempted += c["submitted"]
            failed_ops += c["submitted"] - c["completed"]
        else:
            records, ok = _ops(doc)
            attempted += len(records)
            failed_ops += ok.count(False)
    return attempted, failed_ops, failed_checks


def _latency_samples(docs):
    """Per-operation latency samples in ms (failed operations are +inf);
    empty for fleetsim_frontier, whose operations run on virtual time."""
    samples = []
    for doc in docs:
        if doc["workload"] == "fleetsim_frontier":
            continue
        records, ok = _ops(doc)
        key = "wall_s" if doc["workload"] == "mxp_solve" else "total_s"
        samples += stats.latencies([r[key] * 1e3 for r in records], ok)
    return samples


def _ops_per_s(docs):
    """Operations completed per second of measured time, over all docs."""
    done = seconds = 0.0
    for doc in docs:
        if doc["workload"] == "fleetsim_frontier":
            done += doc["counters"]["submitted"]
            seconds += doc["run_s"] + doc["report_s"]
        else:
            done += _ops(doc)[1].count(True)
            seconds += doc["window_s"]
    return done / seconds


def end_to_end(docs):
    """The gated metrics of one run: every process's samples pooled.
    A metric the workload has no samples for is None."""
    samples = _latency_samples(docs)
    return {
        "ops_per_s": _ops_per_s(docs),
        "p50_ms": stats.median(samples) if samples else None,
        "setup_s": stats.median([s for d in docs for s in d["setup_s"]]),
    }


def sample_counts(docs):
    """How many samples each median of end_to_end(docs) is taken over."""
    return {
        "p50_ms": len(_latency_samples(docs)),
        "setup_s": sum(len(d["setup_s"]) for d in docs),
    }


def extras(docs):
    """Printed, ungated figures: (name, value, unit, note) tuples."""
    out = []
    samples = _latency_samples(docs)
    t = stats.tail(samples) if samples else None
    if not samples:
        out.append(("tail_ms", None, "ms", "no latency samples"))
    elif t is None:
        out.append(("tail_ms", None, "ms",
                    f"no percentile has {stats.MIN_BEYOND} of "
                    f"{len(samples)} samples beyond it"))
    else:
        q, value, count = t
        out.append((f"p{q * 100:g}_ms", value, "ms",
                    f"{len(samples)} samples, {count} beyond"))
    out.append(("peak_rss_mb", max(d["peak_rss_mb"] for d in docs), "MB",
                f"largest of {len(docs)} processes"))
    workload = docs[0]["workload"]
    if workload == "mxp_solve":
        out.append(("gflops", _paper_gflops(docs), "GF/s",
                    "(2/3 N^3 + 3/2 N^2) / median factor+IR seconds"))
    if workload == "serve_zipf":
        deltas = [_counter_delta(d) for d in docs]
        lookups = sum(d["lookups"] for d in deltas)
        if lookups:
            out.append(("hit_rate", sum(d["hits"] for d in deltas) / lookups,
                        "", f"{lookups} cache lookups in the window"))
    attempted, failed_ops, failed_checks = failures(docs)
    out.append(("fail_rate",
                stats.fail_rate(attempted, failed_ops, failed_checks), "",
                f"{failed_ops} of {attempted} operations failed, "
                f"{failed_checks} checks failed"))
    return out


def _paper_gflops(docs):
    """The paper's rate: HPL-MxP flops over the median factor+IR time of
    the solves that passed (0 when none did)."""
    paper = [r["factor_s"] + r["ir_s"] for d in docs
             for r, good in zip(*_ops(d)) if good]
    if not paper:
        return 0.0
    return docs[0]["flops_per_solve"] / stats.median(paper) / 1e9


def _counter_delta(doc):
    """Fleet counters of the timed window (end minus after warm-up)."""
    warm, end = doc["counters_warm"], doc["counters_end"]
    delta = {k: end[k] - warm[k] for k in end if k != "routed"}
    delta["routed"] = [e - w for e, w in zip(end["routed"], warm["routed"])]
    return delta


def _rate(probe, field):
    """Computed work (flops or bytes) over the median probe time."""
    return probe[field] / stats.median(probe["seconds"])


def _mxp_layers(doc, untraced, spans):
    solves = [s for s in doc["solves"] if _solve_ok(s)]
    ms = lambda key: stats.median([s[key] for s in solves]) * 1e3
    m = {
        "core.factor_ms": ms("factor_s"),
        "core.ir_ms": ms("ir_s"),
        "core.ir_iterations": stats.median(
            [s["ir_iterations"] for s in solves]),
        "core.untracked_ms":
            stats.median(stats.self_times_by_name(spans, "core.factor"))
            * 1e3,
        "gen.spawn_fill_ms":
            stats.median(stats.self_times_by_name(spans, "mxp.solve")) * 1e3,
        "simmpi.wait_ms_max":
            stats.median([max(s["wait_s"]) for s in solves]) * 1e3,
        "simmpi.wait_ms_mean":
            stats.median([stats.mean(s["wait_s"]) for s in solves]) * 1e3,
        "simmpi.panel_mb": doc["panel_bytes_per_solve"] / 1e6,
    }
    for phase in ("diag", "trsm", "cast", "bcast", "gemm"):
        m[f"core.{phase}_ms"] = ms(f"{phase}_s")
    p = doc["probes"]
    m["simmpi.bcast_gbs"] = _rate(p["bcast"], "bytes") / 1e9
    m["blas.gemm_gflops"] = _rate(p["gemm"], "flops") / 1e9
    m["blas.gemm_flop_per_byte"] = p["gemm"]["flops"] / p["gemm"]["bytes"]
    m["blas.getrf_gflops"] = _rate(p["getrf"], "flops") / 1e9
    m["blas.trsm_gflops"] = _rate(p["trsm"], "flops") / 1e9
    m["blas.cast_gbs"] = _rate(p["cast"], "bytes") / 1e9
    model = doc["model"]
    for phase, term in (("getrf", "diag"), ("trsm", "trsm"),
                        ("bcast", "bcast"), ("gemm", "gemm")):
        m[f"perfmodel.ratio.{phase}"] = (
            m[f"core.{term}_ms"] / 1e3 / model[f"{phase}_s"])
    # The paper's rate, from the untraced solves of the same invocation.
    m["core.gflops"] = _paper_gflops([untraced])
    checks = []
    pairs = list(zip(untraced["solves"], doc["solves"]))
    same = sum(1 for u, t in pairs if u["solution"] == t["solution"])
    checks.append(("mxp.traced_bitwise", bool(pairs) and same == len(pairs),
                   f"{same} of {len(pairs)} seeds give the same solution "
                   "traced and untraced"))
    return m, checks


def _serve_layers(doc, untraced, spans):
    done = [r for r in doc["requests"] if _request_ok(r)]
    misses = [r for r in done if not r["hit"]]
    delta = _counter_delta(doc)
    routed = delta["routed"]
    overhead = [s for s, r in zip(
        stats.self_times_by_name(spans, "serve.request"), doc["requests"])
        if _request_ok(r)]
    m = {
        "serve.queue_ms": stats.median([r["queue_s"] for r in done]) * 1e3,
        "serve.solve_ms": stats.median([r["solve_s"] for r in done]) * 1e3,
        "serve.factor_ms":
            stats.mean([r["factor_s"] for r in misses]) * 1e3
            if misses else 0.0,
        "fleet.overhead_ms": stats.median(overhead) * 1e3,
        "serve.batch_cols": stats.mean([r["batch"] for r in done]),
        "serve.hit_rate": delta["hits"] / delta["lookups"],
        "serve.factors": delta["factors"],
        "serve.evictions": delta["evictions"],
        "serve.coalesced": delta["coalesced"],
        "serve.refactor_ratio":
            delta["factors"] / len({r["key"] for r in doc["requests"]}),
        "core.ir_iterations_mean":
            stats.mean([r["ir_iterations"] for r in done]),
        "fleet.route_skew": max(routed) / stats.mean(routed),
        "fleet.affinity_hits": delta["affinity_hits"],
        "fleet.reroutes": delta["reroutes"],
        "fleet.health_detours": delta["health_detours"],
        "fleet.quarantines": delta["quarantines"],
        "fleet.failovers": delta["failovers"],
        "simmpi.group_jobs": delta["group_jobs"],
    }
    p = doc["probes"]
    for name, probe in (("gen.row_regen_ms", "row_regen"),
                        ("core.solve_k1_ms", "solve_k1"),
                        ("core.solve_k4_ms", "solve_k4"),
                        ("core.factor_single_ms", "factor_single"),
                        ("blas.strsm_mixed_ms", "strsm_mixed")):
        m[name] = stats.median(p[probe]) * 1e3
    checks = [("serve.group_jobs_equal_factors",
               delta["group_jobs"] == delta["factors"],
               f"{delta['group_jobs']} group jobs, "
               f"{delta['factors']} factorizations")]
    return m, checks


def _fleetsim_layers(doc, untraced, spans):
    c = doc["counters"]
    plain = end_to_end([untraced])
    m = {
        # The simulator's own speed, untraced: not gated (see README.md).
        "fleetsim.sim_requests_per_s": plain["ops_per_s"],
        "fleetsim.events": c["events"],
        "fleetsim.peak_pending": doc["peak_pending"],
        "fleetsim.report_s": doc["report_s"],
        "fleetsim.trace_s": stats.median(doc["trace_s"]),
        "fleetsim.session_s": stats.median(doc["session_s"]),
        "fleetsim.hedges": c["hedges"],
        "fleetsim.hedge_win_ratio":
            c["hedge_wins"] / c["hedges"] if c["hedges"] else 0.0,
        "fleetsim.heartbeats": c["heartbeats"],
        "fleetsim.quarantines": c["quarantines"],
    }
    for cls in FLEETSIM_CLASSES:
        events = doc["class_events"][cls]
        m[f"fleetsim.events.{cls}"] = events
        m[f"fleetsim.ns_per_event.{cls}"] = (
            doc["class_seconds"][cls] / events * 1e9 if events else 0.0)
    stepped = sum(doc["class_events"].values())
    checks = [
        ("fleetsim.traced_hash",
         doc["trace_hash"] == untraced["trace_hash"],
         f"peek/step trace hash {doc['trace_hash']}, run() "
         f"{untraced['trace_hash']}"),
        ("fleetsim.class_counts", stepped == c["events"],
         f"{stepped} stepped by class, {c['events']} executed"),
    ]
    return m, checks


_LAYERS = {
    "mxp_solve": _mxp_layers,
    "serve_zipf": _serve_layers,
    "fleetsim_frontier": _fleetsim_layers,
}


def per_layer(traced, untraced, spans):
    """Per-layer metrics of one workload's traced run and the checks that
    compare it with the untraced run: ({name: value}, [(name, ok, detail)]).
    """
    metrics, checks = _LAYERS[traced["workload"]](traced, untraced, spans)
    workload = traced["workload"]
    # Tracing overhead: how much longer an operation takes traced.
    metrics[f"trace.overhead_pct.{workload}"] = (
        _ops_per_s([untraced]) / _ops_per_s([traced]) - 1.0) * 100.0
    metrics[f"mem.peak_rss_mb.{workload}"] = untraced["peak_rss_mb"]
    return metrics, checks
