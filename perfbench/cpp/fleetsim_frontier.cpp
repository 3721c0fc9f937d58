// fleetsim_frontier: the fleet co-simulator on a 1056-node dragonfly.
//
// One fleetsim::FleetSession on a single thread: an LU sweep at N=16384,
// B=512 on a 32x32 grid plus 1,000,000 synthetic requests (256 keys,
// 0.01 ms apart, n=64/b=16) on 24 shards, open loop on virtual time, with
// the health monitor and hedging on, shard 5 crashed at 2 s and
// resurrected at 6 s, and shard 0 slowed to 0.5x from 3 s. No kernel runs;
// the cost is the event core, the topology hop model, the workloads and
// the shared policy objects.
//
// The untraced run executes the simulation with one Simulator::run(). The
// traced run steps event by event (peek, then step) and times each step by
// event class; run.py checks that both give the same trace hash.
#include <algorithm>
#include <array>
#include <cstdio>
#include <memory>
#include <thread>

#include "fleetsim/fleet_sim.h"
#include "harness.h"
#include "serve/trace_io.h"

namespace perfbench {
namespace {

using hplmxp::index_t;
namespace fleetsim = hplmxp::fleetsim;

constexpr index_t kRequests = 1'000'000;
constexpr index_t kKeys = 256;
constexpr double kGapMs = 0.01;
constexpr index_t kShards = 24;
constexpr int kSetups = 3;
// Event classes are numbered from 0; kHedgeFire is the last.
constexpr std::size_t kClasses =
    static_cast<std::size_t>(fleetsim::EventClass::kHedgeFire) + 1;

fleetsim::FleetSimConfig sessionConfig(const Options& options,
                                       hplmxp::serve::RequestTrace trace) {
  fleetsim::FleetSimConfig config;
  config.topology =
      fleetsim::TopologyConfig::load(options.dataDir + "/frontier_1056.conf");
  config.runLu = true;
  config.lu.n = 16384;
  config.lu.b = 512;
  config.lu.pr = 32;
  config.lu.pc = 32;
  config.runServe = true;
  fleetsim::ServeWorkloadConfig& serve = config.serve;
  serve.trace = std::move(trace);
  serve.shards = kShards;
  serve.health.enabled = true;
  serve.hedgeEnabled = true;
  using Kind = fleetsim::ChaosAction::Kind;
  serve.chaos = {{Kind::kCrash, 2000.0, 5, 0.0},
                 {Kind::kResurrect, 6000.0, 5, 0.0},
                 {Kind::kSlow, 3000.0, 0, 0.5}};
  return config;
}

struct Setup {
  double traceSeconds = 0.0;
  double sessionSeconds = 0.0;
  std::unique_ptr<fleetsim::FleetSession> session;
};

// Trace synthesis, topology load and session construction (which also
// starts the workloads, scheduling every arrival).
Setup setUp(const Options& options) {
  Setup s;
  const double t0 = now();
  hplmxp::serve::RequestTrace trace = hplmxp::serve::makeSyntheticTrace(
      kRequests, kKeys, kGapMs, 64, 16, options.seed);
  const double t1 = now();
  s.session = std::make_unique<fleetsim::FleetSession>(
      sessionConfig(options, std::move(trace)));
  const double t2 = now();
  s.traceSeconds = t1 - t0;
  s.sessionSeconds = t2 - t1;
  return s;
}

}  // namespace

void runFleetsimFrontier(const Options& options, JsonObject& doc,
                         SpanRecorder* spans) {
  std::vector<double> setup;
  std::vector<double> traceSeconds;
  std::vector<double> sessionSeconds;
  Setup s;
  for (int r = 0; r < kSetups; ++r) {
    s.session.reset();  // one session's memory at a time
    const double t0 = now();
    s = setUp(options);
    setup.push_back(s.traceSeconds + s.sessionSeconds);
    traceSeconds.push_back(s.traceSeconds);
    sessionSeconds.push_back(s.sessionSeconds);
    if (spans != nullptr) {
      const std::uint64_t parent = spans->add("fleetsim.setup", t0, now(), 0);
      spans->add("fleetsim.trace", t0, t0 + s.traceSeconds, 0, parent);
      spans->add("fleetsim.session", t0 + s.traceSeconds, now(), 0, parent);
    }
  }
  fleetsim::Simulator& sim = s.session->sim();

  // In a traced run, the per-class event counts and step times.
  std::array<std::uint64_t, kClasses> classEvents{};
  std::array<double, kClasses> classSeconds{};
  std::size_t peakPending = sim.pendingEvents();
  const double runStart = now();
  if (spans == nullptr) {
    sim.run();
  } else {
    while (const fleetsim::Event* next = sim.peek()) {
      const auto cls = static_cast<std::size_t>(next->cls);
      const double t0 = now();
      sim.step();
      classSeconds[cls] += now() - t0;
      ++classEvents[cls];
      peakPending = std::max(peakPending, sim.pendingEvents());
    }
  }
  const double runEnd = now();
  const fleetsim::FleetSimReport report = s.session->report();
  const double reportEnd = now();
  if (spans != nullptr) {
    const std::uint64_t parent =
        spans->add("fleetsim.simulate", runStart, reportEnd, 0);
    spans->add("fleetsim.run", runStart, runEnd, 0, parent);
    spans->add("fleetsim.report", runEnd, reportEnd, 0, parent);
  }

  const fleetsim::ServeStats& st = report.serveCounters;
  const std::uint64_t rejected =
      st.rejectedQueueFull + st.rejectedDeadline + st.rejectedCircuitOpen;
  Checks checks;
  checks.add("fleetsim.request_ledger",
             st.submitted == static_cast<std::uint64_t>(kRequests) &&
                 st.completed + st.failed + rejected == st.submitted,
             "submitted " + std::to_string(st.submitted) + ", completed " +
                 std::to_string(st.completed) + ", failed " +
                 std::to_string(st.failed) + ", rejected " +
                 std::to_string(rejected));
  checks.add("fleetsim.lu_finished", report.hasLu && report.lu.finished,
             std::to_string(report.lu.iterations) + "/" +
                 std::to_string(report.lu.totalIterations) +
                 " LU iterations");

  char hash[20];
  std::snprintf(hash, sizeof hash, "%016llx",
                static_cast<unsigned long long>(report.traceHash));
  JsonObject counters;
  counters.count("submitted", st.submitted)
      .count("completed", st.completed)
      .count("failed", st.failed)
      .count("rejected", rejected)
      .count("events", report.events)
      .count("hedges", st.hedgesIssued)
      .count("hedge_wins", st.hedgeWins)
      .count("heartbeats", st.heartbeats)
      .count("quarantines", st.quarantines);
  doc.raw("env", JsonObject()
                     .count("nproc", std::thread::hardware_concurrency())
                     .count("threads", 1)
                     .count("requests", kRequests)
                     .count("shards", kShards)
                     .count("nodes", static_cast<std::uint64_t>(report.nodes))
                     .str())
      .raw("setup_s", jsonNumbers(setup))
      .raw("trace_s", jsonNumbers(traceSeconds))
      .raw("session_s", jsonNumbers(sessionSeconds))
      .num("run_s", runEnd - runStart)
      .num("report_s", reportEnd - runEnd)
      .text("trace_hash", hash)
      .num("virtual_s", report.virtualSeconds)
      .raw("counters", counters.str());
  if (spans != nullptr) {
    JsonObject events;
    JsonObject seconds;
    for (std::size_t c = 0; c < kClasses; ++c) {
      const char* name =
          fleetsim::toString(static_cast<fleetsim::EventClass>(c));
      events.count(name, classEvents[c]);
      seconds.num(name, classSeconds[c]);
    }
    doc.raw("class_events", events.str())
        .raw("class_seconds", seconds.str())
        .count("peak_pending", peakPending);
  }
  doc.raw("checks", checks.json());
}

}  // namespace perfbench
