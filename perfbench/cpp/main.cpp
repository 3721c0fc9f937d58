// perfbench_workload: runs one benchmark workload in this process and
// writes its observations as JSON for perfbench/run.py.
//
//   perfbench_workload <mxp_solve|serve_zipf|fleetsim_frontier>
//       --seed N --seconds S --trace 0|1 --out result.json
//       [--spans trace.json] --data perfbench/data
//
// Exit status: 0 when the workload ran to the end (its correctness checks
// are verdicts in the document, judged by run.py), 1 on an error that
// stopped it, 2 on bad usage.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>

#include "harness.h"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_workload: %s\n"
               "usage: perfbench_workload <mxp_solve|serve_zipf|"
               "fleetsim_frontier> --seed N --seconds S --trace 0|1 "
               "--out FILE [--spans FILE] --data DIR\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using perfbench::Options;
  if (argc < 2) {
    return usage("missing workload");
  }
  if ((argc - 2) % 2 != 0) {
    return usage("flag without a value");
  }
  Options options;
  options.workload = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.traced = value == "1";
    } else if (flag == "--out") {
      options.outPath = value;
    } else if (flag == "--spans") {
      options.tracePath = value;
    } else if (flag == "--data") {
      options.dataDir = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (options.outPath.empty() || options.dataDir.empty() ||
      !(options.seconds > 0.0)) {
    return usage("--out, --data and a positive --seconds are required");
  }
  if (options.traced && options.tracePath.empty()) {
    return usage("a traced run needs --spans");
  }

  try {
    perfbench::JsonObject doc;
    perfbench::SpanRecorder recorder;
    perfbench::SpanRecorder* spans = options.traced ? &recorder : nullptr;
    doc.text("workload", options.workload)
        .count("seed", options.seed)
        .num("seconds", options.seconds)
        .flag("traced", options.traced);
    if (options.workload == "mxp_solve") {
      perfbench::runMxpSolve(options, doc, spans);
    } else if (options.workload == "serve_zipf") {
      perfbench::runServeZipf(options, doc, spans);
    } else if (options.workload == "fleetsim_frontier") {
      perfbench::runFleetsimFrontier(options, doc, spans);
    } else {
      return usage(("unknown workload " + options.workload).c_str());
    }
    doc.num("peak_rss_mb", perfbench::peakRssMb());
    if (spans != nullptr) {
      doc.count("spans", spans->size());
      spans->write(options.tracePath);
    }
    std::ofstream out(options.outPath);
    out << doc.str() << "\n";
    if (!out) {
      std::fprintf(stderr, "perfbench_workload: cannot write %s\n",
                   options.outPath.c_str());
      return 1;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_workload: %s failed: %s\n",
                 options.workload.c_str(), e.what());
    return 1;
  }
  return 0;
}
