// lwm_perfbench — the repository benchmark driver.
//
//   lwm_perfbench --workload protect|scan|serve --seed N --seconds S
//                 --trace 0|1 [--trace-out FILE] [--work-dir DIR]
//
// Runs one workload for about S seconds of measured work (whole rounds),
// checks every output against the benchmark's own oracles, and prints as
// its last stdout line one JSON object: correct, attempted, failed and
// the metrics — the end-to-end metrics untraced, the per-layer metrics
// from a traced run.  See README.md.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.h"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "lwm_perfbench: %s\nusage: lwm_perfbench --workload "
               "protect|scan|serve --seed N --seconds S --trace 0|1 "
               "[--trace-out FILE] [--work-dir DIR]\n",
               why);
  std::exit(2);
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  pb::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value after " + a).c_str());
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        opt.workload = v;
      } else if (a == "--seed") {
        opt.seed = std::stoull(v);
      } else if (a == "--seconds") {
        opt.seconds = std::stoi(v);
      } else if (a == "--trace") {
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        opt.trace = v == "1";
      } else if (a == "--trace-out") {
        opt.trace_out = v;
      } else if (a == "--work-dir") {
        opt.work_dir = v;
      } else {
        usage(("unknown flag " + a).c_str());
      }
    } catch (const std::exception&) {
      usage(("bad value for " + a).c_str());
    }
  }
  if (opt.seconds < 1 || opt.seconds > 600) usage("--seconds out of range");

  pb::Tracer tracer;
  pb::Ledger ledger;
  pb::Workload w;
  try {
    if (opt.workload == "protect") {
      pb::run_protect(opt, tracer, ledger, w);
    } else if (opt.workload == "scan") {
      pb::run_scan(opt, tracer, ledger, w);
    } else if (opt.workload == "serve") {
      pb::run_serve(opt, tracer, ledger, w);
    } else {
      usage("unknown workload");
    }
  } catch (const std::exception& e) {
    // A library exception on a workload input is a wrong output, not a
    // benchmark fault: report it and keep the result line.
    ledger.check(false, std::string("exception: ") + e.what());
  }
  for (const std::string& p : ledger.problems()) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", p.c_str());
  }

  pb::Metrics shown;
  if (opt.trace) {
    for (const auto& [name, unit] : pb::per_layer_metrics()) {
      double v = 0.0;
      for (const auto& [n, vu] : w.per_layer.items) {
        if (n == name) v = vu.first;
      }
      shown.set(name, v, unit);
    }
    if (!opt.trace_out.empty()) {
      if (tracer.write_chrome(opt.trace_out)) {
        std::fprintf(stderr, "trace: %zu spans written to %s\n",
                     tracer.spans().size(), opt.trace_out.c_str());
      } else {
        std::fprintf(stderr, "trace: cannot write %s\n", opt.trace_out.c_str());
      }
    }
  } else {
    shown.set("setup_s", pb::median(w.setup_s), "s");
    shown.set("peak_rss_mb", pb::peak_rss_mb(), "MB");
    for (const auto& [n, vu] : w.end_to_end.items) shown.set(n, vu.first, vu.second);
  }

  std::string out = "{\"correct\": ";
  out += ledger.correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(ledger.attempted());
  out += ", \"failed\": " + std::to_string(ledger.failed());
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : shown.items) {
    out += (first ? "" : ", ") + std::string("\"") + name + "\": {\"value\": " +
           json_number(vu.first) + ", \"unit\": \"" + vu.second + "\"}";
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
  return 0;
}
