// Golden detection reports: per record, the full hits (root, satisfied,
// total), best_root and roots_scanned of detect_sched_watermarks on one
// dfglib kernel, one MediaBench app and a 10k-op mega-design, pinned
// byte-for-byte and checked at 1, 2 and 8 threads.  Each design is
// scanned three times: by its author under ASAP over the marked graph
// (every constraint holds, so every record detects), by its author under
// a scrambled schedule (pairs hold or fail independently, which pins
// best_root on partial counts), and by a stranger (no root passes the
// structural gate).  The texts were written by the detector before its
// gate-and-count copies were merged into one core; any change to carve
// order, gate, count or tie-break shows here.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "cdfg/analysis.h"
#include "dfglib/kernels.h"
#include "dfglib/mediabench.h"
#include "dfglib/synth.h"
#include "exec/thread_pool.h"
#include "wm/detector.h"

namespace lwm::wm {
namespace {

using cdfg::Graph;

crypto::Signature author() { return {"golden", "golden-detect-key"}; }
crypto::Signature stranger() { return {"stranger", "not-the-author"}; }

struct Case {
  Graph design;  ///< temporal edges stripped after embedding
  std::vector<SchedRecord> records;
  sched::Schedule marked;  ///< ASAP over every edge, marks included
  sched::Schedule scrambled;
};

sched::Schedule asap_marked(const Graph& g) {
  const cdfg::TimingInfo t =
      cdfg::compute_timing(g, -1, cdfg::EdgeFilter::all());
  sched::Schedule s(g);
  for (const cdfg::NodeId n : g.nodes()) s.set_start(n, t.asap[n.value]);
  return s;
}

/// Not a legal schedule: start steps hashed from node ids, so a record's
/// pairs hold or fail independently and best_root lands on partial counts.
sched::Schedule scrambled(const Graph& g) {
  sched::Schedule s(g);
  for (const cdfg::NodeId n : g.nodes()) {
    s.set_start(n, static_cast<int>(n.value * 7919u % 13u));
  }
  return s;
}

Case make_case(Graph g, int marks) {
  SchedWmOptions opts;
  opts.domain.tau = 5;
  opts.k = 4;
  opts.min_edges = 2;
  opts.epsilon = 0.3;
  Case c{std::move(g), {}, {}, {}};
  for (const SchedWatermark& m :
       embed_local_watermarks(c.design, author(), marks, opts)) {
    c.records.push_back(SchedRecord::from(m, c.design));
  }
  c.marked = asap_marked(c.design);
  c.scrambled = scrambled(c.design);
  c.design.strip_temporal_edges();
  return c;
}

Graph mega_10k() {
  dfglib::MegaConfig cfg;
  cfg.name = "golden_mega";
  cfg.operations = 10'000;
  cfg.width = 32;
  cfg.seed = 11;
  return dfglib::make_mega_design(cfg);
}

/// One line per record.  best_root's own count comes from
/// verify_sched_watermark_at, which pins the partial counts the full
/// hits leave out; an invalid best_root (no root passed the gate)
/// prints as "none".
std::string report_text(const Case& c, const sched::Schedule& schedule,
                        const crypto::Signature& sig,
                        const std::vector<SchedDetectionReport>& reports) {
  std::string out;
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const SchedDetectionReport& r = reports[i];
    out += std::to_string(i) + " scanned=" + std::to_string(r.roots_scanned);
    if (r.best_root.valid()) {
      const SchedHit best = verify_sched_watermark_at(
          c.design, schedule, sig, c.records[i], r.best_root);
      out += " best=" + std::to_string(r.best_root.value) + ":" +
             std::to_string(best.satisfied) + "/" + std::to_string(best.total);
    } else {
      out += " best=none";
    }
    out += " hits=";
    for (const SchedHit& h : r.hits) {
      out += " " + std::to_string(h.root.value) + ":" +
             std::to_string(h.satisfied) + "/" + std::to_string(h.total);
    }
    out += "\n";
  }
  return out;
}

/// The three scans of one case, in order: the author on the marked
/// schedule, the author on the scrambled one, a stranger on the marked.
struct Golden {
  const char* marked;
  const char* scrambled;
  const char* stranger;
};

void expect_golden(const Case& c, const Golden& golden) {
  for (const int threads : {1, 2, 8}) {
    const auto pool =
        threads > 1 ? std::make_unique<exec::ThreadPool>(threads) : nullptr;
    const auto scan = [&](const sched::Schedule& s,
                          const crypto::Signature& sig) {
      return report_text(c, s, sig,
                         detect_sched_watermarks(c.design, s, sig, c.records,
                                                 pool.get()));
    };
    const std::string marked = scan(c.marked, author());
    const std::string scrambled = scan(c.scrambled, author());
    const std::string foreign = scan(c.marked, stranger());
    EXPECT_EQ(marked, golden.marked) << threads << " threads:\n" << marked;
    EXPECT_EQ(scrambled, golden.scrambled) << threads << " threads:\n"
                                           << scrambled;
    EXPECT_EQ(foreign, golden.stranger) << threads << " threads:\n" << foreign;
  }
}

TEST(DetectorGoldenTest, KernelFft16) {
  const Case c = make_case(dfglib::make_fft(16), 4);
  expect_golden(c, {
       "0 scanned=320 best=137:2/2 hits= 137:2/2 161:2/2 185:2/2 209:2/2\n"
       "1 scanned=320 best=135:3/3 hits= 135:3/3 159:3/3 183:3/3 207:3/3\n"
       "2 scanned=320 best=149:2/2 hits= 149:2/2 173:2/2 197:2/2 221:2/2\n"
       "3 scanned=320 best=134:3/3 hits= 134:3/3 158:3/3 182:3/3 206:3/3\n",
       "0 scanned=320 best=137:1/2 hits=\n"
       "1 scanned=320 best=135:2/3 hits=\n"
       "2 scanned=320 best=149:2/2 hits= 149:2/2 221:2/2\n"
       "3 scanned=320 best=134:2/3 hits=\n",
       "0 scanned=320 best=none hits=\n"
       "1 scanned=320 best=none hits=\n"
       "2 scanned=320 best=none hits=\n"
       "3 scanned=320 best=none hits=\n"});
}

TEST(DetectorGoldenTest, MediabenchApp) {
  const Case c = make_case(
      dfglib::make_mediabench_app(dfglib::mediabench_table().front()), 6);
  expect_golden(c, {
       "0 scanned=528 best=186:2/2 hits= 186:2/2\n"
       "1 scanned=528 best=428:2/2 hits= 428:2/2\n"
       "2 scanned=528 best=429:2/2 hits= 429:2/2\n"
       "3 scanned=528 best=394:2/2 hits= 394:2/2\n"
       "4 scanned=528 best=466:2/2 hits= 466:2/2\n"
       "5 scanned=528 best=257:3/3 hits= 257:3/3\n",
       "0 scanned=528 best=186:2/2 hits= 186:2/2\n"
       "1 scanned=528 best=428:0/2 hits=\n"
       "2 scanned=528 best=429:0/2 hits=\n"
       "3 scanned=528 best=394:0/2 hits=\n"
       "4 scanned=528 best=466:1/2 hits=\n"
       "5 scanned=528 best=257:1/3 hits=\n",
       "0 scanned=528 best=none hits=\n"
       "1 scanned=528 best=none hits=\n"
       "2 scanned=528 best=none hits=\n"
       "3 scanned=528 best=none hits=\n"
       "4 scanned=528 best=none hits=\n"
       "5 scanned=528 best=none hits=\n"});
}

TEST(DetectorGoldenTest, Mega10k) {
  const Case c = make_case(mega_10k(), 8);
  expect_golden(c, {
       "0 scanned=10000 best=460:3/3 hits= 460:3/3\n"
       "1 scanned=10000 best=328:2/2 hits= 328:2/2\n"
       "2 scanned=10000 best=1493:2/2 hits= 1493:2/2\n"
       "3 scanned=10000 best=5249:2/2 hits= 5249:2/2\n"
       "4 scanned=10000 best=509:2/2 hits= 509:2/2 5169:2/2\n"
       "5 scanned=10000 best=4162:2/2 hits= 4162:2/2 4198:2/2\n"
       "6 scanned=10000 best=6912:2/2 hits= 6912:2/2\n"
       "7 scanned=10000 best=1585:2/2 hits= 1585:2/2\n",
       "0 scanned=10000 best=460:2/3 hits=\n"
       "1 scanned=10000 best=328:1/2 hits=\n"
       "2 scanned=10000 best=1493:0/2 hits=\n"
       "3 scanned=10000 best=5249:0/2 hits=\n"
       "4 scanned=10000 best=509:2/2 hits= 509:2/2 5169:2/2\n"
       "5 scanned=10000 best=4162:0/2 hits=\n"
       "6 scanned=10000 best=6912:2/2 hits= 6912:2/2\n"
       "7 scanned=10000 best=1585:1/2 hits=\n",
       "0 scanned=10000 best=none hits=\n"
       "1 scanned=10000 best=none hits=\n"
       "2 scanned=10000 best=none hits=\n"
       "3 scanned=10000 best=none hits=\n"
       "4 scanned=10000 best=none hits=\n"
       "5 scanned=10000 best=none hits=\n"
       "6 scanned=10000 best=none hits=\n"
       "7 scanned=10000 best=none hits=\n"});
}

}  // namespace
}  // namespace lwm::wm
