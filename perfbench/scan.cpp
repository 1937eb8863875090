// scan — the verifier's and the bulk embedder's flow on one 1M-op layered
// mega-design: streaming parse, whole-graph bounded timing, PlanContext,
// locality-parallel embedding, then the batched detector over every
// record on a suspect schedule and Poisson P_c.
//
// The design is fixed (it does not depend on --seed), so the share of
// implied-edge marks counted as failed embeds is the same in every run;
// the seed drives the suspect schedule, a jittered ASAP that honors every
// edge of the marked graph.
#include <cmath>
#include <optional>
#include <sstream>

#include "cdfg/analysis.h"
#include "cdfg/delay_model.h"
#include "cdfg/serialize.h"
#include "common.h"
#include "crypto/signature.h"
#include "dfglib/synth.h"
#include "exec/thread_pool.h"
#include "oracle.h"
#include "wm/detector.h"
#include "wm/pc.h"
#include "wm/sched_constraints.h"

namespace pb {

namespace {

using namespace lwm;

constexpr int kOps = 1'000'000;
constexpr int kMarks = 256;

cdfg::Graph make_design() {
  dfglib::MegaConfig cfg;
  cfg.name = "scan1m";
  cfg.shape = dfglib::MegaShape::kLayeredDeep;
  cfg.operations = kOps;
  cfg.width = 64;
  cfg.seed = 1'000'000;
  cdfg::Graph g = dfglib::make_mega_design(cfg);
  cdfg::DelayModel::dyno(16).annotate(g);
  return g;
}

}  // namespace

void run_scan(const Options& opt, Tracer& tracer, Ledger& ledger,
              Workload& out) {
  exec::ThreadPool pool(4);
  const crypto::Signature sig("perfbench-designer", "scan-key");
  const cdfg::EdgeFilter spec = cdfg::EdgeFilter::specification();

  std::optional<cdfg::Graph> generated;
  std::string text;
  for (int rep = 0; rep < 3; ++rep) {
    generated.reset();
    text.clear();
    text.shrink_to_fit();
    const Clock::time_point t0 = Clock::now();
    generated.emplace(make_design());
    text = cdfg::to_text(*generated);
    out.setup_s.push_back(ms_since(t0) / 1000.0);
  }
  const oracle::Timing want = oracle::longest_paths(*generated, spec);
  const double text_mb = static_cast<double>(text.size()) / 1048576.0;
  const double ops = static_cast<double>(generated->operation_count());

  std::vector<double> verify_ms, embed_ms, wall_untraced, wall_traced;
  double marks_n = 0, edges_n = 0, implied_n = 0, roots_n = 0;
  std::uint64_t carved = 0;
  double traced_passes = 0;
  const Clock::time_point start = Clock::now();
  for (int pass = 0;; ++pass) {
    const bool traced = opt.trace && pass % 2 == 1;
    tracer.set_enabled(traced);
    const Clock::time_point w0 = Clock::now();
    const std::uint64_t carved_before = obs_counter("wm/domains_carved");
    double parse = 0, timing = 0, plan = 0, embed = 0, detect = 0, pc = 0;
    {
      Span pass_span(tracer, "scan.pass", nullptr,
                     static_cast<std::uint64_t>(pass) + 1);
      std::optional<cdfg::Graph> parsed;
      {
        std::istringstream in(text);
        Span s(tracer, "cdfg.parse", &parse);
        auto r = cdfg::parse_cdfg_stream(in, "scan1m");
        if (r.ok()) parsed.emplace(std::move(r).value());
      }
      ledger.attempt();
      ledger.check(parsed.has_value(), "scan: streaming parse refused its own text");
      if (!parsed) break;
      cdfg::Graph& g = *parsed;
      {
        Span s(tracer, "bench.check");
        const std::string bad = oracle::same_graph(*generated, g);
        ledger.check(bad.empty(), "scan: " + bad);
      }

      cdfg::BoundedTimingInfo bt;
      {
        Span s(tracer, "cdfg.timing", &timing);
        bt = cdfg::compute_timing_bounded(g, -1, spec);
      }
      ledger.attempt();
      {
        Span s(tracer, "bench.check");
        const std::string bad = oracle::check_timing(g, want, bt);
        ledger.check(bad.empty(), "scan: " + bad);
      }

      wm::SchedWmOptions wopts;
      wopts.domain.tau = 4;
      wopts.k = 5;
      std::optional<wm::PlanContext> ctx;
      {
        Span s(tracer, "wm.plan_context", &plan);
        ctx.emplace(wm::PlanContext::build(g, wopts));
      }
      std::vector<wm::SchedWatermark> marks;
      std::vector<wm::SchedRecord> records;
      {
        Span s(tracer, "wm.embed", &embed);
        marks = wm::embed_local_watermarks_parallel(g, sig, kMarks, wopts,
                                                    &pool, *ctx);
        records.reserve(marks.size());
        for (const wm::SchedWatermark& m : marks) {
          records.push_back(wm::SchedRecord::from(m, g));
        }
      }
      ctx.reset();
      ledger.check(!marks.empty(), "scan: no mark could be embedded");
      marks_n = edges_n = implied_n = roots_n = 0;
      {
        Span s(tracer, "bench.check");
        for (const wm::SchedWatermark& m : marks) {
          ledger.attempt();
          const int implied = oracle::implied_edges(g, m, want.asap);
          marks_n += 1;
          edges_n += static_cast<double>(m.constraints.size());
          implied_n += implied;
          if (implied == static_cast<int>(m.constraints.size())) ledger.fail();
        }
      }

      sched::Schedule suspect;
      {
        Span s(tracer, "bench.suspect");
        suspect = oracle::jittered_asap(
            g, mix64(opt.seed) ^ static_cast<std::uint64_t>(pass));
      }
      std::vector<wm::SchedDetectionReport> reports;
      {
        Span s(tracer, "wm.detect", &detect);
        reports = wm::detect_sched_watermarks(g, suspect, sig, records, &pool);
      }
      ledger.attempt(records.size());
      for (const wm::SchedDetectionReport& r : reports) {
        ledger.check(r.detected(), "scan: a record was not detected on a legal schedule");
      }
      if (!reports.empty()) roots_n = reports.front().roots_scanned;

      wm::PcEstimate e;
      {
        Span s(tracer, "wm.pc", &pc);
        e = wm::sched_pc_poisson(g, marks);
      }
      ledger.attempt();
      ledger.check(std::isfinite(e.log10_pc) && e.log10_pc <= 0.0,
                   "scan: log10 P_c " + std::to_string(e.log10_pc));
    }
    carved = obs_counter("wm/domains_carved") - carved_before;
    (traced ? wall_traced : wall_untraced).push_back(ms_since(w0));
    if (traced) traced_passes += 1;
    verify_ms.push_back(parse + detect + pc);
    embed_ms.push_back(parse + timing + plan + embed);
    // Stop before a pass that would end past --seconds; a traced run needs
    // one untraced and one traced pass.
    const double elapsed = ms_since(start);
    const bool enough = !opt.trace || pass >= 1;
    if (enough && elapsed + elapsed / (pass + 1) > opt.seconds * 1000.0) break;
  }
  tracer.set_enabled(false);

  double verify_total = 0, embed_total = 0;
  for (const double v : verify_ms) verify_total += v;
  for (const double v : embed_ms) embed_total += v;
  const double passes = static_cast<double>(verify_ms.size());
  out.end_to_end.set("ops_per_s", ops * passes / (verify_total / 1000.0), "ops/s");
  out.end_to_end.set("embed_ops_per_s", ops * passes / (embed_total / 1000.0),
                     "ops/s");
  out.end_to_end.set("p50_ms", median(verify_ms), "ms");
  out.end_to_end.set("p99_ms", percentile(verify_ms, 0.99), "ms");

  Metrics& pl = out.per_layer;
  const std::map<std::string, double> self = tracer.self_ms();
  const auto per_pass = [&](const char* span) {
    const auto it = self.find(span);
    return it == self.end() || traced_passes == 0 ? 0.0
                                                  : it->second / traced_passes;
  };
  pl.set("cdfg.parse_ms", per_pass("cdfg.parse"), "ms");
  pl.set("cdfg.parse_mb_per_s",
         per_pass("cdfg.parse") > 0 ? text_mb / (per_pass("cdfg.parse") / 1000.0) : 0,
         "MB/s");
  pl.set("cdfg.timing_ms", per_pass("cdfg.timing"), "ms");
  pl.set("wm.plan_context_ms", per_pass("wm.plan_context"), "ms");
  pl.set("wm.embed_ms", per_pass("wm.embed"), "ms");
  pl.set("wm.detect_ms", per_pass("wm.detect"), "ms");
  pl.set("wm.roots_scanned", roots_n, "count");
  pl.set("wm.domains_carved", static_cast<double>(carved), "count");
  pl.set("wm.pc_ms", per_pass("wm.pc"), "ms");
  pl.set("wm.pc_calls", 1, "count");
  pl.set("wm.marks", marks_n, "count");
  pl.set("wm.edges", edges_n, "count");
  pl.set("wm.edges_implied", implied_n, "count");
  if (!wall_traced.empty()) {
    pl.set("trace.overhead_pct",
           100.0 * (median(wall_traced) / median(wall_untraced) - 1.0), "%");
  }
}

}  // namespace pb
