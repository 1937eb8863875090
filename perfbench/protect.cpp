// protect — the designer's flow on MediaBench-size apps, token-annotated
// kernels and one system-size design, all under DelayModel::dyno(16).
//
// Every design is shipped as text and taken from that text to a verified
// schedule, detection of its own records and P_c.  The corpus is fixed
// (it does not depend on --seed) so the share of implied-edge marks, which
// this workload counts as failed embeds, is a property of the program and
// not of the seed; the seed orders the designs within each round.
#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <sstream>

#include "cdfg/analysis.h"
#include "cdfg/delay_model.h"
#include "cdfg/serialize.h"
#include "common.h"
#include "crypto/signature.h"
#include "dfglib/iir4.h"
#include "dfglib/kernels.h"
#include "dfglib/mediabench.h"
#include "dfglib/synth.h"
#include "exec/thread_pool.h"
#include "oracle.h"
#include "sched/force_directed.h"
#include "sched/kpaths.h"
#include "sched/list_sched.h"
#include "sched/modulo.h"
#include "sched/schedule.h"
#include "wm/detector.h"
#include "wm/pc.h"
#include "wm/sched_constraints.h"

namespace pb {

namespace {

using namespace lwm;

enum class Kind { kApp, kKernel, kSystem };

struct Design {
  std::string name;
  Kind kind = Kind::kApp;
  int marks = 1;
  int tokens = 0;  ///< feedback tokens (kernels)
  cdfg::Graph generated;
  std::string text;
  cdfg::EdgeId feedback;   ///< the add_feedback edge (kernels)
  oracle::Timing timing;   ///< specification timing of `generated`
  std::size_t ops = 0;
};

constexpr int kWorstPaths = 16;

sched::ResourceSet kernel_resources() {
  sched::ResourceSet r = sched::ResourceSet::unlimited();
  r.set_count(cdfg::UnitClass::kAlu, 2);
  r.set_count(cdfg::UnitClass::kMul, 2);
  return r;
}

/// Builds and serializes the fixed corpus.  See README.md for why each
/// design is in it.
std::vector<std::unique_ptr<Design>> make_corpus() {
  std::vector<std::unique_ptr<Design>> out;
  const cdfg::DelayModel model = cdfg::DelayModel::dyno(16);
  for (const char* app : {"PEGWIT", "GSM"}) {
    for (const dfglib::MediabenchApp& a : dfglib::mediabench_table()) {
      if (a.name != app) continue;
      auto d = std::make_unique<Design>();
      d->name = a.name;
      d->kind = Kind::kApp;
      d->marks = 1;
      d->generated = dfglib::make_mediabench_app(a);
      model.annotate(d->generated);
      out.push_back(std::move(d));
    }
  }
  const std::pair<const char*, int> kernels[] = {
      {"iir4", 1}, {"fft8", 2}, {"fft16", 1}};
  for (const auto& [name, tokens] : kernels) {
    auto d = std::make_unique<Design>();
    d->name = name;
    d->kind = Kind::kKernel;
    d->tokens = tokens;
    d->marks = 1;
    const std::string n = name;
    d->generated = n == "iir4"   ? dfglib::iir4_parallel()
                   : n == "fft8" ? dfglib::make_fft(8)
                                 : dfglib::make_fft(16);
    model.annotate(d->generated);
    d->feedback = dfglib::add_feedback(d->generated, tokens);
    out.push_back(std::move(d));
  }
  {
    auto d = std::make_unique<Design>();
    d->name = "system20k";
    d->kind = Kind::kSystem;
    d->marks = 8;
    dfglib::MegaConfig cfg;
    cfg.name = "system20k";
    cfg.shape = dfglib::MegaShape::kStitchedClones;
    cfg.operations = 20'000;
    cfg.width = 64;
    cfg.seed = 20'000;
    d->generated = dfglib::make_mega_design(cfg);
    model.annotate(d->generated);
    out.push_back(std::move(d));
  }
  for (auto& d : out) d->text = cdfg::to_text(d->generated);
  return out;
}

/// Work counts of one round; identical in every round of a run.
struct RoundCounts {
  double marks = 0, edges = 0, implied = 0, roots = 0;
  double pc_calls = 0, pc_exact = 0, pc_saturated = 0;
};

struct LayerTimes {
  double parse = 0, timing = 0, kpaths = 0, plan = 0, embed = 0, fds = 0,
         list = 0, modulo = 0, verify = 0, detect = 0, pc = 0;
  [[nodiscard]] double embed_path() const {
    return parse + timing + kpaths + plan + embed;
  }
  [[nodiscard]] double total() const {
    return embed_path() + fds + list + modulo + verify + detect + pc;
  }
};

class Protect {
 public:
  Protect(Tracer& tracer, Ledger& ledger)
      : tracer_(tracer), ledger_(ledger), pool_(4),
        sig_("perfbench-designer", "protect-key") {}

  void set_corpus(std::vector<std::unique_ptr<Design>> corpus) {
    corpus_ = std::move(corpus);
  }

  /// One design from text to verified schedules, records and P_c.
  /// Returns the design's layer times.
  LayerTimes run_design(Design& d, std::uint64_t group, RoundCounts& rc);

  Tracer& tracer_;
  Ledger& ledger_;
  exec::ThreadPool pool_;
  crypto::Signature sig_;
  std::vector<std::unique_ptr<Design>> corpus_;
};

LayerTimes Protect::run_design(Design& d, std::uint64_t group,
                               RoundCounts& rc) {
  LayerTimes lt;
  Span design_span(tracer_, "protect.design", nullptr, group);
  const std::string where = "protect/" + d.name + ": ";
  const cdfg::EdgeFilter spec = cdfg::EdgeFilter::specification();

  std::optional<cdfg::Graph> parsed;
  {
    std::istringstream in(d.text);
    Span s(tracer_, "cdfg.parse", &lt.parse);
    auto r = cdfg::parse_cdfg_stream(in, d.name);
    if (r.ok()) parsed.emplace(std::move(r).value());
  }
  ledger_.attempt();
  ledger_.check(parsed.has_value(), where + "streaming parse refused its own text");
  if (!parsed) return lt;
  cdfg::Graph& g = *parsed;
  {
    Span s(tracer_, "bench.check");
    const std::string bad = oracle::same_graph(d.generated, g);
    ledger_.check(bad.empty(), where + bad);
  }

  cdfg::BoundedTimingInfo timing;
  {
    Span s(tracer_, "cdfg.timing", &lt.timing);
    timing = cdfg::compute_timing_bounded(g, -1, spec);
  }
  ledger_.attempt();
  {
    Span s(tracer_, "bench.check");
    const std::string bad = oracle::check_timing(g, d.timing, timing);
    ledger_.check(bad.empty(), where + bad);
  }

  std::vector<sched::CriticalPath> paths;
  {
    Span s(tracer_, "sched.kpaths", &lt.kpaths);
    paths = sched::k_worst_paths(g, kWorstPaths, spec);
  }
  ledger_.attempt();
  {
    Span s(tracer_, "bench.check");
    const std::string bad = oracle::check_kpaths(g, paths, d.timing.cp, spec);
    ledger_.check(bad.empty(), where + bad);
  }

  // Apps keep temporal edges off their 16 worst paths; on a kernel those
  // paths cover nearly every op, so kernels use the small-locality key the
  // periodic round-trip tests use.
  wm::SchedWmOptions wopts;
  if (d.kind == Kind::kKernel) {
    wopts.domain.tau = 6;
    wopts.domain.keep_num = 1;
    wopts.domain.keep_den = 1;
    wopts.k = 3;
  } else {
    wopts.avoid_k_worst = kWorstPaths;
  }
  std::optional<wm::PlanContext> ctx;
  {
    Span s(tracer_, "wm.plan_context", &lt.plan);
    ctx.emplace(wm::PlanContext::build(g, wopts));
  }
  std::vector<wm::SchedWatermark> marks;
  std::vector<wm::SchedRecord> records;
  {
    Span s(tracer_, "wm.embed", &lt.embed);
    marks = wm::embed_local_watermarks_parallel(g, sig_, d.marks, wopts,
                                                &pool_, *ctx);
    for (const wm::SchedWatermark& m : marks) {
      records.push_back(wm::SchedRecord::from(m, g));
    }
  }
  ledger_.check(!marks.empty(), where + "no mark could be embedded");
  {
    Span s(tracer_, "bench.check");
    for (const wm::SchedWatermark& m : marks) {
      ledger_.attempt();
      const int implied = oracle::implied_edges(g, m, d.timing.asap);
      rc.marks += 1;
      rc.edges += static_cast<double>(m.constraints.size());
      rc.implied += implied;
      if (implied == static_cast<int>(m.constraints.size())) ledger_.fail();
    }
  }

  const cdfg::EdgeFilter all = cdfg::EdgeFilter::all();
  std::vector<const sched::Schedule*> suspects;
  sched::Schedule fds_s, list_s;
  sched::ModuloResult mod;
  wm::SchedPcAutoOptions pc_opts;
  pc_opts.enumeration.pool = &pool_;

  if (d.kind == Kind::kKernel) {
    const sched::ResourceSet res = kernel_resources();
    {
      Span s(tracer_, "sched.modulo", &lt.modulo);
      sched::ModuloOptions mo;
      mo.resources = res;
      mod = sched::modulo_schedule(g, mo);
    }
    sched::ScheduleCheck chk;
    {
      Span s(tracer_, "sched.verify", &lt.verify);
      chk = sched::verify_periodic_schedule(g, mod.schedule, mod.ii,
                                            cdfg::EdgeFilter::periodic(), res);
    }
    ledger_.attempt(2);
    ledger_.check(chk.ok, where + "verify_periodic_schedule refused the modulo schedule");
    {
      Span s(tracer_, "bench.check");
      const std::string bad = oracle::check_periodic(g, mod.schedule, mod.ii, res);
      ledger_.check(bad.empty(), where + bad);
      // add_feedback closes a cycle that weighs exactly the critical path
      // of the unmarked kernel; on the marked graph temporal edges may
      // only lengthen it, and RecMII follows the marked cycle.
      const int skeleton_cycle = oracle::feedback_cycle_weight(d.generated, d.feedback);
      ledger_.check(skeleton_cycle == d.timing.cp,
                    where + "feedback cycle weighs " + std::to_string(skeleton_cycle) +
                        ", not the critical path " + std::to_string(d.timing.cp));
      const int cycle = oracle::feedback_cycle_weight(g, d.feedback);
      const int rec = (cycle + d.tokens - 1) / d.tokens;
      const int resm = oracle::res_mii(g, res);
      ledger_.check(mod.rec_mii == rec && mod.res_mii == resm,
                    where + "RecMII/ResMII " + std::to_string(mod.rec_mii) + "/" +
                        std::to_string(mod.res_mii) + " != benchmark's " +
                        std::to_string(rec) + "/" + std::to_string(resm));
      ledger_.check(mod.ii >= std::max(rec, resm),
                    where + "II below max(ResMII, RecMII)");
    }
    suspects.push_back(&mod.schedule);
    pc_opts.ii = mod.ii;
  } else {
    const bool with_fds = d.kind == Kind::kApp;
    // Time-constrained FDS at the marked design's own critical path.
    int latency = 0;
    {
      Span s(tracer_, "cdfg.timing", &lt.timing);
      latency = cdfg::critical_path_length(g, all);
    }
    if (with_fds) {
      Span s(tracer_, "sched.fds", &lt.fds);
      sched::FdsOptions fo;
      fo.latency = latency;
      fo.eps_dg = sched::kDefaultEpsDg;
      fo.pool = &pool_;
      fds_s = sched::force_directed_schedule(g, fo);
    }
    {
      Span s(tracer_, "sched.list", &lt.list);
      sched::ListScheduleOptions lo;
      lo.resources = sched::ResourceSet::vliw4();
      list_s = sched::list_schedule(g, lo);
    }
    bool ok = true;
    {
      Span s(tracer_, "sched.verify", &lt.verify);
      if (with_fds) {
        ok = sched::verify_schedule(g, fds_s, all,
                                    sched::ResourceSet::unlimited(), latency)
                 .ok;
      }
      ok = ok && sched::verify_schedule(g, list_s, all, sched::ResourceSet::vliw4()).ok;
    }
    ledger_.attempt(with_fds ? 3 : 2);
    ledger_.check(ok, where + "verify_schedule refused a schedule");
    {
      Span s(tracer_, "bench.check");
      if (with_fds) {
        const int want = oracle::longest_paths(g, all).cp;
        ledger_.check(want == latency, where + "marked critical path " +
                                           std::to_string(latency) + " != oracle " +
                                           std::to_string(want));
        const std::string bad = oracle::check_flat(
            g, fds_s, all, sched::ResourceSet::unlimited(), latency);
        ledger_.check(bad.empty(), where + "FDS: " + bad);
        suspects.push_back(&fds_s);
      }
      const std::string bad =
          oracle::check_flat(g, list_s, all, sched::ResourceSet::vliw4(), -1);
      ledger_.check(bad.empty(), where + "list: " + bad);
    }
    suspects.push_back(&list_s);
  }

  for (const sched::Schedule* s : suspects) {
    std::vector<wm::SchedDetectionReport> reports;
    {
      Span sp(tracer_, "wm.detect", &lt.detect);
      reports = wm::detect_sched_watermarks(g, *s, sig_, records, &pool_);
    }
    ledger_.attempt();
    for (const wm::SchedDetectionReport& r : reports) {
      ledger_.check(r.detected(), where + "a record was not detected on a legal schedule");
      rc.roots += r.roots_scanned;
    }
  }

  const bool exact_path = g.node_count() <= pc_opts.poisson_node_threshold;
  for (const wm::SchedWatermark& m : marks) {
    wm::PcEstimate e;
    {
      Span s(tracer_, "wm.pc", &lt.pc);
      e = wm::sched_pc_auto(g, m, pc_opts);
    }
    ledger_.attempt();
    ledger_.check(std::isfinite(e.log10_pc) && e.log10_pc <= 0.0,
                  where + "log10 P_c " + std::to_string(e.log10_pc));
    rc.pc_calls += 1;
    rc.pc_exact += e.exact ? 1 : 0;
    rc.pc_saturated += exact_path && !e.exact ? 1 : 0;
  }
  return lt;
}

}  // namespace

void run_protect(const Options& opt, Tracer& tracer, Ledger& ledger,
                 Workload& out) {
  Protect p(tracer, ledger);
  for (int rep = 0; rep < 9; ++rep) {
    const Clock::time_point t0 = Clock::now();
    auto corpus = make_corpus();
    out.setup_s.push_back(ms_since(t0) / 1000.0);
    p.set_corpus(std::move(corpus));
  }
  std::size_t total_ops = 0;
  for (auto& d : p.corpus_) {
    d->timing = oracle::longest_paths(d->generated, cdfg::EdgeFilter::specification());
    d->ops = d->generated.operation_count();
    total_ops += d->ops;
  }
  double text_mb = 0;
  for (auto& d : p.corpus_) text_mb += static_cast<double>(d->text.size()) / 1048576.0;

  // Per design, the flow time and the embed-path time of every round; the
  // end-to-end figures use each design's median over the rounds, so one
  // slow round on a busy host does not move them.
  std::vector<std::vector<double>> flow_ms(p.corpus_.size()),
      embed_ms(p.corpus_.size());
  std::vector<double> round_wall_untraced, round_wall_traced;
  RoundCounts counts;
  std::uint64_t carved0 = 0, refills0 = 0;
  double traced_rounds = 0;
  const Clock::time_point start = Clock::now();
  for (int round = 0;; ++round) {
    const bool traced = opt.trace && round % 2 == 1;
    tracer.set_enabled(traced);
    std::vector<std::size_t> order(p.corpus_.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::uint64_t x = mix64(opt.seed ^ static_cast<std::uint64_t>(round));
    for (std::size_t i = order.size(); i > 1; --i) {
      x = mix64(x);
      std::swap(order[i - 1], order[x % i]);
    }
    RoundCounts rc;
    const std::uint64_t carved_before = obs_counter("wm/domains_carved");
    const std::uint64_t refills_before = obs_counter("fds/cache_refills");
    const Clock::time_point r0 = Clock::now();
    for (const std::size_t i : order) {
      const LayerTimes lt = p.run_design(
          *p.corpus_[i], static_cast<std::uint64_t>(round) * 1000 + i + 1, rc);
      flow_ms[i].push_back(lt.total());
      embed_ms[i].push_back(lt.embed_path());
    }
    (traced ? round_wall_traced : round_wall_untraced).push_back(ms_since(r0));
    counts = rc;
    carved0 = obs_counter("wm/domains_carved") - carved_before;
    refills0 = obs_counter("fds/cache_refills") - refills_before;
    if (traced) traced_rounds += 1;
    // At least three rounds for the per-design medians (two untraced and
    // two traced in a traced run); no round that would end past --seconds.
    const double elapsed = ms_since(start);
    const bool enough_rounds = round >= (opt.trace ? 3 : 2);
    if (enough_rounds && elapsed + elapsed / (round + 1) > opt.seconds * 1000.0) {
      break;
    }
  }
  tracer.set_enabled(false);

  std::vector<double> design_ms;
  double flow_total = 0, embed_total = 0;
  for (std::size_t i = 0; i < p.corpus_.size(); ++i) {
    design_ms.push_back(median(flow_ms[i]));
    flow_total += design_ms.back();
    embed_total += median(embed_ms[i]);
  }
  const double ops = static_cast<double>(total_ops);
  out.end_to_end.set("ops_per_s", ops / (flow_total / 1000.0), "ops/s");
  out.end_to_end.set("embed_ops_per_s", ops / (embed_total / 1000.0), "ops/s");
  out.end_to_end.set("p50_ms", median(design_ms), "ms");
  out.end_to_end.set("p99_ms", percentile(design_ms, 0.99), "ms");

  Metrics& pl = out.per_layer;
  const std::map<std::string, double> self = tracer.self_ms();
  const auto per_round = [&](const char* span) {
    const auto it = self.find(span);
    return it == self.end() || traced_rounds == 0 ? 0.0 : it->second / traced_rounds;
  };
  pl.set("cdfg.parse_ms", per_round("cdfg.parse"), "ms");
  pl.set("cdfg.parse_mb_per_s",
         per_round("cdfg.parse") > 0 ? text_mb / (per_round("cdfg.parse") / 1000.0) : 0,
         "MB/s");
  pl.set("cdfg.timing_ms", per_round("cdfg.timing"), "ms");
  pl.set("wm.plan_context_ms", per_round("wm.plan_context"), "ms");
  pl.set("wm.embed_ms", per_round("wm.embed"), "ms");
  pl.set("wm.detect_ms", per_round("wm.detect"), "ms");
  pl.set("wm.roots_scanned", counts.roots, "count");
  pl.set("wm.domains_carved", static_cast<double>(carved0), "count");
  pl.set("sched.fds_ms", per_round("sched.fds"), "ms");
  pl.set("sched.fds_refills", static_cast<double>(refills0), "count");
  pl.set("sched.list_ms", per_round("sched.list"), "ms");
  pl.set("sched.modulo_ms", per_round("sched.modulo"), "ms");
  pl.set("sched.kpaths_ms", per_round("sched.kpaths"), "ms");
  pl.set("sched.verify_ms", per_round("sched.verify"), "ms");
  pl.set("wm.pc_ms", per_round("wm.pc"), "ms");
  pl.set("wm.pc_calls", counts.pc_calls, "count");
  pl.set("wm.pc_exact", counts.pc_exact, "count");
  pl.set("wm.pc_saturated", counts.pc_saturated, "count");
  pl.set("wm.marks", counts.marks, "count");
  pl.set("wm.edges", counts.edges, "count");
  pl.set("wm.edges_implied", counts.implied, "count");
  if (!round_wall_traced.empty()) {
    pl.set("trace.overhead_pct",
           100.0 * (median(round_wall_traced) / median(round_wall_untraced) - 1.0),
           "%");
  }
}

}  // namespace pb
