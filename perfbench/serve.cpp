// serve — traffic against the real AF_UNIX Server/Client of lwm-serve.
//
// A corpus of 2.4k–10k-op designs is served to four client connections
// ("lanes").  Every session on a lane is the write/read mix of one user:
// load-design, embed, load-schedule (the schedule embed returned), detect
// (the records embed returned), pc, and on every third session evict.  A
// session's requests go out back to back; each lane owns its own slice of
// the corpus, so no lane evicts a design another lane is using.  The
// DesignStore budget is half the corpus, so cold loads and LRU evictions
// happen throughout.
//
// Two phases:
//   * capacity — a closed loop, every lane running sessions back to back;
//     the completion rate is the highest rate the service sustains with
//     no growing backlog (serve.max_rps, and ops_per_s in design ops/s),
//     and the median session's ops over its load-design + embed latency
//     is embed_ops_per_s;
//   * fixed rate — an open loop over whole corpus cycles: sessions arrive
//     on a seeded Poisson schedule at kFixedRate, each latency is timed
//     from its request's due time (a session's first request is due at
//     its arrival, each later one when the previous reply came back),
//     and the generator's lateness is reported.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>
#include <random>
#include <thread>

#include "cdfg/analysis.h"
#include "cdfg/delay_model.h"
#include "cdfg/serialize.h"
#include "common.h"
#include "dfglib/synth.h"
#include "exec/thread_pool.h"
#include "oracle.h"
#include "sched/schedule_io.h"
#include "serve/frame.h"
#include "serve/server.h"

namespace pb {

namespace {

using namespace lwm;
using serve::Frame;
using serve::MsgType;

constexpr int kLanes = 4;
constexpr int kDesigns = 32;
constexpr int kMinOps = 2'400;  // above the 2048-node exact-P_c threshold
constexpr int kMaxOps = 10'000;
constexpr double kFixedRate = 6.5;  // sessions per second, open loop
constexpr std::uint32_t kMarks = 4, kTau = 4, kK = 5;
constexpr double kEpsilon = 0.25;

enum Req { kLoadDesign, kEmbed, kLoadSchedule, kDetect, kPc, kEvict, kNumReq };
const char* const kReqName[kNumReq] = {"load_design", "embed", "load_schedule",
                                       "detect",      "pc",    "evict"};
const char* const kSpanName[kNumReq] = {"serve.load_design", "serve.embed",
                                        "serve.load_schedule", "serve.detect",
                                        "serve.pc",            "serve.evict"};

struct CorpusDesign {
  std::string text;
  int cp = 0;  ///< oracle d_max critical path
  std::size_t ops = 0;
};

struct Sample {
  Req type = kLoadDesign;
  double ms = 0;  ///< +inf for a failed request
  std::size_t ops = 0;
};

struct LaneLog {
  std::vector<Sample> samples;
  std::vector<double> late_ms;
};

std::vector<CorpusDesign> make_corpus(std::uint64_t seed) {
  std::vector<CorpusDesign> out(kDesigns);
  const cdfg::DelayModel model = cdfg::DelayModel::dyno(16);
  for (int i = 0; i < kDesigns; ++i) {
    dfglib::MegaConfig cfg;
    cfg.name = "serve" + std::to_string(i);
    cfg.shape = dfglib::MegaShape::kLayeredDeep;
    cfg.operations = kMinOps + (kMaxOps - kMinOps) * i / (kDesigns - 1);
    cfg.width = 32;
    cfg.seed = mix64(seed * 131 + static_cast<std::uint64_t>(i));
    cdfg::Graph g = dfglib::make_mega_design(cfg);
    model.annotate(g);
    out[static_cast<std::size_t>(i)].text = cdfg::to_text(g);
    out[static_cast<std::size_t>(i)].ops = g.operation_count();
  }
  return out;
}

class Session {
 public:
  Session(serve::Client& client, Ledger& ledger, Tracer& tracer,
          const CorpusDesign& d, std::string key, bool evict)
      : client_(client), ledger_(ledger), tracer_(tracer), d_(d),
        key_(std::move(key)), evict_(evict) {}

  /// Runs the session's requests back to back, appending one sample per
  /// request.  `due` is the first request's due time.
  void run(Clock::time_point due, std::vector<Sample>& out);

 private:
  /// Sends one request; nullopt (and one failed operation) on transport
  /// failure, an error frame or a reply of the wrong type.
  std::optional<Frame> call(Req type, MsgType want, Frame req);

  serve::Client& client_;
  Ledger& ledger_;
  Tracer& tracer_;
  const CorpusDesign& d_;
  std::string key_;
  bool evict_;
};

std::optional<Frame> Session::call(Req type, MsgType want, Frame req) {
  Span s(tracer_, kSpanName[type]);
  ledger_.attempt();
  std::optional<Frame> reply = client_.call(req);
  if (!reply || reply->type != want) {
    ledger_.fail();
    serve::ErrorInfo info;
    if (reply && reply->type == MsgType::kError &&
        serve::parse_error_frame(*reply, info)) {
      std::fprintf(stderr, "serve: %s answered error %u: %s\n", kReqName[type],
                   static_cast<unsigned>(info.code), info.diag.message.c_str());
    }
    return std::nullopt;
  }
  return reply;
}

void Session::run(Clock::time_point due, std::vector<Sample>& out) {
  const auto wm_params = [&](std::uint64_t id) {
    serve::PayloadWriter w;
    w.put_u64(id);
    w.put_str(key_);
    w.put_u32(kMarks);
    w.put_u32(kTau);
    w.put_u32(kK);
    w.put_f64(kEpsilon);
    return std::move(w).take();
  };
  const int planned = evict_ ? kNumReq : kNumReq - 1;
  int done = 0;
  const auto record = [&](Req type, bool ok) {
    const Clock::time_point now = Clock::now();
    out.push_back({type, ok ? ms_between(due, now) : INFINITY, d_.ops});
    due = now;
    ++done;
  };
  const auto abandon = [&] {
    // The rest of a broken session counts as attempted and failed, so
    // every session attempts the same number of operations.
    for (int i = done; i < planned; ++i) {
      ledger_.attempt();
      ledger_.fail();
      out.push_back({static_cast<Req>(i), INFINITY, d_.ops});
    }
  };

  std::uint64_t id = 0;
  {
    serve::PayloadWriter w;
    w.put_str(d_.text);
    auto r = call(kLoadDesign, MsgType::kDesignLoaded,
                  Frame{MsgType::kLoadDesign, std::move(w).take()});
    record(kLoadDesign, r.has_value());
    if (!r) return abandon();
    serve::PayloadReader rd(r->payload);
    id = rd.get_u64();
    (void)rd.get_u32();
    (void)rd.get_u32();
    const std::uint32_t cp = rd.get_u32();
    (void)rd.get_u32();
    (void)rd.get_u8();
    ledger_.check(rd.complete() && static_cast<int>(cp) == d_.cp,
                  "serve: load-design critical path " + std::to_string(cp) +
                      " != oracle " + std::to_string(d_.cp));
  }
  std::string records, schedule;
  {
    auto r = call(kEmbed, MsgType::kEmbedded, Frame{MsgType::kEmbed, wm_params(id)});
    record(kEmbed, r.has_value());
    if (!r) return abandon();
    serve::PayloadReader rd(r->payload);
    const std::uint32_t marks = rd.get_u32();
    (void)rd.get_u32();
    const double log10_pc = rd.get_f64();
    records = std::string(rd.get_str());
    schedule = std::string(rd.get_str());
    ledger_.check(rd.complete() && marks > 0, "serve: embed returned no mark");
    ledger_.check(std::isfinite(log10_pc) && log10_pc <= 0.0,
                  "serve: embed log10 P_c " + std::to_string(log10_pc));
  }
  std::uint64_t sched_id = 0;
  {
    serve::PayloadWriter w;
    w.put_u64(id);
    w.put_str(schedule);
    auto r = call(kLoadSchedule, MsgType::kScheduleLoaded,
                  Frame{MsgType::kLoadSchedule, std::move(w).take()});
    record(kLoadSchedule, r.has_value());
    if (!r) return abandon();
    serve::PayloadReader rd(r->payload);
    sched_id = rd.get_u64();
    const std::uint32_t length = rd.get_u32();
    ledger_.check(rd.complete() && length > 0, "serve: empty schedule loaded");
  }
  {
    serve::PayloadWriter w;
    w.put_u64(id);
    w.put_u64(sched_id);
    w.put_str(key_);
    w.put_str(records);
    auto r = call(kDetect, MsgType::kDetected, Frame{MsgType::kDetect, std::move(w).take()});
    record(kDetect, r.has_value());
    if (!r) return abandon();
    serve::PayloadReader rd(r->payload);
    const std::uint32_t n = rd.get_u32();
    bool all = n > 0;
    for (std::uint32_t i = 0; i < n && rd.ok(); ++i) {
      all = rd.get_u8() == 1 && all;
      (void)rd.get_u32();
      (void)rd.get_u32();
    }
    (void)rd.get_u32();
    ledger_.check(rd.complete() && all,
                  "serve: detect missed a record embed returned on its own schedule");
  }
  {
    auto r = call(kPc, MsgType::kPcEstimated, Frame{MsgType::kPc, wm_params(id)});
    record(kPc, r.has_value());
    if (!r) return abandon();
    serve::PayloadReader rd(r->payload);
    const double log10_pc = rd.get_f64();
    (void)rd.get_u8();
    (void)rd.get_u8();
    (void)rd.get_u32();
    ledger_.check(rd.complete() && std::isfinite(log10_pc) && log10_pc <= 0.0,
                  "serve: pc log10 P_c " + std::to_string(log10_pc));
  }
  if (evict_) {
    serve::PayloadWriter w;
    w.put_u64(id);
    auto r = call(kEvict, MsgType::kEvicted, Frame{MsgType::kEvict, std::move(w).take()});
    record(kEvict, r.has_value());
  }
}

/// Values of "hits", "misses" and "evictions" in the stats frame's JSON.
std::uint64_t json_field(const std::string& json, const char* key) {
  const std::string pat = std::string("\"") + key + "\":";
  const std::size_t at = json.find(pat);
  return at == std::string::npos ? 0 : std::stoull(json.substr(at + pat.size()));
}

}  // namespace

void run_serve(const Options& opt, Tracer& tracer, Ledger& ledger,
               Workload& out) {
  std::vector<CorpusDesign> corpus;
  std::unique_ptr<exec::ThreadPool> pool;
  std::unique_ptr<serve::Server> server;
  std::vector<serve::Client> clients;
  const std::string sock =
      opt.work_dir + "/perfbench-" + std::to_string(::getpid()) + ".sock";
  for (int rep = 0; rep < 5; ++rep) {
    clients.clear();
    if (server) server->stop();
    server.reset();
    pool.reset();
    const Clock::time_point t0 = Clock::now();
    corpus = make_corpus(opt.seed);
    std::size_t corpus_bytes = 0;
    for (const CorpusDesign& d : corpus) corpus_bytes += d.text.size();
    pool = std::make_unique<exec::ThreadPool>(kLanes);
    serve::ServerOptions so;
    so.socket_path = sock;
    so.service.pool = pool.get();
    so.service.store.max_resident_bytes = corpus_bytes / 2;
    server = std::make_unique<serve::Server>(so);
    std::string err;
    if (!server->start(&err)) throw std::runtime_error("serve: " + err);
    for (int l = 0; l < kLanes; ++l) {
      clients.push_back(serve::Client::connect(sock, &err));
      if (!clients.back().connected()) throw std::runtime_error("serve: " + err);
    }
    out.setup_s.push_back(ms_since(t0) / 1000.0);
  }
  for (CorpusDesign& d : corpus) {
    auto g = cdfg::parse_cdfg(d.text);
    if (!g.ok()) throw std::runtime_error("serve: corpus design does not parse");
    d.cp = oracle::longest_paths(g.value(), cdfg::EdgeFilter::specification()).cp;
  }

  // Lane l serves corpus designs l, l + kLanes, ... in a seeded rotation.
  std::vector<std::vector<int>> lane_designs(kLanes);
  for (int i = 0; i < kDesigns; ++i) lane_designs[i % kLanes].push_back(i);
  std::mt19937_64 rng(mix64(opt.seed));
  for (auto& v : lane_designs) std::shuffle(v.begin(), v.end(), rng);
  std::vector<std::uint64_t> lane_sessions(kLanes, 0);
  const auto lane_session = [&](int lane, Clock::time_point due,
                                std::vector<Sample>& samples) {
    const std::uint64_t k = lane_sessions[lane]++;
    const auto& mine = lane_designs[static_cast<std::size_t>(lane)];
    const CorpusDesign& d = corpus[static_cast<std::size_t>(mine[k % mine.size()])];
    Span s(tracer, "serve.session", nullptr,
           tracer.enabled() ? tracer.next_id() : 0);
    Session(clients[static_cast<std::size_t>(lane)], ledger, tracer, d,
            "serve-key-" + std::to_string(mix64(opt.seed + lane) % 100000),
            k % 3 == 2)
        .run(due, samples);
  };

  const double total_s = opt.seconds;
  // Capacity phase: closed loop.  A traced run splits it into quarters,
  // untraced / traced / traced / untraced, for the overhead estimate.
  const double cap_s = 0.35 * total_s;
  double cap_reqs[2] = {0, 0}, cap_ops[2] = {0, 0}, cap_ms[2] = {0, 0};
  std::vector<double> embed_rate;  // per session: ops / (load-design + embed)
  const int quarters = opt.trace ? 4 : 1;
  for (int q = 0; q < quarters; ++q) {
    const bool traced = opt.trace && (q == 1 || q == 2);
    tracer.set_enabled(traced);
    std::vector<LaneLog> logs(kLanes);
    const Clock::time_point t0 = Clock::now();
    const Clock::time_point stop =
        t0 + std::chrono::milliseconds(static_cast<long>(cap_s * 1000 / quarters));
    std::vector<std::thread> threads;
    for (int l = 0; l < kLanes; ++l) {
      threads.emplace_back([&, l] {
        while (Clock::now() < stop) lane_session(l, Clock::now(), logs[l].samples);
      });
    }
    for (std::thread& t : threads) t.join();
    const double ms = ms_since(t0);
    for (const LaneLog& log : logs) {
      double load_ms = 0;
      for (const Sample& s : log.samples) {
        cap_reqs[traced] += 1;
        cap_ops[traced] += static_cast<double>(s.ops);
        if (traced) continue;
        // Closed-loop latencies are service times: text to records is
        // load-design + embed.
        if (s.type == kLoadDesign) load_ms = s.ms;
        if (s.type == kEmbed) {
          embed_rate.push_back(static_cast<double>(s.ops) / ((load_ms + s.ms) / 1000.0));
        }
      }
    }
    cap_ms[traced] += ms;
  }

  // Fixed-rate phase: open loop over a seeded Poisson arrival schedule
  // of whole corpus cycles (each lane serves each of its designs the
  // same number of times, with the same evict pattern, in every run).
  tracer.set_enabled(opt.trace);
  const double fixed_s = total_s - cap_s;
  const int cycles =
      std::max(1, static_cast<int>(std::lround(fixed_s * kFixedRate / kDesigns)));
  std::fill(lane_sessions.begin(), lane_sessions.end(), 0);
  std::vector<std::vector<double>> due_s(kLanes);
  {
    std::exponential_distribution<double> gap(kFixedRate);
    double t = 0;
    for (int i = 0; i < cycles * kDesigns; ++i) {
      t += gap(rng);
      due_s[static_cast<std::size_t>(i % kLanes)].push_back(t);
    }
  }
  std::vector<LaneLog> logs(kLanes);
  {
    const Clock::time_point t0 = Clock::now();
    std::vector<std::thread> threads;
    for (int l = 0; l < kLanes; ++l) {
      threads.emplace_back([&, l] {
        for (const double at : due_s[static_cast<std::size_t>(l)]) {
          const Clock::time_point due =
              t0 + std::chrono::microseconds(static_cast<long>(at * 1e6));
          std::this_thread::sleep_until(due);
          logs[l].late_ms.push_back(ms_since(due));
          lane_session(l, due, logs[l].samples);
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  tracer.set_enabled(false);

  std::string stats_json;
  {
    ledger.attempt();
    const auto r = clients[0].call(Frame{MsgType::kStats, {}});
    if (r && r->type == MsgType::kStatsReport) {
      serve::PayloadReader rd(r->payload);
      stats_json = std::string(rd.get_str());
    } else {
      ledger.fail();
    }
  }
  clients.clear();
  server->stop();

  std::vector<double> all_ms, late;
  std::vector<double> by_type[kNumReq];
  for (const LaneLog& log : logs) {
    late.insert(late.end(), log.late_ms.begin(), log.late_ms.end());
    for (const Sample& s : log.samples) {
      all_ms.push_back(s.ms);
      by_type[s.type].push_back(s.ms);
    }
  }
  const double cap_rps = cap_reqs[0] / (cap_ms[0] / 1000.0);
  out.end_to_end.set("ops_per_s", cap_ops[0] / (cap_ms[0] / 1000.0), "ops/s");
  out.end_to_end.set("embed_ops_per_s", median(embed_rate), "ops/s");
  out.end_to_end.set("p50_ms", median(all_ms), "ms");
  out.end_to_end.set("p99_ms", percentile(all_ms, 0.99), "ms");

  Metrics& pl = out.per_layer;
  for (int t = 0; t < kNumReq; ++t) {
    pl.set(std::string("serve.") + kReqName[t] + "_p50_ms", median(by_type[t]), "ms");
    pl.set(std::string("serve.") + kReqName[t] + "_p99_ms",
           percentile(by_type[t], 0.99), "ms");
  }
  pl.set("serve.store_hits", static_cast<double>(json_field(stats_json, "hits")), "count");
  pl.set("serve.store_misses", static_cast<double>(json_field(stats_json, "misses")),
         "count");
  pl.set("serve.store_evictions",
         static_cast<double>(json_field(stats_json, "evictions")), "count");
  pl.set("serve.gen_late_ms", percentile(late, 0.99), "ms");
  pl.set("serve.max_rps", cap_rps, "1/s");
  if (opt.trace && cap_reqs[1] > 0) {
    pl.set("trace.overhead_pct",
           100.0 * ((cap_reqs[0] / cap_ms[0]) / (cap_reqs[1] / cap_ms[1]) - 1.0), "%");
  }
  if (opt.trace) {
    tracer.set_enabled(true);
    // Out-of-band layer timings on the designs at the quartiles of the
    // corpus' size range: the text parse behind load-design and the
    // schedule parse behind load-schedule.
    double parse_ms = 0, sched_ms = 0, mb = 0;
    int n = 0;
    for (int i = 0; i < kDesigns; i += kDesigns / 4, ++n) {
      const CorpusDesign& d = corpus[static_cast<std::size_t>(i)];
      std::optional<cdfg::Graph> g;
      {
        Span s(tracer, "cdfg.parse", &parse_ms);
        auto r = cdfg::parse_cdfg(d.text);
        if (r.ok()) g.emplace(std::move(r).value());
      }
      mb += static_cast<double>(d.text.size()) / 1048576.0;
      if (!g) continue;
      const auto t = cdfg::compute_timing(*g);
      sched::Schedule asap(*g);
      for (const cdfg::NodeId v : g->nodes()) asap.set_start(v, t.asap[v.value]);
      const std::string text = sched::schedule_to_text(*g, asap);
      Span s(tracer, "sched.parse_schedule", &sched_ms);
      (void)sched::parse_schedule(*g, text);
    }
    pl.set("cdfg.parse_ms", parse_ms / n, "ms");
    pl.set("cdfg.parse_mb_per_s", mb / (parse_ms / 1000.0), "MB/s");
    pl.set("sched.parse_schedule_ms", sched_ms / n, "ms");
    tracer.set_enabled(false);
  }
}

}  // namespace pb
