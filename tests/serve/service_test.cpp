// Protocol semantics: a round-trip for every request type through
// Service::handle, plus the error-frame contract — every malformed or
// out-of-bounds input is answered with a typed kError frame, never an
// exception or a crash.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "cdfg/serialize.h"
#include "dfglib/iir4.h"
#include "dfglib/kernels.h"
#include "dfglib/synth.h"
#include "serve/frame.h"
#include "serve/service.h"
#include "wm/domain.h"

namespace lwm::serve {
namespace {

std::string fixture_text(int ops = 300) {
  dfglib::MegaConfig cfg;
  cfg.name = "svc";
  cfg.operations = ops;
  cfg.width = 12;
  cfg.seed = 7;
  return cdfg::to_text(dfglib::make_mega_design(cfg));
}

Frame load_design_frame(std::string_view text) {
  PayloadWriter w;
  w.put_str(text);
  return Frame{MsgType::kLoadDesign, std::move(w).take()};
}

Frame embed_frame(std::uint64_t design_id, std::string_view key,
                  std::uint32_t marks = 3, std::uint32_t tau = 8,
                  std::uint32_t k = 3, double epsilon = 0.25) {
  PayloadWriter w;
  w.put_u64(design_id);
  w.put_str(key);
  w.put_u32(marks);
  w.put_u32(tau);
  w.put_u32(k);
  w.put_f64(epsilon);
  return Frame{MsgType::kEmbed, std::move(w).take()};
}

std::uint16_t error_code(const Frame& f) {
  ErrorInfo info;
  EXPECT_EQ(f.type, MsgType::kError);
  EXPECT_TRUE(parse_error_frame(f, info));
  return info.code;
}

struct LoadedFixture {
  std::uint64_t design_id = 0;
  std::uint64_t sched_id = 0;
  std::string records;
};

/// Loads the fixture design, embeds, and makes the returned marked
/// schedule resident — the state every detect test starts from.
LoadedFixture load_and_embed(Service& service, std::string_view key) {
  LoadedFixture fx;
  const Frame loaded = service.handle(load_design_frame(fixture_text()));
  EXPECT_EQ(loaded.type, MsgType::kDesignLoaded);
  PayloadReader lr(loaded.payload);
  fx.design_id = lr.get_u64();

  const Frame embedded = service.handle(embed_frame(fx.design_id, key));
  EXPECT_EQ(embedded.type, MsgType::kEmbedded);
  PayloadReader er(embedded.payload);
  const std::uint32_t marks = er.get_u32();
  (void)er.get_u32();  // edges
  (void)er.get_f64();  // log10_pc
  fx.records = std::string(er.get_str());
  const std::string sched_text(er.get_str());
  EXPECT_TRUE(er.complete());
  EXPECT_GT(marks, 0u);

  PayloadWriter w;
  w.put_u64(fx.design_id);
  w.put_str(sched_text);
  const Frame sched =
      service.handle(Frame{MsgType::kLoadSchedule, std::move(w).take()});
  EXPECT_EQ(sched.type, MsgType::kScheduleLoaded);
  PayloadReader sr(sched.payload);
  fx.sched_id = sr.get_u64();
  return fx;
}

Frame detect_frame(const LoadedFixture& fx, std::string_view key) {
  PayloadWriter w;
  w.put_u64(fx.design_id);
  w.put_u64(fx.sched_id);
  w.put_str(key);
  w.put_str(fx.records);
  return Frame{MsgType::kDetect, std::move(w).take()};
}

TEST(ServiceTest, PingPong) {
  Service service;
  const Frame r = service.handle(Frame{MsgType::kPing, {}});
  EXPECT_EQ(r.type, MsgType::kPong);
  EXPECT_TRUE(r.payload.empty());
}

TEST(ServiceTest, PingWithPayloadIsAParseError) {
  Service service;
  EXPECT_EQ(error_code(service.handle(Frame{MsgType::kPing, "x"})), kErrParse);
}

TEST(ServiceTest, UnknownTypeIsTyped) {
  Service service;
  EXPECT_EQ(error_code(service.handle(
                Frame{static_cast<MsgType>(0x40), {}})),
            kErrUnknownType);
  // Response types are not requests either.
  EXPECT_EQ(error_code(service.handle(Frame{MsgType::kPong, {}})),
            kErrUnknownType);
}

TEST(ServiceTest, HandleBytesRejectsGarbageAndTruncation) {
  Service service;
  EXPECT_EQ(error_code(service.handle_bytes("not a frame at all")),
            kErrBadFrame);
  const std::string wire = encode_frame(Frame{MsgType::kPing, {}});
  EXPECT_EQ(error_code(service.handle_bytes(
                std::string_view(wire).substr(0, 6))),
            kErrBadFrame);
  EXPECT_EQ(service.handle_bytes(wire).type, MsgType::kPong);
}

TEST(ServiceTest, LoadDesignReportsShapeAndResidency) {
  Service service;
  const std::string text = fixture_text();
  const Frame first = service.handle(load_design_frame(text));
  ASSERT_EQ(first.type, MsgType::kDesignLoaded);
  PayloadReader r1(first.payload);
  const std::uint64_t id = r1.get_u64();
  const std::uint32_t nodes = r1.get_u32();
  const std::uint32_t ops = r1.get_u32();
  const std::uint32_t cp = r1.get_u32();
  const std::uint32_t cp_min = r1.get_u32();
  EXPECT_EQ(r1.get_u8(), 0);  // first load: not already resident
  EXPECT_TRUE(r1.complete());
  EXPECT_GT(nodes, ops);
  EXPECT_GT(cp, 0u);
  EXPECT_LE(cp_min, cp);

  const Frame second = service.handle(load_design_frame(text));
  ASSERT_EQ(second.type, MsgType::kDesignLoaded);
  PayloadReader r2(second.payload);
  EXPECT_EQ(r2.get_u64(), id);
  (void)r2.get_u32();
  (void)r2.get_u32();
  (void)r2.get_u32();
  (void)r2.get_u32();
  EXPECT_EQ(r2.get_u8(), 1);  // already resident
}

TEST(ServiceTest, LoadDesignParseErrorCarriesLocation) {
  Service service;
  const Frame r = service.handle(load_design_frame("cdfg x\nnode ??\n"));
  ErrorInfo info;
  ASSERT_TRUE(parse_error_frame(r, info));
  EXPECT_EQ(info.code, kErrParse);
  EXPECT_EQ(info.diag.file, "<design>");
  EXPECT_GT(info.diag.line, 0);
}

TEST(ServiceTest, EmbedDetectRoundTrip) {
  Service service;
  const LoadedFixture fx = load_and_embed(service, "alice-key");
  const Frame detected = service.handle(detect_frame(fx, "alice-key"));
  ASSERT_EQ(detected.type, MsgType::kDetected);
  PayloadReader r(detected.payload);
  const std::uint32_t n = r.get_u32();
  ASSERT_GT(n, 0u);
  for (std::uint32_t i = 0; i < n; ++i) {
    EXPECT_EQ(r.get_u8(), 1) << "record " << i << " must be detected";
    EXPECT_GT(r.get_u32(), 0u);  // at least one hit
    (void)r.get_u32();           // best root
  }
  EXPECT_GT(r.get_u32(), 0u);  // roots scanned
  EXPECT_TRUE(r.complete());
}

TEST(ServiceTest, WrongKeyDoesNotDetect) {
  Service service;
  const LoadedFixture fx = load_and_embed(service, "alice-key");
  const Frame detected = service.handle(detect_frame(fx, "eve-key"));
  ASSERT_EQ(detected.type, MsgType::kDetected);
  PayloadReader r(detected.payload);
  const std::uint32_t n = r.get_u32();
  for (std::uint32_t i = 0; i < n; ++i) {
    EXPECT_EQ(r.get_u8(), 0) << "record " << i;
    (void)r.get_u32();
    (void)r.get_u32();
  }
}

TEST(ServiceTest, HostileRecordsAreParseErrors) {
  Service service;
  const LoadedFixture fx = load_and_embed(service, "alice-key");
  // Each rewrite of the honest archive must be refused with a diagnostic
  // on the line it touched, never scanned: a negative or past-the-ops
  // position indexed the carve out of bounds, and the bad keys threw
  // from inside the carve.
  const std::size_t header_end = fx.records.find('\n') + 1;
  const std::size_t sched_line = fx.records.find("sched ");
  const std::size_t pos_line = fx.records.find("pos ");
  ASSERT_EQ(sched_line, header_end);
  ASSERT_NE(pos_line, std::string::npos);
  const std::size_t pos_end = fx.records.find('\n', pos_line);
  const struct {
    std::size_t at;
    std::size_t len;
    const char* with;
    int line;
  } rewrites[] = {
      {pos_line, pos_end - pos_line, "pos -1 0", 3},
      {pos_line, pos_end - pos_line, "pos 0 100000", 3},
      {fx.records.find("keep=1/2"), 8, "keep=3/2", 2},
      {fx.records.find("tau=8"), 5, "tau=33", 2},
  };
  for (const auto& rw : rewrites) {
    LoadedFixture hostile = fx;
    hostile.records.replace(rw.at, rw.len, rw.with);
    const Frame answer = service.handle(detect_frame(hostile, "alice-key"));
    ErrorInfo info;
    ASSERT_TRUE(parse_error_frame(answer, info)) << rw.with;
    EXPECT_EQ(info.code, kErrParse) << rw.with;
    EXPECT_EQ(info.diag.line, rw.line) << rw.with << ": " << info.diag.message;
  }
}

TEST(ServiceTest, ParameterBoundsAreEnforced) {
  Service service;
  const Frame loaded = service.handle(load_design_frame(fixture_text()));
  PayloadReader lr(loaded.payload);
  const std::uint64_t id = lr.get_u64();
  const auto& o = service.options();
  EXPECT_EQ(error_code(service.handle(embed_frame(id, ""))), kErrTooLarge);
  EXPECT_EQ(error_code(service.handle(embed_frame(id, "k", 0))), kErrTooLarge);
  EXPECT_EQ(error_code(service.handle(embed_frame(id, "k", o.max_marks + 1))),
            kErrTooLarge);
  EXPECT_EQ(error_code(service.handle(
                embed_frame(id, "k", 3, wm::DomainKey::kMaxTau + 1))),
            kErrTooLarge);
  EXPECT_EQ(error_code(service.handle(embed_frame(id, "k", 3, 0))),
            kErrTooLarge);
  EXPECT_EQ(error_code(service.handle(embed_frame(id, "k", 3, 8, 0))),
            kErrTooLarge);
  EXPECT_EQ(
      error_code(service.handle(embed_frame(id, "k", 3, 8, o.max_k + 1))),
      kErrTooLarge);
  EXPECT_EQ(error_code(service.handle(embed_frame(id, "k", 3, 8, 3, 0.0))),
            kErrTooLarge);
  EXPECT_EQ(error_code(service.handle(embed_frame(id, "k", 3, 8, 3, 1.0))),
            kErrTooLarge);
}

TEST(ServiceTest, MissingDesignAndScheduleAreNotFound) {
  Service service;
  EXPECT_EQ(error_code(service.handle(embed_frame(0xDEAD, "k"))),
            kErrNotFound);
  LoadedFixture fx;
  fx.design_id = 0xDEAD;
  fx.sched_id = 1;
  fx.records = "lwm-records v1\n";
  EXPECT_EQ(error_code(service.handle(detect_frame(fx, "k"))), kErrNotFound);

  const Frame loaded = service.handle(load_design_frame(fixture_text()));
  PayloadReader lr(loaded.payload);
  fx.design_id = lr.get_u64();  // design resident, schedule still missing
  EXPECT_EQ(error_code(service.handle(detect_frame(fx, "k"))), kErrNotFound);
}

TEST(ServiceTest, MalformedPayloadsAreParseErrors) {
  Service service;
  EXPECT_EQ(error_code(service.handle(Frame{MsgType::kLoadDesign, "xy"})),
            kErrParse);
  EXPECT_EQ(error_code(service.handle(Frame{MsgType::kEmbed, "\x01"})),
            kErrParse);
  EXPECT_EQ(error_code(service.handle(Frame{MsgType::kEvict, {}})), kErrParse);
  // Trailing bytes after a well-formed payload are rejected too.
  PayloadWriter w;
  w.put_u64(1);
  w.put_u8(0);
  EXPECT_EQ(error_code(service.handle(Frame{MsgType::kEvict,
                                            std::move(w).take()})),
            kErrParse);
}

TEST(ServiceTest, PcEstimateIsFiniteAndNegative) {
  Service service;
  const Frame loaded = service.handle(load_design_frame(fixture_text()));
  PayloadReader lr(loaded.payload);
  const std::uint64_t id = lr.get_u64();
  Frame req = embed_frame(id, "alice-key");
  req.type = MsgType::kPc;
  const Frame r = service.handle(req);
  ASSERT_EQ(r.type, MsgType::kPcEstimated);
  PayloadReader pr(r.payload);
  const double log10_pc = pr.get_f64();
  (void)pr.get_u8();  // exact
  const bool degenerate = pr.get_u8() != 0;
  const std::uint32_t marks = pr.get_u32();
  EXPECT_TRUE(pr.complete());
  EXPECT_GT(marks, 0u);
  EXPECT_TRUE(std::isfinite(log10_pc));
  // A probability: log10 never positive.  (Exactly 0 is legitimate —
  // exact enumeration may find every schedule satisfies the mark.)
  EXPECT_LE(log10_pc, 0.0);
  (void)degenerate;
}

TEST(ServiceTest, EvictMakesDetectNotFound) {
  Service service;
  const LoadedFixture fx = load_and_embed(service, "alice-key");
  PayloadWriter w;
  w.put_u64(fx.design_id);
  const Frame evicted =
      service.handle(Frame{MsgType::kEvict, std::move(w).take()});
  ASSERT_EQ(evicted.type, MsgType::kEvicted);
  PayloadReader er(evicted.payload);
  EXPECT_EQ(er.get_u8(), 1);
  EXPECT_EQ(error_code(service.handle(detect_frame(fx, "alice-key"))),
            kErrNotFound);
}

TEST(ServiceTest, StatsReportsStoreAndObs) {
  Service service;
  (void)service.handle(load_design_frame(fixture_text()));
  const Frame r = service.handle(Frame{MsgType::kStats, {}});
  ASSERT_EQ(r.type, MsgType::kStatsReport);
  PayloadReader pr(r.payload);
  const std::string json(pr.get_str());
  EXPECT_TRUE(pr.complete());
  EXPECT_EQ(json.rfind("{\"designs\":1,", 0), 0u) << json.substr(0, 40);
  EXPECT_NE(json.find("\"obs\":"), std::string::npos);
}

TEST(ServiceTest, MarkedDesignRoundTripsThroughPeriodicScheduler) {
  // End-to-end over the wire: a marked (cyclic) design loads, embed
  // dispatches the periodic backend for its witness schedule, the
  // witness round-trips into detect, and pc counts periodic
  // alternatives — all through the same frames an acyclic client uses.
  Service service;
  cdfg::Graph g = dfglib::iir4_parallel();
  (void)dfglib::add_feedback(g, 2);
  ASSERT_TRUE(g.has_token_edges());

  const Frame loaded = service.handle(load_design_frame(cdfg::to_text(g)));
  ASSERT_EQ(loaded.type, MsgType::kDesignLoaded);
  PayloadReader lr(loaded.payload);
  const std::uint64_t design_id = lr.get_u64();

  const Frame embedded =
      service.handle(embed_frame(design_id, "alice-key", 2, 6));
  ASSERT_EQ(embedded.type, MsgType::kEmbedded);
  PayloadReader er(embedded.payload);
  const std::uint32_t marks = er.get_u32();
  (void)er.get_u32();  // edges
  const double log10_pc = er.get_f64();
  const std::string records(er.get_str());
  const std::string sched_text(er.get_str());
  EXPECT_TRUE(er.complete());
  ASSERT_GT(marks, 0u);
  EXPECT_TRUE(std::isfinite(log10_pc));
  EXPECT_LE(log10_pc, 0.0);

  PayloadWriter sw;
  sw.put_u64(design_id);
  sw.put_str(sched_text);
  const Frame sched =
      service.handle(Frame{MsgType::kLoadSchedule, std::move(sw).take()});
  ASSERT_EQ(sched.type, MsgType::kScheduleLoaded);
  PayloadReader sr(sched.payload);
  const std::uint64_t sched_id = sr.get_u64();

  PayloadWriter dw;
  dw.put_u64(design_id);
  dw.put_u64(sched_id);
  dw.put_str("alice-key");
  dw.put_str(records);
  const Frame detected =
      service.handle(Frame{MsgType::kDetect, std::move(dw).take()});
  ASSERT_EQ(detected.type, MsgType::kDetected);
  PayloadReader dr(detected.payload);
  const std::uint32_t reports = dr.get_u32();
  ASSERT_EQ(reports, marks);
  std::uint32_t hits = 0;
  for (std::uint32_t i = 0; i < reports; ++i) {
    hits += dr.get_u8();
    (void)dr.get_u32();  // constraint hits
    (void)dr.get_u32();  // best_root
  }
  EXPECT_EQ(hits, marks)
      << "every mark must survive its own periodic witness schedule";

  Frame pc_req = embed_frame(design_id, "alice-key", 2, 6);
  pc_req.type = MsgType::kPc;
  const Frame pc = service.handle(pc_req);
  ASSERT_EQ(pc.type, MsgType::kPcEstimated);
  PayloadReader pr(pc.payload);
  const double pc_log10 = pr.get_f64();
  EXPECT_TRUE(std::isfinite(pc_log10));
  EXPECT_LE(pc_log10, 0.0);
}

TEST(ServiceTest, DetectIsDeterministicAcrossRepeats) {
  // The concurrent-client invariance test (server_test) relies on a
  // single-threaded baseline: the same detect request yields the same
  // bytes every time.
  Service service;
  const LoadedFixture fx = load_and_embed(service, "alice-key");
  const Frame first = service.handle(detect_frame(fx, "alice-key"));
  for (int i = 0; i < 3; ++i) {
    const Frame again = service.handle(detect_frame(fx, "alice-key"));
    EXPECT_EQ(again.type, first.type);
    EXPECT_EQ(again.payload, first.payload);
  }
}

}  // namespace
}  // namespace lwm::serve
