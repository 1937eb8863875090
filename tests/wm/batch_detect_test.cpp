#include <gtest/gtest.h>

#include "dfglib/synth.h"
#include "sched/list_sched.h"
#include "wm/detector.h"

namespace lwm::wm {
namespace {

using cdfg::Graph;

crypto::Signature alice() { return {"alice", "alice-design-key-2001"}; }
crypto::Signature eve() { return {"eve", "not-alice"}; }

struct Fixture {
  Graph graph;
  std::vector<SchedRecord> records;
  sched::Schedule schedule;
};

Fixture make_fixture() {
  Fixture f{lwm::dfglib::make_dsp_design("batch", 14, 220, 501), {}, {}};
  SchedWmOptions opts;
  opts.domain.tau = 5;
  opts.k = 3;
  opts.min_edges = 2;
  opts.epsilon = 0.3;
  const auto marks = embed_local_watermarks(f.graph, alice(), 6, opts);
  EXPECT_GE(marks.size(), 3u);
  for (const auto& m : marks) {
    f.records.push_back(SchedRecord::from(m, f.graph));
  }
  f.schedule = sched::list_schedule(f.graph);
  f.graph.strip_temporal_edges();
  return f;
}

TEST(BatchDetectTest, AgreesWithPerRecordDetection) {
  const Fixture f = make_fixture();
  const auto batch =
      detect_sched_watermarks(f.graph, f.schedule, alice(), f.records);
  ASSERT_EQ(batch.size(), f.records.size());
  for (std::size_t i = 0; i < f.records.size(); ++i) {
    const SchedDetectionReport single =
        detect_sched_watermark(f.graph, f.schedule, alice(), f.records[i]);
    EXPECT_EQ(batch[i].detected(), single.detected()) << "record " << i;
    ASSERT_EQ(batch[i].hits.size(), single.hits.size()) << "record " << i;
    for (std::size_t h = 0; h < single.hits.size(); ++h) {
      EXPECT_EQ(batch[i].hits[h].root, single.hits[h].root);
      EXPECT_EQ(batch[i].hits[h].satisfied, single.hits[h].satisfied);
      EXPECT_EQ(batch[i].hits[h].total, single.hits[h].total);
      // The third path: verifying the reported root directly.
      const SchedHit at = verify_sched_watermark_at(
          f.graph, f.schedule, alice(), f.records[i], single.hits[h].root);
      EXPECT_EQ(at.satisfied, single.hits[h].satisfied) << "record " << i;
      EXPECT_EQ(at.total, single.hits[h].total) << "record " << i;
    }
    EXPECT_EQ(batch[i].roots_scanned, single.roots_scanned);
  }
}

TEST(BatchDetectTest, MixedDomainKeysGroupCorrectly) {
  Fixture f = make_fixture();
  // Add a record with a different key: it must be carved separately.
  Graph g2 = lwm::dfglib::make_dsp_design("batch", 14, 220, 501);
  SchedWmOptions opts;
  opts.domain.tau = 7;  // different key
  opts.k = 3;
  opts.min_edges = 2;
  opts.epsilon = 0.3;
  const auto extra = embed_local_watermarks(g2, alice(), 1, opts);
  ASSERT_FALSE(extra.empty());
  // Note: this extra mark was embedded in a *separate* copy, so its
  // constraints are not satisfied by f.schedule — it must not detect.
  f.records.push_back(SchedRecord::from(extra.front(), g2));

  const auto batch =
      detect_sched_watermarks(f.graph, f.schedule, alice(), f.records);
  ASSERT_EQ(batch.size(), f.records.size());
  for (std::size_t i = 0; i + 1 < f.records.size(); ++i) {
    EXPECT_TRUE(batch[i].detected()) << "record " << i;
  }
}

TEST(BatchDetectTest, ForeignSignatureFindsNothing) {
  const Fixture f = make_fixture();
  const auto batch =
      detect_sched_watermarks(f.graph, f.schedule, eve(), f.records);
  for (const auto& report : batch) {
    EXPECT_FALSE(report.detected());
  }
}

TEST(BatchDetectTest, EmptyArchive) {
  const Fixture f = make_fixture();
  const auto batch = detect_sched_watermarks(f.graph, f.schedule, alice(), {});
  EXPECT_TRUE(batch.empty());
}

}  // namespace
}  // namespace lwm::wm
