#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "cdfg/analysis.h"
#include "cdfg/serialize.h"
#include "cdfg/validate.h"
#include "dfglib/designs.h"
#include "dfglib/iir4.h"
#include "dfglib/kernels.h"
#include "dfglib/mediabench.h"
#include "dfglib/synth.h"

namespace lwm::dfglib {
namespace {

using cdfg::Graph;

TEST(Iir4Test, MatchesPaperStructure) {
  const Graph g = iir4_parallel();
  EXPECT_TRUE(cdfg::validate(g).empty());
  // 8 constant multiplications C1..C8, 9 additions A1..A9.
  int muls = 0;
  int adds = 0;
  for (const cdfg::NodeId n : g.node_ids()) {
    if (g.node(n).kind == cdfg::OpKind::kMul) ++muls;
    if (g.node(n).kind == cdfg::OpKind::kAdd) ++adds;
  }
  EXPECT_EQ(muls, 8);
  EXPECT_EQ(adds, 9);
  EXPECT_EQ(g.operation_count(), 17u);
  // Longest path: mul -> A1/A5 -> A2/A6 -> A3/A7 -> A4/A8 -> A9.
  EXPECT_EQ(cdfg::critical_path_length(g), 6);
  for (const char* name : {"C1", "C8", "A1", "A9", "x", "y"}) {
    EXPECT_TRUE(g.find(name).valid()) << name;
  }
}

struct DspCase {
  int cp;
  int ops;
};

class DspDesignTest : public ::testing::TestWithParam<DspCase> {};

TEST_P(DspDesignTest, HitsTargetsExactly) {
  const DspCase c = GetParam();
  const Graph g = make_dsp_design("case", c.cp, c.ops, 17);
  EXPECT_TRUE(cdfg::validate(g).empty());
  EXPECT_EQ(cdfg::critical_path_length(g), c.cp);
  EXPECT_EQ(g.operation_count(), static_cast<std::size_t>(c.ops));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DspDesignTest,
    ::testing::Values(DspCase{1, 1}, DspCase{5, 5}, DspCase{3, 20},
                      DspCase{10, 60}, DspCase{18, 35}, DspCase{12, 48},
                      DspCase{132, 354}, DspCase{200, 100},
                      DspCase{2566, 1082}),
    [](const auto& info) {
      return "cp" + std::to_string(info.param.cp) + "ops" +
             std::to_string(info.param.ops);
    });

TEST(DspDesignTest, DeterministicPerSeed) {
  const Graph a = make_dsp_design("d", 10, 40, 3);
  const Graph b = make_dsp_design("d", 10, 40, 3);
  EXPECT_EQ(a.node_count(), b.node_count());
  EXPECT_EQ(a.edge_count(), b.edge_count());
}

TEST(DspDesignTest, BadParamsThrow) {
  EXPECT_THROW((void)make_dsp_design("bad", 0, 5, 1), std::invalid_argument);
  EXPECT_THROW((void)make_dsp_design("bad", 5, 0, 1), std::invalid_argument);
}

TEST(DspDesignTest, ZeroParamsDiagnoseInsteadOfDividing) {
  // Regression: critical_path == 0 used to reach `critical_path /
  // spine_len` with spine_len == 0 — a division by zero instead of a
  // diagnostic.  The guard must name the design and both offending
  // values.
  try {
    (void)make_dsp_design("divzero", 0, 0, 1);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("divzero"), std::string::npos) << what;
    EXPECT_NE(what.find("critical_path=0"), std::string::npos) << what;
    EXPECT_NE(what.find("operations=0"), std::string::npos) << what;
  }
  EXPECT_THROW((void)make_dsp_design("neg", -2, 10, 1), std::invalid_argument);
  EXPECT_THROW((void)make_dsp_design("neg", 10, -2, 1), std::invalid_argument);
}

TEST(LayeredDagTest, SizeAndValidity) {
  const Graph g = make_layered_dag("dag", 500, 10, {}, 5);
  EXPECT_TRUE(cdfg::validate(g).empty());
  EXPECT_EQ(g.operation_count(), 500u);
}

TEST(LayeredDagTest, MixControlsKinds) {
  OpMix mul_only;
  mul_only.alu = 0;
  mul_only.mul = 1;
  mul_only.mem = 0;
  mul_only.branch = 0;
  const Graph g = make_layered_dag("muls", 50, 5, mul_only, 9);
  for (const cdfg::NodeId n : g.node_ids()) {
    if (cdfg::is_executable(g.node(n).kind)) {
      EXPECT_EQ(g.node(n).kind, cdfg::OpKind::kMul);
    }
  }
}

TEST(LayeredDagTest, EmptyMixRejected) {
  OpMix none;
  none.alu = none.mul = none.mem = none.branch = 0;
  EXPECT_THROW((void)make_layered_dag("none", 10, 2, none, 1),
               std::invalid_argument);
}

TEST(MediabenchTest, TableMatchesPaperCounts) {
  const auto& apps = mediabench_table();
  ASSERT_EQ(apps.size(), 8u);
  EXPECT_EQ(apps[0].name, "D/A_Cnv.");
  EXPECT_EQ(apps[0].operations, 528);
  EXPECT_EQ(apps[4].name, "PGP");
  EXPECT_EQ(apps[4].operations, 1755);
}

// Every shipped design must survive its own text format: the header
// name is one token, so the streaming parser takes it back unchanged.
TEST(MediabenchTest, AppsAndKernelsRoundTripThroughText) {
  std::vector<Graph> designs;
  for (const MediabenchApp& app : mediabench_table()) {
    designs.push_back(make_mediabench_app(app));
  }
  designs.push_back(iir4_parallel());
  designs.push_back(make_fir(8));
  designs.push_back(make_fft(16));
  designs.push_back(make_biquad_cascade(4));
  for (const Graph& g : designs) {
    std::istringstream in(cdfg::to_text(g));
    auto parsed = cdfg::parse_cdfg_stream(in, g.name());
    ASSERT_TRUE(parsed.ok()) << g.name() << ": " << parsed.diag().to_string();
    EXPECT_EQ(parsed.value().name(), g.name());
    EXPECT_EQ(parsed.value().node_count(), g.node_count()) << g.name();
  }
}

TEST(MediabenchTest, GeneratedAppsHitOpCounts) {
  for (const MediabenchApp& app : mediabench_table()) {
    const Graph g = make_mediabench_app(app);
    EXPECT_EQ(g.operation_count(), static_cast<std::size_t>(app.operations))
        << app.name;
    EXPECT_TRUE(cdfg::validate(g).empty()) << app.name;
  }
}

TEST(Table2Test, DesignsMatchPublishedColumns) {
  const auto& designs = table2_designs();
  ASSERT_EQ(designs.size(), 8u);
  for (const Table2Design& d : designs) {
    const Graph g = make_table2_design(d);
    EXPECT_EQ(cdfg::critical_path_length(g), d.critical_path) << d.name;
    EXPECT_EQ(g.operation_count(), static_cast<std::size_t>(d.variables))
        << d.name;
    EXPECT_EQ(d.control_steps[1], 2 * d.control_steps[0]) << d.name;
  }
}

}  // namespace
}  // namespace lwm::dfglib
