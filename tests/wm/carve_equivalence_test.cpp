// Carve equivalence: the library's Carver against the hash-map reference
// carve (tests/support/carve_reference.h), compared on `ordered` and
// `selected` at every executable root of fft16, every MediaBench app and
// a 10k-op mega-design, at tau 1/4/8/32 and keep 0/1, 1/2, 1/1.  One
// carver per (tau, keep) walks all roots of a design, so its reused
// scratch (epoch-stamped index, per-slot rows, pre-keyed stream) is
// exercised across cones of every size.  Hand-built graphs cover parallel
// edges, a hub with thousands of fan-outs, and the temporal and token
// edges the carve filter must ignore.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "carve_reference.h"
#include "cdfg/analysis.h"
#include "dfglib/kernels.h"
#include "dfglib/mediabench.h"
#include "dfglib/synth.h"
#include "exec/parallel.h"
#include "exec/thread_pool.h"
#include "wm/domain.h"

namespace lwm::wm {
namespace {

using cdfg::EdgeKind;
using cdfg::Graph;
using cdfg::NodeId;
using cdfg::OpKind;

constexpr std::array<int, 4> kTaus = {1, 4, 8, 32};
constexpr std::array<std::pair<std::uint32_t, std::uint32_t>, 3> kKeeps = {
    {{0, 1}, {1, 2}, {1, 1}}};

crypto::Signature signer() { return {"equiv", "carve-equivalence-key"}; }

std::vector<NodeId> executable_roots(const Graph& g) {
  std::vector<NodeId> roots;
  for (const NodeId n : g.nodes()) {
    if (cdfg::is_executable(g.node(n).kind)) roots.push_back(n);
  }
  return roots;
}

std::string describe(const Graph& g, std::span<const NodeId> nodes) {
  std::string out;
  for (const NodeId n : nodes) out += " " + g.node(n).name;
  return out;
}

/// First mismatch between the carver and the reference at any root of
/// `roots` for `tau` and every keep, or empty.
std::string first_mismatch(const Graph& g, std::span<const NodeId> roots,
                           int tau) {
  const crypto::Signature sig = signer();
  std::vector<Carver> carvers;
  for (const auto& [num, den] : kKeeps) {
    carvers.emplace_back(g, sig, DomainKey{tau, num, den});
  }
  for (const NodeId root : roots) {
    const std::vector<NodeId> ordered = reference::order_locality(g, root, tau);
    for (std::size_t k = 0; k < kKeeps.size(); ++k) {
      const DomainKey key{tau, kKeeps[k].first, kKeeps[k].second};
      const Domain want = reference::carve_ordered(g, root, ordered, sig, key);
      const DomainView got = carvers[k].carve(root);
      if (!std::ranges::equal(got.ordered, want.ordered) ||
          !std::ranges::equal(got.selected, want.selected)) {
        return g.name() + " root " + g.node(root).name + " tau " +
               std::to_string(tau) + " keep " + std::to_string(key.keep_num) +
               "/" + std::to_string(key.keep_den) + "\n  ordered want" +
               describe(g, want.ordered) + "\n  ordered got " +
               describe(g, got.ordered) + "\n  selected want" +
               describe(g, want.selected) + "\n  selected got " +
               describe(g, got.selected);
      }
    }
  }
  return {};
}

/// Every executable root of `g` at each of `taus` and every keep: the
/// carver's view must equal the reference domain.  Roots are split over
/// four lanes, each with its own carvers (the reference at tau 32 costs
/// milliseconds per root of a 10k-op design).
void expect_equivalent(const Graph& g, std::span<const int> taus = kTaus) {
  const std::vector<NodeId> roots = executable_roots(g);
  ASSERT_FALSE(roots.empty()) << g.name();
  exec::ThreadPool pool(4);
  for (const int tau : taus) {
    const std::string mismatch = exec::parallel_reduce(
        &pool, roots.size(), exec::suggested_chunks(&pool, roots.size()),
        std::string(),
        [&](std::size_t begin, std::size_t end) {
          return first_mismatch(
              g, std::span(roots).subspan(begin, end - begin), tau);
        },
        [](std::string acc, std::string next) {
          return acc.empty() ? next : acc;
        });
    EXPECT_EQ(mismatch, "");
  }
}

TEST(CarveEquivalenceTest, KernelFft16) { expect_equivalent(dfglib::make_fft(16)); }

TEST(CarveEquivalenceTest, EveryMediabenchApp) {
  for (const dfglib::MediabenchApp& app : dfglib::mediabench_table()) {
    expect_equivalent(dfglib::make_mediabench_app(app));
  }
}

Graph mega_10k() {
  dfglib::MegaConfig cfg;
  cfg.name = "equiv_mega";
  cfg.operations = 10'000;
  cfg.width = 32;
  cfg.seed = 11;
  return dfglib::make_mega_design(cfg);
}

// Split by tau so ctest can run the legs side by side: at tau 32 a cone
// of the 10k-op design averages ~400 nodes.
TEST(CarveEquivalenceTest, Mega10kTau1To8) {
  constexpr std::array<int, 3> kShallow = {1, 4, 8};
  expect_equivalent(mega_10k(), kShallow);
}

TEST(CarveEquivalenceTest, Mega10kTau32) {
  constexpr std::array<int, 1> kDeep = {32};
  expect_equivalent(mega_10k(), kDeep);
}

// Commutative ops reading one value twice, at the root, inside the cone
// and on its tau boundary: the carve keeps the first occurrence only.
TEST(CarveEquivalenceTest, ParallelEdges) {
  Graph g("parallel");
  const NodeId x = g.add_node(OpKind::kInput, "x");
  const NodeId y = g.add_node(OpKind::kInput, "y");
  NodeId prev = g.add_node(OpKind::kMul, "sq");
  g.add_edge(x, prev);
  g.add_edge(x, prev);
  for (int i = 0; i < 12; ++i) {
    const NodeId n = g.add_node(i % 2 == 0 ? OpKind::kAdd : OpKind::kMul,
                                "p" + std::to_string(i));
    g.add_edge(prev, n);
    g.add_edge(i % 3 == 0 ? prev : y, n);
    if (i % 4 == 1) g.add_edge(prev, n, EdgeKind::kControl);
    prev = n;
  }
  expect_equivalent(g);
}

// One input broadcast to thousands of consumers, each heading a short
// chain: every cone holds the hub, whose fan-out the carve never walks.
TEST(CarveEquivalenceTest, HubWithThousandsOfFanouts) {
  Graph g("hub");
  const NodeId hub = g.add_node(OpKind::kInput, "hub");
  const NodeId other = g.add_node(OpKind::kInput, "other");
  for (int i = 0; i < 3000; ++i) {
    const std::string s = std::to_string(i);
    const NodeId a = g.add_node(OpKind::kAdd, "a" + s);
    g.add_edge(hub, a);
    g.add_edge(i % 2 == 0 ? other : hub, a);
    const NodeId m = g.add_node(OpKind::kMul, "m" + s);
    g.add_edge(a, m);
    g.add_edge(hub, m);
  }
  expect_equivalent(g);
}

// Temporal (watermark) and token (loop-carried) edges are outside the
// carve filter: the marked graph carves exactly as its skeleton does.
TEST(CarveEquivalenceTest, TemporalAndTokenEdgesAreIgnored) {
  Graph skeleton = dfglib::make_fft(8);
  Graph marked = skeleton;
  const std::vector<NodeId> ops = executable_roots(marked);
  for (std::size_t i = 0; i + 7 < ops.size(); i += 5) {
    if (!cdfg::reaches(marked, ops[i + 7], ops[i])) {
      marked.add_edge(ops[i], ops[i + 7], EdgeKind::kTemporal);
    }
  }
  marked.add_edge(ops.back(), ops.front(), EdgeKind::kData, 1);
  marked.add_edge(ops[ops.size() / 2], ops[1], EdgeKind::kData, 2);
  dfglib::add_feedback(marked, 1);
  expect_equivalent(marked);

  const crypto::Signature sig = signer();
  for (const int tau : kTaus) {
    const DomainKey key{tau, 1, 2};
    Carver on_marked(marked, sig, key);
    Carver on_skeleton(skeleton, sig, key);
    for (const NodeId root : ops) {
      const DomainView a = on_marked.carve(root);
      const DomainView b = on_skeleton.carve(root);
      ASSERT_TRUE(std::ranges::equal(a.ordered, b.ordered)) << "tau " << tau;
      ASSERT_TRUE(std::ranges::equal(a.selected, b.selected)) << "tau " << tau;
    }
  }
}

}  // namespace
}  // namespace lwm::wm
