#include "oracle.h"

#include <algorithm>
#include <map>
#include <stdexcept>

#include "cdfg/op.h"
#include "common.h"

namespace pb::oracle {

using lwm::cdfg::Edge;
using lwm::cdfg::EdgeFilter;
using lwm::cdfg::EdgeId;
using lwm::cdfg::Graph;
using lwm::cdfg::Node;
using lwm::cdfg::NodeId;
using lwm::cdfg::UnitClass;
using lwm::cdfg::is_executable;
using lwm::cdfg::unit_class;
using lwm::sched::ResourceSet;
using lwm::sched::Schedule;

namespace {

std::vector<std::uint32_t> kahn(const Graph& g, EdgeFilter filter) {
  std::vector<int> indeg(g.node_capacity(), 0);
  for (const EdgeId e : g.edges()) {
    const Edge& ed = g.edge(e);
    if (filter.accepts(ed)) ++indeg[ed.dst.value];
  }
  std::vector<std::uint32_t> order;
  order.reserve(g.node_count());
  for (const NodeId n : g.nodes()) {
    if (indeg[n.value] == 0) order.push_back(n.value);
  }
  for (std::size_t i = 0; i < order.size(); ++i) {
    for (const EdgeId e : g.fanout(NodeId{order[i]})) {
      const Edge& ed = g.edge(e);
      if (filter.accepts(ed) && --indeg[ed.dst.value] == 0) {
        order.push_back(ed.dst.value);
      }
    }
  }
  if (order.size() != g.node_count()) {
    throw std::runtime_error("oracle: precedence relation is cyclic");
  }
  return order;
}

std::string node_str(const Graph& g, std::uint32_t v) {
  return "'" + g.node(NodeId{v}).name + "'";
}

}  // namespace

Timing longest_paths(const Graph& g, EdgeFilter filter) {
  Timing t;
  t.topo = kahn(g, filter);
  const std::size_t cap = g.node_capacity();
  t.asap.assign(cap, -1);
  t.asap_min.assign(cap, -1);
  t.alap.assign(cap, -1);
  t.alap_min.assign(cap, -1);
  for (const std::uint32_t v : t.topo) {
    int s = 0, s_min = 0;
    for (const EdgeId e : g.fanin(NodeId{v})) {
      const Edge& ed = g.edge(e);
      if (!filter.accepts(ed)) continue;
      const Node& p = g.node(ed.src);
      s = std::max(s, t.asap[ed.src.value] + p.delay);
      s_min = std::max(s_min, t.asap_min[ed.src.value] + p.delay_min);
    }
    t.asap[v] = s;
    t.asap_min[v] = s_min;
    const Node& n = g.node(NodeId{v});
    t.cp = std::max(t.cp, s + n.delay);
    t.cp_min = std::max(t.cp_min, s_min + n.delay_min);
  }
  for (auto it = t.topo.rbegin(); it != t.topo.rend(); ++it) {
    const Node& n = g.node(NodeId{*it});
    int l = t.cp - n.delay, l_min = t.cp - n.delay_min;
    for (const EdgeId e : g.fanout(NodeId{*it})) {
      const Edge& ed = g.edge(e);
      if (!filter.accepts(ed)) continue;
      l = std::min(l, t.alap[ed.dst.value] - n.delay);
      l_min = std::min(l_min, t.alap_min[ed.dst.value] - n.delay_min);
    }
    t.alap[*it] = l;
    t.alap_min[*it] = l_min;
  }
  return t;
}

std::string check_timing(const Graph& g, const Timing& want,
                         const lwm::cdfg::BoundedTimingInfo& got) {
  if (got.pess.critical_path != want.cp) {
    return "critical_path " + std::to_string(got.pess.critical_path) +
           " != oracle " + std::to_string(want.cp);
  }
  if (got.critical_path_min != want.cp_min) {
    return "critical_path_min " + std::to_string(got.critical_path_min) +
           " != oracle " + std::to_string(want.cp_min);
  }
  for (const NodeId n : g.nodes()) {
    const std::uint32_t v = n.value;
    if (got.pess.asap[v] != want.asap[v] || got.pess.alap[v] != want.alap[v] ||
        got.asap_min[v] != want.asap_min[v] ||
        got.alap_min[v] != want.alap_min[v]) {
      return "timing window of " + node_str(g, v) + " differs from oracle";
    }
  }
  return {};
}

std::string check_kpaths(const Graph& g,
                         const std::vector<lwm::sched::CriticalPath>& paths,
                         int cp, EdgeFilter filter) {
  if (paths.empty()) return "k_worst_paths returned no path";
  if (paths.front().length != cp) {
    return "paths[0].length " + std::to_string(paths.front().length) +
           " != oracle critical path " + std::to_string(cp);
  }
  const auto has_accepted = [&](std::span<const EdgeId> edges) {
    return std::any_of(edges.begin(), edges.end(), [&](EdgeId e) {
      return filter.accepts(g.edge(e));
    });
  };
  for (std::size_t i = 0; i < paths.size(); ++i) {
    const auto& p = paths[i];
    const std::string at = "path " + std::to_string(i) + ": ";
    if (p.nodes.empty()) return at + "empty";
    if (i > 0 && p.length > paths[i - 1].length) {
      return at + "length increases along the list";
    }
    if (has_accepted(g.fanin(p.nodes.front()))) return at + "starts at a non-source";
    if (has_accepted(g.fanout(p.nodes.back()))) return at + "ends at a non-sink";
    int len = 0, len_min = 0;
    for (std::size_t k = 0; k < p.nodes.size(); ++k) {
      len += g.node(p.nodes[k]).delay;
      len_min += g.node(p.nodes[k]).delay_min;
      if (k + 1 == p.nodes.size()) break;
      const auto out = g.fanout(p.nodes[k]);
      const bool linked = std::any_of(out.begin(), out.end(), [&](EdgeId e) {
        const Edge& ed = g.edge(e);
        return filter.accepts(ed) && ed.dst == p.nodes[k + 1];
      });
      if (!linked) return at + "not a connected chain";
    }
    if (len != p.length || len_min != p.length_min) {
      return at + "length " + std::to_string(p.length) + "/" +
             std::to_string(p.length_min) + " != delay sums " +
             std::to_string(len) + "/" + std::to_string(len_min);
    }
  }
  return {};
}

std::string check_flat(const Graph& g, const Schedule& s, EdgeFilter filter,
                       const ResourceSet& res, int latency) {
  int length = 0;
  for (const NodeId n : g.nodes()) {
    const Node& node = g.node(n);
    if (!is_executable(node.kind)) continue;
    if (s.start_of(n) < 0) return node_str(g, n.value) + " is unscheduled";
    length = std::max(length, s.start_of(n) + node.delay);
  }
  for (const EdgeId e : g.edges()) {
    const Edge& ed = g.edge(e);
    if (!filter.accepts(ed)) continue;
    const Node& src = g.node(ed.src);
    if (!is_executable(src.kind) || !is_executable(g.node(ed.dst).kind)) {
      continue;  // boundary pseudo-ops carry no step of their own
    }
    if (s.start_of(ed.dst) < s.start_of(ed.src) + src.delay) {
      return "edge " + node_str(g, ed.src.value) + " -> " +
             node_str(g, ed.dst.value) + " violated";
    }
  }
  if (latency >= 0 && length > latency) {
    return "length " + std::to_string(length) + " exceeds latency bound " +
           std::to_string(latency);
  }
  if (res.is_unlimited()) return {};
  std::vector<std::array<int, lwm::cdfg::kNumUnitClasses>> use(
      static_cast<std::size_t>(length) + 1);
  for (const NodeId n : g.nodes()) {
    const Node& node = g.node(n);
    if (!is_executable(node.kind)) continue;
    const auto c = static_cast<std::size_t>(unit_class(node.kind));
    for (int t = s.start_of(n); t < s.start_of(n) + node.delay; ++t) {
      ++use[static_cast<std::size_t>(t)][c];
    }
  }
  for (std::size_t t = 0; t < use.size(); ++t) {
    for (int c = 0; c < lwm::cdfg::kNumUnitClasses; ++c) {
      const auto uc = static_cast<UnitClass>(c);
      if (res.is_limited(uc) && use[t][static_cast<std::size_t>(c)] > res.count(uc)) {
        return "step " + std::to_string(t) + " over-subscribes unit class " +
               std::to_string(c);
      }
    }
  }
  return {};
}

int res_mii(const Graph& g, const ResourceSet& res) {
  std::array<long long, lwm::cdfg::kNumUnitClasses> busy{};
  for (const NodeId n : g.nodes()) {
    const Node& node = g.node(n);
    if (is_executable(node.kind)) {
      busy[static_cast<std::size_t>(unit_class(node.kind))] += node.delay;
    }
  }
  long long mii = 1;
  for (int c = 0; c < lwm::cdfg::kNumUnitClasses; ++c) {
    const auto uc = static_cast<UnitClass>(c);
    const long long b = busy[static_cast<std::size_t>(c)];
    if (res.is_limited(uc) && b > 0) {
      mii = std::max(mii, (b + res.count(uc) - 1) / res.count(uc));
    }
  }
  return static_cast<int>(mii);
}

std::string check_periodic(const Graph& g, const Schedule& s, int ii,
                           const ResourceSet& res) {
  if (ii < 1) return "II " + std::to_string(ii) + " is not positive";
  for (const NodeId n : g.nodes()) {
    if (is_executable(g.node(n).kind) && s.start_of(n) < 0) {
      return node_str(g, n.value) + " is unscheduled";
    }
  }
  for (const EdgeId e : g.edges()) {
    const Edge& ed = g.edge(e);
    if (!EdgeFilter::periodic().accepts(ed)) continue;
    if (s.start_of(ed.src) < 0 || s.start_of(ed.dst) < 0) continue;
    const long long lhs = s.start_of(ed.dst) + static_cast<long long>(ii) * ed.tokens;
    if (lhs < s.start_of(ed.src) + g.node(ed.src).delay) {
      return "edge " + node_str(g, ed.src.value) + " -> " +
             node_str(g, ed.dst.value) + " (" + std::to_string(ed.tokens) +
             " tokens) violated at II " + std::to_string(ii);
    }
  }
  std::map<std::pair<int, int>, int> mrt;  // (class, slot) -> busy units
  for (const NodeId n : g.nodes()) {
    const Node& node = g.node(n);
    if (!is_executable(node.kind)) continue;
    const auto uc = unit_class(node.kind);
    if (!res.is_limited(uc)) continue;
    for (int k = 0; k < node.delay; ++k) {
      const int slot = (s.start_of(n) + k) % ii;
      if (++mrt[{static_cast<int>(uc), slot}] > res.count(uc)) {
        return "modulo slot " + std::to_string(slot) +
               " over-subscribes unit class " +
               std::to_string(static_cast<int>(uc));
      }
    }
  }
  return {};
}

int feedback_cycle_weight(const Graph& g, EdgeId feedback) {
  const Edge& fb = g.edge(feedback);
  const std::vector<std::uint32_t> order = kahn(g, EdgeFilter::all());
  std::vector<int> dist(g.node_capacity(), -1);
  dist[fb.dst.value] = g.node(fb.dst).delay;
  for (const std::uint32_t v : order) {
    if (dist[v] < 0) continue;
    for (const EdgeId e : g.fanout(NodeId{v})) {
      const Edge& ed = g.edge(e);
      if (!EdgeFilter::all().accepts(ed)) continue;
      dist[ed.dst.value] =
          std::max(dist[ed.dst.value], dist[v] + g.node(ed.dst).delay);
    }
  }
  return dist[fb.src.value];
}

std::string same_graph(const Graph& want, const Graph& got) {
  if (want.node_count() != got.node_count() ||
      want.edge_count() != got.edge_count()) {
    return "node/edge counts differ after the round trip";
  }
  auto a = want.nodes().begin(), b = got.nodes().begin();
  for (; a != want.nodes().end(); ++a, ++b) {
    const Node& x = want.node(*a);
    const Node& y = got.node(*b);
    if (x.name != y.name || x.kind != y.kind || x.delay != y.delay ||
        x.delay_min != y.delay_min) {
      return "node '" + x.name + "' differs after the round trip";
    }
  }
  auto c = want.edges().begin(), d = got.edges().begin();
  for (; c != want.edges().end(); ++c, ++d) {
    const Edge& x = want.edge(*c);
    const Edge& y = got.edge(*d);
    if (want.node(x.src).name != got.node(y.src).name ||
        want.node(x.dst).name != got.node(y.dst).name || x.kind != y.kind ||
        x.tokens != y.tokens) {
      return "edge '" + want.node(x.src).name + "' -> '" +
             want.node(x.dst).name + "' differs after the round trip";
    }
  }
  return {};
}

int implied_edges(const Graph& g, const lwm::wm::SchedWatermark& m,
                  const std::vector<int>& asap) {
  const EdgeFilter spec = EdgeFilter::specification();
  int implied = 0;
  std::vector<std::uint32_t> stack;
  std::vector<std::uint32_t> seen;
  std::vector<char> mark(g.node_capacity(), 0);
  for (const auto& c : m.constraints) {
    bool found = false;
    stack.assign(1, c.src.value);
    mark[c.src.value] = 1;
    seen.assign(1, c.src.value);
    while (!stack.empty() && !found) {
      const std::uint32_t v = stack.back();
      stack.pop_back();
      for (const EdgeId e : g.fanout(NodeId{v})) {
        const Edge& ed = g.edge(e);
        if (!spec.accepts(ed)) continue;
        const std::uint32_t w = ed.dst.value;
        if (w == c.dst.value) {
          found = true;
          break;
        }
        // A node that starts after dst at d_max cannot precede it.
        if (mark[w] || asap[w] > asap[c.dst.value]) continue;
        mark[w] = 1;
        seen.push_back(w);
        stack.push_back(w);
      }
    }
    for (const std::uint32_t v : seen) mark[v] = 0;
    if (found) ++implied;
  }
  return implied;
}

Schedule jittered_asap(const Graph& g, std::uint64_t seed) {
  const std::vector<std::uint32_t> order = kahn(g, EdgeFilter::all());
  Schedule s(g);
  std::vector<int> start(g.node_capacity(), 0);
  for (const std::uint32_t v : order) {
    int t = 0;
    for (const EdgeId e : g.fanin(NodeId{v})) {
      const Edge& ed = g.edge(e);
      if (EdgeFilter::all().accepts(ed)) {
        t = std::max(t, start[ed.src.value] + g.node(ed.src).delay);
      }
    }
    start[v] = t + ((mix64(seed ^ v) & 3) == 0 ? 1 : 0);
    s.set_start(NodeId{v}, start[v]);
  }
  return s;
}

}  // namespace pb::oracle
