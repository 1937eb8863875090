#include "carve_reference.h"

#include <algorithm>
#include <deque>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "cdfg/analysis.h"

namespace lwm::wm::reference {

using cdfg::EdgeId;
using cdfg::Graph;
using cdfg::NodeId;

namespace {

/// Per-node ordering features inside a locality.
struct Features {
  NodeId node;
  int discovery = 0;                ///< BFS discovery position (final tie-break)
  int level = 0;                    ///< C1
  std::vector<int> cone_size;       ///< C2: K(x) for x = 1..tau
  std::vector<long long> cone_phi;  ///< C3: phi(x) for x = 1..tau
};

bool carve_accepts(const cdfg::Edge& e) {
  return cdfg::EdgeFilter::specification().accepts(e);
}

/// In-cone data/control producers of `n`, first-occurrence order.
std::vector<NodeId> cone_inputs(const Graph& g, NodeId n,
                                const std::unordered_set<NodeId>& cone) {
  std::vector<NodeId> inputs;
  for (EdgeId e : g.fanin(n)) {
    const cdfg::Edge& ed = g.edge(e);
    if (!carve_accepts(ed)) continue;
    if (cone.count(ed.src) == 0) continue;
    if (std::find(inputs.begin(), inputs.end(), ed.src) == inputs.end()) {
      inputs.push_back(ed.src);
    }
  }
  return inputs;
}

}  // namespace

std::vector<NodeId> order_locality(const Graph& g, NodeId root, int tau) {
  if (tau <= 0) {
    throw std::invalid_argument("order_locality: tau must be positive");
  }
  const std::vector<cdfg::ConeNode> cone_nodes =
      cdfg::fanin_cone(g, root, tau, cdfg::EdgeFilter::specification());

  std::unordered_set<NodeId> cone;
  for (const cdfg::ConeNode& c : cone_nodes) cone.insert(c.node);

  // C1: longest path from root over in-cone fan-in edges, by a Kahn pass
  // over the transposed induced subgraph.
  std::unordered_map<NodeId, int> level;
  std::unordered_map<NodeId, int> pending;  // unprocessed in-cone consumers
  for (const cdfg::ConeNode& c : cone_nodes) pending[c.node] = 0;
  for (const cdfg::ConeNode& c : cone_nodes) {
    for (EdgeId e : g.fanin(c.node)) {
      const cdfg::Edge& ed = g.edge(e);
      if (!carve_accepts(ed)) continue;
      const auto it = pending.find(ed.src);
      if (it != pending.end()) ++it->second;
    }
  }
  std::deque<NodeId> ready{root};
  level[root] = 0;
  while (!ready.empty()) {
    const NodeId n = ready.front();
    ready.pop_front();
    const int next = level.at(n) + 1;
    for (EdgeId e : g.fanin(n)) {
      const cdfg::Edge& ed = g.edge(e);
      if (!carve_accepts(ed)) continue;
      if (cone.count(ed.src) == 0) continue;
      const auto li = level.find(ed.src);
      if (li == level.end()) {
        level[ed.src] = next;
      } else if (next > li->second) {
        li->second = next;
      }
      if (--pending.at(ed.src) == 0) ready.push_back(ed.src);
    }
  }

  // C2/C3: bounded in-cone fan-in sweeps per node.
  auto sweep = [&](NodeId n, std::vector<int>& sizes,
                   std::vector<long long>& phis) {
    std::unordered_map<NodeId, int> dist;
    dist[n] = 0;
    std::deque<NodeId> queue{n};
    sizes.assign(static_cast<std::size_t>(tau), 0);
    phis.assign(static_cast<std::size_t>(tau), 0);
    const long long phi_self = cdfg::functional_id(g.node(n).kind);
    while (!queue.empty()) {
      const NodeId m = queue.front();
      queue.pop_front();
      const int dm = dist[m];
      if (dm >= tau) continue;
      for (const NodeId p : cone_inputs(g, m, cone)) {
        if (dist.count(p) != 0) continue;
        dist[p] = dm + 1;
        queue.push_back(p);
      }
    }
    for (const auto& [m, dm] : dist) {
      if (m == n) continue;
      for (int x = dm; x <= tau; ++x) {
        ++sizes[static_cast<std::size_t>(x - 1)];
        phis[static_cast<std::size_t>(x - 1)] += cdfg::functional_id(g.node(m).kind);
      }
    }
    for (int x = 1; x <= tau; ++x) {
      phis[static_cast<std::size_t>(x - 1)] += phi_self;
    }
  };

  std::vector<Features> feats;
  for (std::size_t i = 0; i < cone_nodes.size(); ++i) {
    Features f;
    f.node = cone_nodes[i].node;
    f.discovery = static_cast<int>(i);
    f.level = level.at(f.node);
    sweep(f.node, f.cone_size, f.cone_phi);
    feats.push_back(std::move(f));
  }

  std::sort(feats.begin(), feats.end(), [tau](const Features& a, const Features& b) {
    if (a.level != b.level) return a.level > b.level;  // C1: deeper first
    for (int x = 0; x < tau; ++x) {                    // C2 at growing x
      const auto xi = static_cast<std::size_t>(x);
      if (a.cone_size[xi] != b.cone_size[xi]) return a.cone_size[xi] > b.cone_size[xi];
    }
    for (int x = 0; x < tau; ++x) {                    // C3 at growing x
      const auto xi = static_cast<std::size_t>(x);
      if (a.cone_phi[xi] != b.cone_phi[xi]) return a.cone_phi[xi] > b.cone_phi[xi];
    }
    return a.discovery < b.discovery;                  // structural tie-break
  });

  std::vector<NodeId> out;
  out.reserve(feats.size());
  for (const Features& f : feats) out.push_back(f.node);
  return out;
}

Domain select_domain(const Graph& g, NodeId root, const crypto::Signature& sig,
                     const DomainKey& key) {
  return carve_ordered(g, root, order_locality(g, root, key.tau), sig, key);
}

Domain carve_ordered(const Graph& g, NodeId root, std::vector<NodeId> ordered,
                     const crypto::Signature& sig, const DomainKey& key) {
  Domain d;
  d.root = root;
  d.ordered = std::move(ordered);

  std::unordered_set<NodeId> cone(d.ordered.begin(), d.ordered.end());
  std::unordered_set<NodeId> selected{root};

  // Inputs are identified by their unique (C1-C3) rank in the ordered
  // locality, not by raw fan-in list order.
  std::unordered_map<NodeId, int> rank;
  for (std::size_t i = 0; i < d.ordered.size(); ++i) {
    rank[d.ordered[i]] = static_cast<int>(i);
  }
  auto ranked_inputs = [&](NodeId n) {
    std::vector<NodeId> inputs = cone_inputs(g, n, cone);
    std::sort(inputs.begin(), inputs.end(),
              [&](NodeId a, NodeId b) { return rank.at(a) < rank.at(b); });
    return inputs;
  };

  crypto::Bitstream stream = sig.stream(DomainKey::kCarveTag);

  // Top-down breadth-first carving: one mandatory input per node, every
  // other input kept with probability keep_num / keep_den.
  std::deque<NodeId> queue{root};
  while (!queue.empty()) {
    const NodeId n = queue.front();
    queue.pop_front();
    const std::vector<NodeId> inputs = ranked_inputs(n);
    if (inputs.empty()) continue;
    const std::uint32_t mandatory =
        stream.next_uint(static_cast<std::uint32_t>(inputs.size()));
    for (std::uint32_t i = 0; i < inputs.size(); ++i) {
      bool include = (i == mandatory);
      if (!include) include = stream.bernoulli(key.keep_num, key.keep_den);
      if (include && selected.insert(inputs[i]).second) {
        queue.push_back(inputs[i]);
      }
    }
  }

  for (const NodeId n : d.ordered) {
    if (selected.count(n) != 0) d.selected.push_back(n);
  }
  return d;
}

}  // namespace lwm::wm::reference
