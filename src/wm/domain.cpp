#include "wm/domain.h"

#include <algorithm>
#include <array>
#include <bit>
#include <limits>
#include <stdexcept>

#include "obs/obs.h"

namespace lwm::wm {

using cdfg::EdgeId;
using cdfg::Graph;
using cdfg::NodeId;

namespace {

/// The edge predicate of the carve.  specification() excludes temporal
/// (watermark) edges and loop-carried token edges alike — a marked graph
/// carves identically to its acyclic skeleton, so marks embedded before
/// the feedback edges were closed stay detectable after.
bool carve_accepts(const cdfg::Edge& e) {
  return cdfg::EdgeFilter::specification().accepts(e);
}

/// bit_width of a 64-bit sample is 0..64: the log2 buckets of
/// obs::Histogram.
constexpr std::size_t kSizeBuckets = 65;

constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();

}  // namespace

// Every per-slot vector is indexed by slot, the position at which the
// cone BFS reached a node (slot 0 is the root); the ordering's discovery
// position is the slot's rank by (distance, NodeId), the order in which
// fanin_cone reports a cone.  Nothing is sized by the graph.
struct Carver::State {
  const Graph& g;
  int tau;
  std::uint32_t keep_num = 0;
  std::uint32_t keep_den = 0;
  /// The kCarveTag stream after the KSA and the RC4 drop, copied per carve.
  std::optional<crypto::Bitstream> keyed;

  /// NodeId -> slot: open addressing with linear probing over a
  /// power-of-two table; an entry is live iff its stamp is `epoch`, so a
  /// carve clears the table by bumping the epoch.
  struct Entry {
    std::uint32_t node = 0;
    std::uint32_t slot = 0;
    std::uint32_t stamp = 0;
  };
  std::vector<Entry> index = std::vector<Entry>(64);
  int index_shift = 32 - 6;
  std::uint32_t epoch = 0;

  std::vector<NodeId> node;        ///< slot -> node; the cone BFS queue
  std::vector<int> dist;           ///< slot -> distance from the root
  std::vector<int> fid;            ///< slot -> functional id
  /// Distinct in-cone producers of each slot (CSR over slots).
  std::vector<std::uint32_t> in_begin;
  std::vector<std::uint32_t> in_slot;
  std::vector<std::uint32_t> last_consumer;  ///< dedup of in_slot per slot
  std::vector<int> level;                    ///< C1
  std::vector<int> pending;                  ///< unprocessed consumers
  std::vector<std::uint32_t> queue;          ///< Kahn / sweep / carve BFS
  std::vector<std::uint32_t> seen;           ///< sweep stamps per slot
  std::uint32_t sweep = 0;
  std::vector<int> sweep_dist;
  std::vector<int> sizes;       ///< C2: tau-stride row per slot
  std::vector<long long> phis;  ///< C3: tau-stride row per slot
  std::vector<std::uint32_t> perm;  ///< slots in identifier order
  std::vector<std::uint32_t> rank;  ///< slot -> identifier
  std::vector<char> chosen;
  std::vector<std::uint32_t> inputs;
  std::vector<NodeId> ordered;
  std::vector<NodeId> selected;

  std::uint64_t carved = 0;
  std::uint64_t size_sum = 0;
  std::uint64_t size_max = 0;
  std::array<std::uint64_t, kSizeBuckets> size_buckets{};

  State(const Graph& graph, int t) : g(graph), tau(t) {
    if (tau < 1) throw std::invalid_argument("Carver: tau must be positive");
  }

  [[nodiscard]] std::size_t home(std::uint32_t n) const {
    return (n * 0x9E3779B1u) >> index_shift;
  }

  /// Slot of `n` in this carve's cone, or kNone.
  [[nodiscard]] std::uint32_t find(NodeId n) const {
    const std::size_t mask = index.size() - 1;
    for (std::size_t i = home(n.value);; i = (i + 1) & mask) {
      const Entry& e = index[i];
      if (e.stamp != epoch) return kNone;
      if (e.node == n.value) return e.slot;
    }
  }

  void place(std::uint32_t n, std::uint32_t slot) {
    const std::size_t mask = index.size() - 1;
    std::size_t i = home(n);
    while (index[i].stamp == epoch) i = (i + 1) & mask;
    index[i] = Entry{n, slot, epoch};
  }

  /// Slot of `n`, appended at distance `d` if it is not in the cone yet.
  std::uint32_t reach(NodeId n, int d) {
    if (const std::uint32_t s = find(n); s != kNone) return s;
    if (2 * (node.size() + 1) > index.size()) {
      index.assign(index.size() * 2, Entry{});
      --index_shift;
      for (std::uint32_t i = 0; i < node.size(); ++i) place(node[i].value, i);
    }
    const auto s = static_cast<std::uint32_t>(node.size());
    place(n.value, s);
    node.push_back(n);
    dist.push_back(d);
    last_consumer.push_back(kNone);
    return s;
  }

  /// The tau-cone of `root` over carve edges, breadth-first, and the
  /// distinct in-cone producers of each slot in first-occurrence order
  /// (parallel edges collapse onto their first occurrence).  Each cone
  /// node's fan-in is walked once: a node short of tau reaches all of its
  /// producers, and by the time the first node at tau is dequeued every
  /// node within tau has been reached, so one at tau only looks them up.
  void discover(NodeId root) {
    if (!g.is_live(root)) throw std::out_of_range("Carver: dead root node");
    if (++epoch == 0) {  // stamps wrapped: old entries could look live
      std::fill(index.begin(), index.end(), Entry{});
      epoch = 1;
    }
    node.clear();
    dist.clear();
    last_consumer.clear();
    fid.clear();
    in_begin.clear();
    in_slot.clear();
    reach(root, 0);
    for (std::uint32_t s = 0; s < node.size(); ++s) {
      const NodeId n = node[s];
      const int d = dist[s];
      fid.push_back(cdfg::functional_id(g.node(n).kind));
      in_begin.push_back(static_cast<std::uint32_t>(in_slot.size()));
      for (const EdgeId e : g.fanin(n)) {
        const cdfg::Edge& ed = g.edge(e);
        if (!carve_accepts(ed)) continue;
        const std::uint32_t p = d < tau ? reach(ed.src, d + 1) : find(ed.src);
        if (p == kNone || last_consumer[p] == s) continue;
        last_consumer[p] = s;
        in_slot.push_back(p);
      }
    }
    in_begin.push_back(static_cast<std::uint32_t>(in_slot.size()));
  }

  [[nodiscard]] std::span<const std::uint32_t> inputs_of(std::uint32_t s) const {
    return {in_slot.data() + in_begin[s], in_slot.data() + in_begin[s + 1]};
  }

  /// C1: longest path from the root over in-cone edges — a Kahn pass
  /// over the transposed cone, which reaches a node only after all of
  /// its in-cone consumers.
  void levels() {
    const std::size_t k = node.size();
    pending.assign(k, 0);
    for (const std::uint32_t p : in_slot) ++pending[p];
    level.assign(k, -1);
    level[0] = 0;
    queue.assign(1, 0);
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const std::uint32_t s = queue[head];
      for (const std::uint32_t p : inputs_of(s)) {
        level[p] = std::max(level[p], level[s] + 1);
        if (--pending[p] == 0) queue.push_back(p);
      }
    }
    // The root is the unique transposed source; a cone node left over
    // sits on a cycle, which a valid graph's carve edges never close.
    if (queue.size() != k) {
      throw std::out_of_range("Carver: cone of node " +
                              std::to_string(node[0].value) +
                              " closes a cycle");
    }
  }

  /// C2/C3 rows of slot `n`: a breadth-first sweep of its in-cone fan-in
  /// to depth tau.  row[x-1] counts (C2) or sums the functional ids of
  /// (C3) the nodes within distance x.
  void features(std::uint32_t n) {
    const std::size_t t = static_cast<std::size_t>(tau);
    int* size_row = sizes.data() + n * t;
    long long* phi_row = phis.data() + n * t;
    if (++sweep == 0) {
      std::fill(seen.begin(), seen.end(), 0);
      sweep = 1;
    }
    seen[n] = sweep;
    sweep_dist[n] = 0;
    queue.assign(1, n);
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const std::uint32_t m = queue[head];
      const int dm = sweep_dist[m];
      if (m != n) {
        ++size_row[dm - 1];
        phi_row[dm - 1] += fid[m];
      }
      if (dm >= tau) continue;
      for (const std::uint32_t p : inputs_of(m)) {
        if (seen[p] == sweep) continue;
        seen[p] = sweep;
        sweep_dist[p] = dm + 1;
        queue.push_back(p);
      }
    }
    for (std::size_t x = 1; x < t; ++x) {
      size_row[x] += size_row[x - 1];
      phi_row[x] += phi_row[x - 1];
    }
    for (std::size_t x = 0; x < t; ++x) phi_row[x] += fid[n];
  }

  void order(NodeId root) {
    discover(root);
    levels();
    const std::size_t k = node.size();
    const std::size_t t = static_cast<std::size_t>(tau);
    sizes.assign(k * t, 0);
    phis.assign(k * t, 0);
    if (seen.size() < k) {
      seen.resize(k, 0);
      sweep_dist.resize(k);
    }
    for (std::uint32_t s = 0; s < k; ++s) features(s);

    perm.resize(k);
    for (std::uint32_t s = 0; s < k; ++s) perm[s] = s;
    std::sort(perm.begin(), perm.end(), [&](std::uint32_t a, std::uint32_t b) {
      if (level[a] != level[b]) return level[a] > level[b];  // C1: deeper first
      const int* sa = sizes.data() + a * t;                   // C2 at growing x
      const int* sb = sizes.data() + b * t;
      for (std::size_t x = 0; x < t; ++x) {
        if (sa[x] != sb[x]) return sa[x] > sb[x];
      }
      const long long* pa = phis.data() + a * t;              // C3 at growing x
      const long long* pb = phis.data() + b * t;
      for (std::size_t x = 0; x < t; ++x) {
        if (pa[x] != pb[x]) return pa[x] > pb[x];
      }
      // Structural tie-break: discovery position, i.e. (distance, id).
      return dist[a] != dist[b] ? dist[a] < dist[b] : node[a] < node[b];
    });
    ordered.resize(k);
    rank.resize(k);
    for (std::uint32_t i = 0; i < k; ++i) {
      ordered[i] = node[perm[i]];
      rank[perm[i]] = i;
    }
  }

  /// Top-down breadth-first carving of T: "at least one input to include
  /// in the next level ... whether each of the remaining inputs should be
  /// included".  Inputs are taken in identifier order — "the selection
  /// process cannot be misinterpreted because of the unique
  /// identification of each node input" — which, unlike raw fan-in list
  /// order, is invariant under edge re-insertion.
  void carve() {
    if (!keyed) throw std::logic_error("Carver::carve: ordering-only carver");
    crypto::Bitstream stream = *keyed;
    const std::size_t k = node.size();
    chosen.assign(k, 0);
    chosen[0] = 1;
    queue.assign(1, 0);
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const std::span<const std::uint32_t> in = inputs_of(queue[head]);
      if (in.empty()) continue;
      inputs.assign(in.begin(), in.end());
      std::sort(inputs.begin(), inputs.end(),
                [&](std::uint32_t a, std::uint32_t b) { return rank[a] < rank[b]; });
      const std::uint32_t mandatory =
          stream.next_uint(static_cast<std::uint32_t>(inputs.size()));
      for (std::uint32_t i = 0; i < inputs.size(); ++i) {
        const bool include = i == mandatory || stream.bernoulli(keep_num, keep_den);
        if (include && chosen[inputs[i]] == 0) {
          chosen[inputs[i]] = 1;
          queue.push_back(inputs[i]);
        }
      }
    }
    selected.clear();
    for (std::uint32_t i = 0; i < k; ++i) {
      if (chosen[perm[i]] != 0) selected.push_back(ordered[i]);
    }
    ++carved;
    size_sum += selected.size();
    size_max = std::max<std::uint64_t>(size_max, selected.size());
    ++size_buckets[static_cast<std::size_t>(std::bit_width(selected.size()))];
  }
};

Carver::Carver(const Graph& g, const crypto::Signature& sig,
               const DomainKey& key)
    : s_(std::make_unique<State>(g, key.tau)) {
  s_->keep_num = key.keep_num;
  s_->keep_den = key.keep_den;
  s_->keyed.emplace(sig.stream(DomainKey::kCarveTag));
}

Carver::Carver(const Graph& g, int tau) : s_(std::make_unique<State>(g, tau)) {}

Carver::Carver(Carver&&) noexcept = default;

Carver::~Carver() {
#if LWM_OBS_ENABLED
  static_assert(kSizeBuckets == obs::Histogram::kBuckets);
#endif
  if (!s_ || s_->carved == 0) return;
  LWM_COUNT("wm/domains_carved", s_->carved);
  LWM_HIST_MERGE("wm/domain_size", s_->carved, s_->size_sum, s_->size_max,
                 s_->size_buckets);
}

std::span<const NodeId> Carver::order(NodeId root) {
  s_->order(root);
  return s_->ordered;
}

DomainView Carver::carve(NodeId root) {
  s_->order(root);
  s_->carve();
  return DomainView{root, s_->ordered, s_->selected};
}

std::vector<NodeId> order_locality(const Graph& g, NodeId root, int tau) {
  Carver carver(g, tau);
  const std::span<const NodeId> ordered = carver.order(root);
  return {ordered.begin(), ordered.end()};
}

Domain select_domain(const Graph& g, NodeId root, const crypto::Signature& sig,
                     const DomainKey& key) {
  Carver carver(g, sig, key);
  const DomainView d = carver.carve(root);
  return Domain{root, {d.ordered.begin(), d.ordered.end()},
                {d.selected.begin(), d.selected.end()}};
}

bool matches_subtree(const Graph& g, std::span<const NodeId> selected,
                     std::span<const int> subtree_ops) {
  return std::equal(selected.begin(), selected.end(), subtree_ops.begin(),
                    subtree_ops.end(), [&](NodeId n, int op) {
                      return cdfg::functional_id(g.node(n).kind) == op;
                    });
}

std::optional<RecordDefect> check_key(const DomainKey& key) {
  if (key.tau < 1 || key.tau > DomainKey::kMaxTau) {
    return RecordDefect{{}, "tau must lie in [1, " +
                                std::to_string(DomainKey::kMaxTau) +
                                "], got " + std::to_string(key.tau)};
  }
  if (key.keep_den == 0) {
    return RecordDefect{{}, "keep denominator must be nonzero"};
  }
  if (key.keep_num > key.keep_den) {
    return RecordDefect{{}, "keep must not exceed 1, got " +
                                std::to_string(key.keep_num) + "/" +
                                std::to_string(key.keep_den)};
  }
  return std::nullopt;
}

std::optional<RecordDefect> check_record(
    const DomainKey& key, std::span<const std::pair<int, int>> positions,
    std::span<const int> subtree_ops) {
  if (auto bad = check_key(key)) return bad;
  if (subtree_ops.empty()) return RecordDefect{{}, "record has no ops"};
  for (std::size_t i = 0; i < positions.size(); ++i) {
    for (const int p : {positions[i].first, positions[i].second}) {
      if (p < 0 || static_cast<std::size_t>(p) >= subtree_ops.size()) {
        return RecordDefect{i, "pos " + std::to_string(p) + " outside the " +
                                   std::to_string(subtree_ops.size()) +
                                   " ops of the record"};
      }
    }
  }
  return std::nullopt;
}

NodeId pick_root(const Graph& g, crypto::Bitstream& stream) {
  std::vector<NodeId> ops;
  for (NodeId n : g.nodes()) {
    if (cdfg::is_executable(g.node(n).kind)) ops.push_back(n);
  }
  if (ops.empty()) {
    throw std::invalid_argument("pick_root: graph has no operations");
  }
  return ops[stream.next_uint(static_cast<std::uint32_t>(ops.size()))];
}

}  // namespace lwm::wm
