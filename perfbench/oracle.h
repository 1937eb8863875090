// oracle.h — the benchmark's own output checks.
//
// Every check is computed here from the graph's raw nodes and edges, not
// by calling the library routine under test, and none compares against a
// stored copy of an earlier run.  A check returns an empty string when the
// property holds and a one-line description of the first violation
// otherwise.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cdfg/analysis.h"
#include "cdfg/graph.h"
#include "sched/kpaths.h"
#include "sched/resources.h"
#include "sched/schedule.h"
#include "wm/sched_constraints.h"

namespace pb::oracle {

/// Longest-path timing over the edges `filter` accepts, from the
/// benchmark's own Kahn order: ASAP/ALAP at d_max and at d_min against
/// the d_max critical path, plus both critical-path lengths.  Entries
/// of dead ids are -1.
struct Timing {
  std::vector<int> asap, alap, asap_min, alap_min;
  int cp = 0;
  int cp_min = 0;
  std::vector<std::uint32_t> topo;  ///< live node ids in topological order
};
[[nodiscard]] Timing longest_paths(const lwm::cdfg::Graph& g,
                                   lwm::cdfg::EdgeFilter filter);

/// compute_timing_bounded's windows and critical paths equal the oracle's.
[[nodiscard]] std::string check_timing(const lwm::cdfg::Graph& g,
                                       const Timing& want,
                                       const lwm::cdfg::BoundedTimingInfo& got);

/// Every entry is a connected source-to-sink chain whose `length` and
/// `length_min` are the sums of its delays; lengths never increase along
/// the list; paths[0] has the oracle's critical-path length.
[[nodiscard]] std::string check_kpaths(
    const lwm::cdfg::Graph& g,
    const std::vector<lwm::sched::CriticalPath>& paths, int cp,
    lwm::cdfg::EdgeFilter filter);

/// Every executable node scheduled at a step >= 0, every edge `filter`
/// accepts between executable nodes honored, per-step per-class use
/// within `res` (a unit is busy for the op's whole d_max), and the
/// schedule length within `latency` when latency >= 0.
[[nodiscard]] std::string check_flat(const lwm::cdfg::Graph& g,
                                     const lwm::sched::Schedule& s,
                                     lwm::cdfg::EdgeFilter filter,
                                     const lwm::sched::ResourceSet& res,
                                     int latency);

/// Resource-minimum II: per limited class, ceil(busy steps / units).
[[nodiscard]] int res_mii(const lwm::cdfg::Graph& g,
                          const lwm::sched::ResourceSet& res);

/// Token-weighted precedence on every edge (start(dst) + ii * tokens >=
/// start(src) + delay(src)) and modulo-II unit occupancy within `res`.
[[nodiscard]] std::string check_periodic(const lwm::cdfg::Graph& g,
                                         const lwm::sched::Schedule& s, int ii,
                                         const lwm::sched::ResourceSet& res);

/// Delay weight of the heaviest cycle through the single token edge
/// `feedback`: the longest path from its head to its tail over the
/// token-free edges (EdgeFilter::all(), temporal edges included).
[[nodiscard]] int feedback_cycle_weight(const lwm::cdfg::Graph& g,
                                        lwm::cdfg::EdgeId feedback);

/// The parsed graph equals the generated one in node names, kinds and
/// delay bounds and in edge endpoints, kinds and tokens, in order.
[[nodiscard]] std::string same_graph(const lwm::cdfg::Graph& want,
                                     const lwm::cdfg::Graph& got);

/// Constraints of `m` whose destination the source already reaches over
/// the specification's own dependences (EdgeFilter::specification()):
/// every legal schedule orders such a pair, so it carries no watermark
/// information.  `asap` is the specification ASAP at d_max, used to prune
/// the search.
[[nodiscard]] int implied_edges(const lwm::cdfg::Graph& g,
                                const lwm::wm::SchedWatermark& m,
                                const std::vector<int>& asap);

/// A seeded schedule that honors every edge of the marked graph's
/// acyclic skeleton: ASAP over EdgeFilter::all(), with each node issued
/// one step late with probability 1/4.
[[nodiscard]] lwm::sched::Schedule jittered_asap(const lwm::cdfg::Graph& g,
                                                 std::uint64_t seed);

}  // namespace pb::oracle
