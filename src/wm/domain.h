// domain.h — domain selection and identification for local watermarks.
//
// Step one of both protocols (paper §IV-A): pick a root n_o, take its
// fan-in tree T_o of max-distance tau, give every node of T_o a *unique
// identifier* via the ordering criteria
//   C1  level L_i — longest path from n_o to n_i inside the locality;
//   C2  K_i(x)    — fan-in cone cardinality at growing distances x;
//   C3  phi(n_i,x) — functionality-weighted cone sums at growing x;
// then carve the watermark subtree T out of T_o with the author-keyed
// bitstream (top-down breadth-first; at each node at least one input is
// kept and every other input is kept with a fixed probability).
//
// Reproduction note: we evaluate C1–C3 on the subgraph *induced by T_o*
// rather than on the whole CDFG.  The paper computes them globally; the
// induced-subgraph variant makes the identifiers a pure function of the
// locality, which is what lets detection succeed after the core is cut
// out of, or embedded into, another design — the property §I motivates.
// Nodes still tied after C1–C3 at every distance have isomorphic
// in-cone environments; they are finally ordered by their breadth-first
// discovery position, which is reproducible because fan-in lists preserve
// insertion order through serialization, extraction, and embedding.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "cdfg/analysis.h"
#include "cdfg/graph.h"
#include "crypto/signature.h"

namespace lwm::wm {

/// Parameters shared by embedding and detection — both sides must agree
/// on these (they are part of the watermark key, alongside the signature).
struct DomainKey {
  int tau = 8;  ///< fan-in max-distance of the locality T_o
  /// Probability (keep_num / keep_den) that a non-mandatory input is kept
  /// while carving T ("the exclusion of inputs can be done with a given
  /// probability").
  std::uint32_t keep_num = 1;
  std::uint32_t keep_den = 2;
  /// Largest accepted tau.  Carving allocates tau-long feature vectors
  /// per cone node, so a tau read from untrusted text is an allocation
  /// size and must be bounded.
  static constexpr int kMaxTau = 32;
  /// Purpose tag for the carving bitstream.
  static constexpr const char* kCarveTag = "lwm/carve";

  friend bool operator==(const DomainKey&, const DomainKey&) = default;
};

/// A selected and uniquely identified locality.
struct Domain {
  cdfg::NodeId root;
  /// T_o, sorted by unique identifier (identifier == index).
  std::vector<cdfg::NodeId> ordered;
  /// T ⊆ T_o carved by the signature, sorted by unique identifier.
  std::vector<cdfg::NodeId> selected;
};

/// One carve as the Carver that made it holds it: the spans stay valid
/// until that carver's next order()/carve() call or its destruction.
struct DomainView {
  cdfg::NodeId root;
  std::span<const cdfg::NodeId> ordered;   ///< as Domain::ordered
  std::span<const cdfg::NodeId> selected;  ///< as Domain::selected
};

/// The one implementation of domain selection, for many roots of one
/// graph under one (signature, key).  Its scratch is sized to the
/// largest cone carved so far, never to the graph: a flat NodeId -> slot
/// index cleared by epoch stamp, per-slot in-cone fan-in lists and
/// tau-stride C2/C3 feature rows.  The kCarveTag stream is keyed once
/// and copied per carve.  Detection builds one carver per scanned chunk
/// of roots; select_domain and order_locality are one-shot wrappers.
///
/// A carver counts its carves (`wm/domains_carved`, `wm/domain_size`)
/// and publishes the tally once, when it is destroyed.  Not thread-safe:
/// use one carver per thread.  `g` must outlive the carver unmodified.
class Carver {
 public:
  /// Keys the carve stream.  Throws std::invalid_argument if key.tau < 1.
  Carver(const cdfg::Graph& g, const crypto::Signature& sig,
         const DomainKey& key);
  /// An ordering-only carver: order() works, carve() throws
  /// std::logic_error.  Throws std::invalid_argument if tau < 1.
  Carver(const cdfg::Graph& g, int tau);
  ~Carver();
  Carver(Carver&&) noexcept;
  Carver& operator=(Carver&&) = delete;

  /// T_o of `root` ordered by C1 -> C2 -> C3 -> discovery position.
  /// Signature-free and uncounted.  Throws std::out_of_range if `root`
  /// is not a live node.
  [[nodiscard]] std::span<const cdfg::NodeId> order(cdfg::NodeId root);

  /// order() plus the signature-keyed carve of T.
  [[nodiscard]] DomainView carve(cdfg::NodeId root);

 private:
  struct State;
  std::unique_ptr<State> s_;
};

/// Orders the fan-in cone of `root` (max-distance `tau`) by criteria
/// C1 → C2 → C3 → discovery position.  Deterministic, signature-free.
[[nodiscard]] std::vector<cdfg::NodeId> order_locality(const cdfg::Graph& g,
                                                       cdfg::NodeId root, int tau);

/// Full domain selection: ordering plus signature-keyed carving of T.
/// A pure function of (graph structure reachable from root, key, sig) —
/// embedding and detection call this identically.  A one-shot Carver.
[[nodiscard]] Domain select_domain(const cdfg::Graph& g, cdfg::NodeId root,
                                   const crypto::Signature& sig,
                                   const DomainKey& key);

/// The structural gate of detection: "checks whether [a candidate node]
/// represents a root n_o of the memorized subtree" (paper §IV-A).  True
/// iff the carve `selected` has exactly the functional ids
/// `subtree_ops`, position by position.
[[nodiscard]] bool matches_subtree(const cdfg::Graph& g,
                                   std::span<const cdfg::NodeId> selected,
                                   std::span<const int> subtree_ops);

/// What check_record refused, and the position pair at fault (none when
/// the key or the ops are), so a text parser can name the line.
struct RecordDefect {
  std::optional<std::size_t> pair;
  std::string message;
};

/// The key part of check_record: tau in [1, DomainKey::kMaxTau] and a
/// keep probability num/den with 0 < den and num <= den.
[[nodiscard]] std::optional<RecordDefect> check_key(const DomainKey& key);

/// The one validation of a detection record (sched or reg) where records
/// cross a trust boundary: a valid key, non-empty ops, and every position
/// in [0, |subtree_ops|).  A carve that passes matches_subtree has
/// |subtree_ops| nodes, so a checked record maps every pair.
[[nodiscard]] std::optional<RecordDefect> check_record(
    const DomainKey& key, std::span<const std::pair<int, int>> positions,
    std::span<const int> subtree_ops);

/// Picks a pseudo-random executable root from `stream` (used when
/// embedding; detection scans all candidate roots instead).
[[nodiscard]] cdfg::NodeId pick_root(const cdfg::Graph& g,
                                     crypto::Bitstream& stream);

}  // namespace lwm::wm
