// carve_reference.h — the hash-map carve, kept as a test oracle.
//
// This is domain selection as the library implemented it before the
// flat Carver: fanin_cone for the locality, per-node unordered_map /
// unordered_set / deque for the C1 levels and every C2/C3 sweep, and a
// freshly keyed carve stream per call.  It is slow and allocation-heavy
// but written straight from the paper's definitions (§IV-A), which is
// what makes it a useful reference: tests compare the library's
// `ordered` and `selected` against it root by root.
#pragma once

#include <vector>

#include "cdfg/graph.h"
#include "crypto/signature.h"
#include "wm/domain.h"

namespace lwm::wm::reference {

/// C1 → C2 → C3 → discovery-position ordering of root's tau-cone.
[[nodiscard]] std::vector<cdfg::NodeId> order_locality(const cdfg::Graph& g,
                                                       cdfg::NodeId root, int tau);

/// The signature-keyed top-down carve of T out of `ordered`, the
/// order_locality of `root` at key.tau.
[[nodiscard]] Domain carve_ordered(const cdfg::Graph& g, cdfg::NodeId root,
                                   std::vector<cdfg::NodeId> ordered,
                                   const crypto::Signature& sig,
                                   const DomainKey& key);

/// order_locality plus carve_ordered.
[[nodiscard]] Domain select_domain(const cdfg::Graph& g, cdfg::NodeId root,
                                   const crypto::Signature& sig,
                                   const DomainKey& key);

}  // namespace lwm::wm::reference
