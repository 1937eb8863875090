// mediabench.h — synthetic stand-ins for the Table I applications.
//
// The paper runs operation-scheduling watermarks over MediaBench
// programs compiled with the IMPACT C compiler for a 4-issue VLIW.
// Neither MediaBench sources, IMPACT, nor the resulting traces are
// redistributable here, so each application is reconstructed as a
// layered random dataflow graph matching the paper's published
// operation count, with a media-workload op mix (documented substitution
// — see DESIGN.md).  Graphs are deterministic per application.
#pragma once

#include <string>
#include <vector>

#include "cdfg/graph.h"

namespace lwm::dfglib {

struct MediabenchApp {
  std::string name;  ///< Table I's name as one token (its "D/A Cnv." is "D/A_Cnv.")
  int operations;    ///< Table I column "Operations"
};

/// The eight Table I rows, in table order.
[[nodiscard]] const std::vector<MediabenchApp>& mediabench_table();

/// Builds the synthetic CDFG for one application.
[[nodiscard]] cdfg::Graph make_mediabench_app(const MediabenchApp& app);

}  // namespace lwm::dfglib
