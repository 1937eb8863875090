// detector.h — copy detection for local watermarks.
//
// "During copy detection, the goal is to find at least one local
// watermark in a particular design."  The detector holds the designer's
// watermark records in *graph-independent coordinates*: the domain key,
// plus each temporal constraint as a pair of positions inside the
// ordered carved subtree.  Scanning a suspect design, it treats every
// node as a candidate root, re-derives the locality with the author's
// signature (domain selection is a pure function of local structure and
// the signature), maps the recorded positions back to suspect nodes and
// checks the recovered schedule against the constraints.  Because
// everything is locality-relative, detection works on cut-out partitions
// and on cores embedded in larger systems — the two scenarios global
// watermarks fail (paper §I).
#pragma once

#include <span>
#include <vector>

#include "cdfg/graph.h"
#include "crypto/signature.h"
#include "sched/schedule.h"
#include "tmatch/cover.h"
#include "wm/sched_constraints.h"
#include "wm/tm_constraints.h"

namespace lwm::exec {
class ThreadPool;
}

namespace lwm::wm {

/// Graph-independent record of one scheduling watermark (what the
/// designer archives at embed time).
struct SchedRecord {
  DomainKey domain;
  /// (src position, dst position) within the ordered carved subtree.
  std::vector<std::pair<int, int>> positions;
  /// Structural fingerprint of the memorized subtree T: the functional id
  /// of every carved node, in unique-identifier order.  Detection first
  /// "checks whether [a candidate node] represents a root n_o of the
  /// memorized subtree" (paper §IV-A) by comparing this sequence; only
  /// then are the schedule constraints verified.  Without it, ASAP-like
  /// schedules coincidentally satisfy src-before-dst pairs at many
  /// unrelated roots.
  std::vector<int> subtree_ops;

  [[nodiscard]] static SchedRecord from(const SchedWatermark& wm,
                                        const cdfg::Graph& g);
};

/// One candidate-root evaluation.
struct SchedHit {
  cdfg::NodeId root;
  int satisfied = 0;  ///< constraints honored by the suspect schedule
  int total = 0;      ///< constraints of the record (0 if the gate failed)
  [[nodiscard]] bool full() const { return total > 0 && satisfied == total; }
};

struct SchedDetectionReport {
  std::vector<SchedHit> hits;       ///< full matches only
  /// Earliest root attaining the greatest satisfied count among roots
  /// that pass the structural gate; invalid when none does.
  cdfg::NodeId best_root;
  int roots_scanned = 0;

  [[nodiscard]] bool detected() const { return !hits.empty(); }
};

// Every entry point below runs check_record on its records first and
// throws std::invalid_argument naming the index of a record it refuses.

/// Scans every executable node of `suspect` as a candidate root for every
/// record: a hit needs the signature carve at the root to pass the
/// structural gate and every recorded constraint to hold in `schedule`.
/// The carve depends only on the domain key, so records sharing a key
/// share one carve per root.  With a pool the roots are scanned across
/// its lanes and merged in root order, so reports are identical at any
/// thread count.  Results are index-aligned with `records`.
[[nodiscard]] std::vector<SchedDetectionReport> detect_sched_watermarks(
    const cdfg::Graph& suspect, const sched::Schedule& schedule,
    const crypto::Signature& sig, std::span<const SchedRecord> records,
    exec::ThreadPool* pool = nullptr);

/// detect_sched_watermarks on a batch of one.
[[nodiscard]] SchedDetectionReport detect_sched_watermark(
    const cdfg::Graph& suspect, const sched::Schedule& schedule,
    const crypto::Signature& sig, const SchedRecord& record,
    exec::ThreadPool* pool = nullptr);

/// Verifies a specific already-known locality (fast path when the
/// suspect is believed to be the unmodified design): the carve at `root`
/// scored like one root of the scan; 0/0 if it fails the gate.
[[nodiscard]] SchedHit verify_sched_watermark_at(const cdfg::Graph& suspect,
                                                 const sched::Schedule& schedule,
                                                 const crypto::Signature& sig,
                                                 const SchedRecord& record,
                                                 cdfg::NodeId root);

/// Template-matching detection: re-plans the watermark on the suspect
/// graph with the author's signature and checks that every enforced
/// matching appears (same template, same node set) in the suspect cover.
struct TmDetectionReport {
  int found = 0;
  int total = 0;
  [[nodiscard]] bool detected() const { return total > 0 && found == total; }
};
[[nodiscard]] TmDetectionReport detect_tm_watermark(
    const cdfg::Graph& suspect, const tmatch::Cover& suspect_cover,
    const tmatch::TemplateLibrary& lib, const crypto::Signature& sig,
    const TmWmOptions& opts);

}  // namespace lwm::wm
