#include "wm/detector.h"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>

#include "exec/parallel.h"
#include "exec/thread_pool.h"
#include "obs/obs.h"

namespace lwm::wm {

using cdfg::Graph;
using cdfg::NodeId;

namespace {

std::vector<NodeId> executable_roots(const Graph& g) {
  std::vector<NodeId> roots;
  for (NodeId n : g.nodes()) {
    if (cdfg::is_executable(g.node(n).kind)) roots.push_back(n);
  }
  return roots;
}

/// Every detect entry point checks its records before scanning, so a
/// record built in code cannot skip the validation parse_records does.
void require_checked(std::span<const SchedRecord> records) {
  for (std::size_t i = 0; i < records.size(); ++i) {
    const SchedRecord& r = records[i];
    if (const auto bad = check_record(r.domain, r.positions, r.subtree_ops)) {
      throw std::invalid_argument("record " + std::to_string(i) + ": " +
                                  bad->message);
    }
  }
}

/// The one gate-and-count: nullopt unless the carve `d` is the record's
/// memorized subtree, else the record's constraints counted against
/// `schedule`.  The record is checked, so a passed gate maps every pair.
std::optional<SchedHit> score(const Graph& suspect,
                              const sched::Schedule& schedule, const Domain& d,
                              const SchedRecord& record) {
  if (!matches_subtree(suspect, d.selected, record.subtree_ops)) {
    return std::nullopt;
  }
  SchedHit hit{d.root};
  for (const auto& [src_pos, dst_pos] : record.positions) {
    const NodeId src = d.selected[static_cast<std::size_t>(src_pos)];
    const NodeId dst = d.selected[static_cast<std::size_t>(dst_pos)];
    ++hit.total;
    if (schedule.is_scheduled(src) && schedule.is_scheduled(dst) &&
        schedule.start_of(src) + suspect.node(src).delay <=
            schedule.start_of(dst)) {
      ++hit.satisfied;
    }
  }
  return hit;
}

}  // namespace

SchedRecord SchedRecord::from(const SchedWatermark& wm, const cdfg::Graph& g) {
  SchedRecord r;
  r.domain = wm.options.domain;
  for (const TemporalConstraint& c : wm.constraints) {
    r.positions.emplace_back(c.src_pos, c.dst_pos);
  }
  r.subtree_ops.reserve(wm.subtree.size());
  for (const cdfg::NodeId n : wm.subtree) {
    r.subtree_ops.push_back(cdfg::functional_id(g.node(n).kind));
  }
  return r;
}

SchedHit verify_sched_watermark_at(const Graph& suspect,
                                   const sched::Schedule& schedule,
                                   const crypto::Signature& sig,
                                   const SchedRecord& record, NodeId root) {
  require_checked({&record, 1});
  const Domain d = select_domain(suspect, root, sig, record.domain);
  return score(suspect, schedule, d, record).value_or(SchedHit{root});
}

SchedDetectionReport detect_sched_watermark(const Graph& suspect,
                                            const sched::Schedule& schedule,
                                            const crypto::Signature& sig,
                                            const SchedRecord& record,
                                            exec::ThreadPool* pool) {
  return std::move(
      detect_sched_watermarks(suspect, schedule, sig, {&record, 1}, pool)
          .front());
}

std::vector<SchedDetectionReport> detect_sched_watermarks(
    const Graph& suspect, const sched::Schedule& schedule,
    const crypto::Signature& sig, std::span<const SchedRecord> records,
    exec::ThreadPool* pool) {
  LWM_SPAN("wm/detect_batch");
  require_checked(records);
  if (records.empty()) return {};

  // Group records by domain key — one carve per (root, key).
  struct Group {
    DomainKey key;
    std::vector<std::size_t> record_idx;
  };
  std::vector<Group> groups;
  for (std::size_t i = 0; i < records.size(); ++i) {
    auto home = std::find_if(groups.begin(), groups.end(), [&](const Group& g) {
      return g.key == records[i].domain;
    });
    if (home == groups.end()) {
      home = groups.insert(groups.end(), Group{records[i].domain, {}});
    }
    home->record_idx.push_back(i);
  }

  const std::vector<NodeId> roots = executable_roots(suspect);
  LWM_COUNT("wm/roots_scanned", roots.size() * records.size());
  const std::size_t shards = exec::suggested_chunks(pool, roots.size());
  LWM_COUNT("wm/detect_root_shards", shards);

  // Per-chunk partials, one slot per record; merged in chunk order so the
  // per-record hits and best-root tie-breaks match the serial scan.
  struct Slot {
    SchedDetectionReport report;
    int best_satisfied = -1;
  };
  using Part = std::vector<Slot>;
  Part merged = exec::parallel_reduce(
      pool, roots.size(), shards, Part(records.size()),
      [&](std::size_t begin, std::size_t end) {
        Part part(records.size());
        for (std::size_t r = begin; r < end; ++r) {
          const NodeId n = roots[r];
          const int root_fid = cdfg::functional_id(suspect.node(n).kind);
          for (const Group& grp : groups) {
            // Prefilter before the carve: the root is the unique level-0
            // node of its cone and C1 sorts level-descending, so it sorts
            // last, and a record whose memorized subtree doesn't end in
            // this root's operation cannot pass the structural gate.  If
            // no record in the group survives, the carve is skipped.
            const auto may_match = [&](std::size_t i) {
              return records[i].subtree_ops.back() == root_fid;
            };
            if (std::none_of(grp.record_idx.begin(), grp.record_idx.end(),
                             may_match)) {
              LWM_COUNT("wm/detect_prefilter_skips", 1);
              continue;
            }
            const Domain d = select_domain(suspect, n, sig, grp.key);
            for (const std::size_t i : grp.record_idx) {
              if (!may_match(i)) continue;
              const std::optional<SchedHit> hit =
                  score(suspect, schedule, d, records[i]);
              if (!hit) continue;
              if (hit->full()) part[i].report.hits.push_back(*hit);
              if (hit->satisfied > part[i].best_satisfied) {
                part[i].best_satisfied = hit->satisfied;
                part[i].report.best_root = n;
              }
            }
          }
        }
        return part;
      },
      [](Part acc, Part next) {
        for (std::size_t i = 0; i < acc.size(); ++i) {
          std::vector<SchedHit>& hits = acc[i].report.hits;
          hits.insert(hits.end(), next[i].report.hits.begin(),
                      next[i].report.hits.end());
          if (next[i].best_satisfied > acc[i].best_satisfied) {
            acc[i].best_satisfied = next[i].best_satisfied;
            acc[i].report.best_root = next[i].report.best_root;
          }
        }
        return acc;
      });

  std::vector<SchedDetectionReport> reports;
  reports.reserve(records.size());
  for (Slot& slot : merged) {
    slot.report.roots_scanned = static_cast<int>(roots.size());
    reports.push_back(std::move(slot.report));
  }
  return reports;
}

TmDetectionReport detect_tm_watermark(const Graph& suspect,
                                      const tmatch::Cover& suspect_cover,
                                      const tmatch::TemplateLibrary& lib,
                                      const crypto::Signature& sig,
                                      const TmWmOptions& opts) {
  TmDetectionReport report;
  const std::optional<TmWatermark> replanned =
      plan_tm_watermark(suspect, lib, sig, opts);
  if (!replanned) return report;

  for (const tmatch::Match& want : replanned->enforced) {
    ++report.total;
    for (const tmatch::Match& have : suspect_cover.matches) {
      if (have.template_id != want.template_id) continue;
      if (have.nodes == want.nodes) {
        ++report.found;
        break;
      }
    }
  }
  return report;
}

}  // namespace lwm::wm
