// records_io.h — persistence for watermark records.
//
// The designer's records are the other half of the proof of authorship
// (the first half is the secret signature): they must survive years
// between embedding and a dispute.  This module defines a line-oriented
// text archive for scheduling and register records, mirroring the CDFG
// interchange format:
//
//   lwm-records v1
//   sched tau=<int> keep=<num>/<den> pairs=<n>
//   pos <src> <dst>           (n lines)
//   ops <id> <id> ...         (structural fingerprint)
//   reg tau=<int> keep=<num>/<den> m=<int> pairs=<n>
//   ...
//
// Round-trips exactly; parsing errors carry line numbers.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "io/parse_result.h"
#include "wm/detector.h"
#include "wm/reg_constraints.h"

namespace lwm::wm {

/// A designer's archive: every record for one protected design.
struct RecordArchive {
  std::vector<SchedRecord> sched;
  std::vector<RegRecord> reg;
};

void write_records(const RecordArchive& archive, std::ostream& os);
[[nodiscard]] std::string to_text(const RecordArchive& archive);

/// Non-throwing parse core: malformed fields (non-numeric tau, empty
/// keep denominator, out-of-range values), bad structure, trailing
/// garbage, and every record check_record refuses (tau outside
/// [1, DomainKey::kMaxTau], keep not in [0, 1], a position outside the
/// record's ops) all come back as a located Diagnostic.  A bad position
/// names its own pos line; a bad key names the record's header line.
[[nodiscard]] io::ParseResult<RecordArchive> parse_records(
    std::string_view text, std::string_view source_name = "<records>");

/// Throws io::ParseError with a line number on malformed input.
[[nodiscard]] RecordArchive read_records(std::istream& is);
[[nodiscard]] RecordArchive records_from_text(const std::string& text);

}  // namespace lwm::wm
