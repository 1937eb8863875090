// serialize.h — plain-text CDFG interchange format.
//
// A line-oriented format suitable for versioning benchmark graphs and for
// shipping suspect designs to the watermark detector:
//
//   cdfg <name>
//   node <name> <op> [dmin[:dmax]]
//   edge <src-name> <dst-name> [data|control|temporal]
//   # comment
//
// A bare delay is an exact interval; `dmin:dmax` carries the bounded
// delay model's [d_min, d_max] (written only when the bounds differ, so
// pre-bounded files round-trip unchanged).
//
// Nodes must be declared before use; names may not contain whitespace.
// Round-trips exactly: write(read(s)) == s up to comments/blank lines.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "cdfg/graph.h"
#include "io/parse_result.h"
#include "io/stream_text.h"

namespace lwm::cdfg {

/// Writes `g` in the text format.  Edges are emitted in id order, so the
/// output is deterministic for a given construction sequence.  Throws
/// std::invalid_argument, naming the graph, if its name is empty or holds
/// whitespace: the parsers read the header name as one token.
void write_text(const Graph& g, std::ostream& os);

/// Serializes to a string (write_text; same refusal).
[[nodiscard]] std::string to_text(const Graph& g);

/// Non-throwing parse core: syntax errors, unknown ops, duplicate
/// nodes, unknown endpoints, bad delays, and trailing garbage all come
/// back as a located Diagnostic.  This is the entry point for untrusted
/// input (and the fuzz targets).
[[nodiscard]] io::ParseResult<Graph> parse_cdfg(
    std::string_view text, std::string_view source_name = "<cdfg>");

/// Streaming parse: consumes the stream in fixed-size chunks through a
/// line window, so memory stays O(chunk + longest line) no matter how
/// large the file — this is the entry point for mega-design graph files
/// past the io::read_file 16 MiB cap.  Accepts exactly the language
/// parse_cdfg accepts (shared per-line core) with identical
/// file:line:col diagnostics.
[[nodiscard]] io::ParseResult<Graph> parse_cdfg_stream(
    std::istream& is, std::string_view source_name = "<cdfg>",
    const io::StreamLimits& limits = {});

/// Opens `path` and streaming-parses it; open failure comes back as a
/// Diagnostic naming the path.
[[nodiscard]] io::ParseResult<Graph> read_cdfg_file(
    const std::string& path, const io::StreamLimits& limits = {});

/// Parses the text format.  Throws io::ParseError (a std::runtime_error
/// carrying the Diagnostic) on any malformed input.
[[nodiscard]] Graph read_text(std::istream& is);

/// Parses from a string.
[[nodiscard]] Graph from_text(const std::string& text);

}  // namespace lwm::cdfg
