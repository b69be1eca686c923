// The service's line protocol (one request line -> one response line).
//
// Requests (case-insensitive verb, rest of line is the argument):
//
//   HELLO [name]            open a session           -> OK session=<id>
//   PING                    liveness                 -> OK pong=1
//   SET TIMEOUT_MS <n>      session default deadline -> OK timeout_ms=<n>
//   SET SYNOPSIS <kind>     service-wide estimator   -> OK synopsis=<kind>
//                           ("off" restores the default "reservoir")
//   SET MODE <m>            answer mode for QUERY: "oneshot" (default) or
//                           "online" (progressive PROGRESS lines, then the
//                           final OK line)       -> OK mode=<m>
//   QUERY <sql>             execute                  -> OK estimate=... ...
//                           in online mode the OK line is preceded by zero or
//                           more "PROGRESS round=... estimate=..." lines
//   INGEST <batch>          append a row batch       -> OK appended=<n>
//                           generation=<g> ... (<batch> is the text codec of
//                           service/ingest_wire.h)
//   CANCEL                  abandon the in-flight online QUERY on this
//                           connection (only meaningful between PROGRESS
//                           lines; otherwise -> OK cancelled=0)
//   STATS                   service statistics       -> OK queries=... ...
//   METRICS                 Prometheus exposition    -> OK lines=<n> then
//                           <n> raw text lines ending with a "# EOF" line
//   QUIT                    close session            -> OK bye=1
//
// Shard-worker verbs (src/shard/, served by aqpp-shardd):
//
//   SHARDINFO               shard registration info  -> OK shard=<i>
//                           shards=<n> rows=<r> ... (see docs/sharding.md)
//   PARTIAL <spec>          per-shard partial aggregates for one canonical
//                           query; <spec> is space-separated key=value text
//                           parsed by ParsePartialSpec (src/shard/partial.h)
//
// Responses are a verdict token followed by space-separated key=value
// fields; values never contain spaces except the trailing msg= field of an
// error, which consumes the rest of the line:
//
//   OK key=value key=value ...
//   ERR code=DeadlineExceeded retry_after_ms=40 msg=free text here
//
// Doubles are formatted with %.17g so a round-trip through the wire
// reproduces the exact binary64 value — the cache's bit-identical guarantee
// survives the protocol. See docs/service.md for the full grammar.

#ifndef AQPP_SERVICE_PROTOCOL_H_
#define AQPP_SERVICE_PROTOCOL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace aqpp {

enum class RequestType {
  kHello,
  kPing,
  kSet,
  kQuery,
  kStats,
  kMetrics,
  kQuit,
  kShardInfo,
  kPartial,
  kIngest,
  kCancel,
};

struct Request {
  RequestType type = RequestType::kPing;
  std::string name;       // HELLO
  std::string set_key;    // SET
  std::string set_value;  // SET
  std::string sql;        // QUERY
  std::string args;       // PARTIAL / INGEST (rest of line)
};

// Parses one request line (newline already stripped). Unknown verbs and
// malformed SET/QUERY arguments are InvalidArgument.
Result<Request> ParseRequest(const std::string& line);

struct Response {
  bool ok = true;
  // Ordered key=value fields; keys may repeat (they don't in practice).
  std::vector<std::pair<std::string, std::string>> fields;
  // ERR only: free text, rendered last as msg=...
  std::string message;

  void Add(const std::string& key, const std::string& value) {
    fields.emplace_back(key, value);
  }
  void AddUint(const std::string& key, uint64_t value);
  void AddDouble(const std::string& key, double value);  // %.17g
  std::optional<std::string> Find(const std::string& key) const;
  Result<double> GetDouble(const std::string& key) const;
  Result<uint64_t> GetUint(const std::string& key) const;

  static Response Error(const std::string& code, const std::string& message);
};

// One line, no trailing newline.
std::string FormatResponse(const Response& response);

// "ERR code=<code> msg=<message>" for a failed `status` (no newline).
std::string ErrorReply(const Status& status);

// The METRICS reply for Prometheus exposition `text`: an "OK lines=<n>"
// header counting the raw text lines that follow, then a literal "# EOF"
// line (OpenMetrics convention) so clients need no length bookkeeping.
std::string MetricsReply(const std::string& text);

// Inverse of FormatResponse (used by the client and the round-trip tests).
Result<Response> ParseResponse(const std::string& line);

// %.17g — shortest text that round-trips binary64 exactly.
std::string FormatDoubleExact(double v);

// One progressive checkpoint of an online-mode query. The stream the server
// emits is monotone: half_width never grows from one round to the next, and
// every round's half_width is >= the final OK line's. The final OK line is
// bit-identical to what the same query would answer in oneshot mode.
struct ProgressLine {
  uint64_t round = 0;      // 1-based
  uint64_t rows_used = 0;  // sample-rows prefix this round covers
  double estimate = 0.0;
  double lo = 0.0;
  double hi = 0.0;
  double half_width = 0.0;
  double level = 0.0;
};

// "PROGRESS round=<r> rows_used=<n> estimate=<e> lo=<l> hi=<h>
//  half_width=<w> level=<p>" — doubles in %.17g, no trailing newline.
std::string FormatProgressLine(const ProgressLine& p);

// Strict inverse: rejects missing/duplicate/unknown fields, non-numeric
// values, and non-finite doubles (a well-formed server never emits them).
Result<ProgressLine> ParseProgressLine(const std::string& line);

}  // namespace aqpp

#endif  // AQPP_SERVICE_PROTOCOL_H_
