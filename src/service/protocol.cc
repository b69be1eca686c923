#include "service/protocol.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>

#include "common/string_util.h"

namespace aqpp {

Result<Request> ParseRequest(const std::string& line) {
  std::string_view s = TrimWhitespace(line);
  if (s.empty()) return Status::InvalidArgument("empty request");
  size_t space = s.find(' ');
  std::string verb = ToLowerAscii(s.substr(0, space));
  std::string_view rest =
      space == std::string_view::npos ? std::string_view()
                                      : TrimWhitespace(s.substr(space + 1));
  Request req;
  if (verb == "hello") {
    req.type = RequestType::kHello;
    req.name = std::string(rest);
    return req;
  }
  if (verb == "ping") {
    req.type = RequestType::kPing;
    return req;
  }
  if (verb == "set") {
    req.type = RequestType::kSet;
    size_t kv = rest.find(' ');
    if (kv == std::string_view::npos) {
      return Status::InvalidArgument("SET wants: SET <key> <value>");
    }
    req.set_key = ToLowerAscii(TrimWhitespace(rest.substr(0, kv)));
    req.set_value = std::string(TrimWhitespace(rest.substr(kv + 1)));
    return req;
  }
  if (verb == "query") {
    req.type = RequestType::kQuery;
    if (rest.empty()) {
      return Status::InvalidArgument("QUERY wants a SQL statement");
    }
    req.sql = std::string(rest);
    return req;
  }
  if (verb == "stats") {
    req.type = RequestType::kStats;
    return req;
  }
  if (verb == "metrics") {
    req.type = RequestType::kMetrics;
    return req;
  }
  if (verb == "quit") {
    req.type = RequestType::kQuit;
    return req;
  }
  if (verb == "shardinfo") {
    req.type = RequestType::kShardInfo;
    return req;
  }
  if (verb == "partial") {
    req.type = RequestType::kPartial;
    if (rest.empty()) {
      return Status::InvalidArgument("PARTIAL wants a query spec");
    }
    req.args = std::string(rest);
    return req;
  }
  if (verb == "ingest") {
    req.type = RequestType::kIngest;
    if (rest.empty()) {
      return Status::InvalidArgument("INGEST wants an encoded batch");
    }
    req.args = std::string(rest);
    return req;
  }
  if (verb == "cancel") {
    req.type = RequestType::kCancel;
    return req;
  }
  return Status::InvalidArgument("unknown verb '" + verb + "'");
}

std::string FormatDoubleExact(double v) { return StrFormat("%.17g", v); }

void Response::AddUint(const std::string& key, uint64_t value) {
  Add(key, StrFormat("%llu", static_cast<unsigned long long>(value)));
}

void Response::AddDouble(const std::string& key, double value) {
  Add(key, FormatDoubleExact(value));
}

std::optional<std::string> Response::Find(const std::string& key) const {
  for (const auto& [k, v] : fields) {
    if (k == key) return v;
  }
  return std::nullopt;
}

Result<double> Response::GetDouble(const std::string& key) const {
  auto v = Find(key);
  if (!v.has_value()) {
    return Status::NotFound("response has no field '" + key + "'");
  }
  return std::strtod(v->c_str(), nullptr);
}

Result<uint64_t> Response::GetUint(const std::string& key) const {
  auto v = Find(key);
  if (!v.has_value()) {
    return Status::NotFound("response has no field '" + key + "'");
  }
  return static_cast<uint64_t>(std::strtoull(v->c_str(), nullptr, 10));
}

Response Response::Error(const std::string& code, const std::string& message) {
  Response r;
  r.ok = false;
  r.Add("code", code);
  r.message = message;
  return r;
}

std::string FormatResponse(const Response& response) {
  std::string out = response.ok ? "OK" : "ERR";
  for (const auto& [k, v] : response.fields) {
    out += ' ';
    out += k;
    out += '=';
    out += v;
  }
  if (!response.message.empty()) {
    // msg= is last and consumes the rest of the line; strip newlines so the
    // framing survives arbitrary status text.
    std::string msg = response.message;
    for (char& c : msg) {
      if (c == '\n' || c == '\r') c = ' ';
    }
    out += " msg=";
    out += msg;
  }
  return out;
}

std::string FormatProgressLine(const ProgressLine& p) {
  std::string out = "PROGRESS";
  out += " round=" + StrFormat("%llu", static_cast<unsigned long long>(p.round));
  out += " rows_used=" +
         StrFormat("%llu", static_cast<unsigned long long>(p.rows_used));
  out += " estimate=" + FormatDoubleExact(p.estimate);
  out += " lo=" + FormatDoubleExact(p.lo);
  out += " hi=" + FormatDoubleExact(p.hi);
  out += " half_width=" + FormatDoubleExact(p.half_width);
  out += " level=" + FormatDoubleExact(p.level);
  return out;
}

namespace {

Status ParseFiniteDouble(const std::string& text, double* out) {
  if (text.empty()) return Status::InvalidArgument("empty numeric value");
  const char* begin = text.c_str();
  char* end = nullptr;
  double v = std::strtod(begin, &end);
  if (end != begin + text.size()) {
    return Status::InvalidArgument("trailing garbage in number '" + text + "'");
  }
  if (!std::isfinite(v)) {
    return Status::InvalidArgument("non-finite value '" + text + "'");
  }
  *out = v;
  return Status::OK();
}

Status ParseUint(const std::string& text, uint64_t* out) {
  if (text.empty() || text[0] == '-' || text[0] == '+') {
    return Status::InvalidArgument("malformed unsigned '" + text + "'");
  }
  const char* begin = text.c_str();
  char* end = nullptr;
  errno = 0;
  unsigned long long v = std::strtoull(begin, &end, 10);
  if (end != begin + text.size() || errno == ERANGE) {
    return Status::InvalidArgument("malformed unsigned '" + text + "'");
  }
  *out = static_cast<uint64_t>(v);
  return Status::OK();
}

}  // namespace

Result<ProgressLine> ParseProgressLine(const std::string& line) {
  std::string_view s = TrimWhitespace(line);
  size_t space = s.find(' ');
  if (s.substr(0, space) != "PROGRESS") {
    return Status::InvalidArgument("progress line must start with PROGRESS");
  }
  ProgressLine p;
  uint32_t seen = 0;  // bitmask over the 7 required fields
  std::string_view rest =
      space == std::string_view::npos ? std::string_view() : s.substr(space + 1);
  while (!rest.empty()) {
    rest = TrimWhitespace(rest);
    if (rest.empty()) break;
    size_t end = rest.find(' ');
    std::string_view field = rest.substr(0, end);
    size_t eq = field.find('=');
    if (eq == std::string_view::npos) {
      return Status::InvalidArgument("malformed field '" + std::string(field) +
                                     "'");
    }
    std::string key(field.substr(0, eq));
    std::string value(field.substr(eq + 1));
    int bit = -1;
    Status st = Status::OK();
    if (key == "round") {
      bit = 0;
      st = ParseUint(value, &p.round);
    } else if (key == "rows_used") {
      bit = 1;
      st = ParseUint(value, &p.rows_used);
    } else if (key == "estimate") {
      bit = 2;
      st = ParseFiniteDouble(value, &p.estimate);
    } else if (key == "lo") {
      bit = 3;
      st = ParseFiniteDouble(value, &p.lo);
    } else if (key == "hi") {
      bit = 4;
      st = ParseFiniteDouble(value, &p.hi);
    } else if (key == "half_width") {
      bit = 5;
      st = ParseFiniteDouble(value, &p.half_width);
    } else if (key == "level") {
      bit = 6;
      st = ParseFiniteDouble(value, &p.level);
    } else {
      return Status::InvalidArgument("unknown progress field '" + key + "'");
    }
    AQPP_RETURN_NOT_OK(st);
    if (seen & (1u << bit)) {
      return Status::InvalidArgument("duplicate progress field '" + key + "'");
    }
    seen |= 1u << bit;
    if (end == std::string_view::npos) break;
    rest = rest.substr(end + 1);
  }
  if (seen != 0x7f) {
    return Status::InvalidArgument("progress line is missing required fields");
  }
  return p;
}

std::string ErrorReply(const Status& status) {
  return FormatResponse(
      Response::Error(StatusCodeToString(status.code()), status.message()));
}

std::string MetricsReply(const std::string& text) {
  Response header;
  header.AddUint("lines",
                 static_cast<uint64_t>(std::count(text.begin(), text.end(),
                                                  '\n')));
  return FormatResponse(header) + "\n" + text + "# EOF";
}

Result<Response> ParseResponse(const std::string& line) {
  std::string_view s = TrimWhitespace(line);
  if (s.empty()) return Status::InvalidArgument("empty response");
  size_t space = s.find(' ');
  std::string_view verdict = s.substr(0, space);
  Response r;
  if (verdict == "OK") {
    r.ok = true;
  } else if (verdict == "ERR") {
    r.ok = false;
  } else {
    return Status::InvalidArgument("response must start with OK or ERR");
  }
  std::string_view rest =
      space == std::string_view::npos ? std::string_view() : s.substr(space + 1);
  while (!rest.empty()) {
    rest = TrimWhitespace(rest);
    if (rest.empty()) break;
    if (rest.rfind("msg=", 0) == 0) {
      r.message = std::string(rest.substr(4));
      break;
    }
    size_t end = rest.find(' ');
    std::string_view field = rest.substr(0, end);
    size_t eq = field.find('=');
    if (eq == std::string_view::npos) {
      return Status::InvalidArgument("malformed field '" +
                                     std::string(field) + "'");
    }
    r.fields.emplace_back(std::string(field.substr(0, eq)),
                          std::string(field.substr(eq + 1)));
    if (end == std::string_view::npos) break;
    rest = rest.substr(end + 1);
  }
  return r;
}

}  // namespace aqpp
