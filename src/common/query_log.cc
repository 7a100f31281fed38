#include "common/query_log.h"

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "common/string_util.h"

namespace rdfa {

uint64_t HashQueryText(const std::string& text) {
  uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis
  for (unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ull;  // FNV-1a prime
  }
  return h;
}

std::string NormalizeQueryText(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  char quote = 0;        // the active string delimiter, 0 outside literals
  bool escaped = false;  // previous char was a backslash inside a literal
  bool pending_space = false;
  for (char c : text) {
    if (quote != 0) {
      out.push_back(c);
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == quote) {
        quote = 0;
      }
      continue;
    }
    if (c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f' ||
        c == '\v') {
      pending_space = true;
      continue;
    }
    if (pending_space) {
      if (!out.empty()) out.push_back(' ');
      pending_space = false;
    }
    out.push_back(c);
    if (c == '\'' || c == '"') quote = c;
  }
  return out;
}

std::string FormatQueryLogLine(const QueryLogRecord& rec) {
  char buf[64];
  std::string out = "{";
  std::snprintf(buf, sizeof(buf), "\"query_hash\":\"%016llx\"",
                static_cast<unsigned long long>(rec.query_hash));
  out += buf;
  if (!rec.query_head.empty()) {
    out += ",\"query\":\"" + JsonEscape(rec.query_head) + "\"";
  }
  out += ",\"outcome\":\"" + JsonEscape(rec.outcome) + "\"";
  std::snprintf(buf, sizeof(buf), ",\"total_ms\":%.3f,\"queued_ms\":%.3f",
                rec.total_ms, rec.queued_ms);
  out += buf;
  out += ",\"rows\":" + std::to_string(rec.rows);
  out += ",\"cache_hit\":";
  out += rec.cache_hit ? "true" : "false";
  if (!rec.exec_stats_json.empty()) {
    // Already a JSON object — embedded verbatim, not re-escaped.
    out += ",\"exec_stats\":" + rec.exec_stats_json;
  }
  if (!rec.trace_file.empty()) {
    out += ",\"trace_file\":\"" + JsonEscape(rec.trace_file) + "\"";
  }
  if (!rec.storage_backend.empty()) {
    out += ",\"storage_backend\":\"" + JsonEscape(rec.storage_backend) + "\"";
  }
  if (!rec.profile_json.empty()) {
    // Already a JSON array — embedded verbatim, not re-escaped.
    out += ",\"profile\":" + rec.profile_json;
  }
  out += "}";
  return out;
}

bool QueryLog::Write(const QueryLogRecord& rec) {
  if (path_.empty()) return false;
  std::string line = FormatQueryLogLine(rec);
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path_, std::ios::app);
  if (!out) return false;
  out << line << "\n";
  ++lines_;
  return true;
}

int64_t QueryLog::lines_written() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lines_;
}

std::string WriteTraceFile(const std::string& dir, const std::string& stem,
                           int64_t seq, const std::string& json) {
  if (dir.empty()) return "";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return "";
  std::string path =
      dir + "/" + stem + "-" + std::to_string(seq) + ".json";
  std::ofstream out(path, std::ios::trunc);
  if (!out) return "";
  out << json;
  return path;
}

std::string SlowQueryCapturer::MaybeCapture(double total_ms,
                                            const std::string& json) {
  if (dir_.empty() || total_ms < threshold_ms_) return "";
  const int64_t seq = seq_.fetch_add(1, std::memory_order_relaxed);
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) return "";
  std::string path =
      dir_ + "/slow-" + std::to_string(seq % max_files_) + ".json";
  std::ofstream out(path, std::ios::trunc);
  if (!out) return "";
  out << json;
  return path;
}

}  // namespace rdfa
