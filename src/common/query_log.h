#ifndef RDFA_COMMON_QUERY_LOG_H_
#define RDFA_COMMON_QUERY_LOG_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>

namespace rdfa {

/// One query's worth of structured log data. The producers (the simulated
/// endpoint and the interactive shell) fill what they know; empty string
/// fields are omitted from the emitted line.
struct QueryLogRecord {
  uint64_t query_hash = 0;     ///< FNV-1a of the full query text
  std::string query_head;      ///< first ~60 chars, for humans grepping logs
  std::string outcome;         ///< "ok", "cancelled", "deadline", "shed", ...
  double total_ms = 0;         ///< wall time including queueing
  double queued_ms = 0;        ///< time spent waiting for admission
  int64_t rows = 0;            ///< result rows (0 on failure)
  bool cache_hit = false;
  std::string exec_stats_json;  ///< ExecStats::ToJson() output, verbatim
  std::string trace_file;       ///< path of the Chrome trace, if one was written
  std::string storage_backend;  ///< "heap" or "mmap" ("" when unknown)
  std::string profile_json;     ///< Tracer::ProfileJson(), embedded verbatim
};

/// FNV-1a 64-bit hash of the query text — stable across runs so the same
/// query can be correlated between log lines without storing the full text.
uint64_t HashQueryText(const std::string& text);

/// Whitespace-normalized cache fingerprint of a query: runs of whitespace
/// *outside* quoted literals collapse to one space and the ends are
/// trimmed, so reformattings of the same query share one cache entry.
/// Whitespace inside '...' / "..." strings (escapes respected) is kept
/// verbatim — two queries differing there are genuinely different queries
/// and must not collide.
std::string NormalizeQueryText(const std::string& text);

/// Renders `rec` as one self-contained JSON object (no trailing newline).
/// All strings pass through JsonEscape, so a query head with embedded
/// quotes or newlines cannot break the line-oriented format.
std::string FormatQueryLogLine(const QueryLogRecord& rec);

/// Append-only, thread-safe JSON-lines writer. Opening is lazy: the file is
/// created on the first Write, so constructing a QueryLog with an empty
/// path is a cheap disabled logger.
class QueryLog {
 public:
  QueryLog() = default;
  explicit QueryLog(std::string path) : path_(std::move(path)) {}

  bool enabled() const { return !path_.empty(); }
  const std::string& path() const { return path_; }

  /// Appends one line; returns false if the file could not be opened.
  bool Write(const QueryLogRecord& rec);

  /// Number of lines written so far.
  int64_t lines_written() const;

 private:
  std::string path_;
  mutable std::mutex mu_;
  int64_t lines_ = 0;
};

/// Writes `json` (a complete document, e.g. Tracer::ToChromeJson) to
/// `dir/<stem>-<seq>.json`, creating `dir` if needed. Returns the path
/// written, or empty string on failure.
std::string WriteTraceFile(const std::string& dir, const std::string& stem,
                           int64_t seq, const std::string& json);

/// Slow-query capture: queries whose wall time crosses a threshold get
/// their full forensic record (query + plan profile + trace + stats) dumped
/// as JSON into a bounded ring of files, `dir/slow-<k>.json` with
/// k = seq % max_files — old captures are overwritten, so the directory
/// never grows past max_files regardless of how pathological the workload
/// is. Thread-safe; a default-constructed capturer (empty dir) is disabled.
class SlowQueryCapturer {
 public:
  SlowQueryCapturer() = default;
  SlowQueryCapturer(std::string dir, double threshold_ms, int max_files)
      : dir_(std::move(dir)),
        threshold_ms_(threshold_ms),
        max_files_(max_files > 0 ? max_files : 1) {}

  bool enabled() const { return !dir_.empty(); }
  double threshold_ms() const { return threshold_ms_; }

  /// Writes `json` into the ring when `total_ms` crosses the threshold.
  /// Returns the path written, or empty when below threshold / disabled /
  /// the write failed.
  std::string MaybeCapture(double total_ms, const std::string& json);

  /// Captures written so far (for tests and the shell's `help`).
  int64_t captures() const { return seq_.load(std::memory_order_relaxed); }

 private:
  std::string dir_;
  double threshold_ms_ = 0;
  int max_files_ = 1;
  std::atomic<int64_t> seq_{0};
};

}  // namespace rdfa

#endif  // RDFA_COMMON_QUERY_LOG_H_
