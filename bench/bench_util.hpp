// Shared helpers for the paper-reproduction bench binaries: wall-clock
// timing, row printing in the style of the paper's tables, and the
// machine-readable BENCH_*.json record every bench emits so perf PRs can be
// compared run-over-run without scraping stdout.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <string>
#include <thread>

#include "obs/json.hpp"
#include "obs/metrics.hpp"

#ifndef PIA_BENCH_BUILD_TYPE
#define PIA_BENCH_BUILD_TYPE "unknown"
#endif

namespace pia::bench {

class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}

  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }
  [[nodiscard]] double millis() const { return seconds() * 1e3; }

 private:
  std::chrono::steady_clock::time_point start_;
};

inline void header(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

inline void note(const std::string& text) {
  std::printf("%s\n", text.c_str());
}

/// Times a callable and returns wall seconds.
inline double timed(const std::function<void()>& fn) {
  const WallTimer timer;
  fn();
  return timer.seconds();
}

/// The commit the bench ran from: `git rev-parse HEAD` in the working
/// directory, with "-dirty" appended when tracked files differ from it, or
/// "unknown" outside a checkout.
inline std::string host_git_sha() {
  const auto run = [](const char* command, std::string& out) {
    FILE* pipe = ::popen(command, "r");
    if (pipe == nullptr) return false;
    char buf[128];
    while (std::fgets(buf, sizeof(buf), pipe) != nullptr) out += buf;
    return ::pclose(pipe) == 0;
  };
  std::string sha;
  if (!run("git rev-parse HEAD 2>/dev/null", sha) || sha.size() < 40)
    return "unknown";
  sha.resize(40);
  std::string ignored;
  if (!run("git diff --quiet HEAD -- 2>/dev/null", ignored)) sha += "-dirty";
  return sha;
}

/// The machine-readable side of a bench run.  Collects flat metrics (and
/// optionally an embedded obs::MetricsRegistry snapshot) and writes
/// BENCH_<name>.json to the working directory when write() is called — or
/// on destruction, so a bench cannot forget to emit its record.
class JsonReport {
 public:
  /// Every record starts stamped with its host: core count, build type and
  /// commit.
  explicit JsonReport(std::string name) : name_(std::move(name)) {
    metric("host_nproc",
           static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
    text("host_build_type", PIA_BENCH_BUILD_TYPE);
    text("host_git_sha", host_git_sha());
  }

  JsonReport(const JsonReport&) = delete;
  JsonReport& operator=(const JsonReport&) = delete;

  ~JsonReport() {
    if (!written_) write();
  }

  void metric(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    values_[key] = buf;
  }
  void metric(const std::string& key, std::uint64_t value) {
    values_[key] = std::to_string(value);
  }
  void metric(const std::string& key, std::int64_t value) {
    values_[key] = std::to_string(value);
  }
  void text(const std::string& key, const std::string& value) {
    std::string quoted;
    obs::json_append_string(quoted, value);
    values_[key] = std::move(quoted);
  }
  /// Embeds raw JSON under `key` (e.g. a MetricsRegistry::to_json()).
  void embed(const std::string& key, std::string raw_json) {
    values_[key] = std::move(raw_json);
  }
  void embed_metrics(const obs::MetricsRegistry& registry) {
    embed("metrics", registry.to_json());
  }

  void write() {
    written_ = true;
    const std::string path = "BENCH_" + name_ + ".json";
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    if (!os) {
      std::fprintf(stderr, "!! cannot write %s\n", path.c_str());
      return;
    }
    std::string out;
    out += "{\"bench\":";
    obs::json_append_string(out, name_);
    for (const auto& [key, rendered] : values_) {
      out.push_back(',');
      obs::json_append_string(out, key);
      out.push_back(':');
      out += rendered;
    }
    out.push_back('}');
    os << out << '\n';
  }

 private:
  std::string name_;
  std::map<std::string, std::string> values_;  // key -> rendered JSON value
  bool written_ = false;
};

}  // namespace pia::bench
