#include "base/log.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>

namespace pia {
namespace {

const LogLevel g_level = [] {
  if (const char* env = std::getenv("PIA_LOG")) {
    if (!std::strcmp(env, "trace")) return LogLevel::kTrace;
    if (!std::strcmp(env, "debug")) return LogLevel::kDebug;
    if (!std::strcmp(env, "info")) return LogLevel::kInfo;
    if (!std::strcmp(env, "warn")) return LogLevel::kWarn;
    if (!std::strcmp(env, "error")) return LogLevel::kError;
    if (!std::strcmp(env, "off")) return LogLevel::kOff;
  }
  return LogLevel::kWarn;
}();

const char* level_tag(LogLevel level) {
  switch (level) {
    case LogLevel::kTrace: return "TRACE";
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo:  return "INFO ";
    case LogLevel::kWarn:  return "WARN ";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff:   return "OFF  ";
  }
  return "?????";
}

std::mutex g_emit_mutex;

}  // namespace

bool log_enabled(LogLevel level) { return level >= g_level; }

namespace detail {

void log_emit(LogLevel level, const std::string& message) {
  const std::lock_guard<std::mutex> lock(g_emit_mutex);
  std::fprintf(stderr, "[pia %s] %s\n", level_tag(level), message.c_str());
}

}  // namespace detail
}  // namespace pia
