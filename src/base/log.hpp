// Minimal leveled logger.
//
// The framework logs sparingly (protocol traces at kTrace, lifecycle events
// at kInfo).  Output goes to stderr; the PIA_LOG environment variable
// (trace|debug|info|warn|error|off, default warn) sets the level once, at
// process start.
#pragma once

#include <sstream>
#include <string>

namespace pia {

enum class LogLevel { kTrace = 0, kDebug, kInfo, kWarn, kError, kOff };

/// True if a message at `level` would be emitted (used to skip formatting).
[[nodiscard]] bool log_enabled(LogLevel level);

namespace detail {
void log_emit(LogLevel level, const std::string& message);
}  // namespace detail

}  // namespace pia

#define PIA_LOG(level, stream_expr)                       \
  do {                                                    \
    if (::pia::log_enabled(level)) {                      \
      std::ostringstream pia_log_os;                      \
      pia_log_os << stream_expr;                          \
      ::pia::detail::log_emit(level, pia_log_os.str());   \
    }                                                     \
  } while (false)

#define PIA_TRACE(stream_expr) PIA_LOG(::pia::LogLevel::kTrace, stream_expr)
#define PIA_DEBUG(stream_expr) PIA_LOG(::pia::LogLevel::kDebug, stream_expr)
#define PIA_INFO(stream_expr)  PIA_LOG(::pia::LogLevel::kInfo, stream_expr)
#define PIA_WARN(stream_expr)  PIA_LOG(::pia::LogLevel::kWarn, stream_expr)
#define PIA_ERROR(stream_expr) PIA_LOG(::pia::LogLevel::kError, stream_expr)
