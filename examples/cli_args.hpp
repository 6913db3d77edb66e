// Numeric command-line flags shared by scenario_sim, dist_sim and experiment_cli.
//
// A count is one whole unsigned decimal token within [min, max]: no sign, no
// trailing characters, no overflow. Anything else is a usage error (exit 2),
// never a silent default or a crash further down.
#pragma once

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>

namespace idonly::cli {

/// Ceilings of the numeric flags. Each is far above any useful value and
/// low enough that the run cannot exhaust the machine before it starts
/// (`--shards` forks one worker and opens socket pairs per shard pair).
inline constexpr std::uint64_t kMaxThreads = 256;
inline constexpr std::uint64_t kMaxShards = 64;
inline constexpr std::uint64_t kMaxCrashRound = 1'000'000;
inline constexpr std::uint64_t kMaxWedgeTimeoutMs = 3'600'000;  // one hour

/// Parse `text` as a whole unsigned token in [min, max]; empty when it is not
/// one.
[[nodiscard]] inline std::optional<std::uint64_t> parse_count(const char* text,
                                                              std::uint64_t min,
                                                              std::uint64_t max) {
  if (text == nullptr || *text < '0' || *text > '9') return std::nullopt;  // no sign or space
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (errno != 0 || *end != '\0' || value < min || value > max) return std::nullopt;
  return value;
}

/// parse_count with the standard complaint on stderr when it fails.
[[nodiscard]] inline std::optional<std::uint64_t> parse_flag(const char* flag, const char* text,
                                                             std::uint64_t min,
                                                             std::uint64_t max) {
  const auto value = parse_count(text, min, max);
  if (!value.has_value()) {
    std::fprintf(stderr, "%s: expected a whole number in [%llu, %llu], got '%s'\n", flag,
                 static_cast<unsigned long long>(min), static_cast<unsigned long long>(max),
                 text);
  }
  return value;
}

}  // namespace idonly::cli
