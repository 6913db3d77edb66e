// Shared formatting for the machine-readable BENCH_*.json artifacts.
//
// Rates are rounded to fixed precision before emission: the artifacts are
// committed and diffed by the CI perf gate, and the default ostream
// formatting (6 significant digits, switching to scientific notation past
// 1e6) makes numeric comparison and human review needlessly noisy.
#pragma once

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>

namespace idonly::bench {

/// A rate (rounds/sec, deliveries/sec, ...) as a fixed three-decimal JSON
/// number, e.g. 12345.678. Never scientific notation, locale-independent.
inline std::string fixed3(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", value);
  return buf;
}

/// JSON string literal for `text` (quotes and backslashes escaped).
inline std::string quoted(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

/// The machine an artifact was measured on, as a JSON object: online core
/// count, CPU model (from /proc/cpuinfo, "unknown" elsewhere), compiler and
/// build type. Informational: bench_gate.py checks only that it is present.
inline std::string machine_json(const std::string& build_type) {
  std::string cpu = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0 && line.find(':') != std::string::npos) {
      cpu = line.substr(line.find(':') + 2);
      break;
    }
  }
  return "{\"nproc\": " + std::to_string(::sysconf(_SC_NPROCESSORS_ONLN)) +
         ", \"cpu_model\": " + quoted(cpu) + ", \"compiler\": " + quoted(__VERSION__) +
         ", \"build_type\": " + quoted(build_type) + "}";
}

}  // namespace idonly::bench
