#include "obs/manifest.hpp"

#include <cstdio>
#include <sstream>
#include <thread>

// CMake stamps the configure-time `git describe` onto this TU only; a
// build system-free compile still works, it just reports "unknown".
#ifndef FSC_GIT_DESCRIBE
#define FSC_GIT_DESCRIBE "unknown"
#endif

namespace fsc::obs {

namespace {

/// Minimal JSON string escape (quotes, backslashes, control chars) — the
/// manifest's strings are version and command lines, not user text.
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

RunManifest RunManifest::collect() {
  RunManifest m;
  m.git_describe = FSC_GIT_DESCRIBE;
  m.host_cores = std::thread::hardware_concurrency();
  return m;
}

std::string RunManifest::to_json(int indent) const {
  if (indent < 2) indent = 2;
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  const std::string close(static_cast<std::size_t>(indent - 2), ' ');
  std::ostringstream os;
  os << "{\n";
  os << pad << "\"git_describe\": \"" << json_escape(git_describe) << "\",\n";
  os << pad << "\"host_cores\": " << host_cores << ",\n";
  os << pad << "\"threads\": " << threads << ",\n";
  os << pad << "\"seed\": " << seed << ",\n";
  os << pad << "\"command\": \"" << json_escape(command) << "\",\n";
  os << pad << "\"wall_time_s\": " << wall_time_s << "\n";
  os << close << "}";
  return os.str();
}

std::string command_line(int argc, char** argv) {
  std::string out;
  for (int i = 0; i < argc; ++i) {
    if (i > 0) out += ' ';
    out += argv[i];
  }
  return out;
}

}  // namespace fsc::obs
