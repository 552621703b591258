#include "obs/export.h"

#include <cstdio>
#include <fstream>

#include "common/error.h"

namespace dcn::obs {

std::string JsonEscape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
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

std::string JsonDouble(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

void WriteFile(const std::string& path, std::string_view what,
               const std::function<void(std::ostream&)>& write) {
  std::ofstream out{path};
  DCN_REQUIRE(out.good(), "cannot open " + std::string{what} +
                              " output file: " + path);
  write(out);
  out.flush();
  DCN_REQUIRE(out.good(), "failed writing " + std::string{what} +
                              " output file: " + path);
}

}  // namespace dcn::obs
