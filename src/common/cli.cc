#include "common/cli.h"

#include <charconv>
#include <cmath>
#include <system_error>

#include "common/error.h"
#include "common/parallel.h"
#include "obs/report.h"

namespace dcn {

namespace {

// True when all of `text` (non-empty) is one number in range: no sign other
// than '-', no whitespace, no trailing characters.
template <typename Number>
bool ParseWhole(const std::string& text, Number& value) {
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  return !text.empty() && error == std::errc{} && stop == end;
}

}  // namespace

CliArgs::CliArgs(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string token = argv[i];
    DCN_REQUIRE(token.rfind("--", 0) == 0,
                "CLI arguments must look like --key=value, got: " + token);
    const std::string body = token.substr(2);
    const std::size_t eq = body.find('=');
    const std::string key = body.substr(0, eq);
    const std::string value = eq == std::string::npos ? "true" : body.substr(eq + 1);
    DCN_REQUIRE(values_.emplace(key, value).second, "--" + key + " given twice");
  }
}

bool CliArgs::Has(const std::string& key) const { return values_.count(key) > 0; }

std::string CliArgs::GetString(const std::string& key,
                               const std::string& fallback) const {
  auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

std::int64_t CliArgs::GetInt(const std::string& key, std::int64_t fallback) const {
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  std::int64_t value = 0;
  if (!ParseWhole(it->second, value)) {
    throw InvalidArgument{"--" + key + " expects an integer, got: '" + it->second + "'"};
  }
  return value;
}

double CliArgs::GetDouble(const std::string& key, double fallback) const {
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  double value = 0.0;
  if (!ParseWhole(it->second, value) || !std::isfinite(value)) {
    throw InvalidArgument{"--" + key + " expects a finite number, got: '" +
                          it->second + "'"};
  }
  return value;
}

void ApplyGlobalFlags(const CliArgs& args) {
  ConfigureThreads(args);
  obs::ConfigureSinks(args);
}

bool CliArgs::GetBool(const std::string& key, bool fallback) const {
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  if (it->second == "true" || it->second == "1") return true;
  if (it->second == "false" || it->second == "0") return false;
  throw InvalidArgument{"--" + key + " expects true/false, got: " + it->second};
}

}  // namespace dcn
