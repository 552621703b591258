// Minimal --key=value command-line parsing for the bench binaries and
// examples. Keeps experiment parameters overridable without a dependency.
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace dcn {

class CliArgs {
 public:
  // Accepts "--key=value" and bare "--flag" tokens; anything else, or a key
  // given twice, throws InvalidArgument so typos in an experiment invocation
  // are loud.
  CliArgs(int argc, const char* const* argv);

  bool Has(const std::string& key) const;
  std::string GetString(const std::string& key, const std::string& fallback) const;
  // GetInt / GetDouble parse the whole value (std::from_chars): an empty
  // value, trailing characters, a '+' sign, an out-of-range value or a
  // non-finite double throws InvalidArgument naming the flag.
  std::int64_t GetInt(const std::string& key, std::int64_t fallback) const;
  double GetDouble(const std::string& key, double fallback) const;
  bool GetBool(const std::string& key, bool fallback) const;

 private:
  std::map<std::string, std::string> values_;
};

// Applies the flags every dcn binary understands, in one call:
//   --threads=N       thread-pool size (common/parallel.h; 0 = automatic)
//   --trace-out=FILE  capture spans, write Chrome trace JSON at exit
//   --stats-json=FILE write merged obs stats as JSON at exit
//   --obs-report      print the obs report table to stderr at exit
// plus the flight-recorder flags (--flight-sample, --flight-bucket,
// --latency-breakdown, --fct-csv, --fct-summary, --timeseries-csv,
// --timeseries-json; see obs/report.h). The obs sinks are written by obs::FlushSinks();
// bench/bench_util.h's ExperimentEnv pairs the two for every experiment
// binary.
void ApplyGlobalFlags(const CliArgs& args);

}  // namespace dcn
