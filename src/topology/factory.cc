#include "topology/factory.h"

#include <charconv>
#include <map>

#include "common/error.h"
#include "topology/abccc.h"
#include "topology/bccc.h"
#include "topology/bcube.h"
#include "topology/dcell.h"
#include "topology/fattree.h"
#include "topology/ficonn.h"

namespace dcn::topo {

namespace {

std::map<std::string, std::string> ParseKeyValues(const std::string& spec,
                                                  const std::string& body) {
  std::map<std::string, std::string> values;
  std::size_t pos = 0;
  while (pos < body.size()) {
    std::size_t end = body.find(',', pos);
    if (end == std::string::npos) end = body.size();
    const std::string item = body.substr(pos, end - pos);
    const std::size_t eq = item.find('=');
    DCN_REQUIRE(eq != std::string::npos,
                "topology spec '" + spec + "': expected key=value, got '" + item + "'");
    const std::string key = item.substr(0, eq);
    DCN_REQUIRE(values.emplace(key, item.substr(eq + 1)).second,
                "topology spec '" + spec + "': duplicate key '" + key + "'");
    pos = end + 1;
  }
  return values;
}

std::string TakeRaw(std::map<std::string, std::string>& values,
                    const std::string& spec, const std::string& key) {
  const auto it = values.find(key);
  DCN_REQUIRE(it != values.end(),
              "topology spec '" + spec + "': missing required key '" + key + "'");
  std::string value = it->second;
  values.erase(it);
  return value;
}

// The whole of `raw` as a decimal int: no sign other than '-', no spaces,
// no trailing characters.
int ParseInt(const std::string& raw, const std::string& spec,
             const std::string& what) {
  int value = 0;
  const char* end = raw.data() + raw.size();
  const auto [ptr, ec] = std::from_chars(raw.data(), end, value);
  DCN_REQUIRE(!raw.empty() && ec == std::errc{} && ptr == end,
              "topology spec '" + spec + "': " + what + ", got '" + raw + "'");
  return value;
}

int Take(std::map<std::string, std::string>& values, const std::string& spec,
         const std::string& key) {
  return ParseInt(TakeRaw(values, spec, key), spec,
                  "'" + key + "' needs an integer value");
}

// Dotted list "4.4.2", big-endian (a_k first), returned little-endian.
std::vector<int> TakeRadices(std::map<std::string, std::string>& values,
                             const std::string& spec, const std::string& key) {
  const std::string raw = TakeRaw(values, spec, key);
  std::vector<int> big_endian;
  std::size_t pos = 0;
  while (pos <= raw.size()) {
    std::size_t end = raw.find('.', pos);
    if (end == std::string::npos) end = raw.size();
    big_endian.push_back(ParseInt(raw.substr(pos, end - pos), spec,
                                  "'" + key + "' must be dotted integers"));
    pos = end + 1;
  }
  return {big_endian.rbegin(), big_endian.rend()};
}

void RequireEmpty(const std::map<std::string, std::string>& values,
                  const std::string& spec) {
  if (values.empty()) return;
  throw InvalidArgument{"topology spec '" + spec + "': unknown key '" +
                        values.begin()->first + "'"};
}

}  // namespace

std::unique_ptr<Topology> MakeTopology(const std::string& spec) {
  const std::size_t colon = spec.find(':');
  DCN_REQUIRE(colon != std::string::npos,
              "topology spec '" + spec + "': expected <family>:<params>");
  const std::string family = spec.substr(0, colon);
  std::map<std::string, std::string> values =
      ParseKeyValues(spec, spec.substr(colon + 1));

  if (family == "abccc") {
    AbcccParams params;
    params.n = Take(values, spec, "n");
    params.k = Take(values, spec, "k");
    params.c = Take(values, spec, "c");
    RequireEmpty(values, spec);
    return std::make_unique<Abccc>(params);
  }
  if (family == "gabccc") {
    GeneralAbcccParams params;
    params.radices = TakeRadices(values, spec, "radices");
    params.c = Take(values, spec, "c");
    RequireEmpty(values, spec);
    return std::make_unique<Abccc>(params);
  }
  if (family == "bccc") {
    BcccParams params;
    params.n = Take(values, spec, "n");
    params.k = Take(values, spec, "k");
    RequireEmpty(values, spec);
    return std::make_unique<Bccc>(params);
  }
  if (family == "bcube") {
    BcubeParams params;
    params.n = Take(values, spec, "n");
    params.k = Take(values, spec, "k");
    RequireEmpty(values, spec);
    return std::make_unique<Bcube>(params);
  }
  if (family == "dcell") {
    DcellParams params;
    params.n = Take(values, spec, "n");
    params.k = Take(values, spec, "k");
    RequireEmpty(values, spec);
    return std::make_unique<Dcell>(params);
  }
  if (family == "ficonn") {
    FiConnParams params;
    params.n = Take(values, spec, "n");
    params.k = Take(values, spec, "k");
    RequireEmpty(values, spec);
    return std::make_unique<FiConn>(params);
  }
  if (family == "fattree") {
    FatTreeParams params;
    params.k = Take(values, spec, "k");
    RequireEmpty(values, spec);
    return std::make_unique<FatTree>(params);
  }
  throw InvalidArgument{"topology spec '" + spec + "': unknown family '" +
                        family +
                        "' (try one of: abccc, gabccc, bccc, bcube, dcell, ficonn, fattree)"};
}

std::vector<std::string> SupportedSpecs() {
  return {"abccc:n=4,k=2,c=3", "gabccc:radices=4.4.2,c=2", "bccc:n=4,k=2",
          "bcube:n=4,k=2", "dcell:n=4,k=1", "ficonn:n=4,k=2", "fattree:k=8"};
}

}  // namespace dcn::topo
