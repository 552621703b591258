// Shared by every obs file sink (stats JSON, Chrome trace, alert log,
// time-series and flight exports): one JSON string/number encoder and one
// checked file writer, so every sink encodes names the same way and fails
// the same way.
#pragma once

#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>

namespace dcn::obs {

// JSON string-body escaping for the small character set that can appear in
// metric, series, thread and lane names (quotes, backslashes, control
// characters).
std::string JsonEscape(std::string_view text);

// Round-trippable decimal form (%.17g), so the JSON is both exact and
// byte-stable across thread counts (the values themselves are deterministic).
std::string JsonDouble(double value);

// Opens `path`, runs `write` on it and flushes. Throws InvalidArgument
// naming `what` ("stats", "trace", ...) when the file cannot be opened or
// written.
void WriteFile(const std::string& path, std::string_view what,
               const std::function<void(std::ostream&)>& write);

}  // namespace dcn::obs
