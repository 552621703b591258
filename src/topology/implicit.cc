#include "topology/implicit.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <sstream>

#include "common/error.h"

namespace dcn::topo {

void GeneralAbcccParams::Validate() const {
  DCN_REQUIRE(!radices.empty(), "a cube needs at least one level");
  for (int radix : radices) {
    DCN_REQUIRE(radix >= 2, "every level radix must be >= 2");
  }
  DCN_REQUIRE(c >= 2, "cube servers need c >= 2 NIC ports");
  // Evaluate the derived counts to trigger the overflow checks early: link
  // ids must fit 64 bits too (a huge-but-server-valid shape whose link count
  // wraps would corrupt every downstream total). Pure arithmetic — validating
  // a petascale instance allocates nothing.
  (void)ServerTotal();
  (void)LinkTotal();
}

int GeneralAbcccParams::LevelRadix(int level) const {
  DCN_REQUIRE(level >= 0 && level <= Order(), "level out of range");
  return radices[level];
}

std::pair<int, int> GeneralAbcccParams::AgentLevels(int role) const {
  DCN_REQUIRE(role >= 0 && role < RowLength(), "role out of range");
  const int lo = role * (c - 1);
  return {lo, std::min(lo + c - 2, Order())};
}

int GeneralAbcccParams::PortsUsed(int role) const {
  const auto [lo, hi] = AgentLevels(role);
  return (HasCrossbars() ? 1 : 0) + (hi - lo + 1);
}

std::uint64_t GeneralAbcccParams::RowCount() const {
  std::uint64_t rows = 1;
  for (int radix : radices) rows = CheckedMul(rows, static_cast<std::uint64_t>(radix));
  return rows;
}

std::uint64_t GeneralAbcccParams::ServerTotal() const {
  const std::uint64_t rows = RowCount();
  const auto m = static_cast<std::uint64_t>(RowLength());
  DCN_REQUIRE(rows <= (std::uint64_t{1} << 62) / m, "server count overflows");
  return rows * m;
}

std::uint64_t GeneralAbcccParams::CrossbarTotal() const {
  return HasCrossbars() ? RowCount() : 0;
}

std::uint64_t GeneralAbcccParams::LevelSwitchCount(int level) const {
  return RowCount() / static_cast<std::uint64_t>(LevelRadix(level));
}

std::uint64_t GeneralAbcccParams::LevelSwitchTotal() const {
  std::uint64_t total = 0;
  for (int level = 0; level <= Order(); ++level) {
    total = CheckedAdd(total, LevelSwitchCount(level));
  }
  return total;
}

std::uint64_t GeneralAbcccParams::LinkTotal() const {
  return CheckedAdd(
      CheckedMul(static_cast<std::uint64_t>(DigitCount()), RowCount()),
      HasCrossbars() ? ServerTotal() : 0);
}

GeneralAbcccParams AbcccParams::General() const {
  DCN_REQUIRE(n >= 2, "level-switch radix n must be >= 2");
  DCN_REQUIRE(k >= 0, "order k must be >= 0");
  DCN_REQUIRE(c >= 2, "servers need c >= 2 NIC ports");
  // Bounds k before allocating one radix per level.
  (void)CheckedPow(static_cast<std::uint64_t>(n), static_cast<unsigned>(k) + 1);
  return GeneralAbcccParams{std::vector<int>(static_cast<std::size_t>(k) + 1, n), c};
}

ImplicitCube::ImplicitCube(GeneralAbcccParams params, CubeFamily family)
    : params_(std::move(params)), family_(family) {
  params_.Validate();
  const std::vector<int>& radices = params_.radices;
  if (family_ != CubeFamily::kGeneralAbccc) {
    DCN_REQUIRE(std::adjacent_find(radices.begin(), radices.end(),
                                   std::not_equal_to<>()) == radices.end(),
                "ABCCC, BCCC and BCube have one radix for every level");
  }
  if (family_ == CubeFamily::kBccc) {
    DCN_REQUIRE(params_.c == 2, "BCCC is the c == 2 specialization");
  }
  if (family_ == CubeFamily::kBcube) {
    DCN_REQUIRE(params_.RowLength() == 1,
                "BCube is the m == 1 degeneration (c >= k+2)");
  }
  const int k = params_.Order();
  m_ = static_cast<std::uint64_t>(params_.RowLength());
  has_crossbars_ = params_.HasCrossbars();
  server_total_ = params_.ServerTotal();
  crossbar_base_ = server_total_;

  weight_.resize(static_cast<std::size_t>(k) + 2);
  level_base_.resize(static_cast<std::size_t>(k) + 1);
  weight_[0] = 1;
  std::uint64_t next = server_total_ + params_.CrossbarTotal();
  for (int level = 0; level <= k; ++level) {
    weight_[level + 1] = weight_[level] * static_cast<std::uint64_t>(radices[level]);
    level_base_[level] = next;
    next = CheckedAdd(next, params_.LevelSwitchCount(level));
  }
  node_total_ = next;
  // Traversal state is indexed by graph::NodeId, so the id space must fit it
  // even though the arithmetic above works to 64 bits.
  DCN_REQUIRE(node_total_ <= static_cast<std::uint64_t>(
                                 std::numeric_limits<graph::NodeId>::max()),
              "cube node count overflows 32-bit node ids");

  int bound = *std::max_element(radices.begin(), radices.end());
  for (int role = 0; role < params_.RowLength(); ++role) {
    bound = std::max(bound, params_.PortsUsed(role));
  }
  if (has_crossbars_) bound = std::max(bound, params_.RowLength());
  degree_bound_ = static_cast<std::size_t>(bound);
}

std::string ImplicitCube::Name() const {
  switch (family_) {
    case CubeFamily::kGeneralAbccc:
      return "GeneralABCCC";
    case CubeFamily::kBccc:
      return "BCCC";
    case CubeFamily::kBcube:
      return "BCube";
    default:
      return "ABCCC";
  }
}

std::string DescribeCube(const GeneralAbcccParams& params, CubeFamily family) {
  const int n = params.radices[0];
  const int k = params.Order();
  std::ostringstream out;
  switch (family) {
    case CubeFamily::kGeneralAbccc:
      out << "GeneralABCCC(radices=[";
      for (int level = k; level >= 0; --level) {
        out << params.radices[level] << (level > 0 ? "," : "");
      }
      out << "],c=" << params.c << ")";
      break;
    case CubeFamily::kBccc:
      out << "BCCC(n=" << n << ",k=" << k << ")";
      break;
    case CubeFamily::kBcube:
      out << "BCube(n=" << n << ",k=" << k << ")";
      break;
    default:
      out << "ABCCC(n=" << n << ",k=" << k << ",c=" << params.c << ")";
      break;
  }
  return out.str();
}

std::string ImplicitCube::NodeLabel(graph::NodeId node) const {
  DCN_REQUIRE(node >= 0 && static_cast<std::uint64_t>(node) < node_total_,
              "node id out of range");
  const auto id = static_cast<std::uint64_t>(node);
  // DigitsToString dots the digits apart when the base exceeds 10.
  const int base = *std::max_element(params_.radices.begin(), params_.radices.end());
  std::ostringstream out;
  if (id < server_total_) {
    out << "<" << DigitsToString(RowDigits(id / m_), base);
    if (family_ != CubeFamily::kBcube) out << ";" << id % m_;
    out << ">";
  } else if (id < level_base_[0]) {
    out << "X(" << DigitsToString(RowDigits(id - crossbar_base_), base) << ")";
  } else {
    const int level = LevelOfSwitch(node);
    const std::uint64_t index = id - level_base_[level];
    out << "S" << level << "(";
    if (family_ == CubeFamily::kGeneralAbccc) {
      out << "#" << index;
    } else {
      // Its first row's digits: BCube prints the k digits other than a_l,
      // ABCCC/BCCC put '*' in position l.
      Digits digits = RowDigits(FirstRow(weight_.data(), index, level));
      if (family_ == CubeFamily::kBcube) {
        digits.erase(digits.begin() + level);
        out << DigitsToString(digits, base);
      } else {
        for (int i = params_.Order(); i >= 0; --i) {
          if (i == level) {
            out << "*";
          } else {
            out << digits[i];
          }
          if (base > 10 && i > 0) out << ".";
        }
      }
    }
    out << ")";
  }
  return out.str();
}

std::size_t ImplicitCube::Degree(graph::NodeId node) const {
  DCN_REQUIRE(node >= 0 && static_cast<std::uint64_t>(node) < node_total_,
              "node id out of range");
  const auto id = static_cast<std::uint64_t>(node);
  if (id < server_total_) {
    return static_cast<std::size_t>(params_.PortsUsed(static_cast<int>(id % m_)));
  }
  if (id < level_base_[0]) return static_cast<std::size_t>(m_);
  return static_cast<std::size_t>(params_.radices[LevelOfSwitch(node)]);
}

std::uint64_t ImplicitCube::RowIndex(std::span<const int> digits) const {
  DCN_REQUIRE(digits.size() == params_.radices.size(),
              "cube address needs one digit per level");
  std::uint64_t row = 0;
  for (std::size_t level = 0; level < digits.size(); ++level) {
    DCN_REQUIRE(digits[level] >= 0 && digits[level] < params_.radices[level],
                "digit out of range for its level radix");
    row += static_cast<std::uint64_t>(digits[level]) * weight_[level];
  }
  return row;
}

Digits ImplicitCube::RowDigits(std::uint64_t row) const {
  DCN_REQUIRE(row < weight_.back(), "row index out of range");
  Digits digits(params_.radices.size());
  for (std::size_t level = 0; level < digits.size(); ++level) {
    digits[level] = static_cast<int>(
        row / weight_[level] % static_cast<std::uint64_t>(params_.radices[level]));
  }
  return digits;
}

graph::NodeId ImplicitCube::ServerAt(std::span<const int> digits, int role) const {
  return ServerAtRow(RowIndex(digits), role);
}

graph::NodeId ImplicitCube::ServerAtRow(std::uint64_t row, int role) const {
  DCN_REQUIRE(row < weight_.back(), "row index out of range");
  DCN_REQUIRE(role >= 0 && static_cast<std::uint64_t>(role) < m_, "role out of range");
  return static_cast<graph::NodeId>(row * m_ + static_cast<std::uint64_t>(role));
}

AbcccAddress ImplicitCube::AddressOf(graph::NodeId server) const {
  CheckServer(server);
  const auto id = static_cast<std::uint64_t>(server);
  return AbcccAddress{RowDigits(id / m_), static_cast<int>(id % m_)};
}

std::uint64_t ImplicitCube::RowOf(graph::NodeId server) const {
  CheckServer(server);
  return static_cast<std::uint64_t>(server) / m_;
}

graph::NodeId ImplicitCube::CrossbarAt(std::uint64_t row) const {
  DCN_REQUIRE(has_crossbars_, "this cube has no crossbars (m == 1)");
  DCN_REQUIRE(row < weight_.back(), "row index out of range");
  return static_cast<graph::NodeId>(crossbar_base_ + row);
}

graph::NodeId ImplicitCube::LevelSwitchAt(int level, std::span<const int> digits) const {
  DCN_REQUIRE(level >= 0 && level <= params_.Order(), "level out of range");
  return static_cast<graph::NodeId>(level_base_[level] +
                                    SwitchIndex(weight_.data(), RowIndex(digits), level));
}

bool ImplicitCube::IsCrossbar(graph::NodeId node) const {
  const auto id = static_cast<std::uint64_t>(node);
  return id >= crossbar_base_ && id < level_base_[0];
}

int ImplicitCube::LevelOfSwitch(graph::NodeId node) const {
  const auto id = static_cast<std::uint64_t>(node);
  DCN_REQUIRE(id >= level_base_[0] && id < node_total_, "node is not a level switch");
  int level = params_.Order();
  while (id < level_base_[level]) --level;
  return level;
}

std::vector<graph::NodeId> ImplicitCube::RouteWithLevelOrder(
    graph::NodeId src, graph::NodeId dst, std::span<const int> level_order) const {
  const AbcccAddress from = AddressOf(src);
  const AbcccAddress to = AddressOf(dst);
  // The order must mention exactly the differing levels, once each.
  std::vector<bool> mentioned(params_.radices.size(), false);
  for (int level : level_order) {
    DCN_REQUIRE(level >= 0 && level <= params_.Order(), "level out of range in order");
    DCN_REQUIRE(!mentioned[level], "duplicate level in order");
    DCN_REQUIRE(from.digits[level] != to.digits[level],
                "level order contains a non-differing level");
    mentioned[level] = true;
  }
  DCN_REQUIRE(static_cast<int>(level_order.size()) ==
                  HammingDistance(from.digits, to.digits),
              "level order must cover every differing level");
  return Walk(src, dst, level_order);
}

std::vector<graph::NodeId> ImplicitCube::Walk(graph::NodeId src, graph::NodeId dst,
                                              std::span<const int> level_order) const {
  // Walks on the packed row index: fixing digit l adds (b_l - a_l) * w_l.
  std::uint64_t row = static_cast<std::uint64_t>(src) / m_;
  auto role = static_cast<std::uint64_t>(src) % m_;
  const std::uint64_t dst_row = static_cast<std::uint64_t>(dst) / m_;
  std::vector<graph::NodeId> hops{src};
  auto move_to_role = [&](std::uint64_t target) {
    if (role == target) return;
    hops.push_back(static_cast<graph::NodeId>(crossbar_base_ + row));
    hops.push_back(static_cast<graph::NodeId>(row * m_ + target));
    role = target;
  };
  for (int level : level_order) {
    move_to_role(static_cast<std::uint64_t>(params_.AgentRole(level)));
    hops.push_back(
        static_cast<graph::NodeId>(level_base_[level] + SwitchIndex(weight_.data(), row, level)));
    const std::uint64_t weight = weight_[level];
    const auto radix = static_cast<std::uint64_t>(params_.radices[level]);
    row = row - row / weight % radix * weight + dst_row / weight % radix * weight;
    hops.push_back(static_cast<graph::NodeId>(row * m_ + role));
  }
  move_to_role(static_cast<std::uint64_t>(dst) % m_);
  DCN_ASSERT(hops.back() == dst);
  return hops;
}

std::vector<int> ImplicitCube::DefaultLevelOrder(const AbcccAddress& src,
                                                 const AbcccAddress& dst) const {
  std::vector<int> differing;
  for (int level = 0; level <= params_.Order(); ++level) {
    if (src.digits[level] != dst.digits[level]) differing.push_back(level);
  }
  if (family_ == CubeFamily::kBcube) return {differing.rbegin(), differing.rend()};
  // Ascending level order already groups by agent role (agent = level /
  // (c-1) is monotone), so only the groups move: src's role group first
  // (saves the initial crossbar hop), dst's role group last (saves the final
  // one).
  std::vector<int> order;
  order.reserve(differing.size());
  auto role_of = [&](int level) { return params_.AgentRole(level); };
  for (int level : differing) {
    if (role_of(level) == src.role) order.push_back(level);
  }
  for (int level : differing) {
    const int r = role_of(level);
    if (r != src.role && (r != dst.role || dst.role == src.role)) {
      order.push_back(level);
    }
  }
  if (dst.role != src.role) {
    for (int level : differing) {
      if (role_of(level) == dst.role) order.push_back(level);
    }
  }
  DCN_ASSERT(order.size() == differing.size());
  return order;
}

std::vector<graph::NodeId> ImplicitCube::Route(graph::NodeId src,
                                               graph::NodeId dst) const {
  return Walk(src, dst, DefaultLevelOrder(AddressOf(src), AddressOf(dst)));
}

int ImplicitCube::ServerPorts() const {
  return has_crossbars_ ? params_.PortsUsed(0) : params_.DigitCount();
}

int ImplicitCube::RouteLengthBound() const {
  // BCube corrects one digit per switch (2 links). Otherwise, per differing
  // level: <= 2 (crossbar reposition) + 2 (level switch), plus a final
  // reposition; the default order saves the first/last reposition, but the
  // bound covers any order.
  const int levels = params_.DigitCount();
  return family_ == CubeFamily::kBcube ? 2 * levels : 4 * levels + 2;
}

double ImplicitCube::TheoreticalBisection() const {
  const int k = params_.Order();
  return static_cast<double>(params_.LevelSwitchCount(k)) *
         static_cast<double>(params_.radices[k] / 2);
}

void ImplicitCube::CheckServer(graph::NodeId node) const {
  DCN_REQUIRE(node >= 0 && static_cast<std::uint64_t>(node) < server_total_,
              "node is not a server of this network");
}

}  // namespace dcn::topo
