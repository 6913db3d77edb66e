// The opinion/value domain of the paper's agreement problems.
//
// Consensus (Alg. 3) and approximate agreement (Alg. 4) operate on real
// numbers; parallel consensus (Alg. 5) additionally needs a distinguished
// "no opinion" element ⊥ used to fill in messages for ids a node never heard
// an input for. Value is the disjoint union (real ∪ {⊥}) with total ordering
// (⊥ sorts before every real, giving deterministic tie-breaks) and hashing so
// it can key quorum counters.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <string>

namespace idonly {

class Value {
 public:
  /// Default-constructed Value is ⊥ (no opinion).
  constexpr Value() noexcept = default;

  /// The distinguished "no opinion" element.
  [[nodiscard]] static constexpr Value bot() noexcept { return Value{}; }

  /// A real-valued opinion. NaN is outside the domain: it breaks the strict
  /// weak order below, which would merge keys in sorted quorum tallies. Entry
  /// points reject it (parse_script's `inputs`, the wire codec's decode).
  [[nodiscard]] static constexpr Value real(double v) noexcept {
    Value out;
    out.is_bot_ = false;
    out.real_ = v;
    return out;
  }

  [[nodiscard]] constexpr bool is_bot() const noexcept { return is_bot_; }

  /// Precondition: !is_bot(). Returns the real payload.
  [[nodiscard]] constexpr double as_real() const noexcept { return real_; }

  /// Real payload, or `fallback` when ⊥.
  [[nodiscard]] constexpr double real_or(double fallback) const noexcept {
    return is_bot_ ? fallback : real_;
  }

  friend constexpr bool operator==(const Value& a, const Value& b) noexcept {
    return a.is_bot_ == b.is_bot_ && (a.is_bot_ || a.real_ == b.real_);
  }

  /// ⊥ < every real; reals ordered numerically.
  friend constexpr bool operator<(const Value& a, const Value& b) noexcept {
    if (a.is_bot_ != b.is_bot_) return a.is_bot_;
    if (a.is_bot_) return false;
    return a.real_ < b.real_;
  }

  [[nodiscard]] std::string to_string() const;

 private:
  double real_ = 0.0;
  bool is_bot_ = true;
};

struct ValueHash {
  [[nodiscard]] std::size_t operator()(const Value& v) const noexcept {
    if (v.is_bot()) return 0x9e3779b97f4a7c15ULL;
    return std::hash<double>{}(v.as_real());
  }
};

}  // namespace idonly
