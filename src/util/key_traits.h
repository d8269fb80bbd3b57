/// \file key_traits.h
/// \brief KeyTraits<T>: the total-order contract of an indexable key type.
///
/// Lives in the leaf util layer (it depends on nothing but the standard
/// library) so that util headers like rng.h can use it without inverting
/// the layer DAG; storage/types.h re-exports it alongside the ValueType
/// machinery, which is where most of the engine picks it up.

#pragma once

#include <bit>
#include <cstdint>
#include <limits>
#include <optional>
#include <type_traits>

namespace holix {

/// Every layer between storage and the socket orders, partitions and
/// interpolates key values exclusively through KeyTraits<T>, never through
/// raw operators — that is what makes the cracking stack correct for
/// floating-point keys, where `<` is not a total order.
///
/// The contract:
///  * Less/Eq induce a total order with Lowest() and Highest() as the
///    extreme values;
///  * ToRank is an order-preserving injection into uint64 (Less(a, b) iff
///    ToRank(a) < ToRank(b)), FromRank its inverse on the image, so
///    interpolation and "successor" arithmetic are well defined for every
///    key type;
///  * Next(v) is the immediate successor in the total order (precondition:
///    !IsHighest(v)), so [v, Next(v)) is the unit range of the key v;
///  * Canonical collapses distinct representations that compare equal
///    (identity for integers);
///  * Sum is the accumulator type of SumRange over this key type.
///
/// For `double` the total order is IEEE `<` extended with two decisions the
/// engine pins down (and tests pin): `-0.0` and `+0.0` are the SAME key
/// (Eq true, one rank), and every NaN bit pattern collapses to a single
/// canonical key that sorts ABOVE `+inf` — the SQL-flavored "NaN last"
/// placement. Highest() for double is therefore NaN, and -inf/+inf are
/// ordinary orderable keys.
template <typename T>
struct KeyTraits {
  static_assert(std::is_integral_v<T>,
                "KeyTraits must be specialized for non-integral key types");
  using Sum = int64_t;

  static constexpr T Lowest() { return std::numeric_limits<T>::lowest(); }
  static constexpr T Highest() { return std::numeric_limits<T>::max(); }
  static constexpr bool Less(T a, T b) { return a < b; }
  static constexpr bool Eq(T a, T b) { return a == b; }
  static constexpr T Canonical(T v) { return v; }
  static constexpr bool IsHighest(T v) { return v == Highest(); }

  /// Order-preserving rank: flip the sign bit into offset-binary.
  static constexpr uint64_t ToRank(T v) {
    using U = std::make_unsigned_t<T>;
    constexpr U kFlip = U{1} << (sizeof(T) * 8 - 1);
    return static_cast<uint64_t>(static_cast<U>(static_cast<U>(v) ^ kFlip));
  }
  static constexpr T FromRank(uint64_t r) {
    using U = std::make_unsigned_t<T>;
    constexpr U kFlip = U{1} << (sizeof(T) * 8 - 1);
    return static_cast<T>(static_cast<U>(static_cast<U>(r) ^ kFlip));
  }

  /// Successor in the total order. Precondition: !IsHighest(v).
  static constexpr T Next(T v) { return static_cast<T>(v + 1); }
};

template <>
struct KeyTraits<double> {
  using Sum = double;

  static constexpr uint64_t kSignBit = uint64_t{1} << 63;
  /// Rank of +inf: bit pattern 0x7FF0... with the offset-binary flip.
  static constexpr uint64_t kPosInfRank = 0xFFF0000000000000ULL;
  /// Rank of -inf (the total-order minimum): ~bits(-inf).
  static constexpr uint64_t kNegInfRank = 0x000FFFFFFFFFFFFFULL;
  /// The single rank all NaN payloads collapse to, above +inf.
  static constexpr uint64_t kNaNRank = ~uint64_t{0};

  static constexpr double Lowest() {
    return -std::numeric_limits<double>::infinity();
  }
  /// The total-order maximum is the canonical NaN ("NaN last").
  static constexpr double Highest() {
    return std::numeric_limits<double>::quiet_NaN();
  }

  static constexpr bool Less(double a, double b) {
    // Fast path: IEEE compare decides every non-NaN pair (and makes
    // -0.0 == +0.0). Only when at least one side is NaN does the total
    // order diverge from IEEE: the non-NaN side is the smaller key.
    if (a < b) return true;
    if (a >= b) return false;
    return b != b && a == a;
  }
  static constexpr bool Eq(double a, double b) {
    return a == b || (a != a && b != b);
  }
  /// One representation per key: any NaN becomes the quiet NaN, -0.0
  /// becomes +0.0 (x + 0.0 is the identity for every other value).
  static constexpr double Canonical(double v) {
    return v != v ? std::numeric_limits<double>::quiet_NaN() : v + 0.0;
  }
  static constexpr bool IsHighest(double v) { return v != v; }

  static constexpr uint64_t ToRank(double v) {
    if (v != v) return kNaNRank;
    const uint64_t bits = std::bit_cast<uint64_t>(v + 0.0);
    return (bits & kSignBit) ? ~bits : (bits | kSignBit);
  }
  static constexpr double FromRank(uint64_t r) {
    // The gap between +inf's rank and kNaNRank holds no ordered values;
    // any rank in it maps to the canonical NaN (the order is preserved
    // because all such ranks sit above every ordered key).
    if (r > kPosInfRank) return std::numeric_limits<double>::quiet_NaN();
    if (r < kNegInfRank) return Lowest();  // below the image; defensive
    const uint64_t bits = (r & kSignBit) ? (r ^ kSignBit) : ~r;
    return std::bit_cast<double>(bits);
  }

  /// Successor in the total order; Next(+inf) is the NaN key.
  /// Precondition: !IsHighest(v).
  static constexpr double Next(double v) { return FromRank(ToRank(v) + 1); }
};

/// The engine's one range predicate: low <= v < high in the total order,
/// where an absent \p high is the open top — the range runs through
/// Highest(), which no exclusive bound can reach.
template <typename T>
constexpr bool InRange(T v, T low, std::optional<T> high) {
  return !KeyTraits<T>::Less(v, low) && (!high || KeyTraits<T>::Less(v, *high));
}

}  // namespace holix
