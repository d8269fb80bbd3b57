/// \file types.h
/// \brief Fundamental value and position types of the column-store, and the
/// KeyTraits total-order contract every indexable key type satisfies.

#pragma once

#include <bit>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "util/key_traits.h"

namespace holix {

/// Row identifier (position of a tuple within its table). Dense, 0-based.
using RowId = uint64_t;

/// The value types the engine supports in columns.
enum class ValueType : uint8_t {
  kInt32,
  kInt64,
  kDouble,
};

/// Human-readable name of a ValueType.
inline const char* ValueTypeName(ValueType t) {
  switch (t) {
    case ValueType::kInt32:
      return "int32";
    case ValueType::kInt64:
      return "int64";
    case ValueType::kDouble:
      return "double";
  }
  return "?";
}

/// Size in bytes of one value of type \p t.
inline size_t ValueTypeSize(ValueType t) {
  switch (t) {
    case ValueType::kInt32:
      return 4;
    case ValueType::kInt64:
      return 8;
    case ValueType::kDouble:
      return 8;
  }
  return 0;
}

/// Maps a C++ type to its ValueType tag.
template <typename T>
struct ValueTypeOf;
template <>
struct ValueTypeOf<int32_t> {
  static constexpr ValueType value = ValueType::kInt32;
};
template <>
struct ValueTypeOf<int64_t> {
  static constexpr ValueType value = ValueType::kInt64;
};
template <>
struct ValueTypeOf<double> {
  static constexpr ValueType value = ValueType::kDouble;
};

// ---------------------------------------------------------------------------
// KeyScalar: a dynamically typed key crossing an untyped boundary
// ---------------------------------------------------------------------------

/// One key value whose static type is unknown at the call site — facade
/// entry points and wire frames carry these. Two carrier kinds cover every
/// column type: int64 (covers int32/int64 exactly) and double. The typed
/// executors clamp a KeyScalar bound into the column's domain without a
/// lossy detour: an int64 carrier against a double column converts through
/// the exact "smallest double >= v" bound, not through a rounding cast.
struct KeyScalar {
  enum class Kind : uint8_t { kI64, kF64 };

  Kind kind = Kind::kI64;
  int64_t i = 0;
  double d = 0.0;

  constexpr KeyScalar() = default;
  constexpr KeyScalar(int64_t v) : kind(Kind::kI64), i(v) {}  // NOLINT
  constexpr KeyScalar(int v) : kind(Kind::kI64), i(v) {}      // NOLINT
  constexpr KeyScalar(double v) : kind(Kind::kF64), d(v) {}   // NOLINT

  /// Carrier-and-payload equality (f64 payloads compare bit-exact, so a
  /// NaN scalar equals itself — wire roundtrip tests rely on this).
  bool operator==(const KeyScalar& o) const {
    if (kind != o.kind) return false;
    if (kind == Kind::kI64) return i == o.i;
    return std::bit_cast<uint64_t>(d) == std::bit_cast<uint64_t>(o.d);
  }

  static constexpr KeyScalar I64(int64_t v) {
    KeyScalar s;
    s.kind = Kind::kI64;
    s.i = v;
    return s;
  }
  static constexpr KeyScalar F64(double v) {
    KeyScalar s;
    s.kind = Kind::kF64;
    s.d = v;
    return s;
  }

  constexpr bool is_f64() const { return kind == Kind::kF64; }

  /// Value as a double (int64 carriers beyond 2^53 round to nearest).
  constexpr double AsF64() const {
    return is_f64() ? d : static_cast<double>(i);
  }
};

// ---------------------------------------------------------------------------
// Type dispatch
// ---------------------------------------------------------------------------

/// Carries a column element type through a generic lambda:
/// `[](auto tag) { using T = typename decltype(tag)::type; ... }`.
template <typename T>
struct TypeTag {
  using type = T;
};

/// Invokes `fn(TypeTag<T>{})` for the indexable (cracker-capable) element
/// type matching \p t. All supported value types are indexable: integers
/// order natively, doubles through the KeyTraits<double> total order.
/// Throws std::logic_error for a tag with no runtime (future-proofing).
template <typename Fn>
decltype(auto) DispatchIndexableType(ValueType t, Fn&& fn) {
  switch (t) {
    case ValueType::kInt32:
      return fn(TypeTag<int32_t>{});
    case ValueType::kInt64:
      return fn(TypeTag<int64_t>{});
    case ValueType::kDouble:
      return fn(TypeTag<double>{});
  }
  throw std::logic_error(std::string("no indexable runtime for type ") +
                         ValueTypeName(t));
}

}  // namespace holix
