// Scalar semantics of the expression language, in one place: constant
// folding (plan/canonicalize) and the compiled kernels (expr/program) both
// call these, so a folded literal expression equals the same expression
// evaluated on a column, bit for bit.
//
//  - Integer + - * wrap modulo 2^bits (two's complement), never UB.
//  - x / 0 is 0 for every type; integer MIN / -1 wraps to MIN.
//  - Numeric comparison goes through double (bool as 0/1); strings
//    compare with std::string::compare (the std::string relational
//    operators are defined by it).
//  - A double read as an integer truncates toward zero; NaN and values
//    outside int64 read as INT64_MIN.
#pragma once

#include <cstdint>
#include <limits>
#include <type_traits>

#include "expr/expression.h"

namespace recycledb {
namespace scalar {

template <ArithOp Op, typename T>
inline T Arith(T a, T b) {
  if constexpr (std::is_integral_v<T>) {
    using U = std::make_unsigned_t<T>;
    const U x = static_cast<U>(a), y = static_cast<U>(b);
    if constexpr (Op == ArithOp::kAdd) {
      return static_cast<T>(x + y);
    } else if constexpr (Op == ArithOp::kSub) {
      return static_cast<T>(x - y);
    } else if constexpr (Op == ArithOp::kMul) {
      return static_cast<T>(x * y);
    } else {
      if (b == 0) return 0;
      if (b == -1) return static_cast<T>(U{0} - x);  // MIN / -1 wraps
      return a / b;
    }
  } else {
    if constexpr (Op == ArithOp::kAdd) {
      return a + b;
    } else if constexpr (Op == ArithOp::kSub) {
      return a - b;
    } else if constexpr (Op == ArithOp::kMul) {
      return a * b;
    } else {
      return b == 0 ? 0 : a / b;
    }
  }
}

/// `a <op> b`; numeric operands are passed as double.
template <CompareOp Op, typename T>
inline bool Compare(const T& a, const T& b) {
  if constexpr (Op == CompareOp::kEq) {
    return a == b;
  } else if constexpr (Op == CompareOp::kNe) {
    return a != b;
  } else if constexpr (Op == CompareOp::kLt) {
    return a < b;
  } else if constexpr (Op == CompareOp::kLe) {
    return a <= b;
  } else if constexpr (Op == CompareOp::kGt) {
    return a > b;
  } else {
    return a >= b;
  }
}

/// Calls fn(std::integral_constant<ArithOp, op>), so kernels switch on the
/// operator once, outside their row loops.
template <typename Fn>
inline decltype(auto) WithArithOp(ArithOp op, Fn&& fn) {
  switch (op) {
    case ArithOp::kAdd:
      return fn(std::integral_constant<ArithOp, ArithOp::kAdd>{});
    case ArithOp::kSub:
      return fn(std::integral_constant<ArithOp, ArithOp::kSub>{});
    case ArithOp::kMul:
      return fn(std::integral_constant<ArithOp, ArithOp::kMul>{});
    case ArithOp::kDiv:
      break;
  }
  return fn(std::integral_constant<ArithOp, ArithOp::kDiv>{});
}

template <typename Fn>
inline decltype(auto) WithCompareOp(CompareOp op, Fn&& fn) {
  switch (op) {
    case CompareOp::kEq:
      return fn(std::integral_constant<CompareOp, CompareOp::kEq>{});
    case CompareOp::kNe:
      return fn(std::integral_constant<CompareOp, CompareOp::kNe>{});
    case CompareOp::kLt:
      return fn(std::integral_constant<CompareOp, CompareOp::kLt>{});
    case CompareOp::kLe:
      return fn(std::integral_constant<CompareOp, CompareOp::kLe>{});
    case CompareOp::kGt:
      return fn(std::integral_constant<CompareOp, CompareOp::kGt>{});
    case CompareOp::kGe:
      break;
  }
  return fn(std::integral_constant<CompareOp, CompareOp::kGe>{});
}

template <typename T>
inline T Arith(ArithOp op, T a, T b) {
  return WithArithOp(op,
                     [&](auto o) { return Arith<decltype(o)::value>(a, b); });
}

template <typename T>
inline bool Compare(CompareOp op, const T& a, const T& b) {
  return WithCompareOp(
      op, [&](auto o) { return Compare<decltype(o)::value>(a, b); });
}

/// Truncates toward zero; NaN and out-of-range values give INT64_MIN (the
/// value x86-64's cvttsd2si produces) instead of undefined behaviour.
inline int64_t TruncToInt64(double v) {
  if (v >= -9223372036854775808.0 && v < 9223372036854775808.0) {
    return static_cast<int64_t>(v);
  }
  return std::numeric_limits<int64_t>::min();
}

}  // namespace scalar
}  // namespace recycledb
