// Canonicalizing rewrite pass: syntactically different, semantically
// equal plans normalize to one structural form so their fingerprints —
// and therefore their recycler-graph nodes, cache entries and cold-tier
// subtree keys — coincide.
//
// Rules (documented with examples in DESIGN.md "SQL front-end &
// normalization"):
//   - constant folding with the kernels' rules (expr/scalar.h: type
//     promotion, wrapping integers, division-by-zero-yields-0, MIN / -1
//     = MIN, numeric comparison through double)
//   - comparison normalization: `5 < x` becomes `x > 5`
//   - AND/OR flattening, conjunct deduplication and deterministic
//     (fingerprint-sorted) ordering, TRUE/FALSE simplification
//   - per-column range-conjunct merging: `x > 1 AND x > 2` -> `x > 2`,
//     `x >= 5 AND x <= 5` -> `x = 5`, contradictions -> FALSE
//   - NOT elimination over comparisons (NULL-free engine)
//   - Select merging and pushdown below Project (pass-through columns)
//     and below OrderBy (stable sort: bit-identical results)
//   - identity-Project elimination and rename-chain composition
//   - Limit(Limit) collapsing
//
// Every rewrite is result-preserving bit-for-bit (row order included);
// the pass is pure (input trees are never mutated, unchanged subtrees
// are shared) and idempotent. Parameter placeholders are left alone, so
// prepared-statement templates canonicalize the same way as their
// substituted instances.
#pragma once

#include "expr/expression.h"
#include "plan/plan.h"

namespace recycledb {

/// Canonicalizes a scalar expression (see the file comment for the rule
/// set). Returns the input pointer when nothing changed.
ExprPtr CanonicalizeExpr(const ExprPtr& expr);

/// Canonicalizes a plan tree bottom-up. Pure: `plan` is unchanged and
/// untouched subtrees are shared with the result. Returns the input
/// pointer when nothing changed.
PlanPtr CanonicalizePlan(const PlanPtr& plan);

}  // namespace recycledb
