#include "plan/canonicalize.h"

#include <algorithm>
#include <map>
#include <optional>

#include "common/interval.h"
#include "common/macros.h"
#include "expr/scalar.h"

namespace recycledb {

namespace {

// ---------------------------------------------------------------------------
// Expression helpers
// ---------------------------------------------------------------------------

bool IsLiteral(const ExprPtr& e) { return e->kind() == ExprKind::kLiteral; }

bool IsBoolLiteral(const ExprPtr& e, bool value) {
  return IsLiteral(e) && std::holds_alternative<bool>(e->literal()) &&
         std::get<bool>(e->literal()) == value;
}

ExprPtr BoolLiteral(bool value) { return Expr::Literal(value); }

/// Literal usable as an interval bound / foldable operand: int32, int64,
/// double or string (not NULL, not bool).
bool OrderableDatum(const Datum& d) { return d.index() >= 2; }

CompareOp MirrorOp(CompareOp op) {
  switch (op) {
    case CompareOp::kLt:
      return CompareOp::kGt;
    case CompareOp::kLe:
      return CompareOp::kGe;
    case CompareOp::kGt:
      return CompareOp::kLt;
    case CompareOp::kGe:
      return CompareOp::kLe;
    default:
      return op;  // = and != are symmetric
  }
}

CompareOp NegateOp(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return CompareOp::kNe;
    case CompareOp::kNe:
      return CompareOp::kEq;
    case CompareOp::kLt:
      return CompareOp::kGe;
    case CompareOp::kLe:
      return CompareOp::kGt;
    case CompareOp::kGt:
      return CompareOp::kLe;
    case CompareOp::kGe:
      return CompareOp::kLt;
  }
  RDB_UNREACHABLE("bad compare op");
}

/// Constant-folds a comparison of two literals under the kernels' rules
/// (expr/scalar.h): strings compare lexicographically, everything else
/// through double (bool as 0/1). Returns nullptr when the operands are not
/// comparable (NULL involved, or string vs non-string — validation rejects
/// those).
ExprPtr FoldCompare(CompareOp op, const Datum& a, const Datum& b) {
  if (a.index() == 0 || b.index() == 0) return nullptr;
  bool sa = a.index() == 5, sb = b.index() == 5;
  if (sa != sb) return nullptr;
  if (sa) {
    return BoolLiteral(scalar::Compare(op, std::get<std::string>(a),
                                       std::get<std::string>(b)));
  }
  return BoolLiteral(scalar::Compare(op, DatumAsDouble(a), DatumAsDouble(b)));
}

/// Constant-folds an arithmetic node over two literals with the kernels'
/// type promotion (ArithResultType) and value rules (expr/scalar.h:
/// wrapping integers, x / 0 = 0, MIN / -1 = MIN). Returns nullptr for
/// non-numeric operands.
ExprPtr FoldArith(ArithOp op, const Datum& a, const Datum& b) {
  TypeId lt = DatumType(a), rt = DatumType(b);
  if (!IsNumeric(lt) || !IsNumeric(rt)) return nullptr;
  switch (ArithResultType(lt, rt)) {
    case TypeId::kDouble:
      return Expr::Literal(
          scalar::Arith(op, DatumAsDouble(a), DatumAsDouble(b)));
    case TypeId::kInt64:
      return Expr::Literal(
          scalar::Arith(op, DatumAsInt64(a), DatumAsInt64(b)));
    default:
      return Expr::Literal(scalar::Arith(
          op, static_cast<int32_t>(DatumAsInt64(a)),
          static_cast<int32_t>(DatumAsInt64(b))));
  }
}

/// Flattens a same-operator AND/OR subtree into its operand list.
void FlattenLogical(LogicalOp op, const ExprPtr& e,
                    std::vector<ExprPtr>* out) {
  if (e->kind() == ExprKind::kLogical && e->logical_op() == op) {
    for (const ExprPtr& c : e->children()) FlattenLogical(op, c, out);
    return;
  }
  out->push_back(e);
}

/// True for a range conjunct `col <op> literal` usable in interval
/// merging (op is not !=, literal is orderable).
bool IsRangeConjunct(const ExprPtr& e, std::string* col, CompareOp* op,
                     Datum* lit) {
  if (e->kind() != ExprKind::kCompare) return false;
  if (e->compare_op() == CompareOp::kNe) return false;
  const ExprPtr& l = e->children()[0];
  const ExprPtr& r = e->children()[1];
  if (l->kind() != ExprKind::kColumnRef || !IsLiteral(r)) return false;
  if (!OrderableDatum(r->literal())) return false;
  *col = l->column_name();
  *op = e->compare_op();
  *lit = r->literal();
  return true;
}

ExprPtr RangeConjunct(const std::string& col, CompareOp op, Datum value) {
  return Expr::Compare(op, Expr::Column(col), Expr::Literal(std::move(value)));
}

ExprPtr BuildLogicalChain(LogicalOp op, const std::vector<ExprPtr>& parts) {
  ExprPtr acc = parts[0];
  for (size_t i = 1; i < parts.size(); ++i) {
    acc = op == LogicalOp::kAnd ? Expr::And(acc, parts[i])
                                : Expr::Or(acc, parts[i]);
  }
  return acc;
}

ExprPtr CanonicalizeLogicalChain(LogicalOp op, const ExprPtr& e);

ExprPtr CanonicalizeExprImpl(const ExprPtr& e) {
  switch (e->kind()) {
    case ExprKind::kColumnRef:
    case ExprKind::kLiteral:
    case ExprKind::kParam:
      return e;
    case ExprKind::kCompare: {
      ExprPtr l = CanonicalizeExpr(e->children()[0]);
      ExprPtr r = CanonicalizeExpr(e->children()[1]);
      CompareOp op = e->compare_op();
      if (IsLiteral(l) && IsLiteral(r)) {
        ExprPtr folded = FoldCompare(op, l->literal(), r->literal());
        if (folded != nullptr) return folded;
      }
      if (IsLiteral(l) && !IsLiteral(r)) {
        // `5 < x` normalizes to `x > 5`.
        return Expr::Compare(MirrorOp(op), r, l);
      }
      if (l == e->children()[0] && r == e->children()[1]) return e;
      return Expr::Compare(op, std::move(l), std::move(r));
    }
    case ExprKind::kLogical: {
      if (e->logical_op() == LogicalOp::kNot) {
        ExprPtr c = CanonicalizeExpr(e->children()[0]);
        if (IsLiteral(c) && std::holds_alternative<bool>(c->literal())) {
          return BoolLiteral(!std::get<bool>(c->literal()));
        }
        if (c->kind() == ExprKind::kCompare) {
          // NULL-free engine: NOT(a < b) is exactly a >= b.
          return CanonicalizeExpr(Expr::Compare(NegateOp(c->compare_op()),
                                                c->children()[0],
                                                c->children()[1]));
        }
        if (c->kind() == ExprKind::kLogical &&
            c->logical_op() == LogicalOp::kNot) {
          return c->children()[0];
        }
        if (c->kind() == ExprKind::kLike) {
          if (c->like_kind() == LikeKind::kContains) {
            return Expr::Like(LikeKind::kNotContains, c->children()[0],
                              c->like_pattern());
          }
          if (c->like_kind() == LikeKind::kNotContains) {
            return Expr::Like(LikeKind::kContains, c->children()[0],
                              c->like_pattern());
          }
        }
        if (c == e->children()[0]) return e;
        return Expr::Not(std::move(c));
      }
      return CanonicalizeLogicalChain(e->logical_op(), e);
    }
    case ExprKind::kArith: {
      ExprPtr l = CanonicalizeExpr(e->children()[0]);
      ExprPtr r = CanonicalizeExpr(e->children()[1]);
      if (IsLiteral(l) && IsLiteral(r)) {
        ExprPtr folded = FoldArith(e->arith_op(), l->literal(), r->literal());
        if (folded != nullptr) return folded;
      }
      if (l == e->children()[0] && r == e->children()[1]) return e;
      return Expr::Arith(e->arith_op(), std::move(l), std::move(r));
    }
    case ExprKind::kFunc: {
      std::vector<ExprPtr> kids;
      bool changed = false;
      for (const ExprPtr& c : e->children()) {
        kids.push_back(CanonicalizeExpr(c));
        changed = changed || kids.back() != c;
      }
      if (!changed) return e;
      return Expr::Func(e->func_name(), std::move(kids));
    }
    case ExprKind::kCase: {
      // Branch types promote jointly (int32 THEN with int64 ELSE yields
      // int64), so folding a constant condition down to one branch could
      // change the output column type; only the children canonicalize.
      ExprPtr c0 = CanonicalizeExpr(e->children()[0]);
      ExprPtr c1 = CanonicalizeExpr(e->children()[1]);
      ExprPtr c2 = CanonicalizeExpr(e->children()[2]);
      if (c0 == e->children()[0] && c1 == e->children()[1] &&
          c2 == e->children()[2]) {
        return e;
      }
      return Expr::Case(std::move(c0), std::move(c1), std::move(c2));
    }
    case ExprKind::kInList: {
      ExprPtr c = CanonicalizeExpr(e->children()[0]);
      // Membership is order-independent: sort and deduplicate the list.
      std::vector<Datum> values = e->in_values();
      std::stable_sort(values.begin(), values.end(),
                       [](const Datum& a, const Datum& b) {
                         bool sa = a.index() == 5, sb = b.index() == 5;
                         if (sa != sb) return !sa;  // mixed types: validation
                                                    // rejects; order stably
                         if (a.index() == 0 || b.index() == 0) return false;
                         return DatumCompare(a, b) < 0;
                       });
      values.erase(std::unique(values.begin(), values.end(),
                               [](const Datum& a, const Datum& b) {
                                 if ((a.index() == 5) != (b.index() == 5)) {
                                   return false;
                                 }
                                 if (a.index() == 0 || b.index() == 0) {
                                   return a.index() == b.index();
                                 }
                                 return DatumCompare(a, b) == 0;
                               }),
                   values.end());
      bool same = c == e->children()[0] && values.size() == e->in_values().size();
      for (size_t i = 0; same && i < values.size(); ++i) {
        same = values[i].index() == e->in_values()[i].index() &&
               DatumToString(values[i]) == DatumToString(e->in_values()[i]);
      }
      if (same) return e;
      return Expr::In(std::move(c), std::move(values));
    }
    case ExprKind::kLike: {
      ExprPtr c = CanonicalizeExpr(e->children()[0]);
      if (c == e->children()[0]) return e;
      return Expr::Like(e->like_kind(), std::move(c), e->like_pattern());
    }
  }
  RDB_UNREACHABLE("bad expr kind");
}

ExprPtr CanonicalizeLogicalChain(LogicalOp op, const ExprPtr& e) {
  const bool is_and = op == LogicalOp::kAnd;
  std::vector<ExprPtr> parts;
  for (const ExprPtr& c : e->children()) {
    FlattenLogical(op, CanonicalizeExpr(c), &parts);
  }
  std::vector<ExprPtr> kept;
  for (const ExprPtr& p : parts) {
    if (IsBoolLiteral(p, is_and)) continue;      // identity element
    if (IsBoolLiteral(p, !is_and)) {
      return BoolLiteral(!is_and);               // absorbing element
    }
    kept.push_back(p);
  }
  if (is_and) {
    // Merge per-column range conjuncts into one canonical interval:
    // `x > 1 AND x > 2` -> `x > 2`; `x >= 5 AND x <= 5` -> `x = 5`;
    // a contradictory interval collapses the conjunction to FALSE.
    struct Group {
      ColumnInterval iv;
      bool is_string = false;
      bool mixed = false;
      std::vector<ExprPtr> originals;
    };
    std::map<std::string, Group> groups;
    std::vector<ExprPtr> rest;
    for (const ExprPtr& p : kept) {
      std::string col;
      CompareOp cop;
      Datum lit;
      if (!IsRangeConjunct(p, &col, &cop, &lit)) {
        rest.push_back(p);
        continue;
      }
      Group& g = groups[col];
      bool lit_string = lit.index() == 5;
      if (g.originals.empty()) {
        g.is_string = lit_string;
      } else if (g.is_string != lit_string) {
        g.mixed = true;  // string vs numeric: leave for validation
      }
      g.originals.push_back(p);
      if (g.mixed) continue;
      RangeBound lo, hi;
      switch (cop) {
        case CompareOp::kEq:
          lo = {false, lit, true};
          hi = {false, lit, true};
          break;
        case CompareOp::kLt:
          hi = {false, lit, false};
          break;
        case CompareOp::kLe:
          hi = {false, lit, true};
          break;
        case CompareOp::kGt:
          lo = {false, lit, false};
          break;
        case CompareOp::kGe:
          lo = {false, lit, true};
          break;
        case CompareOp::kNe:
          break;  // excluded by IsRangeConjunct
      }
      if (!lo.unbounded) g.iv.lo = TighterLo(g.iv.lo, lo);
      if (!hi.unbounded) g.iv.hi = TighterHi(g.iv.hi, hi);
    }
    for (auto& [col, g] : groups) {
      if (g.mixed) {
        rest.insert(rest.end(), g.originals.begin(), g.originals.end());
        continue;
      }
      if (IntervalEmpty(g.iv)) return BoolLiteral(false);
      bool point = !g.iv.lo.unbounded && !g.iv.hi.unbounded &&
                   g.iv.lo.inclusive && g.iv.hi.inclusive &&
                   DatumCompare(g.iv.lo.value, g.iv.hi.value) == 0;
      if (point) {
        rest.push_back(RangeConjunct(col, CompareOp::kEq, g.iv.lo.value));
        continue;
      }
      if (!g.iv.lo.unbounded) {
        rest.push_back(RangeConjunct(
            col, g.iv.lo.inclusive ? CompareOp::kGe : CompareOp::kGt,
            g.iv.lo.value));
      }
      if (!g.iv.hi.unbounded) {
        rest.push_back(RangeConjunct(
            col, g.iv.hi.inclusive ? CompareOp::kLe : CompareOp::kLt,
            g.iv.hi.value));
      }
    }
    kept = std::move(rest);
  }
  // Deduplicate, then order deterministically by structural fingerprint.
  std::vector<std::pair<std::string, ExprPtr>> keyed;
  for (const ExprPtr& p : kept) {
    std::string fp = p->Fingerprint(nullptr);
    bool dup = false;
    for (const auto& [k, q] : keyed) dup = dup || k == fp;
    if (!dup) keyed.emplace_back(std::move(fp), p);
  }
  std::stable_sort(keyed.begin(), keyed.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  if (keyed.empty()) return BoolLiteral(is_and);
  if (keyed.size() == 1) return keyed[0].second;
  std::vector<ExprPtr> ordered;
  for (auto& [k, p] : keyed) ordered.push_back(std::move(p));
  ExprPtr rebuilt = BuildLogicalChain(op, ordered);
  // Pointer stability: an already-canonical chain (same operands, same
  // order, left-deep) rebuilds to an identical fingerprint — return the
  // original so callers can detect "unchanged" by pointer.
  if (rebuilt->Fingerprint(nullptr) == e->Fingerprint(nullptr)) return e;
  return rebuilt;
}

// ---------------------------------------------------------------------------
// Plan helpers
// ---------------------------------------------------------------------------

/// Output column names of a canonical subtree, when they are statically
/// derivable without a catalog (function scans and joins return nullopt).
std::optional<std::vector<std::string>> OutputNames(const PlanNode& n) {
  switch (n.type()) {
    case OpType::kScan:
    case OpType::kCachedScan:
      return n.scan_columns();
    case OpType::kProject: {
      std::vector<std::string> names;
      for (const ProjItem& it : n.projections()) names.push_back(it.out_name);
      return names;
    }
    case OpType::kAggregate: {
      std::vector<std::string> names = n.group_by();
      for (const AggItem& a : n.aggregates()) names.push_back(a.out_name);
      return names;
    }
    case OpType::kSelect:
    case OpType::kOrderBy:
    case OpType::kTopN:
    case OpType::kLimit:
      return OutputNames(*n.children()[0]);
    default:
      return std::nullopt;
  }
}

bool AllColumnRefs(const std::vector<ProjItem>& items) {
  for (const ProjItem& it : items) {
    if (it.expr->kind() != ExprKind::kColumnRef) return false;
  }
  return true;
}

/// Builds the canonical form of Select(`base`, `pred`) where `base` is
/// already canonical and `pred` is already canonical. `reuse` (optional)
/// is the original node, returned unchanged when the rewrite is a no-op
/// so callers preserve sharing (and the template hash riding on it).
PlanPtr CanonicalSelect(PlanPtr base, ExprPtr pred, const PlanPtr& reuse) {
  // Merge a chain of Selects into one conjunction.
  std::vector<ExprPtr> preds{pred};
  while (base->type() == OpType::kSelect) {
    preds.push_back(base->predicate());
    base = base->children()[0];
  }
  ExprPtr combined =
      preds.size() == 1 ? pred : CanonicalizeExpr(AndAll(preds));
  if (IsBoolLiteral(combined, true)) return base;

  if (!IsBoolLiteral(combined, false)) {
    // Push below a stable full sort: filtering preserves the relative
    // order of surviving rows, so sort-then-filter and filter-then-sort
    // are bit-identical (the sort tie-breaks by input row index).
    if (base->type() == OpType::kOrderBy) {
      return base->WithChildren(
          {CanonicalSelect(base->children()[0], combined, nullptr)});
    }
    // Push below a projection when every referenced column is a plain
    // pass-through (rename) of an input column.
    if (base->type() == OpType::kProject) {
      NameMap rename;
      bool ok = true;
      std::set<std::string> cols;
      combined->CollectColumns(&cols);
      for (const std::string& c : cols) {
        bool found = false;
        for (const ProjItem& it : base->projections()) {
          if (it.out_name != c) continue;
          found = true;
          if (it.expr->kind() == ExprKind::kColumnRef) {
            rename[c] = it.expr->column_name();
          } else {
            ok = false;
          }
          break;
        }
        ok = ok && found;
      }
      if (ok) {
        ExprPtr pushed = CanonicalizeExpr(combined->Rename(rename));
        return base->WithChildren(
            {CanonicalSelect(base->children()[0], pushed, nullptr)});
      }
    }
  }

  if (reuse != nullptr && reuse->children()[0] == base &&
      reuse->predicate() == combined) {
    return reuse;
  }
  if (reuse != nullptr) {
    return reuse->WithPredicate(combined)->WithChildren({std::move(base)});
  }
  return PlanNode::Select(std::move(base), std::move(combined));
}

PlanPtr CanonicalizeNode(PlanPtr node) {
  switch (node->type()) {
    case OpType::kSelect:
      return CanonicalSelect(node->children()[0],
                             CanonicalizeExpr(node->predicate()), node);
    case OpType::kProject: {
      std::vector<ProjItem> items = node->projections();
      bool changed = false;
      for (ProjItem& it : items) {
        ExprPtr e = CanonicalizeExpr(it.expr);
        changed = changed || e != it.expr;
        it.expr = std::move(e);
      }
      PlanPtr cur = changed ? node->WithProjections(items) : node;
      // Compose rename chains: Project over a columns-only Project
      // collapses into one projection over the grandchild.
      while (cur->children()[0]->type() == OpType::kProject &&
             AllColumnRefs(cur->children()[0]->projections())) {
        const PlanPtr& inner = cur->children()[0];
        NameMap rename;
        for (const ProjItem& it : inner->projections()) {
          rename[it.out_name] = it.expr->column_name();
        }
        std::vector<ProjItem> composed;
        for (const ProjItem& it : cur->projections()) {
          composed.push_back(
              {CanonicalizeExpr(it.expr->Rename(rename)), it.out_name});
        }
        cur = cur->WithProjections(composed)
                  ->WithChildren({inner->children()[0]});
      }
      // Identity projection: same names, same order, plain columns.
      std::optional<std::vector<std::string>> names =
          OutputNames(*cur->children()[0]);
      if (names.has_value() && AllColumnRefs(cur->projections()) &&
          cur->projections().size() == names->size()) {
        bool identity = true;
        for (size_t i = 0; identity && i < names->size(); ++i) {
          const ProjItem& it = cur->projections()[i];
          identity = it.out_name == (*names)[i] &&
                     it.expr->column_name() == (*names)[i];
        }
        if (identity) return cur->children()[0];
      }
      return cur;
    }
    case OpType::kLimit: {
      // Limit(Limit(x, n), m) -> Limit(x, min(n, m)).
      if (node->children()[0]->type() == OpType::kLimit) {
        const PlanPtr& inner = node->children()[0];
        return node->WithLimit(std::min(node->limit(), inner->limit()))
            ->WithChildren({inner->children()[0]});
      }
      return node;
    }
    default:
      return node;
  }
}

}  // namespace

ExprPtr CanonicalizeExpr(const ExprPtr& expr) {
  return CanonicalizeExprImpl(expr);
}

PlanPtr CanonicalizePlan(const PlanPtr& plan) {
  std::vector<PlanPtr> kids;
  bool changed = false;
  for (const PlanPtr& c : plan->children()) {
    kids.push_back(CanonicalizePlan(c));
    changed = changed || kids.back() != c;
  }
  PlanPtr node = changed ? plan->WithChildren(std::move(kids)) : plan;
  return CanonicalizeNode(std::move(node));
}

}  // namespace recycledb
