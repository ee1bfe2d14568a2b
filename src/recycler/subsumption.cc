#include "recycler/subsumption.h"

#include <algorithm>
#include <optional>
#include <set>

#include "common/macros.h"
#include "common/string_util.h"

namespace recycledb {

namespace {

std::set<std::string> ConjunctFps(const ExprPtr& pred, const NameMap* mapping) {
  std::set<std::string> out;
  for (const auto& c : SplitConjuncts(pred)) {
    out.insert(c->Fingerprint(mapping));
  }
  return out;
}

bool SameSortKeys(const std::vector<SortKey>& query_keys,
                  const NameMap& mapping,
                  const std::vector<SortKey>& cand_keys) {
  if (query_keys.size() != cand_keys.size()) return false;
  for (size_t i = 0; i < query_keys.size(); ++i) {
    auto it = mapping.find(query_keys[i].column);
    const std::string& mapped =
        it == mapping.end() ? query_keys[i].column : it->second;
    if (mapped != cand_keys[i].column) return false;
    if (query_keys[i].ascending != cand_keys[i].ascending) return false;
  }
  return true;
}

/// Index of the cand aggregate with function `fn` and argument fingerprint
/// `arg_fp`, or -1.
int FindCandAgg(const PlanNode& cand, AggFunc fn, const std::string& arg_fp) {
  const auto& aggs = cand.aggregates();
  for (size_t j = 0; j < aggs.size(); ++j) {
    if (aggs[j].fn == fn && aggs[j].arg->Fingerprint(nullptr) == arg_fp) {
      return static_cast<int>(j);
    }
  }
  return -1;
}

/// Synthetic CachedScan column names s0..s<k-1> for a k-column result.
std::vector<std::string> SyntheticNames(size_t k) {
  std::vector<std::string> names;
  names.reserve(k);
  for (size_t i = 0; i < k; ++i) {
    names.push_back(StrFormat("s%d", static_cast<int>(i)));
  }
  return names;
}

std::optional<SubsumptionMatch> MatchSelect(const SubsumptionProbe& probe,
                                            const RGNode& cand) {
  // Every cached conjunct must be implied by the query's (conjunct subset):
  // otherwise the cached result dropped rows the query needs.
  for (const std::string& fp : cand.conjunct_fps) {
    if (std::find(probe.conjunct_fps.begin(), probe.conjunct_fps.end(), fp) ==
        probe.conjunct_fps.end()) {
      return std::nullopt;
    }
  }
  std::vector<ExprPtr> residual;
  for (size_t i = 0; i < probe.conjuncts.size(); ++i) {
    if (cand.conjunct_fps.count(probe.conjunct_fps[i]) == 0) {
      residual.push_back(probe.conjuncts[i]);
    }
  }
  SubsumptionMatch out;
  // The select's output schema equals its child's; the cached columns are
  // positionally the child's columns.
  out.scan_names = probe.query_node.output_schema().Names();
  if (!residual.empty()) out.residual = AndAll(residual);
  return out;
}

std::optional<SubsumptionMatch> MatchTopN(const SubsumptionProbe& probe,
                                          const RGNode& cand) {
  const PlanNode& q = probe.query_node;
  const PlanNode& cp = *cand.param_node;
  if (cp.limit() < q.limit()) return std::nullopt;
  if (!SameSortKeys(q.sort_keys(), probe.child_mapping, cp.sort_keys())) {
    return std::nullopt;
  }
  SubsumptionMatch out;
  out.scan_names = q.output_schema().Names();
  // The cached top-M is emitted in sort order, so top-N is its prefix.
  out.limit = q.limit();
  return out;
}

std::optional<SubsumptionMatch> MatchProject(const SubsumptionProbe& probe,
                                             const RGNode& cand) {
  const PlanNode& cp = *cand.param_node;
  SubsumptionMatch out;
  for (const auto& item : probe.query_node.projections()) {
    std::string fp = item.expr->Fingerprint(&probe.child_mapping);
    int pos = -1;
    for (size_t j = 0; j < cp.projections().size(); ++j) {
      if (cp.projections()[j].expr->Fingerprint(nullptr) == fp) {
        pos = static_cast<int>(j);
        break;
      }
    }
    // Column subsumption requires a superset.
    if (pos < 0) return std::nullopt;
    out.projection.push_back(
        {Expr::Column(StrFormat("s%d", pos)), item.out_name});
  }
  out.scan_names = SyntheticNames(cand.output_names.size());
  return out;
}

std::optional<SubsumptionMatch> MatchAggregate(const SubsumptionProbe& probe,
                                               const RGNode& cand) {
  const PlanNode& q = probe.query_node;
  const NameMap& child_mapping = probe.child_mapping;
  const PlanNode& cp = *cand.param_node;
  const int cand_groups = static_cast<int>(cp.group_by().size());

  // Map each query group column to its position in the cached result.
  std::vector<int> group_pos;
  for (const auto& g : q.group_by()) {
    auto it = child_mapping.find(g);
    const std::string& gq = it == child_mapping.end() ? g : it->second;
    int pos = -1;
    for (int j = 0; j < cand_groups; ++j) {
      if (cp.group_by()[j] == gq) {
        pos = j;
        break;
      }
    }
    // Query grouping must be coarser or equal.
    if (pos < 0) return std::nullopt;
    group_pos.push_back(pos);
  }

  SubsumptionMatch out;
  out.scan_names = SyntheticNames(cand.output_names.size());
  if (static_cast<int>(q.group_by().size()) == cand_groups) {
    // Column subsumption: same grouping; every requested aggregate must be
    // present verbatim -> project out the needed columns.
    for (size_t i = 0; i < group_pos.size(); ++i) {
      out.projection.push_back(
          {Expr::Column(StrFormat("s%d", group_pos[i])), q.group_by()[i]});
    }
    for (const auto& a : q.aggregates()) {
      int j = FindCandAgg(cp, a.fn, a.arg->Fingerprint(&child_mapping));
      if (j < 0) return std::nullopt;
      out.projection.push_back(
          {Expr::Column(StrFormat("s%d", cand_groups + j)), a.out_name});
    }
    return out;
  }

  // Tuple subsumption: the cached grouping is strictly finer. Re-aggregate
  // the cached partials with the decomposition rules. The query's group
  // columns are renamed in the scan so the re-aggregation's group outputs
  // carry the final names directly.
  out.reaggregate = true;
  for (size_t i = 0; i < group_pos.size(); ++i) {
    out.scan_names[group_pos[i]] = q.group_by()[i];
    out.projection.push_back({Expr::Column(q.group_by()[i]), q.group_by()[i]});
  }
  int temp_serial = 0;
  // Re-aggregates cached aggregate (fn, arg) with `refn`; returns the
  // temporary's name, or "" when the cached result lacks it.
  auto reagg = [&](AggFunc fn, const std::string& arg_fp,
                   AggFunc refn) -> std::string {
    int j = FindCandAgg(cp, fn, arg_fp);
    if (j < 0) return "";
    std::string tmp = StrFormat("r%d", temp_serial++);
    out.reaggs.push_back(
        {refn, Expr::Column(StrFormat("s%d", cand_groups + j)), tmp});
    return tmp;
  };
  for (const auto& a : q.aggregates()) {
    std::string arg_fp = a.arg->Fingerprint(&child_mapping);
    ExprPtr final_expr;
    switch (a.fn) {
      case AggFunc::kSum:
      case AggFunc::kMin:
      case AggFunc::kMax: {
        std::string t = reagg(a.fn, arg_fp, a.fn);
        if (t.empty()) return std::nullopt;
        final_expr = Expr::Column(t);
        break;
      }
      case AggFunc::kCount: {
        std::string t = reagg(AggFunc::kCount, arg_fp, AggFunc::kSum);
        if (t.empty()) return std::nullopt;
        final_expr = Expr::Column(t);
        break;
      }
      case AggFunc::kAvg: {
        if (FindCandAgg(cp, AggFunc::kCount, arg_fp) < 0) return std::nullopt;
        std::string ts = reagg(AggFunc::kSum, arg_fp, AggFunc::kSum);
        if (ts.empty()) return std::nullopt;
        std::string tc = reagg(AggFunc::kCount, arg_fp, AggFunc::kSum);
        final_expr = Expr::Arith(ArithOp::kDiv,
                                 Expr::Arith(ArithOp::kMul, Expr::Column(ts),
                                             Expr::Literal(1.0)),
                                 Expr::Column(tc));
        break;
      }
    }
    out.projection.push_back({std::move(final_expr), a.out_name});
  }
  return out;
}

}  // namespace

SubsumptionProbe::SubsumptionProbe(const PlanNode& query_node,
                                   const NameMap& child_mapping)
    : query_node(query_node), child_mapping(child_mapping) {
  if (query_node.type() != OpType::kSelect) return;
  conjuncts = SplitConjuncts(query_node.predicate());
  conjunct_fps.reserve(conjuncts.size());
  for (const ExprPtr& c : conjuncts) {
    conjunct_fps.push_back(c->Fingerprint(&child_mapping));
  }
}

std::optional<SubsumptionMatch> MatchSubsumption(const SubsumptionProbe& probe,
                                                 const RGNode& cand) {
  if (cand.param_node == nullptr) return std::nullopt;
  if (cand.type != probe.query_node.type()) return std::nullopt;
  switch (cand.type) {
    case OpType::kSelect:
      return MatchSelect(probe, cand);
    case OpType::kTopN:
      return MatchTopN(probe, cand);
    case OpType::kProject:
      return MatchProject(probe, cand);
    case OpType::kAggregate:
      return MatchAggregate(probe, cand);
    default:
      return std::nullopt;
  }
}

SubsumptionPlan BuildSubsumption(const PlanNode& query_node,
                                 const SubsumptionMatch& match,
                                 TablePtr cached) {
  SubsumptionPlan out;
  out.cached_scan = PlanNode::CachedScan(std::move(cached), match.scan_names);
  out.plan = out.cached_scan;
  if (match.residual != nullptr) {
    out.plan = PlanNode::Select(out.plan, match.residual);
  }
  if (match.limit >= 0) out.plan = PlanNode::Limit(out.plan, match.limit);
  if (match.reaggregate) {
    out.plan =
        PlanNode::Aggregate(out.plan, query_node.group_by(), match.reaggs);
  }
  if (!match.projection.empty()) {
    out.plan = PlanNode::Project(out.plan, match.projection);
  }
  return out;
}

namespace {

/// `column <op> literal` for one end of an interval.
ExprPtr BoundExpr(const std::string& column, const RangeBound& b,
                  bool is_lower) {
  CompareOp op = is_lower ? (b.inclusive ? CompareOp::kGe : CompareOp::kGt)
                          : (b.inclusive ? CompareOp::kLe : CompareOp::kLt);
  return Expr::Compare(op, Expr::Column(column), Expr::Literal(b.value));
}

bool NumericDatum(const Datum& d) {
  return !std::holds_alternative<std::monostate>(d) &&
         IsNumeric(DatumType(d));
}

}  // namespace

PartialPlan PlanPartialStitch(
    const PlanNode& query_node, const NameMap& child_mapping,
    const RangeSpec& spec,
    const std::vector<IntervalIndex::Entry>& candidates) {
  PartialPlan out;
  const ColumnInterval& q = spec.range;

  // A candidate is usable when its remaining conjuncts are a subset of
  // the query's (the cached slice then only lacks the residual filters,
  // applied as compensation below) and its interval overlaps the query's.
  std::vector<const IntervalIndex::Entry*> eligible;
  for (const IntervalIndex::Entry& c : candidates) {
    if (!std::includes(spec.other_fps.begin(), spec.other_fps.end(),
                       c.other_fps.begin(), c.other_fps.end())) {
      continue;
    }
    if (!Overlaps(c.range, q)) continue;
    eligible.push_back(&c);
  }
  if (eligible.empty()) return out;
  // Fully deterministic candidate order — ascending by lo, equal-lo ties
  // broken by the wider hi (it absorbs the sweep; a narrower twin clips
  // to empty and drops out), then by graph insertion id. Without the tie
  // breaks the order inherits the interval-index bucket order, which
  // depends on admission/eviction history, and the stitched plan shape
  // (hence Explain text and goldens) would differ across engines that
  // executed the same workload.
  std::sort(eligible.begin(), eligible.end(),
            [](const IntervalIndex::Entry* a, const IntervalIndex::Entry* b) {
              if (LoTighter(b->range.lo, a->range.lo)) return true;
              if (LoTighter(a->range.lo, b->range.lo)) return false;
              if (HiTighter(b->range.hi, a->range.hi)) return true;
              if (HiTighter(a->range.hi, b->range.hi)) return false;
              return a->node->id < b->node->id;
            });

  // Proportional credit needs a measurable query interval; otherwise the
  // pieces split the credit evenly (fixed up once the count is known).
  const bool measurable = !q.lo.unbounded && !q.hi.unbounded &&
                          NumericDatum(q.lo.value) && NumericDatum(q.hi.value);
  const double qlen =
      measurable ? DatumAsDouble(q.hi.value) - DatumAsDouble(q.lo.value) : 0;
  auto fraction_of = [&](const ColumnInterval& clip) -> double {
    if (!measurable || qlen <= 0) return -1;
    double len =
        DatumAsDouble(clip.hi.value) - DatumAsDouble(clip.lo.value);
    return std::max(0.0, std::min(1.0, len / qlen));
  };

  // Uncovered gaps are collected and merged into ONE delta scan below,
  // so the child subtree executes at most once per stitched plan.
  std::vector<ColumnInterval> gaps;

  // Gap filter: besides plainly empty intervals, drop zero-width gaps on
  // integer columns — e.g. slices [.,100] and [101,.) stitched for a query
  // spanning both leave the "gap" (100, 101), which no integer can ever
  // satisfy. Without this the stitch builds (and executes) a delta branch
  // guaranteed to return nothing. Only genuinely integer domains qualify:
  // a double column with integer literal bounds has values between them.
  const int range_col = query_node.output_schema().IndexOf(spec.column);
  const TypeId range_type = range_col >= 0
                                ? query_node.output_schema().field(range_col).type
                                : TypeId::kDouble;
  const bool integer_domain = range_type == TypeId::kInt32 ||
                              range_type == TypeId::kInt64 ||
                              range_type == TypeId::kDate;
  auto gap_empty = [&](const ColumnInterval& gap) {
    if (IntervalEmpty(gap)) return true;
    return integer_domain && IntervalEmptyOnIntegerDomain(gap);
  };

  // Sweep the query interval left to right, assigning each position to
  // the first cached slice that covers it. Adjacent pieces meet with
  // complementary open/closed boundaries (ComplementLo/Hi), so boundary
  // values land in exactly one branch of the union.
  RangeBound cursor = q.lo;
  bool exhausted = false;
  for (const IntervalIndex::Entry* c : eligible) {
    ColumnInterval rem{cursor, q.hi};
    if (IntervalEmpty(rem)) {
      exhausted = true;
      break;
    }
    ColumnInterval clip = Intersect(c->range, rem);
    if (IntervalEmpty(clip)) continue;  // already covered by earlier slices
    if (LoTighter(clip.lo, cursor)) {
      ColumnInterval gap{cursor, ComplementHi(clip.lo)};
      if (!gap_empty(gap)) gaps.push_back(gap);
    }
    // Compensation: residual conjuncts the slice did not apply, plus the
    // clip bounds that are tighter than the slice's own (a clip bound
    // equal to the slice bound is already enforced by the cached data).
    std::vector<ExprPtr> comp;
    for (const ExprPtr& o : spec.others) {
      if (c->other_fps.count(o->Fingerprint(&child_mapping)) == 0) {
        comp.push_back(o);
      }
    }
    if (LoTighter(clip.lo, c->range.lo)) {
      comp.push_back(BoundExpr(spec.column, clip.lo, /*is_lower=*/true));
    }
    if (HiTighter(clip.hi, c->range.hi)) {
      comp.push_back(BoundExpr(spec.column, clip.hi, /*is_lower=*/false));
    }
    out.reuse_pieces.push_back(
        {c->node, comp.empty() ? nullptr : AndAll(comp), fraction_of(clip),
         /*cached_scan=*/nullptr});
    if (clip.hi.unbounded) {  // covered through +inf (q.hi is unbounded)
      exhausted = true;
      break;
    }
    cursor = ComplementLo(clip.hi);
  }
  if (!exhausted) {
    ColumnInterval rem{cursor, q.hi};
    if (!gap_empty(rem)) gaps.push_back(rem);
  }
  if (out.reuse_pieces.empty()) return {};

  if (!gaps.empty()) {
    // One compensated delta scan for every gap: the query's non-range
    // conjuncts AND the disjunction of the gap ranges. Every gap has at
    // least one bound (it is contained in the query interval, which has
    // one), so each disjunct is non-trivial.
    std::vector<ExprPtr> gap_preds;
    for (const ColumnInterval& gap : gaps) {
      std::vector<ExprPtr> conj;
      if (!gap.lo.unbounded) {
        conj.push_back(BoundExpr(spec.column, gap.lo, /*is_lower=*/true));
      }
      if (!gap.hi.unbounded) {
        conj.push_back(BoundExpr(spec.column, gap.hi, /*is_lower=*/false));
      }
      ExprPtr gap_pred = AndAll(conj);
      if (gap_pred != nullptr) gap_preds.push_back(std::move(gap_pred));
    }
    if (gap_preds.empty()) return {};  // cannot express the remainder
    ExprPtr ranges = gap_preds[0];
    for (size_t i = 1; i < gap_preds.size(); ++i) {
      ranges = Expr::Or(ranges, gap_preds[i]);
    }
    std::vector<ExprPtr> conj = spec.others;
    conj.push_back(ranges);
    out.delta_predicate = AndAll(conj);
  }

  // Unmeasurable interval: split the credit evenly across all branches.
  const size_t num_branches =
      out.reuse_pieces.size() + (out.delta_predicate != nullptr ? 1 : 0);
  for (PartialPiece& p : out.reuse_pieces) {
    if (p.fraction < 0) p.fraction = 1.0 / num_branches;
    out.covered_fraction += p.fraction;
  }
  out.covered_fraction = std::min(1.0, out.covered_fraction);
  return out;
}

void BuildPartialStitch(const PlanNode& query_node, const PlanPtr& child_plan,
                        const std::vector<TablePtr>& slices,
                        PartialPlan* stitch) {
  RDB_CHECK(slices.size() == stitch->reuse_pieces.size());
  const std::vector<std::string> child_names =
      query_node.output_schema().Names();
  std::vector<PlanPtr> branches;
  for (size_t i = 0; i < slices.size(); ++i) {
    PartialPiece& p = stitch->reuse_pieces[i];
    p.cached_scan = PlanNode::CachedScan(slices[i], child_names);
    branches.push_back(p.compensation == nullptr
                           ? p.cached_scan
                           : PlanNode::Select(p.cached_scan, p.compensation));
  }
  if (stitch->delta_predicate != nullptr) {
    branches.push_back(PlanNode::Select(child_plan, stitch->delta_predicate));
  }
  stitch->plan = branches.size() == 1 ? branches[0]
                                      : PlanNode::UnionAll(std::move(branches));
}

bool ParamsSubsume(const PlanNode& super, const PlanNode& sub) {
  if (super.type() != sub.type()) return false;
  switch (super.type()) {
    case OpType::kSelect: {
      // super's conjuncts must be a subset of sub's.
      auto super_fps = ConjunctFps(super.predicate(), nullptr);
      auto sub_fps = ConjunctFps(sub.predicate(), nullptr);
      for (const auto& fp : super_fps) {
        if (sub_fps.count(fp) == 0) return false;
      }
      return true;
    }
    case OpType::kTopN:
      return super.limit() >= sub.limit() &&
             SameSortKeys(sub.sort_keys(), {}, super.sort_keys());
    case OpType::kProject: {
      for (const auto& item : sub.projections()) {
        bool found = false;
        for (const auto& sitem : super.projections()) {
          if (sitem.expr->Fingerprint(nullptr) ==
              item.expr->Fingerprint(nullptr)) {
            found = true;
            break;
          }
        }
        if (!found) return false;
      }
      return true;
    }
    case OpType::kAggregate: {
      // super groups must be a superset of sub groups.
      std::set<std::string> super_groups(super.group_by().begin(),
                                         super.group_by().end());
      for (const auto& g : sub.group_by()) {
        if (super_groups.count(g) == 0) return false;
      }
      for (const auto& a : sub.aggregates()) {
        std::string arg_fp = a.arg->Fingerprint(nullptr);
        if (a.fn == AggFunc::kAvg) {
          if (FindCandAgg(super, AggFunc::kSum, arg_fp) < 0 ||
              FindCandAgg(super, AggFunc::kCount, arg_fp) < 0) {
            return false;
          }
        } else if (FindCandAgg(super, a.fn, arg_fp) < 0) {
          return false;
        }
      }
      return true;
    }
    default:
      return false;
  }
}

}  // namespace recycledb
