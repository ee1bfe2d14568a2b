#include "plan/plan.h"

#include <sstream>

#include "api/validate.h"
#include "common/hash.h"
#include "common/macros.h"
#include "common/string_util.h"
#include "expr/range.h"
#include "plan/table_function.h"

namespace recycledb {

const char* OpTypeName(OpType type) {
  switch (type) {
    case OpType::kScan: return "Scan";
    case OpType::kFunctionScan: return "FunctionScan";
    case OpType::kSelect: return "Select";
    case OpType::kProject: return "Project";
    case OpType::kAggregate: return "Aggregate";
    case OpType::kHashJoin: return "HashJoin";
    case OpType::kOrderBy: return "OrderBy";
    case OpType::kTopN: return "TopN";
    case OpType::kLimit: return "Limit";
    case OpType::kUnionAll: return "UnionAll";
    case OpType::kCachedScan: return "CachedScan";
  }
  return "?";
}

const char* JoinKindName(JoinKind kind) {
  switch (kind) {
    case JoinKind::kInner: return "inner";
    case JoinKind::kLeftOuter: return "leftouter";
    case JoinKind::kSemi: return "semi";
    case JoinKind::kAnti: return "anti";
    case JoinKind::kSingle: return "single";
  }
  return "?";
}

PlanPtr PlanNode::Scan(std::string table, std::vector<std::string> columns) {
  PlanPtr p(new PlanNode());
  p->type_ = OpType::kScan;
  p->table_ = std::move(table);
  p->columns_ = std::move(columns);
  return p;
}

PlanPtr PlanNode::ScanRange(std::string table,
                            std::vector<std::string> columns, int64_t begin,
                            int64_t end) {
  RDB_CHECK_MSG(begin >= 0 && (end < 0 || end >= begin),
                "invalid scan row range");
  PlanPtr p = Scan(std::move(table), std::move(columns));
  p->scan_begin_ = begin;
  p->scan_end_ = end;
  return p;
}

PlanPtr PlanNode::FunctionScan(std::string function, std::vector<Datum> args) {
  PlanPtr p(new PlanNode());
  p->type_ = OpType::kFunctionScan;
  p->table_ = std::move(function);
  p->args_ = std::move(args);
  return p;
}

PlanPtr PlanNode::FunctionScanTemplate(std::string function,
                                       std::vector<ExprPtr> args) {
  bool all_literal = true;
  for (const auto& a : args) {
    RDB_CHECK_MSG(a != nullptr && (a->kind() == ExprKind::kLiteral ||
                                   a->kind() == ExprKind::kParam),
                  "FunctionScanTemplate args must be literals or params");
    all_literal = all_literal && a->kind() == ExprKind::kLiteral;
  }
  if (all_literal) {
    std::vector<Datum> datums;
    datums.reserve(args.size());
    for (const auto& a : args) datums.push_back(a->literal());
    return FunctionScan(std::move(function), std::move(datums));
  }
  PlanPtr p(new PlanNode());
  p->type_ = OpType::kFunctionScan;
  p->table_ = std::move(function);
  p->arg_exprs_ = std::move(args);
  return p;
}

PlanPtr PlanNode::Select(PlanPtr child, ExprPtr predicate) {
  PlanPtr p(new PlanNode());
  p->type_ = OpType::kSelect;
  p->children_ = {std::move(child)};
  p->predicate_ = std::move(predicate);
  return p;
}

PlanPtr PlanNode::Project(PlanPtr child, std::vector<ProjItem> items) {
  PlanPtr p(new PlanNode());
  p->type_ = OpType::kProject;
  p->children_ = {std::move(child)};
  p->projections_ = std::move(items);
  return p;
}

PlanPtr PlanNode::Aggregate(PlanPtr child, std::vector<std::string> group_by,
                            std::vector<AggItem> aggregates) {
  PlanPtr p(new PlanNode());
  p->type_ = OpType::kAggregate;
  p->children_ = {std::move(child)};
  p->group_by_ = std::move(group_by);
  p->aggregates_ = std::move(aggregates);
  return p;
}

PlanPtr PlanNode::HashJoin(PlanPtr left, PlanPtr right, JoinKind kind,
                           std::vector<std::string> left_keys,
                           std::vector<std::string> right_keys) {
  PlanPtr p(new PlanNode());
  p->type_ = OpType::kHashJoin;
  p->children_ = {std::move(left), std::move(right)};
  p->join_kind_ = kind;
  p->left_keys_ = std::move(left_keys);
  p->right_keys_ = std::move(right_keys);
  return p;
}

PlanPtr PlanNode::OrderBy(PlanPtr child, std::vector<SortKey> keys) {
  PlanPtr p(new PlanNode());
  p->type_ = OpType::kOrderBy;
  p->children_ = {std::move(child)};
  p->sort_keys_ = std::move(keys);
  return p;
}

PlanPtr PlanNode::TopN(PlanPtr child, std::vector<SortKey> keys, int64_t n) {
  PlanPtr p(new PlanNode());
  p->type_ = OpType::kTopN;
  p->children_ = {std::move(child)};
  p->sort_keys_ = std::move(keys);
  p->limit_ = n;
  return p;
}

PlanPtr PlanNode::Limit(PlanPtr child, int64_t n) {
  PlanPtr p(new PlanNode());
  p->type_ = OpType::kLimit;
  p->children_ = {std::move(child)};
  p->limit_ = n;
  return p;
}

PlanPtr PlanNode::UnionAll(std::vector<PlanPtr> children) {
  PlanPtr p(new PlanNode());
  p->type_ = OpType::kUnionAll;
  p->children_ = std::move(children);
  return p;
}

PlanPtr PlanNode::CachedScan(TablePtr result,
                             std::vector<std::string> column_names) {
  PlanPtr p(new PlanNode());
  p->type_ = OpType::kCachedScan;
  p->cached_ = std::move(result);
  p->columns_ = std::move(column_names);
  return p;
}

const Schema& PlanNode::output_schema() const {
  RDB_CHECK_MSG(bound_, "plan node not bound");
  return output_schema_;
}

void PlanNode::Bind(const Catalog& catalog) {
  if (bound_) return;
  ChildSlots<const Schema*> kids(children_.size());
  base_tables_.clear();
  for (size_t i = 0; i < children_.size(); ++i) {
    PlanNode& c = *children_[i];
    c.Bind(catalog);
    kids.data()[i] = &c.output_schema_;
    base_tables_.insert(c.base_tables_.begin(), c.base_tables_.end());
  }
  const Status st = CheckPlanNode(*this, kids.data(), catalog, &output_schema_);
  RDB_CHECK_MSG(st.ok(), st.message().c_str());
  if (type_ == OpType::kScan) base_tables_.insert(table_);
  if (type_ == OpType::kFunctionScan) {
    const TableFunction* fn = TableFunctionRegistry::Global().Get(table_);
    base_tables_.insert(fn->base_tables.begin(), fn->base_tables.end());
  }
  bound_ = true;
}

namespace {
std::string MapName(const std::string& name, const NameMap* mapping) {
  if (mapping != nullptr) {
    auto it = mapping->find(name);
    if (it != mapping->end()) return it->second;
  }
  return name;
}
}  // namespace

std::string PlanNode::ParamFingerprint(const NameMap* mapping) const {
  switch (type_) {
    case OpType::kScan: {
      std::string out = "scan:" + table_ + ":[" + Join(columns_, ",") + "]";
      if (has_scan_range()) {
        out += StrFormat(":rows[%lld,%lld)", (long long)scan_begin_,
                         (long long)scan_end_);
      }
      return out;
    }
    case OpType::kFunctionScan: {
      std::string out = "fscan:" + table_ + "(";
      if (!arg_exprs_.empty()) {
        for (size_t i = 0; i < arg_exprs_.size(); ++i) {
          if (i > 0) out += ",";
          out += arg_exprs_[i]->Fingerprint(mapping);
        }
      } else {
        for (size_t i = 0; i < args_.size(); ++i) {
          if (i > 0) out += ",";
          out += DatumToString(args_[i]);
        }
      }
      return out + ")";
    }
    case OpType::kSelect:
      return "select:" + predicate_->Fingerprint(mapping);
    case OpType::kProject: {
      std::string out = "project:[";
      for (size_t i = 0; i < projections_.size(); ++i) {
        if (i > 0) out += ",";
        out += projections_[i].expr->Fingerprint(mapping);
      }
      return out + "]";
    }
    case OpType::kAggregate: {
      std::string out = "agg:[";
      for (size_t i = 0; i < group_by_.size(); ++i) {
        if (i > 0) out += ",";
        out += MapName(group_by_[i], mapping);
      }
      out += "]:[";
      for (size_t i = 0; i < aggregates_.size(); ++i) {
        if (i > 0) out += ",";
        out += aggregates_[i].Fingerprint(mapping);
      }
      return out + "]";
    }
    case OpType::kHashJoin: {
      std::string out = "join:";
      out += JoinKindName(join_kind_);
      out += ":[";
      for (size_t i = 0; i < left_keys_.size(); ++i) {
        if (i > 0) out += ",";
        out += MapName(left_keys_[i], mapping);
      }
      out += "]=[";
      for (size_t i = 0; i < right_keys_.size(); ++i) {
        if (i > 0) out += ",";
        out += MapName(right_keys_[i], mapping);
      }
      return out + "]";
    }
    case OpType::kOrderBy:
    case OpType::kTopN: {
      std::string out = type_ == OpType::kTopN
                            ? StrFormat("topn:%lld:[", (long long)limit_)
                            : "sort:[";
      for (size_t i = 0; i < sort_keys_.size(); ++i) {
        if (i > 0) out += ",";
        out += MapName(sort_keys_[i].column, mapping);
        out += sort_keys_[i].ascending ? "+" : "-";
      }
      return out + "]";
    }
    case OpType::kLimit:
      return StrFormat("limit:%lld", (long long)limit_);
    case OpType::kUnionAll:
      return "union";
    case OpType::kCachedScan:
      return "cachedscan";
  }
  RDB_UNREACHABLE("bad op type");
}

uint64_t PlanNode::HashKey() const {
  uint64_t h = HashMix(static_cast<uint64_t>(type_) + 1);
  switch (type_) {
    case OpType::kScan:
      h = HashCombine(h, HashString(table_));
      if (has_scan_range()) {
        h = HashCombine(h, HashMix(static_cast<uint64_t>(scan_begin_) * 131 +
                                   static_cast<uint64_t>(scan_end_ + 1)));
      }
      break;
    case OpType::kFunctionScan: {
      h = HashCombine(h, HashString(table_));
      for (const auto& a : args_) {
        h = HashCombine(h, HashString(DatumToString(a)));
      }
      break;
    }
    case OpType::kSelect:
      // Shape + literals, column names anonymized (they live in different
      // name spaces on the query vs graph side).
      h = HashCombine(h, HashString(predicate_->Fingerprint(nullptr, true)));
      break;
    case OpType::kProject:
      h = HashCombine(h, HashMix(projections_.size()));
      break;
    case OpType::kAggregate: {
      h = HashCombine(h, HashMix(group_by_.size()));
      for (const auto& a : aggregates_) {
        h = HashCombine(h, HashString(AggFuncName(a.fn)));
      }
      break;
    }
    case OpType::kHashJoin:
      h = HashCombine(h, HashMix(static_cast<uint64_t>(join_kind_) * 31 +
                                 left_keys_.size()));
      break;
    case OpType::kOrderBy:
    case OpType::kTopN:
      h = HashCombine(h, HashMix(sort_keys_.size() * 131 +
                                 static_cast<uint64_t>(limit_)));
      break;
    case OpType::kLimit:
      h = HashCombine(h, HashMix(static_cast<uint64_t>(limit_)));
      break;
    case OpType::kUnionAll:
    case OpType::kCachedScan:
      break;
  }
  return h;
}

std::set<std::string> PlanNode::ParamInputColumns() const {
  std::set<std::string> cols;
  switch (type_) {
    case OpType::kScan:
    case OpType::kCachedScan:
      cols.insert(columns_.begin(), columns_.end());
      break;
    case OpType::kFunctionScan:
      break;
    case OpType::kSelect:
      predicate_->CollectColumns(&cols);
      break;
    case OpType::kProject:
      for (const auto& p : projections_) p.expr->CollectColumns(&cols);
      break;
    case OpType::kAggregate:
      cols.insert(group_by_.begin(), group_by_.end());
      for (const auto& a : aggregates_) a.arg->CollectColumns(&cols);
      break;
    case OpType::kHashJoin:
      cols.insert(left_keys_.begin(), left_keys_.end());
      cols.insert(right_keys_.begin(), right_keys_.end());
      break;
    case OpType::kOrderBy:
    case OpType::kTopN:
      for (const auto& k : sort_keys_) cols.insert(k.column);
      break;
    case OpType::kLimit:
    case OpType::kUnionAll:
      break;
  }
  return cols;
}

uint64_t PlanNode::Signature() const {
  uint64_t sig = 0;
  for (const auto& c : ParamInputColumns()) sig |= ColumnSignatureBit(c);
  return sig;
}

std::vector<std::string> PlanNode::NewNames() const {
  std::vector<std::string> names;
  switch (type_) {
    case OpType::kProject:
      for (const auto& p : projections_) names.push_back(p.out_name);
      break;
    case OpType::kAggregate:
      for (const auto& a : aggregates_) names.push_back(a.out_name);
      break;
    case OpType::kFunctionScan:
      RDB_CHECK_MSG(bound_, "FunctionScan::NewNames requires bound plan");
      for (const auto& f : output_schema_.fields()) names.push_back(f.name);
      break;
    default:
      break;
  }
  return names;
}

bool PlanNode::HasParams() const {
  if (!arg_exprs_.empty()) return true;
  if (predicate_ != nullptr && predicate_->HasParams()) return true;
  for (const auto& item : projections_) {
    if (item.expr->HasParams()) return true;
  }
  for (const auto& a : aggregates_) {
    if (a.arg->HasParams()) return true;
  }
  for (const auto& c : children_) {
    if (c->HasParams()) return true;
  }
  return false;
}

void PlanNode::CollectParams(std::set<std::string>* out) const {
  for (const auto& e : arg_exprs_) e->CollectParams(out);
  if (predicate_ != nullptr) predicate_->CollectParams(out);
  for (const auto& item : projections_) item.expr->CollectParams(out);
  for (const auto& a : aggregates_) a.arg->CollectParams(out);
  for (const auto& c : children_) c->CollectParams(out);
}

PlanPtr PlanNode::SubstituteParams(const ParamMap& params,
                                   std::vector<std::string>* missing) {
  if (!HasParams()) return shared_from_this();
  PlanPtr p = CloneShallow();
  if (p->predicate_ != nullptr) {
    p->predicate_ = p->predicate_->SubstituteParams(params, missing);
  }
  for (auto& item : p->projections_) {
    item.expr = item.expr->SubstituteParams(params, missing);
  }
  for (auto& a : p->aggregates_) {
    a.arg = a.arg->SubstituteParams(params, missing);
  }
  if (!p->arg_exprs_.empty()) {
    std::vector<Datum> datums;
    bool all_literal = true;
    for (auto& e : p->arg_exprs_) {
      e = e->SubstituteParams(params, missing);
      if (e->kind() == ExprKind::kLiteral) {
        datums.push_back(e->literal());
      } else {
        all_literal = false;
      }
    }
    if (all_literal) {
      p->args_ = std::move(datums);
      p->arg_exprs_.clear();
    }
  }
  for (auto& c : p->children_) c = c->SubstituteParams(params, missing);
  return p;
}

std::string PlanNode::TreeFingerprint() const {
  std::string out = ParamFingerprint(nullptr);
  if (!children_.empty()) {
    out += "(";
    for (size_t i = 0; i < children_.size(); ++i) {
      if (i > 0) out += ";";
      out += children_[i]->TreeFingerprint();
    }
    out += ")";
  }
  return out;
}

PlanPtr PlanNode::CloneShallow() const {
  PlanPtr p(new PlanNode(*this));
  p->bound_ = false;
  return p;
}

PlanPtr PlanNode::CloneDeep() const {
  PlanPtr p = CloneShallow();
  for (auto& c : p->children_) c = c->CloneDeep();
  return p;
}

PlanPtr PlanNode::WithChildren(std::vector<PlanPtr> new_children) const {
  PlanPtr p = CloneShallow();
  p->children_ = std::move(new_children);
  return p;
}

PlanPtr PlanNode::WithPredicate(ExprPtr predicate) const {
  RDB_CHECK_MSG(type_ == OpType::kSelect, "WithPredicate on non-select");
  PlanPtr p = CloneShallow();
  p->predicate_ = std::move(predicate);
  return p;
}

PlanPtr PlanNode::WithProjections(std::vector<ProjItem> items) const {
  RDB_CHECK_MSG(type_ == OpType::kProject, "WithProjections on non-project");
  PlanPtr p = CloneShallow();
  p->projections_ = std::move(items);
  return p;
}

PlanPtr PlanNode::WithLimit(int64_t n) const {
  RDB_CHECK_MSG(type_ == OpType::kLimit || type_ == OpType::kTopN,
                "WithLimit on non-limit");
  PlanPtr p = CloneShallow();
  p->limit_ = n;
  return p;
}

PlanPtr PlanNode::CloneParamsRenamed(const NameMap& mapping) const {
  PlanPtr p = CloneShallow();
  p->children_.clear();
  auto map_name = [&mapping](std::string* name) {
    auto it = mapping.find(*name);
    if (it != mapping.end()) *name = it->second;
  };
  if (p->predicate_ != nullptr) p->predicate_ = p->predicate_->Rename(mapping);
  for (auto& item : p->projections_) item.expr = item.expr->Rename(mapping);
  for (auto& g : p->group_by_) map_name(&g);
  for (auto& a : p->aggregates_) a.arg = a.arg->Rename(mapping);
  for (auto& k : p->left_keys_) map_name(&k);
  for (auto& k : p->right_keys_) map_name(&k);
  for (auto& k : p->sort_keys_) map_name(&k.column);
  return p;
}

std::string PlanNode::ToString(int indent) const {
  std::ostringstream os;
  os << std::string(indent * 2, ' ') << OpTypeName(type_) << " "
     << ParamFingerprint(nullptr);
  if (bound_) os << " => " << output_schema_.ToString();
  os << "\n";
  for (const auto& c : children_) os << c->ToString(indent + 1);
  return os.str();
}

namespace {
std::string ExprDisplay(const ExprPtr& e) { return e->DisplayString(); }
}  // namespace

std::string PlanNode::Explain(int indent) const {
  std::string line;
  switch (type_) {
    case OpType::kScan:
      line = StrFormat("Scan %s [%s]", table_.c_str(),
                       Join(columns_, ", ").c_str());
      if (has_scan_range()) {
        // The delta window of a delta-maintenance rewrite: base rows
        // appended after the stitched cached result's as-of mark.
        line += scan_end_ < 0
                    ? StrFormat(" rows=[%lld, end)", (long long)scan_begin_)
                    : StrFormat(" rows=[%lld, %lld)", (long long)scan_begin_,
                                (long long)scan_end_);
      }
      break;
    case OpType::kFunctionScan: {
      line = "FunctionScan " + table_ + "(";
      if (!arg_exprs_.empty()) {
        for (size_t i = 0; i < arg_exprs_.size(); ++i) {
          if (i > 0) line += ", ";
          line += ExprDisplay(arg_exprs_[i]);
        }
      } else {
        for (size_t i = 0; i < args_.size(); ++i) {
          if (i > 0) line += ", ";
          line += DatumToString(args_[i]);
        }
      }
      line += ")";
      break;
    }
    case OpType::kSelect: {
      line = "Filter " + ExprDisplay(predicate_);
      // A Filter directly over a (cached) scan pushes its range conjuncts
      // down as zone-map prune hints at build time; surface the prunable
      // intervals here. Runtime pruned/scanned block counts land in
      // QueryTrace (Explain renders before execution).
      if (!children_.empty() &&
          (children_[0]->type() == OpType::kScan ||
           children_[0]->type() == OpType::kCachedScan)) {
        std::string pruned;
        for (const RangeSpec& spec : ExtractRangeSpecs(predicate_, nullptr)) {
          if (!pruned.empty()) pruned += ", ";
          pruned += spec.column + " in " + IntervalToString(spec.range);
        }
        if (!pruned.empty()) line += " prune[" + pruned + "]";
      }
      break;
    }
    case OpType::kProject: {
      line = "Project ";
      for (size_t i = 0; i < projections_.size(); ++i) {
        if (i > 0) line += ", ";
        line += projections_[i].out_name + " := " +
                ExprDisplay(projections_[i].expr);
      }
      break;
    }
    case OpType::kAggregate: {
      line = StrFormat("Aggregate group=[%s] ", Join(group_by_, ", ").c_str());
      for (size_t i = 0; i < aggregates_.size(); ++i) {
        if (i > 0) line += ", ";
        line += StrFormat("%s(%s) AS %s", AggFuncName(aggregates_[i].fn),
                          ExprDisplay(aggregates_[i].arg).c_str(),
                          aggregates_[i].out_name.c_str());
      }
      break;
    }
    case OpType::kHashJoin:
      line = StrFormat("HashJoin %s [%s] = [%s]", JoinKindName(join_kind_),
                       Join(left_keys_, ", ").c_str(),
                       Join(right_keys_, ", ").c_str());
      break;
    case OpType::kOrderBy:
    case OpType::kTopN: {
      line = type_ == OpType::kTopN
                 ? StrFormat("TopN n=%lld by ", (long long)limit_)
                 : "OrderBy ";
      for (size_t i = 0; i < sort_keys_.size(); ++i) {
        if (i > 0) line += ", ";
        line += sort_keys_[i].column + (sort_keys_[i].ascending ? " asc"
                                                                : " desc");
      }
      break;
    }
    case OpType::kLimit:
      line = StrFormat("Limit %lld", (long long)limit_);
      break;
    case OpType::kUnionAll:
      line = "UnionAll";
      break;
    case OpType::kCachedScan:
      line = StrFormat("CachedScan rows=%lld [%s]",
                       cached_ != nullptr ? (long long)cached_->num_rows() : 0,
                       Join(columns_, ", ").c_str());
      if (as_of_rows_ >= 0) {
        line += StrFormat(" as-of=%lld", (long long)as_of_rows_);
      }
      if (!cache_key_.empty()) line += StrFormat(" key=%s", cache_key_.c_str());
      break;
  }
  std::string out = std::string(indent * 2, ' ') + line + "\n";
  for (const auto& c : children_) out += c->Explain(indent + 1);
  return out;
}

}  // namespace recycledb
