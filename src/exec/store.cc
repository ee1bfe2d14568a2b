#include "exec/store.h"

#include "common/macros.h"

namespace recycledb {

namespace {
/// Smallest slack a finished result is trimmed for (see FinishIfNeeded).
constexpr int64_t kMinTrimSlackBytes = int64_t{32} << 10;

int64_t BatchBytes(const Batch& b) {
  int64_t total = 0;
  for (const auto& c : b.columns) total += c->ByteSize();
  return total;
}
}  // namespace

StoreOp::StoreOp(OperatorPtr child, StoreRequest request)
    : Operator(child->output_schema()),
      child_(std::move(child)),
      request_(std::move(request)) {
  RDB_CHECK(request_.on_complete != nullptr);
}

void StoreOp::Open() {
  child_->Open();
  if (request_.mode == StoreMode::kMaterialize) {
    state_ = State::kAccepted;
    materializing_ = true;
    result_ = MakeTable(output_schema_);
  } else {
    RDB_CHECK(request_.keep_going != nullptr);
    state_ = State::kUndecided;
    result_ = MakeTable(output_schema_);
  }
}

bool StoreOp::PullChild(Batch* out) {
  Stopwatch sw;
  bool more = child_->NextTimed(out);
  child_ms_ += sw.ElapsedMs();
  return more;
}

SpeculationEstimate StoreOp::CurrentEstimate() const {
  SpeculationEstimate est;
  est.progress = child_->Progress();
  est.buffered_bytes = buffered_bytes_;
  est.buffered_rows = result_->num_rows();
  double p = est.progress;
  if (p < 1e-3) p = 1e-3;  // avoid wild extrapolation at the very start
  est.est_cost_ms = child_ms_ / p;
  est.est_size_bytes = static_cast<double>(buffered_bytes_) / p;
  return est;
}

void StoreOp::Close() {
  if (!finished_) {
    // The parent stopped pulling (e.g. a satisfied Limit). The input may
    // nevertheless be exhausted — a pipeline that delivered everything in
    // its final batch never got the chance to report end-of-input. Probe
    // once: if the input is done, the collected result is complete and
    // can still be offered to the cache (the SkyServer LIMIT queries
    // depend on this to materialize the cone-search result).
    Batch extra;
    if (!PullChild(&extra)) {
      if (state_ == State::kUndecided) {
        SpeculationEstimate est = CurrentEstimate();
        est.progress = 1.0;
        est.est_cost_ms = child_ms_;
        est.est_size_bytes = static_cast<double>(buffered_bytes_);
        state_ = request_.keep_going(request_.token, est) ? State::kAccepted
                                                          : State::kRejected;
        materializing_ = state_ == State::kAccepted;
        if (!materializing_) result_ = nullptr;
      }
      FinishIfNeeded();
    } else {
      // Genuinely truncated: the partial result must not be cached.
      finished_ = true;
      materializing_ = false;
      result_.reset();
      request_.on_complete(request_.token, nullptr, child_ms_);
    }
  }
  child_->Close();
}

void StoreOp::FinishIfNeeded() {
  if (finished_) return;
  finished_ = true;
  if (materializing_) {
    // Admitted entries keep no large vector-growth slack: the cache
    // charges ByteSize(), and the slack would be resident for the
    // entry's life. Below kMinTrimSlackBytes the copy is not worth it:
    // it frees little and leaves a hole in the thread's heap.
    if (result_->SlackBytes() >= kMinTrimSlackBytes) result_->ShrinkToFit();
    request_.on_complete(request_.token, result_, child_ms_);
  } else {
    request_.on_complete(request_.token, nullptr, child_ms_);
  }
  result_.reset();
}

bool StoreOp::Next(Batch* out) {
  // Speculative phase: withhold input while undecided.
  while (state_ == State::kUndecided) {
    Batch in;
    if (!PullChild(&in)) {
      // Input exhausted while buffering: we now know exact cost and size.
      SpeculationEstimate est = CurrentEstimate();
      est.progress = 1.0;
      est.est_cost_ms = child_ms_;
      est.est_size_bytes = static_cast<double>(buffered_bytes_);
      state_ = request_.keep_going(request_.token, est) ? State::kAccepted
                                                        : State::kRejected;
      materializing_ = state_ == State::kAccepted;
      if (!materializing_) result_ = nullptr;
      FinishIfNeeded();
      break;
    }
    buffered_bytes_ += BatchBytes(in);
    result_->AppendBatch(in);
    buffered_.push_back(std::move(in));
    if (buffered_bytes_ > request_.buffer_cap_bytes) {
      state_ = State::kRejected;  // too large to be worth caching
      result_ = nullptr;
    } else {
      SpeculationEstimate est = CurrentEstimate();
      if (!request_.keep_going(request_.token, est)) {
        state_ = State::kRejected;
        result_ = nullptr;
      } else if (est.progress >= 1.0 - 1e-9) {
        state_ = State::kAccepted;
        materializing_ = true;
      }
      // Otherwise stay undecided and keep buffering.
    }
  }

  // Drain the withheld buffer first.
  if (!buffered_.empty()) {
    *out = std::move(buffered_.front());
    buffered_.pop_front();
    return true;
  }

  // Streaming phase.
  Batch in;
  if (!PullChild(&in)) {
    FinishIfNeeded();
    return false;
  }
  if (materializing_ && !finished_) result_->AppendBatch(in);
  *out = std::move(in);
  return true;
}

}  // namespace recycledb
