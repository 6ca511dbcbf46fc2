#include "shard/worker.hpp"

#include <algorithm>
#include <utility>

#include "lob/flow.hpp"

namespace rtseed::shard {

namespace {

/// Trade fills feed the risk engine from the AGGRESSOR's perspective:
/// the worker's position is the net taker flow it has processed.  A
/// sink with no captured state — safe to re-enter across recovery.
class RiskTape final : public lob::TradeSink {
 public:
  explicit RiskTape(lob::RiskEngine* risk) : risk_(risk) {}
  void on_trade(const lob::Trade& trade) override {
    risk_->on_fill(trade.taker_side, trade.price, trade.qty);
  }

 private:
  lob::RiskEngine* risk_;
};

}  // namespace

ShardWorker::ShardWorker(const WorkerConfig& config) : config_(config) {}

common::Expected<std::unique_ptr<ShardWorker>> ShardWorker::create(
    const WorkerConfig& config) {
  std::unique_ptr<ShardWorker> worker(new ShardWorker(config));
  worker->book_ = std::make_unique<lob::BitmapBook>(config.book);
  worker->risk_ = lob::RiskEngine(config.risk);
  worker->snapshot_buf_bytes_ = worker->book_->max_snapshot_bytes();
  worker->snapshot_buf_ =
      std::make_unique<unsigned char[]>(worker->snapshot_buf_bytes_);
  if (!config.journal_path.empty()) {
    StateJournal::Options options = config.journal;
    if (options.max_book_image_bytes < worker->snapshot_buf_bytes_) {
      options.max_book_image_bytes = worker->snapshot_buf_bytes_;
    }
    auto journal = StateJournal::open(config.journal_path, options);
    if (!journal.has_value()) return journal.status();
    worker->journal_ = std::move(*journal);
    worker->journaled_ = true;
  }
  return worker;
}

common::Expected<StateJournal::RecoverResult> ShardWorker::recover() {
  if (!journaled_) return StateJournal::RecoverResult{};
  auto result = journal_.recover(
      [this](u64 seq, const void* book_image, usize book_bytes,
             const lob::RiskEngine::Snapshot& risk) -> common::Status {
        if (auto st = book_->restore_snapshot(book_image, book_bytes); !st) {
          return st;
        }
        risk_.restore(risk);
        applied_seq_ = seq;
        return common::Status::ok();
      },
      [this](const ShardMessage& msg) {
        apply_flow(msg);
        applied_seq_ = msg.seq;
        ++deltas_applied_;
      });
  if (result.has_value()) {
    deltas_since_snapshot_ = result->deltas_replayed;
  }
  return result;
}

usize ShardWorker::apply_batch(const ShardMessage* const* msgs,
                               usize count) {
  usize advanced = 0;
  const ShardMessage* fresh[kMaxBatch];
  while (count > 0) {
    const usize chunk = std::min(count, kMaxBatch);
    usize n = 0;
    u64 last_seq = applied_seq_;
    for (usize i = 0; i < chunk; ++i) {
      // Exactly-once: a ring entry journaled before the crash replays
      // from the journal, and its still-queued twin arrives with a stale
      // seq.
      if (msgs[i]->kind != MessageKind::kFlow || msgs[i]->seq <= last_seq) {
        continue;
      }
      fresh[n++] = msgs[i];
      last_seq = msgs[i]->seq;
    }
    if (n > 0) {
      if (journaled_) {
        // Write-ahead: every delta of the batch is durable before the
        // book moves.  A failed append (torn injection) still applies —
        // the worker is about to be killed, and recovery replays up to
        // the last durable frame only.
        (void)journal_.append_deltas(fresh, n);
      }
      for (usize i = 0; i < n; ++i) apply_flow(*fresh[i]);
      applied_seq_ = last_seq;
      deltas_applied_ += n;
      deltas_since_snapshot_ += n;
      // A batch boundary: everything journaled so far is applied, so the
      // snapshot covers every delta ahead of it in the file.
      if (journaled_ && deltas_since_snapshot_ >= config_.snapshot_every) {
        (void)snapshot_now();
      }
    }
    advanced += n;
    msgs += chunk;
    count -= chunk;
  }
  return advanced;
}

common::Status ShardWorker::snapshot_now() {
  if (!journaled_) return common::Status::ok();
  const usize written =
      book_->save_snapshot(snapshot_buf_.get(), snapshot_buf_bytes_);
  if (written == 0) {
    return common::internal_error("worker snapshot buffer too small");
  }
  deltas_since_snapshot_ = 0;
  return journal_.append_snapshot(applied_seq_, snapshot_buf_.get(), written,
                                  risk_.snapshot());
}

void ShardWorker::apply_flow(const ShardMessage& msg) {
  const auto kind = static_cast<lob::FlowKind>(msg.body.flow.flow_kind);
  const auto side = static_cast<lob::Side>(msg.body.flow.side);
  const lob::PriceTicks price = msg.body.flow.price_ticks;
  const lob::Qty qty = msg.body.flow.qty;
  RiskTape tape(&risk_);

  switch (kind) {
    case lob::FlowKind::kAddLimit: {
      const auto verdict = risk_.pre_trade(
          side, price, qty, /*is_market=*/false, book_->open_orders(),
          book_->side_qty(lob::Side::kBid), book_->side_qty(lob::Side::kAsk));
      if (verdict == lob::RiskVerdict::kOk) {
        book_->add_limit(side, price, qty, &tape, /*cookie=*/msg.seq);
      }
      break;
    }
    case lob::FlowKind::kMarket: {
      const auto verdict = risk_.pre_trade(
          side, /*price=*/0, qty, /*is_market=*/true, book_->open_orders(),
          book_->side_qty(lob::Side::kBid), book_->side_qty(lob::Side::kAsk));
      if (verdict == lob::RiskVerdict::kOk) {
        book_->add_market(side, qty, &tape);
      }
      break;
    }
    case lob::FlowKind::kCancel: {
      // Victim = FIFO front of the side's best level: purely a function
      // of book content, so replay picks the same order.
      const lob::OrderId victim = book_->front_order(side);
      if (victim.valid()) book_->cancel(victim);
      break;
    }
    case lob::FlowKind::kReplace: {
      const lob::OrderId victim = book_->front_order(side);
      if (victim.valid()) {
        lob::SubmitResult readd;
        book_->replace(victim, price, qty, &tape, &readd);
      }
      break;
    }
  }

  // Mark-to-market follows the post-event mid when both sides quote.
  const lob::BookTop top = book_->top();
  if (top.has_bid() && top.has_ask()) {
    risk_.set_mark((top.bid_price + top.ask_price) / 2);
  }
}

void ShardWorker::publish(ShardControl* control, bool with_digest) const {
  control->applied_seq.store(applied_seq_, std::memory_order_release);
  control->deltas_applied.store(deltas_applied_, std::memory_order_relaxed);
  control->position.store(risk_.position(), std::memory_order_relaxed);
  if (with_digest) {
    control->book_digest.store(book_->digest(), std::memory_order_release);
  }
}

}  // namespace rtseed::shard
