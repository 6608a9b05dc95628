// The round abstraction the paper's classification is built on.
//
// A round driver lets its process repeatedly execute *rounds*: send one
// message, then learn (asynchronously) which round-r messages from other
// processes arrived before the round ended. Rounds are per-process — an
// asynchronous process may be many rounds ahead of a slow peer. The
// *directionality* of a system is a property of what its round drivers can
// guarantee for pairs of correct processes in the same round number r:
//
//   zero-directional: possibly neither of p,q receives the other's round-r
//                     message before its next round (asynchrony).
//   unidirectional:   at least one of p,q receives the other's round-r
//                     message before its next round (shared memory).
//   bidirectional:    both receive each other's round-r messages
//                     (lock-step synchrony).
//
// Every driver records its full round history, which the checkers in
// checkers.h use to verify these properties mechanically over executions.
#pragma once

#include <functional>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/check.h"
#include "common/serde.h"
#include "common/types.h"
#include "wire/message.h"

namespace unidir::rounds {

/// A message received within a round.
struct Received {
  ProcessId from = kNoProcess;
  Bytes message;

  bool operator==(const Received&) const = default;
};

/// What one completed round looked like from the inside.
struct RoundRecord {
  RoundNum round = 0;
  Bytes sent;
  std::vector<Received> received;  // round-`round` messages seen by round end
};

class RoundDriver {
 public:
  /// Invoked when the round completes, with the round number and everything
  /// received in it. The callback may immediately start the next round.
  using Callback = std::function<void(RoundNum, const std::vector<Received>&)>;

  virtual ~RoundDriver() = default;
  RoundDriver() = default;
  RoundDriver(const RoundDriver&) = delete;
  RoundDriver& operator=(const RoundDriver&) = delete;

  /// Starts round `completed_rounds()+1`, sending `message`. A driver runs
  /// one round at a time; starting a round while one is in flight throws.
  virtual void start_round(Bytes message, Callback done) = 0;

  RoundNum completed_rounds() const {
    return static_cast<RoundNum>(history_.size());
  }
  bool round_in_flight() const { return in_flight_; }

  /// Optional: invoked when round traffic arrives while NO round is in
  /// flight. Message-passing drivers support this so a client that went
  /// idle can resume rounding when peers are still active. Shared-memory
  /// drivers never fire it — registers cannot push; a shared-memory
  /// client relies on the board's persistence instead.
  void set_activity_listener(std::function<void()> fn) {
    activity_listener_ = std::move(fn);
  }

  /// Completed rounds, oldest first. history()[r-1] is round r.
  const std::vector<RoundRecord>& history() const { return history_; }

  /// All messages newly observed since the last call, regardless of the
  /// round number they were tagged with (never includes self).
  ///
  /// Round-scoped reception (`history()[r].received`) is what the
  /// *directionality properties* are defined over; but algorithms built on
  /// rounds (e.g. SRB from unidirectional rounds) receive "upon receiving"
  /// — in the register model, a read returns everything ever written, not
  /// just same-round entries. take_fresh() is that firehose.
  std::vector<Received> take_fresh() { return std::exchange(fresh_, {}); }

 protected:
  /// Subclass bookkeeping for start_round: validates single-flight and
  /// returns the new round number.
  RoundNum begin(const Bytes& message);
  /// Subclass bookkeeping for completion: records history and fires `done`.
  void finish(std::vector<Received> received, const Callback& done);

  /// Subclasses call this when traffic arrives outside an active round.
  void notify_activity() {
    if (!in_flight_ && activity_listener_) activity_listener_();
  }

  /// Subclasses feed every newly observed message here (any round tag).
  void add_fresh(ProcessId from, Bytes message) {
    fresh_.push_back({from, std::move(message)});
  }

 private:
  std::vector<Received> fresh_;
  std::function<void()> activity_listener_;
  bool in_flight_ = false;
  Bytes current_sent_;
  std::vector<RoundRecord> history_;
};

/// Wire format shared by the message-passing round drivers.
struct RoundMsg {
  static constexpr wire::MsgDesc kDesc{1, "round-msg"};

  RoundNum round = 0;
  Bytes message;

  static auto fields(auto& m) { return std::tie(m.round, m.message); }
};

}  // namespace unidir::rounds
