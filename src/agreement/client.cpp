#include "agreement/client.h"

#include "common/check.h"

namespace unidir::agreement {

SmrClient::SmrClient(Options options)
    : options_(std::move(options)), reply_router_(*this, kClientReplyCh) {
  UNIDIR_REQUIRE(!options_.replicas.empty());
  UNIDIR_REQUIRE(options_.f + 1 <= options_.replicas.size());
  UNIDIR_REQUIRE(options_.max_outstanding >= 1);
  reply_router_.on<Reply>([this](ProcessId from, Reply reply) {
    on_reply(from, std::move(reply));
  });
}

void SmrClient::on_start() {
  started_ = true;
  issue_ready();
}

void SmrClient::submit(Bytes op, DoneFn done) {
  queue_.push_back({std::move(op), std::move(done)});
  if (started_) issue_ready();
}

void SmrClient::issue_ready() {
  while (!queue_.empty() && in_flight_.size() < options_.max_outstanding) {
    QueuedOp next = std::move(queue_.front());
    queue_.pop_front();
    InFlight req;
    req.cmd.client = id();
    req.cmd.request_id = ++next_request_id_;
    req.cmd.op = std::move(next.op);
    // Everything below the lowest request still in flight is resolved
    // (answered or given up): replicas may drop those replies for good.
    req.cmd.acked = in_flight_.empty() ? req.cmd.request_id
                                       : in_flight_.begin()->first;
    req.done = std::move(next.done);
    req.issued_at = world().now();
    req.attempts = 1;
    const std::uint64_t rid = req.cmd.request_id;
    send_request(req.cmd);
    in_flight_.emplace(rid, std::move(req));
    arm_resend(rid);
  }
}

void SmrClient::issue_after_think() {
  if (options_.think_ticks == 0) {
    issue_ready();
    return;
  }
  // A timer per completion is fine: issue_ready() re-checks queue depth
  // and pipeline capacity, so a stale wake-up is a no-op.
  set_timer(options_.think_ticks, [this] { issue_ready(); });
}

void SmrClient::send_request(const Command& cmd) {
  wire::multicast(world(), id(), options_.replicas, kClientRequestCh, cmd);
}

void SmrClient::arm_resend(std::uint64_t request_id) {
  if (options_.resend_timeout == 0) return;
  InFlight& req = in_flight_.at(request_id);
  if (options_.max_attempts != 0 && req.attempts >= options_.max_attempts) {
    // Out of attempts: surface the abandonment instead of waiting forever
    // on a quorum that may never come back.
    // The done callback is only for results; abandonment is visible via
    // gave_up() and the "smr-gave-up" output record.
    in_flight_.erase(request_id);
    ++gave_up_;
    world().metrics().add("client.gave_up");
    world().tracer().instant("request-gave-up", "client", id(), world().now(),
                             "request_id", request_id);
    output("smr-gave-up", serde::encode(request_id));
    issue_after_think();
    return;
  }
  // Exponential backoff (capped shifts keep the arithmetic sane): replicas
  // that are merely slow get room, dead ones stop eating bandwidth.
  const std::size_t shift = std::min<std::size_t>(req.attempts - 1, 10);
  const Time jitter = options_.resend_jitter == 0
                          ? 0
                          : rng().below(options_.resend_jitter + 1);
  // on_reply cancels the pending timer, so live timers track the requests
  // in flight rather than every request of the last timeout.
  req.resend_timer = set_timer(
      (options_.resend_timeout << shift) + jitter, [this, request_id] {
        auto it = in_flight_.find(request_id);
        if (it == in_flight_.end()) return;  // already resolved
        ++it->second.attempts;
        send_request(it->second.cmd);
        arm_resend(request_id);
      });
}

void SmrClient::on_reply(ProcessId from, Reply reply) {
  auto it = in_flight_.find(reply.request_id);
  if (it == in_flight_.end()) return;
  InFlight& req = it->second;
  std::set<ProcessId>& voters = req.votes[reply.result];
  voters.insert(from);
  if (voters.size() < options_.f + 1) return;

  // f+1 matching replies: at least one from a correct replica.
  ++completed_;
  const Time latency = world().now() - req.issued_at;
  latency_sum_ += latency;
  world().metrics().histogram("client.latency_ticks").record(latency);
  world().tracer().complete("request", "client", id(), req.issued_at, latency,
                            "request_id", reply.request_id, "attempts",
                            req.attempts);
  output("smr-complete", serde::encode(reply.request_id));
  DoneFn done = std::move(req.done);
  const Bytes result = reply.result;
  cancel_timer(req.resend_timer);
  in_flight_.erase(it);
  issue_after_think();
  if (done) done(result);
}

}  // namespace unidir::agreement
