#include "decorators.h"

namespace perfbench {

using unidir::Channel;
using unidir::Payload;
using unidir::ProcessId;
using unidir::Time;
using unidir::runtime::TimerId;

TracedRuntime::TracedRuntime(std::unique_ptr<unidir::runtime::Runtime> inner,
                             SpanRecorder* rec)
    : inner_(std::move(inner)), rec_(rec), clock_(*this), transport_(*this) {}

std::function<void()> TracedRuntime::traced_timer(std::uint64_t key,
                                                  std::function<void()> fn) {
  if (rec_ == nullptr) return fn;
  return [rec = rec_, key, fn = std::move(fn)] {
    SpanRecorder::Scope s(rec, "agreement.timer", key);
    fn();
  };
}

TimerId TracedRuntime::arm_for(ProcessId owner, Time delay,
                               std::function<void()> fn) {
  return inner_->arm_for(owner, delay, traced_timer(owner, std::move(fn)));
}

TimerId TracedRuntime::TracedClock::arm(Time delay, std::function<void()> fn) {
  return rt_.inner_->clock().arm(
      delay, rt_.traced_timer(unidir::kNoProcess, std::move(fn)));
}

void TracedRuntime::TracedTransport::send(ProcessId from, ProcessId to,
                                          Channel channel, Payload payload) {
  SpanRecorder::Scope s(rt_.rec_, "runtime.send", from);
  rt_.inner_->transport().send(from, to, channel, std::move(payload));
}

void TracedRuntime::TracedTransport::set_deliver(DeliverFn fn) {
  if (rt_.rec_ == nullptr) {
    rt_.inner_->transport().set_deliver(std::move(fn));
    return;
  }
  rt_.inner_->transport().set_deliver(
      [rec = rt_.rec_, fn = std::move(fn)](ProcessId from, ProcessId to,
                                           Channel channel,
                                           const Payload& payload) {
        SpanRecorder::Scope s(rec, "agreement.deliver", to);
        fn(from, to, channel, payload);
      });
}

unidir::trusted::UniqueIdentifier TracedUsigDirectory::create_ui(
    ProcessId p, const unidir::Bytes& message) {
  SpanRecorder::Scope s(rec_, "trusted.create_ui", p);
  return inner_.create_ui(p, message);
}

bool TracedUsigDirectory::verify(ProcessId p,
                                 const unidir::trusted::UniqueIdentifier& ui,
                                 const unidir::Bytes& message) const {
  SpanRecorder::Scope s(rec_, "trusted.verify", p);
  verifications_.fetch_add(1, std::memory_order_relaxed);
  return inner_.verify(p, ui, message);
}

void TracedUsigDirectory::verify_batch(unidir::agreement::UsigVerifyJob* jobs,
                                       std::size_t n) const {
  SpanRecorder::Scope s(rec_, "trusted.verify_batch", n);
  verifications_.fetch_add(n, std::memory_order_relaxed);
  inner_.verify_batch(jobs, n);
}

}  // namespace perfbench
