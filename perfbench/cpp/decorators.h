// Forwarding decorators for the traced run.
//
// Each wraps one public interface of the library and opens a span around
// every call it forwards, so the traced run measures each layer from the
// outside without touching library code:
//
//   TracedRuntime       runtime::Runtime/Transport/Clock — Transport::send
//                       ("runtime.send"), the deliver callback
//                       ("agreement.deliver") and timer callbacks
//                       ("agreement.timer"). Handed to World(seed, rt).
//   TracedUsigDirectory agreement::UsigDirectory — create_ui, verify,
//                       verify_batch ("trusted.*").
//   TracedStateMachine  agreement::StateMachine — apply ("agreement.exec")
//                       and snapshot ("agreement.snapshot").
//   TracedDurableStore  the in-memory sim::DurableStore — put
//                       ("agreement.persist"), installed with
//                       World::install_durable.
//
// With a null recorder every decorator is a plain forwarder.
#pragma once

#include <atomic>
#include <memory>

#include "agreement/smr.h"
#include "agreement/usig_directory.h"
#include "runtime/runtime.h"
#include "sim/durable.h"
#include "spans.h"

namespace perfbench {

class TracedRuntime final : public unidir::runtime::Runtime {
 public:
  TracedRuntime(std::unique_ptr<unidir::runtime::Runtime> inner,
                SpanRecorder* rec);

  unidir::runtime::Clock& clock() override { return clock_; }
  unidir::runtime::Transport& transport() override { return transport_; }
  std::size_t run(std::size_t max_events) override {
    return inner_->run(max_events);
  }
  bool run_until(const std::function<bool()>& pred,
                 std::size_t max_events) override {
    return inner_->run_until(pred, max_events);
  }
  unidir::runtime::RuntimeStats stats() const override {
    return inner_->stats();
  }
  std::size_t execution_shards() const override {
    return inner_->execution_shards();
  }
  std::size_t calling_shard() const override {
    return inner_->calling_shard();
  }
  unidir::runtime::TimerId arm_for(unidir::ProcessId owner, unidir::Time delay,
                                   std::function<void()> fn) override;
  unidir::runtime::RuntimeStats shard_stats(std::size_t shard) const override {
    return inner_->shard_stats(shard);
  }
  bool real_time() const override { return inner_->real_time(); }

 private:
  std::function<void()> traced_timer(std::uint64_t key,
                                     std::function<void()> fn);

  class TracedClock final : public unidir::runtime::Clock {
   public:
    explicit TracedClock(TracedRuntime& rt) : rt_(rt) {}
    unidir::Time now() const override { return rt_.inner_->clock().now(); }
    unidir::runtime::TimerId arm(unidir::Time delay,
                                 std::function<void()> fn) override;
    void cancel(unidir::runtime::TimerId id) override {
      rt_.inner_->clock().cancel(id);
    }

   private:
    TracedRuntime& rt_;
  };

  class TracedTransport final : public unidir::runtime::Transport {
   public:
    explicit TracedTransport(TracedRuntime& rt) : rt_(rt) {}
    void send(unidir::ProcessId from, unidir::ProcessId to,
              unidir::Channel channel, unidir::Payload payload) override;
    void set_deliver(DeliverFn fn) override;
    void set_local(std::function<bool(unidir::ProcessId)> is_local) override {
      rt_.inner_->transport().set_local(std::move(is_local));
    }
    std::size_t peer_count() const override {
      return rt_.inner_->transport().peer_count();
    }

   private:
    TracedRuntime& rt_;
  };

  std::unique_ptr<unidir::runtime::Runtime> inner_;
  SpanRecorder* rec_;
  TracedClock clock_;
  TracedTransport transport_;
};

class TracedUsigDirectory final : public unidir::agreement::UsigDirectory {
 public:
  TracedUsigDirectory(unidir::agreement::UsigDirectory& inner,
                      SpanRecorder* rec)
      : inner_(inner), rec_(rec) {}

  unidir::trusted::UniqueIdentifier create_ui(
      unidir::ProcessId p, const unidir::Bytes& message) override;
  bool verify(unidir::ProcessId p, const unidir::trusted::UniqueIdentifier& ui,
              const unidir::Bytes& message) const override;
  void verify_batch(unidir::agreement::UsigVerifyJob* jobs,
                    std::size_t n) const override;
  void restart_device(unidir::ProcessId p, bool durable_state) override {
    inner_.restart_device(p, durable_state);
  }

  /// UI verifications forwarded (a batch of n counts n).
  std::uint64_t verifications() const { return verifications_.load(); }

 private:
  unidir::agreement::UsigDirectory& inner_;
  SpanRecorder* rec_;
  mutable std::atomic<std::uint64_t> verifications_{0};
};

class TracedStateMachine final : public unidir::agreement::StateMachine {
 public:
  TracedStateMachine(std::unique_ptr<unidir::agreement::StateMachine> inner,
                     SpanRecorder* rec)
      : inner_(std::move(inner)), rec_(rec) {}

  unidir::Bytes apply(const unidir::Bytes& op) override {
    SpanRecorder::Scope s(rec_, "agreement.exec");
    return inner_->apply(op);
  }
  unidir::crypto::Digest digest() const override { return inner_->digest(); }
  unidir::Bytes snapshot() const override {
    SpanRecorder::Scope s(rec_, "agreement.snapshot");
    return inner_->snapshot();
  }
  void restore(const unidir::Bytes& snap) override { inner_->restore(snap); }

 private:
  std::unique_ptr<unidir::agreement::StateMachine> inner_;
  SpanRecorder* rec_;
};

class TracedDurableStore final : public unidir::sim::DurableStore {
 public:
  explicit TracedDurableStore(SpanRecorder* rec) : rec_(rec) {}

  void put(std::string key, unidir::Bytes value) override {
    SpanRecorder::Scope s(rec_, "agreement.persist");
    bytes_.fetch_add(value.size(), std::memory_order_relaxed);
    puts_.fetch_add(1, std::memory_order_relaxed);
    DurableStore::put(std::move(key), std::move(value));
  }

  std::uint64_t puts() const { return puts_.load(); }
  std::uint64_t bytes() const { return bytes_.load(); }

 private:
  SpanRecorder* rec_;
  std::atomic<std::uint64_t> puts_{0};
  std::atomic<std::uint64_t> bytes_{0};
};

}  // namespace perfbench
