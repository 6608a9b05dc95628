#include "agreement/smr.h"

#include <sstream>

#include "common/check.h"

namespace unidir::agreement {

void Command::encode(serde::Writer& w) const {
  w.uvarint(client);
  w.uvarint(request_id);
  w.bytes(op);
  w.uvarint(acked);
}

Command Command::decode(serde::Reader& r) {
  Command c;
  c.client = serde::read<ProcessId>(r);
  c.request_id = r.uvarint();
  c.op = r.bytes();
  c.acked = r.uvarint();
  return c;
}

void Reply::encode(serde::Writer& w) const {
  w.uvarint(request_id);
  w.bytes(result);
}

Reply Reply::decode(serde::Reader& r) {
  Reply rep;
  rep.request_id = r.uvarint();
  rep.result = r.bytes();
  return rep;
}

void ExecutionRecord::encode(serde::Writer& w) const {
  command.encode(w);
  w.bytes(result);
}

ExecutionRecord ExecutionRecord::decode(serde::Reader& r) {
  ExecutionRecord rec;
  rec.command = Command::decode(r);
  rec.result = r.bytes();
  return rec;
}

namespace {

crypto::Digest chain_step(const crypto::Digest& prev,
                          const ExecutionRecord& rec) {
  serde::ScratchWriter w;
  w->bytes(prev);
  rec.encode(*w);
  return crypto::Sha256::hash(w->buffer());
}

}  // namespace

void ExecutionLog::append(ExecutionRecord rec) {
  const crypto::Digest& prev = chain_.empty() ? base_digest_ : chain_.back();
  chain_.push_back(chain_step(prev, rec));
  records_.push_back(std::move(rec));
}

const ExecutionRecord& ExecutionLog::at(std::uint64_t index) const {
  UNIDIR_REQUIRE_MSG(index >= base_ && index < size(),
                     "ExecutionLog::at outside retained range");
  return records_[index - base_];
}

crypto::Digest ExecutionLog::digest_through(std::uint64_t count) const {
  UNIDIR_REQUIRE_MSG(count >= base_ && count <= size(),
                     "ExecutionLog::digest_through outside retained range");
  if (count == base_) return base_digest_;
  return chain_[count - base_ - 1];
}

void ExecutionLog::prune_to(std::uint64_t count) {
  if (count <= base_) return;
  if (count > size()) count = size();
  const std::uint64_t drop = count - base_;
  base_digest_ = chain_[drop - 1];
  records_.erase(records_.begin(),
                 records_.begin() + static_cast<std::ptrdiff_t>(drop));
  chain_.erase(chain_.begin(),
               chain_.begin() + static_cast<std::ptrdiff_t>(drop));
  base_ = count;
}

void ExecutionLog::encode(serde::Writer& w) const {
  w.uvarint(base_);
  w.bytes(base_digest_);
  serde::write(w, records_);
}

ExecutionLog ExecutionLog::decode(serde::Reader& r) {
  ExecutionLog log;
  log.base_ = r.uvarint();
  r.fixed(log.base_digest_);
  log.records_ = serde::read<std::vector<ExecutionRecord>>(r);
  // The per-record chain is derived state: recompute instead of trusting
  // the wire.
  log.chain_.reserve(log.records_.size());
  crypto::Digest prev = log.base_digest_;
  for (const ExecutionRecord& rec : log.records_) {
    prev = chain_step(prev, rec);
    log.chain_.push_back(prev);
  }
  return log;
}

std::optional<std::string> check_execution_consistency(
    const std::vector<std::pair<ProcessId, const ExecutionLog*>>& logs) {
  for (std::size_t i = 0; i < logs.size(); ++i) {
    for (std::size_t j = i + 1; j < logs.size(); ++j) {
      const auto& [pi, li] = logs[i];
      const auto& [pj, lj] = logs[j];
      const std::uint64_t lo = std::max(li->base(), lj->base());
      const std::uint64_t hi = std::min(li->size(), lj->size());
      if (lo > hi) continue;  // disjoint ranges: nothing comparable
      if (li->digest_through(lo) != lj->digest_through(lo)) {
        std::ostringstream os;
        os << "replicas " << pi << " and " << pj
           << " diverge in their pruned prefix (chain digests through "
           << lo << " differ)";
        return os.str();
      }
      for (std::uint64_t k = lo; k < hi; ++k) {
        if (!(li->at(k) == lj->at(k))) {
          std::ostringstream os;
          os << "replicas " << pi << " and " << pj
             << " diverge at execution index " << k << ": ("
             << li->at(k).command.client << "," << li->at(k).command.request_id
             << ") vs (" << lj->at(k).command.client << ","
             << lj->at(k).command.request_id << ")";
          return os.str();
        }
      }
    }
  }
  return std::nullopt;
}

std::optional<Bytes> ExecutionDeduper::lookup(const Command& cmd) const {
  auto it = clients_.find(cmd.client);
  if (it == clients_.end()) return std::nullopt;
  auto rt = it->second.replies.find(cmd.request_id);
  if (rt == it->second.replies.end()) return std::nullopt;
  return rt->second;
}

bool ExecutionDeduper::below_floor(const Command& cmd) const {
  return cmd.request_id < floor(cmd.client);
}

bool ExecutionDeduper::settled(const Command& cmd) const {
  auto it = clients_.find(cmd.client);
  if (it == clients_.end()) return false;
  return cmd.request_id < it->second.floor ||
         it->second.replies.contains(cmd.request_id);
}

void ExecutionDeduper::record(const Command& cmd, const Bytes& result) {
  Window& win = clients_[cmd.client];
  win.replies.emplace(cmd.request_id, result);
  // min() keeps the command's own reply even under a forged ack; the
  // floor only ever rises.
  const std::uint64_t ack = std::min(cmd.acked, cmd.request_id);
  if (ack <= win.floor) return;
  win.floor = ack;
  win.replies.erase(win.replies.begin(), win.replies.lower_bound(ack));
}

std::uint64_t ExecutionDeduper::floor(ProcessId client) const {
  auto it = clients_.find(client);
  return it == clients_.end() ? 0 : it->second.floor;
}

std::vector<std::pair<ProcessId, std::uint64_t>> ExecutionDeduper::keys()
    const {
  std::vector<std::pair<ProcessId, std::uint64_t>> out;
  for (const auto& [client, win] : clients_)
    for (const auto& [rid, result] : win.replies) out.emplace_back(client, rid);
  return out;
}

std::vector<std::pair<ProcessId, std::uint64_t>> ExecutionDeduper::floors()
    const {
  std::vector<std::pair<ProcessId, std::uint64_t>> out;
  for (const auto& [client, win] : clients_)
    if (win.floor != 0) out.emplace_back(client, win.floor);
  return out;
}

void ExecutionDeduper::Window::encode(serde::Writer& w) const {
  w.uvarint(floor);
  serde::write(w, replies);
}

ExecutionDeduper::Window ExecutionDeduper::Window::decode(serde::Reader& r) {
  Window win;
  win.floor = r.uvarint();
  win.replies = serde::read<std::map<std::uint64_t, Bytes>>(r);
  return win;
}

void ExecutionDeduper::encode(serde::Writer& w) const {
  serde::write(w, clients_);
}

ExecutionDeduper ExecutionDeduper::decode(serde::Reader& r) {
  ExecutionDeduper d;
  d.clients_ = serde::read<std::map<ProcessId, Window>>(r);
  return d;
}

InstallWitness InstallWitness::of(const ExecutionDeduper& dedup) {
  return {dedup.keys(), dedup.floors()};
}

void InstallWitness::encode(serde::Writer& w) const {
  serde::write(w, keys);
  serde::write(w, floors);
}

InstallWitness InstallWitness::decode(serde::Reader& r) {
  InstallWitness iw;
  iw.keys = serde::read<std::vector<std::pair<ProcessId, std::uint64_t>>>(r);
  iw.floors =
      serde::read<std::vector<std::pair<ProcessId, std::uint64_t>>>(r);
  return iw;
}

}  // namespace unidir::agreement
