#include "comm/communicator.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>

#include "comm/fabric.hpp"
#include "comm/fault.hpp"
#include "common/crc32.hpp"
#include "common/error.hpp"

namespace yy::comm {

namespace {
// Collectives run inside the communicator's own context but on reserved
// negative tags; user point-to-point traffic must use tags >= 0.
constexpr int sys_barrier_up = -1;
constexpr int sys_barrier_down = -2;
constexpr int sys_reduce_up = -3;
constexpr int sys_reduce_down = -4;
constexpr int sys_gather = -5;
constexpr int sys_bcast = -6;
constexpr int sys_split_up = -7;
constexpr int sys_split_down = -8;
constexpr int sys_shrink_up = -9;
constexpr int sys_shrink_down = -10;
}  // namespace

void Fabric::install_fault_plan(std::shared_ptr<FaultPlan> plan) {
  std::lock_guard lock(plan_mu_);
  plan_ = std::move(plan);
  validate_.store(plan_ != nullptr, std::memory_order_relaxed);
}

FaultPlan* Fabric::fault_plan() const {
  std::lock_guard lock(plan_mu_);
  return plan_.get();
}

void Fabric::deliver(int dest_world, Envelope env) {
  YY_REQUIRE(dest_world >= 0 && dest_world < nranks());
  auto& t = traffic_[static_cast<std::size_t>(env.src_world)];
  t.messages.fetch_add(1, std::memory_order_relaxed);
  t.bytes.fetch_add(env.data.size() * sizeof(double), std::memory_order_relaxed);
  // A retired destination swallows traffic (metered as sent, like a
  // plan-dropped envelope), so survivors' buffered sends never block or
  // accumulate in a mailbox nobody will drain.
  if (dead_[static_cast<std::size_t>(dest_world)].load(
          std::memory_order_acquire))
    return;
  env.seq =
      1 + seq_[static_cast<std::size_t>(env.src_world)].next.fetch_add(1);
  if (validate_.load(std::memory_order_relaxed)) {
    env.crc = crc32(env.data.data(), env.data.size() * sizeof(double));
    env.has_crc = true;
  }
  bool duplicate = false;
  if (std::shared_ptr<FaultPlan> plan =
          [this] { std::lock_guard l(plan_mu_); return plan_; }()) {
    if (const auto rule = plan->on_deliver(env.src_world, dest_world, env.tag)) {
      switch (rule->kind) {
        case FaultPlan::Kind::drop:
          return;  // metered as sent, never enqueued
        case FaultPlan::Kind::delay:
          std::this_thread::sleep_for(std::chrono::milliseconds(rule->delay_ms));
          break;
        case FaultPlan::Kind::duplicate:
          duplicate = true;
          break;
        case FaultPlan::Kind::bitflip:
          if (!env.data.empty()) {
            // Deterministic victim byte from the plan seed and sequence;
            // crc was stamped above, so the receiver must notice.
            auto* bytes = reinterpret_cast<unsigned char*>(env.data.data());
            const std::size_t n = env.data.size() * sizeof(double);
            bytes[(plan->seed() + env.seq) % n] ^=
                static_cast<unsigned char>(rule->flip_mask);
          }
          break;
      }
    }
  }
  auto& box = boxes_[static_cast<std::size_t>(dest_world)];
  {
    std::lock_guard lock(box.mu);
    if (duplicate) box.queue.push_back(env);  // same seq: dedup'd on take
    box.queue.push_back(std::move(env));
  }
  box.cv.notify_all();
}

Envelope Fabric::take(int self_world, int ctx, int src_world, int tag,
                      int deadline_ms) {
  if (deadline_ms < 0) deadline_ms = default_deadline_ms();
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(deadline_ms);
  const std::array<int, 3> key{ctx, src_world, tag};
  auto& box = boxes_[static_cast<std::size_t>(self_world)];
  std::unique_lock lock(box.mu);
  for (;;) {
    auto it = box.queue.begin();
    while (it != box.queue.end()) {
      if (it->ctx != ctx || it->src_world != src_world || it->tag != tag) {
        ++it;
        continue;
      }
      const auto seen = box.last_seq.find(key);
      if (seen != box.last_seq.end() && it->seq <= seen->second) {
        it = box.queue.erase(it);  // injected duplicate: discard
        continue;
      }
      if (it->has_crc &&
          crc32(it->data.data(), it->data.size() * sizeof(double)) !=
              it->crc) {
        box.queue.erase(it);
        char msg[160];
        std::snprintf(msg, sizeof msg,
                      "corrupt envelope: payload CRC mismatch from world rank "
                      "%d (tag %d, ctx %d) at world rank %d",
                      src_world, tag, ctx, self_world);
        throw Error(Error::Kind::corruption, msg);
      }
      Envelope env = std::move(*it);
      box.queue.erase(it);
      box.last_seq[key] = env.seq;
      return env;
    }
    // Queue exhausted: a retired sender will never satisfy this take,
    // so fail fast (the already-delivered messages above were still
    // consumable — a rank's pre-death sends stay matchable).
    if (src_world >= 0 && src_world < nranks() &&
        dead_[static_cast<std::size_t>(src_world)].load(
            std::memory_order_acquire)) {
      char msg[160];
      std::snprintf(msg, sizeof msg,
                    "receive from failed peer: world rank %d has retired "
                    "(tag %d, ctx %d) awaited at world rank %d",
                    src_world, tag, ctx, self_world);
      throw Error(Error::Kind::timeout, msg);
    }
    if (deadline_ms <= 0) {
      box.cv.wait(lock);
    } else if (box.cv.wait_until(lock, deadline) == std::cv_status::timeout) {
      char msg[160];
      std::snprintf(msg, sizeof msg,
                    "receive timeout after %d ms: no message from world rank "
                    "%d (tag %d, ctx %d) at world rank %d",
                    deadline_ms, src_world, tag, ctx, self_world);
      throw Error(Error::Kind::timeout, msg);
    }
  }
}

void Fabric::complete_rendezvous_locked() {
  // Last live arriver (or a retirement that removed the straggler):
  // with every live rank parked here, nobody is sending or matching,
  // so the purge cannot race a live exchange.
  for (auto& box : boxes_) {
    std::lock_guard bl(box.mu);
    box.queue.clear();
    box.last_seq.clear();
  }
  rdv_arrived_ = 0;
  ++rdv_generation_;
  rdv_cv_.notify_all();
}

void Fabric::recovery_rendezvous(int deadline_ms) {
  std::unique_lock lock(rdv_mu_);
  const std::uint64_t gen = rdv_generation_;
  if (++rdv_arrived_ >= live_locked()) {
    complete_rendezvous_locked();
    return;
  }
  const auto arrived = [&] { return rdv_generation_ != gen; };
  if (deadline_ms <= 0) {
    rdv_cv_.wait(lock, arrived);
  } else if (!rdv_cv_.wait_for(lock, std::chrono::milliseconds(deadline_ms),
                               arrived)) {
    --rdv_arrived_;
    char msg[128];
    std::snprintf(msg, sizeof msg,
                  "recovery rendezvous timeout after %d ms: %d of %d live "
                  "ranks arrived",
                  deadline_ms, rdv_arrived_ + 1, live_locked());
    throw Error(Error::Kind::timeout, msg);
  }
}

void Fabric::retire(int world_rank) {
  YY_REQUIRE(world_rank >= 0 && world_rank < nranks());
  {
    std::lock_guard lock(rdv_mu_);
    if (dead_[static_cast<std::size_t>(world_rank)].load(
            std::memory_order_acquire))
      return;
    dead_[static_cast<std::size_t>(world_rank)].store(
        true, std::memory_order_release);
    retired_.insert(
        std::lower_bound(retired_.begin(), retired_.end(), world_rank),
        world_rank);
    // The straggler everyone was waiting on may have been this rank:
    // with the live count reduced, a pending rendezvous can complete.
    if (rdv_arrived_ > 0 && rdv_arrived_ >= live_locked())
      complete_rendezvous_locked();
  }
  // Wake every blocked take so waits on the retired rank fail fast.
  // Locking each mailbox orders the wakeup after any in-progress
  // scan-then-wait, so no waiter can miss the flag.
  for (auto& box : boxes_) {
    std::lock_guard bl(box.mu);
    box.cv.notify_all();
  }
}

std::vector<int> Fabric::retired() const {
  std::lock_guard lock(rdv_mu_);
  return retired_;
}

TrafficStats Fabric::traffic(int world_rank) const {
  YY_REQUIRE(world_rank >= 0 && world_rank < nranks());
  const auto& t = traffic_[static_cast<std::size_t>(world_rank)];
  return {t.messages.load(std::memory_order_relaxed),
          t.bytes.load(std::memory_order_relaxed)};
}

TrafficStats Fabric::traffic_total() const {
  TrafficStats sum;
  for (int r = 0; r < nranks(); ++r) {
    const TrafficStats t = traffic(r);
    sum.messages += t.messages;
    sum.bytes += t.bytes;
  }
  return sum;
}

void Communicator::send(int dest, int tag, std::span<const double> data) const {
  if (dest == proc_null) return;
  YY_REQUIRE(fabric_ != nullptr);
  YY_REQUIRE(dest >= 0 && dest < size());
  Envelope env{ctx_, group_[static_cast<std::size_t>(rank_)], tag,
               std::vector<double>(data.begin(), data.end())};
  fabric_->deliver(group_[static_cast<std::size_t>(dest)], std::move(env));
}

Request Communicator::irecv(int src, int tag, std::span<double> buf) const {
  Request req;
  if (src == proc_null) {
    req.null_ = true;
    return req;
  }
  YY_REQUIRE(fabric_ != nullptr);
  YY_REQUIRE(src >= 0 && src < size());
  req.fabric_ = fabric_.get();
  req.ctx_ = ctx_;
  req.src_world_ = group_[static_cast<std::size_t>(src)];
  req.self_world_ = group_[static_cast<std::size_t>(rank_)];
  req.tag_ = tag;
  req.buf_ = buf;
  return req;
}

void Communicator::wait(Request& req) const { wait(req, /*deadline_ms=*/-1); }

void Communicator::wait(Request& req, int deadline_ms) const {
  YY_REQUIRE(req.valid());
  if (req.null_) {
    req.null_ = false;
    return;
  }
  Envelope env = req.fabric_->take(req.self_world_, req.ctx_, req.src_world_,
                                   req.tag_, deadline_ms);
  YY_REQUIRE(env.data.size() == req.buf_.size());
  std::copy(env.data.begin(), env.data.end(), req.buf_.begin());
  req.fabric_ = nullptr;
}

void Communicator::recv(int src, int tag, std::span<double> buf) const {
  Request req = irecv(src, tag, buf);
  wait(req);
}

void Communicator::recv(int src, int tag, std::span<double> buf,
                        int deadline_ms) const {
  Request req = irecv(src, tag, buf);
  wait(req, deadline_ms);
}

void Communicator::set_take_deadline_ms(int ms) const {
  YY_REQUIRE(fabric_ != nullptr);
  fabric_->set_default_deadline_ms(ms);
}

int Communicator::take_deadline_ms() const {
  YY_REQUIRE(fabric_ != nullptr);
  return fabric_->default_deadline_ms();
}

void Communicator::install_fault_plan(std::shared_ptr<FaultPlan> plan) const {
  YY_REQUIRE(fabric_ != nullptr);
  fabric_->install_fault_plan(std::move(plan));
}

FaultPlan* Communicator::fault_plan() const {
  YY_REQUIRE(fabric_ != nullptr);
  return fabric_->fault_plan();
}

void Communicator::recovery_rendezvous(int deadline_ms) const {
  YY_REQUIRE(fabric_ != nullptr);
  fabric_->recovery_rendezvous(deadline_ms);
}

void Communicator::sendrecv(int dest, int send_tag,
                            std::span<const double> send_buf, int src,
                            int recv_tag, std::span<double> recv_buf) const {
  Request req = irecv(src, recv_tag, recv_buf);
  send(dest, send_tag, send_buf);
  wait(req);
}

void Communicator::barrier() const {
  const double token = 0.0;
  double sink = 0.0;
  if (rank_ == 0) {
    for (int r = 1; r < size(); ++r) recv(r, sys_barrier_up, {&sink, 1});
    for (int r = 1; r < size(); ++r) send(r, sys_barrier_down, {&token, 1});
  } else {
    send(0, sys_barrier_up, {&token, 1});
    recv(0, sys_barrier_down, {&sink, 1});
  }
}

namespace {
/// `deadline_ms` > 0 bounds every receive of the rank-0 star — both the
/// root's up-collection and the leaves' wait for the result — so a hung
/// peer fails the reduction on every rank instead of wedging it;
/// <= 0 falls back to the fabric default like any plain receive.
template <typename Op>
double allreduce_impl(const Communicator& c, double v, Op op,
                      int deadline_ms) {
  if (c.size() == 1) return v;
  double acc = v;
  if (c.rank() == 0) {
    double incoming = 0.0;
    for (int r = 1; r < c.size(); ++r) {
      c.recv(r, sys_reduce_up, {&incoming, 1}, deadline_ms > 0 ? deadline_ms : -1);
      acc = op(acc, incoming);
    }
    for (int r = 1; r < c.size(); ++r) c.send(r, sys_reduce_down, {&acc, 1});
  } else {
    c.send(0, sys_reduce_up, {&acc, 1});
    c.recv(0, sys_reduce_down, {&acc, 1}, deadline_ms > 0 ? deadline_ms : -1);
  }
  return acc;
}
}  // namespace

double Communicator::allreduce_sum(double v) const {
  return allreduce_impl(*this, v, [](double a, double b) { return a + b; }, -1);
}
double Communicator::allreduce_min(double v) const {
  return allreduce_impl(*this, v, [](double a, double b) { return std::min(a, b); }, -1);
}
double Communicator::allreduce_max(double v) const {
  return allreduce_impl(*this, v, [](double a, double b) { return std::max(a, b); }, -1);
}
double Communicator::allreduce_min(double v, int deadline_ms) const {
  return allreduce_impl(*this, v, [](double a, double b) { return std::min(a, b); }, deadline_ms);
}
double Communicator::allreduce_max(double v, int deadline_ms) const {
  return allreduce_impl(*this, v, [](double a, double b) { return std::max(a, b); }, deadline_ms);
}

void Communicator::allreduce_sum(std::span<double> inout) const {
  if (size() == 1) return;
  if (rank_ == 0) {
    std::vector<double> incoming(inout.size());
    for (int r = 1; r < size(); ++r) {
      recv(r, sys_reduce_up, incoming);
      for (std::size_t i = 0; i < inout.size(); ++i) inout[i] += incoming[i];
    }
    for (int r = 1; r < size(); ++r) send(r, sys_reduce_down, inout);
  } else {
    send(0, sys_reduce_up, inout);
    recv(0, sys_reduce_down, inout);
  }
}

std::vector<double> Communicator::gather(std::span<const double> v, int root) const {
  YY_REQUIRE(root >= 0 && root < size());
  if (rank_ != root) {
    send(root, sys_gather, v);
    return {};
  }
  std::vector<double> all(v.size() * static_cast<std::size_t>(size()));
  for (int r = 0; r < size(); ++r) {
    std::span<double> slot{all.data() + v.size() * static_cast<std::size_t>(r),
                           v.size()};
    if (r == root) {
      std::copy(v.begin(), v.end(), slot.begin());
    } else {
      recv(r, sys_gather, slot);
    }
  }
  return all;
}

void Communicator::broadcast(std::span<double> buf, int root) const {
  YY_REQUIRE(root >= 0 && root < size());
  if (rank_ == root) {
    for (int r = 0; r < size(); ++r)
      if (r != root) send(r, sys_bcast, buf);
  } else {
    recv(root, sys_bcast, buf);
  }
}

Communicator Communicator::split(int color, int key) const {
  YY_REQUIRE(fabric_ != nullptr);
  // Every rank reports (color, key) to rank 0, which forms the groups,
  // allocates one fresh context per color, and answers each rank with
  // its new (ctx, new_rank, group membership) — the MPI_COMM_SPLIT
  // contract: groups ordered by (key, old rank).
  const double report[2] = {static_cast<double>(color), static_cast<double>(key)};
  if (rank_ != 0) send(0, sys_split_up, report);

  std::vector<double> reply;
  if (rank_ == 0) {
    struct Entry {
      int color, key, old_rank;
    };
    std::vector<Entry> entries;
    entries.push_back({color, key, 0});
    double in[2];
    for (int r = 1; r < size(); ++r) {
      recv(r, sys_split_up, in);
      entries.push_back({static_cast<int>(in[0]), static_cast<int>(in[1]), r});
    }
    std::sort(entries.begin(), entries.end(), [](const Entry& a, const Entry& b) {
      if (a.color != b.color) return a.color < b.color;
      if (a.key != b.key) return a.key < b.key;
      return a.old_rank < b.old_rank;
    });
    // Contiguous runs of equal color are the new groups.
    std::vector<std::vector<Entry>> groups;
    for (const Entry& e : entries) {
      if (groups.empty() || groups.back().front().color != e.color)
        groups.emplace_back();
      groups.back().push_back(e);
    }
    const int ctx0 = fabric_->allocate_contexts(static_cast<int>(groups.size()));
    // Reply layout: [ctx, new_rank, group_size, world_ranks...]
    std::vector<std::vector<double>> replies(static_cast<std::size_t>(size()));
    for (std::size_t g = 0; g < groups.size(); ++g) {
      std::vector<double> worlds;
      for (const Entry& e : groups[g])
        worlds.push_back(
            static_cast<double>(group_[static_cast<std::size_t>(e.old_rank)]));
      for (std::size_t i = 0; i < groups[g].size(); ++i) {
        auto& rep = replies[static_cast<std::size_t>(groups[g][i].old_rank)];
        rep = {static_cast<double>(ctx0 + static_cast<int>(g)),
               static_cast<double>(i), static_cast<double>(groups[g].size())};
        rep.insert(rep.end(), worlds.begin(), worlds.end());
      }
    }
    for (int r = 1; r < size(); ++r) send(r, sys_split_down, replies[static_cast<std::size_t>(r)]);
    reply = std::move(replies[0]);
  } else {
    // Size of the reply is 3 + my-group size, unknown here; receive the
    // group size first via a fixed-size header?  Instead rank 0 sends a
    // single message and we rely on envelope length: fetch it raw.
    Envelope env = fabric_->take(group_[static_cast<std::size_t>(rank_)], ctx_,
                                 group_[0], sys_split_down);
    reply = std::move(env.data);
  }

  const int new_ctx = static_cast<int>(reply.at(0));
  const int new_rank = static_cast<int>(reply.at(1));
  const int group_size = static_cast<int>(reply.at(2));
  YY_ASSERT(static_cast<int>(reply.size()) == 3 + group_size);
  std::vector<int> group(static_cast<std::size_t>(group_size));
  for (int i = 0; i < group_size; ++i)
    group[static_cast<std::size_t>(i)] = static_cast<int>(reply[static_cast<std::size_t>(3 + i)]);
  return Communicator(fabric_, new_ctx, std::move(group), new_rank);
}

void Communicator::retire() const {
  YY_REQUIRE(fabric_ != nullptr);
  fabric_->retire(group_[static_cast<std::size_t>(rank_)]);
}

std::vector<int> Communicator::retired_ranks() const {
  YY_REQUIRE(fabric_ != nullptr);
  std::vector<int> out;
  for (int r = 0; r < size(); ++r)
    if (fabric_->is_retired(group_[static_cast<std::size_t>(r)]))
      out.push_back(r);
  return out;
}

Communicator Communicator::shrink(const std::vector<int>& survivors,
                                  int deadline_ms) const {
  YY_REQUIRE(fabric_ != nullptr);
  YY_REQUIRE(!survivors.empty());
  for (std::size_t i = 0; i < survivors.size(); ++i) {
    YY_REQUIRE(survivors[i] >= 0 && survivors[i] < size());
    YY_REQUIRE(i == 0 || survivors[i] > survivors[i - 1]);
  }
  const auto me = std::find(survivors.begin(), survivors.end(), rank_);
  YY_REQUIRE(me != survivors.end());
  const int new_rank = static_cast<int>(me - survivors.begin());
  const int n = static_cast<int>(survivors.size());
  const int root = survivors.front();

  // Propose-validate-agree on the *old* communicator (same discipline
  // as CheckpointManager::restore_newest): every survivor proposes its
  // survivor list to the lowest survivor, which validates that all
  // proposals are identical, allocates the agreed context, and answers.
  // Deadline-bounded receives turn an unreachable "survivor" into a
  // clean error rather than a hang.
  std::vector<double> prop;
  prop.reserve(survivors.size() + 1);
  prop.push_back(static_cast<double>(n));
  for (const int s : survivors) prop.push_back(static_cast<double>(s));

  int new_ctx = 0;
  const int dl = deadline_ms > 0 ? deadline_ms : -1;
  if (rank_ == root) {
    for (int i = 1; i < n; ++i) {
      // Raw take: a divergent proposal may have a different length, and
      // that must surface as a protocol error, not a size abort.
      Envelope env = fabric_->take(
          group_[static_cast<std::size_t>(rank_)], ctx_,
          group_[static_cast<std::size_t>(survivors[static_cast<std::size_t>(i)])],
          sys_shrink_up, dl);
      if (env.data != prop) {
        char msg[128];
        std::snprintf(msg, sizeof msg,
                      "shrink: rank %d proposed a divergent survivor set "
                      "(%zu entries vs %zu here)",
                      survivors[static_cast<std::size_t>(i)],
                      env.data.empty() ? 0 : env.data.size() - 1,
                      prop.size() - 1);
        throw Error(Error::Kind::corruption, msg);
      }
    }
    new_ctx = fabric_->allocate_contexts(1);
    const double reply[1] = {static_cast<double>(new_ctx)};
    for (int i = 1; i < n; ++i)
      send(survivors[static_cast<std::size_t>(i)], sys_shrink_down, reply);
  } else {
    send(root, sys_shrink_up, prop);
    double reply[1] = {0.0};
    recv(root, sys_shrink_down, reply, dl);
    new_ctx = static_cast<int>(reply[0]);
  }

  std::vector<int> group;
  group.reserve(survivors.size());
  for (const int s : survivors)
    group.push_back(group_[static_cast<std::size_t>(s)]);
  return Communicator(fabric_, new_ctx, std::move(group), new_rank);
}

}  // namespace yy::comm
