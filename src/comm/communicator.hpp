/// \file communicator.hpp
/// In-process message-passing runtime.
///
/// The paper parallelizes yycore with "flat MPI": MPI_COMM_SPLIT divides
/// the world into the Yin panel and the Yang panel, MPI_CART_CREATE
/// builds a 2-D process grid inside each panel, and MPI_SEND/MPI_IRECV
/// carry both the intra-panel halo exchange and the inter-panel overset
/// interpolation traffic.  This module reproduces exactly that API
/// subset with ranks backed by std::thread (the Earth Simulator itself
/// is modelled separately in src/perf).
///
/// Semantics mirror MPI where it matters to the algorithms:
///  * send() is buffered and never blocks (like MPI_Bsend); the
///    paper's post-irecv-then-send pattern is therefore deadlock-free.
///  * Message envelopes match on (communicator context, source, tag)
///    with FIFO order per envelope, as MPI guarantees.
///  * split() and cart creation are collective calls.
///  * proc_null (-1) swallows sends and completes receives immediately,
///    like MPI_PROC_NULL, so boundary ranks need no special casing.
///
/// All traffic is metered (bytes/messages per world rank); the perf
/// model uses these counters to size the Earth Simulator communication
/// volumes for the Table II reproduction.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

namespace yy::comm {

/// Null process: send() to it is a no-op; recv() from it completes
/// immediately leaving the buffer untouched.
inline constexpr int proc_null = -1;

class Fabric;
class FaultPlan;

/// Completion handle for a pending non-blocking receive.
class Request {
 public:
  Request() = default;
  bool valid() const { return fabric_ != nullptr || null_; }

 private:
  friend class Communicator;
  Fabric* fabric_ = nullptr;
  int ctx_ = 0;
  int src_world_ = 0;  // world rank of the awaited sender
  int self_world_ = 0;
  int tag_ = 0;
  bool null_ = false;  // recv from proc_null: already complete
  std::span<double> buf_;
};

/// A group of ranks able to exchange messages; cheap to copy.
class Communicator {
 public:
  Communicator() = default;

  int rank() const { return rank_; }
  int size() const { return static_cast<int>(group_.size()); }

  /// Buffered, non-blocking-in-effect point-to-point send.
  void send(int dest, int tag, std::span<const double> data) const;

  /// Post a receive; complete it with wait().  The buffer must stay
  /// alive until wait() returns.  Message length must equal buf size.
  Request irecv(int src, int tag, std::span<double> buf) const;

  /// Blocking receive (irecv + wait).
  void recv(int src, int tag, std::span<double> buf) const;

  /// Deadline receive: like recv(), but if no matching message arrives
  /// within `deadline_ms` milliseconds, throws a yy::Error
  /// (Kind::timeout) naming the sender, tag and context instead of
  /// hanging forever.  deadline_ms = 0 blocks indefinitely.
  void recv(int src, int tag, std::span<double> buf, int deadline_ms) const;

  /// Deadline variant of wait() (see recv overload above).
  void wait(Request& req, int deadline_ms) const;

  /// Combined exchange (MPI_Sendrecv): posts the receive, performs the
  /// buffered send, completes the receive.  Either peer may be
  /// proc_null (the corresponding half becomes a no-op).
  void sendrecv(int dest, int send_tag, std::span<const double> send_buf,
                int src, int recv_tag, std::span<double> recv_buf) const;

  /// Completes a pending receive.
  void wait(Request& req) const;

  /// Collective: all ranks of this communicator rendezvous.
  void barrier() const;

  /// Collective reductions over all ranks (result on every rank).
  double allreduce_sum(double v) const;
  double allreduce_min(double v) const;
  double allreduce_max(double v) const;
  void allreduce_sum(std::span<double> inout) const;

  /// Deadline-bounded reductions: every internal receive of the rank-0
  /// star honours `deadline_ms` (> 0; <= 0 = fabric default), so a hung
  /// or failed peer surfaces as a yy::Error on every rank instead of
  /// blocking the collective forever.
  double allreduce_min(double v, int deadline_ms) const;
  double allreduce_max(double v, int deadline_ms) const;

  /// Collective: root receives the concatenation of equal-size
  /// contributions ordered by rank; other ranks get an empty vector.
  std::vector<double> gather(std::span<const double> v, int root) const;

  /// Collective: root's buffer is copied to every rank.
  void broadcast(std::span<double> buf, int root) const;

  /// Collective: partition into sub-communicators by color; ranks with
  /// the same color form a group ordered by (key, old rank), exactly as
  /// MPI_COMM_SPLIT.
  Communicator split(int color, int key) const;

  /// World rank backing a rank of this communicator (diagnostics).
  int world_rank_of(int r) const { return group_.at(static_cast<std::size_t>(r)); }

  // ---- Resilience controls (fabric-wide: they affect every rank and
  // every communicator sharing this fabric; see src/resilience).

  /// Default deadline applied to every blocking receive on this fabric
  /// (0 = block forever, the seed behaviour).  Lost or dropped messages
  /// then surface as yy::Error timeouts that the resilient runner turns
  /// into a checkpoint rewind.
  void set_take_deadline_ms(int ms) const;
  int take_deadline_ms() const;

  /// Installs (nullptr clears) a fault-injection plan; also enables
  /// per-envelope CRC32 payload validation while installed.
  void install_fault_plan(std::shared_ptr<FaultPlan> plan) const;
  FaultPlan* fault_plan() const;

  /// Collective over all LIVE fabric ranks (call it from a world
  /// communicator): waits for everyone alive, purges all in-flight
  /// traffic, then releases the ranks together.  Positive deadline
  /// bounds the wait for stragglers.
  void recovery_rendezvous(int deadline_ms = 0) const;

  /// Declares this rank permanently failed, fabric-wide and
  /// irreversibly: it stops counting toward rendezvous, messages to it
  /// are swallowed, and receives awaiting it fail fast once drained.
  void retire() const;

  /// Ranks of this communicator whose backing world rank has retired
  /// (ascending).
  std::vector<int> retired_ranks() const;

  /// Collective over `survivors` (strictly ascending ranks of this
  /// communicator, which must include the caller): builds a dense new
  /// communicator over exactly those ranks, preserving order, via the
  /// same propose-validate-agree discipline as checkpoint restore.
  /// Divergent proposals raise Kind::corruption; an unreachable
  /// "survivor" raises Kind::timeout when `deadline_ms` > 0.
  Communicator shrink(const std::vector<int>& survivors,
                      int deadline_ms = 0) const;

 private:
  friend class Runtime;
  friend struct CommTestAccess;
  Communicator(std::shared_ptr<Fabric> f, int ctx, std::vector<int> group, int rank)
      : fabric_(std::move(f)), ctx_(ctx), group_(std::move(group)), rank_(rank) {}

  std::shared_ptr<Fabric> fabric_;
  int ctx_ = 0;                // communicator context id (message namespace)
  std::vector<int> group_;     // my-rank -> world-rank
  int rank_ = 0;
};

/// Traffic counters accumulated per world rank since runtime start.
struct TrafficStats {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
};

}  // namespace yy::comm
