#include "resilience/checkpoint_manager.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "comm/fault.hpp"
#include "common/crc32.hpp"
#include "common/error.hpp"
#include "obs/events.hpp"
#include "obs/trace.hpp"

namespace yy::resilience {

namespace fs = std::filesystem;

CheckpointManager::CheckpointManager(Options opt) : opt_(std::move(opt)) {
  YY_REQUIRE(!opt_.dir.empty());
  YY_REQUIRE(opt_.keep_last >= 1);
  std::error_code ec;
  fs::create_directories(opt_.dir, ec);

  // Crash hygiene: a death between temp-write and atomic rename leaves
  // a `<basename>.*.tmp` orphan that no manifest references and no
  // rotation ever reclaims.  Sweep them at startup; committed sets are
  // untouched and a concurrently-sweeping sibling rank losing the
  // remove race is fine (only the winner counts the event).
  const std::string prefix = opt_.basename + ".";
  const auto end = fs::directory_iterator{};
  for (auto it = fs::directory_iterator(opt_.dir, ec);
       !ec && it != end; it.increment(ec)) {
    const std::string name = it->path().filename().string();
    if (!name.ends_with(".tmp") || name.rfind(prefix, 0) != 0) continue;
    std::error_code rm_ec;
    if (fs::remove(it->path(), rm_ec) && !rm_ec)
      obs::count_event(obs::Event::stale_tmp_swept);
  }
}

std::string CheckpointManager::patch_path(long long step,
                                          int world_rank) const {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%s.step%lld.r%d.yyc2", opt_.basename.c_str(),
                step, world_rank);
  return (fs::path(opt_.dir) / buf).string();
}

std::string CheckpointManager::manifest_path(long long step) const {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%s.step%lld.manifest",
                opt_.basename.c_str(), step);
  return (fs::path(opt_.dir) / buf).string();
}

CheckpointMetaV2 patch_meta(const core::DistributedSolver& s, double dt) {
  const Field3& a = *s.local_state().all()[0];
  CheckpointMetaV2 m;
  m.nr = a.nr();
  m.nt = a.nt();
  m.np = a.np();
  m.panels = 1;  // one patch per rank
  m.time = s.time();
  m.step = s.steps_taken();
  m.dt = dt;
  m.world_size = s.runner().world().size();
  m.world_rank = s.runner().world().rank();
  m.pt = s.runner().pt();
  m.pp = s.runner().pp();
  m.panel = static_cast<int>(s.runner().panel());
  return m;
}

void CheckpointManager::write_manifest(const core::DistributedSolver& s,
                                       long long step, double dt) const {
  // Human-readable set description, CRC-sealed and committed atomically
  // like the patches.
  std::string body;
  char line[160];
  std::snprintf(line, sizeof line,
                "yycore-checkpoint-manifest v1\nstep %lld\ntime %.17g\n"
                "dt %.17g\nworld %d\npt %d\npp %d\n",
                step, s.time(), dt, s.runner().world().size(),
                s.runner().pt(), s.runner().pp());
  body += line;
  for (int r = 0; r < s.runner().world().size(); ++r) {
    std::snprintf(line, sizeof line, "patch %s\n",
                  fs::path(patch_path(step, r)).filename().string().c_str());
    body += line;
  }
  char tail[32];
  std::snprintf(tail, sizeof tail, "crc %08x\n",
                crc32(body.data(), body.size()));
  const std::string path = manifest_path(step);
  const std::string tmp = path + ".tmp";
  if (std::FILE* f = std::fopen(tmp.c_str(), "wb")) {
    const bool ok =
        std::fwrite(body.data(), 1, body.size(), f) == body.size() &&
        std::fwrite(tail, 1, std::strlen(tail), f) == std::strlen(tail);
    std::fclose(f);
    if (ok) std::rename(tmp.c_str(), path.c_str());
  }
}

bool CheckpointManager::save(core::DistributedSolver& s, double dt,
                             comm::FaultPlan* faults) {
  YY_TRACE_SCOPE(obs::Phase::io);
  const comm::Communicator& world = s.runner().world();
  const long long step = s.steps_taken();
  const CheckpointMetaV2 meta = patch_meta(s, dt);

  IoFaultSim sim = IoFaultSim::none;
  if (faults != nullptr) {
    switch (faults->take_io_fault(step, world.rank())) {
      case comm::FaultPlan::IoFault::none: break;
      case comm::FaultPlan::IoFault::fail:
        sim = IoFaultSim::fail_before_commit;
        break;
      case comm::FaultPlan::IoFault::torn:
        sim = IoFaultSim::torn_commit;
        break;
    }
  }

  const bool local_ok = save_checkpoint_v2(patch_path(step, world.rank()),
                                           meta, &s.local_state(), nullptr,
                                           sim);
  const bool all_ok = world.allreduce_min(local_ok ? 1.0 : 0.0) > 0.5;
  if (!all_ok) {
    // Discard the half-written set everywhere; older sets stay usable.
    std::error_code ec;
    fs::remove(patch_path(step, world.rank()), ec);
    if (world.rank() == 0)
      obs::count_event(obs::Event::checkpoint_save_failed);
    return false;
  }
  if (world.rank() == 0) {
    write_manifest(s, step, dt);
    obs::count_event(obs::Event::checkpoint_saved);
  }
  if (steps_.empty() || steps_.back() != step) steps_.push_back(step);
  while (static_cast<int>(steps_.size()) > opt_.keep_last) {
    remove_set(s, steps_.front());
    steps_.erase(steps_.begin());
  }
  return true;
}

void CheckpointManager::remove_set(const core::DistributedSolver& s,
                                   long long step) const {
  std::error_code ec;
  fs::remove(patch_path(step, s.runner().world().rank()), ec);
  if (s.runner().world().rank() == 0) fs::remove(manifest_path(step), ec);
}

std::vector<long long> CheckpointManager::discover_steps(
    const core::DistributedSolver& s) const {
  std::vector<long long> steps;
  char pattern[64];
  std::snprintf(pattern, sizeof pattern, "%s.step%%lld.r%d.yyc2",
                opt_.basename.c_str(), s.runner().world().rank());
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(opt_.dir, ec)) {
    long long step = 0;
    if (std::sscanf(entry.path().filename().string().c_str(), pattern,
                    &step) == 1)
      steps.push_back(step);
  }
  std::sort(steps.begin(), steps.end());
  return steps;
}

bool CheckpointManager::validate_patch(const core::DistributedSolver& s,
                                       long long step, mhd::Fields& scratch,
                                       CheckpointMetaV2& meta) const {
  const comm::Communicator& world = s.runner().world();
  const LoadStatus st = load_checkpoint_v2(
      patch_path(step, world.rank()), meta, &scratch, nullptr);
  if (st != LoadStatus::ok) {
    obs::count_event(obs::Event::checkpoint_rejected);
    return false;
  }
  // The file must describe *this* rank of *this* run layout.
  return meta.step == step && meta.world_size == world.size() &&
         meta.world_rank == world.rank() && meta.pt == s.runner().pt() &&
         meta.pp == s.runner().pp() &&
         meta.panel == static_cast<int>(s.runner().panel());
}

long long CheckpointManager::restore_newest(core::DistributedSolver& s,
                                            double* dt_out) {
  YY_TRACE_SCOPE(obs::Phase::io);
  const comm::Communicator& world = s.runner().world();
  std::vector<long long> candidates =
      steps_.empty() ? discover_steps(s) : steps_;
  mhd::Fields scratch(s.local_grid());

  // Collectively walk candidate sets newest-first.  Each round the
  // ranks propose their newest untried step; everyone validates the
  // globally newest proposal and the set is used only if every rank's
  // patch passed (allreduce_min).
  for (;;) {
    const long long propose = static_cast<long long>(world.allreduce_max(
        candidates.empty() ? -1.0
                           : static_cast<double>(candidates.back())));
    if (propose < 0) return -1;
    while (!candidates.empty() && candidates.back() >= propose)
      candidates.pop_back();
    CheckpointMetaV2 meta;
    const bool ok = validate_patch(s, propose, scratch, meta);
    if (world.allreduce_min(ok ? 1.0 : 0.0) > 0.5) {
      s.restore_state(scratch, meta.time, meta.step);
      if (dt_out != nullptr) *dt_out = meta.dt;
      if (world.rank() == 0) obs::count_event(obs::Event::restart_loaded);
      return propose;
    }
  }
}

bool CheckpointManager::load_step(core::DistributedSolver& s, long long step,
                                  double* dt_out) {
  YY_TRACE_SCOPE(obs::Phase::io);
  const comm::Communicator& world = s.runner().world();
  mhd::Fields scratch(s.local_grid());
  CheckpointMetaV2 meta;
  const bool ok = validate_patch(s, step, scratch, meta);
  if (world.allreduce_min(ok ? 1.0 : 0.0) < 0.5) return false;
  s.restore_state(scratch, meta.time, meta.step);
  if (dt_out != nullptr) *dt_out = meta.dt;
  if (world.rank() == 0) obs::count_event(obs::Event::restart_loaded);
  return true;
}

}  // namespace yy::resilience
