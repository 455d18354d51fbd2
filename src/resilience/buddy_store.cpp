#include "resilience/buddy_store.hpp"

#include <cstring>

#include "common/error.hpp"
#include "obs/events.hpp"
#include "resilience/checkpoint_manager.hpp"

namespace yy::resilience {

namespace {
// Each round uses a tag block: [need flag,] image length, image payload.
// Refresh: 410/411.  Scrub: 414-416 (the ward re-serves its own image,
// the *reverse* of refresh).  Restore: 417-419 (a rank whose own image
// rotted pulls its replica back from its holder).
constexpr int tag_buddy = 410;
constexpr int tag_scrub = 414;
constexpr int tag_restore = 417;

/// Receive bounded by `deadline_ms` (<= 0 = the fabric default, if any).
void recv_bounded(const comm::Communicator& world, int src, int tag,
                  std::span<double> buf, int deadline_ms) {
  if (deadline_ms > 0)
    world.recv(src, tag, buf, deadline_ms);
  else
    world.recv(src, tag, buf);
}

/// Sends `img` to `dest`: its length on `tag` (image sizes differ across
/// patch shapes), the payload on tag + 1 — bit-packed, as the fabric
/// carries doubles, zero-padded in the tail word.  Buffered sends never
/// block.
void ship(const comm::Communicator& world, int dest, int tag,
          const std::vector<unsigned char>& img) {
  const double len[1] = {static_cast<double>(img.size())};
  std::vector<double> packed((img.size() + 7) / 8, 0.0);
  if (!img.empty()) std::memcpy(packed.data(), img.data(), img.size());
  world.send(dest, tag, len);
  world.send(dest, tag + 1, packed);
}

/// Receives what ship() sent from `src` and validates it before
/// adopting: CRC + structural sweep plus an identity check that this
/// really is `owner`'s image, from this world, at snapshot `step`.  Only
/// a valid image replaces `img`/`meta`.
bool fetch(const comm::Communicator& world, int src, int tag, int owner,
           long long step, int deadline_ms, std::vector<unsigned char>& img,
           CheckpointMetaV2& meta) {
  double len[1] = {0.0};
  recv_bounded(world, src, tag, len, deadline_ms);
  const auto nbytes = static_cast<std::size_t>(len[0]);
  std::vector<double> packed((nbytes + 7) / 8);
  recv_bounded(world, src, tag + 1, packed, deadline_ms);
  std::vector<unsigned char> got(nbytes);
  if (nbytes != 0) std::memcpy(got.data(), packed.data(), nbytes);

  CheckpointMetaV2 m;
  if (validate_checkpoint_image(got.data(), got.size(), &m) != LoadStatus::ok ||
      m.world_rank != owner || m.world_size != world.size() || m.step != step)
    return false;
  img = std::move(got);
  meta = m;
  return true;
}

/// One flag-then-image round on a tag block (flag on `tag`, image on
/// tag + 1/tag + 2): flags `need` to `server`, ships `served` to `client`
/// when the client flagged, and on `need` fetches `owner`'s image from
/// `server`.  Every rank receives exactly one flag, so the round cannot
/// deadlock.  False when the fetched image fails validation.
bool refetch_round(const comm::Communicator& world, int tag, bool need,
                   int server, int client,
                   const std::vector<unsigned char>& served, int owner,
                   long long step, int deadline_ms,
                   std::vector<unsigned char>& img, CheckpointMetaV2& meta) {
  const double flag[1] = {need ? 1.0 : 0.0};
  world.send(server, tag, flag);
  double client_needs[1] = {0.0};
  recv_bounded(world, client, tag, client_needs, deadline_ms);
  if (client_needs[0] != 0.0) ship(world, client, tag + 1, served);
  if (!need) return true;
  if (!fetch(world, server, tag + 1, owner, step, deadline_ms, img, meta))
    return false;
  obs::count_event(obs::Event::replica_refetched);
  return true;
}
}  // namespace

bool BuddyStore::refresh(core::DistributedSolver& s, double dt,
                         int deadline_ms) {
  const comm::Communicator& world = s.runner().world();
  const int n = world.size();
  my_rank_ = world.rank();
  ward_rank_ = ward_of(my_rank_, n);

  own_meta_ = patch_meta(s, dt);
  own_ = encode_checkpoint_v2(own_meta_, &s.local_state(), nullptr);

  if (n < 2) {  // no buddy to pair with; the store serves only itself
    ward_.clear();
    armed_ = true;
    return true;
  }

  // Ship my image around the ring, then take my ward's; a rejected
  // image leaves the previously validated replica in place.
  ship(world, holder_of(my_rank_, n), tag_buddy, own_);
  const bool ok = fetch(world, ward_rank_, tag_buddy, ward_rank_,
                        own_meta_.step, deadline_ms, ward_, ward_meta_);
  armed_ = !own_.empty() && !ward_.empty() &&
           ward_meta_.step == own_meta_.step;
  return ok;
}

bool BuddyStore::can_serve(int w) const {
  if (w == my_rank_ && my_rank_ >= 0) return !own_.empty();
  if (w == ward_rank_ && ward_rank_ >= 0)
    return !ward_.empty() && ward_meta_.step == own_meta_.step;
  return false;
}

bool BuddyStore::load(int w, mhd::Fields& out) const {
  if (!can_serve(w)) return false;
  const std::vector<unsigned char>& img = w == my_rank_ ? own_ : ward_;
  CheckpointMetaV2 m;
  return decode_checkpoint_v2(img.data(), img.size(), m, &out, nullptr) ==
         LoadStatus::ok;
}

bool BuddyStore::validate(int w) const {
  if (!can_serve(w)) return false;
  const std::vector<unsigned char>& img = w == my_rank_ ? own_ : ward_;
  CheckpointMetaV2 m;
  return validate_checkpoint_image(img.data(), img.size(), &m) ==
             LoadStatus::ok &&
         m.world_rank == w && m.step == own_meta_.step;
}

bool BuddyStore::repair_ward(const comm::Communicator& world,
                             int deadline_ms) {
  const int n = world.size();
  if (n < 2 || own_.empty()) return true;

  // My ward still holds the authoritative image; I answer my holder.
  const bool ward_ok = validate(ward_rank_);
  if (!ward_ok) obs::count_event(obs::Event::replica_rot_detected);
  if (!refetch_round(world, tag_scrub, !ward_ok, ward_rank_,
                     holder_of(my_rank_, n), own_, ward_rank_, own_meta_.step,
                     deadline_ms, ward_, ward_meta_))
    return false;
  if (!ward_ok) armed_ = true;
  return true;
}

bool BuddyStore::restore_own(mhd::Fields& out, const comm::Communicator& world,
                             int deadline_ms) {
  const int n = world.size();
  if (own_.empty()) return false;

  // Mirror image of the scrub round: my fresh copy lives on my holder,
  // and the flag I answer comes from my ward (whose replica I hold).
  const bool own_ok = validate(my_rank_);
  if (!own_ok) obs::count_event(obs::Event::replica_rot_detected);
  CheckpointMetaV2 m;
  if (n < 2 ? !own_ok
            : !refetch_round(world, tag_restore, !own_ok,
                             holder_of(my_rank_, n), ward_rank_, ward_,
                             my_rank_, own_meta_.step, deadline_ms, own_, m))
    return false;
  return decode_checkpoint_v2(own_.data(), own_.size(), m, &out, nullptr) ==
         LoadStatus::ok;
}

void BuddyStore::corrupt_image(int w, unsigned char mask) {
  std::vector<unsigned char>* img =
      w == my_rank_ ? &own_ : (w == ward_rank_ ? &ward_ : nullptr);
  if (img == nullptr || img->empty()) return;
  // Two thirds in lands well past the header, in field payload bytes.
  (*img)[img->size() * 2 / 3] ^= mask;
}

void BuddyStore::reset() {
  my_rank_ = ward_rank_ = -1;
  own_.clear();
  ward_.clear();
  own_meta_ = CheckpointMetaV2{};
  ward_meta_ = CheckpointMetaV2{};
  armed_ = false;
}

}  // namespace yy::resilience
