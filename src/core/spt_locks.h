// Shadow-page-table locking (paper §3.3.2, optimization 3).
//
// KVM's classic shadow MMU serializes every SPT mutation on one per-VM
// "mmu_lock". PVM splits SPT data into three groups, each with its own lock:
//   - inter-shadow-page structure (parent/child links, page collections):
//     one "meta_lock",
//   - intra-shadow-page data (the PTEs inside one shadow page): a per-shadow-
//     page "pt_lock",
//   - reverse mappings (gfn -> SPT entries): a per-gfn "rmap_lock".
// Concurrent page faults on different shadow pages / gfns then proceed in
// parallel; only structural changes serialize. In coarse mode every accessor
// returns the single mmu_lock, so benchmarks can ablate the optimization.

#ifndef PVM_SRC_CORE_SPT_LOCKS_H_
#define PVM_SRC_CORE_SPT_LOCKS_H_

#include <cstdint>
#include <string>
#include <unordered_map>

#include "src/sim/resource.h"
#include "src/sim/simulation.h"

namespace pvm {

class SptLockSet {
 public:
  SptLockSet(Simulation& sim, std::string name, bool fine_grained)
      : sim_(&sim),
        name_(std::move(name)),
        fine_grained_(fine_grained),
        mmu_lock_(sim, name_ + ".mmu_lock"),
        meta_lock_(sim, name_ + ".meta_lock") {}

  bool fine_grained() const { return fine_grained_; }

  // The single coarse lock (always valid; in fine-grained mode it is unused
  // by the fault paths but still guards rare whole-table operations).
  Resource& mmu_lock() { return mmu_lock_; }

  // Lock guarding inter-shadow-page structure.
  Resource& meta_lock() { return fine_grained_ ? meta_lock_ : mmu_lock_; }

  // Lock guarding the PTEs of the shadow page backed by `shadow_table_frame`.
  Resource& pt_lock(std::uint64_t shadow_table_frame) {
    if (!fine_grained_) {
      return mmu_lock_;
    }
    return lazy_lock(pt_locks_, shadow_table_frame, ".pt_lock.");
  }

  // Lock guarding the reverse map of guest frame number `gfn`.
  Resource& rmap_lock(std::uint64_t gfn) {
    if (!fine_grained_) {
      return mmu_lock_;
    }
    return lazy_lock(rmap_locks_, gfn, ".rmap_lock.");
  }

  std::size_t pt_lock_count() const { return pt_locks_.size(); }
  std::size_t rmap_lock_count() const { return rmap_locks_.size(); }

  // True when nothing holds or queues on `gfn`'s rmap lock (fine-grained
  // mode; a lock object that was never created has trivially no holder).
  // Reclaim uses this to skip gfns with a fill or zap in flight. Coarse-mode
  // callers must not rely on it — there the single mmu_lock is typically
  // held by the caller itself.
  bool rmap_lock_idle(std::uint64_t gfn) const {
    const auto it = rmap_locks_.find(gfn);
    return it == rmap_locks_.end() ||
           (it->second.available() && it->second.queue_depth() == 0);
  }

 private:
  // Each lock lives in its map node: node-based maps never relocate their
  // values, so a Resource (registered with the Simulation by address) stays
  // put through rehashes.
  using LockMap = std::unordered_map<std::uint64_t, Resource>;

  Resource& lazy_lock(LockMap& map, std::uint64_t key, const char* suffix) {
    auto it = map.find(key);
    if (it == map.end()) {
      it = map.try_emplace(key, *sim_, name_ + suffix + std::to_string(key)).first;
    }
    return it->second;
  }

  Simulation* sim_;
  std::string name_;
  bool fine_grained_;
  Resource mmu_lock_;
  Resource meta_lock_;
  LockMap pt_locks_;
  LockMap rmap_locks_;
};

}  // namespace pvm

#endif  // PVM_SRC_CORE_SPT_LOCKS_H_
