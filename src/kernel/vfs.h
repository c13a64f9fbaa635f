// Minimal virtual filesystem: inodes, a dentry cache, and a page cache.
//
// Faithful in the dimension that matters to the evaluation: every dentry
// is a slab object in simulated memory whose fields are written through
// charged machine accesses, so path lookups, file creation, rename and
// unlink generate exactly the kernel-object write traffic the MBM counts
// in Table 2 (refcount/LRU churn on non-sensitive words; name/inode/ops
// updates on sensitive words).
#pragma once

#include <functional>
#include <list>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "kernel/buddy.h"
#include "kernel/costs.h"
#include "kernel/slab.h"
#include "kernel/spinlock.h"
#include "sim/machine.h"

namespace hn::kernel {

struct Inode {
  u64 ino = 0;
  bool is_dir = false;
  u64 size = 0;
  u64 nlink = 1;
  u64 uid = 0;
  u64 gid = 0;
  u64 mtime = 0;
  std::map<u64, PhysAddr> pages;  // page cache: page index -> frame
};

struct StatInfo {
  u64 ino = 0;
  u64 size = 0;
  bool is_dir = false;
  u64 uid = 0;
  u64 gid = 0;
};

/// Sentinel value stored in the d_op word of every healthy dentry; the
/// dentry-integrity security application verifies it (a rootkit that hooks
/// dentry operations overwrites this pointer).
inline constexpr u64 kDentryOpsVtable = 0xDE47'0050'0000'0001ull;

class Vfs {
 public:
  using DentryHook = std::function<void(VirtAddr dva)>;

  Vfs(sim::Machine& machine, BuddyAllocator& buddy, SlabCache& dentry_slab,
      const KernelCosts& costs);
  // dcache_ entries hold iterators into this object's own LRU list.
  Vfs(const Vfs&) = delete;
  Vfs& operator=(const Vfs&) = delete;

  /// Dentry-lifetime hooks for security applications.  The alloc hook
  /// fires at the d_alloc point — after the identity fields (name, parent,
  /// d_op) are initialised but before d_instantiate links the inode — so
  /// the instantiation writes are already monitored, matching where the
  /// paper's kernel patch places its hook (§5.3 step 1).  The free hook
  /// fires after d_delete's teardown writes, before the slab free.
  void set_dentry_hooks(DentryHook on_alloc, DentryHook on_free) {
    dentry_alloc_hook_ = std::move(on_alloc);
    dentry_free_hook_ = std::move(on_free);
  }

  /// Write-back model: drop the inode's page-cache frames (memory pressure
  /// / streaming writeback).  Charged per released page.
  void evict_inode_pages(u64 ino);

  // --- Namespace operations -------------------------------------------------
  Result<u64> create_file(std::string_view path);
  Result<u64> mkdir(std::string_view path);
  Status unlink(std::string_view path);
  Status rename(std::string_view from, std::string_view to);
  Result<u64> lookup(std::string_view path);  // resolves to an inode number
  Result<StatInfo> stat(std::string_view path);

  // --- Data operations (page cache) ------------------------------------------
  Status write_file(u64 ino, u64 offset, const void* data, u64 len);
  /// Page-cache frame for page `pgoff` of `ino`, allocating (zeroed) if
  /// absent — the backing store for file mmap.
  Result<PhysAddr> page_for(u64 ino, u64 pgoff);
  Status read_file(u64 ino, u64 offset, void* out, u64 len);
  /// Convenience: append `len` bytes of a deterministic pattern.
  Status append_pattern(u64 ino, u64 len, u64 seed);

  // --- Dentry cache management ------------------------------------------------
  /// Evict up to `n` least-recently-created cached dentries (memory
  /// pressure churn; frees slab objects => unregister hooks fire).
  void prune_dcache(u64 n);
  [[nodiscard]] u64 dcache_size() const { return dcache_.size(); }
  /// Dentry VA for a cached path component, 0 when not cached (tests).
  [[nodiscard]] VirtAddr cached_dentry(u64 parent_ino,
                                       std::string_view name) const;

  [[nodiscard]] const Inode* inode(u64 ino) const;
  [[nodiscard]] u64 root_ino() const { return kRootIno; }
  [[nodiscard]] u64 inode_count() const { return live_inodes_; }
  /// One past the highest inode number ever issued: the iteration bound
  /// for whole-filesystem walks (fingerprinting), since inode numbers are
  /// never reused.
  [[nodiscard]] u64 ino_bound() const { return next_ino_; }

  /// Inode numbers this filesystem can issue: the inode table is dense by
  /// number, so a restored snapshot may not claim more.
  static constexpr u64 kMaxInodes = u64{1} << 20;

  // --- Snapshot support (sim/snapshot.h) ------------------------------------
  // Every table is written in ascending key order: inodes by number,
  // directory and dcache entries by (parent, name).

  void save_state(sim::SnapWriter& w) const;
  /// Fails `r` on inodes out of order, numbered at or past the restored
  /// inode bound or apart from their key, an inode bound past kMaxInodes,
  /// and an LRU that does not name every cached dentry exactly once.
  void restore_state(sim::SnapReader& r);

 private:
  static constexpr u64 kRootIno = 1;

  struct DKey {
    u64 parent;
    std::string name;
    auto operator<=>(const DKey&) const = default;
  };
  /// A key as a path walk sees it: the name is a view into the path.
  struct DKeyView {
    u64 parent;
    std::string_view name;
  };
  /// Hash and equality are transparent, so a lookup by DKeyView builds no
  /// string.  std::hash<std::string_view> equals std::hash<std::string>:
  /// a DKeyView lands in its DKey's bucket.
  struct DKeyHash {
    using is_transparent = void;
    u64 operator()(const DKeyView& k) const {
      return std::hash<std::string_view>{}(k.name) ^ k.parent;
    }
    u64 operator()(const DKey& k) const {
      return (*this)(DKeyView{k.parent, k.name});
    }
  };
  struct DKeyEq {
    using is_transparent = void;
    template <class A, class B>
    bool operator()(const A& a, const B& b) const {
      return a.parent == b.parent && a.name == b.name;
    }
  };
  /// A cached dentry object and its place in the prune order, so dropping
  /// or moving it is O(1) in the LRU.
  struct CachedDentry {
    VirtAddr dva = 0;
    std::list<DKey>::iterator lru;
  };

  Inode* find_inode(u64 ino);
  Inode& must_inode(u64 ino);
  /// Resolve all but the last component; returns parent ino and leaf name
  /// (a view into `path`).
  Result<std::pair<u64, std::string_view>> resolve_parent(
      std::string_view path);
  /// One component step: dcache hit (refcount churn) or miss (dentry
  /// instantiation with full field initialisation).
  Result<u64> step(u64 parent, std::string_view name);
  VirtAddr instantiate_dentry(u64 parent, std::string_view name, u64 ino);
  void write_dentry_word(VirtAddr dva, u64 word, u64 value);
  void dput_touch(VirtAddr dva);
  void drop_dentry(u64 parent, std::string_view name, bool zap_inode_word);
  /// unlink's core: drop the entry's dentry (d_delete), remove the entry,
  /// and free the inode with its last link.
  using Children = std::unordered_map<DKey, u64, DKeyHash, DKeyEq>;
  void remove_entry(Children::iterator child);
  Result<u64> alloc_ino(bool is_dir);
  PhysAddr ensure_page(Inode& node, u64 page_index);

  sim::Machine& machine_;
  BuddyAllocator& buddy_;
  SlabCache& dentry_slab_;
  const KernelCosts& costs_;
  std::vector<std::unique_ptr<Inode>> inodes_;  // by number; null once freed
  u64 live_inodes_ = 0;
  // Directory entries (the on-"disk" truth) and cached dentry objects.
  Children children_;
  std::unordered_map<DKey, CachedDentry, DKeyHash, DKeyEq> dcache_;
  std::list<DKey> dcache_lru_;  // prune order: creation, renames at the back
  u64 next_ino_ = 2;
  u64 lookup_serial_ = 0;  // drives periodic LRU-touch writes
  SpinLock lock_;          // namespace + dcache lock (dcache_lock analogue)
  DentryHook dentry_alloc_hook_;
  DentryHook dentry_free_hook_;
};

}  // namespace hn::kernel
