#include "kernel/vfs.h"

#include <cassert>
#include <cstring>

#include "common/rng.h"
#include "kernel/layout.h"
#include "kernel/objects.h"

namespace hn::kernel {

namespace {

/// FNV-1a over the component name (the d_name_hash word's value).
u64 name_hash(std::string_view name) {
  u64 h = 0xCBF29CE484222325ull;
  for (const char c : name) h = (h ^ static_cast<u8>(c)) * 0x100000001B3ull;
  return h;
}

/// Pack up to 16 name characters into two words (inline short name).
void pack_name(std::string_view name, u64& w0, u64& w1) {
  char buf[16] = {};
  std::memcpy(buf, name.data(), std::min<size_t>(name.size(), sizeof(buf)));
  std::memcpy(&w0, buf, 8);
  std::memcpy(&w1, buf + 8, 8);
}

/// The next component of `path` at or after `pos`, which moves past it;
/// empty once the path is exhausted.  Runs of '/' separate components.
std::string_view next_component(std::string_view path, size_t& pos) {
  while (pos < path.size() && path[pos] == '/') ++pos;
  const size_t start = pos;
  while (pos < path.size() && path[pos] != '/') ++pos;
  return path.substr(start, pos - start);
}

}  // namespace

Vfs::Vfs(sim::Machine& machine, BuddyAllocator& buddy, SlabCache& dentry_slab,
         const KernelCosts& costs)
    : machine_(machine), buddy_(buddy), dentry_slab_(dentry_slab),
      costs_(costs) {
  lock_.bind(machine);
  inodes_.resize(next_ino_);
  inodes_[kRootIno] = std::make_unique<Inode>();
  inodes_[kRootIno]->ino = kRootIno;
  inodes_[kRootIno]->is_dir = true;
  live_inodes_ = 1;
}

Inode* Vfs::find_inode(u64 ino) {
  return ino < inodes_.size() ? inodes_[ino].get() : nullptr;
}

Inode& Vfs::must_inode(u64 ino) {
  Inode* node = find_inode(ino);
  assert(node != nullptr);
  return *node;
}

const Inode* Vfs::inode(u64 ino) const {
  return ino < inodes_.size() ? inodes_[ino].get() : nullptr;
}

void Vfs::write_dentry_word(VirtAddr dva, u64 word, u64 value) {
  [[maybe_unused]] const sim::Access64 r =
      machine_.write64(dva + word * kWordSize, value);
  assert(r.ok && "dentry slab pages must stay writable");
}

VirtAddr Vfs::instantiate_dentry(u64 parent, std::string_view name, u64 ino) {
  Result<VirtAddr> obj = dentry_slab_.alloc();
  assert(obj.ok() && "dentry slab exhausted");
  const VirtAddr dva = obj.value();
  using D = DentryLayout;
  u64 n0 = 0;
  u64 n1 = 0;
  pack_name(name, n0, n1);
  // d_alloc: the dentry identity is established...
  write_dentry_word(dva, D::kLockref, 1);
  write_dentry_word(dva, D::kParent, parent);
  write_dentry_word(dva, D::kNameHash, name_hash(name));
  write_dentry_word(dva, D::kName0, n0);
  write_dentry_word(dva, D::kName1, n1);
  write_dentry_word(dva, D::kOp, kDentryOpsVtable);
  write_dentry_word(dva, D::kSb, 0x5B);
  write_dentry_word(dva, D::kLruNext, dva ^ 0x3333);
  write_dentry_word(dva, D::kLruPrev, dva ^ 0x4444);
  // ...the monitoring hook sits here (post-d_alloc)...
  if (dentry_alloc_hook_) dentry_alloc_hook_(dva);
  // ...then d_instantiate links the inode and hashes the entry: these
  // writes land on already-monitored words.
  write_dentry_word(dva, D::kInode, ino);
  write_dentry_word(dva, D::kFlags, must_inode(ino).is_dir ? 0x10 : 0x4);
  write_dentry_word(dva, D::kHashNext, dva ^ 0x1111);
  write_dentry_word(dva, D::kHashPrev, dva ^ 0x2222);
  const auto lru =
      dcache_lru_.insert(dcache_lru_.end(), DKey{parent, std::string(name)});
  [[maybe_unused]] const bool inserted =
      dcache_.emplace(*lru, CachedDentry{dva, lru}).second;
  assert(inserted && "dentry instantiated twice");
  return dva;
}

void Vfs::dput_touch(VirtAddr dva) {
  using D = DentryLayout;
  // dget/dput pair: the lockref word is cmpxchg-cycled twice, the access
  // timestamp refreshes, and every other lookup rotates the dentry through
  // the LRU list — the hot non-sensitive churn that makes page-granularity
  // monitoring trap so often (Table 2).
  const sim::Access64 c = machine_.read64(dva + D::kLockref * kWordSize);
  assert(c.ok);
  write_dentry_word(dva, D::kLockref, c.value + 1);
  write_dentry_word(dva, D::kLockref, c.value);
  write_dentry_word(dva, D::kTime, ++lookup_serial_);
  if (lookup_serial_ % 2 == 0) {
    write_dentry_word(dva, D::kLruNext, dva ^ (lookup_serial_ << 8));
    write_dentry_word(dva, D::kLruPrev, dva ^ (lookup_serial_ << 9));
  }
}

Result<u64> Vfs::step(u64 parent, std::string_view name) {
  machine_.advance(costs_.dcache_lookup);
  const DKeyView key{parent, name};
  if (auto it = dcache_.find(key); it != dcache_.end()) {
    dput_touch(it->second.dva);
    const sim::Access64 ino = machine_.read64(
        it->second.dva + DentryLayout::kInode * kWordSize);
    assert(ino.ok);
    return ino.value;
  }
  auto child = children_.find(key);
  if (child == children_.end()) {
    return Status::NotFound("vfs: no such entry: " + std::string(name));
  }
  instantiate_dentry(parent, name, child->second);
  return child->second;
}

Result<std::pair<u64, std::string_view>> Vfs::resolve_parent(
    std::string_view path) {
  size_t pos = 0;
  std::string_view name = next_component(path, pos);
  if (name.empty()) return Status::Invalid("vfs: empty path");
  u64 cur = kRootIno;
  for (std::string_view after = next_component(path, pos); !after.empty();
       after = next_component(path, pos)) {
    Result<u64> next = step(cur, name);
    if (!next.ok()) return next.status();
    if (!must_inode(next.value()).is_dir) {
      return Status::Invalid("vfs: path component is not a directory");
    }
    cur = next.value();
    name = after;
  }
  return std::pair<u64, std::string_view>{cur, name};
}

Result<u64> Vfs::alloc_ino(bool is_dir) {
  if (next_ino_ >= kMaxInodes) {
    return Status::OutOfRange("vfs: inode numbers exhausted");
  }
  auto node = std::make_unique<Inode>();
  node->ino = next_ino_++;
  node->is_dir = is_dir;
  inodes_.push_back(std::move(node));
  ++live_inodes_;
  return inodes_.back()->ino;
}

Result<u64> Vfs::create_file(std::string_view path) {
  SpinGuard ns(lock_);
  Result<std::pair<u64, std::string_view>> rp = resolve_parent(path);
  if (!rp.ok()) return rp.status();
  const auto& [parent, name] = rp.value();
  if (children_.contains(DKeyView{parent, name})) {
    return Status::AlreadyExists("vfs: exists: " + std::string(name));
  }
  Result<u64> ino = alloc_ino(/*is_dir=*/false);
  if (!ino.ok()) return ino;
  children_.emplace(DKey{parent, std::string(name)}, ino.value());
  instantiate_dentry(parent, name, ino.value());
  return ino;
}

Result<u64> Vfs::mkdir(std::string_view path) {
  SpinGuard ns(lock_);
  Result<std::pair<u64, std::string_view>> rp = resolve_parent(path);
  if (!rp.ok()) return rp.status();
  const auto& [parent, name] = rp.value();
  if (children_.contains(DKeyView{parent, name})) {
    return Status::AlreadyExists("vfs: exists: " + std::string(name));
  }
  Result<u64> ino = alloc_ino(/*is_dir=*/true);
  if (!ino.ok()) return ino;
  children_.emplace(DKey{parent, std::string(name)}, ino.value());
  instantiate_dentry(parent, name, ino.value());
  return ino;
}

void Vfs::drop_dentry(u64 parent, std::string_view name,
                      bool zap_inode_word) {
  auto it = dcache_.find(DKeyView{parent, name});
  if (it == dcache_.end()) return;
  using D = DentryLayout;
  const VirtAddr dva = it->second.dva;
  if (zap_inode_word) {
    // d_delete: detach the inode and mark the dentry negative — sensitive-
    // word writes a file-hiding rootkit would imitate.
    write_dentry_word(dva, D::kInode, 0);
    write_dentry_word(dva, D::kFlags, 0x0);
  }
  write_dentry_word(dva, D::kHashNext, 0);
  write_dentry_word(dva, D::kHashPrev, 0);
  if (dentry_free_hook_) dentry_free_hook_(dva);
  dentry_slab_.free(dva);
  dcache_lru_.erase(it->second.lru);
  dcache_.erase(it);
}

void Vfs::remove_entry(Children::iterator child) {
  Inode& node = must_inode(child->second);
  drop_dentry(child->first.parent, child->first.name, /*zap_inode_word=*/true);
  if (--node.nlink == 0) {
    for (auto& [idx, frame] : node.pages) buddy_.free_page(frame);
    machine_.account().charge(costs_.page_free * node.pages.size());
    inodes_[node.ino].reset();
    --live_inodes_;
  }
  children_.erase(child);
}

Status Vfs::unlink(std::string_view path) {
  SpinGuard ns(lock_);
  Result<std::pair<u64, std::string_view>> rp = resolve_parent(path);
  if (!rp.ok()) return rp.status();
  const auto& [parent, name] = rp.value();
  auto child = children_.find(DKeyView{parent, name});
  if (child == children_.end()) return Status::NotFound("vfs: no such entry");
  remove_entry(child);
  return Status::Ok();
}

Status Vfs::rename(std::string_view from, std::string_view to) {
  SpinGuard ns(lock_);
  Result<std::pair<u64, std::string_view>> rf = resolve_parent(from);
  if (!rf.ok()) return rf.status();
  Result<std::pair<u64, std::string_view>> rt = resolve_parent(to);
  if (!rt.ok()) return rt.status();
  const auto& [fp, fn] = rf.value();
  const auto& [tp, tn] = rt.value();
  const DKeyView source{fp, fn};
  const DKeyView target{tp, tn};
  auto child = children_.find(source);
  if (child == children_.end()) return Status::NotFound("vfs: no such entry");
  const u64 ino = child->second;

  // Renaming onto an existing name replaces that entry, as unlink would.
  if (!DKeyEq{}(target, source)) {
    if (auto old = children_.find(target); old != children_.end()) {
      remove_entry(old);
    }
  }

  // Rewrite the cached dentry in place (d_move): parent and name words are
  // sensitive — exactly what a file-hiding rootkit would forge.
  if (auto it = dcache_.find(source); it != dcache_.end()) {
    using D = DentryLayout;
    const VirtAddr dva = it->second.dva;
    u64 n0 = 0;
    u64 n1 = 0;
    pack_name(tn, n0, n1);
    write_dentry_word(dva, D::kParent, tp);
    write_dentry_word(dva, D::kNameHash, name_hash(tn));
    write_dentry_word(dva, D::kName0, n0);
    write_dentry_word(dva, D::kName1, n1);
    write_dentry_word(dva, D::kHashNext, dva ^ 0x7777);
    dcache_lru_.erase(it->second.lru);
    dcache_.erase(it);
    const auto lru =
        dcache_lru_.insert(dcache_lru_.end(), DKey{tp, std::string(tn)});
    dcache_.emplace(*lru, CachedDentry{dva, lru});
  }
  children_.erase(child);
  children_.emplace(DKey{tp, std::string(tn)}, ino);
  return Status::Ok();
}

Result<u64> Vfs::lookup(std::string_view path) {
  SpinGuard ns(lock_);
  size_t pos = 0;
  u64 cur = kRootIno;
  for (std::string_view part = next_component(path, pos); !part.empty();
       part = next_component(path, pos)) {
    Result<u64> next = step(cur, part);
    if (!next.ok()) return next.status();
    cur = next.value();
  }
  return cur;
}

Result<StatInfo> Vfs::stat(std::string_view path) {
  SpinGuard ns(lock_);
  machine_.advance(costs_.stat_base);
  Result<u64> ino = lookup(path);
  if (!ino.ok()) return ino.status();
  const Inode& node = must_inode(ino.value());
  StatInfo info;
  info.ino = node.ino;
  info.size = node.size;
  info.is_dir = node.is_dir;
  info.uid = node.uid;
  info.gid = node.gid;
  return info;
}

Result<PhysAddr> Vfs::page_for(u64 ino, u64 pgoff) {
  SpinGuard ns(lock_);
  Inode* node = find_inode(ino);
  if (node == nullptr) return Status::NotFound("vfs: bad inode");
  return ensure_page(*node, pgoff);
}

PhysAddr Vfs::ensure_page(Inode& node, u64 page_index) {
  auto it = node.pages.find(page_index);
  if (it != node.pages.end()) return it->second;
  machine_.advance(costs_.page_cache_op + costs_.page_alloc);
  Result<PhysAddr> frame = buddy_.alloc_page();
  assert(frame.ok() && "page cache allocation failed");
  machine_.phys().zero_range(frame.value(), kPageSize);
  node.pages[page_index] = frame.value();
  return frame.value();
}

Status Vfs::write_file(u64 ino, u64 offset, const void* data, u64 len) {
  SpinGuard ns(lock_);
  Inode* found = find_inode(ino);
  if (found == nullptr) return Status::NotFound("vfs: bad inode");
  Inode& node = *found;
  const auto* p = static_cast<const u8*>(data);
  u64 done = 0;
  while (done < len) {
    const u64 page_index = (offset + done) >> kPageShift;
    const u64 in_page = (offset + done) & kPageMask;
    const u64 chunk = std::min(len - done, kPageSize - in_page);
    const PhysAddr frame = ensure_page(node, page_index);
    machine_.advance(costs_.page_cache_op);
    // Page-cache stores go through the linear map (charged/bus-modelled).
    machine_.write_block_bulk(phys_to_virt(frame + in_page), p + done, chunk);
    done += chunk;
  }
  node.size = std::max(node.size, offset + len);
  node.mtime++;
  return Status::Ok();
}

Status Vfs::read_file(u64 ino, u64 offset, void* out, u64 len) {
  SpinGuard ns(lock_);
  const Inode* found = find_inode(ino);
  if (found == nullptr) return Status::NotFound("vfs: bad inode");
  const Inode& node = *found;
  auto* p = static_cast<u8*>(out);
  u64 done = 0;
  while (done < len) {
    const u64 page_index = (offset + done) >> kPageShift;
    const u64 in_page = (offset + done) & kPageMask;
    const u64 chunk = std::min(len - done, kPageSize - in_page);
    machine_.advance(costs_.page_cache_op);
    auto page = node.pages.find(page_index);
    if (page == node.pages.end()) {
      std::memset(p + done, 0, chunk);  // hole
    } else {
      machine_.read_block_bulk(phys_to_virt(page->second + in_page), p + done,
                               chunk);
    }
    done += chunk;
  }
  return Status::Ok();
}

Status Vfs::append_pattern(u64 ino, u64 len, u64 seed) {
  const Inode* node = find_inode(ino);
  if (node == nullptr) return Status::NotFound("vfs: bad inode");
  SplitMix64 rng(seed);
  std::vector<u8> buf(std::min<u64>(len, kPageSize));
  u64 done = 0;
  const u64 start = node->size;
  while (done < len) {
    const u64 chunk = std::min<u64>(len - done, buf.size());
    for (u64 i = 0; i < chunk; i += 8) {
      const u64 v = rng.next();
      std::memcpy(&buf[i], &v, std::min<u64>(8, chunk - i));
    }
    if (Status s = write_file(ino, start + done, buf.data(), chunk); !s.ok()) {
      return s;
    }
    done += chunk;
  }
  return Status::Ok();
}

void Vfs::evict_inode_pages(u64 ino) {
  Inode* node = find_inode(ino);
  if (node == nullptr) return;
  machine_.account().charge(costs_.page_free * node->pages.size());
  for (auto& [idx, frame] : node->pages) buddy_.free_page(frame);
  node->pages.clear();
}

void Vfs::prune_dcache(u64 n) {
  SpinGuard ns(lock_);
  for (u64 i = 0; i < n && !dcache_lru_.empty(); ++i) {
    const DKey key = dcache_lru_.front();
    drop_dentry(key.parent, key.name, /*zap_inode_word=*/false);
  }
}

VirtAddr Vfs::cached_dentry(u64 parent_ino, std::string_view name) const {
  auto it = dcache_.find(DKeyView{parent_ino, name});
  return it == dcache_.end() ? 0 : it->second.dva;
}

void Vfs::save_state(sim::SnapWriter& w) const {
  w.put_u64(live_inodes_);
  for (u64 ino = 0; ino < inodes_.size(); ++ino) {
    const Inode* node = inodes_[ino].get();
    if (node == nullptr) continue;
    w.put_u64(ino);
    w.put_u64(node->ino);
    w.put_bool(node->is_dir);
    w.put_u64(node->size);
    w.put_u64(node->nlink);
    w.put_u64(node->uid);
    w.put_u64(node->gid);
    w.put_u64(node->mtime);
    w.put_u64(node->pages.size());
    for (const auto& [pgoff, frame] : node->pages) {
      w.put_u64(pgoff);
      w.put_u64(frame);
    }
  }
  w.put_u64(children_.size());
  for (const auto* child : sim::sorted_entries(children_)) {
    w.put_u64(child->first.parent);
    w.put_string(child->first.name);
    w.put_u64(child->second);
  }
  w.put_u64(dcache_.size());
  for (const auto* cached : sim::sorted_entries(dcache_)) {
    w.put_u64(cached->first.parent);
    w.put_string(cached->first.name);
    w.put_u64(cached->second.dva);
  }
  w.put_u64(dcache_lru_.size());
  for (const DKey& key : dcache_lru_) {
    w.put_u64(key.parent);
    w.put_string(key.name);
  }
  w.put_u64(next_ino_);
  w.put_u64(lookup_serial_);
  lock_.save_state(w);
}

void Vfs::restore_state(sim::SnapReader& r) {
  r.section("vfs");
  const u64 ninodes = r.get_count("inode");
  inodes_.clear();
  live_inodes_ = 0;
  for (u64 i = 0; r.ok() && i < ninodes; ++i) {
    const u64 key = r.get_u64();
    auto node = std::make_unique<Inode>();
    node->ino = r.get_u64();
    node->is_dir = r.get_bool();
    node->size = r.get_u64();
    node->nlink = r.get_u64();
    node->uid = r.get_u64();
    node->gid = r.get_u64();
    node->mtime = r.get_u64();
    const u64 npages = r.get_count("page cache");
    // Saved in ascending key order (std::map iteration), so hinted
    // inserts are amortized O(1).
    for (u64 p = 0; r.ok() && p < npages; ++p) {
      const u64 pgoff = r.get_u64();
      node->pages.emplace_hint(node->pages.end(), pgoff, r.get_u64());
    }
    if (!r.ok()) return;
    // Ascending numbers: each key lands past every slot filled so far.
    if (key < inodes_.size() || key >= kMaxInodes || node->ino != key) {
      r.fail("inode " + std::to_string(key) +
             " is out of order, out of range or numbered apart from its key");
      return;
    }
    inodes_.resize(key + 1);
    inodes_[key] = std::move(node);
    ++live_inodes_;
  }
  const u64 nchildren = r.get_count("directory entry");
  children_.clear();
  for (u64 i = 0; r.ok() && i < nchildren; ++i) {
    DKey key{r.get_u64(), r.get_string()};
    children_.emplace(std::move(key), r.get_u64());
  }
  const u64 ndcache = r.get_count("dcache entry");
  dcache_.clear();
  dcache_lru_.clear();
  for (u64 i = 0; r.ok() && i < ndcache; ++i) {
    DKey key{r.get_u64(), r.get_string()};
    // The LRU's end() marks an entry the LRU has not placed yet.
    dcache_.emplace(std::move(key),
                    CachedDentry{r.get_u64(), dcache_lru_.end()});
  }
  // The LRU must name every cached dentry exactly once.
  const u64 nlru = r.get_count("dcache LRU entry");
  for (u64 i = 0; r.ok() && i < nlru; ++i) {
    DKey key{r.get_u64(), r.get_string()};
    auto it = dcache_.find(key);
    if (it == dcache_.end() || it->second.lru != dcache_lru_.end()) {
      r.fail("LRU entry names no cached dentry, or one twice");
      return;
    }
    it->second.lru = dcache_lru_.insert(dcache_lru_.end(), std::move(key));
  }
  if (r.ok() && dcache_lru_.size() != dcache_.size()) {
    r.fail("LRU omits a cached dentry");
    return;
  }
  next_ino_ = r.get_u64();
  lookup_serial_ = r.get_u64();
  if (r.ok() && (next_ino_ < inodes_.size() || next_ino_ > kMaxInodes)) {
    r.fail("inode bound " + std::to_string(next_ino_) +
           " is below a live inode or past the inode table");
    return;
  }
  inodes_.resize(next_ino_);
  lock_.restore_state(r);
}

}  // namespace hn::kernel
