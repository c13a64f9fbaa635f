#include "kernel/ipc.h"

#include <cassert>
#include <set>
#include <string>

#include "kernel/layout.h"

namespace hn::kernel {

void IpcManager::check_buffers(sim::SnapReader& r) const {
  std::set<PhysAddr> pages;
  auto page_ok = [&](PhysAddr pa) {
    if (buddy_.is_allocated_block(pa, 0) && pages.insert(pa).second) {
      return true;
    }
    r.fail("buffer page " + std::to_string(pa) +
           " is not a distinct allocated page");
    return false;
  };
  auto channel_ok = [&](const Channel& ch) {
    if (!page_ok(ch.buf)) return false;
    if (ch.fill % kWordSize == 0 && ch.fill <= kPageSize) return true;
    r.fail("channel fill " + std::to_string(ch.fill) + " does not fit a page");
    return false;
  };
  for (const auto& [id, ch] : pipes_) {
    if (!channel_ok(ch)) return;
  }
  for (const auto& [id, pair] : sockets_) {
    if (!channel_ok(pair.dir[0]) || !channel_ok(pair.dir[1]) ||
        !page_ok(pair.skb)) {
      return;
    }
  }
}

Result<u32> IpcManager::create_pipe() {
  Result<PhysAddr> page = buddy_.alloc_page();
  if (!page.ok()) return page.status();
  machine_.advance(costs_.page_alloc);
  const u32 id = next_id_++;
  pipes_[id] = Channel{page.value(), 0};
  return id;
}

Status IpcManager::channel_write(Channel& ch, const void* data, u64 len) {
  assert(len % kWordSize == 0 && len <= kPageSize);
  if (ch.fill + len > kPageSize) return Status::OutOfRange("channel full");
  machine_.write_block_bulk(phys_to_virt(ch.buf + ch.fill), data, len);
  ch.fill += len;
  return Status::Ok();
}

Result<u64> IpcManager::channel_read(Channel& ch, void* out, u64 len) {
  assert(len % kWordSize == 0);
  const u64 take = std::min(len, ch.fill);
  if (take == 0) return u64{0};
  machine_.read_block_bulk(phys_to_virt(ch.buf), out, take);
  ch.fill -= take;  // (head index elided: single-reader ping-pong usage)
  return take;
}

Status IpcManager::pipe_write(u32 id, const void* data, u64 len) {
  auto it = pipes_.find(id);
  if (it == pipes_.end()) return Status::NotFound("no such pipe");
  machine_.advance(costs_.pipe_transfer_base);
  return channel_write(it->second, data, len);
}

Result<u64> IpcManager::pipe_read(u32 id, void* out, u64 len) {
  auto it = pipes_.find(id);
  if (it == pipes_.end()) return Status::NotFound("no such pipe");
  machine_.advance(costs_.pipe_transfer_base);
  return channel_read(it->second, out, len);
}

u64 IpcManager::pipe_fill(u32 id) const {
  auto it = pipes_.find(id);
  return it == pipes_.end() ? 0 : it->second.fill;
}

Result<u32> IpcManager::create_socket_pair() {
  SocketPair sp;
  for (Channel& ch : sp.dir) {
    Result<PhysAddr> page = buddy_.alloc_page();
    if (!page.ok()) return page.status();
    ch.buf = page.value();
  }
  Result<PhysAddr> skb = buddy_.alloc_page();
  if (!skb.ok()) return skb.status();
  sp.skb = skb.value();
  machine_.account().charge(costs_.page_alloc * 3);
  const u32 id = next_id_++;
  sockets_[id] = sp;
  return id;
}

Status IpcManager::socket_send(u32 id, unsigned end, const void* data,
                               u64 len) {
  auto it = sockets_.find(id);
  if (it == sockets_.end()) return Status::NotFound("no such socket");
  machine_.advance(costs_.socket_transfer_base);
  // sk_buff header construction: a handful of metadata stores.
  const VirtAddr skb = phys_to_virt(it->second.skb) + (end ? 256 : 0);
  machine_.write64(skb + 0, len);
  machine_.write64(skb + 8, 0x50C4E7);
  machine_.write64(skb + 16, id);
  machine_.write64(skb + 24, end);
  return channel_write(it->second.dir[end], data, len);
}

Result<u64> IpcManager::socket_recv(u32 id, unsigned end, void* out, u64 len) {
  auto it = sockets_.find(id);
  if (it == sockets_.end()) return Status::NotFound("no such socket");
  machine_.advance(costs_.socket_transfer_base);
  const VirtAddr skb = phys_to_virt(it->second.skb) + (end ? 0 : 256);
  machine_.read64(skb + 0);
  machine_.read64(skb + 8);
  return channel_read(it->second.dir[1 - end], out, len);
}

}  // namespace hn::kernel
