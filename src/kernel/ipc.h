// Pipes and loopback sockets.
//
// Both copy payloads through kernel buffer pages in simulated memory, so
// IPC latency includes real (charged) copies; sockets additionally model
// protocol-stack work and sk_buff header writes.  Blocking semantics are
// driven by the caller (the benchmark orchestrates reader/writer task
// switches, which is where Hypernel's TTBR0 trap cost appears).
#pragma once

#include <map>

#include "common/status.h"
#include "common/types.h"
#include "kernel/buddy.h"
#include "kernel/costs.h"
#include "sim/machine.h"

namespace hn::kernel {

class IpcManager {
 public:
  IpcManager(sim::Machine& machine, BuddyAllocator& buddy,
             const KernelCosts& costs)
      : machine_(machine), buddy_(buddy), costs_(costs) {}

  IpcManager(const IpcManager&) = delete;
  IpcManager& operator=(const IpcManager&) = delete;

  Result<u32> create_pipe();
  /// Copy `len` bytes (word multiple) into / out of the pipe buffer.
  Status pipe_write(u32 id, const void* data, u64 len);
  Result<u64> pipe_read(u32 id, void* out, u64 len);
  [[nodiscard]] u64 pipe_fill(u32 id) const;

  Result<u32> create_socket_pair();
  Status socket_send(u32 id, unsigned end, const void* data, u64 len);
  Result<u64> socket_recv(u32 id, unsigned end, void* out, u64 len);

  // --- Snapshot support (sim/snapshot.h) ------------------------------------

  void save_state(sim::SnapWriter& w) const {
    w.put_u64(pipes_.size());
    for (const auto& [id, ch] : pipes_) {
      w.put_u32(id);
      w.put_u64(ch.buf);
      w.put_u64(ch.fill);
    }
    w.put_u64(sockets_.size());
    for (const auto& [id, pair] : sockets_) {
      w.put_u32(id);
      for (const Channel& ch : pair.dir) {
        w.put_u64(ch.buf);
        w.put_u64(ch.fill);
      }
      w.put_u64(pair.skb);
    }
    w.put_u32(next_id_);
  }

  void restore_state(sim::SnapReader& r) {
    r.section("ipc");
    const u64 npipes = r.get_count("pipe");
    pipes_.clear();
    for (u64 i = 0; r.ok() && i < npipes; ++i) {
      const u32 id = r.get_u32();
      Channel ch;
      ch.buf = r.get_u64();
      ch.fill = r.get_u64();
      pipes_.emplace(id, ch);
    }
    const u64 nsockets = r.get_count("socket pair");
    sockets_.clear();
    for (u64 i = 0; r.ok() && i < nsockets; ++i) {
      const u32 id = r.get_u32();
      SocketPair pair;
      for (Channel& ch : pair.dir) {
        ch.buf = r.get_u64();
        ch.fill = r.get_u64();
      }
      pair.skb = r.get_u64();
      sockets_.emplace(id, pair);
    }
    next_id_ = r.get_u32();
    if (r.ok()) check_buffers(r);
  }

 private:
  struct Channel {
    PhysAddr buf = 0;  // one page
    u64 fill = 0;
  };
  struct SocketPair {
    Channel dir[2];     // payload rings, one per direction
    PhysAddr skb = 0;   // shared sk_buff metadata page
  };

  /// Restore check: every buffer and sk_buff page is a distinct page the
  /// buddy has handed out, and every fill is a word count that fits.
  void check_buffers(sim::SnapReader& r) const;

  Status channel_write(Channel& ch, const void* data, u64 len);
  Result<u64> channel_read(Channel& ch, void* out, u64 len);

  sim::Machine& machine_;
  BuddyAllocator& buddy_;
  const KernelCosts& costs_;
  std::map<u32, Channel> pipes_;
  std::map<u32, SocketPair> sockets_;
  u32 next_id_ = 1;
};

}  // namespace hn::kernel
