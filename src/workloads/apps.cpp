#include "workloads/apps.h"

#include <algorithm>
#include <cassert>
#include <cstdio>

#include "common/rng.h"
#include "kernel/kernel.h"
#include "kernel/layout.h"
#include "sim/irq.h"

namespace hn::workloads {

using kernel::Kernel;
using kernel::Task;

namespace {

u64 scaled(double scale, u64 n, u64 minimum = 1) {
  const u64 v = static_cast<u64>(static_cast<double>(n) * scale);
  return v < minimum ? minimum : v;
}

/// Ensure a file exists (create on first use), return its inode.
u64 ensure_file(Kernel& k, const std::string& path) {
  Result<u64> ino = k.vfs().lookup(path);
  if (ino.ok()) return ino.value();
  Result<u64> created = k.sys_creat(path);
  assert(created.ok());
  return created.value();
}

AppResult finish(hypernel::System& system, const char* name,
                 const hypernel::System::Snapshot& before) {
  AppResult r;
  r.name = name;
  r.cycles = system.cycles_since(before);
  r.us = system.machine().timing().cycles_to_us(r.cycles);
  return r;
}

/// tar/benchmark scratch-buffer behaviour: mmap, touch, munmap.
void scratch_mmap_churn(Kernel& k, u64 pages) {
  Result<VirtAddr> va = k.sys_mmap(pages * kPageSize, /*writable=*/true);
  assert(va.ok());
  for (u64 p = 0; p < pages; ++p) {
    [[maybe_unused]] Status s =
        k.procs().touch_page(va.value() + p * kPageSize, /*write=*/true);
    assert(s.ok());
  }
  [[maybe_unused]] Status um = k.sys_munmap(va.value(), pages * kPageSize);
  assert(um.ok());
}

}  // namespace

AppResult run_whetstone(hypernel::System& system, const AppParams& p) {
  Kernel& k = system.kernel();
  [[maybe_unused]] Result<u64> dir = k.vfs().mkdir("/tmp");
  ensure_file(k, "/tmp/whet.cfg");
  const u64 loops = scaled(p.scale, 12);
  const auto before = system.snapshot();
  for (u64 i = 0; i < loops; ++i) {
    // The FP kernel: dominated by pure computation.
    k.run_user_compute(2'000'000);
    [[maybe_unused]] Status mem = k.run_user_memory(600, 8, p.seed + i);
    assert(mem.ok());
    // Periodic config reads and result spooling, as the harness does.
    for (int s = 0; s < 3; ++s) {
      [[maybe_unused]] Result<kernel::StatInfo> st = k.sys_stat("/tmp/whet.cfg");
      assert(st.ok());
    }
    {
      char path[64];
      std::snprintf(path, sizeof(path), "/tmp/whet.out.%llu",
                    static_cast<unsigned long long>(i));
      Result<u64> ino = k.sys_creat(path);
      assert(ino.ok());
      u64 row[8] = {i, 1, 2, 3, 4, 5, 6, 7};
      [[maybe_unused]] Status w = k.sys_write(ino.value(), 0, row, sizeof(row));
      assert(w.ok());
      [[maybe_unused]] Status ul = k.sys_unlink(path);
      assert(ul.ok());
    }
  }
  return finish(system, "whetstone", before);
}

AppResult run_dhrystone(hypernel::System& system, const AppParams& p) {
  Kernel& k = system.kernel();
  [[maybe_unused]] Result<u64> dir = k.vfs().mkdir("/tmp");
  ensure_file(k, "/tmp/dhry.cfg");
  const u64 loops = scaled(p.scale, 15);
  const auto before = system.snapshot();
  for (u64 i = 0; i < loops; ++i) {
    // Integer/string kernel: compute plus a working set of user memory.
    k.run_user_compute(1'400'000);
    [[maybe_unused]] Status mem = k.run_user_memory(1500, 12, p.seed + i);
    assert(mem.ok());
    for (int s = 0; s < 3; ++s) {
      [[maybe_unused]] Result<kernel::StatInfo> st = k.sys_stat("/tmp/dhry.cfg");
      assert(st.ok());
    }
    if (i % 2 == 1) {
      char path[64];
      std::snprintf(path, sizeof(path), "/tmp/dhry.out.%llu",
                    static_cast<unsigned long long>(i));
      Result<u64> ino = k.sys_creat(path);
      assert(ino.ok());
      [[maybe_unused]] Status ul = k.sys_unlink(path);
      assert(ul.ok());
    }
  }
  return finish(system, "dhrystone", before);
}

AppResult run_untar(hypernel::System& system, const AppParams& p) {
  Kernel& k = system.kernel();
  [[maybe_unused]] Result<u64> root = k.vfs().mkdir("/untar");
  const u64 dirs = scaled(p.scale, 192);
  const u64 files_per_dir = scaled(p.scale, 128, 2);
  std::vector<u8> chunk(4096, 0xA7);
  const auto before = system.snapshot();
  for (u64 d = 0; d < dirs; ++d) {
    char dpath[64];
    std::snprintf(dpath, sizeof(dpath), "/untar/dir%llu",
                  static_cast<unsigned long long>(d));
    [[maybe_unused]] Status md = k.sys_mkdir(dpath);
    assert(md.ok());
    for (u64 f = 0; f < files_per_dir; ++f) {
      char fpath[96];
      std::snprintf(fpath, sizeof(fpath), "%s/file%llu", dpath,
                    static_cast<unsigned long long>(f));
      // tar -x per member: open(create) takes a cred reference, data is
      // written, metadata restored (chmod + utimes re-resolve the path),
      // and the file closes.
      k.procs().cred_get(k.procs().current().cred);
      Result<u64> ino = k.sys_creat(fpath);
      assert(ino.ok());
      for (int c = 0; c < 3; ++c) {
        [[maybe_unused]] Status w =
            k.sys_write(ino.value(), c * chunk.size(), chunk.data(),
                        chunk.size());
        assert(w.ok());
      }
      [[maybe_unused]] Result<kernel::StatInfo> st1 = k.sys_stat(fpath);
      assert(st1.ok());
      [[maybe_unused]] Result<kernel::StatInfo> st2 = k.sys_stat(fpath);
      assert(st2.ok());
      [[maybe_unused]] Result<kernel::StatInfo> st3 = k.sys_stat(fpath);
      assert(st3.ok());
      k.procs().cred_put(k.procs().current().cred);
      // Streaming write-back: the data pages leave the page cache.
      k.vfs().evict_inode_pages(ino.value());
      // Extraction buffers: periodic scratch mapping churn.
      if ((d * files_per_dir + f) % 12 == 11) scratch_mmap_churn(k, 8);
    }
    // Memory pressure evicts cold dentries as the tree grows.
    if (d % 4 == 3) k.vfs().prune_dcache(files_per_dir / 2);
  }
  return finish(system, "untar", before);
}

AppResult run_iozone(hypernel::System& system, const AppParams& p) {
  Kernel& k = system.kernel();
  [[maybe_unused]] Result<u64> dir = k.vfs().mkdir("/io");
  const u64 phases = scaled(p.scale, 36);
  const u64 file_kib = 2048;  // 512 pages: past TLB reach, nested walks bite
  std::vector<u8> buf(64 * 1024, 0x5A);
  const u64 main_ino = ensure_file(k, "/io/iozone.tmp");
  const auto before = system.snapshot();
  for (u64 ph = 0; ph < phases; ++ph) {
    // Each pass re-opens the target: re-resolution plus fstat.
    [[maybe_unused]] Result<kernel::StatInfo> st = k.sys_stat("/io/iozone.tmp");
    assert(st.ok());
    [[maybe_unused]] Result<kernel::StatInfo> st2 = k.sys_stat("/io/iozone.tmp");
    assert(st2.ok());
    [[maybe_unused]] Result<kernel::StatInfo> st3 = k.sys_stat("/io/iozone.tmp");
    assert(st3.ok());
    // Sequential write then read of the working file.
    for (u64 off = 0; off < file_kib * 1024; off += buf.size()) {
      [[maybe_unused]] Status w =
          k.sys_write(main_ino, off, buf.data(), buf.size());
      assert(w.ok());
    }
    for (u64 off = 0; off < file_kib * 1024; off += buf.size()) {
      [[maybe_unused]] Status r =
          k.sys_read(main_ino, off, buf.data(), buf.size());
      assert(r.ok());
    }
    // Each phase boundary creates and removes a small control file.
    {
      char path[64];
      std::snprintf(path, sizeof(path), "/io/ctl.%llu",
                    static_cast<unsigned long long>(ph));
      Result<u64> ino = k.sys_creat(path);
      assert(ino.ok());
      [[maybe_unused]] Status ul = k.sys_unlink(path);
      assert(ul.ok());
    }
  }
  return finish(system, "iozone", before);
}

AppResult run_apache(hypernel::System& system, const AppParams& p) {
  Kernel& k = system.kernel();
  [[maybe_unused]] Result<u64> dir = k.vfs().mkdir("/www");
  // Document corpus: requests hit a rotating subset, so most lookups are
  // dcache hits with a steady miss tail.
  const u64 docs = scaled(p.scale, 96, 4);
  for (u64 i = 0; i < docs; ++i) {
    char path[64];
    std::snprintf(path, sizeof(path), "/www/page%llu.html",
                  static_cast<unsigned long long>(i));
    const u64 ino = ensure_file(k, path);
    [[maybe_unused]] Status w = k.vfs().append_pattern(ino, 8192, p.seed + i);
    assert(w.ok());
  }

  Result<u32> sock = k.sys_socketpair();
  assert(sock.ok());
  Task* server = &k.procs().current();
  Result<u32> client_pid = k.sys_fork();
  assert(client_pid.ok());
  Task* client = k.procs().find(client_pid.value());

  const u64 requests = scaled(p.scale, 2000);
  const u64 cgi_every = 10;
  std::vector<u8> body(8192);
  SplitMix64 rng(p.seed);
  const auto before = system.snapshot();
  // The request/response traffic arrives over the NIC: in a KVM guest each
  // send/receive batch costs a virtio notification trap (MMIO kick) plus
  // the completion interrupt's world switch — overhead the bare-metal and
  // Hypernel configurations do not pay.
  auto virtio_kick = [&] {
    if (k.machine().guest_mode()) {
      k.machine().advance(k.machine().timing().vm_exit +
                          k.machine().timing().vm_entry);
      ++k.machine().counters().vm_exits;
    }
  };
  // RX completion interrupts from the NIC: one per inbound transfer.  In a
  // KVM guest each takes the EL2 route (vGIC injection world switch).
  auto nic_irq = [&] { k.machine().raise_irq(sim::kIrqNet); };
  for (u64 r = 0; r < requests; ++r) {
    // Client sends the request...
    k.procs().switch_to(*client);
    virtio_kick();
    [[maybe_unused]] Status req =
        k.sys_socket_send(sock.value(), 1, kernel::kUserHeapBase, 64);
    assert(req.ok());
    // ...server picks it up, resolves and reads the document...
    k.procs().switch_to(*server);
    virtio_kick();
    nic_irq();
    [[maybe_unused]] Result<u64> got =
        k.sys_socket_recv(sock.value(), 0, kernel::kUserHeapBase, 64);
    assert(got.ok());
    char path[64];
    std::snprintf(path, sizeof(path), "/www/page%llu.html",
                  static_cast<unsigned long long>(rng.next_below(docs)));
    Result<kernel::StatInfo> st = k.sys_stat(path);
    assert(st.ok());
    // open(2) resolves the path again and takes a cred reference.
    [[maybe_unused]] Result<u64> opened = k.vfs().lookup(path);
    assert(opened.ok());
    k.procs().cred_get(k.procs().current().cred);
    // A fresh document fills the buffer exactly; one reloaded from a
    // snapshot of an earlier run has grown past it.
    const u64 len = std::min<u64>(st.value().size, body.size());
    [[maybe_unused]] Status rd = k.sys_read(st.value().ino, 0, body.data(),
                                            len);
    assert(rd.ok());
    k.procs().cred_put(k.procs().current().cred);
    // ...and responds.
    virtio_kick();
    [[maybe_unused]] Status resp =
        k.sys_socket_send(sock.value(), 0, kernel::kUserHeapBase, 512);
    assert(resp.ok());
    k.procs().switch_to(*client);
    virtio_kick();
    nic_irq();
    [[maybe_unused]] Result<u64> resp_got =
        k.sys_socket_recv(sock.value(), 1, kernel::kUserHeapBase, 512);
    assert(resp_got.ok());
    k.procs().switch_to(*server);

    // Every k-th request runs a CGI helper: fork + execve + exit.
    if (r % cgi_every == cgi_every - 1) {
      Result<u32> pid = k.sys_fork();
      assert(pid.ok());
      Task* child = k.procs().find(pid.value());
      k.procs().switch_to(*child);
      [[maybe_unused]] Status e = k.sys_execve();
      assert(e.ok());
      [[maybe_unused]] Status x = k.sys_exit();
      assert(x.ok());
      k.procs().switch_to(*server);
    }
  }
  return finish(system, "apache", before);
}

std::vector<AppResult> run_all_apps(hypernel::System& system,
                                    const AppParams& p) {
  return {run_whetstone(system, p), run_dhrystone(system, p),
          run_untar(system, p), run_iozone(system, p), run_apache(system, p)};
}

AppResult run_app_by_name(hypernel::System& system, const std::string& name,
                          const AppParams& p) {
  if (name == "whetstone") return run_whetstone(system, p);
  if (name == "dhrystone") return run_dhrystone(system, p);
  if (name == "untar") return run_untar(system, p);
  if (name == "iozone") return run_iozone(system, p);
  if (name == "apache") return run_apache(system, p);
  assert(false && "unknown app benchmark");
  return {};
}

}  // namespace hn::workloads
