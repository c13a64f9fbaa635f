#include "secapps/object_monitor.h"

#include <bit>
#include <cassert>
#include <string>
#include <utility>

#include "common/hvc_abi.h"
#include "common/log.h"
#include "kernel/layout.h"
#include "kernel/vfs.h"

namespace hn::secapps {

using kernel::CredLayout;
using kernel::DentryLayout;
using kernel::ObjectKind;

ObjectIntegrityMonitor::ObjectIntegrityMonitor(hypernel::System& system,
                                               Granularity granularity,
                                               bool watch_cred,
                                               bool watch_dentry, u64 sid)
    : system_(system), granularity_(granularity), watch_cred_(watch_cred),
      watch_dentry_(watch_dentry), sid_(sid) {}

std::vector<ObjectIntegrityMonitor::Range>
ObjectIntegrityMonitor::ranges_for(ObjectKind kind) const {
  if (granularity_ == Granularity::kWholeObject) {
    return {Range{0, kernel::object_words(kind)}};
  }
  // Coalesce the sensitive word list into contiguous runs: each run is one
  // kMonRegister hypercall and one bitmap update burst.
  std::vector<Range> out;
  for (const u64 w : kernel::sensitive_words(kind)) {
    if (!out.empty() && out.back().word + out.back().words == w) {
      ++out.back().words;
    } else {
      out.push_back(Range{w, 1});
    }
  }
  return out;
}

Status ObjectIntegrityMonitor::install() {
  assert(!installed_);
  if (Status s = system_.register_security_app(*this); !s.ok()) return s;
  kernel::Kernel& k = system_.kernel();
  if (watch_cred_) {
    k.set_object_hooks(
        ObjectKind::kCred,
        [this](VirtAddr va) { hook_alloc(ObjectKind::kCred, va); },
        [this](VirtAddr va) { hook_free(ObjectKind::kCred, va); });
    // Objects alive before installation (the init task's cred).
    for (const kernel::Task* task : k.procs().all_tasks()) {
      hook_alloc(ObjectKind::kCred, task->cred);
    }
  }
  if (watch_dentry_) {
    k.set_object_hooks(
        ObjectKind::kDentry,
        [this](VirtAddr va) { hook_alloc(ObjectKind::kDentry, va); },
        [this](VirtAddr va) { hook_free(ObjectKind::kDentry, va); });
  }
  installed_ = true;
  return Status::Ok();
}

void ObjectIntegrityMonitor::hook_alloc(ObjectKind kind, VirtAddr va) {
  // Kernel-context hook (§5.3 step 1): one hypercall per monitored range.
  const PhysAddr base_pa = kernel::virt_to_phys(va);
  ObjectRecord& rec = objects_[base_pa];
  rec.kind = kind;
  ++stats_.objects_registered;
  for (const Range& r : ranges_for(kind)) {
    const u64 rc = system_.machine().hvc(
        hvc::kMonRegister, {sid_, va + r.word * kWordSize, r.words * kWordSize});
    if (rc != hvc::kOk) {
      HN_LOG_WARN("secapp", "region registration failed (va=%llx)",
                  static_cast<unsigned long long>(va));
    }
    for (u64 w = r.word; w < r.word + r.words; ++w) {
      // Baseline the verification state from the object's current
      // contents (cred objects arrive zeroed; dentries already carry
      // their d_alloc identity at hook time).
      rec.shadow[w] = system_.machine().el2_read64(base_pa + w * kWordSize);
      rec.shadowed |= static_cast<u16>(1u << w);
    }
  }
}

void ObjectIntegrityMonitor::hook_free(ObjectKind kind, VirtAddr va) {
  ++stats_.objects_unregistered;
  for (const Range& r : ranges_for(kind)) {
    system_.machine().hvc(
        hvc::kMonUnregister,
        {sid_, va + r.word * kWordSize, r.words * kWordSize});
  }
  objects_.erase(kernel::virt_to_phys(va));
}

hypersec::AppVerdict ObjectIntegrityMonitor::on_write_event(
    const mbm::MonitorEvent& event, const hypersec::RegionInfo& region) {
  (void)region;
  // EL2 verification work for one event.
  system_.machine().advance(90);
  ++stats_.events_total;

  const PhysAddr base = event.paddr & ~(kObjectBytes - 1);
  auto it = objects_.find(base);
  if (it == objects_.end()) {
    return hypersec::AppVerdict::kBenign;  // freed while event in flight
  }
  ObjectRecord& rec = it->second;
  if (rec.kind == ObjectKind::kCred) {
    ++stats_.events_cred;
  } else {
    ++stats_.events_dentry;
  }

  const u64 word = (event.paddr - base) / kWordSize;
  const auto bit = static_cast<u16>(1u << word);
  const u64 old_value = (rec.shadowed & bit) != 0 ? rec.shadow[word] : 0;
  const size_t alerts_before = alerts_.size();
  verify(rec.kind, word, base, old_value, event.value);
  rec.shadow[word] = event.value;
  rec.shadowed |= bit;
  return alerts_.size() > alerts_before ? hypersec::AppVerdict::kAlert
                                        : hypersec::AppVerdict::kBenign;
}

void ObjectIntegrityMonitor::verify(ObjectKind kind, u64 word, PhysAddr pa,
                                    u64 old_value, u64 new_value) {
  auto alert = [&](AlertKind what, const char* reason) {
    alerts_.push_back(Alert{what, pa, word, old_value, new_value,
                            system_.machine().account().cycles(), reason});
    HN_LOG_INFO("secapp", "ALERT %s (pa=%llx word=%llu %llx->%llx)", reason,
                static_cast<unsigned long long>(pa),
                static_cast<unsigned long long>(word),
                static_cast<unsigned long long>(old_value),
                static_cast<unsigned long long>(new_value));
  };

  if (kind == ObjectKind::kCred) {
    const bool is_id_word =
        word >= CredLayout::kUid && word <= CredLayout::kFsgid;
    if (is_id_word && new_value == 0 && old_value != 0) {
      alert(AlertKind::kCredIdLowered, "cred identity lowered to root");
    }
    const bool is_cap_word = word >= CredLayout::kCapInheritable &&
                             word <= CredLayout::kCapEffective;
    if (is_cap_word && new_value == ~u64{0} && old_value != 0 &&
        old_value != ~u64{0}) {
      alert(AlertKind::kCredCapEscalated, "capability mask escalated to full");
    }
    return;
  }

  // Dentry policy.
  if (word == DentryLayout::kOp && new_value != kernel::kDentryOpsVtable &&
      new_value != 0) {
    alert(AlertKind::kDentryOpsHooked, "dentry operations vtable hooked");
  }
  if (word == DentryLayout::kInode && old_value != 0 && new_value != 0 &&
      new_value != old_value) {
    alert(AlertKind::kDentryInodeHijacked, "dentry inode pointer hijacked");
  }
}

void ObjectIntegrityMonitor::save_state(sim::SnapWriter& w) const {
  w.put_bool(installed_);
  // Shadow words in address order, then objects in address order.  The
  // objects are disjoint, so walking the records by base and each
  // record's words by index yields the first order too.
  const auto objects = sim::sorted_entries(objects_);
  u64 nshadow = 0;
  for (const auto* obj : objects) {
    nshadow += static_cast<u64>(std::popcount(obj->second.shadowed));
  }
  w.put_u64(nshadow);
  for (const auto* obj : objects) {
    const auto& [base, rec] = *obj;
    for (u64 word = 0; word < kObjectWords; ++word) {
      if ((rec.shadowed >> word) & 1u) {
        w.put_u64(base + word * kWordSize);
        w.put_u64(rec.shadow[word]);
      }
    }
  }
  w.put_u64(objects.size());
  for (const auto* obj : objects) {
    w.put_u64(obj->first);
    w.put_u8(static_cast<u8>(obj->second.kind));
  }
  w.put_u64(stats_.events_total);
  w.put_u64(stats_.events_cred);
  w.put_u64(stats_.events_dentry);
  w.put_u64(stats_.objects_registered);
  w.put_u64(stats_.objects_unregistered);
  save_alerts(w, alerts_);
}

void ObjectIntegrityMonitor::restore_state(sim::SnapReader& r) {
  r.section("object monitor");
  installed_ = r.get_bool();
  // The shadow words come before the objects they belong to.
  const u64 nshadow = r.get_count("shadow word");
  std::vector<std::pair<PhysAddr, u64>> shadow;
  for (u64 i = 0; r.ok() && i < nshadow; ++i) {
    const PhysAddr pa = r.get_u64();
    shadow.emplace_back(pa, r.get_u64());
  }
  const u64 nobjects = r.get_count("object");
  objects_.clear();
  for (u64 i = 0; r.ok() && i < nobjects; ++i) {
    const PhysAddr base = r.get_u64();
    const auto kind = static_cast<ObjectKind>(r.get_u8());
    objects_.emplace(base, ObjectRecord{.kind = kind});
  }
  for (const auto& [pa, value] : shadow) {
    auto it = objects_.find(pa & ~(kObjectBytes - 1));
    if (it == objects_.end() || pa % kWordSize != 0) {
      r.fail("shadow word " + std::to_string(pa) +
             " is not a word of any tracked object");
      return;
    }
    const u64 word = (pa - it->first) / kWordSize;
    it->second.shadow[word] = value;
    it->second.shadowed |= static_cast<u16>(1u << word);
  }
  stats_.events_total = r.get_u64();
  stats_.events_cred = r.get_u64();
  stats_.events_dentry = r.get_u64();
  stats_.objects_registered = r.get_u64();
  stats_.objects_unregistered = r.get_u64();
  restore_alerts(r, alerts_);
}

}  // namespace hn::secapps
