#include "util/fault_injection.h"

namespace slampred {

const char* FaultKindToString(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNone:
      return "NONE";
    case FaultKind::kPoisonNaN:
      return "POISON_NAN";
    case FaultKind::kPoisonInf:
      return "POISON_INF";
    case FaultKind::kFailNotConverged:
      return "FAIL_NOT_CONVERGED";
    case FaultKind::kFailNumerical:
      return "FAIL_NUMERICAL";
    case FaultKind::kFailIo:
      return "FAIL_IO";
    case FaultKind::kStall:
      return "STALL";
  }
  return "UNKNOWN";
}

Status InjectedFaultStatus(const std::string& site, std::string_view prefix) {
  const auto message = [prefix](const char* what) {
    return std::string(prefix) + "injected " + what + " fault";
  };
  switch (SLAMPRED_FAULT_HIT(site)) {
    case FaultKind::kNone:
    case FaultKind::kStall:
      return Status::OK();
    case FaultKind::kFailNotConverged:
      return Status::NotConverged(message("not-converged"));
    case FaultKind::kFailIo:
      return Status::IoError(message("io"));
    case FaultKind::kFailNumerical:
    case FaultKind::kPoisonNaN:
    case FaultKind::kPoisonInf:
      return Status::NumericalError(message("numerical"));
  }
  return Status::OK();
}

FaultInjector& FaultInjector::Instance() {
  static FaultInjector* instance = new FaultInjector();
  return *instance;
}

void FaultInjector::Arm(const std::string& site, FaultSpec spec) {
  std::lock_guard<std::mutex> lock(mu_);
  SiteState& state = sites_[site];
  if (!state.armed) armed_sites_.fetch_add(1, std::memory_order_relaxed);
  state.spec = spec;
  state.armed = true;
  state.hits = 0;
  state.triggers = 0;
  state.arming = ++armings_;
  stall_released_.notify_all();
}

void FaultInjector::Disarm(const std::string& site) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sites_.find(site);
  if (it == sites_.end() || !it->second.armed) return;
  it->second.armed = false;
  armed_sites_.fetch_sub(1, std::memory_order_relaxed);
  stall_released_.notify_all();
}

void FaultInjector::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  sites_.clear();
  armed_sites_.store(0, std::memory_order_relaxed);
  stall_released_.notify_all();
}

FaultKind FaultInjector::Hit(const std::string& site) {
  if (armed_sites_.load(std::memory_order_relaxed) == 0) {
    return FaultKind::kNone;
  }
  std::unique_lock<std::mutex> lock(mu_);
  auto it = sites_.find(site);
  if (it == sites_.end() || !it->second.armed) return FaultKind::kNone;
  SiteState& state = it->second;
  const int hit_index = state.hits++;
  if (hit_index < state.spec.trigger_after) return FaultKind::kNone;
  if (state.spec.max_triggers >= 0 &&
      state.triggers >= state.spec.max_triggers) {
    return FaultKind::kNone;
  }
  if (state.spec.every_n > 1) {
    // 1-based index among the eligible hits; only multiples of N fire.
    const int eligible = hit_index - state.spec.trigger_after + 1;
    if (eligible % state.spec.every_n != 0) return FaultKind::kNone;
  }
  ++state.triggers;
  if (state.spec.kind != FaultKind::kStall) return state.spec.kind;
  // The stall lasts while this arming is in force. Look the site up
  // afresh on every wake-up: Reset erases `state`.
  const std::uint64_t arming = state.arming;
  stall_released_.wait(lock, [&] {
    auto found = sites_.find(site);
    return found == sites_.end() || !found->second.armed ||
           found->second.arming != arming;
  });
  return FaultKind::kNone;
}

int FaultInjector::HitCount(const std::string& site) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sites_.find(site);
  return it == sites_.end() ? 0 : it->second.hits;
}

int FaultInjector::TriggerCount(const std::string& site) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sites_.find(site);
  return it == sites_.end() ? 0 : it->second.triggers;
}

}  // namespace slampred
