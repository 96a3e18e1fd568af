#include "serve/tenant.h"

#include <cctype>
#include <cmath>
#include <cstdlib>

namespace exsample {
namespace serve {

const char* SloClassName(SloClass slo) {
  switch (slo) {
    case SloClass::kInteractive:
      return "interactive";
    case SloClass::kBestEffort:
      return "besteffort";
  }
  return "unknown";
}

std::optional<SloClass> ParseSloClass(const std::string& name) {
  if (name == "interactive") return SloClass::kInteractive;
  if (name == "besteffort") return SloClass::kBestEffort;
  return std::nullopt;
}

common::Status ValidateTenantSpec(const TenantSpec& spec) {
  if (spec.id.empty()) {
    return common::Status::InvalidArgument("tenant id must be non-empty");
  }
  for (const char c : spec.id) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                    c == '_' || c == '-';
    if (!ok) {
      return common::Status::InvalidArgument(
          "tenant id '" + spec.id + "' must use only [a-z0-9_-]");
    }
  }
  if (!(spec.weight > 0.0) || !std::isfinite(spec.weight)) {
    return common::Status::InvalidArgument(
        "tenant '" + spec.id + "' weight must be finite and > 0");
  }
  if (spec.rate_limit_per_second < 0.0 ||
      !std::isfinite(spec.rate_limit_per_second)) {
    return common::Status::InvalidArgument(
        "tenant '" + spec.id + "' rate limit must be finite and >= 0");
  }
  if (spec.gpu_seconds_budget < 0.0 || !std::isfinite(spec.gpu_seconds_budget)) {
    return common::Status::InvalidArgument(
        "tenant '" + spec.id + "' GPU-second budget must be finite and >= 0");
  }
  return common::Status::OK();
}

namespace {

common::Status ParseDouble(const std::string& key, const std::string& value,
                           double* out) {
  char* end = nullptr;
  const double parsed = std::strtod(value.c_str(), &end);
  if (end == value.c_str() || *end != '\0') {
    return common::Status::InvalidArgument("tenant spec: bad number for '" +
                                           key + "': " + value);
  }
  *out = parsed;
  return common::Status::OK();
}

common::Status ParseUint(const std::string& key, const std::string& value,
                         uint64_t* out) {
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(value.c_str(), &end, 10);
  if (end == value.c_str() || *end != '\0') {
    return common::Status::InvalidArgument("tenant spec: bad integer for '" +
                                           key + "': " + value);
  }
  *out = parsed;
  return common::Status::OK();
}

}  // namespace

common::Result<TenantSpec> ParseTenantSpec(const std::string& text) {
  TenantSpec spec;
  const size_t colon = text.find(':');
  spec.id = text.substr(0, colon);
  std::string rest = colon == std::string::npos ? "" : text.substr(colon + 1);
  while (!rest.empty()) {
    const size_t comma = rest.find(',');
    const std::string pair = rest.substr(0, comma);
    rest = comma == std::string::npos ? "" : rest.substr(comma + 1);
    const size_t eq = pair.find('=');
    if (eq == std::string::npos) {
      return common::Status::InvalidArgument(
          "tenant spec: expected key=value, got '" + pair + "'");
    }
    const std::string key = pair.substr(0, eq);
    const std::string value = pair.substr(eq + 1);
    common::Status status = common::Status::OK();
    if (key == "weight") {
      status = ParseDouble(key, value, &spec.weight);
    } else if (key == "slo") {
      const std::optional<SloClass> slo = ParseSloClass(value);
      if (!slo.has_value()) {
        return common::Status::InvalidArgument(
            "tenant spec: unknown slo '" + value +
            "' (interactive|besteffort)");
      }
      spec.slo = *slo;
    } else if (key == "rate") {
      status = ParseDouble(key, value, &spec.rate_limit_per_second);
    } else if (key == "budget") {
      status = ParseDouble(key, value, &spec.gpu_seconds_budget);
    } else if (key == "frames") {
      status = ParseUint(key, value, &spec.frame_budget);
    } else if (key == "maxlive") {
      uint64_t v = 0;
      status = ParseUint(key, value, &v);
      spec.max_concurrent_sessions = static_cast<size_t>(v);
    } else if (key == "maxqueue") {
      uint64_t v = 0;
      status = ParseUint(key, value, &v);
      spec.max_queued = static_cast<size_t>(v);
    } else {
      return common::Status::InvalidArgument("tenant spec: unknown key '" +
                                             key + "'");
    }
    if (!status.ok()) return status;
  }
  const common::Status valid = ValidateTenantSpec(spec);
  if (!valid.ok()) return valid;
  return spec;
}

common::Result<size_t> TenantRegistry::Register(const TenantSpec& spec) {
  const common::Status valid = ValidateTenantSpec(spec);
  if (!valid.ok()) return valid;
  if (by_id_.count(spec.id) != 0) {
    return common::Status::InvalidArgument("duplicate tenant id '" + spec.id +
                                           "'");
  }
  const size_t index = tenants_.size();
  tenants_.push_back(Entry{spec, TenantUsage{}});
  by_id_.emplace(spec.id, index);
  return index;
}

std::optional<size_t> TenantRegistry::Find(const std::string& id) const {
  const auto it = by_id_.find(id);
  if (it == by_id_.end()) return std::nullopt;
  return it->second;
}

bool TenantRegistry::OverBudget(size_t tenant) const {
  const Entry& e = tenants_[tenant];
  if (e.spec.gpu_seconds_budget > 0.0 &&
      e.usage.charged_seconds >= e.spec.gpu_seconds_budget) {
    return true;
  }
  if (e.spec.frame_budget > 0 && e.usage.frames >= e.spec.frame_budget) {
    return true;
  }
  return false;
}

void TenantRegistry::ChargeStep(size_t tenant, double seconds_delta,
                                uint64_t frames_delta) {
  TenantUsage& usage = tenants_[tenant].usage;
  usage.charged_seconds += seconds_delta;
  usage.frames += frames_delta;
  usage.steps += 1;
}

void TenantRegistry::OnAdmitted(size_t tenant) {
  TenantUsage& usage = tenants_[tenant].usage;
  usage.admitted += 1;
  usage.live_sessions += 1;
}

void TenantRegistry::OnRejected(size_t tenant) { tenants_[tenant].usage.rejected += 1; }

void TenantRegistry::OnShed(size_t tenant) {
  TenantUsage& usage = tenants_[tenant].usage;
  usage.shed += 1;
  common::Check(usage.live_sessions > 0, "shed without a live session");
  usage.live_sessions -= 1;
}

void TenantRegistry::OnCompleted(size_t tenant) {
  TenantUsage& usage = tenants_[tenant].usage;
  usage.completed += 1;
  common::Check(usage.live_sessions > 0, "completion without a live session");
  usage.live_sessions -= 1;
}

void TenantRegistry::SetQueued(size_t tenant, size_t queued) {
  tenants_[tenant].usage.queued = queued;
}

void TenantRegistry::ExportStats(stats::StatsSnapshot* snapshot) const {
  for (const Entry& e : tenants_) {
    stats::Export(e.usage, "tenant." + e.spec.id + ".", snapshot);
  }
}

}  // namespace serve
}  // namespace exsample
