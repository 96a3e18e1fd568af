// Percentiles, the metric catalog, the printed report, and process
// observation through getrusage and /proc.

#include <sys/resource.h>
#include <unistd.h>

#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "bench.h"

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(const std::vector<double>& values) { return Quantile(values, 0.5); }

std::vector<double> MedianAcrossPasses(const std::vector<std::vector<double>>& by_item) {
  std::vector<double> out;
  for (const std::vector<double>& values : by_item) {
    if (!values.empty()) out.push_back(Median(values));
  }
  return out;
}

namespace {

// Samples strictly above quantile q of n samples, as the rule counts them.
size_t SamplesBeyond(double q, size_t n) {
  return static_cast<size_t>(std::floor(static_cast<double>(n) * (1.0 - q) + 1e-6));
}

std::string Format(const char* fmt, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), fmt, value);
  return buf;
}

}  // namespace

bool QuantileSupported(double q, size_t samples) {
  return SamplesBeyond(q, samples) >= 10;
}

std::optional<double> HighestSupportedQuantile(size_t samples) {
  std::optional<double> best;
  for (const double q : {0.5, 0.9, 0.99, 0.999}) {
    if (QuantileSupported(q, samples)) best = q;
  }
  return best;
}

const std::vector<MetricDef>& MetricCatalog() {
  static const std::vector<MetricDef> catalog = {
      // End to end: what a user of the engine sees.
      {"queries_per_s", "1/s", true,
       "wall seconds of one pass: the pass composed of each query's median "
       "host-scaled pass (analyst), the median host-scaled pass (serve)"},
      {"query_wall_ms_p50", "ms", true, nullptr},
      {"query_wall_ms_p90", "ms", true, nullptr},
      {"query_sim_s_p50", "sim_s", true, nullptr},
      {"query_sim_s_p90", "sim_s", true, nullptr},
      {"first_result_sim_s_p50", "sim_s", true, nullptr},
      {"cpu_s_per_query", "s", true,
       "completed queries; CPU of each query's median host-scaled pass "
       "(analyst), of the median host-scaled pass (serve)"},
      {"peak_rss_mb", "MB", true, nullptr},
      {"setup_s", "s", true, nullptr},
      {"ok_share", "ratio", true, "attempted queries"},
      // Per layer, from the traced run.
      {"datasets.build_ms", "ms", false, nullptr},
      {"engine.session_create_us_p50", "us", false, nullptr},
      {"engine.step_us_p50", "us", false, nullptr},
      {"engine.step_us_p90", "us", false, nullptr},
      {"engine.steps_per_query", "steps/query", false, "completed queries"},
      {"core.pick_us_per_frame", "us/frame", false,
       "frames sampled by exsample, adaptive and hybrid queries"},
      {"core.observe_us_per_frame", "us/frame", false,
       "frames sampled by exsample, adaptive and hybrid queries"},
      {"core.results_per_kframe", "results/kframe", false,
       "1000 frames sampled by exsample, adaptive and hybrid queries"},
      {"samplers.pick_us_per_frame", "us/frame", false,
       "frames sampled by random and random+ queries"},
      {"detect.detect_us_per_frame", "us/frame", false, "frames sampled"},
      {"track.discriminate_us_per_frame", "us/frame", false, "frames sampled"},
      {"video.decode_us_per_frame", "us/frame", false, "frames sampled"},
      {"reuse.classify_us_per_frame", "us/frame", false, "frames sampled"},
      {"reuse.cache_hit_ratio", "ratio", false, "cache lookups (hits + misses)"},
      {"reuse.sketch_skip_ratio", "ratio", false, "frames sampled"},
      {"reuse.evictions_per_kframe", "1/kframe", false, "1000 frames sampled"},
      {"reuse.warm_start_share", "ratio", false, "completed queries"},
      {"reuse.saved_detector_s_per_query", "sim_s/query", false,
       "completed queries"},
      {"query.service.fill_rate", "ratio", false,
       "device batches x device-batch slots"},
      {"query.service.shared_batch_ratio", "ratio", false, "device batches"},
      {"query.service.submit_to_grant_ms_p50", "ms", false, nullptr},
      {"query.service.submit_to_grant_ms_p90", "ms", false, nullptr},
      {"query.transport.rtt_ms_p50", "ms", false, nullptr},
      {"query.transport.rtt_ms_p90", "ms", false, nullptr},
      {"query.transport.wire_batches_per_step", "batches/step", false,
       "session steps"},
      {"query.transport.bytes_per_frame", "B/frame", false,
       "frames detected through the service"},
      {"query.transport.retries", "count", false, nullptr},
      {"query.transport.requeues", "count", false, nullptr},
      {"query.transport.inferred_failures", "count", false, nullptr},
      {"query.transport.late_responses_dropped", "count", false, nullptr},
      {"serve.queue_wait_sim_s_p90", "sim_s", false, nullptr},
      {"serve.live_sessions_mean", "sessions", false,
       "simulated makespan of the stream"},
      {"serve.step_cost_growth", "ratio", false,
       "median per-step wall of the stream's first quarter"},
      {"serve.rss_mb_per_kquery", "MB/kquery", false, "1000 queries served"},
      {"serve.rejected", "count", false, nullptr},
      {"serve.shed", "count", false, nullptr},
      {"shardd.ready_ms", "ms", false, nullptr},
      {"shardd.cpu_ms_per_kframe", "ms/kframe", false,
       "1000 frames detected through the service"},
      {"common.threads_peak", "count", false, nullptr},
      {"common.voluntary_cs_per_step", "1/step", false, "session steps"},
      {"common.involuntary_cs_per_step", "1/step", false, "session steps"},
      {"stats.export_ms", "ms", false, nullptr},
      {"stats.tracing_overhead", "ratio", false,
       "untraced queries_per_s of the same run"},
  };
  return catalog;
}

const MetricDef* FindMetric(const std::string& name) {
  for (const MetricDef& def : MetricCatalog()) {
    if (name == def.name) return &def;
  }
  return nullptr;
}

void Report::Add(const std::string& name, double value, size_t samples,
                 const std::string& note) {
  const MetricDef* def = FindMetric(name);
  if (def == nullptr) {
    Fail("metric '" + name + "' is not in the catalog");
    return;
  }
  if (!std::isfinite(value)) {
    Fail("metric '" + name + "' is not finite");
    value = 0.0;
  }
  std::string text = name + " = " + Format("%.6g", value) + " " + def->unit +
                     " (n=" + std::to_string(samples);
  if (def->base != nullptr) text += "; base: " + std::string(def->base);
  if (!note.empty()) text += "; " + note;
  text += ")";
  entries_.push_back({name, value, text});
}

void Report::AddRatio(const std::string& name, double numerator,
                      double denominator, const std::string& note) {
  const double value = denominator != 0.0 ? numerator / denominator : 0.0;
  std::string terms = Format("%.6g", numerator) + " / " + Format("%.6g", denominator);
  Add(name, value, static_cast<size_t>(std::max(0.0, denominator)),
      note.empty() ? terms : terms + "; " + note);
}

void Report::AddQuantile(const std::string& name,
                         const std::vector<double>& values, double q,
                         double scale) {
  if (!QuantileSupported(q, values.size())) {
    Fail(name + ": " + std::to_string(values.size()) +
         " samples leave fewer than ten beyond the percentile");
  }
  std::string note;
  if (const std::optional<double> top = HighestSupportedQuantile(values.size())) {
    note = "highest supported: p" + Format("%g", *top * 100.0) + " = " +
           Format("%.6g", Quantile(values, *top) * scale);
  }
  Add(name, Quantile(values, q) * scale, values.size(), note);
}

void Report::Note(const std::string& line) { notes_.push_back(line); }

void Report::Fail(const std::string& why) { failures_.push_back(why); }

const Report::Entry* Report::Find(const std::string& name) const {
  for (const Entry& e : entries_) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

std::string Report::HumanLines() const {
  std::string out;
  for (const std::string& note : notes_) out += note + "\n";
  for (const Entry& e : entries_) out += "metric " + e.text + "\n";
  for (const std::string& f : failures_) out += "FAILED " + f + "\n";
  return out;
}

std::string Report::ResultLine(bool end_to_end, uint64_t attempted,
                               uint64_t failed) {
  std::string metrics;
  for (const MetricDef& def : MetricCatalog()) {
    if (def.end_to_end != end_to_end) continue;
    const Entry* entry = Find(def.name);
    if (entry == nullptr) {
      Fail(std::string("metric '") + def.name + "' was not measured");
      continue;
    }
    char buf[160];
    std::snprintf(buf, sizeof(buf), "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  def.name, entry->value, def.unit);
    if (!metrics.empty()) metrics += ", ";
    metrics += buf;
  }
  const bool correct = failures_.empty() && failed == 0;
  return std::string("{\"correct\": ") + (correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(attempted) +
         ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {" +
         metrics + "}}";
}

// ---------------------------------------------------------------------------

void Capture(const engine::QuerySession& session, QueryRecord* record) {
  const query::DiscoveryPoint& final = session.Trace().final;
  record->frames = final.samples;
  record->results = final.reported_results;
  for (size_t s = 0; s < stats::kNumStages; ++s) {
    record->stage_seconds[s] =
        session.stage_timer().TotalSeconds(static_cast<stats::Stage>(s));
  }
  record->reuse = session.reuse_stats();
}

void AddStageMetrics(const std::vector<QueryRecord>& records, Report* report) {
  const auto sampler = [](engine::Method m) {
    return m == engine::Method::kRandom || m == engine::Method::kRandomPlus;
  };
  double core_frames = 0, core_results = 0, sampler_frames = 0, frames = 0;
  double core_pick = 0, core_observe = 0, sampler_pick = 0;
  double stage[stats::kNumStages] = {};
  double hits = 0, misses = 0, skips = 0;
  for (const QueryRecord& r : records) {
    const auto at = [&r](stats::Stage s) {
      return r.stage_seconds[static_cast<size_t>(s)];
    };
    frames += static_cast<double>(r.frames);
    for (size_t s = 0; s < stats::kNumStages; ++s) stage[s] += r.stage_seconds[s];
    if (sampler(r.method)) {
      sampler_frames += static_cast<double>(r.frames);
      sampler_pick += at(stats::Stage::kPick);
    } else {
      core_frames += static_cast<double>(r.frames);
      core_results += static_cast<double>(r.results);
      core_pick += at(stats::Stage::kPick);
      core_observe += at(stats::Stage::kObserve);
    }
    hits += static_cast<double>(r.reuse.cache_hits);
    misses += static_cast<double>(r.reuse.cache_misses);
    skips += static_cast<double>(r.reuse.sketch_skips);
  }
  const auto us = [&stage](stats::Stage s) {
    return stage[static_cast<size_t>(s)] * 1e6;
  };
  report->AddRatio("core.pick_us_per_frame", core_pick * 1e6, core_frames);
  report->AddRatio("core.observe_us_per_frame", core_observe * 1e6, core_frames);
  report->AddRatio("core.results_per_kframe", core_results, core_frames / 1000.0);
  report->AddRatio("samplers.pick_us_per_frame", sampler_pick * 1e6, sampler_frames);
  report->AddRatio("detect.detect_us_per_frame", us(stats::Stage::kDetect), frames);
  report->AddRatio("track.discriminate_us_per_frame",
                   us(stats::Stage::kDiscriminate), frames);
  report->AddRatio("video.decode_us_per_frame", us(stats::Stage::kDecode), frames);
  report->AddRatio("reuse.classify_us_per_frame", us(stats::Stage::kClassify), frames);
  report->AddRatio("reuse.cache_hit_ratio", hits, hits + misses);
  report->AddRatio("reuse.sketch_skip_ratio", skips, frames);
}

Usage SelfUsage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage usage;
  usage.cpu_seconds = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
                      1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
  usage.voluntary_cs = ru.ru_nvcsw;
  usage.involuntary_cs = ru.ru_nivcsw;
  return usage;
}

double ProcessCpuNow() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}


double ProbeSeconds() {
  const double t0 = Now();
  double x = 1.0;
  for (int i = 1; i <= 6000; ++i) {
    const double v = static_cast<double>(i) * 1e-3;
    x = x * 0.999 + std::log1p(v) * std::exp(-v) + std::sqrt(v);
  }
  volatile double sink = x;
  (void)sink;
  return Now() - t0;
}

double ProbeScale(const std::vector<double>& probes) {
  return std::pow(kProbeNominalSeconds / Median(probes), kProbeElasticity);
}

double ProcessCpuSeconds(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  if (!std::getline(in, line)) return 0.0;
  // Fields after the parenthesized command name: state is field 3, utime
  // and stime are fields 14 and 15.
  const size_t close = line.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream fields(line.substr(close + 1));
  std::string field;
  unsigned long long utime = 0, stime = 0;
  for (int index = 3; fields >> field; ++index) {
    if (index == 14) utime = std::strtoull(field.c_str(), nullptr, 10);
    if (index == 15) {
      stime = std::strtoull(field.c_str(), nullptr, 10);
      break;
    }
  }
  return static_cast<double>(utime + stime) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

namespace {

// A "Key:   value kB" line of /proc/self/status.
long StatusField(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const size_t len = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, len, key) == 0 && line.size() > len && line[len] == ':') {
      return std::strtol(line.c_str() + len + 1, nullptr, 10);
    }
  }
  return 0;
}

}  // namespace

double PeakRssMb() { return static_cast<double>(StatusField("VmHWM")) / 1024.0; }
double CurrentRssMb() { return static_cast<double>(StatusField("VmRSS")) / 1024.0; }
int ThreadCount() { return static_cast<int>(StatusField("Threads")); }

}  // namespace perfbench
