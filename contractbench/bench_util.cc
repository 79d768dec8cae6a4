#include "bench_util.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <utility>

#include "influence/coverage_counter.h"
#include "market/workload.h"

namespace contractbench {

namespace mi = mroam::influence;
using mroam::model::BillboardId;

namespace {

/// Keeps the probes' results observable so the timed loops stay.
volatile int64_t g_sink = 0;

void AppendJsonString(std::string* out, const std::string& text) {
  *out += '"';
  for (char c : text) {
    if (c == '"' || c == '\\') {
      *out += '\\';
      *out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      *out += ' ';
    } else {
      *out += c;
    }
  }
  *out += '"';
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace

void Sheet::Add(std::string name, double value, std::string unit,
                int64_t samples) {
  metrics.push_back(
      Metric{std::move(name), value, std::move(unit), samples});
}

void Sheet::Violation(std::string what) {
  std::fprintf(stderr, "contract_bench: output check failed: %s\n",
               what.c_str());
  violations.push_back(std::move(what));
}

std::string Sheet::ToJson(const RunOptions& options) const {
  std::string out = "{\"workload\":";
  AppendJsonString(&out, options.workload);
  out += ",\"seed\":" + std::to_string(options.seed);
  out += ",\"seconds\":" + JsonNumber(options.seconds);
  out += ",\"traced\":";
  out += options.trace_path.empty() ? "false" : "true";
  out += ",\"attempted\":" + std::to_string(attempted);
  out += ",\"failed\":" + std::to_string(failed);
  out += ",\"violations\":[";
  for (size_t i = 0; i < violations.size(); ++i) {
    if (i > 0) out += ",";
    AppendJsonString(&out, violations[i]);
  }
  out += "],\"metrics\":[";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ",";
    out += "{\"name\":";
    AppendJsonString(&out, metrics[i].name);
    out += ",\"value\":" + JsonNumber(metrics[i].value);
    out += ",\"unit\":";
    AppendJsonString(&out, metrics[i].unit);
    out += ",\"n\":" + std::to_string(metrics[i].samples) + "}";
  }
  out += "]}";
  return out;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  // Nearest rank: the smallest value with at least q of the sample at or
  // below it.
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index =
      static_cast<size_t>(std::clamp(rank, 1.0, double(values.size()))) - 1;
  return values[index];
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double RssMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

Boot BootSnapshot(const std::string& path, bool mapped) {
  Boot boot;
  if (mapped) {
    auto result = mroam::io::MappedSnapshot::Map(path);
    if (!result.ok()) {
      std::fprintf(stderr, "contract_bench: cannot map %s: %s\n",
                   path.c_str(), result.status().ToString().c_str());
      std::exit(1);
    }
    boot.mapped =
        std::make_unique<mroam::io::MappedSnapshot>(std::move(*result));
    boot.index = &boot.mapped->index();
  } else {
    auto result = mroam::io::LoadIndexSnapshot(path);
    if (!result.ok()) {
      std::fprintf(stderr, "contract_bench: cannot load %s: %s\n",
                   path.c_str(), result.status().ToString().c_str());
      std::exit(1);
    }
    boot.decoded =
        std::make_unique<mroam::io::IndexSnapshot>(std::move(*result));
    boot.index = &boot.decoded->index;
  }
  return boot;
}

bool DisjointSets(const mi::InfluenceIndex& index,
                  const std::vector<std::vector<BillboardId>>& sets,
                  const std::string& where, Sheet* sheet) {
  bool ok = true;
  std::vector<int64_t> owner(static_cast<size_t>(index.num_billboards()),
                             -1);
  for (size_t i = 0; i < sets.size(); ++i) {
    for (BillboardId o : sets[i]) {
      if (o < 0 || o >= index.num_billboards()) {
        sheet->Violation(where + ": contract " + std::to_string(i) +
                         " holds unknown billboard " + std::to_string(o));
        ok = false;
        continue;
      }
      if (owner[static_cast<size_t>(o)] >= 0) {
        sheet->Violation(where + ": billboard " + std::to_string(o) +
                         " held by contracts " +
                         std::to_string(owner[static_cast<size_t>(o)]) +
                         " and " + std::to_string(i));
        ok = false;
      }
      owner[static_cast<size_t>(o)] = static_cast<int64_t>(i);
    }
  }
  return ok;
}

void CheckPlan(const mi::InfluenceIndex& index,
               const std::vector<mroam::market::Advertiser>& terms,
               const std::vector<std::vector<BillboardId>>& sets,
               double reported_total, int64_t reported_satisfied,
               const std::string& where, Sheet* sheet) {
  if (terms.size() != sets.size()) {
    sheet->Violation(where + ": " + std::to_string(terms.size()) +
                     " contracts but " + std::to_string(sets.size()) +
                     " billboard sets");
    return;
  }
  if (!DisjointSets(index, sets, where, sheet)) return;

  mroam::core::RegretParams full_share = kRegretParams;
  full_share.gamma = 1.0;
  double regret = 0.0;
  double payments = 0.0;
  int64_t satisfied = 0;
  for (size_t i = 0; i < sets.size(); ++i) {
    const mroam::market::Advertiser& a = terms[i];
    const int64_t influence = index.InfluenceOfSet(sets[i]);
    regret += mroam::core::Regret(a, influence, kRegretParams);
    payments += a.payment;
    const bool is_satisfied = mroam::core::Satisfied(a, influence);
    if (is_satisfied) ++satisfied;
    const double dual = mroam::core::DualRevenue(a, influence);
    const double tolerance = 1e-9 * std::max(1.0, a.payment);
    bool identity =
        std::abs(mroam::core::Regret(a, influence, full_share) + dual -
                 a.payment) <= tolerance;
    if (is_satisfied) {
      identity = identity &&
                 std::abs(mroam::core::Regret(a, influence, kRegretParams) +
                          dual - a.payment) <= tolerance;
    }
    if (!identity) {
      sheet->Violation(where + ": R + R' != L for contract " +
                       std::to_string(i));
    }
  }
  if (std::abs(regret - reported_total) > 1e-9 * std::max(1.0, payments)) {
    sheet->Violation(where + ": recounted regret " + JsonNumber(regret) +
                     " != reported " + JsonNumber(reported_total));
  }
  if (satisfied != reported_satisfied) {
    sheet->Violation(where + ": recounted " + std::to_string(satisfied) +
                     " satisfied contracts, reported " +
                     std::to_string(reported_satisfied));
  }
}

void ProbeKernels(const mi::InfluenceIndex& index, uint64_t seed,
                  Sheet* sheet) {
  const int32_t n = index.num_billboards();
  std::vector<BillboardId> order(static_cast<size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  mroam::common::Rng rng(seed ^ 0x6b65726e656cULL);
  rng.Shuffle(order);
  mi::CoverageCounter counter(&index);
  std::vector<bool> member(static_cast<size_t>(n), false);
  for (int32_t k = 0; k < n / 2; ++k) {
    counter.Add(order[static_cast<size_t>(k)]);
    member[static_cast<size_t>(order[static_cast<size_t>(k)])] = true;
  }
  // Each sample sweeps every billboard kSweeps times, so one sample walks
  // a few hundred thousand postings and the clock reads are negligible.
  constexpr int kPasses = 15;
  constexpr int kSweeps = 32;
  const double postings =
      static_cast<double>(index.TotalSupply()) * kSweeps;
  std::vector<double> gain_ns;
  std::vector<double> update_ns;
  for (int pass = 0; pass < kPasses; ++pass) {
    {
      LayerSpan span("bench.influence.gain_probe", pass);
      const auto start = Clock::now();
      int64_t sum = 0;
      for (int sweep = 0; sweep < kSweeps; ++sweep) {
        for (BillboardId o = 0; o < n; ++o) sum += counter.MarginalGain(o);
      }
      const auto end = Clock::now();
      g_sink = g_sink + sum;
      gain_ns.push_back(MsBetween(start, end) * 1e6 / postings);
    }
    {
      LayerSpan span("bench.influence.update_probe", pass);
      const auto start = Clock::now();
      for (int sweep = 0; sweep < kSweeps; ++sweep) {
        for (BillboardId o = 0; o < n; ++o) {
          if (member[static_cast<size_t>(o)]) {
            counter.Remove(o);
            counter.Add(o);
          } else {
            counter.Add(o);
            counter.Remove(o);
          }
        }
      }
      const auto end = Clock::now();
      g_sink = g_sink + counter.influence();
      update_ns.push_back(MsBetween(start, end) * 1e6 / (2.0 * postings));
    }
  }
  sheet->Add("influence.gain_ns_per_posting", Median(gain_ns), "ns", kPasses);
  sheet->Add("influence.update_ns_per_posting", Median(update_ns), "ns",
             kPasses);
}

void ProbeSetCount(const mi::InfluenceIndex& index,
                   const std::vector<std::vector<BillboardId>>& sets,
                   Sheet* sheet) {
  constexpr int kPasses = 5;
  std::vector<double> us;
  for (int pass = 0; pass < kPasses; ++pass) {
    for (size_t i = 0; i < sets.size(); ++i) {
      LayerSpan span("bench.influence.set_count", static_cast<int64_t>(i));
      const auto start = Clock::now();
      g_sink = g_sink + index.InfluenceOfSet(sets[i]);
      us.push_back(MsBetween(start, Clock::now()) * 1e3);
    }
  }
  sheet->Add("influence.set_count_us_p50", Median(us), "us",
             static_cast<int64_t>(us.size()));
}

void ProbeIo(const std::string& path, Sheet* sheet) {
  constexpr int kPasses = 5;
  std::vector<double> load_ms;
  std::vector<double> map_ms;
  for (int pass = 0; pass < kPasses; ++pass) {
    {
      LayerSpan span("bench.io.load", pass);
      const auto start = Clock::now();
      Boot boot = BootSnapshot(path, /*mapped=*/false);
      load_ms.push_back(MsBetween(start, Clock::now()));
    }
    {
      LayerSpan span("bench.io.map", pass);
      const auto start = Clock::now();
      Boot boot = BootSnapshot(path, /*mapped=*/true);
      map_ms.push_back(MsBetween(start, Clock::now()));
    }
  }
  sheet->Add("io.load_ms", Median(load_ms), "ms", kPasses);
  sheet->Add("io.map_ms", Median(map_ms), "ms", kPasses);

  Boot boot = BootSnapshot(path, /*mapped=*/true);
  const auto& postings = boot.index->compressed_covered();
  sheet->Add("influence.postings",
             static_cast<double>(boot.index->TotalSupply()), "count", 1);
  sheet->Add("cindex.bytes_per_posting",
             static_cast<double>(postings.bytes().size()) /
                 static_cast<double>(postings.total_count()),
             "B", 1);
  sheet->Add("io.snapshot_bytes",
             static_cast<double>(std::filesystem::file_size(path)), "B", 1);
}

void AddCoreCounters(const mroam::obs::MetricsSnapshot& before,
                     const mroam::obs::MetricsSnapshot& after, int64_t days,
                     Sheet* sheet) {
  auto delta = [&](const std::string& name) {
    return after.CounterOf(name) - before.CounterOf(name);
  };
  const double d = static_cast<double>(std::max<int64_t>(days, 1));
  const int64_t deltas = delta("greedy.deltas");
  const int64_t hits = delta("greedy.lazy_hits");
  const int64_t bls = delta("bls.deltas_evaluated");
  const int64_t moves = delta("bls.moves_applied");
  sheet->Add("core.greedy_deltas_per_day", static_cast<double>(deltas) / d,
             "count", days);
  sheet->Add("core.lazy_hit_ratio",
             hits + deltas > 0 ? static_cast<double>(hits) /
                                     static_cast<double>(hits + deltas)
                               : 0.0,
             "1", hits + deltas);
  sheet->Add("core.bls_deltas_per_day", static_cast<double>(bls) / d,
             "count", days);
  sheet->Add("core.bls_move_yield",
             bls > 0 ? static_cast<double>(moves) / static_cast<double>(bls)
                     : 0.0,
             "1", bls);
}

std::vector<mroam::market::Advertiser> GenerateTerms(
    const mi::InfluenceIndex& index, int64_t count,
    mroam::common::Rng* rng) {
  mroam::market::WorkloadConfig config;
  config.avg_individual_demand_ratio = 0.01;
  config.alpha = config.avg_individual_demand_ratio *
                 static_cast<double>(std::max<int64_t>(count, 1));
  auto terms =
      mroam::market::GenerateAdvertisers(index.TotalSupply(), config, rng);
  if (!terms.ok()) {
    std::fprintf(stderr, "contract_bench: cannot generate terms: %s\n",
                 terms.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(*terms);
}

}  // namespace contractbench
