// replan_churn: the replanner alone, in process and without sockets.
//
// A DailyMarket with the incremental policy, BLS full solves and 10-day
// terms takes 4 arrivals a day; every third day the oldest active
// contract is cancelled. Every 10th day the book goes through ExportBook
// into a fresh DailyMarket and RestoreBook — the path a restart from a
// v2 snapshot takes — so the next day has no drift anchor and runs a
// full solve. The schedule depends only on the seed and the day count,
// so regret, satisfaction and the core work counts repeat exactly.

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "core/daily_market.h"
#include "workloads.h"

namespace contractbench {

namespace core = mroam::core;

namespace {

constexpr int kArrivalsPerDay = 4;
constexpr int kCancelEvery = 3;
constexpr int kRestoreEvery = 10;
constexpr int kBoots = 15;

}  // namespace

void RunReplanChurn(const RunOptions& options, Sheet* sheet) {
  // Boot: decoded snapshot load, several times; the last boot serves.
  std::vector<double> boot_s;
  double rss_mb = 0.0;
  Boot boot;
  for (int k = 0; k < kBoots; ++k) {
    boot = Boot{};
    const double rss_before = RssMiB();
    const auto start = Clock::now();
    {
      LayerSpan span("bench.io.load", k);
      boot = BootSnapshot(options.snapshot, /*mapped=*/false);
    }
    boot_s.push_back(MsBetween(start, Clock::now()) / 1e3);
    if (k == 0) rss_mb = RssMiB() - rss_before;
  }
  sheet->Add("setup_s", Median(boot_s), "s", kBoots);
  sheet->Add("setup_rss_mb", rss_mb, "MiB", 1);
  const mroam::influence::InfluenceIndex& index = *boot.index;

  // Enough days that p95 has at least 10 samples beyond it, scaled with
  // the run length; a multiple of the restore period.
  const int days = std::max(
      200, static_cast<int>(options.seconds * 1.2) * kRestoreEvery);
  mroam::common::Rng terms_rng(options.seed ^ 0x636875726eULL);
  const std::vector<mroam::market::Advertiser> terms =
      GenerateTerms(index, static_cast<int64_t>(days) * kArrivalsPerDay,
                    &terms_rng);

  core::DailyMarketConfig config;
  config.solver.method = core::Method::kBls;
  config.solver.seed = options.seed;
  config.contract_duration_days = 10;
  config.policy = core::ReplanPolicy::kIncremental;
  auto market = std::make_unique<core::DailyMarket>(&index, config);

  std::vector<double> day_ms;
  std::vector<double> greedy_ms;
  std::vector<double> search_ms;
  std::vector<double> other_ms;
  std::vector<double> full_ms;
  std::vector<double> restore_ms;
  double regret = 0.0;
  double payments = 0.0;
  int64_t satisfied = 0;
  int64_t contracts = 0;
  int64_t reoptimized = 0;
  int64_t touched = 0;
  int64_t cancels = 0;
  size_t next = 0;

  const mroam::obs::MetricsSnapshot before =
      mroam::obs::MetricsRegistry::Global().Snapshot();
  for (int day = 1; day <= days; ++day) {
    if (day % kCancelEvery == 0 && !market->ActiveTickets().empty()) {
      const auto& tickets = market->ActiveTickets();
      market->Cancel(*std::min_element(tickets.begin(), tickets.end()));
      ++cancels;
    }
    std::vector<mroam::market::Advertiser> arrivals(
        terms.begin() + static_cast<ptrdiff_t>(next),
        terms.begin() + static_cast<ptrdiff_t>(next + kArrivalsPerDay));
    next += kArrivalsPerDay;

    const auto start = Clock::now();
    core::DayResult result;
    {
      LayerSpan span("bench.core.advance_day", day);
      result = market->AdvanceDay(std::move(arrivals));
    }
    const double ms = MsBetween(start, Clock::now());

    // Output check, outside the timed call.
    const std::string where = "day " + std::to_string(day);
    CheckPlan(index, market->ActiveTerms(), market->ActiveSets(),
              result.breakdown.total, result.breakdown.satisfied_count,
              where, sheet);
    if (result.breakdown.advertiser_count !=
        static_cast<int32_t>(market->ActiveTerms().size())) {
      sheet->Violation(where + ": breakdown covers " +
                       std::to_string(result.breakdown.advertiser_count) +
                       " of " +
                       std::to_string(market->ActiveTerms().size()) +
                       " contracts");
    }

    day_ms.push_back(ms);
    regret += result.breakdown.total;
    for (const auto& a : market->ActiveTerms()) payments += a.payment;
    satisfied += result.breakdown.satisfied_count;
    contracts += result.breakdown.advertiser_count;
    reoptimized += result.reoptimized_advertisers;
    touched += result.boards_touched;
    if (result.full_solve_fallback) {
      full_ms.push_back(ms);
    } else if (result.mode == core::ReplanMode::kIncremental) {
      const double greedy = result.report.PhaseSeconds("greedy") * 1e3;
      const double search = result.report.PhaseSeconds("local_search") * 1e3;
      greedy_ms.push_back(greedy);
      search_ms.push_back(search);
      other_ms.push_back(result.report.PhaseSeconds("day_total") * 1e3 -
                         greedy - search);
    }

    if (day % kRestoreEvery == 0 && day < days) {
      const mroam::market::ContractBook book = market->ExportBook();
      market = std::make_unique<core::DailyMarket>(&index, config);
      const auto restore_start = Clock::now();
      {
        LayerSpan span("bench.core.restore_book", day);
        market->RestoreBook(book);
      }
      restore_ms.push_back(MsBetween(restore_start, Clock::now()));
    }
  }
  const mroam::obs::MetricsSnapshot after =
      mroam::obs::MetricsRegistry::Global().Snapshot();

  sheet->attempted = days + static_cast<int64_t>(restore_ms.size()) + cancels;
  const auto n_days = static_cast<int64_t>(days);
  sheet->Add("day_ms_p50", Median(day_ms), "ms", n_days);
  sheet->Add("day_ms_p95", Quantile(day_ms, 0.95), "ms", n_days);
  sheet->Add("regret_ratio", payments > 0.0 ? regret / payments : 0.0, "1",
             n_days);
  sheet->Add("satisfied_frac",
             contracts > 0 ? static_cast<double>(satisfied) /
                                 static_cast<double>(contracts)
                           : 0.0,
             "1", contracts);

  sheet->Add("core.greedy_ms_p50", Median(greedy_ms), "ms",
             static_cast<int64_t>(greedy_ms.size()));
  sheet->Add("core.local_search_ms_p50", Median(search_ms), "ms",
             static_cast<int64_t>(search_ms.size()));
  sheet->Add("core.other_ms_p50", Median(other_ms), "ms",
             static_cast<int64_t>(other_ms.size()));
  sheet->Add("core.full_solve_ms_p50", Median(full_ms), "ms",
             static_cast<int64_t>(full_ms.size()));
  sheet->Add("core.restore_ms_p50", Median(restore_ms), "ms",
             static_cast<int64_t>(restore_ms.size()));
  sheet->Add("core.full_solve_days", static_cast<double>(full_ms.size()),
             "count", n_days);
  sheet->Add("core.reoptimized_per_day",
             static_cast<double>(reoptimized) / days, "count", n_days);
  sheet->Add("core.boards_touched_per_day",
             static_cast<double>(touched) / days, "count", n_days);
  AddCoreCounters(before, after, n_days, sheet);
  // No server runs here: no batches, polls, refusals or errors.
  for (const char* name : {"serve.batch_size_mean", "serve.polls_per_commit",
                           "serve.refused", "serve.errors"}) {
    sheet->Add(name, 0.0, "count", 0);
  }

  ProbeSetCount(index, market->ActiveSets(), sheet);
  ProbeKernels(index, options.seed, sheet);
  ProbeIo(options.snapshot, sheet);
}

}  // namespace contractbench
