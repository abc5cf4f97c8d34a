// perfbench: the scheduler benchmark's measuring program (see ../README.md).
//
//   perfbench measure --workload W --seed N --seconds S   end-to-end metrics
//   perfbench trace   --workload W --seed N --seconds S   per-layer metrics
//   perfbench self-test
//
// Every mode prints one JSON object as its last stdout line and exits 1
// when an output check fails, 2 on a usage error.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <iterator>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "core/analysis.hpp"
#include "core/metrics.hpp"
#include "core/para_conv.hpp"
#include "core/sparta.hpp"
#include "dse/frontier.hpp"
#include "dse/memo_cache.hpp"
#include "dse/sweep.hpp"
#include "obs/obs.hpp"
#include "report/json.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace {

namespace pc = paraconv;
using pc::report::JsonValue;
using Clock = std::chrono::steady_clock;

// Repetition floors: a median needs a few samples even when one sweep
// takes longer than the run's time budget.
constexpr std::size_t kMinSweepReps = 3;
constexpr std::size_t kMinTraceReps = 2;
constexpr std::size_t kMinSetupReps = 5;
constexpr std::size_t kMaxSetupReps = 400;
constexpr double kSetupBudgetSeconds = 1.0;
// Child spans must account for this share of the traced sweep's cell time.
// It is not required of every single cell: on cells of ~10 us the spans'
// own bookkeeping is already ~5%, and one preemption opens a larger gap.
constexpr double kMinCellCoveragePct = 95.0;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Args {
  std::string mode;
  std::string workload;
  std::uint64_t seed{0};
  double seconds{10.0};
};

Args parse_args(int argc, char** argv) {
  if (argc < 2) throw std::invalid_argument("missing mode");
  Args args;
  args.mode = argv[1];
  for (int i = 2; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
      if (!(args.seconds > 0)) throw std::invalid_argument("--seconds > 0");
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  const auto& names = perfbench::workload_names();
  if (args.mode != "self-test" &&
      std::find(names.begin(), names.end(), args.workload) == names.end()) {
    throw std::invalid_argument("unknown workload '" + args.workload + "'");
  }
  return args;
}

double median(std::vector<double> values) {
  PARACONV_REQUIRE(!values.empty(), "median of no samples");
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : (values[mid - 1] + values[mid]) / 2.0;
}

/// Percentile with linear interpolation between the closest ranks (the
/// "inclusive" method: the minimum is p0, the maximum p100).
double percentile(std::vector<double> values, double p) {
  PARACONV_REQUIRE(!values.empty(), "percentile of no samples");
  std::sort(values.begin(), values.end());
  const double position = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto below = static_cast<std::size_t>(std::floor(position));
  const std::size_t above = std::min(below + 1, values.size() - 1);
  const double fraction = position - static_cast<double>(below);
  return values[below] + fraction * (values[above] - values[below]);
}

class Metrics {
 public:
  void add(const std::string& name, double value, const char* unit,
           std::size_t samples = 1) {
    JsonValue metric = JsonValue::object();
    metric.set("value", value);
    metric.set("unit", unit);
    metric.set("samples", static_cast<std::int64_t>(samples));
    json_.set(name, std::move(metric));
  }
  void add_median(const std::string& name, const std::vector<double>& values,
                  const char* unit) {
    add(name, median(values), unit, values.size());
  }
  JsonValue take() { return std::move(json_); }

 private:
  JsonValue json_ = JsonValue::object();
};

/// Collects output-check failures; any failure makes the run incorrect.
class Checker {
 public:
  void expect(bool ok, const std::string& what) {
    if (!ok) failures_.push_back(what);
  }
  bool ok() const { return failures_.empty(); }
  JsonValue to_json() const {
    JsonValue list = JsonValue::array();
    // A broken invariant usually fails on every cell; the first few say it.
    for (std::size_t i = 0; i < failures_.size() && i < 20; ++i) {
      list.push_back(failures_[i]);
    }
    return list;
  }

 private:
  std::vector<std::string> failures_;
};

pc::dse::SweepOptions sweep_options(std::uint64_t seed) {
  pc::dse::SweepOptions options;
  options.jobs = 1;
  options.with_baseline = true;
  options.seed = seed;
  return options;
}

struct Encoded {
  std::string csv;
  std::string json;
};

Encoded encode(const pc::dse::SweepResult& sweep) {
  Encoded out;
  std::ostringstream csv;
  {
    const pc::obs::ScopedSpan span("report.csv");
    pc::dse::write_sweep_csv(csv, sweep);
    out.csv = csv.str();
  }
  {
    const pc::obs::ScopedSpan span("report.json");
    out.json = pc::dse::sweep_to_json(sweep).dump();
  }
  return out;
}

struct SweepRun {
  pc::dse::SweepResult result;
  Encoded encoded;
  /// Host time of the run_sweep-plus-encode window.
  double seconds{0.0};
};

SweepRun run_untraced(const perfbench::Workload& workload,
                      std::uint64_t seed) {
  SweepRun run;
  const auto start = Clock::now();
  run.result = pc::dse::run_sweep(workload.spec, sweep_options(seed));
  run.encoded = encode(run.result);
  run.seconds = seconds_since(start);
  return run;
}

std::string cell_label(const pc::dse::CellResult& cell) {
  return "cell " + std::to_string(cell.index) + " (" + cell.benchmark + "/" +
         std::to_string(cell.config.pe_count) + "pe/" +
         pc::core::to_string(cell.packer) + "/" +
         pc::core::to_string(cell.allocator) + ")";
}

void check_metrics(const pc::dse::CellResult& cell,
                   const pc::core::RunResult& m, std::int64_t iterations,
                   Checker* checker) {
  const std::string who = cell_label(cell) + " " + m.scheduler + ": ";
  const std::int64_t period = m.iteration_time.value;
  checker->expect(m.total_time.value == period * (iterations + m.r_max),
                  who + "total_time != iteration_time*(iterations+r_max)");
  checker->expect(m.prologue_time.value == period * m.r_max,
                  who + "prologue_time != iteration_time*r_max");
  checker->expect(m.cache_bytes_used <= cell.config.total_cache_bytes(),
                  who + "cache bytes used exceed capacity");
}

void check_cells(const perfbench::Workload& workload,
                 const pc::dse::SweepResult& sweep, Checker* checker) {
  checker->expect(sweep.cells.size() == workload.spec.cell_count(),
                  "sweep returned the wrong number of cells");
  for (const pc::dse::CellResult& cell : sweep.cells) {
    if (cell.status != pc::dse::CellStatus::kOk) {
      checker->expect(false, cell_label(cell) + " failed: " +
                                 cell.error_code + ": " + cell.error_message);
      continue;
    }
    check_metrics(cell, cell.para, workload.spec.iterations, checker);
    check_metrics(cell, cell.sparta, workload.spec.iterations, checker);
  }
}

/// At the published seeds the topo/dp cells must reproduce EXPERIMENTS.md.
void check_table1(const pc::dse::SweepResult& sweep, Checker* checker) {
  std::map<std::pair<std::string, int>, std::string> measured;
  for (const pc::dse::CellResult& cell : sweep.cells) {
    if (cell.packer != pc::core::PackerKind::kTopological ||
        cell.allocator != pc::core::AllocatorKind::kKnapsackDp ||
        cell.status != pc::dse::CellStatus::kOk) {
      continue;
    }
    char text[32];
    std::snprintf(text, sizeof(text), "%.1f",
                  pc::core::time_ratio_percent(cell.sparta, cell.para));
    measured[{cell.benchmark, cell.config.pe_count}] = text;
  }
  for (const perfbench::Table1Ratio& row : perfbench::table1_ratios()) {
    for (int i = 0; i < 3; ++i) {
      char expected[32];
      std::snprintf(expected, sizeof(expected), "%.1f", row.ratio_pct[i]);
      const auto it =
          measured.find({row.benchmark, perfbench::kTable1Pes[i]});
      const std::string got = it == measured.end() ? "missing" : it->second;
      checker->expect(got == expected,
                      std::string("Table 1 ratio% of ") + row.benchmark +
                          " @" + std::to_string(perfbench::kTable1Pes[i]) +
                          ": expected " + expected + ", got " + got);
    }
  }
}

JsonValue seeds_json(const perfbench::Workload& workload) {
  JsonValue seeds = JsonValue::object();
  for (const perfbench::GraphSeed& graph : workload.graph_seeds) {
    seeds.set(graph.graph, std::to_string(graph.seed));
  }
  return seeds;
}

struct Outcome {
  Checker checker;
  std::int64_t attempted{0};
  std::int64_t failed{0};
  Metrics metrics;

  void count(const pc::dse::SweepResult& sweep) {
    attempted += static_cast<std::int64_t>(sweep.cells.size());
    failed += static_cast<std::int64_t>(sweep.cells_failed);
  }
};

int emit(const Args& args, const perfbench::Workload* workload,
         Outcome& outcome) {
  JsonValue out = JsonValue::object();
  out.set("correct", outcome.checker.ok());
  out.set("attempted", outcome.attempted);
  out.set("failed", outcome.failed);
  out.set("metrics", outcome.metrics.take());
  out.set("errors", outcome.checker.to_json());
  out.set("workload", args.workload);
  out.set("seed", std::to_string(args.seed));
  if (workload != nullptr) out.set("graph_seeds", seeds_json(*workload));
  out.set("build_type", PERFBENCH_BUILD_TYPE);
  out.set("compiler", PERFBENCH_COMPILER);
  std::cout << out.dump() << std::endl;
  return outcome.checker.ok() ? 0 : 1;
}

/// Builds the workload repeatedly, timing each build; returns the last.
perfbench::Workload timed_setup(const Args& args,
                                std::vector<double>* samples) {
  perfbench::Workload workload;
  const auto start = Clock::now();
  while (samples->size() < kMinSetupReps ||
         (samples->size() < kMaxSetupReps &&
          seconds_since(start) < kSetupBudgetSeconds)) {
    const auto rep = Clock::now();
    workload = perfbench::build_workload(args.workload, args.seed);
    samples->push_back(seconds_since(rep));
  }
  return workload;
}

/// The first (untimed) sweep: warms the allocator and page tables and is
/// the reference every later sweep's bytes must equal.
SweepRun reference_sweep(const Args& args, const perfbench::Workload& workload,
                         Outcome* outcome) {
  SweepRun run = run_untraced(workload, args.seed);
  outcome->count(run.result);
  check_cells(workload, run.result, &outcome->checker);
  if (args.workload == "table1_ablation" && args.seed == 0) {
    check_table1(run.result, &outcome->checker);
  }
  return run;
}

void expect_same_bytes(const Encoded& got, const Encoded& reference,
                       const char* what, Checker* checker) {
  checker->expect(got.csv == reference.csv,
                  std::string(what) + " sweep CSV differs from the reference");
  checker->expect(got.json == reference.json,
                  std::string(what) + " sweep JSON differs from the reference");
}

int run_measure(const Args& args) {
  Outcome outcome;
  std::vector<double> setup_samples;
  const perfbench::Workload workload = timed_setup(args, &setup_samples);
  const SweepRun reference = reference_sweep(args, workload, &outcome);

  double reduction_sum = 0.0;
  double r_max_sum = 0.0;
  std::size_t ok_cells = 0;
  for (const pc::dse::CellResult& cell : reference.result.cells) {
    if (cell.status != pc::dse::CellStatus::kOk) continue;
    reduction_sum += pc::core::time_reduction_percent(cell.sparta, cell.para);
    r_max_sum += cell.para.r_max;
    ++ok_cells;
  }

  // Each repetition times the user path (run_sweep + encode) once, then
  // the same cells one by one through dse::evaluate_cell for per-cell
  // times; tracing stays off throughout.
  std::vector<double> sweep_samples;
  std::vector<std::vector<double>> cell_samples(workload.spec.cell_count());
  const pc::dse::SweepOptions options = sweep_options(args.seed);
  const pc::dse::GridSpec& spec = workload.spec;
  const auto start = Clock::now();
  while (sweep_samples.size() < kMinSweepReps ||
         seconds_since(start) < args.seconds) {
    const SweepRun run = run_untraced(workload, args.seed);
    outcome.count(run.result);
    sweep_samples.push_back(run.seconds);
    expect_same_bytes(run.encoded, reference.encoded, "untraced",
                      &outcome.checker);

    pc::dse::MemoCache cache;
    for (std::size_t index = 0; index < spec.cell_count(); ++index) {
      const auto at = spec.coordinates(index);
      const auto cell_start = Clock::now();
      const pc::dse::CellResult cell = pc::dse::evaluate_cell(
          spec.cases[at.case_index], spec.configs[at.config_index],
          spec.packers[at.packer_index], spec.allocators[at.allocator_index],
          spec.iterations, spec.refine_steps,
          pc::dse::cell_seed(options.seed, index), options.with_baseline,
          &cache);
      cell_samples[index].push_back(seconds_since(cell_start) * 1e3);
      outcome.checker.expect(cell.status == pc::dse::CellStatus::kOk,
                             cell_label(cell) + " failed in evaluate_cell");
    }
  }

  // Percentiles over the cells of each cell's median time. Pooling the raw
  // samples instead would put p50 of a 12-cell grid on the slowest
  // repetition of one cell, which swings with every host hiccup.
  std::vector<double> cell_ms;
  for (const std::vector<double>& samples : cell_samples) {
    cell_ms.push_back(median(samples));
  }
  Metrics& m = outcome.metrics;
  m.add_median("sweep_s", sweep_samples, "s");
  m.add("cell_ms.p50", percentile(cell_ms, 50), "ms", cell_ms.size());
  m.add("cell_ms.p90", percentile(cell_ms, 90), "ms", cell_ms.size());
  m.add_median("setup_s", setup_samples, "s");
  const auto cells = static_cast<double>(reference.result.cells.size());
  m.add("failed_frac",
        static_cast<double>(reference.result.cells_failed) / cells, "ratio");
  const double ok = std::max<double>(1.0, static_cast<double>(ok_cells));
  m.add("sim.reduction_pct", reduction_sum / ok, "%", ok_cells);
  m.add("sim.r_max_mean", r_max_sum / ok, "count", ok_cells);
  // This process is fresh per run, so its peak is the workload's.
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  m.add("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0, "MB");
  return emit(args, &workload, outcome);
}

/// Per-layer work counts of one traced sweep, from the public results.
struct Tally {
  std::int64_t items{0};
  std::int64_t cached_iprs{0};
  std::int64_t dp_cells{0};
  std::int64_t delta_r2_items{0};

  friend bool operator==(const Tally&, const Tally&) = default;
};

/// One cell through the same public calls dse::evaluate_cell makes, with a
/// span around each call that has none of its own in the library
/// (schedule_packed has).
void traced_cell(const pc::dse::GridSpec& spec, bool with_baseline,
                 pc::dse::MemoCache* cache, pc::dse::CellResult* cell,
                 Tally* tally) {
  const auto at = spec.coordinates(cell->index);
  const pc::pim::PimConfig& config = cell->config;
  const pc::core::PackerKind packer = cell->packer;
  const pc::core::AllocatorKind allocator = cell->allocator;
  const int refine_steps = spec.refine_steps;
  const std::uint64_t seed = cell->cell_seed;
  const pc::graph::TaskGraph& g = spec.cases[at.case_index].graph;
  pc::core::ParaConvOptions options;
  options.iterations = spec.iterations;
  options.allocator = allocator;
  options.packer = packer;
  options.refine_steps = refine_steps;
  options.refine_seed = seed;
  // Declared outside the cell span so freeing it is not charged to a cell.
  pc::core::ParaConvResult result;
  {
    const pc::obs::ScopedSpan cell_span("dse.cell");
    const pc::core::ParaConv scheduler(config, options);
    pc::dse::MemoCache::Value packed;
    {
      const pc::obs::ScopedSpan span("dse.memo");
      const pc::dse::PackingKey key = pc::dse::make_packing_key(
          g, config, packer, refine_steps, seed);
      packed = cache->get_or_compute(key, [&] { return scheduler.pack(g); });
    }
    result = scheduler.schedule_packed(g, *packed);
    cell->para = result.metrics;
    {
      const pc::obs::ScopedSpan span("dse.energy");
      cell->energy_uj = pc::dse::estimate_energy_uj(g, config, result.kernel);
    }
    if (config.cost_model != pc::pim::CostModelKind::kConstant) {
      const pc::obs::ScopedSpan span("core.bank");
      cell->bank = pc::core::analyze_bank_contention(g, result.kernel, config);
    }
    if (with_baseline) {
      const pc::obs::ScopedSpan span("core.sparta");
      pc::core::SpartaOptions base_options;
      base_options.iterations = spec.iterations;
      cell->sparta =
          pc::core::Sparta(config, base_options).schedule(g).metrics;
    }
  }
  const auto items = static_cast<std::int64_t>(result.items.size());
  tally->items += items;
  tally->cached_iprs += static_cast<std::int64_t>(result.metrics.cached_iprs);
  if (allocator == pc::core::AllocatorKind::kKnapsackDp) {
    tally->dp_cells +=
        items * (config.total_cache_bytes().value /
                     options.knapsack_quantum_bytes + 1);
  }
  for (const pc::alloc::AllocationItem& item : result.items) {
    if (item.profit == 2) ++tally->delta_r2_items;
  }
}

struct TracedRun {
  pc::dse::SweepResult result;
  Encoded encoded;
  Tally tally;
  /// Every span of the sweep, in recording order.
  std::vector<pc::obs::SpanRecord> spans;
};

void drain(pc::obs::Registry* registry, std::vector<pc::obs::SpanRecord>* out) {
  std::vector<pc::obs::SpanRecord> spans = registry->spans();
  registry->clear();
  out->insert(out->end(), std::make_move_iterator(spans.begin()),
              std::make_move_iterator(spans.end()));
}

/// run_sweep's sequential path, cell by cell through traced_cell. The
/// registry is drained after every cell: clear() keeps its span vector's
/// capacity, so no cell is charged for reallocating the whole sweep's spans.
/// The registry's epoch is shared, so the drained batches form one trace.
TracedRun run_traced(const perfbench::Workload& workload, std::uint64_t seed) {
  const pc::dse::GridSpec& spec = workload.spec;
  const pc::dse::SweepOptions options = sweep_options(seed);
  pc::dse::MemoCache cache;
  TracedRun run;
  pc::dse::SweepResult& result = run.result;
  result.cells.resize(spec.cell_count());
  pc::obs::Registry registry;
  const pc::obs::ScopedRegistry install(&registry);
  for (std::size_t index = 0; index < spec.cell_count(); ++index) {
    pc::dse::CellResult& cell = result.cells[index];
    pc::dse::fill_cell_identity(spec, options, index, &cell);
    try {
      traced_cell(spec, options.with_baseline, &cache, &cell, &run.tally);
    } catch (const pc::ContractViolation& violation) {
      cell.status = pc::dse::CellStatus::kError;
      cell.error_code = "contract-violation";
      cell.error_message = violation.what();
    } catch (const std::exception& error) {
      cell.status = pc::dse::CellStatus::kError;
      cell.error_code = "exception";
      cell.error_message = error.what();
    }
    if (cell.status == pc::dse::CellStatus::kOk) {
      ++result.cells_ok;
    } else {
      ++result.cells_failed;
    }
    drain(&registry, &run.spans);
  }
  result.cache_stats = cache.stats();
  run.encoded = encode(result);
  drain(&registry, &run.spans);
  return run;
}

const char* const kAllocators[] = {
    "knapsack-dp",  "greedy-density", "greedy-deadline",
    "critical-path", "energy-aware",  "residency-constrained"};

int run_trace(const Args& args) {
  Outcome outcome;

  // Set-up layers, from traced builds of the workload.
  std::vector<double> lower_ms;
  std::vector<double> build_ms;
  perfbench::Workload workload;
  for (std::size_t rep = 0; rep < kMinSetupReps; ++rep) {
    pc::obs::Registry registry;
    {
      const pc::obs::ScopedRegistry install(&registry);
      workload = perfbench::build_workload(args.workload, args.seed);
    }
    const perfbench::SpanTree tree = perfbench::build_span_tree(registry.spans());
    lower_ms.push_back(tree.total_ms("cnn.lower"));
    build_ms.push_back(tree.total_ms("graph.build"));
  }

  const SweepRun reference = reference_sweep(args, workload, &outcome);

  // Untraced and traced sweeps alternate so both see the same host state.
  std::vector<double> untraced_s;
  std::vector<double> traced_s;
  std::map<std::string, std::vector<double>> layer_ms;
  std::map<std::string, std::int64_t> calls;
  std::vector<double> coverage;
  std::vector<double> closed;
  Tally tally;
  pc::dse::MemoCache::Stats memo;
  std::size_t report_bytes = 0;
  const auto start = Clock::now();
  while (traced_s.size() < kMinTraceReps || seconds_since(start) < args.seconds) {
    const SweepRun untraced = run_untraced(workload, args.seed);
    outcome.count(untraced.result);
    untraced_s.push_back(untraced.seconds);
    expect_same_bytes(untraced.encoded, reference.encoded, "untraced",
                      &outcome.checker);

    const auto traced_start = Clock::now();
    const TracedRun traced = run_traced(workload, args.seed);
    traced_s.push_back(seconds_since(traced_start));
    outcome.count(traced.result);
    expect_same_bytes(traced.encoded, reference.encoded, "traced",
                      &outcome.checker);
    outcome.checker.expect(traced_s.size() == 1 || traced.tally == tally,
                           "work counts differ between traced sweeps");
    tally = traced.tally;
    memo = traced.result.cache_stats;
    report_bytes = traced.encoded.csv.size() + traced.encoded.json.size();

    const perfbench::SpanTree tree = perfbench::build_span_tree(traced.spans);
    coverage.push_back(tree.coverage_pct("dse.cell"));
    closed.push_back(tree.closed_pct("dse.cell", kMinCellCoveragePct));
    outcome.checker.expect(
        coverage.back() >= kMinCellCoveragePct,
        "child spans cover only " + std::to_string(coverage.back()) +
            "% of the cell spans' time");
    layer_ms["core.sparta_ms"].push_back(tree.total_ms("core.sparta"));
    layer_ms["core.schedule_packed_self_ms"].push_back(
        tree.self_ms("schedule_packed"));
    layer_ms["alloc.allocate_ms"].push_back(tree.total_ms("allocate"));
    for (const char* allocator : kAllocators) {
      layer_ms[std::string("alloc.allocate_ms.") + allocator].push_back(
          tree.total_ms("allocate", allocator));
    }
    layer_ms["sched.pack_ms"].push_back(tree.total_ms("packer"));
    layer_ms["sched.validate_ms"].push_back(tree.total_ms("validate"));
    layer_ms["retiming.deltas_ms"].push_back(tree.total_ms("retime", "deltas"));
    layer_ms["retiming.minimal_ms"].push_back(tree.total_ms("retime", "minimal"));
    layer_ms["dse.memo_self_ms"].push_back(tree.self_ms("dse.memo"));
    layer_ms["dse.energy_ms"].push_back(tree.total_ms("dse.energy"));
    layer_ms["dse.cell_self_ms"].push_back(tree.self_ms("dse.cell"));
    layer_ms["report.csv_ms"].push_back(tree.total_ms("report.csv"));
    layer_ms["report.json_ms"].push_back(tree.total_ms("report.json"));
    const std::map<std::string, std::int64_t> sweep_calls{
        {"core.sparta_calls", tree.count("core.sparta")},
        {"sched.pack_calls", tree.count("packer")},
        {"retiming.minimal_calls", tree.count("retime", "minimal")}};
    outcome.checker.expect(calls.empty() || sweep_calls == calls,
                           "call counts differ between traced sweeps");
    calls = sweep_calls;
  }
  Metrics& m = outcome.metrics;
  for (const auto& [name, values] : layer_ms) m.add_median(name, values, "ms");
  for (const auto& [name, count] : calls) {
    m.add(name, static_cast<double>(count), "count");
  }
  m.add("alloc.items", static_cast<double>(tally.items), "count");
  m.add("alloc.cached_iprs", static_cast<double>(tally.cached_iprs), "count");
  m.add("alloc.dp_cells", static_cast<double>(tally.dp_cells), "count");
  m.add("retiming.delta_r2_items", static_cast<double>(tally.delta_r2_items),
        "count");
  m.add("dse.memo.hits", static_cast<double>(memo.hits), "count");
  m.add("dse.memo.misses", static_cast<double>(memo.misses), "count");
  m.add("dse.memo.hit_ratio", memo.hit_rate(), "ratio");
  m.add("report.bytes", static_cast<double>(report_bytes), "count");
  m.add_median("cnn.lower_ms", lower_ms, "ms");
  m.add("cnn.tasks", static_cast<double>(workload.lowered_tasks), "count");
  m.add_median("graph.build_ms", build_ms, "ms");
  const double untraced = median(untraced_s);
  m.add("trace.overhead_pct", 100.0 * (median(traced_s) - untraced) / untraced,
        "%", traced_s.size());
  m.add_median("trace.cell_coverage_pct", coverage, "%");
  m.add_median("trace.cells_closed_pct", closed, "%");
  return emit(args, &workload, outcome);
}

int run_self_test(const Args& args) {
  Outcome outcome;
  Checker& c = outcome.checker;
  // Nesting, self time and coverage on a hand-built trace: a cell with two
  // children, one of which has a child of the same length.
  using pc::obs::SpanRecord;
  const std::vector<SpanRecord> spans{
      {"pack", "", 0, 12, 10},       {"dse.memo", "", 0, 10, 20},
      {"outer", "", 0, 12, 10},      {"dse.energy", "", 0, 40, 50},
      {"dse.cell", "", 0, 0, 100},   {"dse.cell", "", 1, 0, 10},
  };
  const perfbench::SpanTree tree = perfbench::build_span_tree(spans);
  c.expect(tree.self_ms("dse.cell") * 1e6 == 30 + 10, "cell self time");
  c.expect(tree.self_ms("dse.memo") * 1e6 == 10, "memo self time");
  c.expect(tree.self_ms("outer") == 0.0, "equal intervals nest by record order");
  c.expect(tree.self_ms("pack") * 1e6 == 10, "innermost self time");
  c.expect(tree.coverage_pct("dse.cell") == 100.0 * 70 / 110,
           "per-thread nesting");
  c.expect(tree.closed_pct("dse.cell", 70) == 50.0, "closed share");
  c.expect(tree.count("dse.cell") == 2, "span count");
  c.expect(std::abs(tree.total_ms("dse.energy") - 50e-6) < 1e-12, "total time");

  c.expect(perfbench::table1_graph_seed(0xC0FFEE01, 0) == 0xC0FFEE01,
           "seed 0 keeps the published graph seeds");
  c.expect(perfbench::table1_graph_seed(0xC0FFEE01, 1) !=
               perfbench::table1_graph_seed(0xC0FFEE02, 1),
           "graph seeds stay distinct under a benchmark seed");
  c.expect(std::abs(percentile({10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 90) - 9.1) <
               1e-12,
           "p90 interpolates");
  c.expect(percentile({5}, 90) == 5, "percentile of one sample");
  c.expect(percentile({1, 2, 3}, 50) == 2, "p50 of an odd count");
  c.expect(median({3, 1, 2, 10}) == 2.5, "even median");
  outcome.attempted = 1;
  return emit(args, nullptr, outcome);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << error.what()
              << "\nusage: perfbench measure|trace|self-test "
                 "--workload W --seed N --seconds S\n";
    return 2;
  }
  try {
    if (args.mode == "measure") return run_measure(args);
    if (args.mode == "trace") return run_trace(args);
    if (args.mode == "self-test") return run_self_test(args);
    std::cerr << "perfbench: unknown mode '" << args.mode << "'\n";
    return 2;
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << error.what() << "\n";
    return 1;
  }
}
