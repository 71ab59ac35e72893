// Fig-1 benchmark process: the paper's nine colorings, run through their
// public registry entries with default color::Options, on one workload's
// graphs. perfbench/run.py starts several of these per benchmark run and
// pools their samples; one process does
//
//   setup   build the graphs and run one verified warm-up pass (the time from
//           process start to here is the process's setup time)
//   timed   repeat passes until --seconds elapse; each pass visits every
//           (graph, algorithm) cell in a fresh order drawn from the seed and
//           --part, so a burst of host contention spreads over cells instead
//           of landing on one family
//   probes  timed single-layer calls on the workload's largest graph, each
//           checked against a direct computation
//   traced  (--trace 1 only) further passes with a LaunchListener installed,
//           giving the per-layer ledger; never mixed into the timed samples
//
// Every coloring is checked (color::is_valid_coloring, an independent edge
// scan here, and byte-identity against the warm-up for the deterministic
// algorithms). The process prints its raw samples as one JSON line; run.py
// turns them into metrics.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <numeric>
#include <random>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "core/registry.hpp"
#include "core/verify.hpp"
#include "graph/build.hpp"
#include "graph/datasets.hpp"
#include "graph/generators/rmat.hpp"
#include "graphblas/grb.hpp"
#include "gunrock/operators.hpp"
#include "sim/device.hpp"
#include "sim/scan.hpp"

namespace {

using namespace gcol;
using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
double ms_since(Clock::time_point a) { return ms_between(a, Clock::now()); }

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const auto mid = v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2);
  std::nth_element(v.begin(), mid, v.end());
  return *mid;
}

constexpr int kMinTimedPasses = 2;
constexpr int kMinTracedPasses = 1;
constexpr int kProbeCalls = 11;
/// Ledger closure tolerance: per algorithm, the four layer totals plus the
/// host gap must match the coloring wall the benchmark timed within this
/// share.
constexpr double kLedgerTolerance = 0.01;

// ---- arguments and guards ---------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  std::uint64_t part = 0;  ///< process index within a run; reorders cells only
  double seconds = 10.0;
  bool trace = false;
};

bool parse_args(int argc, char** argv, Args& args) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    if (const auto eq = key.find('='); eq != std::string::npos) {
      value = key.substr(eq + 1);
      key.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return false;
    }
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "--part") {
      args.part = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (!(args.seconds > 0.0 && args.seconds <= 3600.0)) return false;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      args.trace = value == "1";
    } else {
      return false;
    }
    if (end != nullptr && (*end != '\0' || end == value.c_str())) return false;
  }
  return have_workload;
}

/// Refuses a run whose numbers could not referee a performance change: an
/// unoptimized build, or more workers than CPUs this process may use.
bool guards_pass(unsigned workers) {
  if (std::string_view(GCOL_BENCH_BUILD_TYPE) != "Release") {
    std::fprintf(stderr, "fig1_bench: refusing a %s build; configure with "
                 "CMAKE_BUILD_TYPE=Release\n", GCOL_BENCH_BUILD_TYPE);
    return false;
  }
#ifndef NDEBUG
  std::fprintf(stderr, "fig1_bench: refusing a build with assertions on\n");
  return false;
#endif
  const char* env = std::getenv("GCOL_THREADS");
  if (env == nullptr) {
    std::fprintf(stderr, "fig1_bench: GCOL_THREADS must be set\n");
    return false;
  }
  cpu_set_t set;
  CPU_ZERO(&set);
  const int nproc = sched_getaffinity(0, sizeof(set), &set) == 0
                        ? CPU_COUNT(&set)
                        : static_cast<int>(std::thread::hardware_concurrency());
  const long requested = std::strtol(env, nullptr, 10);
  if (requested < 1 || requested > nproc) {
    std::fprintf(stderr, "fig1_bench: refusing GCOL_THREADS=%s with %d CPUs\n",
                 env, nproc);
    return false;
  }
  if (workers != static_cast<unsigned>(requested)) {
    std::fprintf(stderr, "fig1_bench: device has %u workers, GCOL_THREADS=%s\n",
                 workers, env);
    return false;
  }
  return true;
}

// ---- workloads --------------------------------------------------------------

struct Graph {
  std::string name;
  graph::Csr csr;
};

bool known_workload(const std::string& name) {
  return name == "fig1_small" || name == "g3_quarter" || name == "rmat_skew";
}

/// The Table-I analogues keep their registered generator seeds; only the
/// R-MAT draw takes the workload seed.
std::vector<Graph> build_graphs(const std::string& workload,
                                std::uint64_t seed) {
  std::vector<Graph> graphs;
  if (workload == "fig1_small") {
    for (const graph::DatasetInfo& info : graph::paper_datasets()) {
      graphs.push_back({info.name, info.make(0.01)});
    }
  } else if (workload == "g3_quarter") {
    const graph::DatasetInfo* info = graph::find_dataset("G3_circuit");
    graphs.push_back({info->name, info->make(0.25)});
  } else {
    graphs.push_back({"rmat_14", graph::build_csr(graph::generate_rmat(
                                     14, 16, {.seed = seed}))});
  }
  return graphs;
}

double csr_mib(const graph::Csr& csr) {
  return static_cast<double>(csr.row_offsets.size() * sizeof(eid_t) +
                             csr.col_indices.size() * sizeof(vid_t)) /
         (1024.0 * 1024.0);
}

// ---- algorithms -------------------------------------------------------------

struct Algorithm {
  const color::AlgorithmSpec* spec;
  const char* family;  ///< "gunrock", "graphblas", "naumov" or "cpu"
  /// Colors must be byte-identical across repetitions. Gunrock Hash
  /// resolves proposals through races, so its colors may differ per run.
  bool deterministic;
};

std::vector<Algorithm> figure1() {
  std::vector<Algorithm> algorithms;
  for (const color::AlgorithmSpec* spec : color::figure1_algorithms()) {
    const std::string& n = spec->name;
    const char* family = n.starts_with("gunrock_") ? "gunrock"
                         : n.starts_with("grb_")   ? "graphblas"
                         : n.starts_with("naumov_") ? "naumov"
                                                    : "cpu";
    algorithms.push_back({spec, family, n != "gunrock_hash"});
  }
  return algorithms;
}

// ---- correctness gate -------------------------------------------------------

/// Independent of core/verify.cpp: every vertex colored, no edge
/// monochromatic.
bool edge_scan_valid(const graph::Csr& csr, std::span<const std::int32_t> c) {
  if (c.size() != static_cast<std::size_t>(csr.num_vertices)) return false;
  for (vid_t v = 0; v < csr.num_vertices; ++v) {
    const std::int32_t cv = c[static_cast<std::size_t>(v)];
    if (cv < 0) return false;
    for (const vid_t u : csr.neighbors(v)) {
      if (c[static_cast<std::size_t>(u)] == cv) return false;
    }
  }
  return true;
}

struct Gate {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;

  /// Checks one coloring; `reference` (may be null) is the coloring a
  /// deterministic algorithm must reproduce byte for byte.
  bool check(const graph::Csr& csr, std::span<const std::int32_t> colors,
             const std::vector<std::int32_t>* reference) {
    ++attempted;
    const bool ok =
        color::is_valid_coloring(csr, colors) && edge_scan_valid(csr, colors) &&
        (reference == nullptr ||
         (reference->size() == colors.size() &&
          std::equal(colors.begin(), colors.end(), reference->begin())));
    if (!ok) ++failed;
    return ok;
  }
  void fail() {
    ++attempted;
    ++failed;
  }
  [[nodiscard]] double ok_frac() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(attempted - failed) /
                                static_cast<double>(attempted);
  }
};

// ---- per-launch ledger (traced run only) ------------------------------------

enum Layer : std::size_t { kGunrock, kGraphblas, kSim, kCore, kNumLayers };

/// Every launch belongs to exactly one layer, by its name's prefix: the
/// frameworks' operators (gr::, grb::), the substrate's primitives (sim::),
/// and everything the algorithms launch themselves.
Layer classify(std::string_view name) {
  if (name.starts_with("gr::")) return kGunrock;
  if (name.starts_with("grb::")) return kGraphblas;
  if (name.starts_with("sim::")) return kSim;
  return kCore;
}

struct LedgerTotals {
  std::array<double, kNumLayers> ms{};
  std::array<std::int64_t, kNumLayers> launches{};
  double host_gap_ms = 0.0;
  double wall_ms = 0.0;
  std::int64_t inline_launches = 0;
  double overhead_ms = 0.0;  ///< Σ launch elapsed − busiest slot's busy span
  double slot_ms = 0.0;      ///< Σ slots × elapsed over multi-slot launches
  double wait_ms = 0.0;      ///< Σ slot barrier waits over the same launches
  double imbalance_x_ms = 0.0;  ///< Σ (busy max / busy mean) × elapsed
  double imbalance_ms = 0.0;
  double modeled_bytes = 0.0;
  double modeled_ms = 0.0;
  std::int64_t gunrock_directed = 0;
  std::int64_t gunrock_push = 0;

  [[nodiscard]] std::int64_t total_launches() const {
    return std::accumulate(launches.begin(), launches.end(), std::int64_t{0});
  }
  [[nodiscard]] double accounted_ms() const {
    return std::accumulate(ms.begin(), ms.end(), host_gap_ms);
  }
  LedgerTotals& operator+=(const LedgerTotals& o) {
    for (std::size_t l = 0; l < kNumLayers; ++l) {
      ms[l] += o.ms[l];
      launches[l] += o.launches[l];
    }
    host_gap_ms += o.host_gap_ms;
    wall_ms += o.wall_ms;
    inline_launches += o.inline_launches;
    overhead_ms += o.overhead_ms;
    slot_ms += o.slot_ms;
    wait_ms += o.wait_ms;
    imbalance_x_ms += o.imbalance_x_ms;
    imbalance_ms += o.imbalance_ms;
    modeled_bytes += o.modeled_bytes;
    modeled_ms += o.modeled_ms;
    gunrock_directed += o.gunrock_directed;
    gunrock_push += o.gunrock_push;
    return *this;
  }
};

/// Device trace listener that books each launch into its layer and measures
/// the idle device time between launches directly from callback stamps: a
/// launch started at (callback time − elapsed), so the gap before it is that
/// start minus the previous launch's callback. Notifications arrive on the
/// launching thread; default Options never use streams, so one thread.
class Ledger final : public sim::LaunchListener {
 public:
  void begin() {
    totals_ = {};
    last_end_ = Clock::now();
  }
  /// Closes the bracket; `wall_ms` is the coloring wall the caller timed
  /// itself, which the layer totals plus host gap must account for.
  LedgerTotals end(double wall_ms) {
    totals_.host_gap_ms += ms_between(last_end_, Clock::now());
    totals_.wall_ms = wall_ms;
    return totals_;
  }

  void on_kernel_launch(const sim::LaunchInfo& info) override {
    const Clock::time_point now = Clock::now();
    // Clamped: a negative gap would mean overlapping launches, and shows as
    // a ledger that no longer closes.
    totals_.host_gap_ms +=
        std::max(0.0, ms_between(last_end_, now) - info.elapsed_ms);
    last_end_ = now;

    const std::string_view name = info.name == nullptr ? "" : info.name;
    const Layer layer = classify(name);
    totals_.ms[layer] += info.elapsed_ms;
    ++totals_.launches[layer];
    if (info.slots <= 1) ++totals_.inline_launches;
    if (layer == kGunrock && info.direction != nullptr) {
      ++totals_.gunrock_directed;
      if (std::string_view(info.direction) == "push") ++totals_.gunrock_push;
    }
    const double bytes = static_cast<double>(info.traffic.bytes_read +
                                             info.traffic.bytes_written);
    if (bytes > 0.0) {
      totals_.modeled_bytes += bytes;
      totals_.modeled_ms += info.elapsed_ms;
    }
    if (info.slot_telemetry == nullptr || info.slots == 0) return;
    double busy_max = 0.0;
    double busy_sum = 0.0;
    double wait = 0.0;
    for (unsigned s = 0; s < info.slots; ++s) {
      const sim::SlotTelemetry& t = info.slot_telemetry[s];
      const double busy = std::max(0.0, t.end_ms - t.start_ms);
      busy_max = std::max(busy_max, busy);
      busy_sum += busy;
      wait += std::max(0.0, info.elapsed_ms - t.end_ms);
    }
    totals_.overhead_ms += std::max(0.0, info.elapsed_ms - busy_max);
    if (info.slots > 1) {
      totals_.slot_ms += info.elapsed_ms * info.slots;
      totals_.wait_ms += wait;
      const double busy_mean = busy_sum / info.slots;
      if (busy_mean > 0.0) {
        totals_.imbalance_x_ms += busy_max / busy_mean * info.elapsed_ms;
        totals_.imbalance_ms += info.elapsed_ms;
      }
    }
  }

 private:
  LedgerTotals totals_;
  Clock::time_point last_end_;
};

// ---- cells ------------------------------------------------------------------

struct Cell {
  std::size_t graph = 0;
  std::size_t algorithm = 0;
  std::vector<std::int32_t> reference;  ///< warm-up colors (deterministic)
  std::vector<double> ms;               ///< timed samples
  std::vector<double> colors;
  std::vector<double> rounds;
  std::vector<double> launches;
  std::vector<double> conflicts;
  std::vector<double> minflt;
  std::vector<double> traced_ms;
};

/// FNV-1a over the colors, so run.py can check that every process of a run
/// produced the same deterministic colorings.
std::uint64_t colors_hash(std::span<const std::int32_t> colors) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::int32_t c : colors) {
    h = (h ^ static_cast<std::uint32_t>(c)) * 0x100000001b3ULL;
  }
  return h;
}

long minor_faults() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_minflt;
}

struct Sample {
  bool ok = false;
  double ms = 0.0;
  color::Coloring coloring;
  long minflt = 0;
  /// Launches the device counted during the run. Coloring::kernel_launches
  /// covers only an algorithm's own timed phase, so it can be smaller.
  std::uint64_t device_launches = 0;
  LedgerTotals ledger;  ///< filled when run under a Ledger
};

/// One timed coloring of one cell; exceptions count as a failed coloring.
/// With a `ledger`, its bracket is exactly the timed interval.
Sample run_cell(const Algorithm& alg, const graph::Csr& csr,
                const color::Options& options, Ledger* ledger = nullptr) {
  Sample s;
  const sim::Device& device = sim::Device::instance();
  const std::uint64_t launches = device.launch_count();
  const long faults = minor_faults();
  if (ledger != nullptr) ledger->begin();
  const Clock::time_point t0 = Clock::now();
  try {
    s.coloring = alg.spec->run(csr, options);
    s.ok = true;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fig1_bench: %s threw: %s\n", alg.spec->name.c_str(),
                 e.what());
  }
  s.ms = ms_since(t0);
  if (ledger != nullptr) s.ledger = ledger->end(s.ms);
  s.minflt = minor_faults() - faults;
  s.device_launches = device.launch_count() - launches;
  return s;
}

// ---- reference loops (metadata only) ----------------------------------------

/// A compute-only loop and a random gather over a buffer far larger than
/// L2, timed between passes. They tell a contended run (both swing, or the
/// gather alone does) from a program regression (neither moves). They never
/// feed a metric.
class Reference {
 public:
  static constexpr std::size_t kWords = std::size_t{1} << 24;  // 64 MiB

  Reference() : buffer_(kWords) {
    std::iota(buffer_.begin(), buffer_.end(), std::uint32_t{0});
  }
  [[nodiscard]] double buffer_mib() const {
    return static_cast<double>(kWords * sizeof(std::uint32_t)) /
           (1024.0 * 1024.0);
  }

  void sample() {
    Clock::time_point t0 = Clock::now();
    std::uint64_t x = 0x9e3779b97f4a7c15ULL + sink_;
    for (int i = 0; i < 2'000'000; ++i) {
      x ^= x >> 29;
      x *= 0xbf58476d1ce4e5b9ULL;
    }
    compute_ms.push_back(ms_since(t0));
    t0 = Clock::now();
    std::uint64_t h = x;
    std::uint64_t sum = 0;
    for (int i = 0; i < 1'000'000; ++i) {
      h = h * 6364136223846793005ULL + 1442695040888963407ULL;
      sum += buffer_[(h >> 20) & (kWords - 1)];
    }
    gather_ms.push_back(ms_since(t0));
    sink_ = sum & 1;
  }

  std::vector<double> compute_ms;
  std::vector<double> gather_ms;

 private:
  std::vector<std::uint32_t> buffer_;
  std::uint64_t sink_ = 0;
};

// ---- layer probes -----------------------------------------------------------

struct Probes {
  double empty_launch_us = 0.0;
  double scan_ms = 0.0;
  double advance_ms = 0.0;
  double vxm_ms = 0.0;
  bool ok = true;
};

/// Median time of kProbeCalls `call()`s; `check()` runs after each call,
/// outside the timed interval, and clears `ok` on a wrong result.
template <typename Call, typename Check>
double median_ms(bool& ok, Call&& call, Check&& check) {
  std::vector<double> samples;
  for (int i = 0; i < kProbeCalls; ++i) {
    const Clock::time_point t0 = Clock::now();
    call();
    samples.push_back(ms_since(t0));
    ok = check() && ok;
  }
  return median(std::move(samples));
}

/// Times one call into each layer on `csr`, and checks every result against
/// a direct computation so that a wrong-but-fast operator fails the run.
Probes run_probes(sim::Device& device, const graph::Csr& csr,
                  std::uint64_t seed) {
  Probes p;
  const vid_t n = csr.num_vertices;
  const auto un = static_cast<std::size_t>(n);

  std::vector<std::uint8_t> flags(4096, 0);
  p.empty_launch_us = 1e3 * median_ms(
      p.ok,
      [&] {
        device.launch("perfbench::empty",
                      static_cast<std::int64_t>(flags.size()),
                      [&](std::int64_t i) {
                        flags[static_cast<std::size_t>(i)] = 1;
                      });
      },
      [&] {
        const bool all = std::count(flags.begin(), flags.end(), 1) ==
                         static_cast<std::ptrdiff_t>(flags.size());
        std::fill(flags.begin(), flags.end(), 0);
        return all;
      });

  std::vector<eid_t> degrees(un);
  for (vid_t v = 0; v < n; ++v) {
    degrees[static_cast<std::size_t>(v)] = csr.degree(v);
  }
  std::vector<eid_t> offsets(un);
  eid_t total = 0;
  p.scan_ms = median_ms(
      p.ok,
      [&] {
        total = sim::exclusive_scan<eid_t>(
            device, std::span<const eid_t>(degrees), std::span<eid_t>(offsets));
      },
      [&] {
        return total == csr.num_edges() &&
               std::equal(offsets.begin(), offsets.end(),
                          csr.row_offsets.begin());
      });

  std::vector<vid_t> odd;
  for (vid_t v = 1; v < n; v += 2) odd.push_back(v);
  const gr::Frontier frontier = gr::Frontier::of(odd, n);
  gr::AdvanceResult advanced;
  p.advance_ms = median_ms(
      p.ok, [&] { advanced = gr::advance(device, csr, frontier); },
      [&] {
        bool same = advanced.segment_offsets.size() == odd.size() + 1;
        for (std::size_t i = 0; same && i < odd.size(); ++i) {
          const auto adj = csr.neighbors(odd[i]);
          const eid_t begin = advanced.segment_offsets[i];
          same = advanced.segment_offsets[i + 1] - begin ==
                     static_cast<eid_t>(adj.size()) &&
                 std::equal(adj.begin(), adj.end(),
                            advanced.neighbors.begin() + begin);
        }
        return same;
      });

  using Weight = std::int64_t;
  const grb::Matrix<Weight> a(csr);
  grb::Vector<Weight> u(n);
  u.fill(0);
  std::mt19937_64 rng(seed);
  for (Weight& value : u.dense_values()) {
    value = static_cast<Weight>(rng() >> 24) + 1;
  }
  std::vector<Weight> expect(un, 0);
  for (vid_t v = 0; v < n; ++v) {
    for (const vid_t w : csr.neighbors(v)) {
      expect[static_cast<std::size_t>(v)] = std::max(
          expect[static_cast<std::size_t>(v)],
          u.dense_values()[static_cast<std::size_t>(w)]);
    }
  }
  grb::Vector<Weight> out(n);
  grb::Info info = grb::Info::kSuccess;
  p.vxm_ms = median_ms(
      p.ok,
      [&] {
        out.clear();
        info = grb::vxm(out, nullptr, grb::max_times_semiring<Weight>(), u, a);
      },
      [&] {
        bool same = info == grb::Info::kSuccess;
        for (vid_t v = 0; same && v < n; ++v) {
          Weight got = 0;
          const grb::Info e = out.extract_element(&got, v);
          same = csr.degree(v) == 0
                     ? e == grb::Info::kNoValue
                     : e == grb::Info::kSuccess &&
                           got == expect[static_cast<std::size_t>(v)];
        }
        return same;
      });
  return p;
}

// ---- gate self-test ---------------------------------------------------------

/// Proves the gate can fail: a proper coloring passes, the same coloring
/// with one vertex given its neighbor's color fails both validity checks,
/// and one recolored to a fresh (still proper) color fails byte-identity.
bool gate_self_test(const graph::Csr& csr, const Algorithm& alg) {
  const color::Coloring good = alg.spec->run(csr, color::Options{});
  vid_t v = 0;
  while (v < csr.num_vertices && csr.degree(v) == 0) ++v;
  if (v == csr.num_vertices) return false;
  const auto uv = static_cast<std::size_t>(v);

  Gate gate;
  const bool passes = gate.check(csr, good.colors, &good.colors);
  std::vector<std::int32_t> clash = good.colors;
  clash[uv] = clash[static_cast<std::size_t>(csr.neighbors(v)[0])];
  const bool caught_clash = !gate.check(csr, clash, nullptr) &&
                            !color::is_valid_coloring(csr, clash) &&
                            !edge_scan_valid(csr, clash);
  std::vector<std::int32_t> drift = good.colors;
  drift[uv] = color::count_colors(good.colors) + 1;
  const bool caught_drift = !gate.check(csr, drift, &good.colors);
  return passes && caught_clash && caught_drift && gate.ok_frac() < 1.0;
}

// ---- report -----------------------------------------------------------------

/// Minimal JSON emitter for the one result line (keys are plain ASCII).
class Json {
 public:
  Json& key(const char* k) {
    std::printf("%s\"%s\": ", sep(), k);
    first_ = true;
    return *this;
  }
  Json& open(char bracket) {
    std::printf("%s%c", sep(), bracket);
    first_ = true;
    return *this;
  }
  Json& close(char bracket) {
    std::printf("%c", bracket);
    first_ = false;
    return *this;
  }
  Json& num(double v) {
    std::printf("%s%.17g", sep(), v);
    return *this;
  }
  Json& str(const std::string& v) {
    std::printf("%s\"%s\"", sep(), v.c_str());
    return *this;
  }
  Json& boolean(bool v) {
    std::printf("%s%s", sep(), v ? "true" : "false");
    return *this;
  }
  Json& list(const std::vector<double>& v) {
    open('[');
    for (const double x : v) num(x);
    return close(']');
  }
  Json& field(const char* k, double v) { return key(k).num(v); }

 private:
  const char* sep() {
    const char* s = first_ ? "" : ", ";
    first_ = false;
    return s;
  }
  bool first_ = true;
};

void emit_ledger(Json& out, const char* name, const LedgerTotals& t) {
  out.key(name).open('{');
  out.field("gunrock_ms", t.ms[kGunrock]).field("graphblas_ms", t.ms[kGraphblas]);
  out.field("sim_ms", t.ms[kSim]).field("core_ms", t.ms[kCore]);
  out.field("gunrock_launches", static_cast<double>(t.launches[kGunrock]));
  out.field("graphblas_launches", static_cast<double>(t.launches[kGraphblas]));
  out.field("sim_launches", static_cast<double>(t.launches[kSim]));
  out.field("core_launches", static_cast<double>(t.launches[kCore]));
  out.field("host_gap_ms", t.host_gap_ms).field("wall_ms", t.wall_ms);
  out.field("inline_launches", static_cast<double>(t.inline_launches));
  out.field("overhead_ms", t.overhead_ms).field("slot_ms", t.slot_ms);
  out.field("wait_ms", t.wait_ms).field("imbalance_x_ms", t.imbalance_x_ms);
  out.field("imbalance_ms", t.imbalance_ms);
  out.field("modeled_bytes", t.modeled_bytes).field("modeled_ms", t.modeled_ms);
  out.field("gunrock_directed", static_cast<double>(t.gunrock_directed));
  out.field("gunrock_push", static_cast<double>(t.gunrock_push));
  out.close('}');
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace

int main(int argc, char** argv) {
  const Clock::time_point process_start = Clock::now();
  Args args;
  if (!parse_args(argc, argv, args) || !known_workload(args.workload)) {
    std::fprintf(stderr,
                 "usage: fig1_bench --workload fig1_small|g3_quarter|"
                 "rmat_skew [--seed N] [--part K] [--seconds S] "
                 "[--trace 0|1]\n");
    return 2;
  }
  sim::Device& device = sim::Device::instance();
  if (!guards_pass(device.num_workers())) return 3;
  const std::vector<Algorithm> algorithms = figure1();
  if (algorithms.size() != 9) {
    std::fprintf(stderr, "fig1_bench: expected 9 Figure-1 algorithms\n");
    return 3;
  }

  // Filled (and so resident) before setup's clock restarts: its pages are
  // part of every later RSS reading and are subtracted from the peak exactly.
  const double pre_reference_ms = ms_since(process_start);
  Reference reference;
  const Clock::time_point setup_start = Clock::now();

  color::Options options;
  options.seed = args.seed;
  std::mt19937_64 order_rng(args.seed * 0x9e3779b97f4a7c15ULL + args.part);
  const auto shuffled = [&order_rng](std::size_t count) {
    std::vector<std::size_t> order(count);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::shuffle(order.begin(), order.end(), order_rng);
    return order;
  };
  Gate gate;

  // ---- setup: graphs, then one verified warm-up pass that also records the
  // reference colors of the deterministic algorithms.
  const std::vector<Graph> graphs = build_graphs(args.workload, args.seed);
  const double build_ms = ms_since(setup_start);
  std::vector<Cell> cells;
  for (std::size_t g = 0; g < graphs.size(); ++g) {
    for (std::size_t a = 0; a < algorithms.size(); ++a) {
      Cell cell;
      cell.graph = g;
      cell.algorithm = a;
      cells.push_back(std::move(cell));
    }
  }
  for (const std::size_t c : shuffled(cells.size())) {
    Cell& cell = cells[c];
    const Algorithm& alg = algorithms[cell.algorithm];
    const graph::Csr& csr = graphs[cell.graph].csr;
    Sample s = run_cell(alg, csr, options);
    if (!s.ok) {
      gate.fail();
    } else if (gate.check(csr, s.coloring.colors, nullptr) &&
               alg.deterministic) {
      cell.reference = std::move(s.coloring.colors);
    }
  }
  const double setup_s = (pre_reference_ms + ms_since(setup_start)) / 1e3;

  // ---- timed passes.
  const Clock::time_point timed_start = Clock::now();
  double verify_ms = 0.0;
  int passes = 0;
  while (passes < kMinTimedPasses ||
         ms_since(timed_start) < args.seconds * 1e3) {
    reference.sample();
    for (const std::size_t c : shuffled(cells.size())) {
      Cell& cell = cells[c];
      const Algorithm& alg = algorithms[cell.algorithm];
      const graph::Csr& csr = graphs[cell.graph].csr;
      const Sample s = run_cell(alg, csr, options);
      if (!s.ok) {
        gate.fail();
        continue;
      }
      const Clock::time_point v0 = Clock::now();
      const bool ok = gate.check(csr, s.coloring.colors,
                                 alg.deterministic ? &cell.reference : nullptr);
      verify_ms += ms_since(v0);
      if (!ok) continue;
      cell.ms.push_back(s.ms);
      cell.colors.push_back(s.coloring.num_colors);
      cell.rounds.push_back(s.coloring.iterations);
      cell.launches.push_back(static_cast<double>(s.coloring.kernel_launches));
      cell.conflicts.push_back(
          static_cast<double>(s.coloring.conflicts_resolved));
      cell.minflt.push_back(static_cast<double>(s.minflt));
    }
    ++passes;
  }
  const double rss_mib = peak_rss_mib() - reference.buffer_mib();

  // ---- probes on the workload's largest graph, and the gate self-test.
  const auto largest = std::max_element(
      graphs.begin(), graphs.end(), [](const Graph& x, const Graph& y) {
        return x.csr.num_edges() < y.csr.num_edges();
      });
  const Probes probes = run_probes(device, largest->csr, args.seed);
  const bool self_test_ok = gate_self_test(graphs.front().csr, algorithms[0]);

  // ---- traced passes (per-layer metrics only).
  std::vector<LedgerTotals> per_algorithm(algorithms.size());
  std::int64_t ledger_misses = 0;  // traced runs with a launch not booked
  int traced_passes = 0;
  if (args.trace) {
    Ledger ledger;
    sim::LaunchListener* previous = device.set_trace_listener(&ledger);
    const Clock::time_point traced_start = Clock::now();
    while (traced_passes < kMinTracedPasses ||
           ms_since(traced_start) < args.seconds * 250.0) {
      for (const std::size_t c : shuffled(cells.size())) {
        Cell& cell = cells[c];
        const Algorithm& alg = algorithms[cell.algorithm];
        const graph::Csr& csr = graphs[cell.graph].csr;
        const Sample s = run_cell(alg, csr, options, &ledger);
        if (!s.ok) {
          gate.fail();
          continue;
        }
        if (!gate.check(csr, s.coloring.colors,
                        alg.deterministic ? &cell.reference : nullptr)) {
          continue;
        }
        cell.traced_ms.push_back(s.ms);
        per_algorithm[cell.algorithm] += s.ledger;
        if (s.ledger.total_launches() !=
            static_cast<std::int64_t>(s.device_launches)) {
          ++ledger_misses;
        }
      }
      ++traced_passes;
    }
    device.set_trace_listener(previous);
  }

  // Ledger closure: per algorithm, layers + host gap = traced wall.
  LedgerTotals ledger_all;
  double worst_closure = 0.0;
  for (const LedgerTotals& t : per_algorithm) {
    ledger_all += t;
    if (t.wall_ms > 0.0) {
      worst_closure = std::max(
          worst_closure, std::abs(t.accounted_ms() - t.wall_ms) / t.wall_ms);
    }
  }
  const bool ledger_ok =
      ledger_misses == 0 && worst_closure <= kLedgerTolerance;

  std::fprintf(stderr,
               "fig1_bench: %s seed=%llu part=%llu passes=%d setup_s=%.3f "
               "ok=%lld/%lld probes=%s self_test=%s ledger=%s\n",
               args.workload.c_str(),
               static_cast<unsigned long long>(args.seed),
               static_cast<unsigned long long>(args.part), passes, setup_s,
               static_cast<long long>(gate.attempted - gate.failed),
               static_cast<long long>(gate.attempted),
               probes.ok ? "ok" : "FAIL", self_test_ok ? "ok" : "FAIL",
               !args.trace ? "-" : ledger_ok ? "closed" : "OPEN");

  double graph_mib = 0.0;
  for (const Graph& g : graphs) graph_mib += csr_mib(g.csr);
  Json out;
  out.open('{');
  out.key("workers").num(device.num_workers());
  out.key("build_type").str(GCOL_BENCH_BUILD_TYPE);
  out.field("setup_s", setup_s).field("build_ms", build_ms);
  out.field("csr_mib", graph_mib).field("peak_rss_mib", rss_mib);
  out.field("attempted", static_cast<double>(gate.attempted));
  out.field("failed", static_cast<double>(gate.failed));
  out.key("probes_ok").boolean(probes.ok);
  out.key("self_test_ok").boolean(self_test_ok);
  out.key("ledger_ok").boolean(ledger_ok);
  out.field("ledger_worst_closure", worst_closure);
  out.field("ledger_tolerance", kLedgerTolerance);
  out.field("timed_passes", passes).field("traced_passes", traced_passes);
  out.field("verify_ms", verify_ms);
  out.field("empty_launch_us", probes.empty_launch_us);
  out.field("scan_probe_ms", probes.scan_ms);
  out.field("advance_probe_ms", probes.advance_ms);
  out.field("vxm_probe_ms", probes.vxm_ms);
  out.key("ref_compute_ms").list(reference.compute_ms);
  out.key("ref_gather_ms").list(reference.gather_ms);
  emit_ledger(out, "ledger", ledger_all);
  out.key("cells").open('[');
  for (const Cell& cell : cells) {
    const Algorithm& alg = algorithms[cell.algorithm];
    const graph::Csr& csr = graphs[cell.graph].csr;
    out.open('{');
    out.key("graph").str(graphs[cell.graph].name);
    out.key("algorithm").str(alg.spec->name);
    out.key("family").str(alg.family);
    out.field("vertices", csr.num_vertices);
    // Hex string: a 64-bit hash does not survive a JSON double.
    char hash[24];
    std::snprintf(hash, sizeof(hash), "%016llx",
                  static_cast<unsigned long long>(colors_hash(cell.reference)));
    out.key("reference").str(alg.deterministic ? hash : "");
    out.key("ms").list(cell.ms);
    out.key("colors").list(cell.colors);
    out.key("rounds").list(cell.rounds);
    out.key("launches").list(cell.launches);
    out.key("conflicts").list(cell.conflicts);
    out.key("minflt").list(cell.minflt);
    out.key("traced_ms").list(cell.traced_ms);
    out.close('}');
  }
  out.close(']');
  out.close('}');
  std::printf("\n");
  return 0;
}
