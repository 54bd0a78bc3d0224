// Repository benchmark program: runs ONE workload per process and reports
// its end-to-end metrics (trace=0) or its per-layer breakdown (trace=1).
//
//   delta_bench workload=<name> [seed=1] [seconds=12] [trace=0|1] [smoke=0|1]
//               [results_dir=benchmark/results] [out=<file>]
//
// Workloads (see README.md for why each was chosen):
//   paper_sync          §6.1 world, VCover, one cache, zero-latency run_one
//   zipf1m_sync         YCSB-B zipf 0.99 over 10^6 keys, VCover, run_one
//   paper_wan_parallel  §6.1 world, 4 caches on 1 Gbit/40 ms, run_one_event
//   chaos_open_loop     MB-scale world, Benefit, open loop, faults + crashes
//
// A run builds the workload's world several times through sim::Setup
// (set-up), then replays it back to back for `seconds` of wall time; on
// paper_wan_parallel each single-thread replay is followed by a multi-thread
// one. Every replay is one operation: it fails when its output fingerprint
// differs from the first replay's or an invariant of the simulator breaks.
// Untraced runs call the public entry points users call (sim::run_one /
// sim::run_one_event); the traced run wraps each policy in a timing shim
// from outside the library. Every timed build or single-thread replay is
// followed by a fixed probe kernel on the same CPU (HostProbe), and the
// reported times are scaled to the host's nominal speed by it.
//
// stdout: one "name value unit" line per metric, then, as the LAST line,
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The same numbers plus the raw samples go to <results_dir>/<workload>.json
// (<workload>.trace.json for trace=1). Exit status is 1 when any operation
// failed, 2 on bad arguments or an error outside the replays.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/benefit_policy.h"
#include "core/delta_system.h"
#include "core/vcover_policy.h"
#include "htm/cover.h"
#include "htm/partition_map.h"
#include "net/fault_plan.h"
#include "net/link_model.h"
#include "sim/event_engine.h"
#include "sim/experiment.h"
#include "storage/catalog.h"
#include "storage/density_model.h"
#include "util/config.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/thread_pool.h"
#include "workload/synthetic_trace.h"
#include "workload/trace_generator.h"
#include "workload/trace_split.h"

namespace {

using namespace delta;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolated quantile (the numpy default), q in [0, 1].
double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

/// Peak resident set of this process so far, in MiB (Linux reports KiB).
double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Spreads single-thread work over every CPU this process may use, one
/// replay or world build per CPU in turn. On a shared host one CPU can run
/// ~1.5x slower than the others for a minute at a time, and the scheduler
/// leaves a busy thread where it is: unspread, a whole run could measure
/// one contended CPU rather than the program.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&all_);
    if (sched_getaffinity(0, sizeof all_, &all_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &all_)) cpus_.push_back(cpu);
    }
  }
  [[nodiscard]] std::size_t count() const {
    return std::max<std::size_t>(1, cpus_.size());
  }
  /// Pins the calling thread (and threads it starts) to the next CPU and
  /// returns its slot in [0, count()).
  std::size_t pin_next() {
    if (cpus_.size() < 2) return 0;
    const std::size_t slot = next_++ % cpus_.size();
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[slot], &one);
    sched_setaffinity(0, sizeof one, &one);
    return slot;
  }
  /// Lets the calling thread (and threads it starts) use every CPU again.
  void release() {
    if (cpus_.size() >= 2) sched_setaffinity(0, sizeof all_, &all_);
  }

 private:
  cpu_set_t all_;
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

/// Measures how fast the CPU the calling thread is on runs right now, with
/// a fixed kernel: 150k pseudo-random keys pushed through a binary heap
/// capped at 50k entries (~400 KiB), the event-queue pattern of a
/// discrete-event simulator. It lives in this file and calls no repository
/// code, so no change to the repository changes its cost; its time moves
/// only with the host. On a shared host the speed of a CPU swings by up to
/// ~1.7x within seconds, and this kernel's time tracks the swings of the
/// replays run on the same CPU just before it (see README.md, Host noise).
class HostProbe {
 public:
  /// About the kernel's fastest time on the development host (one vCPU of
  /// an Intel Xeon at 2.1 GHz; its 5th percentile over ~340 probes): a time
  /// measured just before a probe, times kNominalSeconds / probe(), reads
  /// as if the host had run at this speed throughout.
  static constexpr double kNominalSeconds = 0.0100;

  HostProbe() {
    heap_.reserve(kCapacity + 1);
    run();  // pages the heap in before the first timed call
  }
  /// Runs the kernel once and returns its wall time in seconds.
  double probe() {
    const auto start = Clock::now();
    run();
    return seconds_since(start);
  }

 private:
  static constexpr std::size_t kCapacity = 50'000;
  static constexpr int kKeys = 150'000;
  std::vector<std::uint64_t> heap_;
  std::uint64_t checksum_ = 0;  // keeps the kernel's result observable

  void run() {
    heap_.clear();
    std::uint64_t state = 0x9E3779B97F4A7C15ULL;
    for (int i = 0; i < kKeys; ++i) {
      state += 0x9E3779B97F4A7C15ULL;  // splitmix64
      std::uint64_t z = state;
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
      z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
      heap_.push_back(z ^ (z >> 31));
      std::push_heap(heap_.begin(), heap_.end());
      if (heap_.size() > kCapacity) {
        std::pop_heap(heap_.begin(), heap_.end());
        heap_.pop_back();
      }
    }
    checksum_ ^= heap_.front();
  }
};

/// FNV-1a over the bytes of trivially copyable values.
class Fingerprint {
 public:
  template <typename T>
  void add(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    for (const unsigned char b : bytes) {
      hash_ ^= b;
      hash_ *= 0x100000001b3ULL;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

// ------------------------------------------------------------- workloads

struct WorkloadSpec {
  std::string name;
  /// The benchmark seed: picks the object-id permutation (and, for the open
  /// loop, the arrival and fault streams). See permute_objects.
  std::uint64_t seed = 1;
  bool synthetic = false;
  sim::SetupParams params;                      // astronomy worlds
  workload::SyntheticTraceParams synthetic_params;
  sim::PolicyKind policy = sim::PolicyKind::kVCover;
  sim::PolicyOverrides overrides;
  std::size_t endpoints = 1;
  workload::SplitStrategy strategy = workload::SplitStrategy::kRoundRobin;
  /// Event engine (run_one_event) when set, else the sync run_one path.
  bool event = false;
  /// Time a T=mt replay after every T=1 one. Event workloads without it run
  /// one untimed T=mt replay to check bit-identity across thread counts.
  bool mt_drive = false;
  sim::EventEngineOptions engine;
  /// Open-loop arrival rate; crash windows are placed on the nominal run
  /// (events / rate) once the trace length is known.
  double chaos_rate = 0.0;
  /// notices_logged == notices_applied must hold (protocol-on runs).
  bool check_ledger = false;
};

constexpr const char* kWorkloads[] = {"paper_sync", "zipf1m_sync",
                                      "paper_wan_parallel", "chaos_open_loop"};

/// §6.1 defaults: 68 objects over ~800 GB, 250k queries + 250k updates,
/// 300 GB of post-warm-up query traffic, cache 30% of the server.
sim::SetupParams paper_params(bool smoke) {
  sim::SetupParams p;
  if (smoke) {
    p.trace.query_count = 12'500;
    p.trace.update_count = 12'500;
  }
  p.trace.postwarmup_query_gb =
      300.0 * static_cast<double>(p.trace.query_count) / 250'000.0;
  return p;
}

std::optional<WorkloadSpec> make_spec(const std::string& name,
                                      std::uint64_t seed, bool smoke) {
  WorkloadSpec spec;
  spec.name = name;
  spec.seed = seed;
  if (name == "paper_sync") {
    spec.params = paper_params(smoke);
  } else if (name == "zipf1m_sync") {
    const std::int64_t objects = smoke ? 50'000 : 1'000'000;
    spec.synthetic = true;
    spec.synthetic_params = workload::ycsb_params(
        workload::YcsbMix::kB, objects, smoke ? 100'000 : 2'000'000);
    // Pre-size VCover's per-object side tables for the capacity-bounded
    // resident set (~30% of a zipfian key space), as a 10^6-key user would.
    spec.overrides.vcover.expected_resident_objects =
        static_cast<std::size_t>(0.30 * static_cast<double>(objects) * 1.25) +
        64;
  } else if (name == "paper_wan_parallel") {
    spec.params = paper_params(smoke);
    spec.endpoints = 4;
    spec.strategy = workload::SplitStrategy::kBalancedByLoad;
    spec.event = true;
    spec.mt_drive = true;
    spec.engine.default_link = net::LinkModel{};  // 1 Gbit/s, 40 ms RTT
    // Arrivals paced above the mean service time: the closed loop stays
    // unsaturated, so simulated latency measures queries, not a backlog.
    spec.engine.seconds_per_event = 0.2;
  } else if (name == "chaos_open_loop") {
    sim::SetupParams& p = spec.params;
    p.base_level = 4;
    p.total_rows = 4e4;
    p.object_target = 30;
    p.trace.query_count = smoke ? 5'000 : 100'000;
    p.trace.update_count = p.trace.query_count;
    // MB-scale objects and results: the 100 Mbit links carry the load with
    // headroom, so the protocol counters measure faults, not overload.
    p.trace.postwarmup_query_gb =
        0.05 * static_cast<double>(p.trace.query_count) / 1200.0;
    p.trace.mean_postwarmup_update_mb = 0.02;
    p.trace.hotspot_max_object_gb = 0.01;
    spec.policy = sim::PolicyKind::kBenefit;
    spec.endpoints = 2;
    spec.strategy = workload::SplitStrategy::kRoundRobin;
    spec.event = true;
    spec.chaos_rate = 100.0;
    spec.check_ledger = true;
    sim::EventEngineOptions& e = spec.engine;
    e.default_link = net::LinkModel{12.5e6, 0.040};  // 100 Mbit/s, 40 ms
    e.open_loop.enabled = true;
    e.open_loop.arrival = workload::ArrivalProcess::Kind::kPoisson;
    e.open_loop.rate_per_sec = spec.chaos_rate;
    e.open_loop.max_in_flight = 64;
    e.open_loop.seed = net::fault_mix64(seed ^ 0x0A11);
    e.protocol.enabled = true;
    e.admission.enabled = true;
    e.notice_batching.enabled = true;
    e.notice_batching.backlog_threshold_seconds = 0.0;
    // Every link duplicates 2% of its messages; both caches crash-stop (see
    // place_crashes). Loss or reordering is left out: combined with a crash
    // schedule (which also arms the protocol's probe-on-suspect) it can
    // strand an invalidation notice for good on some seeds, so the ledger
    // check would fail for a reason the protocol does not yet handle.
    e.fault_plan.enabled = true;
    e.fault_plan.seed = net::fault_mix64(seed);
    e.fault_plan.default_faults.duplicate = 0.02;
  } else {
    return std::nullopt;
  }
  return spec;
}

// ----------------------------------------------------------------- world

/// One built world: sim::Setup (density, partition map, trace) for the
/// astronomy workloads or the synthetic generator's trace, plus the split.
struct World {
  std::unique_ptr<sim::Setup> setup;  // astronomy worlds only
  workload::Trace synthetic;          // synthetic worlds only
  std::vector<std::uint32_t> assignment;
  Bytes capacity;  // whole-deployment cache: 30% of the server
  double setup_s = 0.0;  // the timed calls: Setup or generate, then split

  [[nodiscard]] workload::Trace& trace() {
    return setup ? setup->mutable_trace() : synthetic;
  }
  [[nodiscard]] const workload::Trace& trace() const {
    return setup ? setup->trace() : synthetic;
  }
};

/// Turns the workload's canonical trace (generator seed 1, the trace the
/// repository's golden tables and BENCH files use) into the input for
/// `seed` by permuting object identities. Generator seeds are deliberately
/// not varied: another astronomy trace changes the work of a replay by up
/// to 1.5x (its hotspot process makes 500k events only a few independent
/// phases), which would swamp every bound, while a permutation keeps the
/// trace's statistics and changes every key the data structures hash and
/// every id tie-break the policies take.
void permute_objects(workload::Trace& trace, std::uint64_t seed) {
  const std::size_t n = trace.initial_object_bytes.size();
  std::vector<std::int64_t> to(n);
  for (std::size_t i = 0; i < n; ++i) to[i] = static_cast<std::int64_t>(i);
  util::Rng{seed}.shuffle(to);
  const auto map = [&to](ObjectId o) {
    return ObjectId{to[static_cast<std::size_t>(o.value())]};
  };
  for (workload::Query& q : trace.queries) {
    for (ObjectId& o : q.objects) o = map(o);
    std::sort(q.objects.begin(), q.objects.end());
  }
  for (workload::Update& u : trace.updates) u.object = map(u.object);
  std::vector<Bytes> bytes(n);
  for (std::size_t i = 0; i < n; ++i) {
    bytes[static_cast<std::size_t>(to[i])] = trace.initial_object_bytes[i];
  }
  trace.initial_object_bytes = std::move(bytes);
  trace.validate();
}

std::uint64_t world_hash(const workload::Trace& t,
                         const std::vector<std::uint32_t>& assignment) {
  Fingerprint f;
  f.add(t.info.warmup_end_event);
  for (const workload::Query& q : t.queries) {
    f.add(q.id.value());
    f.add(q.time);
    f.add(q.kind);
    for (const ObjectId o : q.objects) f.add(o.value());
    for (const std::int32_t b : q.base_cover) f.add(b);
    f.add(q.cost.count());
    f.add(q.staleness_tolerance);
  }
  for (const workload::Update& u : t.updates) {
    f.add(u.id.value());
    f.add(u.time);
    f.add(u.object.value());
    f.add(u.rows);
    f.add(u.cost.count());
  }
  for (const workload::Event& e : t.order) {
    f.add(e.kind);
    f.add(e.index);
  }
  for (const Bytes b : t.initial_object_bytes) f.add(b.count());
  for (const std::uint32_t a : assignment) f.add(a);
  return f.value();
}

/// Builds the world through the entry points users call: sim::Setup (or
/// SyntheticTraceGenerator::generate) and workload::assign_queries, timing
/// both calls together.
std::unique_ptr<World> build_world(const WorkloadSpec& spec) {
  auto world = std::make_unique<World>();
  auto start = Clock::now();
  if (spec.synthetic) {
    const workload::SyntheticTraceGenerator generator{spec.synthetic_params};
    world->synthetic = generator.generate(spec.params.trace_seed);
  } else {
    world->setup = std::make_unique<sim::Setup>(spec.params);
  }
  world->setup_s = seconds_since(start);
  permute_objects(world->trace(), spec.seed);  // input derivation, not set-up
  start = Clock::now();
  world->assignment =
      workload::assign_queries(world->trace(), spec.endpoints, spec.strategy);
  world->setup_s += seconds_since(start);
  Bytes server;
  for (const Bytes b : world->trace().initial_object_bytes) server += b;
  world->capacity = Bytes{static_cast<std::int64_t>(
      server.as_double() * spec.params.cache_fraction)};
  return world;
}

/// Set-up stage by stage, for the traced breakdown only: the same calls
/// sim::Setup's constructor makes, each timed on its own, plus the split.
struct SetupStages {
  double density_s = 0.0;
  double partition_s = 0.0;
  double generate_s = 0.0;
  double assign_s = 0.0;
  std::uint64_t hash = 0;  // must equal the world's
};

SetupStages time_stages(const WorkloadSpec& spec) {
  SetupStages s;
  const sim::SetupParams& p = spec.params;
  workload::Trace trace;
  if (spec.synthetic) {
    const auto start = Clock::now();
    const workload::SyntheticTraceGenerator generator{spec.synthetic_params};
    trace = generator.generate(p.trace_seed);
    s.generate_s = seconds_since(start);
  } else {
    auto start = Clock::now();
    storage::DensityModel density{p.base_level, p.sky_seed};
    density.scale_to_total_rows(p.total_rows);
    s.density_s = seconds_since(start);
    start = Clock::now();
    const auto map = std::make_shared<htm::PartitionMap>(
        htm::PartitionMap::build(p.base_level, density.weights(),
                                 p.object_target));
    s.partition_s = seconds_since(start);
    start = Clock::now();
    const workload::TraceGenerator generator{map, density, p.trace};
    trace = generator.generate(p.trace_seed);
    s.generate_s = seconds_since(start);
  }
  permute_objects(trace, spec.seed);
  const auto start = Clock::now();
  const std::vector<std::uint32_t> assignment =
      workload::assign_queries(trace, spec.endpoints, spec.strategy);
  s.assign_s = seconds_since(start);
  s.hash = world_hash(trace, assignment);
  return s;
}

/// Cache i crash-stops for a tenth of the nominal run (events / rate),
/// starting at 30% + 20%·i of it; the run length is known once the trace is.
void place_crashes(WorkloadSpec& spec, const World& world) {
  if (spec.chaos_rate <= 0.0) return;
  const double nominal =
      static_cast<double>(world.trace().order.size()) / spec.chaos_rate;
  spec.engine.fault_plan.crashes.clear();
  for (std::size_t i = 0; i < spec.endpoints; ++i) {
    const double down = (0.30 + 0.20 * static_cast<double>(i)) * nominal;
    spec.engine.fault_plan.crashes.push_back(net::CrashSchedule{
        "cache-" + std::to_string(i),
        {net::FaultWindow{down, down + 0.10 * nominal}}});
  }
}

// --------------------------------------------------------------- tracing

enum class SpanKind : std::uint8_t { kQuery, kQueryAsync, kUpdate };

/// One policy call. Spans carry their parent (an on_update delivered while
/// an on_query pumps the event queue nests inside it), so self time is the
/// span's duration minus its children's.
struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;
  SpanKind kind = SpanKind::kQuery;
  core::QueryOutcome::Path path = core::QueryOutcome::Path::kShipped;
  bool computed_cover = false;  // VCover's covers_computed advanced
};

/// Spans and policy counters of every traced policy instance. An instance
/// hands its span buffer over when it is destroyed (inside the engine, so
/// only a move happens there); fold() aggregates the buffers once the timed
/// replay is over.
struct TraceSink {
  std::mutex mutex;
  std::vector<std::vector<Span>> buffers;  // guarded by mutex

  void fold();

  util::LogHistogram query_ns{1.0, 1.02, 1500};
  std::int64_t query_calls = 0;
  double query_ns_sum = 0.0;
  double query_self_ns_sum = 0.0;
  std::int64_t path_calls[3] = {0, 0, 0};
  double path_ns_sum[3] = {0.0, 0.0, 0.0};
  std::int64_t async_calls = 0;
  double async_ns_sum = 0.0;
  std::int64_t update_calls = 0;
  double update_ns_sum = 0.0;
  std::int64_t cover_calls = 0;
  double cover_ns_sum = 0.0;
  /// Sum of top-level span durations = total time inside the policy.
  double policy_ns = 0.0;
  std::int64_t bfs = 0;
  std::int64_t covers = 0;
  std::int64_t interactions = 0;
  std::int64_t loads = 0;
  std::int64_t evictions = 0;
  /// Data-bearing replies delivered to the traced caches.
  std::int64_t data_replies = 0;
};

/// Forwards every CachePolicy virtual to the policy sim::make_policy built
/// and records a span around each on_query, on_query_async dispatch and
/// on_update. Measures from outside the library: only public API is used.
class TimedPolicy final : public core::CachePolicy {
 public:
  TimedPolicy(std::unique_ptr<core::CachePolicy> inner, core::CacheNode& cache,
              TraceSink& sink)
      : inner_(std::move(inner)),
        cache_(cache),
        sink_(sink),
        vcover_(dynamic_cast<const core::VCoverPolicy*>(inner_.get())),
        benefit_(dynamic_cast<const core::BenefitPolicy*>(inner_.get())) {
    // Every policy's invalidation handler forwards to its on_update;
    // routing it through the wrapper adds the span and changes nothing else.
    cache.set_invalidation_handler(
        [this](const workload::Update& u) { on_update(u); });
  }
  TimedPolicy(const TimedPolicy&) = delete;
  TimedPolicy& operator=(const TimedPolicy&) = delete;
  ~TimedPolicy() override { absorb(); }

  void on_update(const workload::Update& u) override {
    const std::size_t span = open(SpanKind::kUpdate);
    inner_->on_update(u);
    close(span);
  }
  core::QueryOutcome on_query(const workload::Query& q) override {
    const std::size_t span = open(SpanKind::kQuery);
    const std::int64_t covers = covers_computed();
    core::QueryOutcome outcome = inner_->on_query(q);
    spans_[span].path = outcome.path;
    spans_[span].computed_cover = covers_computed() != covers;
    close(span);
    return outcome;
  }
  void on_query_async(const workload::Query& q, QueryDone done) override {
    const std::size_t span = open(SpanKind::kQueryAsync);
    const std::int64_t covers = covers_computed();
    inner_->on_query_async(q, std::move(done));
    spans_[span].computed_cover = covers_computed() != covers;
    close(span);
  }
  void set_nonblocking_invalidations(bool on) override {
    inner_->set_nonblocking_invalidations(on);
  }
  void set_admission(const core::AdmissionOptions& options) override {
    inner_->set_admission(options);
  }
  [[nodiscard]] std::int64_t degraded_queries() const override {
    return inner_->degraded_queries();
  }
  void on_crash_restart() override { inner_->on_crash_restart(); }
  [[nodiscard]] const char* name() const override { return inner_->name(); }

 private:
  std::unique_ptr<core::CachePolicy> inner_;
  core::CacheNode& cache_;
  TraceSink& sink_;
  const core::VCoverPolicy* vcover_;
  const core::BenefitPolicy* benefit_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;  // stack of open span indices

  [[nodiscard]] std::int64_t covers_computed() const {
    return vcover_ != nullptr ? vcover_->update_manager().covers_computed()
                              : 0;
  }
  std::size_t open(SpanKind kind) {
    Span span;
    span.kind = kind;
    span.parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(span);
    open_.push_back(static_cast<std::int32_t>(spans_.size() - 1));
    spans_.back().start_ns = now_ns();
    return spans_.size() - 1;
  }
  void close(std::size_t span) {
    spans_[span].end_ns = now_ns();
    open_.pop_back();
  }

  void absorb() {
    if (!open_.empty()) return;  // unwound by an exception: a failed replay
    const std::lock_guard<std::mutex> lock{sink_.mutex};
    sink_.buffers.push_back(std::move(spans_));
    if (vcover_ != nullptr) {
      const core::UpdateManager& um = vcover_->update_manager();
      sink_.bfs += um.flow_bfs_count();
      sink_.covers += um.covers_computed();
      sink_.interactions +=
          static_cast<std::int64_t>(um.graph_interaction_count());
      sink_.loads += vcover_->loads();
      sink_.evictions += vcover_->evictions();
    } else if (benefit_ != nullptr) {
      sink_.loads += benefit_->loads();
      sink_.evictions += benefit_->evictions();
    }
    const net::TrafficMeter& meter = cache_.meter();
    sink_.data_replies += meter.message_count(net::Mechanism::kQueryShip) +
                          meter.message_count(net::Mechanism::kUpdateShip) +
                          meter.message_count(net::Mechanism::kObjectLoad);
  }
};

void TraceSink::fold() {
  const std::lock_guard<std::mutex> lock{mutex};
  for (const std::vector<Span>& spans : buffers) {
    std::vector<double> child_ns(spans.size(), 0.0);
    for (const Span& s : spans) {
      if (s.parent >= 0) {
        child_ns[static_cast<std::size_t>(s.parent)] +=
            static_cast<double>(s.end_ns - s.start_ns);
      }
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const auto ns = static_cast<double>(s.end_ns - s.start_ns);
      if (s.parent < 0) policy_ns += ns;
      if (s.computed_cover) {
        ++cover_calls;
        cover_ns_sum += ns;
      }
      switch (s.kind) {
        case SpanKind::kQuery: {
          ++query_calls;
          query_ns_sum += ns;
          query_self_ns_sum += ns - child_ns[i];
          query_ns.add(ns);
          const auto path = static_cast<std::size_t>(s.path);
          ++path_calls[path];
          path_ns_sum[path] += ns;
          break;
        }
        case SpanKind::kQueryAsync:
          ++async_calls;
          async_ns_sum += ns;
          break;
        case SpanKind::kUpdate:
          ++update_calls;
          update_ns_sum += ns;
          break;
      }
    }
  }
  buffers.clear();
}

// --------------------------------------------------------------- replays

/// What one replay produced: its wall time as the caller saw it, the
/// fingerprint of its simulated outputs, broken invariants, and the
/// engine-side numbers the per-layer breakdown reads.
struct Replay {
  double wall_s = 0.0;
  /// wall_s at the host's nominal speed (see HostProbe); set by the runner.
  double normalized_s = 0.0;
  std::uint64_t fingerprint = 0;
  std::string violation;  // empty: every invariant held
  double engine_wall_s = 0.0;
  /// Traced sync replays: building and freeing the DeltaSystem and policy,
  /// which run_policy's timer does not cover. The event engine builds its
  /// nodes inside its own wall (sim.merge_s).
  double construct_teardown_s = 0.0;
  std::vector<double> shard_walls;
  sim::RunResult combined;
  std::int64_t delivered_messages = 0;
  std::int64_t notice_messages = 0;
  std::int64_t coalesced_notices = 0;
  std::int64_t steal_count = 0;
  double shard_balance = 1.0;
  std::int64_t prefiltered_updates = 0;
  sim::ChaosYardsticks chaos;
};

void add_run_result(Fingerprint& f, const sim::RunResult& r) {
  for (const Bytes b : r.postwarmup_by_mechanism) f.add(b.count());
  f.add(r.total_traffic.count());
  f.add(r.overhead_traffic.count());
  f.add(r.queries);
  f.add(r.cache_fresh);
  f.add(r.cache_after_updates);
  f.add(r.shipped);
  f.add(r.objects_loaded);
  f.add(r.postwarmup_latency.count());
  f.add(r.postwarmup_latency.sum());
  f.add(r.postwarmup_latency.max());
}

void check_counts(const sim::RunResult& r, const workload::Trace& trace,
                  std::string& violation) {
  const auto queries = static_cast<std::int64_t>(trace.queries.size());
  if (r.queries != queries) {
    violation += "queries replayed " + std::to_string(r.queries) + " != " +
                 std::to_string(queries) + "; ";
  }
  if (r.cache_fresh + r.cache_after_updates + r.shipped != r.queries) {
    violation += "per-path query counts do not sum to queries; ";
  }
  Bytes by_mechanism;
  for (const Bytes b : r.postwarmup_by_mechanism) by_mechanism += b;
  if (by_mechanism != r.postwarmup_traffic) {
    violation += "per-mechanism bytes do not sum to post-warm-up traffic; ";
  }
}

Replay summarize(sim::RunResult r, const workload::Trace& trace) {
  Replay out;
  Fingerprint f;
  add_run_result(f, r);
  out.fingerprint = f.value();
  check_counts(r, trace, out.violation);
  out.engine_wall_s = r.wall_seconds;
  out.shard_walls = {r.wall_seconds};
  out.combined = std::move(r);
  return out;
}

Replay summarize(sim::EventRunResult r, const workload::Trace& trace,
                 bool check_ledger) {
  Replay out;
  Fingerprint f;
  add_run_result(f, r.replay.combined);
  f.add(r.delivered_messages);
  f.add(r.notice_messages);
  f.add(r.coalesced_notices);
  f.add(r.response_p50());
  f.add(r.response_p99());
  f.add(r.sim_duration_seconds);
  f.add(r.chaos);  // every field is 8 bytes wide: no padding bytes
  for (const sim::RunResult& e : r.replay.per_endpoint) {
    f.add(e.postwarmup_traffic.count());
    f.add(e.queries);
  }
  out.fingerprint = f.value();

  const sim::RunResult& c = r.replay.combined;
  check_counts(c, trace, out.violation);
  Bytes total;
  Bytes postwarmup;
  std::int64_t queries = 0;
  for (const sim::RunResult& e : r.replay.per_endpoint) {
    total += e.total_traffic;
    postwarmup += e.postwarmup_traffic;
    queries += e.queries;
    out.shard_walls.push_back(e.wall_seconds);
  }
  if (total != c.total_traffic || postwarmup != c.postwarmup_traffic ||
      queries != c.queries) {
    out.violation += "per-endpoint figures do not sum to the combined view; ";
  }
  for (std::size_t i = 0; check_ledger && i < r.per_endpoint.size(); ++i) {
    const sim::EndpointEventYardsticks& y = r.per_endpoint[i];
    if (y.notices_logged != y.protocol.notices_applied) {
      out.violation += "cache-" + std::to_string(i) + " notice ledger logged " +
                       std::to_string(y.notices_logged) + " != applied " +
                       std::to_string(y.protocol.notices_applied) + "; ";
    }
  }
  out.engine_wall_s = c.wall_seconds;
  out.delivered_messages = r.delivered_messages;
  out.notice_messages = r.notice_messages;
  out.coalesced_notices = r.coalesced_notices;
  out.steal_count = r.steal_count;
  out.shard_balance = r.shard_balance;
  out.prefiltered_updates = r.prefiltered_updates;
  out.chaos = r.chaos;
  out.combined = std::move(r.replay.combined);
  return out;
}

Bytes per_endpoint_capacity(const WorkloadSpec& spec, const World& world) {
  return Bytes{static_cast<std::int64_t>(world.capacity.as_double() /
                                         static_cast<double>(spec.endpoints))};
}

/// One replay through the public entry point, timed around the call.
Replay replay_untraced(const WorkloadSpec& spec, const World& world,
                       std::size_t threads) {
  const Bytes capacity = per_endpoint_capacity(spec, world);
  if (!spec.event) {
    const auto start = Clock::now();
    sim::RunResult r = sim::run_one(spec.policy, world.trace(), capacity,
                                    spec.params, spec.overrides);
    const double wall = seconds_since(start);
    Replay out = summarize(std::move(r), world.trace());
    out.wall_s = wall;
    return out;
  }
  sim::EventEngineOptions engine = spec.engine;
  engine.parallel.num_threads = threads;
  const auto start = Clock::now();
  sim::EventRunResult r =
      sim::run_one_event(spec.policy, world.trace(), capacity, spec.params,
                         spec.endpoints, spec.strategy, engine, spec.overrides);
  const double wall = seconds_since(start);
  Replay out = summarize(std::move(r), world.trace(), spec.check_ledger);
  out.wall_s = wall;
  return out;
}

/// The same replay with every policy wrapped in TimedPolicy: the sync path
/// mirrors sim::run_one (fresh DeltaSystem + make_policy + run_policy), the
/// event path mirrors sim::run_one_event (make_policy through the factory).
Replay replay_traced(const WorkloadSpec& spec, const World& world,
                     TraceSink& sink) {
  const Bytes capacity = per_endpoint_capacity(spec, world);
  if (!spec.event) {
    const auto start = Clock::now();
    auto system = std::make_unique<core::DeltaSystem>(&world.trace());
    auto policy = std::make_unique<TimedPolicy>(
        sim::make_policy(spec.policy, system->cache(), world.trace(), capacity,
                         spec.params, spec.overrides),
        system->cache(), sink);
    const double construct_s = seconds_since(start);
    sim::RunResult r = sim::run_policy(world.trace(), *system, *policy);
    std::int64_t delivered = 0;
    for (std::size_t m = 0; m < net::kMechanismCount; ++m) {
      delivered +=
          system->meter().message_count(static_cast<net::Mechanism>(m));
    }
    const std::int64_t notices = system->server().notice_messages();
    const auto teardown = Clock::now();
    policy.reset();  // before the system: the policy holds its cache node
    system.reset();
    const double teardown_s = seconds_since(teardown);
    const double wall = seconds_since(start);
    Replay out = summarize(std::move(r), world.trace());
    out.wall_s = wall;
    out.construct_teardown_s = construct_s + teardown_s;
    out.delivered_messages = delivered;
    out.notice_messages = notices;
    return out;
  }
  sim::EventEngineOptions engine = spec.engine;
  engine.parallel.num_threads = 1;
  const auto start = Clock::now();
  sim::EventRunResult r = sim::run_policy_event(
      world.trace(), spec.endpoints, spec.strategy,
      [&](core::CacheNode& cache, std::size_t) {
        return std::make_unique<TimedPolicy>(
            sim::make_policy(spec.policy, cache, world.trace(), capacity,
                             spec.params, spec.overrides),
            cache, sink);
      },
      engine, &world.assignment);
  const double wall = seconds_since(start);
  Replay out = summarize(std::move(r), world.trace(), spec.check_ledger);
  out.wall_s = wall;
  return out;
}

// ------------------------------------------------------------ the runner

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Run {
 public:
  Run(WorkloadSpec spec, double seconds, bool trace, bool smoke)
      : spec_(std::move(spec)),
        seconds_(seconds),
        trace_(trace),
        smoke_(smoke),
        threads_(std::min<std::size_t>(4, util::ThreadPool::hardware_threads())),
        last_probe_s_(cpus_.count(), 0.0) {}

  int execute(const std::string& out_path);

 private:
  WorkloadSpec spec_;
  double seconds_;
  bool trace_;
  bool smoke_;
  std::size_t threads_;
  CpuRotation cpus_;
  HostProbe probe_;
  std::vector<double> probe_s_;      // every probe of the run
  std::vector<double> last_probe_s_; // per CPU slot, 0 until probed
  std::unique_ptr<World> world_;
  std::vector<double> setup_s_;      // one per world build, normalized
  std::vector<double> setup_raw_s_;  // the same builds as measured
  double rss_after_setup_mib_ = 0.0;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  std::optional<std::uint64_t> reference_;
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::vector<double>>> samples_;

  [[nodiscard]] double events() const {
    return static_cast<double>(world_->trace().order.size());
  }
  /// Merged trace events per second of the median replay.
  [[nodiscard]] double throughput(const std::vector<double>& walls) const {
    return ratio(events(), quantile(walls, 0.50));
  }
  /// Probes the CPU in `slot` (the calling thread must be pinned to it) and
  /// returns how many times slower than nominal it runs right now.
  double slowdown(std::size_t slot) {
    const double s = probe_.probe();
    probe_s_.push_back(s);
    last_probe_s_[slot] = s;
    return s / HostProbe::kNominalSeconds;
  }
  /// A multi-thread replay runs on every CPU: the mean of their latest
  /// slowdowns (the single-thread replays keep them fresh).
  [[nodiscard]] double slowdown_all() const {
    double sum = 0.0;
    std::size_t n = 0;
    for (const double s : last_probe_s_) {
      if (s > 0.0) {
        sum += s;
        ++n;
      }
    }
    return n > 0 ? sum / static_cast<double>(n) / HostProbe::kNominalSeconds
                 : 1.0;
  }
  void fail(const std::string& what) {
    ++failed_;
    std::cerr << "delta_bench: FAILED " << what << "\n";
  }
  void metric(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back(Metric{name, std::isfinite(value) ? value : 0.0, unit});
  }

  void setup();
  /// One untraced replay: a single-thread one on the next CPU in turn,
  /// probed right after on the same CPU; a multi-thread one on every CPU.
  Replay replay(std::size_t threads) {
    if (threads > 1) {
      cpus_.release();
      Replay r = replay_untraced(spec_, *world_, threads);
      r.normalized_s = r.wall_s / slowdown_all();
      return r;
    }
    const std::size_t slot = cpus_.pin_next();
    Replay r = replay_untraced(spec_, *world_, 1);
    r.normalized_s = r.wall_s / slowdown(slot);
    return r;
  }
  /// Replay walls as measured and at the host's nominal speed.
  struct Walls {
    std::vector<double> raw;
    std::vector<double> normalized;
    void add(const Replay& r) {
      raw.push_back(r.wall_s);
      normalized.push_back(r.normalized_s);
    }
  };
  /// Counts the replay as an operation and checks it; the first checked
  /// replay's fingerprint is the reference every later one must match.
  void check(const Replay& r, const std::string& what);
  template <typename Fn>
  void guarded(const std::string& what, Fn&& fn);
  /// Untimed: the T=1 replay whose fingerprint every later one must match
  /// and, on an event workload without a multi-thread drive, one T=mt
  /// replay held to the same fingerprint.
  void warm_up();
  /// One T=1 replay and, with a multi-thread drive, one T=mt replay right
  /// after it, so both thread counts sample the same machine conditions.
  void replay_round(Walls& walls, Walls& walls_mt,
                    std::vector<Replay>* mt_replays);
  void add_samples(const std::string& name, const Walls& walls);
  void measure();
  void measure_traced();
  void rerun_cover_and_estimate(double& cover_us, double& estimate_us);
  void write(std::ostream& os, bool full) const;
};

void Run::setup() {
  // Two full builds: set-up time is their median, and both must produce the
  // same world. A third would push the paper workloads past 30 s a run on a
  // busy host. Only one world is resident at a time. The traced run reports
  // no set-up time; its second build is the stage-by-stage one. Like a
  // replay, a build is probed right after it on its CPU.
  const int builds = trace_ ? 1 : 2;
  std::optional<std::uint64_t> first;
  for (int b = 0; b < builds; ++b) {
    world_.reset();
    const std::size_t slot = cpus_.pin_next();
    world_ = build_world(spec_);
    setup_raw_s_.push_back(world_->setup_s);
    setup_s_.push_back(world_->setup_s / slowdown(slot));
    const std::uint64_t hash = world_hash(world_->trace(), world_->assignment);
    if (!first) {
      first = hash;
      continue;
    }
    ++attempted_;
    if (hash != *first) fail("world build " + std::to_string(b) + " hash");
  }
  place_crashes(spec_, *world_);
  rss_after_setup_mib_ = peak_rss_mib();
  samples_.emplace_back("setup_s", setup_s_);
  samples_.emplace_back("setup_raw_s", setup_raw_s_);
  std::cerr << "delta_bench: " << spec_.name << " seed=" << spec_.seed << ": "
            << world_->trace().order.size() << " events, set-up median "
            << quantile(setup_raw_s_, 0.5) << " s as measured, "
            << quantile(setup_s_, 0.5) << " s normalized, over " << builds
            << " builds\n";
}

void Run::check(const Replay& r, const std::string& what) {
  ++attempted_;
  if (!r.violation.empty()) {
    fail(what + ": " + r.violation);
    return;
  }
  if (!reference_) {
    reference_ = r.fingerprint;
  } else if (r.fingerprint != *reference_) {
    fail(what + ": output fingerprint differs from the first replay");
  }
}

template <typename Fn>
void Run::guarded(const std::string& what, Fn&& fn) {
  try {
    fn();
  } catch (const std::exception& e) {
    ++attempted_;
    fail(what + ": " + e.what());
  }
}

void Run::warm_up() {
  guarded("warm-up replay", [&] { check(replay(1), "warm-up replay"); });
  if (!spec_.event || spec_.mt_drive) return;
  const std::string mt = "T=" + std::to_string(threads_) + " check replay";
  guarded(mt, [&] { check(replay(threads_), mt); });
}

void Run::replay_round(Walls& walls, Walls& walls_mt,
                       std::vector<Replay>* mt_replays) {
  guarded("T=1 replay", [&] {
    const Replay r = replay(1);
    check(r, "T=1 replay");
    walls.add(r);
  });
  if (!spec_.mt_drive) return;
  const std::string mt = "T=" + std::to_string(threads_) + " replay";
  guarded(mt, [&] {
    Replay r = replay(threads_);
    check(r, mt);
    walls_mt.add(r);
    if (mt_replays != nullptr) mt_replays->push_back(std::move(r));
  });
}

void Run::add_samples(const std::string& name, const Walls& walls) {
  samples_.emplace_back(name + "_s", walls.raw);
  samples_.emplace_back(name + "_normalized_s", walls.normalized);
}

void Run::measure() {
  warm_up();
  Walls walls;
  Walls walls_mt;
  const auto start = Clock::now();
  while (walls.raw.size() < 3 || seconds_since(start) < seconds_) {
    replay_round(walls, walls_mt, nullptr);
    if (failed_ > 0 && walls.raw.empty()) break;
  }
  add_samples("replay_wall", walls);
  add_samples("replay_wall_mt", walls_mt);
  std::cerr << "delta_bench: host ran " << quantile(probe_s_, 0.5) /
                                                HostProbe::kNominalSeconds
            << "x nominal (median of " << probe_s_.size()
            << " probes); events_per_sec as measured "
            << throughput(walls.raw) << "\n";

  const double eps = throughput(walls.normalized);
  metric("events_per_sec", eps, "events/s");
  metric("events_per_sec_mt",
         spec_.mt_drive ? throughput(walls_mt.normalized) : eps, "events/s");
  metric("setup_s", quantile(setup_s_, 0.5), "s");
  metric("peak_rss_mb", peak_rss_mib(), "MiB");
}

void Run::rerun_cover_and_estimate(double& cover_us, double& estimate_us) {
  // Re-runs the two set-up kernels the astronomy generator spends its time
  // in, on every 10th query region, and checks the cover reproduces the
  // trace's recorded base cover.
  cover_us = 0.0;
  estimate_us = 0.0;
  if (!world_->setup) return;
  const sim::Setup& setup = *world_->setup;
  const storage::SkyCatalog catalog{setup.map(), setup.density()};
  const std::vector<double>& weights = setup.density().weights();
  const int level = setup.map()->base_level();
  double cover_s = 0.0;
  double estimate_s = 0.0;
  std::int64_t n = 0;
  double rows_sum = 0.0;
  for (std::size_t i = 0; i < world_->trace().queries.size(); i += 10) {
    const workload::Query& q = world_->trace().queries[i];
    auto start = Clock::now();
    const std::vector<htm::HtmId> cover = htm::cover_region(q.region, level);
    cover_s += seconds_since(start);
    std::vector<std::int32_t> base;
    for (const htm::HtmId id : cover) {
      const auto idx = static_cast<std::int32_t>(htm::index_in_level(id));
      if (weights[static_cast<std::size_t>(idx)] > 0.0) base.push_back(idx);
    }
    start = Clock::now();
    rows_sum += catalog.estimate_rows_with_cover(q.region, q.base_cover);
    estimate_s += seconds_since(start);
    ++n;
    ++attempted_;
    if (base != q.base_cover) {
      fail("cover_region re-run of query " + std::to_string(i));
    }
  }
  if (!(rows_sum >= 0.0)) fail("estimate_rows_with_cover returned NaN");
  cover_us = ratio(cover_s * 1e6, static_cast<double>(n));
  estimate_us = ratio(estimate_s * 1e6, static_cast<double>(n));
}

void Run::measure_traced() {
  TraceSink sink;
  warm_up();
  Walls walls;
  Walls walls_mt;
  Walls traced_walls;
  std::vector<Replay> mt_replays;
  std::vector<Replay> traced;
  std::vector<double> policy_s;  // policy time of each traced replay
  const auto start = Clock::now();
  while (traced.size() < 3 || seconds_since(start) < seconds_) {
    replay_round(walls, walls_mt, &mt_replays);
    guarded("traced replay", [&] {
      const double before = sink.policy_ns;
      const std::size_t slot = cpus_.pin_next();
      Replay r = replay_traced(spec_, *world_, sink);
      r.normalized_s = r.wall_s / slowdown(slot);
      sink.fold();
      check(r, "traced replay");
      traced_walls.add(r);
      policy_s.push_back((sink.policy_ns - before) * 1e-9);
      traced.push_back(std::move(r));
    });
    if (failed_ > 0 && traced.empty()) break;
  }
  if (traced.empty()) return;

  // Breakdown of each traced replay: policy self time + engine residual +
  // merge + construction/teardown must account for the wall the bench
  // measured around the call.
  std::vector<double> shard_sum;
  std::vector<double> shard_max;
  std::vector<double> merge;
  std::vector<double> construct;
  std::vector<double> critical;
  std::vector<double> errors;
  double traced_wall_sum = 0.0;
  double policy_sum = 0.0;
  double construct_sum = 0.0;
  for (std::size_t i = 0; i < traced.size(); ++i) {
    const Replay& r = traced[i];
    double sum = 0.0;
    double slowest = 0.0;
    for (const double w : r.shard_walls) {
      sum += w;
      slowest = std::max(slowest, w);
    }
    const double merge_s = r.engine_wall_s - sum;
    const double residual = sum - policy_s[i];
    const double parts =
        policy_s[i] + residual + merge_s + r.construct_teardown_s;
    const double error = std::abs(parts - r.wall_s) / r.wall_s;
    errors.push_back(error);
    ++attempted_;
    if (error > 0.05 || residual < 0.0 || merge_s < -1e-6) {
      std::ostringstream os;
      os << "breakdown of traced replay " << i << ": policy " << policy_s[i]
         << " s + engine " << residual << " s + merge " << merge_s
         << " s + construct/teardown " << r.construct_teardown_s
         << " s vs wall " << r.wall_s << " s";
      fail(os.str());
    }
    shard_sum.push_back(sum);
    shard_max.push_back(slowest);
    merge.push_back(merge_s);
    construct.push_back(r.construct_teardown_s);
    critical.push_back(ratio(sum, slowest));
    traced_wall_sum += r.wall_s;
    policy_sum += policy_s[i];
    construct_sum += r.construct_teardown_s;
  }
  add_samples("replay_wall", walls);
  add_samples("replay_wall_mt", walls_mt);
  add_samples("traced_wall", traced_walls);
  samples_.emplace_back("breakdown_error_frac", errors);
  std::cerr << "delta_bench: breakdown accounts for the traced wall within "
            << 100.0 * *std::max_element(errors.begin(), errors.end())
            << "% (limit 5%)\n";

  const double n = static_cast<double>(traced.size());
  const Replay& first = traced.front();
  const sim::RunResult& c = first.combined;
  const double eps = throughput(walls.normalized);
  const double eps_mt =
      spec_.mt_drive ? throughput(walls_mt.normalized) : eps;
  const double eps_traced = throughput(traced_walls.normalized);

  // ---- sim ----
  metric("sim.replays", n, "count");
  metric("sim.replay_wall_p10_s", quantile(walls.raw, 0.10), "s");
  metric("sim.replay_wall_p50_s", quantile(walls.raw, 0.50), "s");
  metric("sim.replay_wall_p90_s", quantile(walls.raw, 0.90), "s");
  metric("sim.policy_share", ratio(policy_sum, traced_wall_sum), "ratio");
  metric("sim.engine_self_ns_per_event",
         ratio((traced_wall_sum - policy_sum - construct_sum) * 1e9,
               events() * n),
         "ns");
  metric("sim.shard_wall_sum_s", mean(shard_sum), "s");
  metric("sim.shard_wall_max_s", mean(shard_max), "s");
  metric("sim.merge_s", mean(merge), "s");
  metric("sim.construct_teardown_s", mean(construct), "s");
  metric("sim.critical_path_speedup", mean(critical), "ratio");
  metric("sim.parallel_speedup", ratio(eps_mt, eps), "ratio");
  metric("sim.shard_balance", first.shard_balance, "ratio");
  metric("sim.prefiltered_updates",
         static_cast<double>(first.prefiltered_updates), "count");

  // ---- util: the worker pool of the T=mt replays (event engine only) ----
  std::vector<double> steals;
  std::vector<double> idle;
  const auto workers =
      static_cast<double>(std::min(threads_, spec_.endpoints));
  for (const Replay& r : mt_replays) {
    double busy = 0.0;
    for (const double w : r.shard_walls) busy += w;
    steals.push_back(static_cast<double>(r.steal_count));
    idle.push_back(workers * r.wall_s - busy);
  }
  metric("util.thread_pool.steal_count", quantile(steals, 0.5), "count");
  metric("util.thread_pool.idle_s", quantile(idle, 0.5), "s");

  // ---- core: policy calls ----
  const auto calls = static_cast<double>(sink.query_calls);
  metric("core.policy.on_query_calls", calls / n, "count");
  metric("core.policy.on_query_ns_p50", sink.query_ns.quantile(0.50), "ns");
  metric("core.policy.on_query_ns_p99", sink.query_ns.quantile(0.99), "ns");
  metric("core.policy.on_query_self_ns_mean",
         ratio(sink.query_self_ns_sum, calls), "ns");
  const char* path_names[3] = {"fresh", "after_updates", "shipped"};
  for (std::size_t p = 0; p < 3; ++p) {
    metric(std::string("core.policy.on_query_ns_mean.") + path_names[p],
           ratio(sink.path_ns_sum[p], static_cast<double>(sink.path_calls[p])),
           "ns");
  }
  metric("core.policy.on_query_async_ns_mean",
         ratio(sink.async_ns_sum, static_cast<double>(sink.async_calls)), "ns");
  metric("core.policy.on_update_calls",
         static_cast<double>(sink.update_calls) / n, "count");
  metric("core.policy.on_update_ns_mean",
         ratio(sink.update_ns_sum, static_cast<double>(sink.update_calls)),
         "ns");

  // ---- cache ----
  metric("cache.hit_ratio",
         ratio(static_cast<double>(c.cache_fresh + c.cache_after_updates),
               static_cast<double>(c.queries)),
         "ratio");
  metric("cache.loads", static_cast<double>(sink.loads) / n, "count");
  metric("cache.evictions", static_cast<double>(sink.evictions) / n, "count");

  // ---- flow: VCover's incremental min-cut ----
  metric("flow.bfs_searches", static_cast<double>(sink.bfs) / n, "count");
  metric("flow.covers_computed", static_cast<double>(sink.covers) / n,
         "count");
  metric("flow.bfs_per_event", ratio(static_cast<double>(sink.bfs) / n,
                                     events()),
         "ratio");
  metric("flow.graph_interactions", static_cast<double>(sink.interactions) / n,
         "count");
  metric("flow.cover_call_ns_mean",
         ratio(sink.cover_ns_sum, static_cast<double>(sink.cover_calls)), "ns");
  metric("flow.cover_time_share", ratio(sink.cover_ns_sum * 1e-9,
                                        traced_wall_sum),
         "ratio");

  // ---- net ----
  const auto delivered = static_cast<double>(first.delivered_messages);
  metric("net.messages_delivered", delivered, "count");
  metric("net.messages_per_event", ratio(delivered, events()), "ratio");
  metric("net.notice_messages", static_cast<double>(first.notice_messages),
         "count");
  metric("net.coalesced_notices", static_cast<double>(first.coalesced_notices),
         "count");
  const sim::ChaosYardsticks& ch = first.chaos;
  metric("net.faults_dropped", static_cast<double>(ch.faults_dropped),
         "count");
  metric("net.faults_duplicated", static_cast<double>(ch.faults_duplicated),
         "count");
  metric("net.faults_reordered", static_cast<double>(ch.faults_reordered),
         "count");
  metric("net.crash_dropped", static_cast<double>(ch.crash_dropped), "count");

  // ---- core: protocol and server ----
  metric("core.protocol.timeouts", static_cast<double>(ch.timeouts), "count");
  metric("core.protocol.retries", static_cast<double>(ch.retries), "count");
  metric("core.protocol.failed_requests",
         static_cast<double>(ch.failed_requests), "count");
  metric("core.protocol.resyncs", static_cast<double>(ch.resyncs), "count");
  metric("core.protocol.replayed_notices",
         static_cast<double>(ch.replayed_notices), "count");
  metric("core.protocol.duplicates_suppressed",
         static_cast<double>(ch.duplicate_notices_suppressed +
                             ch.request_duplicates_suppressed),
         "count");
  const double replies = static_cast<double>(sink.data_replies) / n;
  metric("core.protocol.first_attempt_ratio",
         ratio(replies, replies + static_cast<double>(ch.retries)), "ratio");
  metric("core.server.shed_queries", static_cast<double>(ch.shed_queries),
         "count");
  const auto updates = static_cast<double>(world_->trace().updates.size());
  metric("core.server.ingests",
         updates * static_cast<double>(spec_.event ? spec_.endpoints : 1) -
             static_cast<double>(first.prefiltered_updates),
         "count");

  // ---- workload / htm / storage: set-up, stage by stage ----
  const SetupStages stages = time_stages(spec_);
  ++attempted_;
  if (stages.hash != world_hash(world_->trace(), world_->assignment)) {
    fail("stage-by-stage set-up differs from sim::Setup's world");
  }
  double cover_us = 0.0;
  double estimate_us = 0.0;
  rerun_cover_and_estimate(cover_us, estimate_us);
  double objects = 0.0;
  for (const workload::Query& q : world_->trace().queries) {
    objects += static_cast<double>(q.objects.size());
  }
  metric("storage.density_build_s", stages.density_s, "s");
  metric("htm.partition_map_build_s", stages.partition_s, "s");
  metric("workload.trace_generate_s", stages.generate_s, "s");
  metric("workload.generate_us_per_event",
         ratio(stages.generate_s * 1e6, events()), "us");
  metric("workload.assign_queries_s", stages.assign_s, "s");
  metric("htm.cover_region_us_mean", cover_us, "us");
  metric("storage.estimate_rows_us_mean", estimate_us, "us");
  metric("mem.rss_after_setup_mb", rss_after_setup_mib_, "MiB");
  metric("workload.events", events(), "count");
  metric("workload.objects_per_query_mean",
         ratio(objects, static_cast<double>(world_->trace().queries.size())),
         "count");

  // ---- bench ----
  metric("bench.trace_overhead_frac", 1.0 - ratio(eps_traced, eps), "ratio");
  metric("bench.host_slowdown",
         quantile(probe_s_, 0.5) / HostProbe::kNominalSeconds, "ratio");
}

void write_number(std::ostream& os, double v) {
  os << std::setprecision(std::numeric_limits<double>::max_digits10) << v;
}

void Run::write(std::ostream& os, bool full) const {
  os << "{\"correct\": " << (failed_ == 0 ? "true" : "false")
     << ", \"attempted\": " << attempted_
     << ", \"failed\": " << failed_ << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    os << (i > 0 ? ", " : "") << "\"" << metrics_[i].name
       << "\": {\"value\": ";
    write_number(os, metrics_[i].value);
    os << ", \"unit\": \"" << metrics_[i].unit << "\"}";
  }
  os << "}";
  if (full) {
    os << ",\n \"workload\": \"" << spec_.name << "\", \"seed\": " << spec_.seed
       << ", \"trace\": " << (trace_ ? 1 : 0)
       << ", \"smoke\": " << (smoke_ ? "true" : "false")
       << ", \"comparable\": " << (smoke_ ? "false" : "true")
       << ", \"seconds\": " << seconds_ << ", \"threads_mt\": " << threads_
       << ", \"events\": " << world_->trace().order.size()
       << ", \"ops_attempted\": " << attempted_
       << ", \"ops_failed\": " << failed_ << ",\n \"samples\": {";
    for (std::size_t i = 0; i < samples_.size(); ++i) {
      os << (i > 0 ? ", " : "") << "\"" << samples_[i].first << "\": [";
      for (std::size_t k = 0; k < samples_[i].second.size(); ++k) {
        if (k > 0) os << ", ";
        write_number(os, samples_[i].second[k]);
      }
      os << "]";
    }
    os << "}";
  }
  os << "}\n";
}

int Run::execute(const std::string& out_path) {
  setup();
  if (trace_) {
    measure_traced();
  } else {
    measure();
  }
  samples_.emplace_back("probe_s", probe_s_);
  for (const Metric& m : metrics_) {
    std::cout << m.name << " ";
    write_number(std::cout, m.value);
    std::cout << " " << m.unit << "\n";
  }
  std::cout << "ops_attempted " << attempted_ << "\nops_failed " << failed_
            << "\n";
  if (!out_path.empty()) {
    const std::filesystem::path path{out_path};
    if (path.has_parent_path()) {
      std::filesystem::create_directories(path.parent_path());
    }
    std::ofstream file{path};
    if (!file) {
      std::cerr << "delta_bench: cannot write " << out_path << "\n";
      ++failed_;
    } else {
      write(file, true);
    }
  }
  write(std::cout, false);
  return failed_ == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const util::Config cfg = util::Config::from_args(argc, argv);
    const std::string name = cfg.get_string("workload", "");
    const std::int64_t seed = cfg.get_int("seed", 1);
    const bool smoke = cfg.get_bool("smoke", false);
    const double seconds = cfg.get_double("seconds", smoke ? 1.0 : 12.0);
    const bool trace = cfg.get_bool("trace", false);
    std::optional<WorkloadSpec> spec;
    if (seed >= 0) spec = make_spec(name, static_cast<std::uint64_t>(seed), smoke);
    if (!spec || !(seconds >= 0.0)) {
      std::cerr << "usage: delta_bench workload=<";
      for (std::size_t i = 0; i < std::size(kWorkloads); ++i) {
        std::cerr << (i > 0 ? "|" : "") << kWorkloads[i];
      }
      std::cerr << "> [seed=N>=0] [seconds=S] [trace=0|1] [smoke=0|1] "
                   "[results_dir=DIR] [out=FILE]\n";
      return 2;
    }
    std::string out = cfg.get_string("out", "");
    if (out.empty()) {
      out = cfg.get_string("results_dir", "benchmark/results") + "/" + name +
            (trace ? ".trace.json" : ".json");
    }
    Run run{std::move(*spec), seconds, trace, smoke};
    return run.execute(out);
  } catch (const std::exception& e) {
    std::cerr << "delta_bench: " << e.what() << "\n";
    return 2;
  }
}
