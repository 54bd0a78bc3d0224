// Chaos scenarios (ISSUE 8): the failure-model demo. Drives the open-loop
// WAN engine with deterministic fault injection and the hardened protocol
// armed, and prints the failure/recovery yardsticks for one of five
// scenarios:
//
//   scenario=partition    both server<->cache paths go dark mid-run, then
//                         heal; the caches suspect the partition (timeouts,
//                         retries with backoff), ride it out, and on heal
//                         run an epoch resync that replays every missed
//                         invalidation — the staleness hole closes and the
//                         per-cache notice ledgers balance.
//   scenario=flash_crowd  4x arrival overload, no faults: the admission
//                         controller sheds at the server (kQueryReject)
//                         and degrades at the policy (stale-within-t(q)
//                         answers) instead of collapsing the uplink.
//   scenario=update_storm lossy links everywhere (drop/duplicate/reorder)
//                         under congestion batching: the retry budget and
//                         the dedup windows keep every query accounted and
//                         every notice applied exactly once.
//   scenario=rolling_restart (ISSUE 10) the caches crash-stop one after
//                         another — each loses its store, pending table and
//                         notice high-water mark, restarts cold, and
//                         recovers by re-registering + replaying the ledger
//                         (kRecoverRequest); cold misses re-warm the
//                         working set and the books balance per cache.
//   scenario=server_crash_during_update_storm (ISSUE 10) the repository
//                         process dies mid-storm over lossy links: its
//                         registrations, dedup windows and ledgers are
//                         wiped; caches detect the new incarnation from
//                         reply stamps and rebuild. Loss + crash can leave
//                         genuinely unrecoverable notices (fault-dropped
//                         before the crash, replay source wiped with it) —
//                         the ledger gap, if any, is printed honestly.
//
// Every message fate is a pure function of (plan seed, link, message seq),
// so reruns — at ANY thread count — are bit-identical.
//
//   ./build/examples/chaos_scenarios [scenario=partition] [threads=N] ...
//
// Exits 1 when partition or rolling_restart ends with an unbalanced ledger
// (notices_logged != notices_applied), so a smoke run catches the
// imbalance; server_crash_during_update_storm's gap is reported only.
#include <iostream>
#include <string>
#include <vector>

#include "net/fault_plan.h"
#include "net/link_model.h"
#include "sim/event_engine.h"
#include "sim/experiment.h"
#include "util/config.h"
#include "util/format.h"
#include "workload/trace_split.h"

int main(int argc, char** argv) try {
  using namespace delta;
  const auto cfg = util::Config::from_args(argc, argv);
  const std::string scenario = cfg.get_string("scenario", "partition");
  const std::int64_t endpoints_arg = cfg.get_int("endpoints", 2);
  if (endpoints_arg < 1 || endpoints_arg > 1024) {
    std::cerr << "endpoints must be in [1, 1024], got " << endpoints_arg
              << "\n";
    return 2;
  }
  const auto endpoints = static_cast<std::size_t>(endpoints_arg);
  const std::int64_t threads_arg = cfg.get_int("threads", 1);
  if (threads_arg < 0 || threads_arg > 1024) {
    std::cerr << "threads must be in [0, 1024], got " << threads_arg << "\n";
    return 2;
  }

  // Provisioned so faults — not raw overload — dominate: MB-scale objects
  // and update deltas the 100 Mbit link can carry at the demo arrival rate
  // with headroom. (GB-scale payloads here would saturate the uplink and
  // turn every scenario into the same retransmit storm.)
  sim::SetupParams params;
  params.base_level = 4;
  params.total_rows = 4e4;
  params.object_target = 30;
  params.trace.query_count = cfg.get_int("queries", 8'000);
  params.trace.update_count = cfg.get_int("updates", 8'000);
  params.trace.postwarmup_query_gb =
      0.05 * static_cast<double>(params.trace.query_count) / 1200.0;
  params.trace.mean_postwarmup_update_mb = 0.02;
  params.trace.hotspot_max_object_gb = 0.01;
  params.trace_seed = static_cast<std::uint64_t>(cfg.get_int("seed", 7));
  if (scenario == "rolling_restart" ||
      scenario == "server_crash_during_update_storm") {
    // Crash scenarios want a *loaded* working set: tens-of-KB objects whose
    // load cost pays off fast, so the caches hold real state worth losing —
    // the cold-miss burst after a restart is the point of the demo.
    params.total_rows = 400;
  }
  const double rate = cfg.get_double("rate", 500.0);
  cfg.reject_unread_keys();
  const sim::Setup setup{params};

  sim::EventEngineOptions options;
  options.default_link = net::LinkModel{12.5e6, 0.040};  // 100 Mbit WAN
  options.open_loop.enabled = true;
  options.open_loop.rate_per_sec = rate;
  options.open_loop.max_in_flight = 64;
  options.protocol.enabled = true;
  options.admission.enabled = true;
  options.parallel.num_threads = static_cast<std::size_t>(threads_arg);

  const double duration =
      static_cast<double>(setup.trace().order.size()) / rate;
  if (scenario == "partition") {
    const net::FaultWindow window{0.40 * duration, 0.60 * duration};
    for (std::size_t i = 0; i < endpoints; ++i) {
      options.fault_plan.partitions.push_back(net::LinkPartition{
          "server", "cache-" + std::to_string(i), true, {window}});
    }
    options.fault_plan.enabled = true;
    std::cout << "Partition-then-heal: all server<->cache paths dark over ["
              << util::fixed(window.down_seconds, 2) << "s, "
              << util::fixed(window.heal_seconds, 2) << "s)\n";
  } else if (scenario == "flash_crowd") {
    options.open_loop.rate_per_sec = 4.0 * rate;
    options.admission.shed_backlog_seconds = 0.5;
    options.admission.degrade_backlog_seconds = 0.1;
    std::cout << "Flash crowd: arrivals at " << 4.0 * rate
              << "/s against a link provisioned for ~" << rate << "/s\n";
  } else if (scenario == "update_storm") {
    options.fault_plan.enabled = true;
    options.fault_plan.default_faults.drop = 0.02;
    options.fault_plan.default_faults.duplicate = 0.02;
    options.fault_plan.default_faults.reorder = 0.05;
    options.notice_batching.enabled = true;
    options.notice_batching.backlog_threshold_seconds = 0.0;
    std::cout << "Update storm: every link drops 2%, duplicates 2%, "
                 "reorders 5% (congestion batching on)\n";
  } else if (scenario == "rolling_restart") {
    options.fault_plan.enabled = true;
    // A tight in-flight window would stall the arrival tape as soon as the
    // dead cache fills it with timing-out queries; unbound it so traffic
    // keeps flowing at the crashed endpoint (that traffic IS the cold-miss
    // and late-reply story).
    options.open_loop.max_in_flight = 4096;
    // Staggered windows: cache-i dies at (0.3 + 0.2i) of the run for 10%
    // of it, so at most one cache is down at a time (the rolling deploy).
    for (std::size_t i = 0; i < endpoints; ++i) {
      const double down = (0.30 + 0.20 * static_cast<double>(i)) * duration;
      options.fault_plan.crashes.push_back(net::CrashSchedule{
          "cache-" + std::to_string(i),
          {net::FaultWindow{down, down + 0.10 * duration}}});
    }
    std::cout << "Rolling restart: each cache crash-stops for "
              << util::fixed(0.10 * duration, 2)
              << "s in turn, restarts cold, and recovers\n";
  } else if (scenario == "server_crash_during_update_storm") {
    options.fault_plan.enabled = true;
    options.open_loop.max_in_flight = 4096;
    options.fault_plan.default_faults.drop = 0.02;
    options.fault_plan.default_faults.duplicate = 0.02;
    options.fault_plan.default_faults.reorder = 0.05;
    options.fault_plan.crashes.push_back(net::CrashSchedule{
        "server",
        {net::FaultWindow{0.45 * duration, 0.55 * duration}}});
    std::cout << "Server crash during update storm: lossy links everywhere "
                 "and the repository dead over ["
              << util::fixed(0.45 * duration, 2) << "s, "
              << util::fixed(0.55 * duration, 2) << "s)\n";
  } else {
    std::cerr << "unknown scenario '" << scenario
              << "' (partition | flash_crowd | update_storm | "
                 "rolling_restart | server_crash_during_update_storm)\n";
    return 1;
  }

  // The partition and storm scenarios exist to disrupt invalidation
  // traffic, so they run the full-replica policy (subscribed to every
  // update — the server's notice ledger is guaranteed non-empty); the
  // flash crowd exercises the admission/degrade path, which lives in the
  // VCover policy. The crash scenarios also run VCover: a loaded working
  // set is what makes a cold restart measurable, and its request traffic
  // is what lets a cache detect a restarted server (a quiet full replica
  // answers locally and would never see an incarnation stamp).
  const bool crash_scenario = scenario == "rolling_restart" ||
                              scenario == "server_crash_during_update_storm";
  const sim::PolicyKind policy =
      scenario == "flash_crowd" || crash_scenario ? sim::PolicyKind::kVCover
                                                  : sim::PolicyKind::kReplica;
  const Bytes per_endpoint{static_cast<std::int64_t>(
      setup.cache_capacity().as_double() / static_cast<double>(endpoints))};
  const sim::EventRunResult r = sim::run_one_event(
      policy, setup.trace(), per_endpoint, params, endpoints,
      workload::SplitStrategy::kRoundRobin, options);
  const sim::ChaosYardsticks& ch = r.chaos;

  std::cout << "\n" << endpoints << " caches, "
            << setup.trace().order.size() << " events, sim duration "
            << util::fixed(r.sim_duration_seconds, 2) << "s\n\n";
  util::TablePrinter table{{"yardstick", "value"}};
  table.add_row({"queries (all accounted)",
                 std::to_string(r.replay.combined.queries)});
  table.add_row({"response p50 / p99",
                 util::fixed(r.response_p50(), 3) + "s / " +
                     util::fixed(r.response_p99(), 3) + "s"});
  table.add_row({"timeouts / retries", std::to_string(ch.timeouts) + " / " +
                                           std::to_string(ch.retries)});
  table.add_row({"failed (budget exhausted)",
                 std::to_string(ch.failed_requests)});
  table.add_row({"shed at server / degraded at policy",
                 std::to_string(ch.shed_queries) + " / " +
                     std::to_string(ch.degraded_queries)});
  table.add_row({"duplicates suppressed (req / notice)",
                 std::to_string(ch.request_duplicates_suppressed) + " / " +
                     std::to_string(ch.duplicate_notices_suppressed)});
  table.add_row({"faults (drop/dup/reorder/partition)",
                 std::to_string(ch.faults_dropped) + "/" +
                     std::to_string(ch.faults_duplicated) + "/" +
                     std::to_string(ch.faults_reordered) + "/" +
                     std::to_string(ch.partition_dropped)});
  table.add_row({"unavailable window",
                 util::fixed(ch.unavailable_seconds, 2) + "s"});
  table.add_row({"resyncs (client / served)",
                 std::to_string(ch.resyncs) + " / " +
                     std::to_string(ch.resyncs_served)});
  table.add_row({"notices replayed by resync",
                 std::to_string(ch.replayed_notices)});
  table.add_row({"max staleness repaired",
                 util::fixed(ch.max_recovery_staleness_seconds, 2) + "s"});
  table.add_row({"notice ledger (logged == applied)",
                 std::to_string(ch.notices_logged) + " == " +
                     std::to_string(ch.notices_applied)});
  if (crash_scenario) {
    const double availability =
        r.sim_duration_seconds > 0.0
            ? 1.0 - ch.crash_downtime_seconds / r.sim_duration_seconds
            : 1.0;
    table.add_row({"crash restarts", std::to_string(ch.crash_restarts)});
    table.add_row({"dropped while endpoint down",
                   std::to_string(ch.crash_dropped)});
    table.add_row({"downtime / availability",
                   util::fixed(ch.crash_downtime_seconds, 2) + "s / " +
                       util::fixed(100.0 * availability, 2) + "%"});
    table.add_row({"cold misses (re-warm loads)",
                   std::to_string(ch.cold_misses)});
    table.add_row({"retries past budget (load/resync)",
                   std::to_string(ch.budget_exceeded_retries)});
    table.add_row({"max time to reconvergence",
                   util::fixed(ch.max_reconvergence_seconds, 2) + "s"});
    table.add_row({"post-restart staleness repaired",
                   util::fixed(ch.post_restart_staleness_seconds, 2) + "s"});
  }
  table.print(std::cout);

  if (scenario == "partition" || scenario == "rolling_restart") {
    const bool holds = ch.notices_logged == ch.notices_applied;
    std::cout << "\nConvergence: after the heal + resync every cache has "
                 "applied exactly the notices the server logged for it"
              << (holds ? " -- holds." : " -- VIOLATED!") << "\n";
    if (!holds) return 1;
  } else if (scenario == "server_crash_during_update_storm") {
    // Loss + crash is the one combination with genuinely unrecoverable
    // notices: a notice the lossy link dropped BEFORE the crash was owed
    // from the pre-crash ledger, and that replay source died with the
    // server. Clean-network crashes converge exactly (pinned by
    // crash_restart_test); here the residual gap is reported, not hidden.
    const std::int64_t gap = ch.notices_logged - ch.notices_applied;
    std::cout << "\nLedger gap after loss+crash: " << gap
              << (gap == 0 ? " (this seed lost nothing unrecoverable)"
                           : " notices dropped pre-crash whose replay "
                             "source died with the server")
              << "\n";
  }
  return 0;
} catch (const std::invalid_argument& e) {
  return delta::util::report_bad_argument(e);
}
