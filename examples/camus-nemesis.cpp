// camus-nemesis: seeded fault-injection campaign against the crash-safe
// control plane. Runs N scenarios of subscription churn with controller
// crashes, switch reboots, control-channel partitions, and stale-epoch
// writes, checking the four recovery invariants after every disruption
// (see src/fault/nemesis.hpp). One campaign loop drives either plant:
// by default one switch behind a DurableController; with --fabric a
// FabricController over a netsim spine–leaf fabric, which adds crashes
// BETWEEN per-switch commits, per-node reboots, and all-or-nothing
// aborts of partitioned cross-switch installs.
//
// Exits 1 on any violation, so CI can gate on it directly, and 2 on a bad
// flag or a degenerate topology (--spines 0 or --leaves 0: F151).
//
// Usage: camus-nemesis [--fabric] [--seed N] [--scenarios N] [--steps N]
//                      [--probes N] [--leaves N] [--spines N] [--json]
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "fault/nemesis.hpp"

int main(int argc, char** argv) {
  camus::fault::NemesisOptions opts;
  camus::fault::FabricNemesisOptions fopts;
  bool fabric = false;
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--fabric") {
      fabric = true;
    } else if (arg == "--seed") {
      opts.seed = fopts.seed = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--scenarios") {
      opts.scenarios = fopts.scenarios = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--steps") {
      opts.steps = fopts.steps = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--probes") {
      opts.probe_messages = fopts.probe_messages =
          std::strtoull(next(), nullptr, 10);
    } else if (arg == "--leaves") {
      fopts.leaves = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--spines") {
      fopts.spines = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: camus-nemesis [--fabric] [--seed N] [--scenarios N] "
          "[--steps N] [--probes N] [--leaves N] [--spines N] [--json]\n");
      return 0;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return 2;
    }
  }

  camus::fault::NemesisStats stats;
  if (fabric) {
    auto ran = camus::fault::run_fabric_nemesis(fopts);
    if (!ran.ok()) {
      std::fprintf(stderr, "%s\n", ran.error().to_string().c_str());
      return 2;
    }
    stats = std::move(ran).take();
  } else {
    stats = camus::fault::run_nemesis(opts);
  }

  if (json) {
    std::printf("%s\n", stats.to_json().c_str());
  } else if (fabric) {
    std::printf(
        "fabric-nemesis: %zu scenarios, %zu steps | %zu commits, %zu "
        "installs | %zu crashes (%zu mid-commit, %zu from snapshot), "
        "%zu leaf reboots, %zu spine reboots | %zu partitions (%zu atomic "
        "aborts), %zu stale writes (%zu rejected) | %zu reconciles, %zu "
        "repairs (%zu full) | %zu probes\n",
        stats.scenarios, stats.steps, stats.commits, stats.installs,
        stats.crashes, stats.crashes_mid_commit,
        stats.recoveries_from_snapshot, stats.leaf_reboots,
        stats.spine_reboots, stats.partitions, stats.partition_aborts,
        stats.stale_writes, stats.stale_rejected, stats.reconciles,
        stats.repairs, stats.full_reprograms, stats.probes);
  } else {
    std::printf(
        "nemesis: %zu scenarios, %zu steps | %zu commits, %zu installs | "
        "%zu crashes (%zu from snapshot), %zu reboots, %zu partitions "
        "(%zu aborts), %zu stale writes (%zu rejected) | %zu reconciles, "
        "%zu repairs (%zu full), %zu repair ops | %zu probes\n",
        stats.scenarios, stats.steps, stats.commits, stats.installs,
        stats.crashes, stats.recoveries_from_snapshot, stats.switch_reboots,
        stats.partitions, stats.partition_aborts, stats.stale_writes,
        stats.stale_rejected, stats.reconciles, stats.repairs,
        stats.full_reprograms, stats.repair_ops, stats.probes);
  }

  if (stats.violations > 0) {
    std::fprintf(stderr, "VIOLATIONS: %zu\n", stats.violations);
    for (const std::string& d : stats.violation_details)
      std::fprintf(stderr, "  %s\n", d.c_str());
    return 1;
  }
  std::fprintf(stderr, "all invariants held\n");
  return 0;
}
