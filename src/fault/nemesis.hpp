// Jepsen-style nemesis harness for the crash-safe control plane. One
// campaign loop runs seeded churn scenarios against a durable controller
// and its switches, and injects disruptions between steps:
//
//   controller crash      journal truncated to its synced prefix (+ torn
//                         tail); a successor opens, adopts a higher epoch,
//                         and reconciles every switch (some scenarios
//                         checkpoint first: snapshot recovery).
//   switch reboot         a switch returns factory-blank; reconcile must
//                         re-image it.
//   install partition     every chunk to a switch is dropped: the install
//                         must abort with NO switch modified (checked by
//                         digest) and a later reconcile must heal.
//   stale write           a deposed controller replays its last write;
//                         fencing must bounce it (E140).
//
// Two plants supply what differs: the switch plant (run_nemesis) drives a
// DurableController + TwoPhaseInstaller + Switch; the fabric plant
// (run_fabric_nemesis) drives a FabricController over a netsim::Fabric,
// reboots leaves and spines, partitions one switch of the cross-switch
// transaction, and also crashes the controller BETWEEN per-switch
// commits, leaving the fabric mixed old/new with an unresolved
// kInstallBegin.
//
// Four invariants are checked after every disruption:
//
//   I1  recovery fidelity — a restarted controller's replayed intended
//       state matches the shadow model (same subscription set), and on
//       exact replay the journal's commit digests re-verify (J010 would
//       have failed open()).
//   I2  installed ≡ intended — after reconciliation every switch's
//       program digest equals its intended program's (the pipeline, or
//       the spine/leaf program of the fabric), and an aborted install
//       leaves every switch untouched.
//   I3  fencing — no stale-epoch write lands on any switch: a deposed
//       controller's reprogram bounces with E140 and the switch's program
//       version does not move.
//   I4  delivery resumes exactly-once — for seeded probe messages, the
//       delivered (leaf, port) set equals {(leaf_of(p), p)} of an
//       independently batch-compiled single-switch oracle of the shadow
//       rules: no lost subscriptions (missing deliveries) and no
//       resurrected ones (spurious deliveries).
//
// Everything is a pure function of the seed: scenario i uses seed
// opts.seed + i for churn, crash points, fault plans, and probe messages,
// so a violating seed replays bit-identically under a debugger.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/result.hpp"

namespace camus::fault {

struct NemesisOptions {
  std::uint64_t seed = 1;
  std::size_t scenarios = 100;
  // Churn steps per scenario (each step subscribes/unsubscribes; every
  // commit_every-th step commits and installs).
  std::size_t steps = 14;
  std::size_t commit_every = 3;
  // Probability weights (per mille) for the nemesis acting after a step.
  std::uint32_t crash_per_mille = 180;      // controller crash + recover
  std::uint32_t reboot_per_mille = 90;      // switch reboot (program lost)
  std::uint32_t partition_per_mille = 120;  // install window drops chunks
  std::uint32_t stale_write_per_mille = 120;  // deposed controller writes
  // Every n-th scenario exercises checkpoint compaction before the crash
  // (snapshot recovery path). 0 disables.
  std::size_t checkpoint_every = 4;
  // Messages in the differential delivery sweep (I4).
  std::size_t probe_messages = 64;
};

struct FabricNemesisOptions {
  std::uint64_t seed = 1;
  std::size_t scenarios = 100;
  std::size_t steps = 12;
  std::size_t commit_every = 3;
  std::size_t leaves = 2;
  std::size_t spines = 2;
  // Probability weights (per mille) for the nemesis acting after a step.
  std::uint32_t crash_per_mille = 150;
  std::uint32_t leaf_reboot_per_mille = 90;
  std::uint32_t spine_reboot_per_mille = 60;
  std::uint32_t stale_write_per_mille = 100;
  // Per-mille chance a commit's install runs against a partitioned switch
  // (all chunks dropped → all-or-nothing abort) or crashes mid-commit.
  std::uint32_t partition_per_mille = 180;
  std::uint32_t crash_mid_commit_per_mille = 150;
  // Every n-th scenario checkpoints before a crash (snapshot recovery).
  std::size_t checkpoint_every = 4;
  std::size_t probe_messages = 48;
};

struct NemesisStats {
  bool fabric = false;  // which plant ran (selects to_json()'s plant keys)
  std::size_t scenarios = 0;
  std::size_t steps = 0;
  std::size_t commits = 0;
  std::size_t installs = 0;
  std::size_t crashes = 0;
  std::size_t crashes_mid_commit = 0;  // fabric: died between commits
  std::size_t recoveries_from_snapshot = 0;
  std::size_t switch_reboots = 0;      // switch plant
  std::size_t leaf_reboots = 0;        // fabric plant
  std::size_t spine_reboots = 0;       // fabric plant
  std::size_t partitions = 0;
  // Partitioned installs that aborted with no switch modified; must equal
  // partitions. The fabric's JSON key is "all_or_nothing_aborts".
  std::size_t partition_aborts = 0;
  std::size_t stale_writes = 0;
  std::size_t stale_rejected = 0;     // must equal stale_writes (I3)
  std::size_t reconciles = 0;
  std::size_t repairs = 0;            // switches a reconcile repaired
  std::size_t full_reprograms = 0;    // repairs that had to re-image
  std::size_t repair_ops = 0;         // total entry ops shipped as repairs
  std::size_t checkpoints = 0;
  std::size_t probes = 0;             // differential messages checked
  std::size_t violations = 0;
  std::vector<std::string> violation_details;  // first few, for triage

  std::string to_json() const;
};

// Runs the single-switch campaign; deterministic in opts.seed. Any
// violation is both counted and described (scenario seed + invariant).
NemesisStats run_nemesis(const NemesisOptions& opts);

// Runs the fabric campaign; deterministic in opts.seed. F151 (before any
// scenario runs) when the topology has no spine or no leaf.
util::Result<NemesisStats> run_fabric_nemesis(const FabricNemesisOptions& opts);

}  // namespace camus::fault
