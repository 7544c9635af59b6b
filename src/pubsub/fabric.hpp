// Fabric control plane: one subscription set, many switches, one journal.
//
// A FabricController is the DurableCore journal protocol
// (durable_core.hpp) over a whole spine–leaf fabric, driving one
// TwoPhaseInstaller per switch. What it adds to the single-switch
// DurableController is how a commit compiles and how an install ships:
//
//   placement   — every commit derives a compiler::FabricPlacement and
//                 compiles per-switch programs (compile_fabric); the
//                 journaled commit digest is the fabric digest, which
//                 folds every per-switch digest, so exact replay proves
//                 the whole fabric's intent, not one pipeline's.
//   all-or-nothing install — install() stages the verified image on EVERY
//                 switch first (stage phase cannot touch a switch), then
//                 commits switch by switch; any stage failure aborts with
//                 zero switches modified, and a commit-phase failure
//                 (fencing) rolls back every switch already committed.
//                 The window where the fabric is mixed is therefore only
//                 a crash *between* commits — which the journal's
//                 kInstallBegin-without-outcome records, and reconcile()
//                 repairs deterministically: the journaled commit is the
//                 intent, and every switch is driven to its per-switch
//                 program from digests, whether the crash left it old,
//                 new, or the fabric half-and-half.
//   fabric-wide fencing — one epoch covers every switch. open() adopts
//                 max(replayed)+1 and reconcile()/install() stamp it on
//                 all installers, so a deposed controller cannot program
//                 ANY switch of the fabric (E140 per switch).
//
// Journal records are the DurableCore ones; an install's begin record is
// kInstallBegin "seq fabric fabric_digest".
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "compiler/fabric.hpp"
#include "fault/plan.hpp"
#include "pubsub/durable_core.hpp"
#include "pubsub/install.hpp"
#include "spec/schema.hpp"
#include "util/journal.hpp"
#include "util/result.hpp"

namespace camus::pubsub {

// The per-switch installers the controller drives, in topology order:
// spines first, then leaves. Defined here (not in netsim) so the control
// plane stays independent of the simulator; netsim::Fabric::targets()
// produces one.
struct FabricTargets {
  std::vector<TwoPhaseInstaller*> spines;
  std::vector<TwoPhaseInstaller*> leaves;

  std::size_t size() const noexcept { return spines.size() + leaves.size(); }
  // Flat index: 0..spines-1 are spines, then leaves.
  TwoPhaseInstaller& at(std::size_t i) const {
    return i < spines.size() ? *spines[i] : *leaves[i - spines.size()];
  }
};

// Outcome of one all-or-nothing fabric install.
struct FabricInstallReport {
  bool committed = false;            // every switch committed
  bool all_or_nothing_abort = false; // a stage failed; NO switch modified
  bool crashed_mid_commit = false;   // crash hook fired between commits
  std::size_t switches = 0;          // targets driven
  std::size_t staged = 0;            // switches that staged successfully
  std::size_t committed_switches = 0;
  std::size_t rolled_back = 0;       // undone after a commit-phase failure
  std::uint64_t epoch = 0;
  std::string error;                 // empty when committed
  // Per-switch reports in flat (spines-then-leaves) order. On an abort
  // the reports of never-staged switches are default-initialized.
  std::vector<InstallReport> reports;
};

// Outcome of one fabric-wide anti-entropy pass.
struct FabricReconcileReport {
  std::size_t switches = 0;
  std::size_t in_sync = 0;          // digest-matched, untouched
  std::size_t repaired = 0;         // a repair landed
  std::size_t full_reprograms = 0;  // repairs that had to re-image
  std::size_t repair_ops = 0;       // entry ops shipped across all deltas
  bool converged = false;  // every switch digest == its intended digest
  std::string error;
};

// Diagnostics: those of DurableCore, plus E122 (intended before commit),
// F150 (stateful rule rejected at subscribe) and F151 (targets disagree
// with the fabric spec).
class FabricController final : public DurableCore {
 public:
  FabricController(spec::Schema schema, util::StableStorage& storage,
                   compiler::FabricSpec fabric,
                   compiler::CompileOptions opts = {});

  const compiler::FabricSpec& fabric() const noexcept { return fabric_; }

  // Places and compiles the whole fabric (partition_for_fabric +
  // compile_fabric), journals the commit with the fabric digest, and
  // returns that digest. The compiled program becomes intended().
  util::Result<std::uint64_t> commit();

  // The intended fabric program of the last journaled commit (E122 before
  // the first). reconcile() drives every switch toward it.
  util::Result<const compiler::FabricProgram*> intended() const;
  util::Result<const compiler::FabricPlacement*> placement() const;

  // All-or-nothing cross-switch install of intended(): stage+verify on
  // every switch of `targets` (spines then leaves), then commit each.
  // `faults` models the control channel of the switch at flat index
  // `fault_switch` (-1 = every switch shares the plan). Journaled as one
  // kInstallBegin / kInstallCommit-or-Abort pair around the whole
  // transaction.
  util::Result<FabricInstallReport> install(const FabricTargets& targets,
                                            const fault::Plan* faults = nullptr,
                                            int fault_switch = -1,
                                            std::size_t chunk_bytes = 512,
                                            int max_attempts = 3,
                                            int chunk_retries = 8);

  // Fabric-wide anti-entropy: fences every switch to this epoch, then
  // drives each toward its per-switch intended program with
  // reconcile_switch (the single-switch routine, once per node).
  util::Result<FabricReconcileReport> reconcile(
      const FabricTargets& targets, const fault::Plan* faults = nullptr,
      std::size_t chunk_bytes = 512, int max_attempts = 3,
      int chunk_retries = 8);

  // Crash-injection hook for the nemesis: the next install() stops dead
  // after committing `n` switches — no outcome record is journaled, as if
  // the controller process died mid-transaction. One-shot; -1 disables.
  void set_crash_after_commits(int n) noexcept { crash_after_commits_ = n; }

 private:
  // Rejects stateful rules (F150): the fabric cannot place them.
  util::Result<bool> admit(const lang::BoundRule& rule) const override;
  RuleId add_rule(lang::BoundRule rule) override;
  void remove_rule(RuleId id) override;
  // Recompiles placement+program from the live set; returns fabric digest.
  util::Result<std::uint64_t> compile(bool replay) override;
  util::Result<bool> check_targets(const FabricTargets& targets) const;
  // The intended pipeline of flat switch index i (spines share one).
  const table::Pipeline& program_for(std::size_t i) const;

  compiler::FabricSpec fabric_;
  compiler::CompileOptions opts_;
  // The live rules in subscription order, and their ids.
  std::vector<lang::BoundRule> rules_;
  std::vector<RuleId> rule_ids_;
  RuleId next_rule_id_ = 1;
  std::optional<compiler::FabricPlacement> placement_;
  std::optional<compiler::FabricProgram> intended_;
  int crash_after_commits_ = -1;
};

}  // namespace camus::pubsub
