#include "pubsub/fabric.hpp"

#include <algorithm>
#include <utility>

#include "table/delta.hpp"

namespace camus::pubsub {

using util::Error;
using util::Result;

FabricController::FabricController(spec::Schema schema,
                                   util::StableStorage& storage,
                                   compiler::FabricSpec fabric,
                                   compiler::CompileOptions opts)
    : DurableCore(std::move(schema), storage), fabric_(fabric), opts_(opts) {}

Result<bool> FabricController::admit(const lang::BoundRule& rule) const {
  return compiler::fabric_rule_ok(rule, schema());
}

DurableCore::RuleId FabricController::add_rule(lang::BoundRule rule) {
  rules_.push_back(std::move(rule));
  rule_ids_.push_back(next_rule_id_);
  return next_rule_id_++;
}

void FabricController::remove_rule(RuleId id) {
  const auto it = std::find(rule_ids_.begin(), rule_ids_.end(), id);
  if (it == rule_ids_.end()) return;
  rules_.erase(rules_.begin() + (it - rule_ids_.begin()));
  rule_ids_.erase(it);
}

Result<std::uint64_t> FabricController::compile(bool /*replay*/) {
  auto placed =
      compiler::partition_for_fabric(schema(), rules_, fabric_, opts_);
  if (!placed.ok()) return placed.error();
  auto compiled = compiler::compile_fabric(schema(), placed.value(), opts_);
  if (!compiled.ok()) return compiled.error();
  placement_ = std::move(placed).take();
  intended_ = std::move(compiled).take();
  return intended_->fabric_digest;
}

Result<std::uint64_t> FabricController::commit() {
  return commit_and_journal();
}

Result<const compiler::FabricProgram*> FabricController::intended() const {
  if (!intended_)
    return Error{"FabricController::intended() before a successful commit()",
                 0, 0, "E122"};
  return &*intended_;
}

Result<const compiler::FabricPlacement*> FabricController::placement() const {
  if (!placement_)
    return Error{"FabricController::placement() before a successful commit()",
                 0, 0, "E122"};
  return &*placement_;
}

const table::Pipeline& FabricController::program_for(std::size_t i) const {
  return i < fabric_.spines ? intended_->spine
                            : intended_->leaves[i - fabric_.spines];
}

Result<bool> FabricController::check_targets(
    const FabricTargets& targets) const {
  if (targets.spines.size() != fabric_.spines ||
      targets.leaves.size() != fabric_.leaves)
    return Error{"FabricTargets shape disagrees with the fabric spec", 0, 0,
                 "F151"};
  return true;
}

Result<FabricInstallReport> FabricController::install(
    const FabricTargets& targets, const fault::Plan* faults, int fault_switch,
    std::size_t chunk_bytes, int max_attempts, int chunk_retries) {
  if (!is_open()) return not_open();
  auto program = intended();
  if (!program.ok()) return program.error();
  auto shaped = check_targets(targets);
  if (!shaped.ok()) return shaped.error();

  FabricInstallReport report;
  report.switches = targets.size();
  report.epoch = epoch();
  report.reports.resize(targets.size());

  // The whole transaction is one journaled install; the begin record
  // carries the fabric digest so a post-crash reader knows what was being
  // attempted.
  auto journaled = journal_install_begin(
      "fabric " + std::to_string(intended_->fabric_digest));
  if (!journaled.ok()) return journaled.error();

  // --- Phase 1: stage everywhere. No switch is touched; a failure on any
  // switch aborts the transaction with the fabric exactly as it was.
  std::vector<StagedInstall> staged(targets.size());
  for (std::size_t i = 0; i < targets.size(); ++i) {
    TwoPhaseInstaller& installer = targets.at(i);
    installer.set_epoch(epoch());
    const fault::Plan* plan =
        (fault_switch < 0 || static_cast<std::size_t>(fault_switch) == i)
            ? faults
            : nullptr;
    staged[i] = installer.stage(program_for(i), plan, chunk_bytes,
                                max_attempts, chunk_retries);
    report.reports[i] = staged[i].report;
    if (!staged[i].staged) {
      report.all_or_nothing_abort = true;
      report.error = "stage failed on switch " + std::to_string(i) + ": " +
                     staged[i].report.error;
      auto aborted = journal_install_end(false);
      if (!aborted.ok()) return aborted.error();
      return report;
    }
    ++report.staged;
  }

  // --- Phase 2: commit switch by switch. Every image already passed
  // digest+parse verification, so the only failure left is fencing (a
  // newer controller took the fabric) — which rolls back the switches
  // this transaction already flipped.
  for (std::size_t i = 0; i < targets.size(); ++i) {
    if (crash_after_commits_ >= 0 &&
        static_cast<std::size_t>(crash_after_commits_) ==
            report.committed_switches) {
      // Simulated controller death between per-switch commits: no outcome
      // record, fabric left mixed. open()+reconcile() must repair.
      crash_after_commits_ = -1;
      report.crashed_mid_commit = true;
      report.error = "controller crashed mid-commit (injected)";
      return report;
    }
    TwoPhaseInstaller& installer = targets.at(i);
    if (!installer.commit_staged(staged[i])) {
      report.reports[i] = staged[i].report;
      report.error = "commit failed on switch " + std::to_string(i) + ": " +
                     staged[i].report.error;
      // Roll back every switch this transaction already committed.
      for (std::size_t j = 0; j < i; ++j)
        if (targets.at(j).rollback()) ++report.rolled_back;
      auto aborted = journal_install_end(false);
      if (!aborted.ok()) return aborted.error();
      return report;
    }
    report.reports[i] = staged[i].report;
    ++report.committed_switches;
  }

  auto recorded = journal_install_end(true);
  if (!recorded.ok()) return recorded.error();
  report.committed = true;
  return report;
}

Result<FabricReconcileReport> FabricController::reconcile(
    const FabricTargets& targets, const fault::Plan* faults,
    std::size_t chunk_bytes, int max_attempts, int chunk_retries) {
  if (!is_open()) return not_open();
  auto shaped = check_targets(targets);
  if (!shaped.ok()) return shaped.error();

  FabricReconcileReport report;
  report.switches = targets.size();

  // Fence the whole fabric first: after this loop a deposed controller's
  // stragglers bounce on every switch, so repairs cannot interleave with
  // a predecessor's writes on any node.
  for (std::size_t i = 0; i < targets.size(); ++i) {
    TwoPhaseInstaller& installer = targets.at(i);
    auto fenced = installer.target().fence(epoch());
    if (!fenced.ok()) return fenced.error();
    installer.set_epoch(epoch());
  }

  // Per-switch intended program: last journaled commit, or the empty
  // pipeline before any commit (a fresh controller must clear previously
  // programmed switches, not skip them).
  report.converged = true;
  for (std::size_t i = 0; i < targets.size(); ++i) {
    table::Pipeline want;
    if (intended_) want = program_for(i);
    want.finalize();
    const ReconcileReport rec = reconcile_switch(
        targets.at(i), want, faults, chunk_bytes, max_attempts,
        chunk_retries);
    if (rec.in_sync) {
      ++report.in_sync;
      continue;
    }
    report.full_reprograms += rec.full_reprogram;
    report.repair_ops += rec.repair_ops;
    // Converged means every switch digest equals its intended digest, so
    // a landed repair is confirmed against the switch.
    if (rec.repaired && targets.at(i).target().program_digest() ==
                            table::pipeline_digest(want)) {
      ++report.repaired;
    } else {
      report.converged = false;
      if (report.error.empty())
        report.error = "repair failed on switch " + std::to_string(i) + ": " +
                       rec.install.error;
    }
  }
  return report;
}

}  // namespace camus::pubsub
