#include "pubsub/durable.hpp"

#include <utility>

#include "table/serialize.hpp"

namespace camus::pubsub {

using util::Error;
using util::Result;

DurableController::DurableController(spec::Schema schema,
                                     util::StableStorage& storage,
                                     compiler::CompileOptions opts)
    : DurableCore(std::move(schema), storage), inc_(this->schema(), opts) {}

DurableCore::RuleId DurableController::add_rule(lang::BoundRule rule) {
  return inc_.add(std::move(rule));
}

void DurableController::remove_rule(RuleId id) { inc_.remove(id); }

Result<std::uint64_t> DurableController::compile(bool replay) {
  auto d = inc_.commit();
  if (!d.ok()) return d.error();
  if (!replay) delta_ = std::move(d).take();
  auto p = inc_.pipeline();
  if (!p.ok()) return p.error();
  // Snapshot the commit as the controller's intent: install-abort rollback
  // only rewinds inc_'s diff base, never this.
  intended_ = *p.value();
  return table::pipeline_digest(*intended_);
}

Result<DurableController::Delta> DurableController::commit() {
  auto digest = commit_and_journal();
  if (!digest.ok()) return digest.error();
  return std::move(delta_);
}

Result<const table::Pipeline*> DurableController::intended() const {
  if (!intended_)
    return Error{"DurableController::intended() before a successful commit()",
                 0, 0, "E122"};
  return &*intended_;
}

Result<InstallReport> DurableController::install(TwoPhaseInstaller& installer,
                                                 const Delta& delta,
                                                 const fault::Plan* faults,
                                                 std::size_t chunk_bytes,
                                                 int max_attempts,
                                                 int chunk_retries) {
  if (!is_open()) return not_open();
  auto intended_pipe = intended();
  if (!intended_pipe.ok()) return intended_pipe.error();

  const bool full = delta.requires_reprogram;
  const std::string image = full ? table::serialize_pipeline(
                                       *intended_pipe.value())
                                 : table::serialize_ops(delta.ops);
  auto journaled =
      journal_install_begin(std::string(full ? "full" : "ops") + " " +
                            std::to_string(util::crc32(image)));
  if (!journaled.ok()) return journaled.error();

  installer.set_epoch(epoch());
  InstallReport report =
      full ? installer.install(*intended_pipe.value(), faults, chunk_bytes,
                               max_attempts, chunk_retries)
           : installer.apply_delta(delta.ops, faults, chunk_bytes,
                                   max_attempts, chunk_retries);

  auto recorded = journal_install_end(report.committed);
  if (!recorded.ok()) return recorded.error();

  if (!report.committed) {
    // The switch kept last-good: roll the incremental diff base back to
    // what the installer still serves so the next commit's delta lands on
    // reality instead of on the phantom install.
    inc_.restore_installed(table::Pipeline(*installer.active()));
  }
  return report;
}

Result<ReconcileReport> DurableController::reconcile(
    TwoPhaseInstaller& installer, const fault::Plan* faults,
    std::size_t chunk_bytes, int max_attempts, int chunk_retries) {
  if (!is_open()) return not_open();

  // Fence first: from here on the predecessor's stragglers bounce (E140).
  auto fenced = installer.target().fence(epoch());
  if (!fenced.ok()) return fenced.error();
  installer.set_epoch(epoch());

  // The intended program = the last journaled commit (NOT inc_'s diff
  // base, which an aborted install rewinds to the switch's last-good).
  // Before any commit it is the empty pipeline — a fresh controller
  // reconciling a previously programmed switch must clear it, not skip it.
  table::Pipeline intended;
  if (intended_) intended = *intended_;
  intended.finalize();

  ReconcileReport report = reconcile_switch(installer, intended, faults,
                                            chunk_bytes, max_attempts,
                                            chunk_retries);
  // The switch now runs the intended program; make it the diff base.
  if (report.repaired) inc_.restore_installed(std::move(intended));
  return report;
}

}  // namespace camus::pubsub
