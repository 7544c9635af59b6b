// Crash-safe control plane for one switch: the DurableCore journal
// protocol (durable_core.hpp) with an incremental compile and a single
// epoch-fenced installer.
//
//   commit   IncrementalCompiler::commit() — the delta against the last
//            installed program, and the full intended pipeline whose
//            digest is journaled in kCommit.
//   install  kInstallBegin "seq ops|full crc" -> the delta's entry ops (or
//            the full image when the delta demands a reprogram) through
//            one TwoPhaseInstaller -> kInstallCommit/kInstallAbort.
#pragma once

#include <cstdint>
#include <optional>

#include "compiler/incremental.hpp"
#include "fault/plan.hpp"
#include "pubsub/durable_core.hpp"
#include "pubsub/install.hpp"
#include "spec/schema.hpp"
#include "switchsim/switch.hpp"
#include "table/delta.hpp"
#include "util/journal.hpp"
#include "util/result.hpp"

namespace camus::pubsub {

// Diagnostics: those of DurableCore, plus E122 (intended before commit).
class DurableController final : public DurableCore {
 public:
  using Delta = compiler::IncrementalCompiler::Delta;

  DurableController(spec::Schema schema, util::StableStorage& storage,
                    compiler::CompileOptions opts = {});

  // Recompiles and journals the commit boundary with the intended
  // pipeline's digest. The returned delta is what install() ships.
  util::Result<Delta> commit();

  // The intended pipeline: what the last journaled commit compiled (E122
  // before the first commit). Deliberately NOT the incremental compiler's
  // diff base — an aborted install rolls the diff base back to what the
  // switch still runs, but the journaled commit remains the intent, and
  // reconcile() keeps driving the switch toward it.
  util::Result<const table::Pipeline*> intended() const;

  // Ships a commit's delta (or the full image when the delta demands a
  // reprogram) through the installer, epoch-fenced and journaled:
  // kInstallBegin before the first byte, kInstallCommit/kInstallAbort
  // after. On abort the incremental diff base is rolled back to what the
  // installer still serves, so the next commit diffs against reality.
  util::Result<InstallReport> install(TwoPhaseInstaller& installer,
                                      const Delta& delta,
                                      const fault::Plan* faults = nullptr,
                                      std::size_t chunk_bytes = 512,
                                      int max_attempts = 3,
                                      int chunk_retries = 8);

  // Warm-boot anti-entropy: fences the switch to this epoch and drives it
  // to the intended pipeline with reconcile_switch (in-sync switches are
  // left untouched). Also re-seeds the installer's last-good and the
  // incremental diff base from the repaired program.
  util::Result<ReconcileReport> reconcile(TwoPhaseInstaller& installer,
                                          const fault::Plan* faults = nullptr,
                                          std::size_t chunk_bytes = 512,
                                          int max_attempts = 3,
                                          int chunk_retries = 8);

 private:
  RuleId add_rule(lang::BoundRule rule) override;
  void remove_rule(RuleId id) override;
  util::Result<std::uint64_t> compile(bool replay) override;

  compiler::IncrementalCompiler inc_;
  // Last committed pipeline — the controller's intent. Kept separate from
  // inc_'s diff base, which install() rolls back on abort.
  std::optional<table::Pipeline> intended_;
  // The delta of the last live commit, handed out by commit().
  Delta delta_;
};

}  // namespace camus::pubsub
