// Crash-safe control plane core: the journal protocol that both durable
// controllers share. Every externally visible decision is write-ahead
// journaled (util::Journal), so a crash at ANY point — mid-subscribe,
// mid-commit, mid-install — recovers to the exact intended state by
// replay, and a restarted controller resumes programming its switches
// safely behind a fenced epoch.
//
// Protocol (journal record per step, WAL discipline: journal first, act
// second):
//
//   open()        replay journal -> re-apply subscribe/unsubscribe ->
//                 re-run commits at recorded boundaries (digests checked,
//                 J010 on divergence) -> adopt epoch = last + 1 -> journal
//                 kEpoch. A half-staged install (kInstallBegin without a
//                 matching commit/abort) is resolved by journaling
//                 kInstallAbort: each switch either has the install (its
//                 commit landed) or kept last-good (it didn't) — either
//                 way reconcile() computes the exact repair from digests,
//                 so the resolution is deterministic without knowing which.
//   subscribe     validate (parse, bind, admit) -> journal kSubscribe
//                 "port prio text" -> hand the bound rule to the compiler
//   unsubscribe   journal kUnsubscribe "port" -> drop every rule that
//                 forwards ONLY to the port (Controller::unsubscribe's
//                 filter)
//   commit        compile (pure in-memory; a crash before journaling simply
//                 loses the uncommitted compile) -> journal kCommit
//                 "seq digest" with the intended state's digest
//   install       journal kInstallBegin "seq ..." -> epoch-fenced ship ->
//                 journal kInstallCommit/kInstallAbort "seq"
//   checkpoint    compact the journal to one kSnapshot record (full
//                 intended state). Replay from a snapshot re-adds the
//                 surviving subscriptions and recompiles once: recovery is
//                 then O(live state), not O(history), but state numbering
//                 is fresh — semantically equivalent (the nemesis verifies
//                 with probes), digest-different. Exact replay (no
//                 checkpoint) reproduces the pre-crash intent
//                 bit-identically, because the compiler is deterministic
//                 given the same operation history. kCommit digests
//                 recorded after a checkpoint are therefore only enforced
//                 on exact replay.
//
// The fencing half: each open() adopts a strictly larger epoch, which the
// controllers stamp on every switch write, so a deposed controller's
// stragglers are rejected by the switch (E140) instead of clobbering its
// successor.
//
// What differs between controllers is only how a commit compiles and how
// an install ships; DurableCore leaves both to its subclass
// (DurableController for one switch, FabricController for a spine–leaf
// fabric). The compile side owns the bound rules; the core keeps each
// subscription's port, priority, text and bound ports.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "fault/plan.hpp"
#include "lang/bound.hpp"
#include "pubsub/install.hpp"
#include "spec/schema.hpp"
#include "table/pipeline.hpp"
#include "util/journal.hpp"
#include "util/result.hpp"

namespace camus::pubsub {

// What open() found in the journal.
struct RecoveryInfo {
  bool recovered = false;         // journal held prior state
  bool from_snapshot = false;     // replay started at a kSnapshot
  std::uint64_t epoch = 0;        // epoch adopted by THIS controller
  std::size_t records_replayed = 0;
  std::size_t torn_bytes = 0;     // discarded torn tail
  std::size_t subscriptions = 0;  // live after replay
  std::uint64_t commits_replayed = 0;
  // Replayed commits whose recomputed digest diverged from the recorded
  // one. Fatal (J010) on exact replay; expected and merely counted after
  // a snapshot (fresh state numbering — see file comment).
  std::uint64_t digest_mismatches = 0;
  // A kInstallBegin had no matching commit/abort: the crash hit mid
  // install. open() journals the abort; reconcile() repairs the switches.
  bool install_in_flight = false;
  std::uint64_t in_flight_install = 0;  // its seq (valid when in_flight)
};

// Automatic checkpointing: compact the journal whenever the estimated
// cost of replaying the accumulated history exceeds max_replay_seconds.
// The estimate is records * per_record_seconds plus, for each replayed
// commit, an EWMA of this controller's own measured compile times — so a
// controller with expensive commits checkpoints sooner than one with
// cheap ones, bounding worst-case recovery time rather than journal
// length. Disabled by default (max_replay_seconds <= 0): checkpointing
// trades exact-replay fidelity for recovery speed (see the protocol
// comment above), so it is opt-in.
struct CheckpointPolicy {
  double max_replay_seconds = 0;  // <= 0 disables auto-checkpointing
  std::size_t min_records = 16;   // never compact a near-empty journal
  // Cost charged per non-commit journal record (parse + bind on replay).
  double per_record_seconds = 2e-6;
};

// Outcome of one switch's anti-entropy pass (reconcile_switch).
struct ReconcileReport {
  bool in_sync = false;       // digests matched; nothing shipped
  bool repaired = false;      // a repair landed on the switch
  bool full_reprogram = false;  // repair had to re-image (no entry delta)
  std::size_t diverged_stages = 0;  // stages whose digests differed
  std::size_t repair_ops = 0;       // entry ops shipped (delta repair)
  std::size_t reused_entries = 0;   // intended entries already in place
  std::size_t total_entries = 0;    // intended entries
  InstallReport install;            // the shipping report, when not in_sync

  double reuse_fraction() const noexcept {
    return total_entries == 0 ? 1.0
                              : static_cast<double>(reused_entries) /
                                    static_cast<double>(total_entries);
  }
};

// Drives the installer's switch to `want` (finalized): one digest exchange
// when it already runs it, else the minimal repair — table::diff_pipelines,
// the same currency as live churn deltas, shipped as entry ops when
// possible and as a re-image when not. The caller fences the switch first.
ReconcileReport reconcile_switch(TwoPhaseInstaller& installer,
                                 const table::Pipeline& want,
                                 const fault::Plan* faults,
                                 std::size_t chunk_bytes, int max_attempts,
                                 int chunk_retries);

// Diagnostics:
//   E142  operation before a successful open()
//   J010  replayed commit digest mismatch (journal corruption or broken
//         compiler determinism) on exact replay
//   J011  malformed journal payload for its record type
class DurableCore {
 public:
  virtual ~DurableCore() = default;
  DurableCore(const DurableCore&) = delete;
  DurableCore& operator=(const DurableCore&) = delete;

  // Replays the journal into this controller and adopts a fresh epoch.
  // Must be called (once) before any mutation.
  util::Result<RecoveryInfo> open();
  bool is_open() const noexcept { return opened_; }
  const RecoveryInfo& recovery() const noexcept { return recovery_; }

  // This controller's fenced epoch (0 before open()).
  std::uint64_t epoch() const noexcept { return epoch_; }
  std::uint64_t commit_seq() const noexcept { return commit_seq_; }
  std::size_t subscription_count() const noexcept { return subs_.size(); }

  // WAL-first mutations (same text handling as Controller::subscribe —
  // interest-only rules get " : fwd(port)" appended; unsubscribe removes
  // rules forwarding ONLY to the port). A rule the compile side cannot
  // take is rejected before journaling.
  util::Result<bool> subscribe(std::uint16_t port,
                               std::string_view rule_text, int priority = 0);
  util::Result<std::size_t> unsubscribe(std::uint16_t port);

  // Compacts the journal to a single snapshot of the intended state (see
  // file comment for the recovery-fidelity trade-off).
  util::Result<bool> checkpoint();

  // Arms automatic checkpointing: commit() compacts the journal once the
  // estimated replay cost crosses policy.max_replay_seconds.
  void set_checkpoint_policy(CheckpointPolicy policy) noexcept {
    policy_ = policy;
  }
  const CheckpointPolicy& checkpoint_policy() const noexcept {
    return policy_;
  }
  // Checkpoints taken automatically by the policy (manual ones excluded).
  std::uint64_t auto_checkpoints() const noexcept { return auto_checkpoints_; }
  // The policy's current replay-cost estimate for this journal.
  double estimated_replay_seconds() const noexcept;

  util::Journal& journal() noexcept { return journal_; }
  const spec::Schema& schema() const noexcept { return schema_; }

 protected:
  using RuleId = std::uint64_t;

  // The storage outlives the controller (it IS the durable identity: a
  // restarted controller is a new controller on the same storage).
  DurableCore(spec::Schema schema, util::StableStorage& storage);

  // --- The compile side ---------------------------------------------------
  // Extra admission check on a bound rule, run before it is journaled.
  virtual util::Result<bool> admit(const lang::BoundRule&) const {
    return true;
  }
  virtual RuleId add_rule(lang::BoundRule rule) = 0;
  virtual void remove_rule(RuleId id) = 0;
  // Compiles the live rules into the intended state and returns its
  // digest. `replay` is set when open() re-runs a journaled commit, whose
  // result nothing will ship.
  virtual util::Result<std::uint64_t> compile(bool replay) = 0;

  // --- For the subclass's commit() and install() ---------------------------
  // Compiles, journals kCommit "seq digest" and runs the CheckpointPolicy.
  util::Result<std::uint64_t> commit_and_journal();
  // Journals kInstallBegin "seq detail" under a fresh install seq.
  util::Result<bool> journal_install_begin(const std::string& detail);
  // Journals the outcome of the install begun last.
  util::Result<bool> journal_install_end(bool committed);
  static util::Error not_open();

 private:
  struct Sub {
    RuleId id = 0;
    std::uint16_t port = 0;
    int priority = 0;
    std::string text;  // full rule text incl. action (replay + snapshot)
    std::vector<std::uint16_t> ports;  // bound action ports (unsub filter)
  };

  // Parses, binds and admits one rule text (which includes its action).
  util::Result<lang::BoundRule> bind(const std::string& text) const;
  // Registers a bound subscription (shared by the live path and replay).
  void apply_subscribe(std::uint16_t port, int priority, std::string text,
                       lang::BoundRule rule);
  util::Result<bool> replay_subscribe(std::uint16_t port, int priority,
                                      std::string text);
  std::size_t apply_unsubscribe(std::uint16_t port);
  // compile() plus the CheckpointPolicy's commit-cost measurement.
  util::Result<std::uint64_t> apply_commit(bool replay);
  std::string snapshot_payload() const;
  util::Result<bool> replay_snapshot(const std::string& payload);
  // Runs the CheckpointPolicy at a commit boundary; no-op when disarmed
  // or below threshold.
  util::Result<bool> maybe_auto_checkpoint();

  spec::Schema schema_;
  util::Journal journal_;
  std::vector<Sub> subs_;
  bool opened_ = false;
  std::uint64_t epoch_ = 0;
  std::uint64_t commit_seq_ = 0;
  std::uint64_t install_seq_ = 0;
  RecoveryInfo recovery_;
  // CheckpointPolicy state: what a replay of the current journal would
  // have to redo, and what this controller's commits actually cost.
  CheckpointPolicy policy_;
  std::size_t records_since_checkpoint_ = 0;
  std::uint64_t commits_since_checkpoint_ = 0;
  double commit_seconds_ewma_ = 0;
  std::uint64_t auto_checkpoints_ = 0;
};

}  // namespace camus::pubsub
