#include "pubsub/durable_core.hpp"

#include <algorithm>
#include <chrono>
#include <optional>
#include <sstream>
#include <utility>

#include "lang/parser.hpp"
#include "table/delta.hpp"

namespace camus::pubsub {

using util::Error;
using util::RecordType;
using util::Result;

namespace {

Error bad_payload(RecordType type, const std::string& payload) {
  return Error{"malformed journal payload for record type " +
                   std::to_string(static_cast<int>(type)) + ": '" + payload +
                   "'",
               0, 0, "J011"};
}

// Parses leading unsigned fields off an istringstream; false on failure.
bool read_u64(std::istringstream& is, std::uint64_t& out) {
  return static_cast<bool>(is >> out);
}

// Reads "port prio text" (kSubscribe payloads and snapshot "sub" lines);
// false on a malformed port or priority.
bool read_sub(std::istringstream& is, std::uint16_t& port, int& priority,
              std::string& text) {
  std::uint64_t p = 0;
  long long prio = 0;
  if (!(is >> p >> prio)) return false;
  std::getline(is, text);
  if (!text.empty() && text.front() == ' ') text.erase(0, 1);
  port = static_cast<std::uint16_t>(p);
  priority = static_cast<int>(prio);
  return true;
}

}  // namespace

ReconcileReport reconcile_switch(TwoPhaseInstaller& installer,
                                 const table::Pipeline& want,
                                 const fault::Plan* faults,
                                 std::size_t chunk_bytes, int max_attempts,
                                 int chunk_retries) {
  switchsim::Switch& sw = installer.target();
  ReconcileReport report;
  report.total_entries = want.total_entries();

  // Digest equality short-circuits the whole pass — an in-sync switch
  // costs one digest exchange, zero entries.
  const std::uint64_t want_digest = table::pipeline_digest(want);
  if (sw.program_digest() == want_digest) {
    report.in_sync = true;
    report.reused_entries = report.total_entries;
    installer.resync_from_switch();
    return report;
  }

  // Anti-entropy handshake: the switch reports per-stage digests; count
  // the stages that diverged (telemetry — the diff below is the repair).
  const auto have_digests = sw.stage_digests();
  const auto want_digests = table::stage_digests(want);
  const auto missing_from = [](const std::vector<table::StageDigest>& in,
                               const table::StageDigest& d, bool same) {
    const auto it = std::find_if(
        in.begin(), in.end(),
        [&](const table::StageDigest& x) { return x.table == d.table; });
    return it == in.end() || (same && it->digest != d.digest);
  };
  for (const table::StageDigest& w : want_digests)
    report.diverged_stages += missing_from(have_digests, w, true);
  for (const table::StageDigest& h : have_digests)
    report.diverged_stages += missing_from(want_digests, h, false);

  const table::Pipeline have = sw.pipeline_snapshot();
  table::PipelineDiff diff = table::diff_pipelines(&have, want);
  report.reused_entries = diff.reused_entries;
  report.total_entries = diff.total_entries;
  if (diff.requires_reprogram) {
    report.full_reprogram = true;
    report.install = installer.install(want, faults, chunk_bytes,
                                       max_attempts, chunk_retries);
  } else {
    // Re-seed the installer's dry-run base from the switch's actual
    // program so the repair ops apply against reality.
    installer.resync_from_switch();
    report.repair_ops = diff.ops.size();
    report.install = installer.apply_delta(diff.ops, faults, chunk_bytes,
                                           max_attempts, chunk_retries);
  }
  report.repaired = report.install.committed;
  return report;
}

DurableCore::DurableCore(spec::Schema schema, util::StableStorage& storage)
    : schema_(std::move(schema)), journal_(storage) {}

Error DurableCore::not_open() {
  return Error{"controller used before a successful open()", 0, 0, "E142"};
}

Result<lang::BoundRule> DurableCore::bind(const std::string& text) const {
  auto parsed = lang::parse_rule(text);
  if (!parsed.ok()) return parsed.error();
  auto bound = lang::bind_rule(parsed.value(), schema_);
  if (!bound.ok()) return bound.error();
  auto admitted = admit(bound.value());
  if (!admitted.ok()) return admitted.error();
  return bound;
}

void DurableCore::apply_subscribe(std::uint16_t port, int priority,
                                  std::string text, lang::BoundRule rule) {
  Sub sub;
  sub.port = port;
  sub.priority = priority;
  sub.text = std::move(text);
  sub.ports = rule.actions.ports;
  sub.id = add_rule(std::move(rule));
  subs_.push_back(std::move(sub));
}

Result<bool> DurableCore::replay_subscribe(std::uint16_t port, int priority,
                                           std::string text) {
  auto bound = bind(text);
  if (!bound.ok()) return bound.error();
  apply_subscribe(port, priority, std::move(text), std::move(bound).take());
  return true;
}

std::size_t DurableCore::apply_unsubscribe(std::uint16_t port) {
  const std::size_t before = subs_.size();
  std::erase_if(subs_, [&](const Sub& s) {
    const bool drop = s.ports.size() == 1 && s.ports[0] == port;
    if (drop) remove_rule(s.id);
    return drop;
  });
  return before - subs_.size();
}

Result<std::uint64_t> DurableCore::apply_commit(bool replay) {
  const auto t0 = std::chrono::steady_clock::now();
  auto digest = compile(replay);
  if (!digest.ok()) return digest;
  // Feed the CheckpointPolicy's cost model: replaying a kCommit reruns
  // this exact work, so its measured cost is the best replay estimate.
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  commit_seconds_ewma_ = commit_seconds_ewma_ == 0
                             ? secs
                             : 0.75 * commit_seconds_ewma_ + 0.25 * secs;
  return digest;
}

std::string DurableCore::snapshot_payload() const {
  std::ostringstream os;
  os << "epoch " << epoch_ << "\n"
     << "commits " << commit_seq_ << "\n"
     << "installs " << install_seq_ << "\n";
  for (const Sub& s : subs_)
    os << "sub " << s.port << " " << s.priority << " " << s.text << "\n";
  return os.str();
}

Result<bool> DurableCore::replay_snapshot(const std::string& payload) {
  std::istringstream lines(payload);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    std::istringstream is(line);
    std::string tag;
    is >> tag;
    if (tag == "epoch" || tag == "commits" || tag == "installs") {
      std::uint64_t v = 0;
      if (!read_u64(is, v)) return bad_payload(RecordType::kSnapshot, line);
      if (tag == "epoch") epoch_ = v;
      if (tag == "commits") commit_seq_ = v;
      if (tag == "installs") install_seq_ = v;
    } else if (tag == "sub") {
      std::uint16_t port = 0;
      int prio = 0;
      std::string text;
      if (!read_sub(is, port, prio, text))
        return bad_payload(RecordType::kSnapshot, line);
      auto applied = replay_subscribe(port, prio, std::move(text));
      if (!applied.ok()) return applied.error();
    } else {
      return bad_payload(RecordType::kSnapshot, line);
    }
  }
  // The snapshot captured committed state: rebuild the intended state
  // (fresh state numbering — see the header's recovery-fidelity note).
  if (commit_seq_ > 0) {
    auto committed = apply_commit(/*replay=*/true);
    if (!committed.ok()) return committed.error();
  }
  return true;
}

Result<RecoveryInfo> DurableCore::open() {
  if (opened_) return Error{"controller open() called twice", 0, 0, "E142"};
  auto replayed = journal_.replay();
  if (!replayed.ok()) return replayed.error();
  const util::ReplayResult& rep = replayed.value();

  recovery_ = RecoveryInfo{};
  recovery_.torn_bytes = rep.torn_bytes;
  recovery_.recovered = !rep.records.empty();

  std::uint64_t max_epoch = 0;
  std::optional<std::uint64_t> in_flight;

  for (const util::Record& rec : rep.records) {
    ++recovery_.records_replayed;
    std::istringstream is(rec.payload);
    switch (rec.type) {
      case RecordType::kSnapshot: {
        recovery_.from_snapshot = true;
        auto ok = replay_snapshot(rec.payload);
        if (!ok.ok()) return ok.error();
        max_epoch = std::max(max_epoch, epoch_);
        break;
      }
      case RecordType::kEpoch: {
        std::uint64_t e = 0;
        if (!read_u64(is, e)) return bad_payload(rec.type, rec.payload);
        max_epoch = std::max(max_epoch, e);
        break;
      }
      case RecordType::kSubscribe: {
        std::uint16_t port = 0;
        int prio = 0;
        std::string text;
        if (!read_sub(is, port, prio, text))
          return bad_payload(rec.type, rec.payload);
        auto applied = replay_subscribe(port, prio, std::move(text));
        if (!applied.ok()) return applied.error();
        break;
      }
      case RecordType::kUnsubscribe: {
        std::uint64_t port = 0;
        if (!read_u64(is, port)) return bad_payload(rec.type, rec.payload);
        apply_unsubscribe(static_cast<std::uint16_t>(port));
        break;
      }
      case RecordType::kCommit: {
        std::uint64_t seq = 0, digest = 0;
        if (!read_u64(is, seq) || !read_u64(is, digest))
          return bad_payload(rec.type, rec.payload);
        auto got = apply_commit(/*replay=*/true);
        if (!got.ok()) return got.error();
        commit_seq_ = seq;
        ++recovery_.commits_replayed;
        if (got.value() != digest) {
          ++recovery_.digest_mismatches;
          // Exact replay is deterministic: a divergence means the journal
          // or the compiler lied. After a snapshot, state numbering is
          // legitimately fresh and digests shift — count, don't fail.
          if (!recovery_.from_snapshot)
            return Error{"replayed commit " + std::to_string(seq) +
                             " digest mismatch (journal corruption or "
                             "non-deterministic compiler)",
                         0, 0, "J010"};
        }
        break;
      }
      case RecordType::kInstallBegin: {
        std::uint64_t seq = 0;
        if (!read_u64(is, seq)) return bad_payload(rec.type, rec.payload);
        install_seq_ = std::max(install_seq_, seq);
        in_flight = seq;
        break;
      }
      case RecordType::kInstallCommit:
      case RecordType::kInstallAbort: {
        in_flight.reset();
        break;
      }
    }
  }

  epoch_ = max_epoch + 1;
  recovery_.epoch = epoch_;
  recovery_.subscriptions = subs_.size();
  auto journaled = journal_.append(RecordType::kEpoch,
                                   std::to_string(epoch_));
  if (!journaled.ok()) return journaled.error();

  if (in_flight) {
    // The crash hit between kInstallBegin and its outcome — for a fabric
    // possibly BETWEEN per-switch commits, leaving it mixed old/new.
    // Resolve by journaling the abort: the journaled commit is still the
    // intent, and reconcile() drives every switch to it from digests.
    recovery_.install_in_flight = true;
    recovery_.in_flight_install = *in_flight;
    auto aborted = journal_.append(RecordType::kInstallAbort,
                                   std::to_string(*in_flight));
    if (!aborted.ok()) return aborted.error();
  }

  // Seed the CheckpointPolicy with what a successor would have to replay:
  // everything we just replayed, plus the kEpoch (and possible abort) we
  // appended.
  records_since_checkpoint_ =
      recovery_.records_replayed + 1 + (in_flight ? 1 : 0);
  commits_since_checkpoint_ = recovery_.commits_replayed;

  opened_ = true;
  return recovery_;
}

Result<bool> DurableCore::subscribe(std::uint16_t port,
                                    std::string_view rule_text,
                                    int priority) {
  if (!opened_) return not_open();
  std::string text(rule_text);
  // Interest-only form: append the subscriber's forwarding action (same
  // contract as Controller::subscribe).
  if (text.find(':') == std::string::npos)
    text += " : fwd(" + std::to_string(port) + ")";
  // Validate BEFORE journaling — a rejected rule must not pollute the log
  // (replay re-binds every journaled rule and treats failure as fatal).
  auto bound = bind(text);
  if (!bound.ok()) return bound.error();
  // WAL: journal, sync, then mutate memory.
  std::ostringstream payload;
  payload << port << " " << priority << " " << text;
  auto journaled = journal_.append(RecordType::kSubscribe, payload.str());
  if (!journaled.ok()) return journaled.error();
  ++records_since_checkpoint_;
  apply_subscribe(port, priority, std::move(text), std::move(bound).take());
  return true;
}

Result<std::size_t> DurableCore::unsubscribe(std::uint16_t port) {
  if (!opened_) return not_open();
  // Pure query first: a no-op unsubscribe journals nothing.
  const bool any = std::any_of(subs_.begin(), subs_.end(), [&](const Sub& s) {
    return s.ports.size() == 1 && s.ports[0] == port;
  });
  if (!any) return std::size_t{0};
  auto journaled = journal_.append(RecordType::kUnsubscribe,
                                   std::to_string(port));
  if (!journaled.ok()) return journaled.error();
  ++records_since_checkpoint_;
  return apply_unsubscribe(port);
}

Result<std::uint64_t> DurableCore::commit_and_journal() {
  if (!opened_) return not_open();
  auto digest = apply_commit(/*replay=*/false);
  if (!digest.ok()) return digest;
  ++commit_seq_;
  std::ostringstream payload;
  payload << commit_seq_ << " " << digest.value();
  auto journaled = journal_.append(RecordType::kCommit, payload.str());
  if (!journaled.ok()) return journaled.error();
  ++records_since_checkpoint_;
  ++commits_since_checkpoint_;
  auto compacted = maybe_auto_checkpoint();
  if (!compacted.ok()) return compacted.error();
  return digest;
}

Result<bool> DurableCore::journal_install_begin(const std::string& detail) {
  ++install_seq_;
  ++records_since_checkpoint_;
  return journal_.append(RecordType::kInstallBegin,
                         std::to_string(install_seq_) + " " + detail);
}

Result<bool> DurableCore::journal_install_end(bool committed) {
  ++records_since_checkpoint_;
  return journal_.append(
      committed ? RecordType::kInstallCommit : RecordType::kInstallAbort,
      std::to_string(install_seq_));
}

Result<bool> DurableCore::checkpoint() {
  if (!opened_) return not_open();
  const util::Record rec{RecordType::kSnapshot, snapshot_payload()};
  auto compacted = journal_.compact(std::span<const util::Record>(&rec, 1));
  if (!compacted.ok()) return compacted;
  // Replay now starts at the snapshot: one record, and one recompile when
  // committed state exists.
  records_since_checkpoint_ = 1;
  commits_since_checkpoint_ = commit_seq_ > 0 ? 1 : 0;
  return compacted;
}

double DurableCore::estimated_replay_seconds() const noexcept {
  // Commit records rerun a full compile on replay; charge them the
  // measured EWMA (or the generic record cost until the first measurement
  // lands). Everything else is a parse + bind.
  const double per_commit = commit_seconds_ewma_ > 0
                                ? commit_seconds_ewma_
                                : policy_.per_record_seconds;
  return static_cast<double>(records_since_checkpoint_) *
             policy_.per_record_seconds +
         static_cast<double>(commits_since_checkpoint_) * per_commit;
}

Result<bool> DurableCore::maybe_auto_checkpoint() {
  if (policy_.max_replay_seconds <= 0) return false;
  if (records_since_checkpoint_ < policy_.min_records) return false;
  if (estimated_replay_seconds() <= policy_.max_replay_seconds) return false;
  auto cp = checkpoint();
  if (!cp.ok()) return cp.error();
  ++auto_checkpoints_;
  return true;
}

}  // namespace camus::pubsub
