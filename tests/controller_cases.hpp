// Lifecycle and journal-integrity cases shared by both durable
// controllers. Each case is one template body over a controller kind K:
//
//   using Controller = ...;
//   static Controller make(MemStorage&);               // on a journal
//   static std::uint64_t digest(const Controller&);    // intended digest
//   static std::vector<std::uint16_t> ports(const Controller&,
//                                           const Env&);  // intended ports
//
// test_recovery.cpp runs them against DurableController and
// test_fabric.cpp against FabricController, under suite names that keep
// the fabric instances selectable with `ctest -R Fabric`.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "lang/eval.hpp"
#include "pubsub/durable_core.hpp"
#include "util/intern.hpp"
#include "util/journal.hpp"
#include "util/rng.hpp"

namespace controller_cases {

using camus::util::MemStorage;
using camus::util::RecordType;

inline const std::vector<std::string>& symbols() {
  static const std::vector<std::string> syms = {"GOOGL", "MSFT", "AAPL",
                                                "AMZN",  "NVDA", "IBM"};
  return syms;
}

inline std::string gen_rule(camus::util::Rng& rng) {
  switch (rng.uniform(0, 2)) {
    case 0:
      return "stock == " + rng.pick(symbols());
    case 1:
      return "stock == " + rng.pick(symbols()) + " and price > " +
             std::to_string(rng.uniform(1, 400) * 100);
    default:
      return "shares > " + std::to_string(rng.uniform(1, 900));
  }
}

inline camus::lang::Env probe_env(camus::util::Rng& rng) {
  camus::lang::Env env;
  env.fields = {rng.uniform(0, 2500),
                camus::util::encode_symbol(rng.pick(symbols())),
                rng.uniform(0, 60000)};
  env.states = {0, 0};
  return env;
}

// A copy of `src`'s journal with `edit(record, is_last_commit)` applied to
// every record.
inline MemStorage rewrite_journal(
    MemStorage src,
    const std::function<void(camus::util::Record&, bool)>& edit) {
  auto replayed = camus::util::Journal(src).replay();
  EXPECT_TRUE(replayed.ok());
  std::vector<camus::util::Record> records = replayed.value().records;
  std::size_t last_commit = records.size();
  for (std::size_t i = 0; i < records.size(); ++i)
    if (records[i].type == RecordType::kCommit) last_commit = i;
  MemStorage out;
  camus::util::Journal journal(out);
  for (std::size_t i = 0; i < records.size(); ++i) {
    edit(records[i], i == last_commit);
    EXPECT_TRUE(journal.append(records[i].type, records[i].payload).ok());
  }
  return out;
}

// Bumps the recorded digest of the last kCommit.
inline MemStorage tamper_last_commit(const MemStorage& src) {
  return rewrite_journal(src, [](camus::util::Record& r, bool last_commit) {
    if (!last_commit) return;
    std::uint64_t seq = 0, digest = 0;
    std::istringstream(r.payload) >> seq >> digest;
    r.payload = std::to_string(seq) + " " + std::to_string(digest + 1);
  });
}

template <class K>
void mutations_before_open_are_e142() {
  MemStorage st;
  auto ctl = K::make(st);
  EXPECT_EQ(ctl.subscribe(1, "stock == IBM").error().code, "E142");
  EXPECT_EQ(ctl.unsubscribe(1).error().code, "E142");
  EXPECT_EQ(ctl.commit().error().code, "E142");
  EXPECT_EQ(ctl.checkpoint().error().code, "E142");
}

template <class K>
void fresh_open_adopts_epoch_one() {
  MemStorage st;
  auto ctl = K::make(st);
  auto info = ctl.open();
  ASSERT_TRUE(info.ok());
  EXPECT_FALSE(info.value().recovered);
  EXPECT_EQ(ctl.epoch(), 1u);
  EXPECT_EQ(ctl.subscription_count(), 0u);
}

template <class K>
void unsubscribe_removes_only_single_port_rules() {
  MemStorage st;
  auto ctl = K::make(st);
  ASSERT_TRUE(ctl.open().ok());
  ASSERT_TRUE(ctl.subscribe(3, "stock == IBM").value());
  ASSERT_TRUE(ctl.subscribe(3, "price > 100").value());
  ASSERT_TRUE(ctl.subscribe(5, "stock == MSFT").value());
  ASSERT_TRUE(ctl.subscribe(6, "stock == AAPL : fwd(3, 6)").value());
  EXPECT_EQ(ctl.unsubscribe(3).value(), 2u);
  EXPECT_EQ(ctl.subscription_count(), 2u);
  EXPECT_EQ(ctl.unsubscribe(3).value(), 0u);
}

template <class K>
void exact_replay_is_bit_identical() {
  MemStorage st;
  camus::util::Rng rng(42);
  std::uint64_t pre_crash_digest = 0;
  {
    auto ctl = K::make(st);
    ASSERT_TRUE(ctl.open().ok());
    for (int i = 0; i < 30; ++i) {
      ASSERT_TRUE(
          ctl.subscribe(static_cast<std::uint16_t>(1 + i % 7), gen_rule(rng))
              .ok());
      if (i % 3 == 2) {
        ASSERT_TRUE(ctl.commit().ok());
      }
    }
    ASSERT_TRUE(ctl.commit().ok());
    pre_crash_digest = K::digest(ctl);
  }  // controller dies; storage survives

  st.crash();
  auto recovered = K::make(st);
  auto info = recovered.open();
  ASSERT_TRUE(info.ok());
  EXPECT_TRUE(info.value().recovered);
  EXPECT_FALSE(info.value().from_snapshot);
  EXPECT_EQ(info.value().digest_mismatches, 0u);
  EXPECT_EQ(recovered.subscription_count(), 30u);
  // Deterministic compiler + full op history => bit-identical intent.
  EXPECT_EQ(K::digest(recovered), pre_crash_digest);
}

template <class K>
void epoch_increases_across_every_restart() {
  MemStorage st;
  std::uint64_t last = 0;
  for (int run = 0; run < 4; ++run) {
    auto ctl = K::make(st);
    ASSERT_TRUE(ctl.open().ok());
    EXPECT_GT(ctl.epoch(), last);
    last = ctl.epoch();
    st.crash();
  }
}

template <class K>
void checkpoint_recovery_is_semantically_equivalent() {
  MemStorage st;
  camus::util::Rng rng(17);
  std::vector<std::vector<std::uint16_t>> pre_crash;
  std::size_t live = 0;
  {
    auto ctl = K::make(st);
    ASSERT_TRUE(ctl.open().ok());
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(
          ctl.subscribe(static_cast<std::uint16_t>(1 + i % 7), gen_rule(rng))
              .ok());
      if (i % 4 == 3) {
        ASSERT_TRUE(ctl.commit().ok());
      }
    }
    ASSERT_TRUE(ctl.checkpoint().value());
    // More churn after the checkpoint: replay = snapshot + suffix.
    ASSERT_TRUE(ctl.unsubscribe(3).ok());
    ASSERT_TRUE(ctl.subscribe(8, gen_rule(rng)).ok());
    ASSERT_TRUE(ctl.commit().ok());
    camus::util::Rng probe_rng(400);
    for (int i = 0; i < 200; ++i)
      pre_crash.push_back(K::ports(ctl, probe_env(probe_rng)));
    live = ctl.subscription_count();
  }
  st.crash();

  auto recovered = K::make(st);
  auto info = recovered.open();
  ASSERT_TRUE(info.ok());
  EXPECT_TRUE(info.value().from_snapshot);
  EXPECT_EQ(recovered.subscription_count(), live);
  ASSERT_TRUE(recovered.commit().ok());

  // Fresh state numbering: digests may differ, classification may not.
  camus::util::Rng probe_rng(400);
  for (int i = 0; i < 200; ++i)
    EXPECT_EQ(K::ports(recovered, probe_env(probe_rng)), pre_crash[i])
        << "probe " << i;
}

template <class K>
void checkpoint_policy_disabled_by_default() {
  MemStorage st;
  auto ctl = K::make(st);
  ASSERT_TRUE(ctl.open().ok());
  camus::util::Rng rng(5);
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(ctl.subscribe(1, gen_rule(rng)).ok());
    ASSERT_TRUE(ctl.commit().ok());
  }
  EXPECT_EQ(ctl.auto_checkpoints(), 0u);
  // The journal still holds the full history: exact replay, no snapshot.
  auto successor = K::make(st);
  auto info = successor.open();
  ASSERT_TRUE(info.ok());
  EXPECT_FALSE(info.value().from_snapshot);
}

template <class K>
void checkpoint_policy_auto_compacts() {
  MemStorage st;
  auto ctl = K::make(st);
  ASSERT_TRUE(ctl.open().ok());
  // Deterministic trigger regardless of machine speed: charge each record
  // a full second, so the estimate crosses the 10s bound as soon as
  // min_records accumulate — about every 20 records (~10 commits).
  camus::pubsub::CheckpointPolicy policy;
  policy.max_replay_seconds = 10.0;
  policy.min_records = 20;
  policy.per_record_seconds = 1.0;
  ctl.set_checkpoint_policy(policy);

  camus::util::Rng rng(6);
  const int n_commits = 200;
  for (int i = 0; i < n_commits; ++i) {
    ASSERT_TRUE(
        ctl.subscribe(static_cast<std::uint16_t>(1 + i % 6), gen_rule(rng))
            .ok());
    if (i > 0 && i % 9 == 0)
      ctl.unsubscribe(static_cast<std::uint16_t>(1 + i % 6));
    ASSERT_TRUE(ctl.commit().ok());
  }
  // ~2 records per commit, compaction every ~20 records: many checkpoints,
  // and the journal never grows past one policy window.
  EXPECT_GE(ctl.auto_checkpoints(), 10u);
  EXPECT_LE(ctl.estimated_replay_seconds(),
            policy.max_replay_seconds + policy.min_records * 2.0);

  // A successor recovers through the checkpoint path: O(live state)
  // replay, not O(200-commit history).
  auto successor = K::make(st);
  auto info = successor.open();
  ASSERT_TRUE(info.ok()) << info.error().to_string();
  EXPECT_TRUE(info.value().from_snapshot);
  EXPECT_EQ(successor.subscription_count(), ctl.subscription_count());
  EXPECT_LT(info.value().records_replayed,
            static_cast<std::size_t>(n_commits));
  EXPECT_EQ(successor.commit_seq(), ctl.commit_seq());
}

// A journal whose records lie is refused, not silently replayed: a
// tampered commit digest fails exact replay (J010) but is only counted
// after a snapshot (fresh state numbering), and a malformed payload is
// J011.
template <class K>
void tampered_journal_is_j010_or_j011() {
  MemStorage st;
  {
    auto ctl = K::make(st);
    ASSERT_TRUE(ctl.open().ok());
    ASSERT_TRUE(ctl.subscribe(1, "stock == IBM").ok());
    ASSERT_TRUE(ctl.subscribe(2, "shares > 100").ok());
    ASSERT_TRUE(ctl.commit().ok());
  }
  EXPECT_TRUE(K::make(st).open().ok());

  MemStorage exact = tamper_last_commit(st);
  auto replayed = K::make(exact).open();
  ASSERT_FALSE(replayed.ok());
  EXPECT_EQ(replayed.error().code, "J010");

  MemStorage snap;
  {
    auto ctl = K::make(snap);
    ASSERT_TRUE(ctl.open().ok());
    ASSERT_TRUE(ctl.subscribe(1, "stock == IBM").ok());
    ASSERT_TRUE(ctl.commit().ok());
    ASSERT_TRUE(ctl.checkpoint().value());
    ASSERT_TRUE(ctl.subscribe(2, "shares > 100").ok());
    ASSERT_TRUE(ctl.commit().ok());
  }
  MemStorage snap_tampered = tamper_last_commit(snap);
  auto from_snapshot = K::make(snap_tampered).open();
  ASSERT_TRUE(from_snapshot.ok()) << from_snapshot.error().to_string();
  EXPECT_TRUE(from_snapshot.value().from_snapshot);
  EXPECT_EQ(from_snapshot.value().digest_mismatches, 1u);

  for (const RecordType type : {RecordType::kSubscribe, RecordType::kCommit}) {
    MemStorage bad = rewrite_journal(st, [&](camus::util::Record& r, bool) {
      if (r.type == type) r.payload = "not-a-number";
    });
    auto opened = K::make(bad).open();
    ASSERT_FALSE(opened.ok()) << static_cast<int>(type);
    EXPECT_EQ(opened.error().code, "J011") << static_cast<int>(type);
  }
}

}  // namespace controller_cases
