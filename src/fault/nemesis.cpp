#include "fault/nemesis.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <sstream>
#include <utility>

#include "compiler/compile.hpp"
#include "fault/plan.hpp"
#include "lang/bound.hpp"
#include "lang/parser.hpp"
#include "netsim/fabric.hpp"
#include "pubsub/durable.hpp"
#include "pubsub/fabric.hpp"
#include "pubsub/install.hpp"
#include "spec/itch_spec.hpp"
#include "switchsim/switch.hpp"
#include "table/delta.hpp"
#include "util/intern.hpp"
#include "util/journal.hpp"
#include "util/rng.hpp"

namespace camus::fault {

namespace {

using pubsub::DurableController;
using pubsub::FabricController;
using pubsub::TwoPhaseInstaller;
using Delivery = std::vector<std::pair<std::size_t, std::uint16_t>>;

const std::vector<std::string>& symbols() {
  static const std::vector<std::string> syms = {
      "GOOGL", "MSFT", "AAPL", "AMZN", "NVDA", "TSLA", "IBM", "ORCL"};
  return syms;
}

// Seeded textual rule generator (the churn workload's grammar): plain
// symbol interest, symbol+price bands, share-size filters — the shapes
// the paper's ITCH application uses, all stateless (the fabric rejects
// stateful rules with F150). Interest-only texts exercise the
// controller's fwd(port) appending.
std::string gen_rule_text(util::Rng& rng) {
  switch (rng.uniform(0, 3)) {
    case 0:
      return "stock == " + rng.pick(symbols());
    case 1:
      return "stock == " + rng.pick(symbols()) + " and price > " +
             std::to_string(rng.uniform(1, 500) * 100);
    case 2:
      return "shares > " + std::to_string(rng.uniform(1, 900));
    default:
      return "stock == " + rng.pick(symbols()) + " and shares < " +
             std::to_string(rng.uniform(10, 2000));
  }
}

// The harness's shadow model: what the intended state MUST be, maintained
// independently of the controller (same single-port unsubscribe filter).
struct ShadowSub {
  std::uint16_t port = 0;
  int priority = 0;
  std::string text;  // full text incl. action
};

// Binds the shadow set for the batch-compiled oracle.
util::Result<std::vector<lang::BoundRule>> bind_shadow(
    const spec::Schema& schema, const std::vector<ShadowSub>& shadow) {
  std::vector<lang::BoundRule> rules;
  rules.reserve(shadow.size());
  for (const ShadowSub& s : shadow) {
    auto parsed = lang::parse_rule(s.text);
    if (!parsed.ok()) return parsed.error();
    auto bound = lang::bind_rule(parsed.value(), schema);
    if (!bound.ok()) return bound.error();
    rules.push_back(std::move(bound).take());
  }
  return rules;
}

lang::Env probe_env(util::Rng& rng) {
  lang::Env env;
  env.fields = {rng.uniform(0, 2500),                        // shares
                util::encode_symbol(rng.pick(symbols())),    // stock
                rng.uniform(0, 60000)};                      // price
  env.states = {0, 0};
  return env;
}

// What a plant reports back to the campaign.
struct Shipped {      // one install
  bool committed = false;
  std::string error;
};
struct Partitioned {  // one install with a switch partitioned away
  bool aborted = false;  // the install did not commit
  bool intact = false;   // all-or-nothing: no switch's program moved
};
struct Repair {       // one reconcile pass
  std::size_t repaired = 0;  // switches repaired
  std::size_t full_reprograms = 0;
  std::size_t repair_ops = 0;
  bool converged = false;
  std::string error;
};

// --- Plants ------------------------------------------------------------------
// A plant owns the controller and the switches it programs, and supplies
// the commit/install choices, the reboots, and the I2/I4 observations.

// One switch behind one installer, driven by a DurableController.
struct SwitchPlant {
  using Options = NemesisOptions;
  static constexpr bool kFabric = false;

  const Options& opts;
  std::unique_ptr<switchsim::Switch> sw;
  std::unique_ptr<TwoPhaseInstaller> installer;
  std::unique_ptr<DurableController> ctl;
  DurableController::Delta delta;  // the last commit's, shipped by install()

  SwitchPlant(const Options& o, util::MemStorage& storage) : opts(o) {
    boot();
    restart(storage);
  }

  // The switch comes back with an empty program (cold boot) — the
  // harshest divergence reconciliation must repair.
  void boot() {
    installer.reset();
    sw = std::make_unique<switchsim::Switch>(spec::make_itch_schema(),
                                             table::Pipeline{});
    installer = std::make_unique<TwoPhaseInstaller>(*sw);
  }

  void restart(util::MemStorage& storage) {
    ctl = std::make_unique<DurableController>(spec::make_itch_schema(),
                                              storage);
  }

  std::vector<std::uint32_t> reboot_weights() const {
    return {opts.reboot_per_mille};
  }
  std::string reboot(std::size_t /*kind*/, util::Rng&, NemesisStats& stats) {
    ++stats.switch_reboots;
    boot();
    return "switch";
  }

  util::Result<bool> commit() {
    auto d = ctl->commit();
    if (!d.ok()) return d.error();
    delta = std::move(d).take();
    return true;
  }

  util::Result<Shipped> install(const Plan* plan) {
    auto report = ctl->install(*installer, delta, plan);
    if (!report.ok()) return report.error();
    return Shipped{report.value().committed, report.value().error};
  }

  util::Result<Partitioned> install_partitioned(const Plan& plan, util::Rng&) {
    const std::uint64_t before = sw->program_digest();
    auto shipped = install(&plan);
    if (!shipped.ok()) return shipped.error();
    return Partitioned{!shipped.value().committed,
                       sw->program_digest() == before};
  }

  util::Result<Repair> reconcile() {
    auto rec = ctl->reconcile(*installer);
    if (!rec.ok()) return rec.error();
    const pubsub::ReconcileReport& r = rec.value();
    return Repair{r.repaired, r.full_reprogram, r.repair_ops,
                  r.in_sync || r.repaired, r.install.error};
  }

  switchsim::Switch& stale_target(util::Rng&) { return *sw; }

  // I2: the switches whose program digest differs from the intended one.
  std::vector<std::string> diverged() {
    if (sw->program_digest() ==
        table::pipeline_digest(*ctl->intended().value()))
      return {};
    return {"switch"};
  }

  Delivery deliver(const std::vector<std::uint64_t>& fields,
                   std::uint64_t now) {
    Delivery out;
    for (const std::uint16_t p : sw->classify(fields, now).ports)
      out.emplace_back(0, p);
    return out;
  }
  std::size_t leaf_of(std::uint16_t) const { return 0; }
};

// A spine–leaf netsim::Fabric driven by a FabricController.
struct FabricPlant {
  using Options = FabricNemesisOptions;
  static constexpr bool kFabric = true;

  const Options& opts;
  compiler::FabricSpec fabric_spec{opts.leaves, opts.spines};
  std::unique_ptr<netsim::Fabric> fabric;
  std::unique_ptr<FabricController> ctl;

  FabricPlant(const Options& o, util::MemStorage& storage) : opts(o) {
    netsim::FabricTopologyOptions topo;
    topo.spec = fabric_spec;
    fabric = std::make_unique<netsim::Fabric>(spec::make_itch_schema(), topo);
    restart(storage);
  }

  void restart(util::MemStorage& storage) {
    ctl = std::make_unique<FabricController>(spec::make_itch_schema(),
                                             storage, fabric_spec);
  }

  // Flat switch index: spines first, then leaves.
  std::size_t switch_count() const {
    return fabric_spec.spines + fabric_spec.leaves;
  }
  switchsim::Switch& node(std::size_t i) {
    return i < fabric_spec.spines ? fabric->spine(i)
                                  : fabric->leaf(i - fabric_spec.spines);
  }
  std::vector<std::uint64_t> digests() {
    std::vector<std::uint64_t> d;
    for (std::size_t i = 0; i < switch_count(); ++i)
      d.push_back(node(i).program_digest());
    return d;
  }

  // Kind 0 reboots a leaf, kind 1 a spine.
  std::vector<std::uint32_t> reboot_weights() const {
    return {opts.leaf_reboot_per_mille, opts.spine_reboot_per_mille};
  }
  std::string reboot(std::size_t kind, util::Rng& rng, NemesisStats& stats) {
    if (kind == 0) {
      ++stats.leaf_reboots;
      const std::size_t l = rng.uniform(0, fabric_spec.leaves - 1);
      fabric->reboot_leaf(l);
      return "leaf " + std::to_string(l);
    }
    ++stats.spine_reboots;
    const std::size_t s = rng.uniform(0, fabric_spec.spines - 1);
    fabric->reboot_spine(s);
    return "spine " + std::to_string(s);
  }

  util::Result<bool> commit() {
    auto digest = ctl->commit();
    if (!digest.ok()) return digest.error();
    return true;
  }

  util::Result<Shipped> install(const Plan* plan) {
    auto report = ctl->install(fabric->targets(), plan);
    if (!report.ok()) return report.error();
    return Shipped{report.value().committed, report.value().error};
  }

  // Total partition to ONE switch: the transaction must abort with ZERO
  // switches modified — atomicity witnessed by digests.
  util::Result<Partitioned> install_partitioned(const Plan& plan,
                                                util::Rng& rng) {
    const int victim = static_cast<int>(rng.uniform(0, switch_count() - 1));
    const auto before = digests();
    auto report = ctl->install(fabric->targets(), &plan, victim);
    if (!report.ok()) return report.error();
    return Partitioned{!report.value().committed,
                       report.value().all_or_nothing_abort &&
                           report.value().committed_switches == 0 &&
                           digests() == before};
  }

  // The fabric-specific hazard: the controller dies between per-switch
  // commits. True when the crash hook fired.
  util::Result<bool> install_and_die(util::Rng& rng) {
    ctl->set_crash_after_commits(
        static_cast<int>(rng.uniform(0, switch_count() - 1)));
    auto report = ctl->install(fabric->targets());
    if (!report.ok()) return report.error();
    return report.value().crashed_mid_commit;
  }

  util::Result<Repair> reconcile() {
    auto rec = ctl->reconcile(fabric->targets());
    if (!rec.ok()) return rec.error();
    const pubsub::FabricReconcileReport& r = rec.value();
    return Repair{r.repaired, r.full_reprograms, r.repair_ops, r.converged,
                  r.error};
  }

  // The deposed controller retries its last write on a random switch.
  switchsim::Switch& stale_target(util::Rng& rng) {
    return node(rng.uniform(0, switch_count() - 1));
  }

  std::vector<std::string> diverged() {
    const compiler::FabricProgram& prog = *ctl->intended().value();
    std::vector<std::string> out;
    for (std::size_t i = 0; i < switch_count(); ++i)
      if (node(i).program_digest() !=
          (i < fabric_spec.spines
               ? prog.spine_digest
               : prog.leaf_digests[i - fabric_spec.spines]))
        out.push_back("switch " + std::to_string(i));
    return out;
  }

  Delivery deliver(const std::vector<std::uint64_t>& fields,
                   std::uint64_t now) {
    return fabric->deliver_env(fields, now);
  }
  std::size_t leaf_of(std::uint16_t port) const {
    return fabric_spec.leaf_of(port);
  }
};

// --- The campaign ------------------------------------------------------------

enum class Flavor { kClean, kFlaky, kPartition, kCrashMidCommit };

template <class Plant>
struct Scenario {
  const typename Plant::Options& opts;
  NemesisStats& stats;
  std::uint64_t seed;
  util::Rng rng;
  spec::Schema schema = spec::make_itch_schema();
  util::MemStorage storage;
  Plant plant;
  std::vector<ShadowSub> shadow;
  std::uint16_t next_port = 1;
  bool used_checkpoint = false;
  // The last epoch a now-deposed controller held (stale-write source).
  std::optional<std::uint64_t> deposed_epoch;

  Scenario(const typename Plant::Options& o, NemesisStats& st,
           std::uint64_t s)
      : opts(o), stats(st), seed(s), rng(s), plant(o, storage) {}

  void trace(const std::string& what) {
    if (std::getenv("NEMESIS_TRACE"))
      std::fprintf(stderr, "[%sseed %llu] %s\n",
                   Plant::kFabric ? "fabric " : "",
                   static_cast<unsigned long long>(seed), what.c_str());
  }

  void violation(const std::string& what) {
    ++stats.violations;
    if (stats.violation_details.size() < 20)
      stats.violation_details.push_back("seed " + std::to_string(seed) +
                                        ": " + what);
  }

  bool check(bool ok, const std::string& what) {
    if (!ok) violation(what);
    return ok;
  }

  template <class T>
  bool check_ok(const util::Result<T>& r, const std::string& what) {
    return check(r.ok(), what + (r.ok() ? "" : ": " + r.error().to_string()));
  }

  // I1: replayed intended state matches the shadow model.
  void check_recovery(const pubsub::RecoveryInfo& info) {
    check(info.subscriptions == shadow.size(),
          "I1: recovered " + std::to_string(info.subscriptions) +
              " subscriptions, shadow has " + std::to_string(shadow.size()));
    if (!info.from_snapshot)
      check(info.digest_mismatches == 0,
            "I1: exact replay reported digest mismatches");
  }

  // Reconciles every switch and demands convergence (I2 precondition).
  void reconcile(const std::string& why) {
    auto rec = plant.reconcile();
    if (!check_ok(rec, why + ": reconcile errored")) return;
    ++stats.reconciles;
    stats.repairs += rec.value().repaired;
    stats.full_reprograms += rec.value().full_reprograms;
    stats.repair_ops += rec.value().repair_ops;
    check(rec.value().converged,
          why + ": reconcile did not converge: " + rec.value().error);
  }

  // I2 + I4: every switch runs its intended program, and the delivered
  // (leaf, port) set equals the independently compiled oracle's —
  // exactly-once: nothing missing, nothing duplicated or spurious.
  void check_installed() {
    trace("epilogue: ctl subs=" +
          std::to_string(plant.ctl->subscription_count()) +
          " shadow=" + std::to_string(shadow.size()));
    if (!check(plant.ctl->intended().ok(),
               "I2: no intended program after commit"))
      return;
    for (const std::string& sw : plant.diverged())
      violation("I2: " + sw + " program digest != intended digest");

    auto bound = bind_shadow(schema, shadow);
    if (!check_ok(bound, "I4: shadow rules failed to bind")) return;
    auto oracle = compiler::compile_rules(schema, bound.value());
    if (!check_ok(oracle, "I4: oracle batch compile failed")) return;

    for (std::size_t i = 0; i < opts.probe_messages; ++i) {
      ++stats.probes;
      const lang::Env env = probe_env(rng);
      const Delivery got = plant.deliver(env.fields, 1000 + i);
      Delivery want;
      for (const std::uint16_t p :
           oracle.value().pipeline.evaluate_actions(env).ports)
        want.emplace_back(plant.leaf_of(p), p);
      std::sort(want.begin(), want.end());
      want.erase(std::unique(want.begin(), want.end()), want.end());
      if (got != want) {
        violation("I4: probe " + std::to_string(i) + " delivered to " +
                  std::to_string(got.size()) + " (leaf,port) pairs, " +
                  "oracle says " + std::to_string(want.size()));
        return;  // one detailed report per sweep is enough
      }
    }
  }

  // Churn ops ------------------------------------------------------------

  void do_subscribe() {
    const std::uint16_t port =
        rng.chance(0.3) ? static_cast<std::uint16_t>(rng.uniform(1, 8))
                        : next_port++;
    const int prio = static_cast<int>(rng.uniform(0, 3));
    std::string text = gen_rule_text(rng);
    if (!check_ok(plant.ctl->subscribe(port, text, prio),
                  "subscribe rejected"))
      return;
    if (text.find(':') == std::string::npos)
      text += " : fwd(" + std::to_string(port) + ")";
    shadow.push_back({port, prio, text});
  }

  void do_unsubscribe() {
    if (shadow.empty()) return;
    const std::uint16_t port = shadow[rng.uniform(0, shadow.size() - 1)].port;
    auto removed = plant.ctl->unsubscribe(port);
    if (!check_ok(removed, "unsubscribe failed")) return;
    // Mirror the controller's filter: drop rules forwarding ONLY to port.
    // Rule texts always end in exactly one fwd(p), so the filter is
    // text-level here.
    const std::string only = ": fwd(" + std::to_string(port) + ")";
    const std::size_t dropped = std::erase_if(shadow, [&](const ShadowSub& s) {
      return s.port == port && s.text.find(only) != std::string::npos;
    });
    check(removed.value() == dropped,
          "unsubscribe removed " + std::to_string(removed.value()) +
              ", shadow dropped " + std::to_string(dropped));
  }

  void do_commit_install(Flavor flavor, std::uint64_t salt) {
    if (!check_ok(plant.commit(), "commit failed")) return;
    ++stats.commits;
    trace("commit");
    switch (flavor) {
      case Flavor::kClean:
      case Flavor::kFlaky: {
        // A clean channel, or a flaky-but-usable one: drops, corruption,
        // duplication, reordering — the chunk protocol must still land
        // the install.
        FaultSpec spec;
        spec.drop = 0.08;
        spec.corrupt = 0.08;
        spec.duplicate = 0.10;
        spec.reorder = 0.10;
        const Plan plan(spec, seed ^ (salt * 0x85ebULL));
        auto shipped =
            plant.install(flavor == Flavor::kFlaky ? &plan : nullptr);
        if (!check_ok(shipped, "install errored")) return;
        ++stats.installs;
        check(shipped.value().committed,
              "install failed on a usable channel: " +
                  shipped.value().error);
        break;
      }
      case Flavor::kPartition: {
        // Total partition: every chunk is dropped; the install must abort
        // cleanly (journaled) and the later heal must repair.
        ++stats.partitions;
        FaultSpec spec;
        spec.drop = 1.0;
        const Plan plan(spec, seed ^ (salt * 0x9e37ULL));
        auto out = plant.install_partitioned(plan, rng);
        if (!check_ok(out, "partitioned install errored")) return;
        ++stats.installs;
        check(out.value().intact,
              "I2: a partitioned install was not all-or-nothing");
        // Only an install with nothing to ship (an empty delta) can
        // commit across a dead channel.
        if (!out.value().aborted) break;
        ++stats.partition_aborts;
        // Heal: the journaled commit is still the intent.
        reconcile("post-partition heal");
        break;
      }
      case Flavor::kCrashMidCommit: {
        if constexpr (Plant::kFabric) {
          ++stats.crashes_mid_commit;
          auto died = plant.install_and_die(rng);
          if (!check_ok(died, "mid-commit install errored")) return;
          ++stats.installs;
          check(died.value(), "crash hook did not fire mid-commit");
          // The controller process is dead: recover a successor and let
          // it repair the mixed fabric.
          crash_controller(/*already_dead=*/true);
        }
        break;
      }
    }
  }

  // Nemesis actions -------------------------------------------------------

  void crash_controller(bool already_dead = false) {
    ++stats.crashes;
    trace(already_dead ? "recover after mid-commit death"
                       : "crash controller");
    deposed_epoch = plant.ctl->epoch();
    if (!already_dead && opts.checkpoint_every > 0 && !used_checkpoint &&
        seed % opts.checkpoint_every == 0 && rng.chance(0.5)) {
      // Checkpoint BEFORE the crash on some scenarios: the recovery then
      // replays from the snapshot (fresh state numbering).
      if (plant.ctl->checkpoint().ok()) {
        ++stats.checkpoints;
        used_checkpoint = true;
      }
    }
    // Kill the process: unsynced bytes vanish except for a torn tail.
    storage.crash(rng.uniform(0, 16));
    plant.restart(storage);
    auto info = plant.ctl->open();
    // Unrecoverable scenario state; stop churning it.
    if (!check_ok(info, "recovery open() failed")) return;
    if (info.value().from_snapshot) ++stats.recoveries_from_snapshot;
    check_recovery(info.value());
    // Warm-boot reconciliation: fence the switches, repair divergence from
    // any half-staged install the crash left behind.
    reconcile("post-crash");
  }

  void stale_write() {
    if (!deposed_epoch) return;
    ++stats.stale_writes;
    switchsim::Switch& sw = plant.stale_target(rng);
    const std::uint64_t before = sw.program_version();
    // The deposed controller retries its last write with its old epoch:
    // a full reprogram with a garbage (empty) image.
    auto rejected = sw.reprogram_fenced(*deposed_epoch, table::Pipeline{});
    const bool bounced = !rejected.ok() && rejected.error().code == "E140" &&
                         sw.program_version() == before;
    if (bounced) ++stats.stale_rejected;
    check(bounced, "I3: stale-epoch write was not rejected");
  }

  void run() {
    if (!check_ok(plant.ctl->open(), "initial open() failed")) return;
    std::uint32_t mid_commit_per_mille = 0;
    if constexpr (Plant::kFabric)
      mid_commit_per_mille = opts.crash_mid_commit_per_mille;
    const std::vector<std::uint32_t> reboot_weights = plant.reboot_weights();

    for (std::size_t step = 0; step < opts.steps; ++step) {
      ++stats.steps;
      if (!shadow.empty() && rng.chance(0.25))
        do_unsubscribe();
      else
        do_subscribe();

      if ((step + 1) % opts.commit_every == 0) {
        const auto roll = static_cast<std::uint32_t>(rng.uniform(0, 999));
        Flavor flavor = Flavor::kClean;
        if (roll < opts.partition_per_mille)
          flavor = Flavor::kPartition;
        else if (roll < opts.partition_per_mille + mid_commit_per_mille)
          flavor = Flavor::kCrashMidCommit;
        else if (rng.chance(0.5))
          flavor = Flavor::kFlaky;
        do_commit_install(flavor, step);
      }

      // One nemesis action (or none) per step, by per-mille weight:
      // crash, then each reboot kind, then a stale write.
      const auto roll = static_cast<std::uint32_t>(rng.uniform(0, 999));
      std::uint32_t edge = opts.crash_per_mille;
      if (roll < edge) {
        crash_controller();
        continue;
      }
      bool acted = false;
      for (std::size_t kind = 0; kind < reboot_weights.size() && !acted;
           ++kind) {
        edge += reboot_weights[kind];
        if (roll < edge) {
          const std::string which = plant.reboot(kind, rng, stats);
          trace("reboot " + which);
          reconcile("post-reboot of " + which);
          acted = true;
        }
      }
      if (!acted && roll < edge + opts.stale_write_per_mille) stale_write();
    }

    // Scenario epilogue: converge and audit everything.
    do_commit_install(Flavor::kClean, opts.steps + 1);
    reconcile("final");
    check_installed();
  }
};

template <class Plant>
NemesisStats run_campaign(const typename Plant::Options& opts) {
  NemesisStats stats;
  stats.fabric = Plant::kFabric;
  for (std::size_t i = 0; i < opts.scenarios; ++i) {
    ++stats.scenarios;
    Scenario<Plant> sc(opts, stats, opts.seed + i);
    sc.run();
  }
  return stats;
}

}  // namespace

std::string NemesisStats::to_json() const {
  std::vector<std::pair<const char*, std::size_t>> kv = {
      {"scenarios", scenarios}, {"steps", steps},       {"commits", commits},
      {"installs", installs},   {"crashes", crashes}};
  if (fabric) kv.emplace_back("crashes_mid_commit", crashes_mid_commit);
  kv.emplace_back("recoveries_from_snapshot", recoveries_from_snapshot);
  if (fabric) {
    kv.emplace_back("leaf_reboots", leaf_reboots);
    kv.emplace_back("spine_reboots", spine_reboots);
  } else {
    kv.emplace_back("switch_reboots", switch_reboots);
  }
  kv.emplace_back("partitions", partitions);
  kv.emplace_back(fabric ? "all_or_nothing_aborts" : "partition_aborts",
                  partition_aborts);
  kv.insert(kv.end(), {{"stale_writes", stale_writes},
                       {"stale_rejected", stale_rejected},
                       {"reconciles", reconciles},
                       {"repairs", repairs},
                       {"full_reprograms", full_reprograms},
                       {"repair_ops", repair_ops},
                       {"checkpoints", checkpoints},
                       {"probes", probes},
                       {"violations", violations}});
  std::ostringstream os;
  os << "{\n";
  for (std::size_t i = 0; i < kv.size(); ++i)
    os << "  \"" << kv[i].first << "\": " << kv[i].second
       << (i + 1 < kv.size() ? ",\n" : "\n");
  os << "}";
  return os.str();
}

NemesisStats run_nemesis(const NemesisOptions& opts) {
  return run_campaign<SwitchPlant>(opts);
}

util::Result<NemesisStats> run_fabric_nemesis(
    const FabricNemesisOptions& opts) {
  if (opts.spines == 0 || opts.leaves == 0)
    return util::Error{"fabric nemesis needs at least one leaf and one spine",
                       0, 0, "F151"};
  return run_campaign<FabricPlant>(opts);
}

}  // namespace camus::fault
