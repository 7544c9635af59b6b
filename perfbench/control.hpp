// Control paths: the single-switch DurableController and the spine-leaf
// FabricController, each journaling to MemStorage (FileStorage would add
// fsync on a shared disk, whose noise would swamp the figures).
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "paths.hpp"

namespace perfbench {

namespace cc = camus::compiler;
namespace cp = camus::pubsub;
namespace cu = camus::util;

inline std::string err(const char* what, const camus::util::Error& e) {
  return std::string(what) + ": " + e.to_string();
}

// The journaled mutations both controllers share.
template <class Controller>
std::string subscribe_base(Controller& ctl, const Inputs& in, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i)
    if (auto r = ctl.subscribe(in.subs[i].port, rule_text(in.names, in.subs[i])); !r.ok())
      return err("subscribe", r.error());
  return {};
}

template <class Controller>
std::string apply_change(Controller& ctl, const Inputs& in, const Change& c) {
  if (c.subscribe) {
    if (auto r = ctl.subscribe(c.sub.port, rule_text(in.names, c.sub)); !r.ok())
      return err("subscribe", r.error());
  } else if (auto r = ctl.unsubscribe(c.sub.port); !r.ok() || r.value() != 1) {
    return r.ok() ? "unsubscribe removed " + std::to_string(r.value()) + " rules"
                  : err("unsubscribe", r.error());
  }
  return {};
}

class DurablePath final : public ControlPath {
 public:
  DurablePath(camus::spec::Schema schema, cc::CompileOptions opts)
      : schema_(std::move(schema)),
        opts_(opts),
        ctl_(schema_, storage_, opts_),
        sw_(schema_, camus::table::Pipeline{}),
        installer_(sw_) {}

  std::string setup(const Inputs& in, std::size_t n) override {
    if (auto o = ctl_.open(); !o.ok()) return err("open", o.error());
    if (auto e = subscribe_base(ctl_, in, n); !e.empty()) return e;
    auto d = ctl_.commit();
    if (!d.ok()) return err("commit", d.error());
    auto r = ctl_.install(installer_, d.value());
    if (!r.ok()) return err("install", r.error());
    if (!r.value().committed) return "base install did not commit: " + r.value().error;
    return {};
  }

  std::string change(const Inputs& in, const Change& c, Calibrator& cal,
                     StepTime& t) override {
    std::string error;
    std::optional<cp::DurableController::Delta> delta;
    auto [craw, cscaled] = cal.time([&] {
      error = apply_change(ctl_, in, c);
      if (!error.empty()) return;
      auto d = ctl_.commit();
      if (!d.ok()) error = err("commit", d.error());
      else delta = std::move(d).take();
    });
    if (!error.empty()) return error;
    auto [iraw, iscaled] = cal.time([&] {
      auto r = ctl_.install(installer_, *delta);
      if (!r.ok()) error = err("install", r.error());
      else if (!r.value().committed) error = "install did not commit: " + r.value().error;
    });
    t = {craw, cscaled, iraw, iscaled};
    last_delta_ = std::move(delta);
    return error;
  }

  std::uint64_t intended_digest() const override {
    auto p = ctl_.intended();
    return p.ok() ? camus::table::pipeline_digest(*p.value()) : 0;
  }
  std::size_t subscriptions() const override { return ctl_.subscription_count(); }
  std::size_t leaves() const override { return 0; }
  std::vector<std::pair<std::size_t, std::uint16_t>> deliver(
      const std::vector<std::uint64_t>& fields) override {
    return classify(sw_, fields);
  }

  RecoverTime recover(const cu::MemStorage& journal, std::uint64_t want_digest,
                      std::size_t want_subs, Calibrator& cal,
                      const std::function<std::size_t(const ProbeFn&)>& probe) override {
    RecoverTime rt;
    cu::MemStorage copy = journal;
    Switch blank(schema_, camus::table::Pipeline{});
    cp::TwoPhaseInstaller inst(blank);
    cp::DurableController ctl(schema_, copy, opts_);
    std::string error;
    std::tie(rt.open_raw, rt.open_scaled) = cal.time([&] {
      if (auto o = ctl.open(); !o.ok()) error = err("recover open", o.error());
    });
    if (error.empty())
      std::tie(rt.reconcile_raw, rt.reconcile_scaled) = cal.time([&] {
        auto r = ctl.reconcile(inst);
        if (!r.ok()) error = err("reconcile", r.error());
      });
    if (error.empty() && ctl.subscription_count() != want_subs)
      error = "recovered " + std::to_string(ctl.subscription_count()) +
              " subscriptions, expected " + std::to_string(want_subs);
    if (error.empty()) {
      auto p = ctl.intended();
      if (!p.ok() || camus::table::pipeline_digest(*p.value()) != want_digest)
        error = "recovered intent differs from the pre-crash intent";
      else if (blank.program_digest() != want_digest)
        error = "reconciled switch does not run the intended program";
    }
    if (error.empty()) {
      const std::size_t bad = probe([&](const std::vector<std::uint64_t>& f) {
        return classify(blank, f);
      });
      if (bad != 0) error = std::to_string(bad) + " probes differ after recovery";
    }
    rt.ok = error.empty();
    rt.error = error;
    return rt;
  }

  cu::MemStorage& storage() override { return storage_; }

  // Layer access for the traced run.
  cp::DurableController& controller() { return ctl_; }
  const std::optional<cp::DurableController::Delta>& last_delta() const {
    return last_delta_;
  }

 private:
  static std::vector<std::pair<std::size_t, std::uint16_t>> classify(
      Switch& sw, const std::vector<std::uint64_t>& fields) {
    std::vector<std::pair<std::size_t, std::uint16_t>> out;
    for (std::uint16_t p : sw.classify(fields, 0).ports) out.emplace_back(0, p);
    return out;
  }

  camus::spec::Schema schema_;
  cc::CompileOptions opts_;
  cu::MemStorage storage_;
  cp::DurableController ctl_;
  Switch sw_;
  cp::TwoPhaseInstaller installer_;
  std::optional<cp::DurableController::Delta> last_delta_;
};

class FabricControlPath final : public ControlPath {
 public:
  FabricControlPath(camus::spec::Schema schema, cc::CompileOptions opts,
                    camus::netsim::FabricTopologyOptions topo)
      : schema_(std::move(schema)),
        opts_(opts),
        topo_(topo),
        ctl_(schema_, storage_, topo.spec, opts_),
        fab_(schema_, topo_) {}

  std::string setup(const Inputs& in, std::size_t n) override {
    if (auto o = ctl_.open(); !o.ok()) return err("open", o.error());
    if (auto e = subscribe_base(ctl_, in, n); !e.empty()) return e;
    if (auto d = ctl_.commit(); !d.ok()) return err("commit", d.error());
    return install();
  }

  std::string change(const Inputs& in, const Change& c, Calibrator& cal,
                     StepTime& t) override {
    std::string error;
    auto [craw, cscaled] = cal.time([&] {
      error = apply_change(ctl_, in, c);
      if (!error.empty()) return;
      if (auto d = ctl_.commit(); !d.ok()) error = err("commit", d.error());
    });
    if (!error.empty()) return error;
    auto [iraw, iscaled] = cal.time([&] { error = install(); });
    t = {craw, cscaled, iraw, iscaled};
    return error;
  }

  std::uint64_t intended_digest() const override {
    auto p = ctl_.intended();
    return p.ok() ? p.value()->fabric_digest : 0;
  }
  std::size_t subscriptions() const override { return ctl_.subscription_count(); }
  std::size_t leaves() const override { return topo_.spec.leaves; }
  std::vector<std::pair<std::size_t, std::uint16_t>> deliver(
      const std::vector<std::uint64_t>& fields) override {
    return fab_.deliver_env(fields);
  }

  RecoverTime recover(const cu::MemStorage& journal, std::uint64_t want_digest,
                      std::size_t want_subs, Calibrator& cal,
                      const std::function<std::size_t(const ProbeFn&)>& probe) override {
    RecoverTime rt;
    cu::MemStorage copy = journal;
    camus::netsim::Fabric blank(schema_, topo_);
    cp::FabricController ctl(schema_, copy, topo_.spec, opts_);
    std::string error;
    std::tie(rt.open_raw, rt.open_scaled) = cal.time([&] {
      if (auto o = ctl.open(); !o.ok()) error = err("recover open", o.error());
    });
    if (error.empty())
      std::tie(rt.reconcile_raw, rt.reconcile_scaled) = cal.time([&] {
        auto r = ctl.reconcile(blank.targets());
        if (!r.ok()) error = err("reconcile", r.error());
        else if (!r.value().converged) error = "fabric did not converge: " + r.value().error;
      });
    if (error.empty() && ctl.subscription_count() != want_subs)
      error = "recovered " + std::to_string(ctl.subscription_count()) +
              " subscriptions, expected " + std::to_string(want_subs);
    if (error.empty()) {
      auto p = ctl.intended();
      if (!p.ok() || p.value()->fabric_digest != want_digest)
        error = "recovered intent differs from the pre-crash intent";
    }
    if (error.empty()) {
      const std::size_t bad = probe([&](const std::vector<std::uint64_t>& f) {
        return blank.deliver_env(f);
      });
      if (bad != 0) error = std::to_string(bad) + " probes differ after recovery";
    }
    rt.ok = error.empty();
    rt.error = error;
    return rt;
  }

  cu::MemStorage& storage() override { return storage_; }

  cp::FabricController& controller() { return ctl_; }

 private:
  std::string install() {
    auto r = ctl_.install(fab_.targets());
    if (!r.ok()) return err("install", r.error());
    if (!r.value().committed) return "fabric install did not commit: " + r.value().error;
    return {};
  }

  camus::spec::Schema schema_;
  cc::CompileOptions opts_;
  camus::netsim::FabricTopologyOptions topo_;
  cu::MemStorage storage_;
  cp::FabricController ctl_;
  camus::netsim::Fabric fab_;
};

}  // namespace perfbench
