// The two halves every workload drives: a data path (feed frames in,
// subscriber packets out) and a control path (subscription change in,
// installed on every switch; crash in, serving again). Each has a single-
// switch and a spine-leaf fabric form.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "calib.hpp"
#include "inputs.hpp"
#include "netsim/fabric.hpp"
#include "pubsub/durable.hpp"
#include "pubsub/fabric.hpp"
#include "pubsub/install.hpp"
#include "switchsim/parallel.hpp"
#include "switchsim/switch.hpp"
#include "table/delta.hpp"
#include "util/journal.hpp"

namespace perfbench {

using camus::switchsim::Switch;
using camus::switchsim::SwitchCounters;

// One egress packet as the subscriber sees it.
struct Delivery {
  std::uint16_t leaf = 0;  // 0 on a single switch
  std::uint16_t port = 0;
  std::vector<std::uint8_t> frame;
};

// One pass of the feed through a data path.
struct Pass {
  std::vector<Delivery> out;
  // Per process call: raw ns and the ingress messages it carried.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> calls;
  std::uint64_t busy_ns = 0;  // sum of the timed calls
};

enum class Mode { kPerFrame, kBatched, kParallel };

inline std::uint32_t frame_msg_count(std::span<const std::uint8_t> f) {
  if (f.size() < kHeaderBytes + kMoldBytes) return 0;
  return (std::uint32_t{f[kHeaderBytes + 18]} << 8) | f[kHeaderBytes + 19];
}

// FNV-1a over every delivery in emission order.
inline std::uint64_t digest(const std::vector<Delivery>& out) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  for (const Delivery& d : out) {
    mix(d.leaf);
    mix(d.port);
    mix(d.frame.size());
    for (std::uint8_t b : d.frame) {
      h ^= b;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

inline bool same_counters(const SwitchCounters& a, const SwitchCounters& b) {
  return a.rx_frames == b.rx_frames && a.parse_errors == b.parse_errors &&
         a.dropped == b.dropped && a.matched == b.matched &&
         a.tx_copies == b.tx_copies &&
         a.multicast_frames == b.multicast_frames &&
         a.state_updates == b.state_updates;
}

// Runs `frames` through one switch in the given mode, appending to `pass`.
// Frames go in 64-frame batches; only the program's process calls are
// timed. A parallel pool is built and joined outside the timed calls.
inline void run_hop(Switch& sw, Mode mode,
                    const std::vector<const std::vector<std::uint8_t>*>& frames,
                    std::vector<std::vector<Switch::TxPacket>>& out_by_batch,
                    Pass& pass) {
  std::unique_ptr<camus::switchsim::ParallelSwitch> pool;
  if (mode == Mode::kParallel)
    pool = std::make_unique<camus::switchsim::ParallelSwitch>(sw, 2);
  std::vector<Switch::Frame> batch;
  for (std::size_t b = 0; b < frames.size(); b += kBatchFrames) {
    const std::size_t n = std::min(kBatchFrames, frames.size() - b);
    batch.clear();
    std::uint32_t msgs = 0;
    for (std::size_t i = b; i < b + n; ++i) {
      batch.push_back({*frames[i], 0});
      msgs += frame_msg_count(*frames[i]);
    }
    std::vector<Switch::TxPacket> got;
    const std::uint64_t t0 = now_ns();
    if (mode == Mode::kPerFrame) {
      for (const auto& f : batch) {
        auto one = sw.process_messages(f.data, f.now_us);
        for (auto& p : one) got.push_back(std::move(p));
      }
    } else if (mode == Mode::kBatched) {
      got = sw.process_batch(batch);
    } else {
      got = pool->process_batch(batch);
    }
    const std::uint64_t dt = now_ns() - t0;
    pass.calls.emplace_back(dt, msgs);
    pass.busy_ns += dt;
    out_by_batch.push_back(std::move(got));
  }
}

class DataPath {
 public:
  virtual ~DataPath() = default;
  virtual Pass run(Mode mode, const std::vector<std::vector<std::uint8_t>>& frames) = 0;
  // Every switch's counters, in topology order.
  virtual std::vector<SwitchCounters> counters() const = 0;
  // Every switch, in topology order (spines, then leaves).
  virtual std::vector<const Switch*> switches() const = 0;
};

class SwitchPath final : public DataPath {
 public:
  SwitchPath(const camus::spec::Schema& schema, camus::table::Pipeline p)
      : sw_(schema, std::move(p)) {}

  Pass run(Mode mode, const std::vector<std::vector<std::uint8_t>>& frames) override {
    std::vector<const std::vector<std::uint8_t>*> ptrs;
    ptrs.reserve(frames.size());
    for (const auto& f : frames) ptrs.push_back(&f);
    Pass pass;
    std::vector<std::vector<Switch::TxPacket>> outs;
    run_hop(sw_, mode, ptrs, outs, pass);
    for (auto& batch : outs)
      for (auto& p : batch) pass.out.push_back({0, p.port, std::move(p.frame)});
    return pass;
  }
  std::vector<SwitchCounters> counters() const override { return {sw_.counters()}; }
  std::vector<const Switch*> switches() const override { return {&sw_}; }

 private:
  Switch sw_;
};

// Spine-leaf delivery hop by hop: ECMP alternates 64-frame batches between
// the spines, each spine packet goes to the leaf its port names, and the
// leaves deliver to subscriber ports. Leaf inputs keep ingress batch order,
// so every mode produces the same packets in the same order.
class FabricPath final : public DataPath {
 public:
  FabricPath(const camus::spec::Schema& schema,
             const camus::netsim::FabricTopologyOptions& topo,
             const camus::compiler::FabricProgram& program)
      : fab_(schema, topo) {
    fab_.program(program);
  }

  Pass run(Mode mode, const std::vector<std::vector<std::uint8_t>>& frames) override {
    Pass pass;
    const std::size_t spines = fab_.spines();
    const std::size_t batches = (frames.size() + kBatchFrames - 1) / kBatchFrames;
    std::vector<std::vector<Switch::TxPacket>> spine_out(batches);
    for (std::size_t s = 0; s < spines; ++s) {
      std::vector<const std::vector<std::uint8_t>*> ptrs;
      std::vector<std::size_t> ids;
      for (std::size_t b = s; b < batches; b += spines) {
        ids.push_back(b);
        for (std::size_t i = b * kBatchFrames;
             i < std::min(frames.size(), (b + 1) * kBatchFrames); ++i)
          ptrs.push_back(&frames[i]);
      }
      std::vector<std::vector<Switch::TxPacket>> outs;
      run_hop(fab_.spine(s), mode, ptrs, outs, pass);
      for (std::size_t k = 0; k < outs.size(); ++k) spine_out[ids[k]] = std::move(outs[k]);
    }
    std::vector<std::vector<const std::vector<std::uint8_t>*>> leaf_in(fab_.leaves());
    for (const auto& batch : spine_out)
      for (const auto& p : batch)
        if (p.port < leaf_in.size()) leaf_in[p.port].push_back(&p.frame);
    for (std::size_t l = 0; l < fab_.leaves(); ++l) {
      std::vector<std::vector<Switch::TxPacket>> outs;
      run_hop(fab_.leaf(l), mode, leaf_in[l], outs, pass);
      for (auto& batch : outs)
        for (auto& p : batch)
          pass.out.push_back({static_cast<std::uint16_t>(l), p.port, std::move(p.frame)});
    }
    return pass;
  }
  std::vector<SwitchCounters> counters() const override {
    std::vector<SwitchCounters> c;
    for (const Switch* s : switches()) c.push_back(s->counters());
    return c;
  }
  std::vector<const Switch*> switches() const override {
    std::vector<const Switch*> v;
    for (std::size_t s = 0; s < fab_.spines(); ++s) v.push_back(&fab_.spine(s));
    for (std::size_t l = 0; l < fab_.leaves(); ++l) v.push_back(&fab_.leaf(l));
    return v;
  }

 private:
  // Mutable: the fabric hands out its switches only through non-const
  // accessors.
  mutable camus::netsim::Fabric fab_;
};

// Seconds of one control step, raw and scaled, split at commit/install.
struct StepTime {
  double commit_raw = 0, commit_scaled = 0;
  double install_raw = 0, install_scaled = 0;
};

struct RecoverTime {
  double open_raw = 0, open_scaled = 0;
  double reconcile_raw = 0, reconcile_scaled = 0;
  bool ok = false;
  std::string error;
};

struct ProbeEnv {
  std::size_t fields = 0;
  std::size_t stock = 0, price = 0, shares = 0;
  std::vector<std::uint64_t> make(const Inputs& in, const Msg& m) const {
    std::vector<std::uint64_t> f(fields, 0);
    f[stock] = in.keys[m.sym];
    f[price] = m.price;
    f[shares] = 100;
    return f;
  }
};

// Checks the ports a control path's switches deliver for every probe
// message against the oracle; returns the number of mismatching probes.
using ProbeFn = std::function<std::vector<std::pair<std::size_t, std::uint16_t>>(
    const std::vector<std::uint64_t>&)>;

inline std::size_t probe_mismatches(const Inputs& in, const std::vector<Msg>& probes,
                                    const ProbeEnv& env, const Oracle& oracle,
                                    std::size_t leaves, const ProbeFn& deliver) {
  std::size_t bad = 0;
  for (const Msg& m : probes) {
    auto got = deliver(env.make(in, m));
    std::vector<std::uint16_t> ports;
    for (const auto& [leaf, port] : got) {
      if (leaves > 0 && leaf != port % leaves) ++bad;
      ports.push_back(port);
    }
    std::sort(ports.begin(), ports.end());
    ports.erase(std::unique(ports.begin(), ports.end()), ports.end());
    if (ports != oracle.ports(m)) ++bad;
  }
  return bad;
}

class ControlPath {
 public:
  virtual ~ControlPath() = default;
  // Subscribes the base set, commits and installs it.
  virtual std::string setup(const Inputs& in, std::size_t n) = 0;
  // One change: (un)subscribe + commit, then install. Empty on success.
  virtual std::string change(const Inputs& in, const Change& c, Calibrator& cal,
                             StepTime& t) = 0;
  virtual std::uint64_t intended_digest() const = 0;
  virtual std::size_t subscriptions() const = 0;
  // Delivered (leaf, port) pairs of one probe on the installed switches.
  virtual std::vector<std::pair<std::size_t, std::uint16_t>> deliver(
      const std::vector<std::uint64_t>& fields) = 0;
  virtual std::size_t leaves() const = 0;
  // Crash: a new controller opens a copy of `journal` and reconciles
  // factory-blank switches. Checks the recovered state against the
  // expectation; `probe` sees the recovered switches.
  virtual RecoverTime recover(const camus::util::MemStorage& journal,
                              std::uint64_t want_digest, std::size_t want_subs,
                              Calibrator& cal, const std::function<std::size_t(const ProbeFn&)>& probe) = 0;
  virtual camus::util::MemStorage& storage() = 0;
};

}  // namespace perfbench
