// Camus end-to-end benchmark program.
//
//   camus_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   [--corrupt-oracle]
//
// Runs one workload (feed_zipf, feed_fanout, churn_switch, churn_fabric)
// on inputs generated from the seed, checks every output against the
// benchmark's own oracle, and prints one JSON line:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). A traced run performs the same operations as an untraced
// one and adds layer timings around calls into the program; it prints its
// end-to-end figures on stderr so the tracing overhead can be read off.
// --corrupt-oracle flips one expected port set, which must make the run
// report correct: false.
//
// Every workload drives the three user-facing paths, each measured in
// many sections interleaved over the run (delivery as the quiet pass of
// its calls, the rest scaled by the calibration kernels in calib.hpp; see
// README, "Measurement method"):
//   delivery  feed frames -> subscriber packets, batched and 2-worker
//             parallel;
//   update    one subscribe/unsubscribe -> committed and installed on
//             every switch;
//   recovery  crash -> a new controller opens the journal and reconciles
//             factory-blank switches.
// The operation counts depend only on the workload and --seconds, never
// on the seed or the host's speed.
#include <sys/resource.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "calib.hpp"
#include "compiler/compile.hpp"
#include "compiler/compress.hpp"
#include "compiler/fabric.hpp"
#include "control.hpp"
#include "inputs.hpp"
#include "lang/dnf.hpp"
#include "lang/parser.hpp"
#include "paths.hpp"
#include "proto/packet.hpp"
#include "spec/itch_spec.hpp"
#include "table/compiled.hpp"

using namespace perfbench;

namespace {

const std::uint64_t g_start_ns = now_ns();

struct Workload {
  const char* name;
  Shape shape;
  bool fabric;  // spine-leaf control and data path
  bool feed;    // data path compiled from the full set at set-up
  // The feed set compiles with the partitioned, interned layout: the
  // monolithic compile of 20K subscriptions over 4000 symbols does not fit
  // in 4 GB.
  bool partitioned;
  // Operations per second of --seconds, sized to fill a run on the
  // reference host.
  double batched_per_s, parallel_per_s, changes_per_s, recover_per_s;
};

// Changes in the journal the crash recovers (after the base commit).
constexpr std::size_t kRecoverChanges = 2;
// Rounds of the set-up kernel; their median scales setup_s.
constexpr int kSetupKernelRounds = 9;

// subs, symbols, hosts, zipf, thr_max, price_max, msgs, ctl_subs, changes
const Workload kWorkloads[] = {
    {"feed_zipf", {1000, 1000, 200, true, 1000, 300, 64000, 1000, 0},
     false, true, false, 10.0, 10.0, 5.0, 0.5},
    {"feed_fanout", {20000, 4000, 200, false, 1000, 1000, 32000, 1000, 0},
     false, true, true, 5.0, 5.0, 5.0, 0.35},
    {"churn_switch", {1000, 100, 0, false, 1000, 1000, 16000, 1000, 0},
     false, false, false, 6.5, 6.5, 10.0, 1.0},
    {"churn_fabric", {4000, 400, 0, false, 1000, 1000, 8000, 4000, 0},
     true, false, false, 3.5, 3.5, 0.4, 0.15},
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& ms, std::FILE* out) {
  std::fprintf(out, "{\"correct\": %s, \"attempted\": %" PRIu64
                    ", \"failed\": %" PRIu64 ", \"metrics\": {",
               correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < ms.size(); ++i)
    std::fprintf(out, "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                 i ? ", " : "", ms[i].name.c_str(), ms[i].value,
                 ms[i].unit.c_str());
  std::fprintf(out, "}}\n");
  std::fflush(out);
}

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;
}

// The run's task list: delivery passes, parallel passes and changes spread
// evenly, recoveries spread over the part after the change that completes
// the recovered journal.
enum class Task { kBatched, kParallel, kChange, kRecover };

std::vector<Task> schedule(std::size_t nb, std::size_t np, std::size_t nc,
                           std::size_t nr) {
  std::vector<std::pair<double, Task>> v;
  auto spread = [&v](std::size_t n, Task t) {
    for (std::size_t i = 0; i < n; ++i)
      v.emplace_back((static_cast<double>(i) + 0.5) / static_cast<double>(n), t);
  };
  spread(nb, Task::kBatched);
  spread(np, Task::kParallel);
  spread(nc, Task::kChange);
  std::stable_sort(v.begin(), v.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<Task> tasks;
  std::size_t cut = 0, seen = 0;
  for (const auto& [pos, t] : v) {
    tasks.push_back(t);
    if (t == Task::kChange && ++seen == kRecoverChanges) cut = tasks.size();
  }
  const std::size_t tail = tasks.size() - cut;
  std::vector<Task> out(tasks.begin(), tasks.begin() + static_cast<std::ptrdiff_t>(cut));
  std::size_t next_r = 0;
  for (std::size_t i = 0; i <= tail; ++i) {
    while (next_r < nr &&
           static_cast<double>(i) >= (static_cast<double>(next_r) + 0.5) *
                                         static_cast<double>(tail) /
                                         static_cast<double>(nr))
      out.push_back(Task::kRecover), ++next_r;
    if (i < tail) out.push_back(tasks[cut + i]);
  }
  while (next_r++ < nr) out.push_back(Task::kRecover);
  return out;
}

std::size_t count(double per_s, int seconds, std::size_t floor_n) {
  return std::max<std::size_t>(floor_n, static_cast<std::size_t>(per_s * seconds + 0.5));
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  bool corrupt = false;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view k = argv[i];
    auto val = [&](const char*& out) {
      if (i + 1 >= argc) return false;
      out = argv[++i];
      return true;
    };
    const char* v = nullptr;
    if (k == "--corrupt-oracle") {
      a.corrupt = true;
    } else if (k == "--workload" && val(v)) {
      a.workload = v;
    } else if (k == "--seed" && val(v)) {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds" && val(v)) {
      a.seconds = std::atoi(v);
    } else if (k == "--trace" && val(v)) {
      a.trace = std::string_view(v) == "1";
    } else {
      return false;
    }
  }
  return !a.workload.empty() && a.seconds > 0;
}

// Checks one pass's deliveries against the oracle: every message reaches
// exactly its expected ports (on the leaf that serves each port) and the
// delivered message count equals the sum of expected set sizes.
std::string check_delivery(const Inputs& in, const Oracle& oracle,
                           const std::vector<Delivery>& out, std::size_t leaves,
                           bool corrupt) {
  std::vector<std::vector<std::uint16_t>> got(in.msgs.size());
  std::uint64_t delivered = 0;
  for (const Delivery& d : out) {
    if (leaves > 0 && d.leaf != d.port % leaves)
      return "port " + std::to_string(d.port) + " delivered on leaf " +
             std::to_string(d.leaf);
    for (std::uint64_t ref : frame_refs(d.frame)) {
      if (ref == 0 || ref > in.msgs.size()) return "malformed egress frame";
      got[ref - 1].push_back(d.port);
      ++delivered;
    }
  }
  std::uint64_t expected_total = 0;
  bool corrupted = false;
  for (std::size_t i = 0; i < in.msgs.size(); ++i) {
    auto want = oracle.ports(in.msgs[i]);
    if (corrupt && !corrupted && !want.empty()) {
      want.pop_back();
      corrupted = true;
    }
    expected_total += want.size();
    auto& g = got[i];
    std::sort(g.begin(), g.end());
    if (g != want)
      return "message " + std::to_string(i) + " delivered to " +
             std::to_string(g.size()) + " ports, expected " +
             std::to_string(want.size());
  }
  if (delivered != expected_total)
    return "conservation: delivered " + std::to_string(delivered) +
           " messages, expected " + std::to_string(expected_total);
  return {};
}

// Every pass of one delivery mode makes the same process calls on the same
// frames. ns[c] holds call c's time in every pass, multiplied by that
// pass's scale; msgs[c] the ingress messages it carried.
struct CallSeries {
  std::vector<std::vector<double>> ns;
  std::vector<std::uint32_t> msgs;

  void add(const Pass& pass, double scale = 1.0) {
    ns.resize(pass.calls.size());
    msgs.resize(pass.calls.size());
    for (std::size_t c = 0; c < pass.calls.size(); ++c) {
      ns[c].push_back(static_cast<double>(pass.calls[c].first) * scale);
      msgs[c] = pass.calls[c].second;
    }
  }
  std::size_t passes() const { return ns.empty() ? 0 : ns[0].size(); }
};

// Delivery figures of the quiet pass: each call's scaled time is its lower
// decile over all passes, so a call counts at the speed it reaches when
// nothing else on the host interferes (see README, "Measurement method").
struct Quiet {
  double msgs_per_s = 0, ns_p50 = 0, ns_p99 = 0;
};
constexpr double kQuietQuantile = 0.1;

Quiet quiet(const CallSeries& s, std::size_t msgs) {
  Quiet q;
  double total = 0;
  std::vector<std::pair<double, std::uint32_t>> per_msg;
  for (std::size_t c = 0; c < s.ns.size(); ++c) {
    const double t = quantile(s.ns[c], kQuietQuantile);
    total += t;
    if (s.msgs[c] > 0) per_msg.emplace_back(t / s.msgs[c], s.msgs[c]);
  }
  if (total > 0) q.msgs_per_s = static_cast<double>(msgs) * 1e9 / total;
  q.ns_p50 = weighted_quantile(per_msg, 0.50);
  q.ns_p99 = weighted_quantile(per_msg, 0.99);
  return q;
}

// Sum over calls of each call's lower-decile time, in ns.
double quiet_ns(const CallSeries& s) {
  double total = 0;
  for (const auto& t : s.ns) total += quantile(t, kQuietQuantile);
  return total;
}

// Times fn(i) for every i in [0, n), in chunks of `chunk`, and adds the
// chunk times to `s` as one pass of calls.
template <class Fn>
void time_chunks(CallSeries& s, std::size_t n, std::size_t chunk, Fn&& fn) {
  Pass pass;
  for (std::size_t b = 0; b < n; b += chunk) {
    const std::size_t e = std::min(n, b + chunk);
    const std::uint64_t t0 = now_ns();
    for (std::size_t i = b; i < e; ++i) fn(i);
    pass.calls.emplace_back(now_ns() - t0, static_cast<std::uint32_t>(e - b));
  }
  s.add(pass);
}

// Timing samples collected over the run.
struct Samples {
  CallSeries batched, parallel;
  std::vector<double> pass_rate_raw;  // whole-pass msgs/s, for reference
  std::vector<double> update_ms, update_ms_raw, commit_ms, install_ms;
  std::vector<double> recover_ms, recover_ms_raw, open_ms, reconcile_ms;
  // Traced run only: data-path layer calls, timed like delivery calls.
  CallSeries scan, reframe, traverse, prefix;
  std::vector<double> diff_ms, digest_ms, ops, reuse;
};

// Layer inputs derived once from the feed for the traced run.
struct LayerInputs {
  std::vector<std::vector<std::uint64_t>> fields;  // per message
  struct Reframe {
    std::size_t frame;
    std::vector<std::uint32_t> offsets;
  };
  std::vector<Reframe> reframes;
  std::vector<camus::proto::MarketDataView> views;
};

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--corrupt-oracle]\n",
                 argv[0]);
    return 2;
  }
  const Workload* wl = nullptr;
  for (const Workload& w : kWorkloads)
    if (args.workload == w.name) wl = &w;
  if (wl == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }

  Samples sm;
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> problems;
  auto fail = [&](const std::string& what) {
    problems.push_back(what);
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  };

  // ---- set-up: inputs, first compile, first install ----------------------
  const std::size_t nb = count(wl->batched_per_s, args.seconds, 3);
  const std::size_t np = count(wl->parallel_per_s, args.seconds, 3);
  const std::size_t nc = count(wl->changes_per_s, args.seconds, kRecoverChanges + 1);
  const std::size_t nr = count(wl->recover_per_s, args.seconds, 1);
  Shape shape = wl->shape;
  shape.changes = nc;

  const std::uint64_t gen0 = now_ns();
  const Inputs in = generate(shape, args.seed);
  const double gen_s = static_cast<double>(now_ns() - gen0) * 1e-9;

  const auto schema = camus::spec::make_itch_schema();
  camus::compiler::CompileOptions opts;
  opts.order = camus::bdd::OrderHeuristic::kExactFirst;
  opts.threads = 1;
  camus::netsim::FabricTopologyOptions topo;
  topo.spec.spines = 2;
  topo.spec.leaves = 8;
  camus::compiler::CompileOptions fopts = opts;
  fopts.partition = camus::compiler::PartitionMode::kForce;
  fopts.intern_entries = true;

  std::unique_ptr<ControlPath> ctl;
  if (wl->fabric)
    ctl = std::make_unique<FabricControlPath>(schema, fopts, topo);
  else
    ctl = std::make_unique<DurablePath>(schema, opts);
  if (auto e = ctl->setup(in, in.ctl_subs); !e.empty()) {
    std::fprintf(stderr, "set-up failed: %s\n", e.c_str());
    return 1;
  }

  // The data path's program: the full feed set compiled once, or the
  // control path's base program.
  std::string data_text;
  std::function<std::unique_ptr<DataPath>()> make_data;
  camus::table::Pipeline feed_pipeline;
  std::optional<camus::compiler::FabricProgram> fabric_program;
  if (wl->feed) {
    for (const Sub& s : in.subs) data_text += rule_text(in.names, s) + "\n";
    auto c = camus::compiler::compile_source(schema, data_text,
                                             wl->partitioned ? fopts : opts);
    if (!c.ok()) {
      std::fprintf(stderr, "compile failed: %s\n", c.error().to_string().c_str());
      return 1;
    }
    feed_pipeline = std::move(c).take().pipeline;
    make_data = [&] { return std::make_unique<SwitchPath>(schema, feed_pipeline); };
  } else if (wl->fabric) {
    fabric_program = *static_cast<FabricControlPath&>(*ctl).controller().intended().value();
    make_data = [&] { return std::make_unique<FabricPath>(schema, topo, *fabric_program); };
  } else {
    auto& dc = static_cast<DurablePath&>(*ctl).controller();
    feed_pipeline = *dc.intended().value();
    make_data = [&] { return std::make_unique<SwitchPath>(schema, feed_pipeline); };
  }
  auto data_b = make_data();
  auto data_p = make_data();
  const double setup_raw_s = static_cast<double>(now_ns() - g_start_ns) * 1e-9;
  const double setup_rss_mb = peak_rss_mb();
  // The cold set-up, scaled to the nominal speed of the set-up kernel
  // timed right after it (see README, "Measurement method").
  std::vector<double> setup_kernels;
  for (int i = 0; i < kSetupKernelRounds; ++i) setup_kernels.push_back(setup_kernel_ns());
  const double setup_kernel = median(setup_kernels);
  const double setup_s = setup_raw_s * kNominalSetupKernelNs / setup_kernel;
  // Built after set-up: filling its 16 MiB chain is the benchmark's cost.
  Calibrator cal;

  // ---- output checks on fresh switches -----------------------------------
  Oracle data_oracle(in.names.size());
  if (wl->feed)
    for (const Sub& s : in.subs) data_oracle.add(s);
  else
    for (std::size_t i = 0; i < in.ctl_subs; ++i) data_oracle.add(in.subs[i]);
  const std::size_t leaves = wl->fabric ? topo.spec.leaves : 0;
  std::uint64_t want_digest = 0;
  std::vector<SwitchCounters> want_counters;
  {
    auto ref = make_data();
    auto bat = make_data();
    auto par = make_data();
    const Pass pr = ref->run(Mode::kPerFrame, in.frames);
    const Pass pb = bat->run(Mode::kBatched, in.frames);
    const Pass pp = par->run(Mode::kParallel, in.frames);
    want_digest = digest(pr.out);
    want_counters = ref->counters();
    if (digest(pb.out) != want_digest || digest(pp.out) != want_digest)
      fail("per-frame, batched and parallel outputs differ");
    auto cb = bat->counters(), cpar = par->counters();
    for (std::size_t i = 0; i < want_counters.size(); ++i)
      if (!same_counters(cb[i], want_counters[i]) ||
          !same_counters(cpar[i], want_counters[i]))
        fail("per-frame, batched and parallel counters differ");
    if (auto e = check_delivery(in, data_oracle, pb.out, leaves, args.corrupt);
        !e.empty())
      fail("delivery: " + e);
  }
  // Warm the timed switches (memo, allocator) with one untimed pass each.
  data_b->run(Mode::kBatched, in.frames);
  data_p->run(Mode::kParallel, in.frames);

  // ---- traced-run layer inputs ------------------------------------------
  LayerInputs li;
  // The switch the layer timings use: the single switch, or the last leaf.
  const Switch& layer_sw = *data_b->switches().back();
  if (args.trace) {
    camus::switchsim::ItchFieldExtractor ex(schema);
    std::vector<std::uint32_t> offs;
    for (std::size_t f = 0; f < in.frames.size(); ++f) {
      camus::proto::MarketDataView view;
      offs.clear();
      camus::proto::scan_market_data_packet(in.frames[f], view, offs);
      li.views.push_back(view);
      std::map<std::uint16_t, std::vector<std::uint32_t>> per_port;
      for (std::size_t k = 0; k < offs.size(); ++k) {
        std::vector<std::uint64_t> fv;
        ex.extract_wire(in.frames[f].data() + offs[k], fv);
        li.fields.push_back(fv);
        for (std::uint16_t p : data_oracle.ports(in.msgs[f * kMsgsPerFrame + k]))
          per_port[p].push_back(offs[k]);
      }
      for (auto& [p, o] : per_port) li.reframes.push_back({f, std::move(o)});
    }
  }
  const std::vector<std::uint64_t> no_states(schema.state_vars().size(), 0);

  // ---- the timed run ------------------------------------------------------
  Oracle live(in.names.size());
  for (std::size_t i = 0; i < in.ctl_subs; ++i) live.add(in.subs[i]);
  ProbeEnv env;
  env.fields = schema.fields().size();
  env.stock = *schema.resolve_field("add_order.stock");
  env.price = *schema.resolve_field("add_order.price");
  env.shares = *schema.resolve_field("add_order.shares");
  std::unique_ptr<camus::util::MemStorage> crash_journal;
  std::uint64_t crash_digest = 0;
  std::unique_ptr<Oracle> crash_oracle;
  std::size_t changes_done = 0;

  auto delivery_pass = [&](Mode mode) {
    DataPath& dp = mode == Mode::kBatched ? *data_b : *data_p;
    // A batched pass's calls count at the core speed where the core kernel
    // takes its nominal time. A parallel pass also runs on a worker's core,
    // which the kernel does not see, so it stays unscaled.
    const double kernel_before = mode == Mode::kBatched ? core_kernel_ns() : 0;
    const Pass pass = dp.run(mode, in.frames);
    const double scale = mode == Mode::kBatched
                             ? 2 * kNominalCoreKernelNs / (kernel_before + core_kernel_ns())
                             : 1.0;
    ++attempted;
    if (digest(pass.out) != want_digest) {
      ++failed;
      fail("a timed pass did not repeat the first pass's output");
      return;
    }
    (mode == Mode::kBatched ? sm.batched : sm.parallel).add(pass, scale);
    if (mode == Mode::kBatched)
      sm.pass_rate_raw.push_back(static_cast<double>(in.msgs.size()) * 1e9 /
                                 static_cast<double>(pass.busy_ns));
    if (!args.trace || mode != Mode::kBatched) return;
    // Layer timings, each around calls into one public function, in
    // chunks the size of a delivery call, so each reads as a quiet pass too.
    const auto& cpl = layer_sw.compiled();
    std::uint64_t sink = 0;
    camus::proto::MarketDataView view;
    std::vector<std::uint32_t> offs;
    time_chunks(sm.scan, in.frames.size(), kBatchFrames, [&](std::size_t i) {
      offs.clear();
      sink += camus::proto::scan_market_data_packet(in.frames[i], view, offs);
    });
    std::vector<std::uint8_t> buf;
    time_chunks(sm.reframe, li.reframes.size(), kBatchFrames, [&](std::size_t i) {
      const auto& r = li.reframes[i];
      camus::proto::build_market_frame_raw(li.views[r.frame], in.frames[r.frame],
                                           r.offsets, buf);
      sink += buf.size();
    });
    constexpr std::size_t kChunkMsgs = kBatchFrames * kMsgsPerFrame;
    time_chunks(sm.traverse, li.fields.size(), kChunkMsgs, [&](std::size_t i) {
      sink += cpl.traverse(li.fields[i], no_states);
    });
    constexpr std::size_t W = camus::table::CompiledPipeline::kBlockWidth;
    constexpr std::size_t K = camus::table::CompiledPipeline::kMaxPrefix;
    static_assert(kChunkMsgs % W == 0);
    time_chunks(sm.prefix, (li.fields.size() + W - 1) / W, kChunkMsgs / W, [&](std::size_t blk) {
      std::uint64_t keys[W * K] = {};
      std::uint32_t states[W] = {};
      const std::size_t b = blk * W;
      const std::size_t n = std::min(W, li.fields.size() - b);
      for (std::size_t i = 0; i < n; ++i)
        cpl.prefix_key(li.fields[b + i], no_states, keys + i * K);
      cpl.run_prefix_block(keys, n, states);
      for (std::size_t i = 0; i < n; ++i)
        sink += cpl.finish(states[i], li.fields[b + i], no_states);
    });
    if (sink == 42) std::fprintf(stderr, " ");
  };

  // Traced run: the intended programs before a change, for diff timing.
  auto intended_pipelines = [&]() {
    std::vector<camus::table::Pipeline> v;
    if (wl->fabric) {
      auto p = static_cast<FabricControlPath&>(*ctl).controller().intended();
      if (p.ok()) {
        v.push_back(p.value()->spine);
        for (const auto& l : p.value()->leaves) v.push_back(l);
      }
    } else {
      auto p = static_cast<DurablePath&>(*ctl).controller().intended();
      if (p.ok()) v.push_back(*p.value());
    }
    return v;
  };

  auto do_change = [&]() {
    const Change& c = in.changes[changes_done];
    std::vector<camus::table::Pipeline> before;
    if (args.trace) before = intended_pipelines();
    StepTime t;
    ++attempted;
    if (auto e = ctl->change(in, c, cal, t); !e.empty()) {
      ++failed;
      fail("change " + std::to_string(changes_done) + ": " + e);
      return;
    }
    ++changes_done;
    if (c.subscribe) live.add(c.sub);
    else live.remove_port(c.sub.port);
    sm.update_ms.push_back((t.commit_scaled + t.install_scaled) * 1e-6);
    sm.update_ms_raw.push_back((t.commit_raw + t.install_raw) * 1e-6);
    sm.commit_ms.push_back(t.commit_scaled * 1e-6);
    sm.install_ms.push_back(t.install_scaled * 1e-6);
    if (ctl->subscriptions() != live.count())
      fail("controller holds " + std::to_string(ctl->subscriptions()) +
           " subscriptions, oracle " + std::to_string(live.count()));
    // The seeded probes, plus two aimed at the rule this change touched.
    std::vector<Msg> probes = in.probes;
    for (const Msg& m : change_probes(c)) probes.push_back(m);
    if (std::size_t bad = probe_mismatches(in, probes, env, live, ctl->leaves(),
                                           [&](const auto& f) { return ctl->deliver(f); });
        bad != 0)
      fail(std::to_string(bad) + " probes differ after change " +
           std::to_string(changes_done));
    if (args.trace) {
      const auto after = intended_pipelines();
      std::size_t ops = 0, reused = 0, total = 0;
      sm.diff_ms.push_back(cal.time([&] {
        for (std::size_t i = 0; i < after.size() && i < before.size(); ++i) {
          auto d = camus::table::diff_pipelines(&before[i], after[i]);
          ops += d.ops.size();
          reused += d.reused_entries;
          total += d.total_entries;
        }
      }).second * 1e-6);
      if (!wl->fabric) {
        const auto& d = *static_cast<DurablePath&>(*ctl).last_delta();
        ops = d.ops.size();
        reused = d.reused_entries;
        total = d.total_entries;
      }
      sm.ops.push_back(static_cast<double>(ops));
      sm.reuse.push_back(total ? static_cast<double>(reused) / static_cast<double>(total) : 1.0);
      std::size_t n = 0;
      sm.digest_ms.push_back(cal.time([&] {
        for (const auto& p : after) n += camus::table::stage_digests(p).size();
      }).second * 1e-6);
      if (n == 0) fail("empty stage digests");
    }
    if (changes_done == kRecoverChanges) {
      crash_journal = std::make_unique<camus::util::MemStorage>(ctl->storage());
      crash_digest = ctl->intended_digest();
      crash_oracle = std::make_unique<Oracle>(live);
    }
  };

  auto do_recover = [&]() {
    ++attempted;
    const auto rt = ctl->recover(
        *crash_journal, crash_digest, crash_oracle->count(), cal,
        [&](const ProbeFn& deliver) {
          return probe_mismatches(in, in.probes, env, *crash_oracle, ctl->leaves(), deliver);
        });
    if (!rt.ok) {
      ++failed;
      fail("recovery: " + rt.error);
      return;
    }
    sm.recover_ms.push_back((rt.open_scaled + rt.reconcile_scaled) * 1e-6);
    sm.recover_ms_raw.push_back((rt.open_raw + rt.reconcile_raw) * 1e-6);
    sm.open_ms.push_back(rt.open_scaled * 1e-6);
    sm.reconcile_ms.push_back(rt.reconcile_scaled * 1e-6);
  };

  for (Task t : schedule(nb, np, nc, nr)) {
    switch (t) {
      case Task::kBatched: delivery_pass(Mode::kBatched); break;
      case Task::kParallel: delivery_pass(Mode::kParallel); break;
      case Task::kChange:
        if (changes_done < in.changes.size()) do_change();
        break;
      case Task::kRecover:
        if (crash_journal) do_recover();
        break;
    }
  }

  const Quiet qb = quiet(sm.batched, in.msgs.size());
  const Quiet qp = quiet(sm.parallel, in.msgs.size());
  std::vector<Metric> e2e = {
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", setup_rss_mb, "MB"},
      {"deliver_msgs_per_s", qb.msgs_per_s, "msgs/s"},
      {"deliver_ns_p50", qb.ns_p50, "ns/msg"},
      {"deliver_ns_p99", qb.ns_p99, "ns/msg"},
      {"parallel_msgs_per_s", qp.msgs_per_s, "msgs/s"},
      {"update_ms_p50", median(sm.update_ms), "ms"},
      {"update_ms_p90", quantile(sm.update_ms, 0.9), "ms"},
      // Every recovery of a run repeats one identical operation, so the
      // lower quartile is its least disturbed time.
      {"recover_ms", quantile(sm.recover_ms, 0.25), "ms"},
  };
  // Reference figures (stderr): raw wall-clock medians and sample counts.
  std::fprintf(stderr,
               "raw: setup_s=%.6g deliver_msgs_per_s=%.6g update_ms_p50=%.6g "
               "update_ms_p90=%.6g recover_ms=%.6g peak_rss_mb=%.6g "
               "setup_kernel_ns=%.0f samples: batched=%zu "
               "parallel=%zu changes=%zu recoveries=%zu; kernel ns "
               "p10/p50/p90 %.0f/%.0f/%.0f\n",
               setup_raw_s, median(sm.pass_rate_raw), median(sm.update_ms_raw),
               quantile(sm.update_ms_raw, 0.9), quantile(sm.recover_ms_raw, 0.25),
               peak_rss_mb(), setup_kernel, sm.batched.passes(),
               sm.parallel.passes(), sm.update_ms.size(), sm.recover_ms.size(),
               quantile(cal.kernels(), 0.1), median(cal.kernels()),
               quantile(cal.kernels(), 0.9));
  if (sm.batched.passes() == 0 || sm.parallel.passes() == 0 ||
      sm.update_ms.empty() || sm.recover_ms.empty())
    fail("a path produced no samples");

  if (!args.trace) {
    print_result(problems.empty(), attempted, failed, e2e, stdout);
    return 0;
  }
  std::fprintf(stderr, "end-to-end figures of this traced run: ");
  print_result(problems.empty(), attempted, failed, e2e, stderr);

  // ---- once-per-run layer timings (traced run only) -----------------------
  std::vector<Metric> layer;
  std::vector<std::string> live_text;
  {
    // The live set, rebuilt from the base and the applied changes.
    std::vector<Sub> subs(in.subs.begin(), in.subs.begin() + static_cast<std::ptrdiff_t>(in.ctl_subs));
    for (std::size_t i = 0; i < changes_done; ++i) {
      const Change& c = in.changes[i];
      if (c.subscribe) subs.push_back(c.sub);
      else std::erase_if(subs, [&](const Sub& s) { return s.port == c.sub.port; });
    }
    for (const Sub& s : subs) live_text.push_back(rule_text(in.names, s));
  }
  // lang: parse and flatten the data-path rule text.
  std::vector<std::string> data_rules;
  if (wl->feed)
    for (const Sub& s : in.subs) data_rules.push_back(rule_text(in.names, s));
  else
    data_rules = live_text;
  std::vector<camus::lang::BoundRule> bound;
  const double parse_ns = cal.time([&] {
    for (const auto& t : data_rules) {
      auto r = camus::lang::parse_rule(t);
      if (!r.ok()) { fail("parse"); return; }
      auto b = camus::lang::bind_rule(r.value(), schema);
      if (!b.ok()) { fail("bind"); return; }
      bound.push_back(std::move(b).take());
    }
  }).second;
  const double flatten_ns = cal.time([&] {
    if (!camus::lang::flatten_rules(bound, schema).ok()) fail("flatten");
  }).second;
  // compiler: the live control set, monolithic and fabric-partitioned.
  std::vector<camus::lang::BoundRule> live_bound;
  for (const auto& t : live_text)
    live_bound.push_back(
        camus::lang::bind_rule(camus::lang::parse_rule(t).value(), schema).value());
  camus::table::Pipeline mono;
  const double compile_ns = cal.time([&] {
    auto c = camus::compiler::compile_rules(schema, live_bound, opts);
    if (!c.ok()) fail("compile_rules");
    else mono = std::move(c).take().pipeline;
  }).second;
  std::optional<camus::compiler::FabricPlacement> placement;
  const double partition_ns = cal.time([&] {
    auto p = camus::compiler::partition_for_fabric(schema, live_bound, topo.spec, fopts);
    if (!p.ok()) fail("partition_for_fabric");
    else placement = std::move(p).take();
  }).second;
  std::optional<camus::compiler::FabricProgram> fprog;
  const double compile_fabric_ns = cal.time([&] {
    if (!placement) return;
    auto p = camus::compiler::compile_fabric(schema, *placement, fopts);
    if (!p.ok()) fail("compile_fabric");
    else fprog = std::move(p).take();
  }).second;
  camus::table::Pipeline interned = mono;
  const double intern_ns = cal.time([&] {
    camus::compiler::intern_entries(interned);
  }).second;
  // pubsub: stage and commit the intended image(s) on factory-blank switches.
  double stage_ns = 0, commit_staged_ns = 0;
  {
    std::vector<camus::table::Pipeline> images = intended_pipelines();
    for (const auto& img : images) {
      Switch blank(schema, camus::table::Pipeline{});
      camus::pubsub::TwoPhaseInstaller inst(blank);
      camus::pubsub::StagedInstall staged;
      stage_ns += cal.time([&] { staged = inst.stage(img); }).second;
      commit_staged_ns += cal.time([&] {
        if (!inst.commit_staged(staged)) fail("commit_staged");
      }).second;
    }
  }
  // pubsub: open after checkpoint() on the crash journal.
  double checkpoint_open_ns = 0;
  if (!crash_journal) {
    fail("no crash journal: the change stream did not reach the crash point");
  } else {
    camus::util::MemStorage copy = *crash_journal;
    bool ok = false;
    if (wl->fabric) {
      camus::pubsub::FabricController c(schema, copy, topo.spec, fopts);
      ok = c.open().ok() && c.checkpoint().ok();
    } else {
      camus::pubsub::DurableController c(schema, copy, opts);
      ok = c.open().ok() && c.checkpoint().ok();
    }
    camus::util::MemStorage compacted = copy;
    checkpoint_open_ns = cal.time([&] {
      if (wl->fabric) {
        camus::pubsub::FabricController c(schema, compacted, topo.spec, fopts);
        ok = ok && c.open().ok() && c.subscription_count() == crash_oracle->count();
      } else {
        camus::pubsub::DurableController c(schema, compacted, opts);
        ok = ok && c.open().ok() && c.subscription_count() == crash_oracle->count();
      }
    }).second;
    if (!ok) fail("checkpoint recovery");
  }
  // util: re-append the run's journal records to a fresh journal.
  const std::string journal_bytes = ctl->storage().load().value();
  const auto records = camus::util::Journal::replay_bytes(journal_bytes).value().records;
  camus::util::MemStorage scratch;
  camus::util::Journal journal(scratch);
  const double append_ns = cal.time([&] {
    for (const auto& r : records)
      if (!journal.append(r.type, r.payload).ok()) fail("journal append");
  }).second;
  // netsim: fabric delivery sets over the feed's first messages.
  double env_per_s = 0;
  if (fprog) {
    camus::netsim::Fabric fab(schema, topo);
    fab.program(*fprog);
    const std::size_t n = std::min<std::size_t>(in.msgs.size(), 8192);
    std::size_t sink = 0;
    const double ns = cal.time([&] {
      for (std::size_t i = 0; i < n; ++i) sink += fab.deliver_env(env.make(in, in.msgs[i])).size();
    }).second;
    env_per_s = static_cast<double>(n) * 1e9 / ns;
    if (sink == 0 && live.count() > 0 && n > 0) std::fprintf(stderr, "(no fabric deliveries)\n");
  }
  // switchsim counters and batch stats.
  std::uint64_t probes = 0, hits = 0, tx = 0;
  for (const Switch* s : data_b->switches()) {
    probes += s->batch_stats().memo_probes;
    hits += s->batch_stats().memo_hits;
  }
  const auto sws = data_b->switches();
  for (std::size_t i = wl->fabric ? topo.spec.spines : 0; i < want_counters.size(); ++i)
    tx += want_counters[i].tx_copies;
  std::size_t arena = 0, entries = 0;
  for (const Switch* s : sws) {
    arena += s->compiled().arena_bytes();
    entries += s->pipeline().total_entries();
  }
  auto mean = [](const std::vector<double>& v) {
    double s = 0;
    for (double x : v) s += x;
    return v.empty() ? 0.0 : s / static_cast<double>(v.size());
  };
  const double n_data = static_cast<double>(std::max<std::size_t>(1, data_rules.size()));
  auto per = [](double ns, std::size_t n) {
    return ns / static_cast<double>(std::max<std::size_t>(1, n));
  };
  layer = {
      {"proto.scan_ns_per_frame", per(quiet_ns(sm.scan), in.frames.size()), "ns"},
      {"proto.reframe_ns_per_pkt", per(quiet_ns(sm.reframe), li.reframes.size()), "ns"},
      {"table.traverse_ns_per_msg", per(quiet_ns(sm.traverse), li.fields.size()), "ns"},
      {"table.prefix_block_ns_per_msg", per(quiet_ns(sm.prefix), li.fields.size()), "ns"},
      {"table.arena_bytes", static_cast<double>(arena), "bytes"},
      {"table.entries", static_cast<double>(entries), "count"},
      {"table.diff_ms", median(sm.diff_ms), "ms"},
      {"table.digest_ms", median(sm.digest_ms), "ms"},
      {"switchsim.memo_hit_rate", probes ? static_cast<double>(hits) / static_cast<double>(probes) : 0.0, "ratio"},
      {"switchsim.tx_copies_per_msg", static_cast<double>(tx) / static_cast<double>(in.msgs.size()), "ratio"},
      {"switchsim.parallel_excess_ns_per_msg", 1e9 / qp.msgs_per_s - 1e9 / qb.msgs_per_s, "ns"},
      {"lang.parse_us_per_rule", parse_ns * 1e-3 / n_data, "us"},
      {"lang.flatten_us_per_rule", flatten_ns * 1e-3 / n_data, "us"},
      {"compiler.compile_rules_ms", compile_ns * 1e-6, "ms"},
      {"compiler.partition_fabric_ms", partition_ns * 1e-6, "ms"},
      {"compiler.compile_fabric_ms", compile_fabric_ns * 1e-6, "ms"},
      {"compiler.intern_ms", intern_ns * 1e-6, "ms"},
      {"pubsub.commit_ms_p50", median(sm.commit_ms), "ms"},
      {"pubsub.install_ms_p50", median(sm.install_ms), "ms"},
      {"pubsub.stage_ms", stage_ns * 1e-6, "ms"},
      {"pubsub.commit_staged_ms", commit_staged_ns * 1e-6, "ms"},
      {"pubsub.ops_per_update", mean(sm.ops), "count"},
      {"pubsub.reuse_fraction", mean(sm.reuse), "ratio"},
      {"pubsub.open_ms", median(sm.open_ms), "ms"},
      {"pubsub.reconcile_ms", median(sm.reconcile_ms), "ms"},
      {"pubsub.checkpoint_open_ms", checkpoint_open_ns * 1e-6, "ms"},
      {"util.journal_append_us", append_ns * 1e-3 / static_cast<double>(std::max<std::size_t>(1, records.size())), "us"},
      {"util.journal_records", static_cast<double>(records.size()), "count"},
      {"util.journal_bytes", static_cast<double>(journal_bytes.size()), "bytes"},
      {"netsim.deliver_env_per_s", env_per_s, "1/s"},
      {"workload.gen_s", gen_s, "s"},
  };
  print_result(problems.empty(), attempted, failed, layer, stdout);
  return 0;
}
