// Seeded inputs and the independent output oracle. Everything here is the
// benchmark's own code: subscription text, ITCH frames and the expected
// delivery of every message are produced without calling the program, so
// the program only ever sees the generated inputs.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "calib.hpp"

namespace perfbench {

// One subscription: stock == symbol and price > threshold : fwd(port).
struct Sub {
  std::uint32_t sym = 0;
  std::uint32_t thr = 0;
  std::uint16_t port = 0;
};

struct Msg {
  std::uint32_t sym = 0;
  std::uint32_t price = 0;
};

// One control-plane change: subscribe `sub`, or unsubscribe sub.port
// (`sub` is then the subscription that port holds).
struct Change {
  bool subscribe = true;
  Sub sub;
};

// Probes aimed at the rule one change adds or removes: its symbol at the
// threshold (no match) and just above it (match).
inline std::vector<Msg> change_probes(const Change& c) {
  return {{c.sub.sym, c.sub.thr}, {c.sub.sym, c.sub.thr + 1}};
}

// Shape of one workload's inputs.
struct Shape {
  std::size_t subs = 0;        // data-path subscriptions
  std::size_t symbols = 0;     // symbol universe
  std::size_t hosts = 0;       // 0: one port per subscription
  bool zipf = false;           // Zipf(0.5) symbol skew plus a watched symbol
  std::uint32_t thr_max = 0;   // thresholds spread over [1, thr_max]
  std::uint32_t price_max = 0; // feed prices uniform in [1, price_max]
  std::size_t msgs = 0;        // feed messages (4 per frame)
  std::size_t ctl_subs = 0;    // control-path base (a prefix of subs)
  std::size_t changes = 0;     // change-stream length
};

inline constexpr std::size_t kMsgsPerFrame = 4;
inline constexpr std::size_t kBatchFrames = 64;
inline constexpr std::size_t kProbes = 64;

// Symbol i as ITCH text: 'S' then base-26 letters (at most 8 characters).
inline std::string symbol_name(std::size_t i) {
  std::string s = "S";
  do {
    s.push_back(static_cast<char>('A' + i % 26));
    i /= 26;
  } while (i != 0);
  return s;
}

// The 64-bit wire value of a symbol: 8 bytes, space padded, big-endian.
inline std::uint64_t symbol_key(const std::string& s) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < 8; ++i)
    v = (v << 8) | static_cast<unsigned char>(i < s.size() ? s[i] : ' ');
  return v;
}

inline std::string rule_text(const std::vector<std::string>& names,
                             const Sub& s) {
  return "stock == " + names[s.sym] + " and price > " + std::to_string(s.thr) +
         " : fwd(" + std::to_string(s.port) + ")";
}

// The live subscription set, indexed by symbol, evaluated by brute force.
class Oracle {
 public:
  explicit Oracle(std::size_t symbols) : by_sym_(symbols) {}

  void add(const Sub& s) {
    by_sym_[s.sym].push_back(s);
    ++count_;
  }
  // Removes every subscription forwarding to `port`; returns how many.
  std::size_t remove_port(std::uint16_t port) {
    std::size_t n = 0;
    for (auto& v : by_sym_) {
      const auto before = v.size();
      std::erase_if(v, [port](const Sub& s) { return s.port == port; });
      n += before - v.size();
    }
    count_ -= n;
    return n;
  }
  std::size_t count() const { return count_; }

  // Sorted, unique egress ports of one message.
  std::vector<std::uint16_t> ports(const Msg& m) const {
    std::vector<std::uint16_t> out;
    for (const Sub& s : by_sym_[m.sym])
      if (m.price > s.thr) out.push_back(s.port);
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  }

 private:
  std::vector<std::vector<Sub>> by_sym_;
  std::size_t count_ = 0;
};

struct Inputs {
  std::vector<std::string> names;   // symbol text
  std::vector<std::uint64_t> keys;  // symbol wire values
  std::vector<Sub> subs;            // data-path set; ctl base is a prefix
  std::size_t ctl_subs = 0;
  std::vector<Msg> msgs;            // feed, message i has order ref i + 1
  std::vector<std::vector<std::uint8_t>> frames;
  std::vector<Change> changes;
  std::vector<Msg> probes;          // churn checks
};

// --- ITCH / MoldUDP64 / UDP / IPv4 / Ethernet encoding -------------------

inline void put_be(std::vector<std::uint8_t>& b, std::uint64_t v, int n) {
  for (int i = n - 1; i >= 0; --i)
    b.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

inline constexpr std::size_t kHeaderBytes = 14 + 20 + 8;  // eth+ip+udp
inline constexpr std::size_t kMoldBytes = 20;
inline constexpr std::size_t kAddOrderBytes = 36;

inline std::vector<std::uint8_t> encode_frame(const Inputs& in,
                                              std::size_t first,
                                              std::size_t n) {
  const std::size_t payload = kMoldBytes + n * (2 + kAddOrderBytes);
  std::vector<std::uint8_t> b;
  b.reserve(kHeaderBytes + payload);
  put_be(b, 0x01005e000001ULL, 6);  // eth dst (multicast)
  put_be(b, 0x020000000001ULL, 6);  // eth src
  put_be(b, 0x0800, 2);
  put_be(b, 0x45, 1);
  put_be(b, 0, 1);
  put_be(b, 20 + 8 + payload, 2);
  put_be(b, 0, 2);
  put_be(b, 0x4000, 2);
  put_be(b, 64, 1);
  put_be(b, 17, 1);  // UDP
  put_be(b, 0, 2);   // header checksum (not checked by the parser)
  put_be(b, 0x0a000001, 4);
  put_be(b, 0xe9360c01, 4);
  put_be(b, 30000, 2);
  put_be(b, 26400, 2);  // ITCH feed port
  put_be(b, 8 + payload, 2);
  put_be(b, 0, 2);  // no UDP checksum
  for (char c : std::string("PERFBENCH0")) b.push_back(static_cast<std::uint8_t>(c));
  put_be(b, first + 1, 8);  // sequence of the first message
  put_be(b, n, 2);
  for (std::size_t i = first; i < first + n; ++i) {
    const Msg& m = in.msgs[i];
    put_be(b, kAddOrderBytes, 2);
    b.push_back('A');
    put_be(b, m.sym & 0xffff, 2);  // stock locate
    put_be(b, 0, 2);               // tracking
    put_be(b, 34200000000000ULL + i * 1000, 6);
    put_be(b, i + 1, 8);  // order reference: the message's identity
    b.push_back('B');
    put_be(b, 100, 4);
    put_be(b, in.keys[m.sym], 8);
    put_be(b, m.price, 4);
  }
  return b;
}

// Order references of the messages an egress frame carries (0 on a
// malformed frame).
inline std::vector<std::uint64_t> frame_refs(const std::vector<std::uint8_t>& f) {
  std::vector<std::uint64_t> refs;
  if (f.size() < kHeaderBytes + kMoldBytes) return {0};
  std::size_t off = kHeaderBytes + 18;
  const std::size_t count = (std::size_t{f[off]} << 8) | f[off + 1];
  off += 2;
  for (std::size_t i = 0; i < count; ++i) {
    if (off + 2 + kAddOrderBytes > f.size()) return {0};
    std::uint64_t ref = 0;
    for (int k = 0; k < 8; ++k) ref = (ref << 8) | f[off + 2 + 11 + k];
    refs.push_back(ref);
    off += 2 + kAddOrderBytes;
  }
  return refs;
}

// --- generation -----------------------------------------------------------

inline Inputs generate(const Shape& sh, std::uint64_t seed) {
  Inputs in;
  Rng rng(seed);
  for (std::size_t i = 0; i < sh.symbols; ++i) {
    in.names.push_back(symbol_name(i));
    in.keys.push_back(symbol_key(in.names.back()));
  }
  // The seed draws the traffic: the feed and the probes. The subscription
  // set and the change stream have a fixed shape per workload, so update
  // and recovery figures from different seeds measure the same
  // control-plane work. Thresholds and hosts follow golden-ratio sequences
  // (evenly spread). Every block of `symbols` subscriptions names each
  // symbol once, shifted by one per block so a symbol's subscribers do not
  // share one port residue (one fabric leaf); under Zipf traffic with one
  // subscription per symbol, popularity rank r gets the r-th subscription.
  auto golden = [](std::size_t i, double step) {
    return std::fmod(step * static_cast<double>(i), 1.0);
  };
  constexpr double kPhi = 0.6180339887498949, kRoot2 = 0.4142135623730950;
  auto spread_thr = [&](std::size_t i) {
    return 1 + static_cast<std::uint32_t>(golden(i, kPhi) * sh.thr_max);
  };
  for (std::size_t i = 0; i < sh.subs; ++i) {
    Sub s;
    s.sym = static_cast<std::uint32_t>((i + i / sh.symbols) % sh.symbols);
    if (sh.hosts > 0) {
      // Shared hosts, one threshold per host (the paper's Fig. 5/7 shape).
      s.port = static_cast<std::uint16_t>(1 + golden(i, kRoot2) * sh.hosts);
      s.thr = spread_thr(s.port);
    } else {
      s.port = static_cast<std::uint16_t>(1 + i);
      s.thr = spread_thr(i);
    }
    in.subs.push_back(s);
  }
  in.ctl_subs = std::min(sh.ctl_subs, in.subs.size());

  // Feed: Zipf(0.5) over the symbols with 0.5% on one watched symbol, or
  // uniform.
  std::vector<double> cdf;
  if (sh.zipf) {
    double acc = 0;
    for (std::size_t i = 0; i < sh.symbols; ++i) {
      acc += 1.0 / std::sqrt(static_cast<double>(i + 1));
      cdf.push_back(acc);
    }
    for (double& c : cdf) c /= acc;
  }
  const auto watched = static_cast<std::uint32_t>(rng.below(sh.symbols));
  for (std::size_t i = 0; i < sh.msgs; ++i) {
    Msg m;
    if (!sh.zipf) {
      m.sym = static_cast<std::uint32_t>(rng.below(sh.symbols));
    } else if (rng.unit() < 0.005) {
      m.sym = watched;
    } else {
      m.sym = static_cast<std::uint32_t>(
          std::lower_bound(cdf.begin(), cdf.end(), rng.unit()) - cdf.begin());
      m.sym = std::min<std::uint32_t>(m.sym, static_cast<std::uint32_t>(sh.symbols - 1));
    }
    m.price = 1 + static_cast<std::uint32_t>(rng.below(sh.price_max));
    in.msgs.push_back(m);
  }
  for (std::size_t f = 0; f < sh.msgs; f += kMsgsPerFrame)
    in.frames.push_back(
        encode_frame(in, f, std::min(kMsgsPerFrame, sh.msgs - f)));

  // Change stream: subscribe, subscribe, unsubscribe, repeated. Each
  // subscribe adds one rule on a fresh port; each unsubscribe removes one
  // port the stream itself added, so every change touches exactly one
  // rule and the base set stays in place.
  std::uint16_t next_port = 1;
  for (const Sub& s : in.subs) next_port = std::max<std::uint16_t>(next_port, s.port + 1);
  std::vector<Sub> added;
  for (std::size_t c = 0; c < sh.changes; ++c) {
    Change ch;
    if (c % 3 == 2 && !added.empty()) {
      ch.subscribe = false;
      const std::size_t k = (c * 7) % added.size();
      ch.sub = added[k];
      added.erase(added.begin() + static_cast<std::ptrdiff_t>(k));
    } else {
      ch.sub.sym = static_cast<std::uint32_t>(golden(c, kRoot2) * sh.symbols);
      ch.sub.thr = spread_thr(sh.subs + c);
      ch.sub.port = next_port++;
      added.push_back(ch.sub);
    }
    in.changes.push_back(ch);
  }
  // Probes: symbols drawn from the control base (so they hit rules) and
  // from the whole universe, prices across the threshold range.
  for (std::size_t i = 0; i < kProbes; ++i) {
    Msg m;
    m.sym = i % 2 == 0 && in.ctl_subs > 0
                ? in.subs[rng.below(in.ctl_subs)].sym
                : static_cast<std::uint32_t>(rng.below(sh.symbols));
    m.price = 1 + static_cast<std::uint32_t>(rng.below(sh.thr_max + 1));
    in.probes.push_back(m);
  }
  return in;
}

}  // namespace perfbench
