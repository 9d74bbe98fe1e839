// The testbed benchmark: three closed-loop workloads run through
// core::run_experiment, measured end to end (simulated service the
// clients see, host cost of the program) and, in a separate traced run,
// per layer. It reaches the library only through public API: the
// experiment harness and its result, the core::workload / txn_source seam
// (wrapped here to record a per-transaction timeline), and each layer's
// public classes (replayed here on the workload's own transactions).
//
//   testbed_bench --workload NAME --seed N --seconds S --trace 0|1
//                 [--trace-out PATH]
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// See perfbench/README.md for the workloads and the metric definitions.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "cert/reference_certifier.hpp"
#include "cert/sharded_certifier.hpp"
#include "cert/txn_codec.hpp"
#include "core/experiment.hpp"
#include "db/item.hpp"
#include "place/granule_store.hpp"
#include "place/placement.hpp"
#include "tpcc/tpcc_workload.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "workload/kv.hpp"

using namespace dbsm;

namespace {

using host_clock = std::chrono::steady_clock;

std::int64_t host_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             host_clock::now().time_since_epoch())
      .count();
}

// ------------------------------------------------------------------ spans

/// Host spans (steady-clock ns) kept in memory and written out at the end
/// of a traced run. Parent 0 means a root span.
struct span_log {
  struct span {
    std::uint32_t id = 0;
    std::uint32_t parent = 0;
    const char* name = "";
    std::int64_t start = 0;
    std::int64_t end = 0;
  };
  std::vector<span> spans;

  std::uint32_t open(const char* name, std::uint32_t parent) {
    span s;
    s.id = static_cast<std::uint32_t>(spans.size() + 1);
    s.parent = parent;
    s.name = name;
    s.start = host_ns();
    spans.push_back(s);
    return s.id;
  }
  void close(std::uint32_t id) { spans[id - 1].end = host_ns(); }
  void add(const char* name, std::uint32_t parent, std::int64_t start,
           std::int64_t end) {
    span s;
    s.id = static_cast<std::uint32_t>(spans.size() + 1);
    s.parent = parent;
    s.name = name;
    s.start = start;
    s.end = end;
    spans.push_back(s);
  }
  /// Mean duration (ns) of the spans called `name`; 0 when none.
  double mean_ns(const char* name) const {
    double sum = 0;
    std::uint64_t n = 0;
    for (const span& s : spans) {
      if (std::strcmp(s.name, name) != 0) continue;
      sum += static_cast<double>(s.end - s.start);
      ++n;
    }
    return n == 0 ? 0.0 : sum / static_cast<double>(n);
  }
};

// ------------------------------------------------- the seam wrapper

/// One issued transaction as the seam saw it.
struct txn_rec {
  sim_time issue = 0;
  sim_duration think = 0;  // as the client will apply it
  /// Reply time from below: the latest issue (of any client) the
  /// simulation processed before this reply — it runs events in time
  /// order, so the bound is off by at most one gap between issues.
  sim_time reply_floor = 0;
  db::txn_class cls = 0;
  bool replied = false;  // think_seconds() was asked after this issue
};

/// Everything the seam wrapper records during one run_experiment call.
struct recorder {
  struct client_log {
    unsigned site = 0;
    std::vector<txn_rec> txns;
  };
  std::vector<client_log> clients;

  std::int64_t first_issue_ns = 0;  // host clock at the first next()
  sim_time last_issue = 0;          // simulated time of the latest next()

  /// Update requests kept for the layer replays (first `capture_limit`).
  std::size_t capture_limit = 0;
  std::vector<db::txn_request> captured;

  /// Non-null in the traced run: host spans around every seam call.
  span_log* spans = nullptr;
  std::uint32_t parent_span = 0;
};

class recording_source final : public core::txn_source {
 public:
  recording_source(std::unique_ptr<core::txn_source> inner, recorder& rec,
                   recorder::client_log& log)
      : inner_(std::move(inner)), rec_(rec), log_(log) {}

  db::txn_request next(sim_time now) override {
    const std::int64_t t0 = host_ns();
    if (rec_.first_issue_ns == 0) rec_.first_issue_ns = t0;
    db::txn_request req = inner_->next(now);
    if (rec_.spans)
      rec_.spans->add("workload.next", rec_.parent_span, t0, host_ns());
    rec_.last_issue = now;
    txn_rec r;
    r.issue = now;
    r.cls = req.cls;
    log_.txns.push_back(r);
    if (!req.read_only() && rec_.captured.size() < rec_.capture_limit) {
      db::txn_request c;
      c.id = rec_.captured.size() + 1;
      c.cls = req.cls;
      c.origin = log_.site;
      c.read_set = req.read_set;
      c.write_set = req.write_set;
      c.update_bytes = req.update_bytes;
      c.disk_sectors = req.disk_sectors;
      rec_.captured.push_back(std::move(c));
    }
    return req;
  }

  double think_seconds(util::rng& gen) override {
    const std::int64_t t0 = rec_.spans ? host_ns() : 0;
    const double s = inner_->think_seconds(gen);
    if (rec_.spans)
      rec_.spans->add("workload.think", rec_.parent_span, t0, host_ns());
    // The client schedules its next issue after exactly this duration.
    txn_rec& t = log_.txns.back();
    t.think = from_seconds(std::max(s, 0.0));
    t.reply_floor = std::max(t.issue, rec_.last_issue);
    t.replied = true;
    return s;
  }

 private:
  std::unique_ptr<core::txn_source> inner_;
  recorder& rec_;
  recorder::client_log& log_;
};

/// Forwards every workload call to the real workload and wraps each
/// source; consumes no randomness of its own, so the run is unchanged.
class recording_workload final : public core::workload {
 public:
  recording_workload(std::unique_ptr<core::workload> inner, recorder& rec)
      : inner_(std::move(inner)), rec_(rec) {}

  const char* name() const override { return inner_->name(); }
  std::size_t classes() const override { return inner_->classes(); }
  const char* class_name(db::txn_class c) const override {
    return inner_->class_name(c);
  }
  bool is_update_class(db::txn_class c) const override {
    return inner_->is_update_class(c);
  }
  double mean_think_seconds() const override {
    return inner_->mean_think_seconds();
  }
  void prepare(unsigned sites, unsigned clients, util::rng gen) override {
    rec_.clients.assign(clients, {});
    inner_->prepare(sites, clients, gen);
  }
  std::unique_ptr<core::txn_source> make_source(const core::client_slot& slot,
                                                util::rng gen) override {
    recorder::client_log& log = rec_.clients.at(slot.index);
    log.site = slot.site;
    return std::make_unique<recording_source>(
        inner_->make_source(slot, gen), rec_, log);
  }

 private:
  std::unique_ptr<core::workload> inner_;
  recorder& rec_;
};

// ------------------------------------------------------------ workloads

struct workload_def {
  std::string name;
  core::experiment_config cfg;  // seed and workload are set per run
  core::workload_factory inner;
  double think_mean_s = 0;
  /// Simulation seeds of one round: the run's seed and its derived
  /// sub-seeds. Simulated metrics pool the whole round.
  std::vector<std::uint64_t> round;
};

constexpr unsigned kSites = 3;

/// The protocol-bound KV profile of bench_ablation_ordering: light
/// execution and a fast engine, so the ordering path binds.
kv::kv_config protocol_bound_kv(kv::mix preset) {
  kv::kv_config k;
  k.keys = 20000;
  k.preset = preset;
  k.zipf_theta = 0.5;
  k.value_bytes = 32;
  k.cpu_per_op = util::constant_dist(20e-6);
  k.think_time = util::exponential_dist(0.1);
  return k;
}

/// Round of `n` simulation seeds: `seed` itself, then splitmix64-derived
/// sub-seeds.
std::vector<std::uint64_t> round_of(std::uint64_t seed, unsigned n) {
  std::vector<std::uint64_t> out{seed};
  std::uint64_t state = seed;
  while (out.size() < n) out.push_back(util::splitmix64(state));
  return out;
}

bool make_workload_def(const std::string& name, std::uint64_t seed,
                       workload_def& d) {
  d.name = name;
  d.cfg.sites = kSites;
  d.cfg.cpus_per_site = 1;
  d.cfg.max_sim_time = seconds(3600);
  if (name == "tpcc_paper") {
    // The paper's TPC-C below the Fig 5 knee. At 1500 clients (engine CPU
    // 0.95) the p99.9 moves by ~18% from seed to seed even over a round of
    // four simulations; at 1000 (CPU 0.67) by ~14%, so the round is eight.
    const tpcc::workload_profile prof = tpcc::workload_profile::pentium3_1ghz();
    d.think_mean_s = prof.think_time->mean();
    d.inner = tpcc::factory(prof);
    d.cfg.clients = 1000;
    d.cfg.target_responses = 15000;
    d.round = round_of(seed, 8);
    return true;
  }
  if (name == "ycsb_a_protocol") {
    const kv::kv_config k = protocol_bound_kv(kv::mix::ycsb_a);
    d.think_mean_s = k.think_time->mean();
    d.inner = kv::factory(k);
    d.cfg.replica_cfg.server.commit_cpu = microseconds(200);
    d.cfg.replica_cfg.server.remote_apply_cpu = microseconds(100);
    d.cfg.replica_cfg.server.storage.request_latency = microseconds(170);
    d.cfg.clients = 1500;
    d.cfg.target_responses = 200000;
    d.round = round_of(seed, 1);
    return true;
  }
  return false;
}

// ------------------------------------------------------------- analysis

/// A named metric value; simulated ones must repeat bit for bit.
struct metric {
  std::string name;
  std::string unit;
  double value = 0;
};

std::uint64_t fnv1a_log(const std::vector<std::uint64_t>& log,
                        std::uint64_t h = 1469598103934665603ull) {
  for (std::uint64_t v : log) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xff;
      h *= 1099511628211ull;
    }
  }
  return h;
}

/// Window latencies: measured values plus transactions known only to be
/// slower than anything measured (the run ended first).
struct latencies {
  std::vector<double> ms;
  std::uint64_t beyond = 0;
  std::uint64_t size() const { return ms.size() + beyond; }
};

/// Simulated outputs of one round, summed over its runs.
struct pool {
  double duration_s = 0;
  std::uint64_t committed = 0;
  std::vector<std::uint64_t> site_commits = std::vector<std::uint64_t>(kSites);
  std::vector<double> site_protocol_busy_s = std::vector<double>(kSites);
  double cpu_busy_s = 0, protocol_busy_s = 0, disk_busy_s = 0;
  double wire_bytes = 0, blocked_s = 0;
  std::uint64_t blocked_episodes = 0;
  std::uint64_t lock_aborts = 0, preempt_aborts = 0, cert_aborts = 0;
  std::uint64_t update_commits = 0, decisions_checked = 0;
  std::uint64_t log_lag = 0;
  latencies upd, rd;
  util::sample_set cert_latency_ms;
};

/// What one run's checks found.
struct run_check {
  std::vector<std::string> errors;
  std::uint64_t log_hash = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t in_flight_at_end = 0;
  std::uint64_t update_samples = 0, read_samples = 0, beyond = 0;
  double little_ratio = 0;  // predicted / measured issue rate
  double window_lo_s = 0, window_hi_s = 0;
};

/// Linear-interpolated quantile over all samples, the `beyond` ones
/// ranked last. An error when the percentile lacks ten samples beyond it
/// (the highest percentile reported needs them) or lands on a sample the
/// run's end hid.
double quantile_checked(std::vector<std::string>& errors, latencies& l,
                        double q, const char* what) {
  std::sort(l.ms.begin(), l.ms.end());
  const double n = static_cast<double>(l.size());
  if (n * (1.0 - q) < 10.0 - 1e-9) {
    errors.push_back(std::string(what) + ": " + std::to_string(l.size()) +
                     " samples leave fewer than ten beyond the percentile");
    return 0;
  }
  const double pos = q * (n - 1.0);
  const auto idx = static_cast<std::size_t>(pos);
  if (idx + 1 >= l.ms.size()) {
    errors.push_back(std::string(what) + " falls among transactions the "
                                         "end hid");
    return 0;
  }
  const double frac = pos - static_cast<double>(idx);
  return l.ms[idx] + frac * (l.ms[idx + 1] - l.ms[idx]);
}

/// Window end: this far before the run's end, above every p99.9.
constexpr sim_duration kWindowMargin = seconds(10);
/// A transaction gets no reply although its site stayed up for this long.
constexpr sim_duration kReplyTimeout = seconds(30);

/// Checks one run's outputs and, when `into` is set, adds its simulated
/// outputs to a round.
run_check check_run(const workload_def& d, const core::experiment_result& r,
                    const recorder& rec, pool* into) {
  run_check a;
  auto fail = [&a](const std::string& what) { a.errors.push_back(what); };
  const double dur_s = to_seconds(r.duration);

  // --- monitors, §5.3 safety, run completion ---------------------------
  if (!r.checks.ok) fail("online monitors: " + r.checks.summary());
  if (!r.safety.ok) fail("safety check: " + r.safety.detail);
  if (r.responses < d.cfg.target_responses)
    fail("run stopped at " + std::to_string(r.responses) +
         " responses, before its target");

  // --- commit logs: identical among live sites, hashed ----------------
  // Sites may trail by what they have not delivered when the run stops,
  // but never disagree on what they committed.
  std::size_t longest = 0;
  for (std::size_t i = 1; i < r.commit_logs.size(); ++i)
    if (r.commit_logs[i].size() > r.commit_logs[longest].size()) longest = i;
  std::uint64_t lag = 0;
  a.log_hash = 1469598103934665603ull;
  for (const auto& log : r.commit_logs) {
    const auto& ref = r.commit_logs[longest];
    if (!std::equal(log.begin(), log.end(), ref.begin()))
      fail("commit logs of live sites disagree");
    lag = std::max<std::uint64_t>(lag, ref.size() - log.size());
    a.log_hash = fnv1a_log(log, a.log_hash);
  }
  if (r.commit_logs.size() != kSites)
    fail(std::to_string(r.commit_logs.size()) + " of " +
         std::to_string(kSites) + " sites are live at the end");
  if (r.view_changes != 0) fail("view change in a run without faults");

  // --- per-site and per-class counts against txn_stats ----------------
  std::uint64_t site_commits = 0, site_responses = 0;
  for (const core::site_report& s : r.sites) {
    site_commits += s.client_commits;
    site_responses += s.client_responses;
  }
  if (site_commits != r.stats.total_committed() ||
      site_responses != r.responses)
    fail("per-site commits/responses do not sum to the totals");

  // --- the timeline --------------------------------------------------
  // Transactions issued in [w_lo, w_hi) are sampled, after a warm-up of
  // two mean think times (clients start spread over one) or a tenth of
  // the run. The margin before the end is above every workload's p99.9,
  // so a window transaction still in flight at the end is a slow one: it
  // ranks beyond every measured latency instead of being dropped.
  const std::size_t classes = r.class_is_update.size();
  std::vector<std::uint64_t> seam_replies(classes, 0);
  const sim_time w_lo =
      std::max(from_seconds(2.0 * d.think_mean_s), r.duration / 10);
  const sim_time w_hi = r.duration - kWindowMargin;
  a.window_lo_s = to_seconds(w_lo);
  a.window_hi_s = to_seconds(w_hi);
  if (w_hi <= w_lo) fail("run too short for a steady-state window");

  latencies upd, rd;
  double little_resp = 0, little_think = 0;  // Little's law, over the window
  std::uint64_t little_replies = 0, little_issued = 0;
  for (const recorder::client_log& cl : rec.clients) {
    for (std::size_t i = 0; i < cl.txns.size(); ++i) {
      const txn_rec& t = cl.txns[i];
      ++a.attempted;
      if (t.cls < classes && t.replied) ++seam_replies[t.cls];
      const bool has_next = i + 1 < cl.txns.size();
      const bool in_window = t.issue >= w_lo && t.issue < w_hi;
      if (in_window) ++little_issued;
      latencies& of_class = r.class_is_update.at(t.cls) ? upd : rd;
      if (!t.replied) {
        if (has_next) {
          fail("a client issued again without a reply");
        } else if (r.duration - t.issue > kReplyTimeout) {
          ++a.failed;
        } else {
          ++a.in_flight_at_end;
          if (in_window) ++of_class.beyond;
        }
        continue;
      }
      // Reply time = the client's next issue minus its think time; for a
      // client's last transaction the reply floor stands in for it.
      const sim_duration lat = has_next
                                   ? cl.txns[i + 1].issue - t.think - t.issue
                                   : t.reply_floor - t.issue;
      if (lat < 0) {
        fail("negative response time reconstructed from the seam");
        continue;
      }
      if (!in_window) continue;
      of_class.ms.push_back(to_millis(lat));
      little_resp += to_seconds(lat);
      little_think += to_seconds(t.think);
      ++little_replies;
    }
  }
  for (std::size_t c = 0; c < classes; ++c) {
    const std::uint64_t stats =
        r.stats.of(static_cast<db::txn_class>(c)).total();
    if (seam_replies[c] != stats)
      fail("class " + r.class_names[c] + ": " +
           std::to_string(seam_replies[c]) + " replies at the seam vs " +
           std::to_string(stats) + " in txn_stats");
  }
  if (little_replies > 0 && w_hi > w_lo) {
    const double n = static_cast<double>(little_replies);
    const double predicted = static_cast<double>(rec.clients.size()) /
                             (little_resp / n + little_think / n);
    const double measured =
        static_cast<double>(little_issued) / to_seconds(w_hi - w_lo);
    a.little_ratio = predicted / measured;
    if (std::fabs(a.little_ratio - 1.0) > 0.03)
      fail("Little's law: clients/(R+Z) = " + std::to_string(predicted) +
           "/s vs measured " + std::to_string(measured) + "/s");
  }
  if (a.failed > 0)
    fail(std::to_string(a.failed) + " transactions got no reply");
  a.update_samples = upd.size();
  a.read_samples = rd.size();
  a.beyond = upd.beyond + rd.beyond;
  if (into == nullptr) return a;

  // --- add to the round --------------------------------------------------
  pool& p = *into;
  p.duration_s += dur_s;
  p.committed += r.stats.total_committed();
  for (std::size_t i = 0; i < r.sites.size() && i < kSites; ++i) {
    p.site_commits[i] += r.sites[i].client_commits;
    p.site_protocol_busy_s[i] += r.sites[i].protocol_cpu * dur_s;
  }
  p.cpu_busy_s += r.cpu_utilization * dur_s;
  p.protocol_busy_s += r.protocol_cpu_utilization * dur_s;
  p.disk_busy_s += r.disk_utilization * dur_s;
  p.wire_bytes += r.network_kbps * 1024.0 * dur_s;
  p.blocked_s += r.blocked_ms / 1000.0;
  p.blocked_episodes += r.blocked_episodes;
  for (std::size_t c = 0; c < classes; ++c) {
    const core::class_stats& s = r.stats.of(static_cast<db::txn_class>(c));
    p.lock_aborts += s.aborted_lock;
    p.preempt_aborts += s.aborted_preempt;
    p.cert_aborts += s.aborted_cert;
    if (r.class_is_update[c]) p.update_commits += s.committed;
  }
  p.decisions_checked += r.checks.decisions_checked;
  p.log_lag = std::max(p.log_lag, lag);
  p.upd.ms.insert(p.upd.ms.end(), upd.ms.begin(), upd.ms.end());
  p.upd.beyond += upd.beyond;
  p.rd.ms.insert(p.rd.ms.end(), rd.ms.begin(), rd.ms.end());
  p.rd.beyond += rd.beyond;
  for (double v : r.cert_latency_ms.sorted()) p.cert_latency_ms.add(v);
  return a;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// The round's simulated metrics: end to end and per layer.
void finish_round(pool& p, std::vector<std::string>& errors,
                  std::vector<metric>& e2e, std::vector<metric>& layer) {
  const auto count = [](std::uint64_t v) { return static_cast<double>(v); };
  double min_site = 0, max_site = 0, proto_lo = 0, proto_hi = 0;
  for (std::size_t i = 0; i < kSites; ++i) {
    const double c = count(p.site_commits[i]);
    const double busy = ratio(p.site_protocol_busy_s[i], p.duration_s);
    min_site = i == 0 ? c : std::min(min_site, c);
    max_site = i == 0 ? c : std::max(max_site, c);
    proto_lo = i == 0 ? busy : std::min(proto_lo, busy);
    proto_hi = i == 0 ? busy : std::max(proto_hi, busy);
  }
  const double per_min = ratio(60.0, p.duration_s);
  e2e = {
      {"tpm", "txn/min", count(p.committed) * per_min},
      {"min_site_tpm", "txn/min", min_site * per_min},
      {"update_p50_ms", "ms",
       quantile_checked(errors, p.upd, 0.50, "update_p50")},
      {"update_p99_ms", "ms",
       quantile_checked(errors, p.upd, 0.99, "update_p99")},
      {"update_p999_ms", "ms",
       quantile_checked(errors, p.upd, 0.999, "update_p999")},
      {"read_p50_ms", "ms", quantile_checked(errors, p.rd, 0.50, "read_p50")},
      {"read_p99_ms", "ms", quantile_checked(errors, p.rd, 0.99, "read_p99")},
  };
  layer = {
      {"gcs.blocked_s", "s", p.blocked_s},
      {"gcs.blocked_episodes", "count", count(p.blocked_episodes)},
      {"gcs.mcast_to_decision_p50_ms", "ms", p.cert_latency_ms.quantile(0.50)},
      {"gcs.mcast_to_decision_p99_ms", "ms", p.cert_latency_ms.quantile(0.99)},
      {"net.bytes_per_commit", "B", ratio(p.wire_bytes, count(p.committed))},
      {"csrt.cpu_util", "ratio", ratio(p.cpu_busy_s, p.duration_s)},
      {"csrt.protocol_cpu_util", "ratio",
       ratio(p.protocol_busy_s, p.duration_s)},
      {"csrt.protocol_cpu_peak", "ratio", proto_hi},
      {"csrt.protocol_cpu_spread", "ratio", ratio(proto_hi, proto_lo)},
      {"db.disk_util", "ratio", ratio(p.disk_busy_s, p.duration_s)},
      {"db.lock_aborts", "count", count(p.lock_aborts)},
      {"db.preempt_aborts", "count", count(p.preempt_aborts)},
      {"cert.aborts", "count", count(p.cert_aborts)},
      {"cert.commit_ratio", "ratio",
       ratio(count(p.update_commits), count(p.update_commits + p.cert_aborts))},
      {"core.site_commit_spread", "ratio", ratio(max_site, min_site)},
      {"core.commit_log_lag", "count", count(p.log_lag)},
      {"check.decisions_checked", "count", count(p.decisions_checked)},
      {"window.update_samples", "count", count(p.upd.size())},
      {"window.read_samples", "count", count(p.rd.size())},
      {"window.beyond_end", "count", count(p.upd.beyond + p.rd.beyond)},
  };
}

/// Sum over the sorted samples: independent of the order they came in.
double sorted_sum(const util::sample_set& s) {
  double sum = 0;
  for (double v : s.sorted()) sum += v;
  return sum;
}

/// The simulated fields a plain run must share with an instrumented one.
std::vector<double> sim_fingerprint(const core::experiment_result& r) {
  std::vector<double> f = {
      static_cast<double>(r.duration),
      static_cast<double>(r.responses),
      r.cpu_utilization,
      r.protocol_cpu_utilization,
      r.disk_utilization,
      r.network_kbps,
      r.blocked_ms,
      static_cast<double>(r.view_changes),
      static_cast<double>(r.cert_latency_ms.size()),
      sorted_sum(r.cert_latency_ms)};
  for (std::size_t c = 0; c < r.stats.classes(); ++c) {
    const core::class_stats& s = r.stats.of(static_cast<db::txn_class>(c));
    f.push_back(static_cast<double>(s.committed));
    f.push_back(static_cast<double>(s.aborted()));
    f.push_back(sorted_sum(s.latency_ms));
  }
  std::uint64_t h = 1469598103934665603ull;
  for (const auto& log : r.commit_logs) h = fnv1a_log(log, h);
  f.push_back(static_cast<double>(h >> 12));
  return f;
}

// ------------------------------------------------------ layer replays

/// The benchmark's own certification oracle: a last-writer map written
/// without cert/. A transaction commits unless its snapshot predates the
/// retained window, an escalated (granule) read meets a later committed
/// write of that granule, or a written tuple has a later committed write.
class last_writer_oracle {
 public:
  explicit last_writer_oracle(std::size_t window) : window_(window) {}

  bool certify(std::uint64_t begin, const std::vector<db::item_id>& reads,
               const std::vector<db::item_id>& writes) {
    ++position_;
    bool ok = begin + 1 >= oldest_retained_;
    for (db::item_id id : reads)
      if (ok && db::is_granule(id) && written_after(id, begin)) ok = false;
    for (db::item_id id : writes)
      if (ok && !db::is_granule(id) && written_after(id, begin)) ok = false;
    if (!ok) return false;
    for (db::item_id id : writes) last_[id] = position_;
    committed_.push_back(position_);
    if (committed_.size() > window_) {
      oldest_retained_ = committed_.front() + 1;
      committed_.pop_front();
    }
    return true;
  }

 private:
  bool written_after(db::item_id id, std::uint64_t begin) const {
    const auto it = last_.find(id);
    return it != last_.end() && it->second > begin;
  }

  std::size_t window_;
  std::unordered_map<db::item_id, std::uint64_t> last_;
  std::deque<std::uint64_t> committed_;
  std::uint64_t position_ = 0;
  std::uint64_t oldest_retained_ = 1;
};

struct replay_result {
  std::uint64_t decisions = 0;
  std::uint64_t commits = 0;
  std::uint64_t disagreements = 0;
  std::uint64_t codec_mismatches = 0;
};

/// Replays captured update requests through the codec, the two
/// certifiers, the benchmark's oracle and the granule store. Snapshots
/// trail the delivery position by a seeded lag; the window is small so
/// the pre-window rule fires too. With `spans`, every layer call is timed.
replay_result replay_layers(const std::vector<db::txn_request>& txns,
                            std::uint64_t seed, span_log* spans) {
  constexpr std::size_t kWindow = 256;
  cert::cert_config cc;
  cc.history_window = kWindow;
  cert::sharded_certifier sharded(cc);
  cert::reference_certifier reference(cc);
  last_writer_oracle oracle(kWindow);
  place::granule_store store(place::placement::full(kSites), 0);
  util::rng gen(seed ^ 0x7265706c6179ull);
  replay_result out;
  const std::uint32_t root = spans ? spans->open("bench.replay", 0) : 0;
  auto timed = [&](const char* name, auto&& fn) {
    if (!spans) return fn();
    const std::int64_t t0 = host_ns();
    auto v = fn();
    spans->add(name, root, t0, host_ns());
    return v;
  };
  for (const db::txn_request& req : txns) {
    const std::uint64_t pos = sharded.position();
    const double u = gen.uniform();
    const auto lag = static_cast<std::uint64_t>(u * u * 2.0 * kWindow);
    const std::uint64_t begin = pos > lag ? pos - lag : 0;
    const cert::txn_payload back = timed("cert.codec", [&] {
      return cert::decode_txn(cert::encode_txn(cert::make_payload(req, begin)));
    });
    if (back.id != req.id || back.cls != req.cls ||
        back.origin != req.origin || back.begin_pos != begin ||
        back.read_set != req.read_set || back.write_set != req.write_set ||
        back.update_bytes != req.update_bytes ||
        back.disk_sectors != req.disk_sectors)
      ++out.codec_mismatches;
    const bool a = timed("cert.sharded_certify", [&] {
      return sharded.certify_update(back.begin_pos, back.read_set,
                                    back.write_set);
    });
    const bool b = timed("cert.reference_certify", [&] {
      return reference.certify_update(back.begin_pos, back.read_set,
                                      back.write_set);
    });
    const bool c = oracle.certify(back.begin_pos, back.read_set,
                                  back.write_set);
    ++out.decisions;
    if (a != b || a != c) ++out.disagreements;
    if (a) {
      ++out.commits;
      timed("place.apply", [&] {
        store.apply(back.write_set, back.update_bytes);
        return 0;
      });
    }
  }
  if (spans) spans->close(root);
  return out;
}

// ------------------------------------------------------------ running

enum class wrap { plain, light, traced };

struct run_out {
  core::experiment_result res;
  recorder rec;
  double wall_s = 0;
  double setup_s = 0;
};

/// One run_experiment call with simulation seed `seed`. `plain` runs the
/// workload unwrapped; `traced` also records host spans around every seam
/// call.
run_out run_once(const workload_def& d, std::uint64_t seed, wrap mode,
                 std::size_t capture, span_log* spans,
                 const check::config* checks = nullptr,
                 sim_time stop_at = 0) {
  run_out o;
  core::experiment_config cfg = d.cfg;
  if (stop_at != 0) cfg.max_sim_time = stop_at;
  cfg.seed = seed;
  if (checks) cfg.checks = *checks;
  recorder* rec = &o.rec;
  rec->capture_limit = capture;
  if (mode == wrap::plain) {
    cfg.workload = d.inner;
  } else {
    const core::workload_factory inner = d.inner;
    cfg.workload = [inner, rec]() -> std::unique_ptr<core::workload> {
      return std::make_unique<recording_workload>(inner(), *rec);
    };
  }
  std::uint32_t root = 0;
  if (mode == wrap::traced) {
    root = spans->open("core.run_experiment", 0);
    rec->spans = spans;
    rec->parent_span = root;
  }
  const std::int64_t t0 = host_ns();
  o.res = core::run_experiment(cfg);
  const std::int64_t t1 = host_ns();
  if (mode == wrap::traced) spans->close(root);
  o.wall_s = static_cast<double>(t1 - t0) / 1e9;
  if (rec->first_issue_ns != 0)
    o.setup_s = static_cast<double>(rec->first_issue_ns - t0) / 1e9;
  return o;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Writes the traced run's host spans, then one simulated issue->reply
/// span per transaction that got a reply, tagged with site and class.
void write_spans(const std::string& path, const span_log& spans,
                 const recorder& rec) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write spans to %s\n", path.c_str());
    return;
  }
  out << "clock\tid\tparent\tname\tstart_ns\tend_ns\tsite\tclass\n";
  for (const span_log::span& s : spans.spans)
    out << "host\t" << s.id << '\t' << s.parent << '\t' << s.name << '\t'
        << s.start << '\t' << s.end << "\t\t\n";
  std::uint64_t id = 0;
  for (const recorder::client_log& cl : rec.clients) {
    for (std::size_t i = 0; i < cl.txns.size(); ++i) {
      const txn_rec& t = cl.txns[i];
      ++id;
      if (!t.replied) continue;
      const sim_time reply = i + 1 < cl.txns.size()
                                 ? cl.txns[i + 1].issue - t.think
                                 : t.reply_floor;
      out << "sim\t" << id << "\t0\tclient.txn\t" << t.issue << '\t' << reply
          << '\t' << cl.site << '\t' << t.cls << '\n';
    }
  }
}

struct options {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10;
  int trace = 0;
  std::string trace_out;
};

bool parse(int argc, char** argv, options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    try {
      if (a == "--workload") o.workload = v;
      else if (a == "--seed") o.seed = std::stoull(v);
      else if (a == "--seconds") o.seconds = std::stod(v);
      else if (a == "--trace") o.trace = std::stoi(v);
      else if (a == "--trace-out") o.trace_out = v;
      else return false;
    } catch (const std::exception&) {
      return false;
    }
  }
  return !o.workload.empty() && o.seconds > 0 &&
         (o.trace == 0 || o.trace == 1);
}

/// Update transactions replayed through the layers, from the first run.
constexpr std::size_t kCapture = 20000;
/// Set-up probes per run: runs cut short just after the first issues.
constexpr unsigned kSetupProbes = 31;

}  // namespace

int main(int argc, char** argv) {
  options opt;
  if (!parse(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: testbed_bench --workload tpcc_paper|ycsb_a_protocol|"
                 "ycsb_b_read_mostly --seed N --seconds S --trace 0|1 "
                 "[--trace-out PATH]\n");
    return 2;
  }
  workload_def d;
  if (!make_workload_def(opt.workload, opt.seed, d)) {
    std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }
  const std::int64_t t_start = host_ns();
  auto elapsed_s = [&] {
    return static_cast<double>(host_ns() - t_start) / 1e9;
  };

  std::vector<std::string> errors;
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::vector<double>> fingerprints;  // per round seed
  std::vector<std::uint64_t> hashes;
  std::vector<db::txn_request> captured;
  std::vector<double> setups, rates, walls;
  pool round;

  // Checks a wrapped run; the first run of each round seed joins the round
  // and fixes its fingerprint, every later one must reproduce it.
  auto absorb = [&](run_out& o, std::size_t sub, const char* label) {
    const bool first = sub >= fingerprints.size();
    run_check c = check_run(d, o.res, o.rec, first ? &round : nullptr);
    for (const std::string& e : c.errors)
      errors.push_back(std::string(label) + ": " + e);
    const std::vector<double> fp = sim_fingerprint(o.res);
    if (first) {
      fingerprints.push_back(fp);
      hashes.push_back(c.log_hash);
      std::printf("[%s] seed %llu: %llu responses in %.3f s simulated, "
                  "window [%.1f, %.1f) s, %llu update / %llu read samples "
                  "(%llu beyond the end), %llu in flight at the end, "
                  "Little's law ratio %.4f, commit-log hash %016llx\n",
                  d.name.c_str(), static_cast<unsigned long long>(d.round[sub]),
                  static_cast<unsigned long long>(o.res.responses),
                  to_seconds(o.res.duration), c.window_lo_s, c.window_hi_s,
                  static_cast<unsigned long long>(c.update_samples),
                  static_cast<unsigned long long>(c.read_samples),
                  static_cast<unsigned long long>(c.beyond),
                  static_cast<unsigned long long>(c.in_flight_at_end),
                  c.little_ratio, static_cast<unsigned long long>(c.log_hash));
    } else if (fp != fingerprints[sub] || c.log_hash != hashes[sub]) {
      errors.push_back(std::string(label) +
                       ": same seed, different simulated output");
    }
    attempted += c.attempted;
    failed += c.failed;
  };
  auto timed = [&](const run_out& o) {
    walls.push_back(o.wall_s);
    rates.push_back(static_cast<double>(o.res.responses) /
                    (o.wall_s - o.setup_s));
  };

  // The round, each seed once; the first run also keeps update requests
  // for the layer replays.
  for (std::size_t sub = 0; sub < d.round.size(); ++sub) {
    run_out o = run_once(d, d.round[sub], wrap::light,
                         sub == 0 ? kCapture : 0, nullptr);
    if (sub == 0) captured = std::move(o.rec.captured);
    timed(o);
    absorb(o, sub, "run");
  }
  // The workload unwrapped: the seam wrapper must change nothing.
  const run_out plain = run_once(d, d.round[0], wrap::plain, 0, nullptr);
  if (sim_fingerprint(plain.res) != fingerprints[0])
    errors.push_back("plain run: simulated output differs from the "
                     "wrapped run of the same seed");

  std::vector<metric> host;
  span_log spans;
  if (opt.trace == 0) {
    // Set-up time, from many short runs: each stops once a fiftieth of
    // a mean think time is simulated, when the first clients have issued.
    // The first issue comes later on some seeds than on others, so each
    // probe has a seed of its own.
    for (const std::uint64_t seed : round_of(~opt.seed, kSetupProbes)) {
      const run_out o = run_once(d, seed, wrap::light, 0, nullptr, nullptr,
                                 from_seconds(d.think_mean_s / 50));
      if (o.setup_s <= 0) errors.push_back("set-up probe issued nothing");
      setups.push_back(o.setup_s);
    }
    // Host figures are medians over whole runs: the round again, seed by
    // seed, until the time is up.
    for (std::size_t sub = 0; elapsed_s() < opt.seconds;
         sub = (sub + 1) % d.round.size()) {
      run_out o = run_once(d, d.round[sub], wrap::light, 0, nullptr);
      timed(o);
      absorb(o, sub, "repeat run");
    }
  } else {
    // Each host figure is a difference to this run: the first round seed
    // again, untraced, in a process already warm.
    const std::uint64_t seed = d.round[0];
    run_out warm = run_once(d, seed, wrap::light, 0, nullptr);
    absorb(warm, 0, "untraced run");
    const double base = warm.wall_s;
    run_out traced = run_once(d, seed, wrap::traced, 0, &spans);
    absorb(traced, 0, "traced run");
    check::config off = d.cfg.checks;
    off.enabled = false;
    run_out unchecked = run_once(d, seed, wrap::light, 0, nullptr, &off);
    check::config no_oracle = d.cfg.checks;
    no_oracle.cert_oracle = false;
    run_out unoracled =
        run_once(d, seed, wrap::light, 0, nullptr, &no_oracle);
    for (run_out* o : {&unchecked, &unoracled}) {
      if (sim_fingerprint(o->res) != fingerprints[0])
        errors.push_back("run with monitors off: simulated output differs");
      attempted += check_run(d, o->res, o->rec, nullptr).attempted;
    }
    host = {
        {"host.run_s", "s", base},
        {"host.txn_per_s", "txn/s",
         static_cast<double>(warm.res.responses) / (base - warm.setup_s)},
        {"host.trace_overhead_s", "s", traced.wall_s - base},
        {"host.check_s", "s", base - unchecked.wall_s},
        {"host.oracle_s", "s", base - unoracled.wall_s},
        {"host.workload_next_ns", "ns", spans.mean_ns("workload.next")},
    };
    if (!opt.trace_out.empty()) write_spans(opt.trace_out, spans, traced.rec);
  }

  // Independent certification check on the workload's own transactions.
  const replay_result rp =
      replay_layers(captured, opt.seed, opt.trace == 1 ? &spans : nullptr);
  if (rp.decisions == 0) errors.push_back("replay: no update transactions");
  if (rp.disagreements != 0)
    errors.push_back("replay: certifiers disagree on " +
                     std::to_string(rp.disagreements) + " of " +
                     std::to_string(rp.decisions) + " decisions");
  if (rp.codec_mismatches != 0)
    errors.push_back("replay: codec round trip changed " +
                     std::to_string(rp.codec_mismatches) + " payloads");
  std::printf("[%s] replay: %llu decisions, %llu commits, the two "
              "certifiers and the last-writer oracle %s\n",
              d.name.c_str(), static_cast<unsigned long long>(rp.decisions),
              static_cast<unsigned long long>(rp.commits),
              rp.disagreements == 0 ? "agree" : "DISAGREE");

  std::vector<metric> e2e, layer;
  finish_round(round, errors, e2e, layer);
  std::vector<metric> out;
  if (opt.trace == 0) {
    out = e2e;
    out.push_back({"setup_s", "s", median(setups)});
    out.push_back({"peak_rss_mb", "MB", peak_rss_mb()});
    std::printf("[%s] %zu timed runs, wall median %.3f s, txn/s:",
                d.name.c_str(), walls.size(), median(walls));
    for (double r : rates) std::printf(" %.0f", r);
    std::printf("\n");
  } else {
    out = layer;
    out.insert(out.end(), host.begin(), host.end());
    out.push_back({"host.certify_ns", "ns",
                   spans.mean_ns("cert.sharded_certify")});
    out.push_back({"host.oracle_certify_ns", "ns",
                   spans.mean_ns("cert.reference_certify")});
    out.push_back({"host.codec_ns", "ns", spans.mean_ns("cert.codec")});
    out.push_back({"host.place_apply_ns", "ns", spans.mean_ns("place.apply")});
  }

  const bool correct = errors.empty();
  for (const std::string& e : errors)
    std::printf("CHECK FAILED: %s\n", e.c_str());
  // Every transaction of a run fails when its checks fail.
  if (!correct) failed = attempted;
  for (const metric& m : out)
    std::printf("  %-32s %18.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < out.size(); ++i) {
    json += (i ? ", \"" : "\"") + out[i].name + "\": {\"value\": " +
            json_number(out[i].value) + ", \"unit\": \"" + out[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
