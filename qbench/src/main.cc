// qbench: one benchmark for the qlearn stack.
//
//   qbench --workload <serve-direct|learn-large>
//          --seed N --seconds S --trace <0|1> [--golden-dir DIR]
//          [--inject <golden-byte|oracle-flip>]
//
// Sets the workload up several times (setup_s is the median), runs its
// closed loop for S seconds with every response validated, and prints the
// end-to-end metrics by name with units and sample counts. With --trace 1
// it then runs the traced replay of the layers the workload exercises
// (trace.h, learn.h) and prints the per-layer metrics instead; rows of
// layers the workload does not touch print as n/a and are 0 in the JSON.
// The last line of stdout is one JSON object:
// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}.
// The exit status is nonzero on any validation failure. --inject breaks
// one golden byte or one oracle label, so the benchmark's own test can
// check that the checker catches it.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "bench.h"
#include "learn.h"
#include "serve.h"
#include "trace.h"

namespace qbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  const size_t index = static_cast<size_t>(
      q * static_cast<double>(values.size() - 1) + 0.5);
  std::nth_element(values.begin(), values.begin() + index, values.end());
  return values[index];
}

double PeakRssMib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

void LoadResult::StartWindows(Clock::time_point begin, double seconds,
                              size_t count) {
  start = begin;
  width = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
  windows.assign(count, Window{});
}

Window& LoadResult::At(Clock::time_point t) {
  if (t <= start || width == Clock::duration::max()) return windows.front();
  const auto index = static_cast<size_t>((t - start) / width);
  return windows[std::min(index, windows.size() - 1)];
}

uint64_t LoadResult::validated() const {
  uint64_t total = 0;
  for (const Window& w : windows) total += w.validated;
  return total;
}

uint64_t LoadResult::sessions() const {
  uint64_t total = 0;
  for (const Window& w : windows) total += w.sessions;
  return total;
}

std::vector<double> LoadResult::All(std::vector<double> Window::*series) const {
  std::vector<double> all;
  for (const Window& w : windows) {
    all.insert(all.end(), (w.*series).begin(), (w.*series).end());
  }
  return all;
}

void LoadResult::Merge(LoadResult&& other) {
  attempted += other.attempted;
  errors += other.errors;
  mismatches += other.mismatches;
  hibernate_errors += other.hibernate_errors;
  questions_per_session += other.questions_per_session;
  by_engine = by_engine || other.by_engine;
  if (windows.size() < other.windows.size()) {
    windows.resize(other.windows.size());
  }
  for (size_t i = 0; i < other.windows.size(); ++i) {
    Window& to = windows[i];
    Window& from = other.windows[i];
    to.validated += from.validated;
    to.sessions += from.sessions;
    for (auto series : {&Window::first_question_us, &Window::ask_us,
                        &Window::tell_us}) {
      (to.*series).insert((to.*series).end(), (from.*series).begin(),
                          (from.*series).end());
    }
  }
  for (std::string& note : other.notes) Note(note);
}

namespace {

struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string golden_dir = "tests/golden";
  std::string inject;
};

// Set-ups per run; setup_s is their median.
constexpr int kSetups = 5;

bool ParseOptions(int argc, char** argv, Options* options) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      options->workload = value;
    } else if (flag == "--seed") {
      options->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      options->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0') return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      options->trace = value == "1" ? 1 : 0;
    } else if (flag == "--golden-dir") {
      options->golden_dir = value;
    } else if (flag == "--inject") {
      if (value != "golden-byte" && value != "oracle-flip") return false;
      options->inject = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && options->seconds > 0 && options->trace >= 0 &&
         (options->workload == "serve-direct" ||
          options->workload == "learn-large");
}

/// Linear interpolation of quantile q inside a log2 latency histogram
/// (bucket i holds [2^(i-1), 2^i) µs; bucket 0 is sub-microsecond).
double HistogramQuantile(const qlearn::service::LatencySnapshot& h, double q) {
  const uint64_t total = h.Count();
  if (total == 0) return 0;
  const double rank = q * static_cast<double>(total);
  double seen = 0;
  for (size_t i = 0; i < qlearn::service::LatencySnapshot::kBuckets; ++i) {
    const double count = static_cast<double>(h.buckets[i]);
    if (seen + count > rank) {
      const double upper = std::ldexp(1.0, static_cast<int>(i));
      const double lower = i == 0 ? 0 : upper / 2;
      return lower + (upper - lower) * (rank - seen) / count;
    }
    seen += count;
  }
  return 0;
}

/// One printed metric.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  size_t samples = 0;  ///< sample count behind a timing; 0 for others
  bool applies = true;  ///< false: the workload does not touch the layer
};

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           size_t samples = 0) {
    metrics_.push_back({name, value, unit, samples});
  }
  /// A row of a layer the workload does not exercise: n/a, 0 in the JSON.
  void AddNa(const std::string& name, const std::string& unit) {
    metrics_.push_back({name, 0, unit, 0, false});
  }
  void PrintTable() const {
    for (const Metric& m : metrics_) {
      if (!m.applies) {
        std::printf("  %-34s %16s %-6s\n", m.name.c_str(), "n/a",
                    m.unit.c_str());
        continue;
      }
      std::printf("  %-34s %16.4f %-6s", m.name.c_str(), m.value,
                  m.unit.c_str());
      if (m.samples > 0) std::printf("  (n=%zu)", m.samples);
      std::printf("\n");
    }
  }
  /// Names of metrics whose value is not a finite number.
  std::vector<std::string> NonFinite() const {
    std::vector<std::string> bad;
    for (const Metric& m : metrics_) {
      if (!std::isfinite(m.value)) bad.push_back(m.name);
    }
    return bad;
  }
  std::string Json() const {
    std::string out;
    char buffer[256];
    for (size_t i = 0; i < metrics_.size(); ++i) {
      std::snprintf(buffer, sizeof(buffer),
                    "%s\"%s\":{\"value\":%.10g,\"unit\":\"%s\"}",
                    i == 0 ? "" : ",", metrics_[i].name.c_str(),
                    metrics_[i].value, metrics_[i].unit.c_str());
      out += buffer;
    }
    return out;
  }

 private:
  std::vector<Metric> metrics_;
};

/// The end-to-end metrics of one loaded run, aggregated over its windows
/// or engines (see LoadResult); sample counts are over the whole run.
void AddEndToEnd(const LoadResult& r, double setup_s, Report* e2e) {
  const double window_s = r.seconds / static_cast<double>(r.windows.size());
  auto over_windows = [&](auto per_window) {
    std::vector<double> values;
    double log_sum = 0;
    for (const Window& w : r.windows) {
      values.push_back(per_window(w));
      log_sum += std::log(values.back());
    }
    return r.by_engine ? std::exp(log_sum / static_cast<double>(values.size()))
                       : Median(values);
  };
  auto rate = [&](uint64_t Window::*count) {
    if (r.by_engine) {
      uint64_t total = 0;
      for (const Window& w : r.windows) total += w.*count;
      return static_cast<double>(total) / r.seconds;
    }
    return over_windows([&](const Window& w) {
      return static_cast<double>(w.*count) / window_s;
    });
  };
  auto quantile = [&](std::vector<double> Window::*series, double q) {
    return over_windows(
        [&](const Window& w) { return Quantile(w.*series, q); });
  };
  const size_t first = r.All(&Window::first_question_us).size();
  const size_t asks = r.All(&Window::ask_us).size();
  const size_t tells = r.All(&Window::tell_us).size();
  e2e->Add("setup_s", setup_s, "s", kSetups);
  e2e->Add("throughput_rps", rate(&Window::validated), "req/s",
           r.validated());
  e2e->Add("sessions_per_s", rate(&Window::sessions), "1/s", r.sessions());
  e2e->Add("first_question_p50_us", quantile(&Window::first_question_us, 0.5),
           "us", first);
  e2e->Add("first_question_p99_us", quantile(&Window::first_question_us, 0.99),
           "us", first);
  e2e->Add("ask_p50_us", quantile(&Window::ask_us, 0.5), "us", asks);
  e2e->Add("ask_p99_us", quantile(&Window::ask_us, 0.99), "us", asks);
  e2e->Add("tell_p50_us", quantile(&Window::tell_us, 0.5), "us", tells);
  e2e->Add("tell_p99_us", quantile(&Window::tell_us, 0.99), "us", tells);
  e2e->Add("questions_per_session", r.questions_per_session, "count",
           r.sessions());
  e2e->Add("rss_peak_mib", PeakRssMib(), "MiB");
}

/// Runs the traced replay of the layers the workload exercises (trace.h,
/// learn.h) and adds the per-layer metrics, using the loaded run `result`
/// (and the server's view of it) for the queueing and histogram rows.
/// Returns the traced run's failures.
uint64_t AddPerLayer(bool golden, uint64_t seed,
                     const LoadResult& result, const ServerView& view,
                     const std::vector<Golden>& goldens,
                     const std::vector<uint64_t>& sequence_hash,
                     Report* layers, std::vector<std::string>* notes) {
  GoldenTrace g;
  LearnTrace l;
  if (golden) {
    g = TraceGolden(goldens, seed);
  } else {
    l = TraceLearn(seed, sequence_hash);
  }
  notes->insert(notes->end(), g.notes.begin(), g.notes.end());
  notes->insert(notes->end(), l.notes.begin(), l.notes.end());
  // Adds the row if the workload exercises its layer, else an n/a row.
  auto row = [&](bool applies, const std::string& name, double value,
                 const char* unit, size_t samples = 0) {
    if (applies) {
      layers->Add(name, value, unit, samples);
    } else {
      layers->AddNa(name, unit);
    }
  };

  const char* ops4[4] = {"open", "ask", "tell", "close"};
  const char* ops2[2] = {"ask", "tell"};
  for (int i = 0; i < 4; ++i) {
    row(golden, std::string("session.self_us.") + ops4[i],
        g.session_self_us[i], "us");
  }
  for (int i = 0; i < 4; ++i) {
    row(golden, std::string("service.self_us.") + ops4[i],
        g.service_self_us[i], "us");
  }
  for (int i = 0; i < 2; ++i) {
    const std::string op = ops2[i];
    const size_t n = i == 0 ? g.ask_samples : g.tell_samples;
    row(golden, "alloc.service.per_" + op, g.service_allocs[i], "count");
    row(golden, "net.protocol.self_us." + op, g.protocol_self_us[i], "us", n);
    row(golden, "alloc.protocol.per_" + op, g.protocol_allocs[i], "count");
    row(golden, "alloc.session.per_" + op, g.session_allocs[i], "count");
    row(golden, "net.protocol.resp_bytes." + op, g.response_bytes[i], "B");
    row(golden, "net.transport.self_us." + op, g.transport_self_us[i], "us",
        n);
  }
  // The outer traced entry point of each workload (what a loaded request
  // would cost with nobody ahead of it), the sum of the self medians of the
  // layers inside it, and the same replay with and without spans.
  double outer_ask = 0, outer_tell = 0, inner_sum = 0, overhead = 0;
  double pick_p50 = 0, mark_p50 = 0;  // learn-large
  if (golden) {
    outer_ask = g.outer_span_us[0];
    outer_tell = g.outer_span_us[1];
    inner_sum = g.session_self_us[1] + g.service_self_us[1] +
                g.protocol_self_us[0] + g.transport_self_us[0];
    overhead = g.traced_wall_s / g.untraced_wall_s - 1;
  } else {
    // A stepped ask is SelectQuestion then MarkAsked; a tell is Observe +
    // OnPositive/OnNegative, then Propagate.
    std::vector<double> select, pick, mark, tell;
    for (const EngineTrace& e : l.engines) {
      select.insert(select.end(), e.select_us.begin(), e.select_us.end());
      pick.insert(pick.end(), e.pick_us.begin(), e.pick_us.end());
      for (size_t i = 0; i < e.select_us.size(); ++i) {
        mark.push_back(e.select_us[i] - e.pick_us[i]);
      }
      for (size_t i = 0; i < e.observe_us.size(); ++i) {
        tell.push_back(e.observe_us[i] + e.propagate_us[i]);
      }
    }
    outer_ask = Median(select);
    outer_tell = Median(tell);
    pick_p50 = Median(pick);
    mark_p50 = Median(mark);
    inner_sum = pick_p50 + mark_p50;
    overhead = l.traced_loop_s / l.untraced_loop_s - 1;
  }
  const double residual = inner_sum - outer_ask;
  const std::vector<double> loaded_asks = result.All(&Window::ask_us);
  const std::vector<double> loaded_tells = result.All(&Window::tell_us);
  const double loaded_ask = Median(loaded_asks);
  const double loaded_tell = Median(loaded_tells);
  layers->Add("queue.wait_us.ask", loaded_ask - outer_ask, "us",
              loaded_asks.size());
  layers->Add("queue.wait_us.tell", loaded_tell - outer_tell, "us",
              loaded_tells.size());
  row(golden, "net.router.self_us.ask", g.router_self_us[0], "us",
      g.ask_samples);
  row(golden, "net.router.self_us.tell", g.router_self_us[1], "us",
      g.tell_samples);
  row(golden, "net.router.frames_forwarded",
      static_cast<double>(g.frames_forwarded), "count");
  row(golden, "net.router.local_answers",
      static_cast<double>(g.local_answers), "count");
  row(golden, "net.router.backend_conn_reuse", g.backend_conn_reuse, "ratio");
  row(golden, "service.park_us.p50", Median(g.park_us), "us",
      g.park_us.size());
  row(golden, "service.park_us.p99", Quantile(g.park_us, 0.99), "us",
      g.park_us.size());
  row(golden, "service.rehydrate_us.ask", g.rehydrate_ask_us, "us",
      g.ask_samples);
  row(golden, "service.store.put_us", g.put_us, "us");
  row(golden, "service.store.get_us", g.get_us, "us");
  row(golden, "service.store.bytes_per_put", g.bytes_per_put, "B");
  row(golden, "service.parks", static_cast<double>(g.parks), "count");
  row(golden, "service.rehydrates", static_cast<double>(g.rehydrates),
      "count");
  row(golden, "service.hibernate_errors",
      static_cast<double>(g.hibernate_errors), "count");
  for (int k = 0; k < 4; ++k) {
    const EngineTrace& e = l.engines[k];
    const std::string name = kEngines[k];
    const double questions = static_cast<double>(e.questions);
    const double sessions =
        static_cast<double>(std::max<uint64_t>(1, e.sessions));
    row(!golden, name + ".construct_us", Median(e.construct_us), "us",
        e.construct_us.size());
    row(!golden, name + ".select_us", Median(e.select_us), "us",
        e.select_us.size());
    row(!golden, name + ".observe_us", Median(e.observe_us), "us",
        e.observe_us.size());
    row(!golden, name + ".propagate_us", Median(e.propagate_us), "us",
        e.propagate_us.size());
    row(!golden, name + ".finish_us", Median(e.finish_us), "us",
        e.finish_us.size());
    row(!golden, "alloc." + name + ".per_question",
        questions > 0 ? static_cast<double>(e.loop_allocs) / questions : 0,
        "count");
    row(!golden, name + ".forced_share",
        e.forced + e.questions == 0
            ? 0
            : static_cast<double>(e.forced) /
                  static_cast<double>(e.forced + e.questions),
        "ratio");
    row(!golden, name + ".questions", questions / sessions, "count");
    row(!golden, name + ".candidates",
        static_cast<double>(e.candidates) / sessions, "count");
  }
  // Server-side histograms over the loaded run.
  const auto& hist_open = view.counters.open_latency_us;
  const auto& hist_ask = view.counters.ask_latency_us;
  row(golden, "service.hist_p50_us.open", HistogramQuantile(hist_open, 0.5),
      "us", hist_open.Count());
  row(golden, "service.hist_p50_us.ask", HistogramQuantile(hist_ask, 0.5),
      "us", hist_ask.Count());
  row(golden, "service.counters.questions_served",
      static_cast<double>(g.questions_served), "count");
  row(golden, "service.counters.labels_accepted",
      static_cast<double>(g.labels_accepted), "count");
  layers->Add("trace.residual_us.ask", residual, "us");
  layers->Add("trace.overhead_frac", overhead, "ratio");

  if (golden) {
    std::printf("per-layer (traced replay of %llu golden sessions, seed "
                "%llu):\n",
                static_cast<unsigned long long>(kTracedGoldenSessions),
                static_cast<unsigned long long>(seed));
  } else {
    std::printf("per-layer (stepped replay of %llu learner sessions, seed "
                "%llu):\n",
                static_cast<unsigned long long>(kTracedLearnSessions),
                static_cast<unsigned long long>(seed));
  }
  layers->PrintTable();
  // The waterfall of one ask: layer self medians from the innermost
  // layer out, then the queueing the loaded run adds.
  std::printf("ask p50 waterfall (us):");
  if (golden) {
    std::printf(" session %.2f + service %.2f + protocol %.2f + transport "
                "%.2f",
                g.session_self_us[1], g.service_self_us[1],
                g.protocol_self_us[0], g.transport_self_us[0]);
  } else {
    std::printf(" SelectQuestion %.2f + MarkAsked %.2f", pick_p50, mark_p50);
  }
  std::printf(" - residual %.2f = traced %.2f; + queue.wait %.2f = loaded "
              "%.2f\n",
              residual, outer_ask, loaded_ask - outer_ask, loaded_ask);
  if (!golden) return l.failures;
  // The traced service Ask span covers the same work the service's own
  // histogram times, so its median must fall in the histogram's p50
  // bucket: bucket i counts whole microseconds of bit width i, i.e.
  // durations in [2^(i-1), 2^i).
  const double service_ask = g.service_ask_span_us;
  const uint64_t traced_ask_le = g.hist_ask.QuantileUpperBoundMicros(0.5);
  const double bucket_end = static_cast<double>(traced_ask_le + 1);
  const double bucket_begin = traced_ask_le == 0 ? 0 : bucket_end / 2;
  const bool inside =
      service_ask >= bucket_begin && service_ask < bucket_end;
  std::printf("histogram check: traced service ask span p50 %.2f us %s the "
              "service histogram's p50 bucket [%.0f, %.0f) us of the same "
              "stream; loaded-run server p50 buckets: open <= %llu us, "
              "ask <= %llu us\n",
              service_ask, inside ? "lies inside" : "lies OUTSIDE",
              bucket_begin, bucket_end,
              static_cast<unsigned long long>(
                  hist_open.QuantileUpperBoundMicros(0.5)),
              static_cast<unsigned long long>(
                  hist_ask.QuantileUpperBoundMicros(0.5)));
  return g.failures;
}

int Run(const Options& options) {
  const bool golden = options.workload == "serve-direct";

  std::printf("qbench workload=%s seed=%llu seconds=%g trace=%d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace);

  // Set-up, several times: the last system stays up for the measured run.
  LoadResult totals;  // warmup and measured tallies, for attempted/failed
  std::vector<double> setups;
  ServeEnvPtr env;
  for (int i = 0; i < kSetups; ++i) {
    env.reset();
    const Clock::time_point begin = Clock::now();
    if (golden) {
      std::string error;
      env = SetupServe(options.golden_dir, options.inject == "golden-byte",
                       options.seed, &error);
      if (!env) {
        std::fprintf(stderr, "qbench: set-up failed: %s\n", error.c_str());
        return 2;
      }
      LoadResult warm = WarmupOf(env.get());
      totals.Merge(std::move(warm));
    } else {
      totals.Merge(SetupLearn(options.seed));
    }
    setups.push_back(SecondsBetween(begin, Clock::now()));
  }

  LoadResult result;
  ServerView view;
  std::vector<uint64_t> sequence_hash;
  if (golden) {
    result = RunServe(env.get(), options.seconds, &view);
  } else {
    LearnRun run = RunLearn(options.seed, options.seconds,
                            options.inject == "oracle-flip");
    result = std::move(run.result);
    sequence_hash = std::move(run.sequence_hash);
  }

  uint64_t check_failures = 0;
  std::vector<std::string> notes = result.notes;
  // The server's own counters must agree with what the clients saw.
  if (golden && view.have_counters && result.failed() == 0 &&
      (view.counters.questions_served != view.client_questions ||
       view.counters.labels_accepted != view.client_labels)) {
    ++check_failures;
    notes.push_back("server counters disagree with the clients: served " +
                    std::to_string(view.counters.questions_served) +
                    " questions, clients received " +
                    std::to_string(view.client_questions));
  }

  Report e2e;
  AddEndToEnd(result, Median(setups), &e2e);
  const double attempted =
      static_cast<double>(result.attempted + totals.attempted);
  const double failed_ops =
      static_cast<double>(result.failed() + totals.failed() + check_failures);
  std::printf("end-to-end (closed loop, %s; setup_s is the median of %d "
              "set-ups):\n",
              golden ? "2 client threads x 4 sessions each"
                     : "2 worker threads x 1 session each",
              kSetups);
  e2e.PrintTable();
  std::printf("  %-34s %16.6f %-6s  (%.0f of %.0f operations)\n",
              "ops_failed_frac", attempted > 0 ? failed_ops / attempted : 0,
              "ratio", failed_ops, attempted);

  Report layers;
  uint64_t trace_failures = 0;
  if (options.trace == 1) {
    std::vector<Golden> goldens;
    if (golden) goldens = GoldensOf(env.get());
    env.reset();  // the traced run is single-threaded: stop the load's system
    trace_failures = AddPerLayer(golden, options.seed, result, view, goldens,
                                 sequence_hash, &layers, &notes);
  }

  for (const std::string& note : notes) {
    std::fprintf(stderr, "qbench: %s\n", note.c_str());
  }
  const Report& printed = options.trace == 1 ? layers : e2e;
  const std::vector<std::string> non_finite = printed.NonFinite();
  for (const std::string& name : non_finite) {
    std::fprintf(stderr, "qbench: metric %s is not a finite number\n",
                 name.c_str());
  }
  const uint64_t failed = static_cast<uint64_t>(failed_ops) + trace_failures +
                          non_finite.size();
  const bool correct = failed == 0;
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"metrics\":{%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              printed.Json().c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace qbench

int main(int argc, char** argv) {
  qbench::Options options;
  if (!qbench::ParseOptions(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: qbench --workload <serve-direct|learn-large> "
                 "--seed N --seconds S --trace <0|1> "
                 "[--golden-dir DIR] [--inject <golden-byte|oracle-flip>]\n");
    return 2;
  }
  return qbench::Run(options);
}
