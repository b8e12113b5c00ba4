// servebench_tool — the in-process half of the serving benchmark. run.py
// drives it; README.md in this directory explains the workloads.
//
//   servebench_tool gen <specs.tsv> <out_dir>
//       Write one Verilog file per spec line "name family size seed"
//       (data::generate + rtl::to_verilog), named <out_dir>/<name>.v.
//   servebench_tool inproc <ckpt> <pool.txt> <requests.tsv> <out_dir>
//       The inproc_burst workload: InferenceEngine::submit with default
//       EngineConfig and a 64 MB EmbeddingCache, one generator thread and
//       one collector thread.
//   servebench_tool info <ckpt> <pool.txt>
//       Set up as inproc does and print the set-up times, the served
//       model's shape and the session fingerprint as JSON.
//   servebench_tool replay <ckpt> <pool.txt> <requests.tsv> <out_dir>
//                          [--resolve-ahead]
//       The traced replay: answers every request through an in-process
//       copy of a moss_serve shard (payloads for the output check), then
//       replays the same inputs through each layer's public functions with
//       spans around every call.
//
// requests.tsv lines are "phase kind design design_b due_us"; design is a
// pool token (family:size) or a .v path, design_b is "-" unless kind is
// VERIFY, due_us is the offset from the phase start (open-loop phases).
// Every time written out is steady_clock nanoseconds.

#include <algorithm>
#include <array>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cell/library.hpp"
#include "core/features.hpp"
#include "core/model.hpp"
#include "core/workflow.hpp"
#include "core_util/hash.hpp"
#include "core_util/rng.hpp"
#include "core_util/thread_pool.hpp"
#include "data/dataset.hpp"
#include "data/generators.hpp"
#include "power/power.hpp"
#include "rtl/parser.hpp"
#include "rtl/printer.hpp"
#include "rtl/prompts.hpp"
#include "sat/oracle.hpp"
#include "serve/cache.hpp"
#include "serve/engine.hpp"
#include "serve/protocol.hpp"
#include "serve/registry.hpp"
#include "sim/simulator.hpp"
#include "sta/sta.hpp"
#include "synth/synthesize.hpp"
#include "tensor/kernels.hpp"

using namespace moss;
using Clock = std::chrono::steady_clock;
using Circuit = std::shared_ptr<const data::LabeledCircuit>;

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double seconds_since(std::int64_t t0) {
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

[[noreturn]] void die(const std::string& msg) {
  std::fprintf(stderr, "servebench_tool: %s\n", msg.c_str());
  std::exit(2);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) die("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::ofstream open_out(const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) die("cannot write " + path);
  return out;
}

std::vector<std::vector<std::string>> read_tsv(const std::string& path) {
  std::vector<std::vector<std::string>> rows;
  std::istringstream in(read_file(path));
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::vector<std::string> cols;
    std::size_t b = 0;
    for (;;) {
      const std::size_t e = line.find('\t', b);
      cols.push_back(line.substr(b, e == std::string::npos ? e : e - b));
      if (e == std::string::npos) break;
      b = e + 1;
    }
    rows.push_back(std::move(cols));
  }
  return rows;
}

bool is_verilog(const std::string& token) {
  return token.size() > 2 && token.compare(token.size() - 2, 2, ".v") == 0;
}

double rss_mb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string key = std::string(field) + ":";
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) return std::atof(line.c_str() + key.size()) / 1024.0;
  }
  return 0.0;
}

// ---------------------------------------------------------------------------
// The served model. moss_serve's cli_compatible_config and spec_for are
// private to that binary, so their values are mirrored here; the output
// check against the shards (run.py) fails if the two ever diverge.
// ---------------------------------------------------------------------------

core::WorkflowConfig served_config() {
  core::WorkflowConfig cfg;
  cfg.model.hidden = 16;
  cfg.model.rounds = 1;
  cfg.dataset.sim_cycles = 400;
  cfg.encoder = {2048, 16, 9};
  cfg.fine_tune.epochs = 1;
  cfg.fine_tune.max_pairs_per_epoch = 20000;
  cfg.pretrain.epochs = 6;
  cfg.align.epochs = 6;
  return cfg;
}

data::DesignSpec pool_spec(const std::string& token, std::size_t index) {
  const auto colon = token.find(':');
  data::DesignSpec spec;
  spec.family = colon == std::string::npos ? token : token.substr(0, colon);
  spec.size_hint =
      colon == std::string::npos ? 2 : std::atoi(token.c_str() + colon + 1);
  spec.seed = 1;
  spec.name = spec.family + "_cli" + std::to_string(index);
  return spec;
}

Circuit label_verilog_file(const std::string& path,
                           const data::DatasetConfig& dcfg) {
  return std::make_shared<data::LabeledCircuit>(data::label_module(
      rtl::parse_verilog(read_file(path)), cell::standard_library(), dcfg));
}

struct PoolDesigns {
  std::vector<std::string> tokens;
  std::vector<Circuit> circuits;
};

/// Label the pool exactly as a moss_serve shard does at boot (generated
/// specs numbered in command-line order, labeled sequentially).
PoolDesigns label_pool(const std::vector<std::string>& tokens,
                       const data::DatasetConfig& dcfg) {
  PoolDesigns p;
  p.tokens = tokens;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    if (is_verilog(tokens[i])) die("pool tokens must be family:size");
    p.circuits.push_back(std::make_shared<data::LabeledCircuit>(
        data::label_circuit(pool_spec(tokens[i], i), cell::standard_library(),
                            dcfg)));
  }
  return p;
}

std::shared_ptr<const serve::MossSession> load_session(
    const core::WorkflowConfig& cfg, const PoolDesigns& pool,
    const std::string& ckpt) {
  std::vector<std::string> corpus;
  for (const Circuit& lc : pool.circuits) corpus.push_back(lc->module_text);
  return serve::MossSession::load(cfg, corpus, ckpt);
}

/// Registry + cache + engine + registered pool: one serving instance.
struct Served {
  serve::ModelRegistry registry;
  serve::EmbeddingCache cache{std::size_t{64} << 20};
  std::shared_ptr<const serve::MossSession> session;
  std::unique_ptr<serve::InferenceEngine> engine;

  Served(std::shared_ptr<const serve::MossSession> s,
         const PoolDesigns& pool, const serve::EngineConfig& ecfg)
      : session(std::move(s)) {
    registry.install("default", session);
    engine = std::make_unique<serve::InferenceEngine>(registry, &cache, ecfg);
    std::vector<std::shared_ptr<const core::CircuitBatch>> batches;
    for (const Circuit& lc : pool.circuits) {
      batches.push_back(
          std::make_shared<core::CircuitBatch>(session->build(*lc)));
    }
    engine->register_pool("pool", std::move(batches));
  }
  Served(const Served&) = delete;
  Served& operator=(const Served&) = delete;
};

/// The in-process set-up, timed: label the pool, load the session (encoder
/// fine-tune included), build and register the pool.
struct SetUp {
  PoolDesigns pool;
  std::unique_ptr<Served> served;
  double setup_s = 0, label_pool_s = 0, session_load_s = 0;
};

SetUp set_up(const core::WorkflowConfig& cfg,
             const std::vector<std::string>& pool_tokens,
             const std::string& ckpt) {
  SetUp u;
  const std::int64_t t0 = now_ns();
  u.pool = label_pool(pool_tokens, cfg.dataset);
  const std::int64_t t1 = now_ns();
  auto session = load_session(cfg, u.pool, ckpt);
  const std::int64_t t2 = now_ns();
  u.served = std::make_unique<Served>(std::move(session), u.pool,
                                      serve::EngineConfig{});
  u.setup_s = seconds_since(t0);
  u.label_pool_s = static_cast<double>(t1 - t0) * 1e-9;
  u.session_load_s = static_cast<double>(t2 - t1) * 1e-9;
  return u;
}

std::string set_up_json(const SetUp& u) {
  const auto& c = u.served->session->config();
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "\"setup_s\":%.6f,\"label_pool_s\":%.6f,"
                "\"session_load_s\":%.6f,\"hidden\":%zu,\"rounds\":%d,"
                "\"pool_size\":%zu",
                u.setup_s, u.label_pool_s, u.session_load_s, c.hidden, c.rounds,
                u.pool.tokens.size());
  return buf;
}

std::vector<std::string> read_pool_tokens(const std::string& path) {
  std::vector<std::string> tokens;
  for (const auto& row : read_tsv(path)) tokens.push_back(row.at(0));
  if (tokens.size() < 2) die("pool needs at least two designs");
  return tokens;
}

struct Line {
  std::string phase;
  std::string kind;
  std::string design;
  std::string design_b;
  std::int64_t due_ns = 0;
};

std::vector<Line> read_requests(const std::string& path) {
  std::vector<Line> lines;
  for (const auto& row : read_tsv(path)) {
    if (row.size() != 5) die("requests.tsv lines need 5 columns");
    lines.push_back(Line{row[0], row[1], row[2], row[3],
                         std::atoll(row[4].c_str()) * 1000});
  }
  return lines;
}

serve::RequestKind kind_of(const std::string& kind) {
  if (kind == "ATP") return serve::RequestKind::kAtp;
  if (kind == "TRP") return serve::RequestKind::kTrpPp;
  if (kind == "EMBED") return serve::RequestKind::kEmbed;
  if (kind == "RANK") return serve::RequestKind::kFepRank;
  die("unknown request kind " + kind);
}

/// The response line of serve::ProtocolHandler without its latency_us
/// field, built from an engine Response (same printf formats).
std::string payload_of(const serve::Response& r) {
  char buf[160];
  std::string out;
  switch (r.kind) {
    case serve::RequestKind::kAtp:
      std::snprintf(buf, sizeof(buf), "OK ATP n=%zu", r.values.size());
      out = buf;
      for (const double v : r.values) {
        std::snprintf(buf, sizeof(buf), " %.1f", v);
        out += buf;
      }
      break;
    case serve::RequestKind::kTrpPp: {
      double mean = 0.0;
      for (const double v : r.values) mean += v;
      if (!r.values.empty()) mean /= static_cast<double>(r.values.size());
      std::snprintf(buf, sizeof(buf),
                    "OK TRP n=%zu mean_toggle=%.4f power_uw=%.2f",
                    r.values.size(), mean, r.power_uw);
      out = buf;
      break;
    }
    case serve::RequestKind::kEmbed: {
      std::snprintf(buf, sizeof(buf), "OK EMBED dim=%zu", r.embedding.size());
      out = buf;
      const std::size_t show = std::min<std::size_t>(8, r.embedding.size());
      for (std::size_t i = 0; i < show; ++i) {
        std::snprintf(buf, sizeof(buf), " %.4f",
                      static_cast<double>(r.embedding[i]));
        out += buf;
      }
      break;
    }
    case serve::RequestKind::kFepRank: {
      if (r.ranking.empty()) return "ERR internal empty ranking";
      std::snprintf(buf, sizeof(buf), "OK RANK pool=%zu top=%s score=%.4f",
                    r.ranking.size(), r.ranking[0].name.c_str(),
                    static_cast<double>(r.ranking[0].score));
      out = buf;
      const std::size_t show = std::min<std::size_t>(3, r.ranking.size());
      for (std::size_t i = 0; i < show; ++i) {
        std::snprintf(buf, sizeof(buf), " %zu:%s:%.4f", i + 1,
                      r.ranking[i].name.c_str(),
                      static_cast<double>(r.ranking[i].score));
        out += buf;
      }
      break;
    }
    case serve::RequestKind::kVerify:
      return "ERR bad_request VERIFY is not part of this workload";
  }
  if (r.degraded) out += " degraded=1";
  return out;
}

std::string one_line(std::string s) {
  std::replace(s.begin(), s.end(), '\n', ' ');
  std::replace(s.begin(), s.end(), '\t', ' ');
  return s;
}

// ---------------------------------------------------------------------------
// gen
// ---------------------------------------------------------------------------

int cmd_gen(const std::string& specs_path, const std::string& out_dir) {
  for (const auto& row : read_tsv(specs_path)) {
    if (row.size() != 4) die("specs.tsv lines need 4 columns");
    data::DesignSpec spec;
    spec.name = row[0];
    spec.family = row[1];
    spec.size_hint = std::atoi(row[2].c_str());
    spec.seed = std::strtoull(row[3].c_str(), nullptr, 10);
    open_out(out_dir + "/" + spec.name + ".v")
        << rtl::to_verilog(data::generate(spec));
  }
  return 0;
}

// ---------------------------------------------------------------------------
// inproc
// ---------------------------------------------------------------------------

struct EngineCounters {
  double batches = 0, batched = 0, fused_batches = 0, fused_units = 0,
         shed = 0, rejected = 0, errors = 0;
  double hits = 0, misses = 0, inserts = 0, evictions = 0;
};

EngineCounters counters(serve::InferenceEngine& engine) {
  const serve::MetricsSnapshot s = engine.metrics().snapshot();
  const serve::CacheStats c = engine.cache()->stats();
  EngineCounters e;
  e.batches = static_cast<double>(s.batches);
  e.batched = s.mean_batch_size * static_cast<double>(s.batches);
  e.fused_batches = static_cast<double>(s.fused_batches);
  for (std::size_t i = 0; i < s.fused_occupancy.size(); ++i) {
    e.fused_units += static_cast<double>(s.fused_occupancy[i] * (i + 1));
  }
  e.shed = static_cast<double>(s.shed);
  e.rejected = static_cast<double>(s.rejected);
  e.errors = static_cast<double>(s.total_errors);
  e.hits = static_cast<double>(c.hits);
  e.misses = static_cast<double>(c.misses);
  e.inserts = static_cast<double>(c.inserts);
  e.evictions = static_cast<double>(c.evictions);
  return e;
}

std::string counters_json(const EngineCounters& a, const EngineCounters& b) {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "{\"batches\":%.0f,\"batched_requests\":%.0f,\"fused_batches\":%.0f,"
      "\"fused_units\":%.0f,\"shed\":%.0f,\"rejected\":%.0f,"
      "\"errors\":%.0f,\"cache_hits\":%.0f,\"cache_misses\":%.0f,"
      "\"cache_inserts\":%.0f,\"cache_evictions\":%.0f}",
      b.batches - a.batches, b.batched - a.batched,
      b.fused_batches - a.fused_batches, b.fused_units - a.fused_units,
      b.shed - a.shed, b.rejected - a.rejected, b.errors - a.errors,
      b.hits - a.hits, b.misses - a.misses, b.inserts - a.inserts,
      b.evictions - a.evictions);
  return buf;
}

struct Record {
  std::int64_t due = 0, submit = 0, done = 0;
  double latency_us = 0.0;
  bool ok = false;
  std::string payload;
};

/// One phase of inproc traffic. window == 0: open loop, each request
/// submitted at its due time. window > 0: saturation, `window` requests
/// kept outstanding. The calling thread generates; one collector thread
/// resolves the futures.
std::vector<Record> run_phase(serve::InferenceEngine& engine,
                              const std::vector<serve::Request>& reqs,
                              const std::vector<std::int64_t>& due,
                              std::size_t window) {
  struct Item {
    std::size_t idx;
    std::optional<std::future<serve::Response>> fut;
    std::string error;
  };
  std::vector<Record> recs(reqs.size());
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Item> items;
  std::size_t outstanding = 0;
  bool done_submitting = false;

  auto settle = [&](Item& it) {
    Record& r = recs[it.idx];
    if (it.fut) {
      try {
        const serve::Response resp = it.fut->get();
        r.done = now_ns();
        r.latency_us = resp.latency_us;
        r.payload = payload_of(resp);
        r.ok = r.payload.rfind("OK ", 0) == 0;
      } catch (const std::exception& e) {
        r.done = now_ns();
        r.payload = one_line(std::string("ERR ") + e.what());
      }
    } else {
      r.done = now_ns();
      r.payload = one_line("ERR " + it.error);
    }
    {
      const std::lock_guard<std::mutex> lock(mu);
      --outstanding;
    }
    cv.notify_all();
  };
  // Futures complete out of submission order (fused groups of different
  // kinds run in parallel), so the collector polls every outstanding one
  // and sleeps at most 100 us on the oldest between sweeps.
  std::thread collector([&] {
    std::vector<Item> pending;
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mu);
        if (pending.empty()) {
          cv.wait(lock, [&] { return !items.empty() || done_submitting; });
        }
        for (; !items.empty(); items.pop_front()) {
          pending.push_back(std::move(items.front()));
        }
        if (pending.empty()) return;  // done_submitting and drained
      }
      bool progressed = false;
      for (auto it = pending.begin(); it != pending.end();) {
        if (!it->fut || it->fut->wait_for(std::chrono::seconds(0)) ==
                            std::future_status::ready) {
          settle(*it);
          it = pending.erase(it);
          progressed = true;
        } else {
          ++it;
        }
      }
      if (!progressed && !pending.empty()) {
        pending.front().fut->wait_for(std::chrono::microseconds(100));
      }
    }
  });

  const std::int64_t t0 = now_ns() + 20'000'000;  // start 20 ms from now
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    if (window == 0) {
      recs[i].due = t0 + due[i];
      std::this_thread::sleep_until(
          Clock::time_point(std::chrono::nanoseconds(recs[i].due)));
    } else {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return outstanding < window; });
    }
    Item it{i, std::nullopt, {}};
    recs[i].submit = now_ns();
    if (window > 0) recs[i].due = recs[i].submit;
    try {
      it.fut = engine.submit(reqs[i]);
    } catch (const std::exception& e) {
      it.error = e.what();
    }
    {
      const std::lock_guard<std::mutex> lock(mu);
      ++outstanding;
      items.push_back(std::move(it));
    }
    cv.notify_all();
  }
  {
    const std::lock_guard<std::mutex> lock(mu);
    done_submitting = true;
  }
  cv.notify_all();
  collector.join();
  return recs;
}

int cmd_inproc(const std::string& ckpt, const std::string& pool_path,
               const std::string& req_path, const std::string& out_dir) {
  const core::WorkflowConfig cfg = served_config();
  const std::vector<std::string> pool_tokens = read_pool_tokens(pool_path);
  const std::vector<Line> lines = read_requests(req_path);

  // Inputs, prepared before anything is timed: circuits for EMBED/ATP are
  // labeled ahead of time, RANK gets the module prompt of new RTL.
  std::vector<std::string> vfiles;
  std::unordered_map<std::string, std::size_t> vindex;
  std::vector<char> needs_label;
  for (const Line& l : lines) {
    if (!is_verilog(l.design)) continue;
    auto [it, fresh] = vindex.emplace(l.design, vfiles.size());
    if (fresh) {
      vfiles.push_back(l.design);
      needs_label.push_back(0);
    }
    if (l.kind != "RANK") needs_label[it->second] = 1;
  }
  struct Prepared {
    Circuit circuit;
    std::string prompt;
  };
  ThreadPool prep_pool(0);
  const std::vector<Prepared> prepared =
      prep_pool.parallel_map(vfiles.size(), [&](std::size_t i) {
        Prepared p;
        rtl::Module m = rtl::parse_verilog(read_file(vfiles[i]));
        p.prompt = rtl::module_prompt(m);
        if (needs_label[i]) {
          p.circuit = std::make_shared<data::LabeledCircuit>(data::label_module(
              std::move(m), cell::standard_library(), cfg.dataset));
        }
        return p;
      });
  const double rss_base = rss_mb("VmRSS");

  const SetUp setup = set_up(cfg, pool_tokens, ckpt);
  const PoolDesigns& pool = setup.pool;
  std::unordered_map<std::string, std::size_t> pool_index;
  for (std::size_t i = 0; i < pool.tokens.size(); ++i) {
    pool_index[pool.tokens[i]] = i;
  }
  serve::InferenceEngine& engine = *setup.served->engine;

  auto request_for = [&](const Line& l) {
    serve::Request req;
    req.kind = kind_of(l.kind);
    Circuit lc;
    std::string prompt;
    if (is_verilog(l.design)) {
      const Prepared& p = prepared[vindex.at(l.design)];
      lc = p.circuit;
      prompt = p.prompt;
    } else {
      const auto it = pool_index.find(l.design);
      if (it == pool_index.end()) die("unknown pool design " + l.design);
      lc = pool.circuits[it->second];
      prompt = lc->module_text;
    }
    if (req.kind == serve::RequestKind::kFepRank) {
      req.rtl_text = prompt;
      req.pool = "pool";
    } else {
      req.circuit = lc;
    }
    return req;
  };

  std::ofstream rec_out = open_out(out_dir + "/records.tsv");
  std::string phases_json;
  double rss_peak = rss_mb("VmRSS");
  for (const std::string phase : {"warm", "open", "capacity"}) {
    std::vector<serve::Request> reqs;
    std::vector<std::int64_t> due;
    std::vector<const Line*> src;
    for (const Line& l : lines) {
      if (l.phase != phase) continue;
      reqs.push_back(request_for(l));
      due.push_back(l.due_ns);
      src.push_back(&l);
    }
    if (reqs.empty()) continue;
    const EngineCounters before = counters(engine);
    std::vector<Record> recs;
    const std::int64_t t0 = now_ns();
    if (phase == "warm") {
      // Sequential, like the socket warm-up: one request at a time.
      for (const serve::Request& req : reqs) {
        Record r;
        r.due = r.submit = now_ns();
        try {
          const serve::Response resp = engine.call(req);
          r.latency_us = resp.latency_us;
          r.payload = payload_of(resp);
          r.ok = r.payload.rfind("OK ", 0) == 0;
        } catch (const std::exception& e) {
          r.payload = one_line(std::string("ERR ") + e.what());
        }
        r.done = now_ns();
        recs.push_back(std::move(r));
      }
    } else {
      recs = run_phase(engine, reqs, due, phase == "capacity" ? 32 : 0);
    }
    const double wall_s = seconds_since(t0);
    const EngineCounters after = counters(engine);
    rss_peak = std::max(rss_peak, rss_mb("VmRSS"));
    for (std::size_t i = 0; i < recs.size(); ++i) {
      const Record& r = recs[i];
      rec_out << phase << '\t' << i << '\t' << src[i]->kind << '\t'
              << src[i]->design << '\t' << r.due << '\t' << r.submit << '\t'
              << r.done << '\t' << r.latency_us << '\t' << (r.ok ? 1 : 0)
              << '\t' << r.payload << '\n';
    }
    char buf[96];
    std::snprintf(buf, sizeof(buf), "\"%s\":{\"wall_s\":%.6f,\"engine\":",
                  phase.c_str(), wall_s);
    phases_json += (phases_json.empty() ? "" : ",") + std::string(buf) +
                   counters_json(before, after) + "}";
  }
  rec_out.close();

  char buf[96];
  std::snprintf(buf, sizeof(buf), "\"rss_base_mb\":%.3f,\"rss_peak_mb\":%.3f,",
                rss_base, rss_peak);
  open_out(out_dir + "/summary.json")
      << "{" << buf << set_up_json(setup) << ",\"phases\":{" << phases_json
      << "}}\n";
  return 0;
}

// ---------------------------------------------------------------------------
// replay
// ---------------------------------------------------------------------------

/// In-memory span recorder: spans nest by call order on one thread and are
/// written out once, after the replay.
class Tracer {
 public:
  struct Span {
    int id, parent;
    long rid;
    std::string phase, name;
    std::int64_t start, end = 0;
  };
  int open(const std::string& name, long rid, const std::string& phase) {
    const int id = static_cast<int>(spans_.size());
    spans_.push_back(Span{id, stack_.empty() ? -1 : stack_.back(), rid, phase,
                          name, now_ns()});
    stack_.push_back(id);
    return id;
  }
  void close(int id) {
    spans_[static_cast<std::size_t>(id)].end = now_ns();
    stack_.pop_back();
  }
  void write(const std::string& path) const {
    std::ofstream out = open_out(path);
    for (const Span& s : spans_) {
      out << s.id << '\t' << s.parent << '\t' << s.rid << '\t' << s.phase
          << '\t' << s.name << '\t' << s.start << '\t' << s.end << '\n';
    }
  }

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class SpanGuard {
 public:
  SpanGuard(Tracer& t, const std::string& name, long rid,
            const std::string& phase)
      : t_(t), id_(t.open(name, rid, phase)) {}
  ~SpanGuard() { t_.close(id_); }
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

 private:
  Tracer& t_;
  int id_;
};

/// GEMM shapes of one propagation: (M, K, N) per call of gnn::TwoPhaseGnn.
using GemmShapes = std::vector<std::array<std::size_t, 3>>;

GemmShapes gnn_gemm_shapes(const core::CircuitBatch& b, std::size_t d,
                           int rounds) {
  GemmShapes s;
  s.push_back({b.graph.num_nodes, b.graph.features.cols(), d});  // input proj
  for (int r = 0; r < rounds; ++r) {
    for (const auto* steps : {&b.graph.forward_steps, &b.graph.turnaround_steps}) {
      for (const gnn::UpdateStep& step : *steps) {
        for (const gnn::UpdateGroup& g : step.groups) {
          const std::size_t e = g.edge_src.size(), n = g.nodes.size();
          s.push_back({e, d, d});  // messages
          s.push_back({e, d, 1});  // attention, message side
          s.push_back({e, d, 1});  // attention, destination side
          s.push_back({n, d, d});  // self update
        }
      }
    }
  }
  return s;
}

double gemm_flops(const GemmShapes& shapes) {
  double f = 0.0;
  for (const auto& s : shapes) f += 2.0 * static_cast<double>(s[0] * s[1] * s[2]);
  return f;
}

/// Time tensor::kernels::gemm on the recorded shapes; returns seconds.
double time_gemms(const std::vector<GemmShapes>& runs) {
  Rng rng(7);
  std::vector<float> a, b, c;
  double total = 0.0;
  for (const GemmShapes& shapes : runs) {
    for (const auto& s : shapes) {
      a.resize(std::max<std::size_t>(1, s[0] * s[1]));
      b.resize(std::max<std::size_t>(1, s[1] * s[2]));
      c.assign(std::max<std::size_t>(1, s[0] * s[2]), 0.0f);
      for (float& x : a) x = static_cast<float>(rng.uniform()) - 0.5f;
      for (float& x : b) x = static_cast<float>(rng.uniform()) - 0.5f;
      const std::int64_t t0 = now_ns();
      tensor::kernels::gemm(s[0], s[1], s[2], a.data(), b.data(), c.data());
      total += static_cast<double>(now_ns() - t0) * 1e-9;
    }
  }
  return total;
}

int cmd_replay(const std::string& ckpt, const std::string& pool_path,
               const std::string& req_path, const std::string& out_dir,
               bool resolve_ahead) {
  const core::WorkflowConfig cfg = served_config();
  const data::DatasetConfig& dcfg = cfg.dataset;
  const cell::CellLibrary& lib = cell::standard_library();
  const std::vector<std::string> pool_tokens = read_pool_tokens(pool_path);
  const std::vector<Line> lines = read_requests(req_path);

  // Boot, as a shard does: label the pool, then load the session.
  std::int64_t t0 = now_ns();
  const PoolDesigns pool = label_pool(pool_tokens, dcfg);
  const double label_pool_s = seconds_since(t0);
  t0 = now_ns();
  const auto session = load_session(cfg, pool, ckpt);
  const double session_load_s = seconds_since(t0);
  const core::MossModel& model = session->model();

  // 1. Payloads from an in-process copy of a moss_serve shard: the engine
  //    config the shards moss_cluster spawns get, without the batching
  //    delay (answers do not depend on batching), and the same loader.
  {
    serve::EngineConfig ecfg;
    ecfg.allow_stale = true;
    ecfg.max_delay_ms = 0;
    Served shard(session, pool, ecfg);
    serve::ProtocolConfig pcfg;
    pcfg.retry.max_attempts = 3;
    pcfg.retry_budget = std::make_shared<serve::RetryBudget>();
    std::map<std::string, Circuit> boot;
    for (std::size_t i = 0; i < pool.tokens.size(); ++i) {
      boot[pool.tokens[i]] = pool.circuits[i];
    }
    pcfg.load_design = [&boot, &dcfg](const std::string& token) -> Circuit {
      const auto it = boot.find(token);
      if (it != boot.end()) return it->second;
      return label_verilog_file(token, dcfg);
    };
    serve::ProtocolHandler handler(*shard.engine, pcfg);
    std::ofstream out = open_out(out_dir + "/payloads.tsv");
    for (const Line& l : lines) {
      if (l.kind == "VERIFY") continue;
      out << l.kind << '\t' << l.design << '\t'
          << one_line(handler.handle_line(l.kind + " " + l.design, nullptr))
          << '\n';
    }
  }

  // 2. Layer replay through each layer's public functions, with spans.
  Tracer tr;
  tensor::kernels::ScratchArena arena;
  const tensor::kernels::ScratchArena::Scope scope(arena);
  std::map<std::string, Circuit> resolved;
  std::map<std::string, std::string> prompts;
  std::vector<GemmShapes> gemm_runs;
  std::ofstream gnn_out = open_out(out_dir + "/gnn.tsv");
  const std::size_t d = model.config().hidden;
  const int rounds = model.config().rounds;

  // Design resolution broken into its steps through their public functions
  // (the same calls label_module makes), under a root of its own. The
  // per-call medians need a sample, not every design.
  std::size_t breakdowns = 0;
  auto breakdown = [&](const rtl::Module& m, long rid,
                       const std::string& phase) {
    if (++breakdowns > 256) return;
    SpanGuard root(tr, "resolve.breakdown", rid, phase);
    netlist::Netlist nl(lib);
    {
      SpanGuard s(tr, "synth.synthesize", rid, phase);
      nl = synth::synthesize(m, lib);
    }
    sim::ActivityReport act;
    {
      SpanGuard s(tr, "sim.activity", rid, phase);
      Rng rng(dcfg.seed ^ fnv1a64(nl.name()));
      act = sim::random_activity(nl, dcfg.sim_cycles, rng, dcfg.input_one_prob);
    }
    {
      SpanGuard s(tr, "sta.timing", rid, phase);
      const sta::TimingAnalysis ta(nl);
      (void)ta.all_flop_arrivals();
    }
    {
      SpanGuard s(tr, "power.analyze", rid, phase);
      (void)power::analyze_power(nl, act.toggle);
    }
    {
      SpanGuard s(tr, "sat.label_proof", rid, phase);
      sat::OracleConfig ocfg;
      ocfg.seed = dcfg.seed;
      ocfg.conflict_budget = dcfg.oracle_conflict_budget;
      ocfg.max_frames = dcfg.oracle_max_frames;
      (void)sat::EquivOracle(ocfg).check(m, nl);
    }
  };
  // Parse + label one .v file (timed), then its breakdown.
  auto resolve_file = [&](const std::string& path, long rid,
                          const std::string& phase, bool label) {
    const std::string text = read_file(path);
    rtl::Module m;
    {
      SpanGuard s(tr, "rtl.parse", rid, phase);
      m = rtl::parse_verilog(text);
    }
    prompts[path] = rtl::module_prompt(m);
    if (!label) return;
    {
      SpanGuard s(tr, "data.label_module", rid, phase);
      resolved[path] = std::make_shared<data::LabeledCircuit>(
          data::label_module(m, lib, dcfg));
    }
    breakdown(m, rid, phase);
  };

  // The pool: every workload resolves it at shard boot.
  for (std::size_t i = 0; i < pool.tokens.size(); ++i) {
    const long rid = -1 - static_cast<long>(i);
    const rtl::Module gen = data::generate(pool_spec(pool.tokens[i], i));
    {
      SpanGuard s(tr, "rtl.parse", rid, "boot");
      (void)rtl::parse_verilog(rtl::to_verilog(gen));
    }
    {
      SpanGuard s(tr, "data.label_module", rid, "boot");
      (void)data::label_module(gen, lib, dcfg);
    }
    breakdown(gen, rid, "boot");
    resolved[pool.tokens[i]] = pool.circuits[i];
    prompts[pool.tokens[i]] = pool.circuits[i]->module_text;
  }
  std::vector<std::shared_ptr<const core::CircuitBatch>> pool_batches;
  for (const Circuit& lc : pool.circuits) {
    pool_batches.push_back(
        std::make_shared<core::CircuitBatch>(session->build(*lc)));
  }

  if (resolve_ahead) {
    // inproc_burst labels its EMBED/ATP circuits before traffic starts and
    // sends RANK as RTL text, so no request pays for resolution.
    long rid = 0;
    for (const Line& l : lines) {
      const bool label = l.kind != "RANK";
      if (is_verilog(l.design) &&
          (!prompts.count(l.design) || (label && !resolved.count(l.design)))) {
        resolve_file(l.design, rid++, "prep", label);
      }
    }
  }

  // Embedding caches keyed like the engine's: a layer runs (and gets a
  // span) exactly when the shard's EmbeddingCache would have missed.
  std::unordered_map<std::uint64_t, tensor::Tensor> node_cache, netlist_cache;
  std::unordered_map<std::string, tensor::Tensor> rtl_cache;
  auto node_emb = [&](const core::CircuitBatch& b, std::uint64_t h, long rid,
                      const std::string& phase) {
    const auto it = node_cache.find(h);
    if (it != node_cache.end()) return it->second;
    tensor::Tensor t;
    {
      SpanGuard s(tr, "gnn.propagate", rid, phase);
      t = model.node_embeddings(b).detach();
    }
    GemmShapes shapes = gnn_gemm_shapes(b, d, rounds);
    gnn_out << rid << '\t' << phase << '\t' << b.graph.num_nodes << '\t'
            << gemm_flops(shapes) << '\n';
    if (gemm_runs.size() < 64) gemm_runs.push_back(std::move(shapes));
    return node_cache[h] = t;
  };
  auto netlist_emb = [&](const core::CircuitBatch& b, std::uint64_t h,
                         long rid, const std::string& phase) {
    const auto it = netlist_cache.find(h);
    if (it != netlist_cache.end()) return it->second;
    const tensor::Tensor nh = node_emb(b, h, rid, phase);
    SpanGuard s(tr, "core.heads", rid, phase);
    return netlist_cache[h] = model.netlist_embedding(b, nh).detach();
  };
  auto rtl_emb = [&](const std::string& text, long rid,
                     const std::string& phase) {
    const auto it = rtl_cache.find(text);
    if (it != rtl_cache.end()) return it->second;
    SpanGuard s(tr, "lm.rtl_embedding", rid, phase);
    return rtl_cache[text] = model.rtl_embedding(text).detach();
  };
  std::vector<std::uint64_t> pool_hashes;
  for (const auto& b : pool_batches) pool_hashes.push_back(core::content_hash(*b));

  std::map<std::string, long> rid_in_phase;
  for (const Line& l : lines) {
    const long rid = rid_in_phase[l.phase]++;
    if (l.kind == "VERIFY") {
      auto circuit = [&](const std::string& token) {
        if (!resolved.count(token)) resolve_file(token, rid, "verify_prep", true);
        return resolved.at(token);
      };
      const Circuit a = circuit(l.design), b = circuit(l.design_b);
      SpanGuard s(tr, "sat.verify", rid, l.phase);
      sat::OracleConfig ocfg;  // the engine's VERIFY defaults
      ocfg.seed = 1;
      ocfg.conflict_budget = 50000;
      ocfg.max_frames = 8;
      (void)sat::EquivOracle(ocfg).check(a->netlist, b->netlist);
      continue;
    }
    SpanGuard root(tr, "replay.request", rid, l.phase);
    const serve::RequestKind kind = kind_of(l.kind);
    if (!prompts.count(l.design)) {
      if (!is_verilog(l.design)) die("unknown pool design " + l.design);
      resolve_file(l.design, rid, l.phase, true);  // the shard labels on demand
    }
    if (kind == serve::RequestKind::kFepRank) {
      const tensor::Tensor r_e = rtl_emb(prompts.at(l.design), rid, l.phase);
      std::vector<tensor::Tensor> n_e;
      for (std::size_t j = 0; j < pool_batches.size(); ++j) {
        n_e.push_back(netlist_emb(*pool_batches[j], pool_hashes[j], rid, l.phase));
      }
      SpanGuard s(tr, "core.rank_score", rid, l.phase);
      std::vector<float> scores;
      for (const tensor::Tensor& n : n_e) scores.push_back(model.pair_score(r_e, n));
      std::sort(scores.begin(), scores.end());
      continue;
    }
    const auto lc_it = resolved.find(l.design);
    if (lc_it == resolved.end()) die("design was never labeled: " + l.design);
    const data::LabeledCircuit& lc = *lc_it->second;
    std::shared_ptr<core::CircuitBatch> batch;
    std::uint64_t h = 0;
    {
      SpanGuard s(tr, "core.build_batch", rid, l.phase);
      batch = std::make_shared<core::CircuitBatch>(session->build(lc));
      h = core::content_hash(*batch);
    }
    if (kind == serve::RequestKind::kEmbed) {
      (void)netlist_emb(*batch, h, rid, l.phase);
      (void)rtl_emb(batch->module_text, rid, l.phase);
      continue;
    }
    const tensor::Tensor nh = node_emb(*batch, h, rid, l.phase);
    if (kind == serve::RequestKind::kAtp) {
      SpanGuard s(tr, "core.heads", rid, l.phase);
      (void)model.predict_arrival(*batch, nh, batch->flop_rows);
      continue;
    }
    core::LocalPredictions pred;
    {
      SpanGuard s(tr, "core.heads", rid, l.phase);
      pred = model.predict_local(*batch, nh);
    }
    SpanGuard s(tr, "power.analyze", rid, l.phase);
    std::vector<double> rates(lc.netlist.num_nodes(), 0.0);
    for (std::size_t i = 0; i < batch->cell_rows.size(); ++i) {
      rates[static_cast<std::size_t>(batch->cell_rows[i])] =
          static_cast<double>(pred.toggle.at(i, 0));
    }
    (void)power::analyze_power(lc.netlist, rates);
  }
  tr.write(out_dir + "/spans.tsv");

  const double gemm_s = time_gemms(gemm_runs);
  double timed_flops = 0.0;
  for (const GemmShapes& s : gemm_runs) timed_flops += gemm_flops(s);
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"label_pool_s\":%.6f,\"session_load_s\":%.6f,"
                "\"hidden\":%zu,\"rounds\":%d,\"gemm_timed_flops\":%.0f,"
                "\"gemm_timed_s\":%.9f}\n",
                label_pool_s, session_load_s, d, rounds, timed_flops, gemm_s);
  open_out(out_dir + "/summary.json") << buf;
  return 0;
}

int cmd_info(const std::string& ckpt, const std::string& pool_path) {
  const SetUp setup = set_up(served_config(), read_pool_tokens(pool_path), ckpt);
  std::printf("{%s,\"fingerprint\":\"%016llx\"}\n", set_up_json(setup).c_str(),
              static_cast<unsigned long long>(
                  setup.served->session->fingerprint()));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> a(argv + 1, argv + argc);
  try {
    if (a.size() == 3 && a[0] == "gen") return cmd_gen(a[1], a[2]);
    if (a.size() == 3 && a[0] == "info") return cmd_info(a[1], a[2]);
    if (a.size() == 5 && a[0] == "inproc") {
      return cmd_inproc(a[1], a[2], a[3], a[4]);
    }
    if ((a.size() == 5 || a.size() == 6) && a[0] == "replay") {
      const bool ahead = a.size() == 6 && a[5] == "--resolve-ahead";
      if (a.size() == 6 && !ahead) die("unknown replay option " + a[5]);
      return cmd_replay(a[1], a[2], a[3], a[4], ahead);
    }
  } catch (const std::exception& e) {
    die(e.what());
  }
  std::fputs(
      "usage: servebench_tool gen <specs.tsv> <out_dir>\n"
      "       servebench_tool inproc <ckpt> <pool.txt> <requests.tsv> "
      "<out_dir>\n"
      "       servebench_tool info <ckpt> <pool.txt>\n"
      "       servebench_tool replay <ckpt> <pool.txt> <requests.tsv> "
      "<out_dir> [--resolve-ahead]\n",
      stderr);
  return 2;
}
