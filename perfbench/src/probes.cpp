#include "probes.hpp"

#include <filesystem>
#include <optional>
#include <set>

#include "constraint/miner.hpp"
#include "constraint/propagate.hpp"
#include "dddl/parser.hpp"
#include "dddl/writer.hpp"
#include "dpm/operation_io.hpp"
#include "gen/generator.hpp"
#include "gen/presets.hpp"
#include "gen/registry.hpp"
#include "net/frame.hpp"
#include "net/protocol.hpp"
#include "service/store.hpp"
#include "stats.hpp"
#include "teamsim/client.hpp"
#include "util/json.hpp"

namespace perfbench {

namespace {

using namespace adpm;
namespace json = util::json;

template <typename F>
double timeMs(F&& fn) {
  const auto t0 = Clock::now();
  fn();
  return msBetween(t0, Clock::now());
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

}  // namespace

std::set<std::string> designerSeats(const dpm::ScenarioSpec& spec) {
  std::set<std::string> out;
  for (const dpm::ScenarioSpec::Prob& p : spec.problems) {
    if (!p.owner.empty()) out.insert(p.owner);
  }
  return out;
}

void reportOpTimings(const OpTimings& timings, Report& out) {
  out.addLatency("teamsim.propose", timings.proposeUs, {0.5}, "us");
  out.addLatency("dpm.execute", timings.executeMs, {0.5, 0.9});
  out.add("dpm.evals_per_op",
          static_cast<double>(timings.evaluations) /
              static_cast<double>(timings.executeMs.size()),
          "count");
}

void runEngineProbes(const EngineSample& sample, Tracer& tracer, Report& out) {
  if (sample.states.empty()) throw std::runtime_error("no sampled states");
  std::vector<double> exportMs, restoreMs, propagateMs, mineMs;
  std::size_t revises = 0;
  std::size_t passes = 0;
  std::size_t whatIf = 0;
  for (const dpm::ManagerState& state : sample.states) {
    dpm::DesignProcessManager m(sample.options);
    dpm::instantiate(sample.spec, m);
    restoreMs.push_back(timeMs([&] {
      Tracer::Span span(tracer, "dpm.restore");
      m.restoreState(state);
    }));
    exportMs.push_back(timeMs([&] {
      Tracer::Span span(tracer, "dpm.export");
      (void)m.exportState();
    }));
    const constraint::Propagator propagator(sample.options.dcm.propagation);
    constraint::PropagationResult prop;
    propagateMs.push_back(timeMs([&] {
      Tracer::Span span(tracer, "constraint.propagate");
      prop = propagator.run(m.network());
    }));
    revises += prop.evaluations;
    passes += prop.passes;
    const constraint::HeuristicMiner miner(sample.options.dcm.miner);
    mineMs.push_back(timeMs([&] {
      Tracer::Span span(tracer, "constraint.mine");
      whatIf += miner.mine(m.network(), prop).extraEvaluations;
    }));
  }
  const double runs = static_cast<double>(sample.states.size());
  out.add("dpm.export_ms", median(exportMs), "ms", exportMs.size());
  out.add("dpm.restore_ms", median(restoreMs), "ms", restoreMs.size());
  out.add("constraint.propagate_ms", median(propagateMs), "ms",
          propagateMs.size());
  out.add("constraint.revises_per_run", static_cast<double>(revises) / runs,
          "count");
  out.add("constraint.passes_per_run", static_cast<double>(passes) / runs,
          "count");
  out.add("constraint.mine_ms", median(mineMs), "ms", mineMs.size());
  out.add("constraint.whatif_evals_per_mine",
          static_cast<double>(whatIf) / runs, "count");
  out.add("constraint.whatif_share",
          static_cast<double>(whatIf) / static_cast<double>(whatIf + revises),
          "ratio");
  out.add("expr.ns_per_revise",
          sum(propagateMs) * 1e6 / static_cast<double>(revises), "ns");
}

std::uint64_t sensingSessionSeed(std::uint64_t seed, std::size_t conn,
                                 std::size_t index) {
  return deriveSeed(seed, 1000000 + conn * 100000 + index);
}

std::vector<dpm::Operation> driveTeam(const dpm::ScenarioSpec& spec,
                                     const teamsim::SimulationOptions& sim,
                                     OpTimings* timings,
                                     std::vector<dpm::ManagerState>* states) {
  dpm::DesignProcessManager m(sim.managerOptions());
  dpm::instantiate(spec, m);
  m.bootstrap();
  teamsim::TeamClient team(m, sim);
  std::vector<dpm::Operation> ops;
  while (ops.size() < sim.maxOperations && !m.designComplete()) {
    const auto p0 = Clock::now();
    std::optional<dpm::Operation> op = team.propose(m);
    const auto p1 = Clock::now();
    if (!op) break;
    ops.push_back(*op);
    const auto result = m.execute(std::move(*op));
    const auto e1 = Clock::now();
    team.observe(m, result.record);
    if (timings != nullptr) {
      timings->proposeUs.push_back(msBetween(p0, p1) * 1000.0);
      timings->executeMs.push_back(msBetween(p1, e1));
      timings->evaluations += result.record.evaluations;
    }
    if (states != nullptr && ops.size() % 3 == 0) {
      states->push_back(m.exportState());
    }
  }
  return ops;
}

SensingStreams recordSensingStreams(std::uint64_t seed, std::size_t sessions) {
  SensingStreams out;
  out.dddl = dddl::write(gen::scenarioByName("sensing"));
  const dpm::ScenarioSpec spec = dddl::parse(out.dddl);
  for (std::size_t s = 0; s < sessions; ++s) {
    teamsim::SimulationOptions sim;
    sim.seed = sensingSessionSeed(seed, 0, s);
    sim.maxOperations = kSensingOpCap;
    out.sessions.push_back(driveTeam(spec, sim, nullptr, nullptr));
  }
  return out;
}

RecoverCounts countRecovery(service::SessionStore& store,
                            const std::vector<std::string>& ids) {
  namespace fs = std::filesystem;
  RecoverCounts counts;
  counts.sessions = ids.size();
  std::set<std::string> withEvent;
  for (const service::RecoveryEvent& e : store.recoverReport()) {
    if (e.sessionLost) continue;
    withEvent.insert(fs::path(e.path).filename().string());
    counts.opsReplayed += e.operationsReplayed;
    counts.segmentsReplayed += e.segmentsReplayed;
    counts.checkpointsUsed += e.checkpointUsed ? 1 : 0;
    counts.checkpointFallbacks += e.checkpointFallbacks;
  }
  // Sessions recovered without a notable event replayed their whole chain.
  const std::string dir = store.options().walDir;
  for (const std::string& id : ids) {
    if (withEvent.contains(id + ".wal")) continue;
    for (const auto& entry : fs::directory_iterator(dir)) {
      const std::string name = entry.path().filename().string();
      if (name == id + ".wal" || name.rfind(id + ".wal.", 0) == 0) {
        ++counts.segmentsReplayed;
      }
    }
    counts.opsReplayed += store.snapshot(id).get().stage;
  }
  return counts;
}

void reportRecoverCounts(const RecoverCounts& c, Report& out) {
  out.add("wal.ops_replayed", static_cast<double>(c.opsReplayed), "count");
  out.add("wal.segments_replayed", static_cast<double>(c.segmentsReplayed),
          "count");
  out.add("wal.checkpoints_used", static_cast<double>(c.checkpointsUsed),
          "count");
  out.add("wal.checkpoint_fallbacks",
          static_cast<double>(c.checkpointFallbacks), "count");
}

RecoverCounts runServiceProbes(const SensingStreams& streams,
                               const WalSettings& wal, const std::string& dir,
                               Tracer& tracer, Report& out) {
  namespace fs = std::filesystem;
  const dpm::ScenarioSpec spec = dddl::parse(streams.dddl);
  const std::string storeDir = dir + "/store";
  fs::create_directories(storeDir);

  service::SessionStore::Options options;
  options.executor.threads = 1;
  options.walDir = storeDir;
  options.session.segmentOps = wal.segmentOps;
  options.session.checkpointEvery = wal.checkpointEvery;
  options.session.checkpointKeep = wal.checkpointKeep;

  std::vector<double> applyUs, waitUs, checkpointMs;
  std::size_t ops = 0;
  {
    service::SessionStore store(options);
    for (std::size_t s = 0; s < streams.sessions.size(); ++s) {
      const std::string id = "probe-" + std::to_string(s);
      store.open(id, spec, true);
      std::vector<std::shared_ptr<service::NotificationBus::Queue>> queues;
      for (const std::string& designer : designerSeats(spec)) {
        queues.push_back(store.subscribe(id, designer));
      }
      const std::vector<dpm::Operation>& stream = streams.sessions[s];
      for (std::size_t k = 0; k < stream.size(); ++k) {
        const dpm::Operation& op = stream[k];
        if (k == 5) {
          // One explicit checkpoint early in each session (the periodic one
          // at stage 15 supersedes it, so recovery still replays a tail).
          const auto checkpoint = [&tracer](service::Session& session) {
            Tracer::Span span(tracer, "wal.checkpoint");
            return timeMs([&] { session.checkpointNow(); });
          };
          checkpointMs.push_back(store.withSession(id, checkpoint).get());
        }
        // Strand wait: post until the lambda starts.
        const auto posted = Clock::now();
        const Clock::time_point started =
            store
                .withSession(id,
                             [](service::Session&) { return Clock::now(); })
                .get();
        waitUs.push_back(msBetween(posted, started) * 1000.0);

        const auto a0 = Clock::now();
        (void)store.applyOperation(id, op).get();
        const auto a1 = Clock::now();
        tracer.record("service.apply", a0, a1, 0);
        applyUs.push_back(msBetween(a0, a1) * 1000.0);
        ++ops;
        for (auto& q : queues) {
          while (q->tryPop()) {
          }
        }
      }
      store.close(id);
    }
    out.addLatency("service.apply", applyUs, {0.5, 0.99}, "us");
    out.addLatency("util.strand_wait", waitUs, {0.5, 0.99}, "us");
  }
  std::uintmax_t bytes = 0;
  for (const auto& entry : fs::directory_iterator(storeDir)) {
    if (entry.is_regular_file()) bytes += entry.file_size();
  }

  // Raw append path: SegmentedLog::appendOperation replay, same rotation.
  std::vector<double> appendUs;
  {
    service::SessionConfig cfg{"append-probe", true, spec.name, streams.dddl};
    service::SegmentedLog log(dir + "/append-probe.wal", cfg,
                              {false, 0, wal.segmentOps});
    for (const auto& session : streams.sessions) {
      for (const dpm::Operation& op : session) {
        const auto t0 = Clock::now();
        log.appendOperation(op);
        const auto t1 = Clock::now();
        tracer.record("wal.append", t0, t1, 0);
        appendUs.push_back(msBetween(t0, t1) * 1000.0);
      }
    }
  }
  out.addLatency("wal.append", appendUs, {0.5}, "us");
  out.add("wal.checkpoint_ms", median(checkpointMs), "ms",
          checkpointMs.size());
  out.add("wal.bytes_per_op",
          static_cast<double>(bytes) / static_cast<double>(ops), "bytes");

  // Re-open the journal: what recover() replays for these sessions.
  service::SessionStore store(options);
  std::vector<std::string> ids;
  {
    Tracer::Span span(tracer, "service.recover");
    ids = store.recover();
  }
  if (ids.size() != streams.sessions.size()) {
    throw CorrectnessError("probe recovered " + std::to_string(ids.size()) +
                           " of " + std::to_string(streams.sessions.size()) +
                           " sessions");
  }
  return countRecovery(store, ids);
}

void runCodecProbes(const SensingStreams& streams,
                    const std::string& largePreset, std::uint64_t seed,
                    Tracer& tracer, Report& out) {
  // Open payload: the large generated scenario, as wire-open-churn sends it.
  std::vector<double> genMs, writeMs, parseMs, openWriteMs, openParseMs;
  std::string text;
  std::string openFrame;
  for (int rep = 0; rep < 3; ++rep) {
    gen::GeneratedScenario generated;
    genMs.push_back(timeMs([&] {
      Tracer::Span span(tracer, "gen.generate");
      generated = gen::generate(gen::zooPreset(largePreset),
                                deriveSeed(seed, 7));
    }));
    writeMs.push_back(timeMs([&] {
      Tracer::Span span(tracer, "dddl.write");
      text = dddl::write(generated.spec);
    }));
    parseMs.push_back(timeMs([&] {
      Tracer::Span span(tracer, "dddl.parse");
      const dpm::ScenarioSpec spec = dddl::parse(text);
      dpm::DesignProcessManager m;
      dpm::instantiate(spec, m);
    }));
    json::Value body{json::Object{}};
    body.set("req", 1.0);
    body.set("session", "churn-0");
    body.set("dddl", text);
    body.set("adpm", true);
    std::string payload;
    openWriteMs.push_back(timeMs([&] {
      Tracer::Span span(tracer, "util.json_write");
      payload = json::serialize(body);
    }));
    openParseMs.push_back(timeMs([&] {
      Tracer::Span span(tracer, "util.json_parse");
      (void)json::parse(payload);
    }));
    openFrame = net::encodeFrame(net::FrameType::Open, payload);
  }
  out.add("gen.generate_ms", median(genMs), "ms", genMs.size());
  out.add("dddl.parse_ms", median(parseMs), "ms", parseMs.size());
  out.add("dddl.write_ms", median(writeMs), "ms", writeMs.size());
  out.add("util.json_open_write_ms", median(openWriteMs), "ms",
          openWriteMs.size());
  out.add("util.json_open_parse_ms", median(openParseMs), "ms",
          openParseMs.size());
  out.add("net.open_bytes", static_cast<double>(openFrame.size()), "bytes");

  // Apply payloads: request and response bodies of the sensing op stream.
  const dpm::ScenarioSpec spec = dddl::parse(streams.dddl);
  std::vector<double> jsonWriteUs, jsonParseUs, encodeUs, decodeUs;
  std::size_t bytes = 0;
  std::size_t applies = 0;
  double req = 0;
  for (const auto& session : streams.sessions) {
    teamsim::SimulationOptions sim;
    dpm::DesignProcessManager m(sim.managerOptions());
    dpm::instantiate(spec, m);
    m.bootstrap();
    for (const dpm::Operation& op : session) {
      const dpm::OperationRecord record = m.execute(op).record;
      json::Value request{json::Object{}};
      request.set("req", ++req);
      request.set("session", "s0-0");
      request.set("op", dpm::operationToJson(op));
      json::Value response{json::Object{}};
      response.set("req", req);
      response.set("record", net::operationRecordToJson(record));
      response.set("notifications", std::size_t{0});
      for (const json::Value* body : {&request, &response}) {
        std::string payload;
        auto t0 = Clock::now();
        payload = json::serialize(*body);
        auto t1 = Clock::now();
        (void)json::parse(payload);
        auto t2 = Clock::now();
        jsonWriteUs.push_back(msBetween(t0, t1) * 1000.0);
        jsonParseUs.push_back(msBetween(t1, t2) * 1000.0);
        tracer.record("util.json_write", t0, t1, 0);
        tracer.record("util.json_parse", t1, t2, 0);

        std::string frame;
        t0 = Clock::now();
        frame = net::encodeFrame(net::FrameType::Apply, payload);
        t1 = Clock::now();
        net::FrameParser parser;
        parser.feed(frame.data(), frame.size());
        const std::optional<net::Frame> decoded = parser.next();
        t2 = Clock::now();
        if (!decoded || decoded->payload != payload) {
          throw CorrectnessError("frame codec did not round-trip a payload");
        }
        encodeUs.push_back(msBetween(t0, t1) * 1000.0);
        decodeUs.push_back(msBetween(t1, t2) * 1000.0);
        tracer.record("net.frame_encode", t0, t1, 0);
        tracer.record("net.frame_decode", t1, t2, 0);
        bytes += frame.size();
      }
      ++applies;
    }
  }
  out.add("util.json_write_us", percentile(jsonWriteUs, 0.5, "json write"),
          "us", jsonWriteUs.size());
  out.add("util.json_parse_us", percentile(jsonParseUs, 0.5, "json parse"),
          "us", jsonParseUs.size());
  out.add("net.frame_encode_us", percentile(encodeUs, 0.5, "frame encode"),
          "us", encodeUs.size());
  out.add("net.frame_decode_us", percentile(decodeUs, 0.5, "frame decode"),
          "us", decodeUs.size());
  out.add("net.bytes_per_apply",
          static_cast<double>(bytes) / static_cast<double>(applies), "bytes");
}

std::string layerSelfTimes(const Tracer& tracer) {
  std::string out;
  char line[128];
  for (const auto& [layer, ms] : selfMsByLayer(tracer.spans())) {
    std::snprintf(line, sizeof line, "  self time %-12s %12.3f ms\n",
                  layer.c_str(), ms);
    out += line;
  }
  return out;
}

}  // namespace perfbench
