/** @file Tests for the observability subsystem: the Chrome
 *  trace-event Tracer (valid JSON, event ordering, disabled no-op,
 *  bit-identical simulation with tracing on or off), the
 *  System::dumpStatsJson golden output, and run manifests. */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/system.hh"
#include "harness/manifest.hh"
#include "harness/parallel.hh"
#include "isa/builder.hh"
#include "sim/json_value.hh"
#include "sim/trace.hh"
#include "spl/function.hh"
#include "workloads/workload.hh"

namespace remap
{
namespace
{

using isa::ProgramBuilder;

// ---------------------------------------------------------------- //
// A minimal strict JSON parser, so the tests validate trace files
// without any external dependency.
// ---------------------------------------------------------------- //

struct JsonValue
{
    enum class Type
    {
        Null,
        Bool,
        Num,
        Str,
        Arr,
        Obj
    } type = Type::Null;
    bool b = false;
    double num = 0.0;
    std::string str;
    std::vector<JsonValue> arr;
    std::map<std::string, JsonValue> obj;

    bool has(const std::string &k) const { return obj.count(k) > 0; }
    const JsonValue &at(const std::string &k) const
    {
        return obj.at(k);
    }
};

class JsonParser
{
  public:
    explicit JsonParser(const std::string &s) : s_(s) {}

    bool
    parse(JsonValue &out)
    {
        skip();
        if (!value(out))
            return false;
        skip();
        return pos_ == s_.size();
    }

  private:
    void
    skip()
    {
        while (pos_ < s_.size() &&
               (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                s_[pos_] == '\n' || s_[pos_] == '\r'))
            ++pos_;
    }

    bool
    literal(const char *word)
    {
        const std::size_t n = std::string(word).size();
        if (s_.compare(pos_, n, word) != 0)
            return false;
        pos_ += n;
        return true;
    }

    bool
    parseString(std::string &out)
    {
        if (pos_ >= s_.size() || s_[pos_] != '"')
            return false;
        ++pos_;
        out.clear();
        while (pos_ < s_.size() && s_[pos_] != '"') {
            char c = s_[pos_++];
            if (c == '\\') {
                if (pos_ >= s_.size())
                    return false;
                char e = s_[pos_++];
                switch (e) {
                  case '"':  out += '"'; break;
                  case '\\': out += '\\'; break;
                  case '/':  out += '/'; break;
                  case 'b':  out += '\b'; break;
                  case 'f':  out += '\f'; break;
                  case 'n':  out += '\n'; break;
                  case 'r':  out += '\r'; break;
                  case 't':  out += '\t'; break;
                  case 'u':
                    if (pos_ + 4 > s_.size())
                        return false;
                    pos_ += 4; // tests never inspect the code point
                    out += '?';
                    break;
                  default: return false;
                }
            } else {
                out += c;
            }
        }
        if (pos_ >= s_.size())
            return false;
        ++pos_; // closing quote
        return true;
    }

    bool
    value(JsonValue &out)
    {
        if (pos_ >= s_.size())
            return false;
        const char c = s_[pos_];
        if (c == '{') {
            ++pos_;
            out.type = JsonValue::Type::Obj;
            skip();
            if (pos_ < s_.size() && s_[pos_] == '}') {
                ++pos_;
                return true;
            }
            while (true) {
                skip();
                std::string key;
                if (!parseString(key))
                    return false;
                skip();
                if (pos_ >= s_.size() || s_[pos_++] != ':')
                    return false;
                skip();
                JsonValue v;
                if (!value(v))
                    return false;
                out.obj[key] = std::move(v);
                skip();
                if (pos_ >= s_.size())
                    return false;
                if (s_[pos_] == ',') {
                    ++pos_;
                    continue;
                }
                if (s_[pos_] == '}') {
                    ++pos_;
                    return true;
                }
                return false;
            }
        }
        if (c == '[') {
            ++pos_;
            out.type = JsonValue::Type::Arr;
            skip();
            if (pos_ < s_.size() && s_[pos_] == ']') {
                ++pos_;
                return true;
            }
            while (true) {
                skip();
                JsonValue v;
                if (!value(v))
                    return false;
                out.arr.push_back(std::move(v));
                skip();
                if (pos_ >= s_.size())
                    return false;
                if (s_[pos_] == ',') {
                    ++pos_;
                    continue;
                }
                if (s_[pos_] == ']') {
                    ++pos_;
                    return true;
                }
                return false;
            }
        }
        if (c == '"') {
            out.type = JsonValue::Type::Str;
            return parseString(out.str);
        }
        if (c == 't') {
            out.type = JsonValue::Type::Bool;
            out.b = true;
            return literal("true");
        }
        if (c == 'f') {
            out.type = JsonValue::Type::Bool;
            out.b = false;
            return literal("false");
        }
        if (c == 'n') {
            out.type = JsonValue::Type::Null;
            return literal("null");
        }
        // Number.
        const char *start = s_.c_str() + pos_;
        char *end = nullptr;
        out.num = std::strtod(start, &end);
        if (end == start)
            return false;
        out.type = JsonValue::Type::Num;
        pos_ += static_cast<std::size_t>(end - start);
        return true;
    }

    const std::string &s_;
    std::size_t pos_ = 0;
};

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.is_open()) << path;
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** Parse @p path as JSON; fails the test on malformed input. */
JsonValue
parseFile(const std::string &path)
{
    const std::string text = slurp(path);
    JsonValue root;
    JsonParser p(text);
    EXPECT_TRUE(p.parse(root)) << "invalid JSON in " << path;
    return root;
}

std::string
tempPath(const char *name)
{
    return std::string(::testing::TempDir()) + name;
}

/** A loop that sums 0..n-1 into memory and halts. */
isa::Program
sumLoop(unsigned n, Addr out)
{
    ProgramBuilder b("sum");
    b.li(1, 0).li(2, 0).li(3, n);
    b.label("loop")
        .bge(1, 3, "done")
        .add(2, 2, 1)
        .addi(1, 1, 1)
        .j("loop")
        .label("done")
        .li(4, static_cast<std::int64_t>(out))
        .sd(2, 4, 0)
        .halt();
    return b.build();
}

/** A loop that pushes values through the SPL fabric (exercises the
 *  init / queue / output paths and the spl_*_stall spans). */
isa::Program
splLoop(ConfigId cfg, unsigned n, Addr out)
{
    ProgramBuilder b("spl");
    b.li(1, 0).li(2, 0).li(3, n);
    b.label("loop")
        .bge(1, 3, "done")
        .splLoad(1, 0)
        .splInit(cfg)
        .splStore(4, 0)
        .add(2, 2, 4)
        .addi(1, 1, 1)
        .j("loop")
        .label("done")
        .li(5, static_cast<std::int64_t>(out))
        .sd(2, 5, 0)
        .halt();
    return b.build();
}

// ---------------------------------------------------------------- //
// Tracer unit tests
// ---------------------------------------------------------------- //

TEST(Tracer, ProducesValidJsonInEmissionOrder)
{
    const std::string path = tempPath("tracer_order.json");
    {
        trace::Tracer t;
        ASSERT_TRUE(t.open(path, 7));
        t.processName("remap-test");
        t.threadName(0, "core0");
        t.complete(trace::Category::Core, "span", 0, 100, 50,
                   {trace::Arg{"core", std::uint64_t(0)},
                    trace::Arg{"kind", "test \"quoted\""}});
        t.instant(trace::Category::Barrier, "arrive", 1, 160,
                  {trace::Arg{"barrier", 3.0}});
        t.counter(trace::Category::Queue, "depths", 2, 170,
                  {trace::Arg{"pending", 4.0},
                   trace::Arg{"output", 1.0}});
        t.flowBegin(trace::Category::Migration, "migrate", 0, 200,
                    42);
        t.flowEnd(trace::Category::Migration, "migrate", 1, 300, 42);
        EXPECT_EQ(t.eventCount(), 7u);
        t.close();
        EXPECT_FALSE(t.enabled());
    }

    JsonValue root = parseFile(path);
    ASSERT_EQ(root.type, JsonValue::Type::Obj);
    ASSERT_TRUE(root.has("traceEvents"));
    const auto &ev = root.at("traceEvents").arr;
    ASSERT_EQ(ev.size(), 7u);

    // Every event carries the common fields and the given pid.
    for (const JsonValue &e : ev) {
        ASSERT_EQ(e.type, JsonValue::Type::Obj);
        EXPECT_TRUE(e.has("name"));
        EXPECT_TRUE(e.has("cat"));
        EXPECT_TRUE(e.has("ph"));
        EXPECT_TRUE(e.has("ts"));
        EXPECT_EQ(e.at("pid").num, 7.0);
        EXPECT_TRUE(e.has("tid"));
    }

    // Emission order is file order, with the right phase codes.
    EXPECT_EQ(ev[0].at("ph").str, "M");
    EXPECT_EQ(ev[0].at("name").str, "process_name");
    EXPECT_EQ(ev[0].at("args").at("name").str, "remap-test");
    EXPECT_EQ(ev[1].at("ph").str, "M");
    EXPECT_EQ(ev[1].at("args").at("name").str, "core0");

    EXPECT_EQ(ev[2].at("ph").str, "X");
    EXPECT_EQ(ev[2].at("cat").str, "core");
    EXPECT_EQ(ev[2].at("ts").num, 100.0);
    EXPECT_EQ(ev[2].at("dur").num, 50.0);
    EXPECT_EQ(ev[2].at("args").at("kind").str, "test \"quoted\"");

    EXPECT_EQ(ev[3].at("ph").str, "i");
    EXPECT_EQ(ev[3].at("cat").str, "barrier");
    EXPECT_EQ(ev[3].at("s").str, "t");
    EXPECT_EQ(ev[3].at("args").at("barrier").num, 3.0);

    EXPECT_EQ(ev[4].at("ph").str, "C");
    EXPECT_EQ(ev[4].at("cat").str, "queue");
    EXPECT_EQ(ev[4].at("args").at("pending").num, 4.0);
    EXPECT_EQ(ev[4].at("args").at("output").num, 1.0);

    EXPECT_EQ(ev[5].at("ph").str, "s");
    EXPECT_EQ(ev[5].at("cat").str, "migration");
    EXPECT_EQ(ev[5].at("id").num, 42.0);
    EXPECT_EQ(ev[6].at("ph").str, "f");
    EXPECT_EQ(ev[6].at("id").num, 42.0);
    EXPECT_EQ(ev[6].at("bp").str, "e");

    std::remove(path.c_str());
}

TEST(Tracer, DisabledTracerIsANoOp)
{
    trace::Tracer t;
    EXPECT_FALSE(t.enabled());
    t.processName("x");
    t.threadName(0, "y");
    t.complete(trace::Category::Core, "span", 0, 1, 2);
    t.instant(trace::Category::Core, "i", 0, 3);
    t.counter(trace::Category::Queue, "c", 0, 4,
              {trace::Arg{"v", 1.0}});
    t.flowBegin(trace::Category::Migration, "m", 0, 5, 1);
    t.flowEnd(trace::Category::Migration, "m", 0, 6, 1);
    t.close(); // safe when never opened
    EXPECT_EQ(t.eventCount(), 0u);
}

TEST(Tracer, UniqueTracePathsAreDistinct)
{
    const std::string a = trace::uniqueTracePath("/tmp/t.json");
    const std::string b = trace::uniqueTracePath("/tmp/t.json");
    const std::string c = trace::uniqueTracePath("/tmp/noext");
    EXPECT_NE(a, b);
    EXPECT_NE(b, c);
    // Suffixed instances keep the extension at the end.
    EXPECT_EQ(b.find("/tmp/t."), 0u);
    EXPECT_EQ(b.substr(b.size() - 5), ".json");
    EXPECT_EQ(c.find("/tmp/noext."), 0u);
}

// ---------------------------------------------------------------- //
// System-level tracing
// ---------------------------------------------------------------- //

TEST(SystemTrace, BitIdenticalWithTracingOnOrOff)
{
    const std::string path = tempPath("sys_bitident.json");
    auto run_one = [&](bool traced, std::string &stats_text,
                       std::string &stats_json, std::string &full_json) {
        sys::System sys(sys::SystemConfig::splCluster());
        ConfigId pass =
            sys.registerFunction(spl::functions::passthrough(1));
        auto prog = splLoop(pass, 400, 0x2000);
        auto &t = sys.createThread(&prog);
        sys.mapThread(t.id, 0);
        if (traced) {
            EXPECT_TRUE(sys.enableTracing(path, 100));
        }
        auto r = sys.run(10'000'000);
        EXPECT_FALSE(r.timedOut);
        EXPECT_EQ(sys.memory().readI64(0x2000),
                  std::int64_t(400) * 399 / 2);
        std::ostringstream t1, t2, t3;
        sys.dumpStats(t1);
        sys.dumpStatsJson(t2, /*include_sim=*/false);
        sys.dumpStatsJson(t3, /*include_sim=*/true);
        stats_text = t1.str();
        stats_json = t2.str();
        full_json = t3.str();
        if (traced) {
            EXPECT_GT(sys.tracer()->eventCount(), 0u);
            sys.disableTracing();
            EXPECT_EQ(sys.tracer(), nullptr);
        }
        return r.cycles;
    };

    std::string text_off, json_off, full_off, text_on, json_on, full_on;
    const Cycle off = run_one(false, text_off, json_off, full_off);
    const Cycle on = run_one(true, text_on, json_on, full_on);

    // Bit-identical, not approximately equal: tracing is pure
    // observation. The "sim" subtree matches too, so tracing does not
    // switch the simulator onto another path either.
    EXPECT_EQ(on, off);
    EXPECT_EQ(text_on, text_off);
    EXPECT_EQ(json_on, json_off);
    EXPECT_EQ(full_on, full_off);

    // The trace itself is valid Chrome trace-event JSON covering the
    // fabric, queue-depth and sampler instrumentation.
    JsonValue root = parseFile(path);
    const auto &ev = root.at("traceEvents").arr;
    bool saw_fabric = false, saw_queue = false, saw_counter = false,
         saw_meta = false;
    for (const JsonValue &e : ev) {
        const std::string &cat = e.at("cat").str;
        const std::string &ph = e.at("ph").str;
        saw_fabric |= cat == "fabric";
        saw_queue |= cat == "queue";
        saw_counter |= ph == "C";
        saw_meta |= ph == "M";
    }
    EXPECT_TRUE(saw_fabric);
    EXPECT_TRUE(saw_queue);
    EXPECT_TRUE(saw_counter);
    EXPECT_TRUE(saw_meta);
    std::remove(path.c_str());
}

TEST(SystemTrace, BarrierWorkloadTracesBarrierSpans)
{
    const std::string path = tempPath("sys_barrier.json");
    workloads::RunSpec spec;
    spec.variant = workloads::Variant::HwBarrier;
    spec.problemSize = 16;
    spec.threads = 4;
    auto pr = workloads::byName("ll2").make(spec);
    ASSERT_TRUE(
        pr.system->enableTracing(path, /*sample_period=*/500));
    pr.run();
    if (pr.verify) {
        EXPECT_TRUE(pr.verify());
    }
    pr.system->disableTracing();

    JsonValue root = parseFile(path);
    bool saw_arrive = false, saw_span = false;
    for (const JsonValue &e : root.at("traceEvents").arr) {
        if (e.at("cat").str != "barrier")
            continue;
        saw_arrive |= e.at("ph").str == "i";
        saw_span |= e.at("ph").str == "X";
    }
    EXPECT_TRUE(saw_arrive);
    EXPECT_TRUE(saw_span);
    std::remove(path.c_str());
}

TEST(SystemTrace, MigrationEmitsMatchedFlowEvents)
{
    const std::string path = tempPath("sys_migration.json");
    Cycle traced_cycles = 0;
    {
        sys::System sys(sys::SystemConfig::ooo1Cluster(2));
        auto prog = sumLoop(5000, 0x1000);
        auto &t = sys.createThread(&prog);
        sys.mapThread(t.id, 0);
        sys.scheduleMigration(t.id, 1, 2000);
        ASSERT_TRUE(sys.enableTracing(path));
        auto r = sys.run(10'000'000);
        ASSERT_FALSE(r.timedOut);
        EXPECT_EQ(sys.migrationsCompleted.value(), 1u);
        traced_cycles = r.cycles;
        sys.disableTracing();
    }
    {
        // Same run untraced: cycle count must match exactly.
        sys::System sys(sys::SystemConfig::ooo1Cluster(2));
        auto prog = sumLoop(5000, 0x1000);
        auto &t = sys.createThread(&prog);
        sys.mapThread(t.id, 0);
        sys.scheduleMigration(t.id, 1, 2000);
        EXPECT_EQ(sys.run(10'000'000).cycles, traced_cycles);
    }

    JsonValue root = parseFile(path);
    double begin_id = -1.0, end_id = -2.0;
    Cycle begin_ts = 0, end_ts = 0;
    for (const JsonValue &e : root.at("traceEvents").arr) {
        if (e.at("cat").str != "migration")
            continue;
        if (e.at("ph").str == "s") {
            begin_id = e.at("id").num;
            begin_ts = static_cast<Cycle>(e.at("ts").num);
        } else if (e.at("ph").str == "f") {
            end_id = e.at("id").num;
            end_ts = static_cast<Cycle>(e.at("ts").num);
        }
    }
    EXPECT_EQ(begin_id, end_id);
    EXPECT_GE(begin_id, 1.0);
    // The flow spans the drain + 500-cycle switch.
    EXPECT_GE(end_ts, begin_ts + 500);
    std::remove(path.c_str());
}

TEST(SystemTrace, LeapClampsToSamplePeriod)
{
    // Regression test for the sampler/skip interaction: a thread
    // that halts long before a far-future migration leaves the system
    // with nothing to tick for tens of thousands of cycles. With
    // periodic counter sampling enabled every sample cycle must still
    // be sampled; an older chip-wide fast-forward once jumped past
    // them and silently dropped samples.
    const Cycle kMigrateAt = 50'000;
    const Cycle kPeriod = 100;
    auto run_one = [&](bool fast, const std::string &path) {
        if (!fast) {
            EXPECT_EQ(setenv("REMAP_NO_LEAP", "1", 1), 0);
        }
        sys::System sys(sys::SystemConfig::ooo1Cluster(2));
        if (!fast) {
            EXPECT_EQ(unsetenv("REMAP_NO_LEAP"), 0);
        }
        auto prog = sumLoop(200, 0x1000);
        auto &t = sys.createThread(&prog);
        sys.mapThread(t.id, 0);
        sys.scheduleMigration(t.id, 1, kMigrateAt);
        EXPECT_TRUE(sys.enableTracing(path, kPeriod));
        auto r = sys.run(10'000'000);
        EXPECT_FALSE(r.timedOut);
        EXPECT_EQ(sys.migrationsCompleted.value(), 1u);
        sys.disableTracing();
        std::ifstream in(path, std::ios::binary);
        std::ostringstream buf;
        buf << in.rdbuf();
        return std::pair<Cycle, std::string>{r.cycles, buf.str()};
    };

    const std::string path_a = tempPath("sys_leap_sampler_a.json");
    const std::string path_b = tempPath("sys_leap_sampler_b.json");
    const auto [fast_cycles, fast_bytes] = run_one(true, path_a);
    const auto [ref_cycles, ref_bytes] = run_one(false, path_b);

    // Byte-identical trace files: every periodic sample the per-cycle
    // reference emits appears at the same cycle in the default run.
    EXPECT_EQ(fast_cycles, ref_cycles);
    EXPECT_EQ(fast_bytes, ref_bytes);

    // And the samples really cover the idle window: the run spans the
    // migration at 50k cycles, so ~500 sample points must be present.
    JsonValue root = parseFile(path_a);
    std::set<double> sample_ts;
    for (const JsonValue &e : root.at("traceEvents").arr) {
        if (e.at("ph").str == "C")
            sample_ts.insert(e.at("ts").num);
    }
    EXPECT_GE(fast_cycles, kMigrateAt);
    EXPECT_GE(sample_ts.size(),
              static_cast<std::size_t>(kMigrateAt / kPeriod));
    std::remove(path_a.c_str());
    std::remove(path_b.c_str());
}

// ---------------------------------------------------------------- //
// dumpStatsJson golden test
// ---------------------------------------------------------------- //

TEST(StatsJson, GoldenStableAndMatchesCounters)
{
    auto run_one = [](std::string &json_out) {
        sys::System sys(sys::SystemConfig::ooo1Cluster(1));
        auto prog = sumLoop(2000, 0x1000);
        auto &t = sys.createThread(&prog);
        sys.mapThread(t.id, 0);
        auto r = sys.run(10'000'000);
        EXPECT_FALSE(r.timedOut);
        std::ostringstream ss;
        sys.dumpStatsJson(ss);
        json_out = ss.str();
        return sys.core(0).committedInsts.value();
    };

    std::string first, second;
    const std::uint64_t committed = run_one(first);
    run_one(second);
    // Two identical runs produce byte-identical stats JSON.
    EXPECT_EQ(first, second);

    JsonValue root;
    JsonParser p(first);
    ASSERT_TRUE(p.parse(root)) << first;
    EXPECT_EQ(root.at("schema_version").num, 2.0);
    EXPECT_GT(root.at("cycle").num, 0.0);
    EXPECT_EQ(root.at("num_cores").num, 1.0);
    // Schema 2 appends a host-side "sim" subtree (telemetry that
    // describes the simulator, not the simulated machine): the sleep
    // counters, and no per-component meta groups.
    ASSERT_TRUE(root.has("sim"));
    EXPECT_TRUE(root.at("sim").has("sleep"));
    EXPECT_FALSE(root.at("sim").has("groups"));
    ASSERT_TRUE(root.has("groups"));
    const JsonValue &groups = root.at("groups");
    ASSERT_TRUE(groups.has("core0.ooo1"));
    EXPECT_EQ(groups.at("core0.ooo1").at("committed_insts").num,
              static_cast<double>(committed));
}

// ---------------------------------------------------------------- //
// Run manifests
// ---------------------------------------------------------------- //

TEST(Manifest, WritesValidJsonWithJobRecords)
{
    const std::string path = tempPath("manifest.json");
    const auto &info = workloads::byName("ll2");

    std::vector<harness::RegionJob> jobs;
    for (unsigned size : {8u, 16u}) {
        workloads::RunSpec spec;
        spec.variant = workloads::Variant::HwBarrier;
        spec.problemSize = size;
        spec.threads = 4;
        jobs.push_back(harness::RegionJob{&info, spec});
    }
    power::EnergyModel model;
    harness::JobPool pool(2);
    std::vector<harness::JobTiming> timings;
    const std::vector<harness::RegionResult> results =
        harness::runRegions(jobs, model, &pool, &timings);
    ASSERT_EQ(results.size(), 2u);
    ASSERT_EQ(timings.size(), 2u);

    harness::setExperimentLabel("trace_test");
    const std::string written = harness::writeRunManifest(
        jobs, results, timings, pool.workers(), path, &pool);
    EXPECT_EQ(written, path);

    // The simulator's own reader (the one remap-stats uses) must
    // accept the manifest too.
    json::Value reread;
    std::string error;
    EXPECT_TRUE(json::parse(slurp(path), reread, &error)) << error;

    JsonValue root = parseFile(path);
    EXPECT_EQ(root.at("schema_version").num, 2.0);
    EXPECT_EQ(root.at("experiment").str, "trace_test");
    EXPECT_TRUE(root.at("deterministic_inputs").b);
    ASSERT_TRUE(root.has("host"));
    EXPECT_GT(root.at("host").at("hardware_concurrency").num, 0.0);
    EXPECT_EQ(root.at("host").at("pool_workers").num, 2.0);

    ASSERT_TRUE(root.has("pool"));
    for (const char *k : {"jobs_executed", "steals", "max_queue_depth"})
        EXPECT_EQ(root.at("pool").at(k).type, JsonValue::Type::Num) << k;
    EXPECT_GE(root.at("pool").at("jobs_executed").num, 2.0);

    ASSERT_TRUE(root.has("snapshot_cache"));
    for (const char *k : {"hits", "misses"})
        EXPECT_EQ(root.at("snapshot_cache").at(k).type,
                  JsonValue::Type::Num)
            << k;
    EXPECT_FALSE(root.has("result_store"));

    const auto &jarr = root.at("jobs").arr;
    ASSERT_EQ(jarr.size(), 2u);
    for (std::size_t i = 0; i < jarr.size(); ++i) {
        const JsonValue &j = jarr[i];
        EXPECT_EQ(j.at("workload").str, "ll2");
        EXPECT_EQ(j.at("variant").str,
                  workloads::variantName(
                      workloads::Variant::HwBarrier));
        EXPECT_EQ(j.at("spec").at("problem_size").num,
                  static_cast<double>(jobs[i].spec.problemSize));
        for (const char *k : {"threads", "copies", "iterations"})
            EXPECT_EQ(j.at("spec").at(k).type, JsonValue::Type::Num)
                << k;
        EXPECT_EQ(j.at("result").at("cycles").num,
                  static_cast<double>(results[i].cycles));
        EXPECT_EQ(j.at("result").at("config_hash").type,
                  JsonValue::Type::Str);
        EXPECT_GE(j.at("wall_ms").num, 0.0);
        EXPECT_TRUE(j.has("worker"));
    }
    std::remove(path.c_str());
}

} // namespace
} // namespace remap
