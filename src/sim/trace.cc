#include "sim/trace.hh"

#include <atomic>
#include <cinttypes>
#include <cstdio>

#include "sim/json.hh"

namespace remap::trace
{

const char *
categoryName(Category c)
{
    switch (c) {
      case Category::Core:      return "core";
      case Category::Fabric:    return "fabric";
      case Category::Queue:     return "queue";
      case Category::Barrier:   return "barrier";
      case Category::Migration: return "migration";
    }
    return "unknown";
}

Tracer::~Tracer()
{
    close();
}

bool
Tracer::open(const std::string &path, std::uint32_t pid)
{
    close();
    out_.open(path, std::ios::out | std::ios::trunc);
    if (!out_.is_open())
        return false;
    path_ = path;
    pid_ = pid;
    events_ = 0;
    first_ = true;
    out_ << "{\"traceEvents\":[\n";
    return true;
}

void
Tracer::close()
{
    if (!out_.is_open())
        return;
    out_ << "\n],\"displayTimeUnit\":\"ms\",\"otherData\":"
            "{\"tool\":\"remap\",\"clock\":\"simulated core cycles\","
            "\"ts_unit\":\"cycle\"}}\n";
    out_.close();
}

void
Tracer::prefix(Category cat, const char *name, char ph,
               std::uint32_t tid, Cycle ts)
{
    if (!first_)
        out_ << ",\n";
    first_ = false;
    char buf[192];
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%c\","
                  "\"ts\":%" PRIu64 ",\"pid\":%u,\"tid\":%u",
                  name, categoryName(cat), ph,
                  static_cast<std::uint64_t>(ts), pid_, tid);
    out_ << buf;
}

void
Tracer::writeArgs(std::initializer_list<Arg> args)
{
    if (args.size() == 0)
        return;
    out_ << ",\"args\":{";
    bool first = true;
    for (const Arg &a : args) {
        if (!first)
            out_ << ',';
        first = false;
        json::writeEscaped(out_, a.key);
        out_ << ':';
        if (a.kind == Arg::Kind::Str) {
            json::writeEscaped(out_, a.str ? a.str : "");
        } else {
            char buf[32];
            std::snprintf(buf, sizeof(buf), "%.12g", a.num);
            out_ << buf;
        }
    }
    out_ << '}';
}

void
Tracer::finish()
{
    out_ << '}';
    ++events_;
}

void
Tracer::processName(const std::string &name)
{
    if (!enabled())
        return;
    prefix(Category::Core, "process_name", 'M', 0, 0);
    out_ << ",\"args\":{\"name\":";
    json::writeEscaped(out_, name);
    out_ << '}';
    finish();
}

void
Tracer::threadName(std::uint32_t tid, const std::string &name)
{
    if (!enabled())
        return;
    prefix(Category::Core, "thread_name", 'M', tid, 0);
    out_ << ",\"args\":{\"name\":";
    json::writeEscaped(out_, name);
    out_ << '}';
    finish();
}

void
Tracer::complete(Category cat, const char *name, std::uint32_t tid,
                 Cycle start, Cycle dur,
                 std::initializer_list<Arg> args)
{
    if (!enabled())
        return;
    prefix(cat, name, 'X', tid, start);
    out_ << ",\"dur\":" << dur;
    writeArgs(args);
    finish();
}

void
Tracer::instant(Category cat, const char *name, std::uint32_t tid,
                Cycle ts, std::initializer_list<Arg> args)
{
    if (!enabled())
        return;
    prefix(cat, name, 'i', tid, ts);
    out_ << ",\"s\":\"t\""; // thread-scoped instant
    writeArgs(args);
    finish();
}

void
Tracer::counter(Category cat, const char *name, std::uint32_t tid,
                Cycle ts, std::initializer_list<Arg> series)
{
    if (!enabled())
        return;
    prefix(cat, name, 'C', tid, ts);
    writeArgs(series);
    finish();
}

void
Tracer::flowBegin(Category cat, const char *name, std::uint32_t tid,
                  Cycle ts, std::uint64_t flow_id)
{
    if (!enabled())
        return;
    prefix(cat, name, 's', tid, ts);
    out_ << ",\"id\":" << flow_id;
    finish();
}

void
Tracer::flowEnd(Category cat, const char *name, std::uint32_t tid,
                Cycle ts, std::uint64_t flow_id)
{
    if (!enabled())
        return;
    prefix(cat, name, 'f', tid, ts);
    // bp:e binds the arrow head to the enclosing slice at ts.
    out_ << ",\"id\":" << flow_id << ",\"bp\":\"e\"";
    finish();
}

std::string
uniqueTracePath(const std::string &base)
{
    static std::atomic<std::uint64_t> next{0};
    const std::uint64_t n =
        next.fetch_add(1, std::memory_order_relaxed);
    if (n == 0)
        return base;
    const std::size_t slash = base.find_last_of('/');
    const std::size_t dot = base.find_last_of('.');
    if (dot == std::string::npos ||
        (slash != std::string::npos && dot < slash))
        return base + "." + std::to_string(n);
    return base.substr(0, dot) + "." + std::to_string(n) +
           base.substr(dot);
}

} // namespace remap::trace
