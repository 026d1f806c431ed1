/**
 * @file
 * Minimal streaming JSON writer shared by the tracer, the stats
 * exporter, the run-manifest emitter and the benchmark baseline
 * writer. Comma placement and string escaping are handled here so
 * every producer emits syntactically valid JSON by construction.
 *
 * The writer is deliberately tiny: objects/arrays are opened and
 * closed explicitly, keys and values are emitted in order, and the
 * caller is responsible for pairing begin/end calls (REMAP_ASSERT
 * catches mismatches).
 */

#ifndef REMAP_SIM_JSON_HH
#define REMAP_SIM_JSON_HH

#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string_view>
#include <vector>

#include "sim/logging.hh"

namespace remap::json
{

/** Escape @p s into @p os as a quoted JSON string. */
inline void
writeEscaped(std::ostream &os, std::string_view s)
{
    os << '"';
    for (char c : s) {
        switch (c) {
          case '"':  os << "\\\""; break;
          case '\\': os << "\\\\"; break;
          case '\n': os << "\\n"; break;
          case '\r': os << "\\r"; break;
          case '\t': os << "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                os << buf;
            } else {
                os << c;
            }
        }
    }
    os << '"';
}

/** Streaming writer over an externally-owned ostream. */
class Writer
{
  public:
    explicit Writer(std::ostream &os) : os_(os) {}

    Writer &
    beginObject()
    {
        comma();
        os_ << '{';
        stack_.push_back(true);
        return *this;
    }

    Writer &
    endObject()
    {
        REMAP_ASSERT(!stack_.empty(), "endObject with no open scope");
        stack_.pop_back();
        os_ << '}';
        return *this;
    }

    Writer &
    beginArray()
    {
        comma();
        os_ << '[';
        stack_.push_back(true);
        return *this;
    }

    Writer &
    endArray()
    {
        REMAP_ASSERT(!stack_.empty(), "endArray with no open scope");
        stack_.pop_back();
        os_ << ']';
        return *this;
    }

    Writer &
    key(std::string_view k)
    {
        comma();
        writeEscaped(os_, k);
        os_ << ':';
        pendingValue_ = true;
        return *this;
    }

    Writer &
    value(std::string_view v)
    {
        comma();
        writeEscaped(os_, v);
        return *this;
    }

    Writer &value(const char *v) { return value(std::string_view(v)); }

    Writer &
    value(double v)
    {
        comma();
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.12g", v);
        os_ << buf;
        return *this;
    }

    Writer &
    value(std::uint64_t v)
    {
        comma();
        os_ << v;
        return *this;
    }

    Writer &
    value(std::int64_t v)
    {
        comma();
        os_ << v;
        return *this;
    }

    Writer &value(int v) { return value(std::int64_t(v)); }
    Writer &value(unsigned v) { return value(std::uint64_t(v)); }

    /**
     * Round-trip-exact double: 17 significant digits recover the
     * exact IEEE-754 value through strtod (the json_value.hh
     * parser). Used where a consumer re-ingests the number and must
     * see the producer's bits (sampling estimates, remap-stats JSON);
     * value(double)'s %.12g stays the default for display-grade
     * output.
     */
    Writer &
    valueExact(double v)
    {
        comma();
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        os_ << buf;
        return *this;
    }

    /** Shorthand for key(k).valueExact(v). */
    Writer &
    kvExact(std::string_view k, double v)
    {
        key(k);
        return valueExact(v);
    }

    Writer &
    value(bool v)
    {
        comma();
        os_ << (v ? "true" : "false");
        return *this;
    }

    Writer &
    nullValue()
    {
        comma();
        os_ << "null";
        return *this;
    }

    /** Shorthand for key(k).value(v). */
    template <typename T>
    Writer &
    kv(std::string_view k, T v)
    {
        key(k);
        return value(v);
    }

  private:
    /** Emit a separating comma unless this is a scope's first item
     *  or the value completing a pending key. */
    void
    comma()
    {
        if (pendingValue_) {
            pendingValue_ = false;
            return;
        }
        if (stack_.empty())
            return;
        if (stack_.back())
            stack_.back() = false;
        else
            os_ << ',';
    }

    std::ostream &os_;
    std::vector<bool> stack_; ///< per-scope "no items yet" flag
    bool pendingValue_ = false;
};

} // namespace remap::json

#endif // REMAP_SIM_JSON_HH
