/**
 * @file
 * Minimal recursive-descent JSON reader: parses the JSON the
 * simulator itself writes (stats dumps, run manifests, BENCH files)
 * into an owning tree of json::Value nodes. Complements json.hh,
 * which is write-only.
 *
 * Scope matches the producer: UTF-8 passthrough (no \u surrogate
 * decoding beyond copying the escape's code point as-is for the BMP),
 * numbers parsed as double, no comments or trailing commas.
 */

#ifndef REMAP_SIM_JSON_VALUE_HH
#define REMAP_SIM_JSON_VALUE_HH

#include <cstddef>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace remap::json
{

/** One parsed JSON node. */
struct Value
{
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Kind kind = Kind::Null;
    bool boolean = false;
    double num = 0.0;
    std::string str;
    std::vector<Value> arr;
    std::map<std::string, Value> obj;

    bool isNull() const { return kind == Kind::Null; }
    bool isNumber() const { return kind == Kind::Number; }
    bool isString() const { return kind == Kind::String; }
    bool isArray() const { return kind == Kind::Array; }
    bool isObject() const { return kind == Kind::Object; }

    /** True when this object has member @p key. */
    bool
    has(const std::string &key) const
    {
        return kind == Kind::Object && obj.count(key) > 0;
    }

    /** Member @p key; throws std::out_of_range when absent. */
    const Value &at(const std::string &key) const { return obj.at(key); }
};

/**
 * Parse @p text as one JSON document.
 *
 * @param[out] out the parsed tree (valid only on success)
 * @param[out] error human-readable failure description with offset
 *             (may be null)
 * @return true on success
 */
bool parse(std::string_view text, Value &out, std::string *error = nullptr);

} // namespace remap::json

#endif // REMAP_SIM_JSON_VALUE_HH
