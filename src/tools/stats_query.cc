#include "tools/stats_query.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>

#include "sim/json.hh"

namespace remap::tools
{

namespace
{

/** A scalar leaf as it reads inside an element name. */
std::string
scalarText(const json::Value &v)
{
    switch (v.kind) {
      case json::Value::Kind::Number: {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.17g", v.num);
        return buf;
      }
      case json::Value::Kind::String:
        return v.str;
      case json::Value::Kind::Bool:
        return v.boolean ? "true" : "false";
      default:
        return "null";
    }
}

/** A stable identity for an array-of-objects element, so job arrays
 *  from two runs align by content rather than position: the
 *  workload and variant, plus every scalar of the element's "spec"
 *  (jobs of one variant differ only there). */
std::string
elementName(const json::Value &v)
{
    if (!v.isObject())
        return "";
    std::string name;
    if (v.has("workload") && v.at("workload").isString())
        name = v.at("workload").str;
    if (v.has("variant") && v.at("variant").isString())
        name += (name.empty() ? "" : ":") + v.at("variant").str;
    if (!name.empty() && v.has("spec") && v.at("spec").isObject()) {
        std::string spec;
        for (const auto &[key, child] : v.at("spec").obj) {
            if (child.isObject() || child.isArray())
                continue;
            spec += (spec.empty() ? "" : ",") + key + "=" +
                    scalarText(child);
        }
        if (!spec.empty())
            name += "(" + spec + ")";
    }
    if (name.empty() && v.has("name") && v.at("name").isString())
        name = v.at("name").str;
    return name;
}

void
flattenInto(const json::Value &v, const std::string &prefix,
            std::map<std::string, FlatEntry> &out)
{
    switch (v.kind) {
      case json::Value::Kind::Object:
        for (const auto &[key, child] : v.obj) {
            flattenInto(child,
                        prefix.empty() ? key : prefix + "." + key,
                        out);
        }
        return;
      case json::Value::Kind::Array: {
        // A name two elements share would make the later one
        // overwrite the earlier; the repeat takes "#index" instead.
        std::set<std::string> taken;
        for (std::size_t i = 0; i < v.arr.size(); ++i) {
            std::string name = elementName(v.arr[i]);
            if (name.empty())
                name = std::to_string(i);
            else if (!taken.insert(name).second)
                name += "#" + std::to_string(i);
            flattenInto(v.arr[i], prefix + "[" + name + "]", out);
        }
        return;
      }
      case json::Value::Kind::Number: {
        FlatEntry e;
        e.kind = FlatEntry::Kind::Number;
        e.num = v.num;
        out[prefix] = e;
        return;
      }
      case json::Value::Kind::String: {
        FlatEntry e;
        e.kind = FlatEntry::Kind::String;
        e.str = v.str;
        out[prefix] = e;
        return;
      }
      case json::Value::Kind::Bool: {
        FlatEntry e;
        e.kind = FlatEntry::Kind::Bool;
        e.num = v.boolean ? 1.0 : 0.0;
        e.str = v.boolean ? "true" : "false";
        out[prefix] = e;
        return;
      }
      case json::Value::Kind::Null: {
        FlatEntry e;
        e.kind = FlatEntry::Kind::Null;
        out[prefix] = e;
        return;
      }
    }
}

bool
matchesAny(const std::string &path,
           const std::vector<std::string> &subs)
{
    return std::any_of(subs.begin(), subs.end(),
                       [&](const std::string &s) {
                           return path.find(s) != std::string::npos;
                       });
}

bool
selected(const std::string &path, const DiffOptions &opt)
{
    if (!opt.only.empty() && !matchesAny(path, opt.only))
        return false;
    if (matchesAny(path, opt.ignore))
        return false;
    return true;
}

} // namespace

std::map<std::string, FlatEntry>
flatten(const json::Value &root)
{
    std::map<std::string, FlatEntry> out;
    flattenInto(root, "", out);
    return out;
}

DiffResult
diff(const std::map<std::string, FlatEntry> &a,
     const std::map<std::string, FlatEntry> &b, const DiffOptions &opt)
{
    DiffResult res;

    for (const auto &[path, ea] : a) {
        if (!selected(path, opt))
            continue;
        auto itb = b.find(path);
        if (itb == b.end()) {
            DiffEntry d;
            d.path = path;
            d.note = "missing in B";
            ++res.notes;
            res.entries.push_back(std::move(d));
            continue;
        }
        const FlatEntry &eb = itb->second;
        if (ea.kind != eb.kind) {
            DiffEntry d;
            d.path = path;
            d.note = "type mismatch";
            ++res.notes;
            res.entries.push_back(std::move(d));
            continue;
        }
        if (ea.kind == FlatEntry::Kind::String ||
            ea.kind == FlatEntry::Kind::Bool) {
            if (ea.str != eb.str) {
                DiffEntry d;
                d.path = path;
                d.note = "\"" + ea.str + "\" -> \"" + eb.str + "\"";
                ++res.notes;
                res.entries.push_back(std::move(d));
            }
            continue;
        }
        if (ea.kind != FlatEntry::Kind::Number)
            continue;

        ++res.compared;
        if (ea.num == eb.num)
            continue;
        DiffEntry d;
        d.path = path;
        d.a = ea.num;
        d.b = eb.num;
        const double scale = std::max(
            {std::fabs(ea.num), std::fabs(eb.num), 1e-12});
        d.rel = (eb.num - ea.num) / scale;
        d.violation = std::fabs(d.rel) > opt.tolerance;
        if (d.violation)
            ++res.violations;
        res.entries.push_back(std::move(d));
    }

    for (const auto &[path, eb] : b) {
        (void)eb;
        if (!selected(path, opt))
            continue;
        if (a.find(path) == a.end()) {
            DiffEntry d;
            d.path = path;
            d.note = "missing in A";
            ++res.notes;
            res.entries.push_back(std::move(d));
        }
    }

    // Violations first (largest excess first), then drifts, then
    // notes, path-alphabetical within each class.
    std::sort(res.entries.begin(), res.entries.end(),
              [](const DiffEntry &x, const DiffEntry &y) {
                  if (x.violation != y.violation)
                      return x.violation;
                  const bool xn = !x.note.empty();
                  const bool yn = !y.note.empty();
                  if (xn != yn)
                      return yn;
                  const double xr = std::fabs(x.rel);
                  const double yr = std::fabs(y.rel);
                  if (xr != yr)
                      return xr > yr;
                  return x.path < y.path;
              });
    return res;
}

std::map<std::string, Aggregate>
aggregate(const std::vector<std::map<std::string, FlatEntry>> &runs)
{
    std::map<std::string, Aggregate> out;
    for (const auto &run : runs) {
        for (const auto &[path, e] : run) {
            if (e.kind != FlatEntry::Kind::Number)
                continue;
            Aggregate &agg = out[path];
            if (agg.count == 0) {
                agg.min = e.num;
                agg.max = e.num;
            } else {
                agg.min = std::min(agg.min, e.num);
                agg.max = std::max(agg.max, e.num);
            }
            agg.sum += e.num;
            ++agg.count;
        }
    }
    return out;
}

bool
loadJsonFile(const std::string &path, json::Value &out,
             std::string *error)
{
    std::ifstream is(path, std::ios::binary);
    if (!is) {
        if (error)
            *error = "cannot open '" + path + "'";
        return false;
    }
    std::ostringstream buf;
    buf << is.rdbuf();
    std::string parse_error;
    if (!json::parse(buf.str(), out, &parse_error)) {
        if (error)
            *error = path + ": " + parse_error;
        return false;
    }
    return true;
}

void
dumpDiffJson(const DiffResult &res, const DiffOptions &opt,
             json::Writer &w)
{
    w.beginObject();
    w.kvExact("tolerance", opt.tolerance);
    w.kv("compared", static_cast<std::uint64_t>(res.compared));
    w.kv("violations", static_cast<std::uint64_t>(res.violations));
    w.kv("notes", static_cast<std::uint64_t>(res.notes));
    w.key("entries");
    w.beginArray();
    for (const DiffEntry &d : res.entries) {
        w.beginObject();
        w.kv("path", d.path);
        if (!d.note.empty()) {
            w.kv("note", d.note);
        } else {
            w.kvExact("a", d.a);
            w.kvExact("b", d.b);
            w.kvExact("rel", d.rel);
            w.kv("violation", d.violation);
        }
        w.endObject();
    }
    w.endArray();
    w.endObject();
}

void
dumpAggregateJson(const std::map<std::string, Aggregate> &aggs,
                  std::size_t runs,
                  const std::vector<std::string> &only,
                  json::Writer &w)
{
    auto matches = [&only](const std::string &path) {
        for (const std::string &s : only)
            if (path.find(s) != std::string::npos)
                return true;
        return only.empty();
    };
    w.beginObject();
    w.kv("runs", static_cast<std::uint64_t>(runs));
    w.key("paths");
    w.beginObject();
    for (const auto &[path, agg] : aggs) {
        if (!matches(path))
            continue;
        w.key(path);
        w.beginObject();
        w.kv("n", static_cast<std::uint64_t>(agg.count));
        w.kvExact("mean", agg.mean());
        w.kvExact("min", agg.min);
        w.kvExact("max", agg.max);
        w.endObject();
    }
    w.endObject();
    w.endObject();
}

} // namespace remap::tools
