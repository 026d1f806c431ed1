#include "sim/stats.hh"

#include "sim/json.hh"

namespace remap
{

void
StatGroup::dump(std::ostream &os) const
{
    for (const auto &[stat_name, counter] : counters_)
        os << name_ << '.' << stat_name << ' ' << counter->value()
           << '\n';
}

void
StatGroup::dumpJson(json::Writer &w) const
{
    w.key(name_);
    w.beginObject();
    for (const auto &[stat_name, counter] : counters_)
        w.kv(stat_name, counter->value());
    w.endObject();
}

void
StatGroup::reset()
{
    for (auto &[stat_name, counter] : counters_)
        counter->reset();
}

void
StatGroup::save(snap::Serializer &s) const
{
    s.section("statgroup");
    s.str(name_);
    s.u32(static_cast<std::uint32_t>(counters_.size()));
    for (const auto &[stat_name, counter] : counters_) {
        s.str(stat_name);
        counter->save(s);
    }
}

void
StatGroup::restore(snap::Deserializer &d)
{
    if (!d.section("statgroup"))
        return;
    if (d.str() != name_) {
        d.fail("stat group name mismatch");
        return;
    }
    if (d.count() != counters_.size()) {
        d.fail("stat counter set mismatch");
        return;
    }
    for (auto &[stat_name, counter] : counters_) {
        if (d.str() != stat_name) {
            d.fail("stat counter name mismatch");
            return;
        }
        counter->restore(d);
    }
}

} // namespace remap
