#include "spans.h"

#include <cstdio>

namespace perfbench {

Spans::Open::Open(Spans &spans, const char *name, const std::string &detail)
    : spans_(spans), index_(spans.records_.size())
{
    Record record;
    record.name = name;
    record.detail = detail;
    record.parent = spans.open_;
    record.start = nowSeconds() - spans.origin_;
    spans.records_.push_back(std::move(record));
    spans.open_ = static_cast<int>(index_);
}

Spans::Open::~Open()
{
    Record &record = spans_.records_[index_];
    record.duration = nowSeconds() - spans_.origin_ - record.start;
    spans_.open_ = record.parent;
}

double
Spans::counter(const std::string &name) const
{
    const auto found = counters_.find(name);
    return found == counters_.end() ? 0.0 : found->second;
}

double
Spans::seconds(const std::string &name) const
{
    double total = 0.0;
    for (const Record &record : records_) {
        if (record.name == name)
            total += record.duration;
    }
    return total;
}

double
Spans::moduleSeconds(const std::string &module,
                     const std::string &phase) const
{
    const std::string prefix = module + ".";
    double total = 0.0;
    for (const Record &record : records_) {
        if (record.name.compare(0, prefix.size(), prefix) != 0)
            continue;
        int top = record.parent;
        while (top >= 0 && records_[static_cast<std::size_t>(top)].parent >= 0)
            top = records_[static_cast<std::size_t>(top)].parent;
        if (top >= 0 && records_[static_cast<std::size_t>(top)].name == phase)
            total += record.duration;
    }
    return total;
}

namespace {

/// JSON string literal for @p text (names and details are plain ASCII,
/// but quote and backslash are escaped anyway).
std::string
quoted(const std::string &text)
{
    std::string out = "\"";
    for (const char c : text) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

}  // namespace

void
Spans::writeChromeJson(std::ostream &os) const
{
    // Complete ("X") events in microseconds; nesting follows from the
    // intervals on the single thread. Counters go out as one "C" event at
    // the end of the run.
    char buffer[96];
    double end = 0.0;
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    for (const Record &record : records_) {
        const std::string module = record.name.substr(0, record.name.find('.'));
        std::snprintf(buffer, sizeof(buffer), "\"ts\":%.3f,\"dur\":%.3f",
                      record.start * 1e6, record.duration * 1e6);
        os << "{\"name\":" << quoted(record.name)
           << ",\"cat\":" << quoted(module)
           << ",\"ph\":\"X\",\"pid\":1,\"tid\":1," << buffer
           << ",\"args\":{\"detail\":" << quoted(record.detail)
           << ",\"parent\":"
           << (record.parent >= 0
                   ? quoted(records_[static_cast<std::size_t>(record.parent)]
                                .name)
                   : std::string("null"))
           << "}},\n";
        if (record.start + record.duration > end)
            end = record.start + record.duration;
    }
    std::snprintf(buffer, sizeof(buffer), "\"ts\":%.3f", end * 1e6);
    os << "{\"name\":\"counters\",\"ph\":\"C\",\"pid\":1,\"tid\":1," << buffer
       << ",\"args\":{";
    bool first = true;
    for (const auto &[name, value] : counters_) {
        std::snprintf(buffer, sizeof(buffer), "%.17g", value);
        os << (first ? "" : ",") << quoted(name) << ":" << buffer;
        first = false;
    }
    os << "}}\n]}\n";
}

}  // namespace perfbench
