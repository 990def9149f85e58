/**
 * @file
 * Bench-local span recorder for the traced run.
 *
 * The benchmark wraps each call into a library layer in span("module.fn",
 * ...). When tracing is off a span is one branch and a direct call, so the
 * same pipeline code serves the timed and the traced run. When tracing is
 * on every span is kept in memory (the traced run is serial, so there is
 * no locking) and written out at the end as Chrome trace-event JSON,
 * which Perfetto and chrome://tracing open directly.
 */

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <chrono>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the monotonic clock since an arbitrary origin.
inline double
nowSeconds()
{
    const std::chrono::duration<double> since =
        std::chrono::steady_clock::now().time_since_epoch();
    return since.count();
}

class Spans
{
  public:
    explicit Spans(bool enabled) : enabled_(enabled), origin_(nowSeconds())
    {
    }

    bool enabled() const { return enabled_; }

    /**
     * Runs @p fn inside a span named @p name ("module.function"), with an
     * optional free-form @p detail (program, layout). Returns fn's result.
     */
    template <class Fn>
    decltype(auto)
    span(const char *name, const std::string &detail, Fn &&fn)
    {
        if (!enabled_)
            return fn();
        const Open open(*this, name, detail);
        return fn();
    }

    /// Adds @p value to the named counter (kept only when enabled).
    void
    count(const std::string &name, double value)
    {
        if (enabled_)
            counters_[name] += value;
    }

    /// Counter value, 0 when never counted.
    double counter(const std::string &name) const;

    /// Summed duration of every span named exactly @p name.
    double seconds(const std::string &name) const;

    /**
     * Summed duration of the spans of module @p module ("core" matches
     * "core.try15", ...) that lie inside top-level spans named @p phase.
     */
    double moduleSeconds(const std::string &module,
                         const std::string &phase) const;

    /// Writes every span and the final counter values as Chrome
    /// trace-event JSON.
    void writeChromeJson(std::ostream &os) const;

  private:
    struct Record
    {
        std::string name;
        std::string detail;
        double start = 0.0;  ///< seconds since origin_
        double duration = 0.0;
        int parent = -1;  ///< index of the enclosing span, -1 at top level
    };

    /// RAII span: opens on construction, records on destruction.
    class Open
    {
      public:
        Open(Spans &spans, const char *name, const std::string &detail);
        ~Open();
        Open(const Open &) = delete;
        Open &operator=(const Open &) = delete;

      private:
        Spans &spans_;
        std::size_t index_;
    };

    bool enabled_;
    double origin_;
    std::vector<Record> records_;
    int open_ = -1;  ///< innermost open span
    std::map<std::string, double> counters_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H
