/**
 * @file
 * Timing helpers, sample summaries and the span recorder.
 */
#include "stats.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>

namespace perfbench
{

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
processCpuSeconds()
{
    timespec ts{};
    ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

double
peakRssMb()
{
    rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    return double(usage.ru_maxrss) * 1024.0 / 1e6; // ru_maxrss is KiB
}

Summary
summarize(std::vector<double> samples)
{
    Summary s;
    s.count = samples.size();
    if (samples.empty())
        return s;
    std::sort(samples.begin(), samples.end());
    const std::size_t n = samples.size();
    s.median = n % 2 ? samples[n / 2]
                     : (samples[n / 2 - 1] + samples[n / 2]) / 2.0;
    if (n < 2) {
        s.q1 = s.q3 = samples[0];
        return s;
    }
    // statistics.quantiles(data, n=4, method="exclusive").
    const std::size_t m = n + 1;
    auto quartile = [&](std::size_t i) {
        std::size_t j = i * m / 4;
        j = std::clamp<std::size_t>(j, 1, m - 2);
        const double delta = double(i * m) - double(j * 4);
        return (samples[j - 1] * (4.0 - delta) + samples[j] * delta) / 4.0;
    };
    s.q1 = quartile(1);
    s.q3 = quartile(3);
    return s;
}

mbp::json_t
summaryJson(const std::vector<double> &samples)
{
    const Summary s = summarize(samples);
    mbp::json_t values = mbp::json_t::array();
    for (double v : samples)
        values.push_back(v);
    mbp::json_t out = mbp::json_t::object({
        {"count", std::uint64_t(s.count)},
        {"median", s.median},
        {"q1", s.q1},
        {"q3", s.q3},
    });
    out["samples"] = std::move(values);
    return out;
}

Tracer::Scope::Scope(Tracer *tracer, std::string name, std::string detail,
                     std::uint64_t count)
    : tracer_(tracer), start_(Clock::now())
{
    if (tracer_ == nullptr)
        return;
    Span span;
    span.name = std::move(name);
    span.detail = std::move(detail);
    span.id = tracer_->spans_.size() + 1;
    span.parent = tracer_->current_;
    span.start_s =
        std::chrono::duration<double>(start_ - tracer_->origin_).count();
    span.count = count;
    index_ = tracer_->spans_.size();
    saved_parent_ = tracer_->current_;
    tracer_->current_ = span.id;
    tracer_->spans_.push_back(std::move(span));
}

Tracer::Scope::~Scope()
{
    if (tracer_ == nullptr)
        return;
    tracer_->spans_[index_].end_s =
        std::chrono::duration<double>(Clock::now() - tracer_->origin_)
            .count();
    tracer_->current_ = saved_parent_;
}

mbp::json_t
Tracer::toJson() const
{
    mbp::json_t out = mbp::json_t::array();
    for (const Span &span : spans_) {
        out.push_back(mbp::json_t::object({
            {"name", span.name},
            {"detail", span.detail},
            {"id", span.id},
            {"parent", span.parent},
            {"start_s", span.start_s},
            {"end_s", span.end_s},
            {"count", span.count},
        }));
    }
    return out;
}

std::string
fullDigits(double v)
{
    if (!std::isfinite(v))
        v = 0.0;
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

} // namespace perfbench
