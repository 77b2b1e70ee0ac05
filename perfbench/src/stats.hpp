/**
 * @file
 * Timing helpers, sample summaries and the in-memory span recorder of
 * the repository benchmark.
 */
#ifndef PERFBENCH_STATS_HPP
#define PERFBENCH_STATS_HPP

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "mbp/json/json.hpp"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** @return Seconds elapsed on the steady clock since @p start. */
double secondsSince(Clock::time_point start);

/** @return CPU seconds of the whole process (all threads, user + sys). */
double processCpuSeconds();

/** @return Peak resident set of the process in MB (10^6 bytes). */
double peakRssMb();

/** Median and quartiles of a sample, as Python's statistics module
 *  gives them (median(), quantiles(n=4) with the exclusive method). */
struct Summary
{
    std::size_t count = 0;
    double median = 0.0;
    double q1 = 0.0;
    double q3 = 0.0;
};

Summary summarize(std::vector<double> samples);

/** {"count", "median", "q1", "q3", "samples"} for a result document. */
mbp::json_t summaryJson(const std::vector<double> &samples);

/** Named sample series, one value per pass or per probe round. */
using Samples = std::map<std::string, std::vector<double>>;

/**
 * Records spans (name, start, end, parent, work count) in memory; they
 * are written out once, with the result, when the run ends. A null
 * Tracer pointer means an untraced run: Scope then records nothing.
 */
class Tracer
{
  public:
    struct Span
    {
        std::string name;   //!< "<layer>.<call>"
        std::string detail; //!< trace, predictor or other argument
        std::uint64_t id = 0;
        std::uint64_t parent = 0; //!< 0 = root
        double start_s = 0.0;     //!< since the tracer was created
        double end_s = 0.0;
        std::uint64_t count = 0;  //!< work items, e.g. branches
    };

    /** Opens a span on construction and closes it on destruction. */
    class Scope
    {
      public:
        Scope(Tracer *tracer, std::string name, std::string detail = "",
              std::uint64_t count = 0);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        /** @return Seconds since the span opened (also when untraced). */
        double elapsed() const { return secondsSince(start_); }

      private:
        Tracer *tracer_;
        std::size_t index_ = 0;
        std::uint64_t saved_parent_ = 0;
        Clock::time_point start_;
    };

    const std::vector<Span> &spans() const { return spans_; }
    mbp::json_t toJson() const;

  private:
    Clock::time_point origin_ = Clock::now();
    std::vector<Span> spans_;
    std::uint64_t current_ = 0;
};

/** Formats @p v with every significant digit (JSON number). */
std::string fullDigits(double v);

} // namespace perfbench

#endif // PERFBENCH_STATS_HPP
