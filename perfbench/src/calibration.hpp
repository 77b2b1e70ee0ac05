/**
 * @file
 * Host-speed calibration of the repository benchmark.
 *
 * Host speed on a shared VM drifts by 20-60% for seconds to minutes at a
 * time, and it moves the wall and CPU time of every pass alike. The
 * calibration is fixed work of the benchmark's own: a gshare-style
 * table walk over a fixed pseudo-random branch stream, which no change
 * to the library touches. Timed before and after each pass, on as many
 * threads as the pass runs, it says how fast the host ran meanwhile.
 * The end-to-end times are scaled by it to a host on which one round
 * takes kNominalSeconds. README.md has the measurements behind this.
 *
 * The lanes live in one mapping of their own, at fixed page offsets, so
 * their layout does not depend on the allocator's state. Taken from the
 * heap after a pass, it did: two-lane rounds ran 25-50% slower on some
 * seeds than on others, in every run of those seeds.
 */
#ifndef PERFBENCH_CALIBRATION_HPP
#define PERFBENCH_CALIBRATION_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench
{

class Calibration
{
  public:
    /** One round's time on the host the metrics are scaled to. */
    static constexpr double kNominalSeconds = 0.07;

    /** One timed round: every lane walks its stream once. */
    struct Round
    {
        double wall_s = 0.0; //!< until the last lane finished
        double cpu_s = 0.0;  //!< process CPU per lane
    };

    /** @param lanes Walks run at once, one thread each. */
    explicit Calibration(unsigned lanes);
    ~Calibration();
    Calibration(const Calibration &) = delete;
    Calibration &operator=(const Calibration &) = delete;

    Round run();

    /** Host slowness over a pass timed between @p before and @p after:
     *  1 on the nominal host, 1.3 on one 30% slower. */
    static double wallScale(const Round &before, const Round &after);
    static double cpuScale(const Round &before, const Round &after);

  private:
    struct Lane
    {
        std::uint32_t *sites = nullptr;
        std::uint8_t *outcomes = nullptr;
        std::int8_t *counters = nullptr;
        std::uint32_t *site_misses = nullptr;
        std::uint64_t misses = 0; //!< kept, so the walk is not elided

        void fill();
        void walk();
    };

    void *memory_ = nullptr;
    std::size_t bytes_ = 0;
    std::vector<Lane> lanes_;
};

} // namespace perfbench

#endif // PERFBENCH_CALIBRATION_HPP
