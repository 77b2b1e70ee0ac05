/**
 * @file
 * mbp_perfbench: the repository benchmark. One process sets up a
 * workload's inputs from a seed, then repeats the mbp_sweep pipeline —
 * sweep::run on the campaign, the document serialized and written to
 * disk — and reports the end-to-end metrics (untraced run) or the
 * per-layer metrics (traced run). Every cell of every pass is checked
 * against reference misprediction counts. See README.md.
 *
 *   mbp_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                 --work DIR --reference FILE [--results DIR]
 *                 [--plant wrong-reference|truncated-trace|missing-trace]
 *   mbp_perfbench --write-reference FILE --work DIR
 *
 * The last stdout line is the result object. Exit 0 when every cell was
 * correct, 1 when any cell failed or mismatched, 2 on a usage or set-up
 * error (no result line).
 */
#include <cpuid.h>
#include <malloc.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "calibration.hpp"
#include "layers.hpp"
#include "mbp/sim/simulator.hpp"
#include "mbp/sweep/sweep.hpp"
#include "reference.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace fs = std::filesystem;
using mbp::json_t;

namespace perfbench
{
namespace
{

constexpr int kSetupReps = 5;
constexpr std::size_t kMinPasses = 5;
constexpr std::size_t kMinRounds = 3;

struct Options
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;
    std::string work_dir;
    std::string reference;
    std::string results_dir;
    std::string plant;
    std::string write_reference;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "mbp_perfbench: %s\n"
                 "usage: mbp_perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --work DIR --reference FILE [--results DIR]\n"
                 "                     [--plant wrong-reference|"
                 "truncated-trace|missing-trace]\n"
                 "       mbp_perfbench --write-reference FILE --work DIR\n",
                 why);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + key).c_str());
        const std::string value = argv[++i];
        char *end = nullptr;
        if (key == "--workload") {
            o.workload = value;
        } else if (key == "--seed") {
            o.seed = std::strtoull(value.c_str(), &end, 10);
            if (value.empty() || *end != '\0')
                usage("--seed takes an unsigned integer");
        } else if (key == "--seconds") {
            o.seconds = std::strtod(value.c_str(), &end);
            if (value.empty() || *end != '\0' || !(o.seconds > 0.0))
                usage("--seconds takes a positive number");
        } else if (key == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace takes 0 or 1");
            o.trace = value == "1";
        } else if (key == "--work") {
            o.work_dir = value;
        } else if (key == "--reference") {
            o.reference = value;
        } else if (key == "--results") {
            o.results_dir = value;
        } else if (key == "--plant") {
            if (value != "wrong-reference" && value != "truncated-trace" &&
                value != "missing-trace")
                usage("unknown --plant");
            o.plant = value;
        } else if (key == "--write-reference") {
            o.write_reference = value;
        } else {
            usage(("unknown argument " + key).c_str());
        }
    }
    if (o.work_dir.empty())
        usage("--work is required");
    if (o.write_reference.empty() &&
        (o.workload.empty() || o.reference.empty()))
        usage("--workload and --reference are required");
    return o;
}

std::string
cpuModel()
{
    unsigned regs[12] = {};
    if (__get_cpuid_max(0x80000000, nullptr) < 0x80000004)
        return "unknown";
    for (unsigned leaf = 0; leaf < 3; ++leaf)
        __get_cpuid(0x80000002 + leaf, &regs[4 * leaf], &regs[4 * leaf + 1],
                    &regs[4 * leaf + 2], &regs[4 * leaf + 3]);
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string model = brand;
    model.erase(0, model.find_first_not_of(' '));
    return model;
}

/** Host and build identity; results are comparable only when equal. */
json_t
fingerprint()
{
    std::string sanitizers = PERFBENCH_SANITIZE;
    if (sanitizers == "OFF")
        sanitizers.clear();
#if defined(__SANITIZE_ADDRESS__)
    sanitizers += sanitizers.empty() ? "address" : "+address";
#endif
#if defined(__SANITIZE_THREAD__)
    sanitizers += sanitizers.empty() ? "thread" : "+thread";
#endif
#if defined(__clang__)
    const std::string compiler = "clang " __clang_version__;
#else
    const std::string compiler = "gcc " __VERSION__;
#endif
    return json_t::object({
        {"nproc", std::uint64_t(std::thread::hardware_concurrency())},
        {"cpu_model", cpuModel()},
        {"compiler", compiler},
        {"build_type", PERFBENCH_BUILD_TYPE},
        {"sanitizers", sanitizers},
        {"library_version", mbp::kMbpVersion},
    });
}

/** One pass of the pipeline under test. */
struct Pass
{
    double wall_s = 0.0;  //!< sweep::run through the write
    double cpu_s = 0.0;   //!< process CPU over the same interval
    double sweep_s = 0.0; //!< sweep::run alone
    double json_s = 0.0;  //!< dump plus write
    double busy_s = 0.0;  //!< sum of the cells' simulation_time
    std::uint64_t doc_bytes = 0;
    std::uint64_t branches = 0; //!< of the cells that ran correctly
    std::size_t cells = 0;
    std::size_t failed = 0;
    json_t cache; //!< aggregate trace_cache block
};

Pass
runPass(const mbp::sweep::Campaign &campaign, const WorkloadDef &w,
        const Inputs &in, const json_t &reference, const std::string &out,
        Tracer *tracer, std::vector<std::string> &failures)
{
    Pass pass;
    json_t doc;
    {
        Tracer::Scope span(tracer, "pass", w.name);
        const double cpu_start = processCpuSeconds();
        {
            Tracer::Scope s(tracer, "sweep.run", w.name);
            doc = mbp::sweep::run(campaign);
            pass.sweep_s = s.elapsed();
        }
        {
            Tracer::Scope s(tracer, "json.dump", w.name);
            std::string text;
            {
                Tracer::Scope d(tracer, "json.json_t::dump");
                text = doc.dump(2) + "\n";
            }
            Tracer::Scope write(tracer, "json.write", out);
            std::FILE *f = std::fopen(out.c_str(), "wb");
            bool ok = f != nullptr &&
                      std::fwrite(text.data(), 1, text.size(), f) ==
                          text.size();
            if (f != nullptr)
                ok = std::fclose(f) == 0 && ok;
            if (!ok)
                failures.push_back("cannot write " + out);
            pass.doc_bytes = text.size();
            pass.json_s = s.elapsed();
        }
        pass.cpu_s = processCpuSeconds() - cpu_start;
        pass.wall_s = span.elapsed();
    }

    for (const json_t &cell : doc.find("cells")->elements()) {
        ++pass.cells;
        const std::string &path = cell.find("trace")->asString();
        const auto it = std::find(in.paths.begin(), in.paths.end(), path);
        const std::size_t t = std::size_t(it - in.paths.begin());
        const std::string &pred = cell.find("predictor")->asString();
        const json_t &result = *cell.find("result");
        const std::string why =
            t < in.paths.size()
                ? checkCell(reference, pred, w.traces[t].name, result)
                : "unknown trace " + path;
        if (!why.empty()) {
            ++pass.failed;
            failures.push_back(pred + " on " + path + ": " + why);
            continue;
        }
        pass.branches += in.branches[t];
        pass.busy_s += result.find("metrics")
                           ->find("simulation_time")
                           ->asDouble();
    }
    pass.cache = *doc.find("aggregate")->find("trace_cache");
    return pass;
}

double
median(const Samples &samples, const std::string &key)
{
    const auto it = samples.find(key);
    return it == samples.end() ? 0.0 : summarize(it->second).median;
}

struct Metric
{
    std::string name;
    std::string unit;
    double value = 0.0;
};

/** The per-layer metrics, from the traced run's medians. */
std::vector<Metric>
layerMetrics(const WorkloadDef &w, const WorkloadDef &fw, const Samples &s)
{
    std::vector<Metric> m;
    auto add = [&](std::string name, std::string unit, double value) {
        m.push_back({std::move(name), std::move(unit), value});
    };
    for (const char *key :
         {"compress.decode_ns_per_branch", "sbbt.stream_ns_per_branch",
          "sbbt.arena_load_ns_per_branch"})
        add(key, "ns", median(s, key));
    add("compress.prefetch_stall_share", "1",
        median(s, "compress.prefetch_stall_share"));
    add("sbbt.arena_mb", "MB", median(s, "sbbt.arena_mb"));
    add("sbbt.store_acquire_s", "s", median(s, "sbbt.store_acquire_s"));
    add("sbbt.sidecar_write_s", "s", median(s, "sbbt.sidecar_write_s"));
    for (const std::string &p : virtualProbePredictors()) {
        const double off = median(s, "sim.virtual_ns_per_branch." + p);
        add("sim.virtual_ns_per_branch." + p, "ns", off);
        add("sim.accounting_ns_per_branch." + p, "ns",
            median(s, "sim.collect_ns_per_branch." + p) - off);
    }
    for (const std::string &p : fusedProbePredictors())
        add("predictors." + p + ".fused_ns_per_branch", "ns",
            median(s, "predictors." + p + ".fused_ns_per_branch"));
    for (const TraceDef &t : fw.traces) {
        const std::string key = "frontend.ns_per_branch." + t.name.substr(3);
        add(key, "ns", median(s, key));
    }
    add("frontend.btb_hit_ratio", "1", median(s, "frontend.btb_hit_ratio"));
    add("frontend.indirect_hit_ratio", "1",
        median(s, "frontend.indirect_hit_ratio"));

    // Serial work of one pass, modelled from the probes: getting the
    // traces in, the per-cell kernels, and the document.
    double decode_s = 0.0, kernel_s = 0.0;
    if (!w.in_memory)
        decode_s = double(w.predictors.size()) * median(s, "sbbt.stream_s");
    else if (w.arena_cache)
        decode_s = median(s, "sbbt.store_acquire_s");
    else
        decode_s = median(s, "sbbt.arena_load_s");
    for (const std::string &p : w.predictors) {
        if (w.frontend)
            kernel_s = median(s, "frontend.s");
        else if (!w.fused)
            kernel_s += median(s, "sim.collect_s." + p);
        else
            kernel_s += median(s, "predictors." + p + ".fused_s");
    }
    const double json_s = median(s, "json.dump_s");
    const double sweep_s = median(s, "sweep.run_s");
    const double load_s = w.in_memory ? decode_s : 0.0;
    add("sweep.run_s", "s", sweep_s);
    add("sweep.pool_idle_share", "1",
        sweep_s > 0.0 ? 1.0 - (median(s, "sweep.busy_s") + load_s) /
                                  (sweep_s * double(w.jobs))
                      : 0.0);
    for (const char *key : {"hits", "misses", "failed_waits", "mapped_loads"})
        add(std::string("sweep.cache_") + key, "count",
            median(s, std::string("sweep.cache_") + key));
    add("json.dump_s", "s", json_s);
    add("json.doc_mb", "MB", median(s, "json.doc_mb"));
    add("tracegen.generate_s", "s", median(s, "tracegen.generate_s"));
    const double total = decode_s + kernel_s + json_s;
    add("pass.decode_share", "1", total > 0.0 ? decode_s / total : 0.0);
    add("pass.kernel_share", "1", total > 0.0 ? kernel_s / total : 0.0);
    add("pass.json_share", "1", total > 0.0 ? json_s / total : 0.0);
    add("trace.pass_s", "s", median(s, "pass_s"));
    add("trace.overhead_s", "s", median(s, "trace.overhead_s"));
    return m;
}

void
recordPass(const Pass &p, Samples &s)
{
    s["pass_s"].push_back(p.wall_s);
    if (p.branches == 0)
        return;
    s["raw_branches_per_s"].push_back(double(p.branches) / p.wall_s);
    s["raw_cpu_ns_per_branch"].push_back(p.cpu_s * 1e9 /
                                         double(p.branches));
}

/** Records an untraced pass timed between two calibration rounds, with
 *  its end-to-end times scaled to the nominal host. */
void
recordScaledPass(const Pass &p, const Calibration::Round &before,
                 const Calibration::Round &after, Samples &s)
{
    recordPass(p, s);
    s["calibration_s"].push_back(after.wall_s);
    const double wall_scale = Calibration::wallScale(before, after);
    s["host_scale"].push_back(wall_scale);
    if (p.branches == 0)
        return;
    s["branches_per_s"].push_back(double(p.branches) * wall_scale /
                                  p.wall_s);
    s["cpu_ns_per_branch"].push_back(
        p.cpu_s / Calibration::cpuScale(before, after) * 1e9 /
        double(p.branches));
}

void
recordTracedPass(const Pass &p, Samples &s)
{
    s["traced_pass_s"].push_back(p.wall_s);
    s["sweep.run_s"].push_back(p.sweep_s);
    s["sweep.busy_s"].push_back(p.busy_s);
    s["json.dump_s"].push_back(p.json_s);
    s["json.doc_mb"].push_back(double(p.doc_bytes) / 1e6);
    for (const char *key : {"hits", "misses", "failed_waits", "mapped_loads"})
        s[std::string("sweep.cache_") + key].push_back(
            double(p.cache.find(key)->asUint()));
}

/** Breaks the inputs or the reference on purpose (the self-tests). */
void
plant(const std::string &what, const WorkloadDef &w, const Inputs &in,
      json_t &reference)
{
    if (what == "wrong-reference") {
        json_t &counts =
            reference[w.predictors[0]][w.traces[0].name]["mispredictions"];
        counts = counts.asUint() + 1;
    } else if (what == "truncated-trace") {
        fs::resize_file(in.paths[0], fs::file_size(in.paths[0]) / 2);
    } else if (what == "missing-trace") {
        fs::remove(in.paths[0]);
    }
}

json_t
referenceFor(const Options &o, const WorkloadDef &w, const Inputs &in)
{
    std::string error;
    json_t ref = o.seed == kDefaultSeed
                     ? loadReference(o.reference, w, error)
                     : computeReference(w, in, error);
    if (ref.isNull())
        throw std::runtime_error(error);
    return ref;
}

int
writeReference(const Options &o)
{
    json_t all = json_t::object();
    for (const WorkloadDef &w : workloads()) {
        Inputs in;
        std::string error;
        if (!setUp(w, kDefaultSeed, o.work_dir + "/reference-" + w.name,
                   nullptr, in, error) ||
            (all[w.name] = computeReference(w, in, error)).isNull()) {
            std::fprintf(stderr, "mbp_perfbench: %s\n", error.c_str());
            return 2;
        }
    }
    json_t doc = json_t::object({
        {"seed", kDefaultSeed},
        {"computed_by", "mbp_perfbench --write-reference (virtual "
                        "streaming simulate / frontend::simulate)"},
        {"library_version", mbp::kMbpVersion},
    });
    doc["workloads"] = std::move(all);
    std::ofstream out(o.write_reference);
    out << doc.dump(2) << "\n";
    return out ? 0 : 2;
}

/**
 * peak_rss_mb: the peak resident set of a child process that sets up
 * the inputs once and runs one campaign pass. The child pins glibc's
 * mmap threshold, so every large block is mapped on allocation and
 * unmapped on free, and the peak follows the memory the program holds.
 * With glibc's adaptive threshold the peak after one pass fell on
 * about 121 MB or about 169 MB depending on the seed (arena-cheap),
 * from where freed blocks happened to be reused. Must be called while
 * the process has one thread.
 */
double
memoryProbe(const Options &o, const WorkloadDef &w)
{
    const std::string dir = o.work_dir + "/memory";
    int fds[2];
    if (::pipe(fds) != 0)
        throw std::runtime_error("memory probe: pipe failed");
    std::fflush(nullptr);
    const pid_t pid = ::fork();
    if (pid < 0)
        throw std::runtime_error("memory probe: fork failed");
    if (pid == 0) {
        ::close(fds[0]);
        double mb = 0.0;
        try {
            ::mallopt(M_MMAP_THRESHOLD, 128 * 1024);
            Inputs in;
            std::string error;
            if (setUp(w, o.seed, dir, nullptr, in, error)) {
                // Counts are checked in the timed process, not here.
                std::vector<std::string> unchecked;
                runPass(makeCampaign(w, in), w, in, json_t::object(),
                        dir + "/sweep.json", nullptr, unchecked);
                mb = peakRssMb();
            }
        } catch (...) {
        }
        const bool sent = ::write(fds[1], &mb, sizeof mb) == sizeof mb;
        ::_exit(sent ? 0 : 1);
    }
    ::close(fds[1]);
    double mb = 0.0;
    const bool got = ::read(fds[0], &mb, sizeof mb) == sizeof mb;
    ::close(fds[0]);
    int status = 0;
    ::waitpid(pid, &status, 0);
    fs::remove_all(dir);
    if (!got || !(mb > 0.0))
        throw std::runtime_error("memory probe: set-up or pass failed");
    return mb;
}

int
run(const Options &o)
{
    const WorkloadDef *wp = findWorkload(o.workload);
    if (wp == nullptr)
        usage(("unknown workload " + o.workload).c_str());
    const WorkloadDef &w = *wp;
    const WorkloadDef &fw = *findWorkload("mapped-frontend");
    Tracer tracer;
    Tracer *traced = o.trace ? &tracer : nullptr;
    Samples samples;
    // First, while this process has one thread.
    const double probe_rss_mb = o.trace ? 0.0 : memoryProbe(o, w);

    // Set-up runs on one thread, so one calibration lane scales it; a
    // pass runs as many lanes as the campaign has workers.
    Calibration setup_calibration(1);
    Calibration pass_calibration(w.jobs);

    // Set-up, several times: setup_s is the median.
    Calibration::Round last_round = setup_calibration.run();
    Inputs in;
    std::string error;
    std::string last_dir;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        const std::string dir = o.work_dir + "/setup-" + std::to_string(rep);
        const Clock::time_point start = Clock::now();
        if (!setUp(w, o.seed, dir, traced, in, error))
            throw std::runtime_error("set-up failed: " + error);
        const double setup_s = secondsSince(start);
        const Calibration::Round after = setup_calibration.run();
        samples["raw_setup_s"].push_back(setup_s);
        samples["setup_s"].push_back(
            setup_s / Calibration::wallScale(last_round, after));
        samples["tracegen.generate_s"].push_back(in.generate_s);
        last_round = after;
        if (!last_dir.empty())
            fs::remove_all(last_dir);
        last_dir = dir;
    }

    // Where the peak RSS was reached, for the result file.
    json_t peak_rss = json_t::object({{"after_setup_mb", peakRssMb()}});
    json_t reference = referenceFor(o, w, in);
    Inputs fe_in = w.frontend ? in : Inputs{};
    json_t fe_reference = w.frontend ? reference : json_t();
    if (o.trace && !w.frontend) {
        if (!setUp(fw, o.seed, o.work_dir + "/frontend", &tracer, fe_in,
                   error))
            throw std::runtime_error("front-end set-up failed: " + error);
        fe_reference = referenceFor(o, fw, fe_in);
    }
    if (!o.plant.empty())
        plant(o.plant, w, in, reference);

    const mbp::sweep::Campaign campaign = makeCampaign(w, in);
    const std::string doc_path = o.work_dir + "/sweep.json";
    std::vector<std::string> failures;
    std::size_t attempted = 0, failed = 0;
    auto pass = [&](Tracer *t) {
        Pass p = runPass(campaign, w, in, reference, doc_path, t, failures);
        attempted += p.cells;
        failed += p.failed;
        return p;
    };

    pass(nullptr); // warm-up: page cache, allocator, lazy set-up
    peak_rss["after_warmup_mb"] = peakRssMb();
    peak_rss["probe_mb"] = probe_rss_mb;
    const Clock::time_point start = Clock::now();
    std::size_t rounds = 0;
    if (!o.trace) {
        // Each pass sits between two calibration rounds.
        last_round = pass_calibration.run();
        while (rounds < kMinPasses || secondsSince(start) < o.seconds) {
            const Pass p = pass(nullptr);
            const Calibration::Round after = pass_calibration.run();
            recordScaledPass(p, last_round, after, samples);
            last_round = after;
            ++rounds;
        }
    } else {
        ProbeContext ctx;
        ctx.workload = &w;
        ctx.inputs = &in;
        // A front-end reference holds front-end counts, which the
        // conditional-only probes do not produce; only the front-end
        // probe is checked then.
        ctx.reference = w.frontend ? nullptr : &reference;
        ctx.frontend_workload = &fw;
        ctx.frontend_inputs = &fe_in;
        ctx.frontend_reference = &fe_reference;
        ctx.scratch_dir = o.work_dir;
        while (rounds < kMinRounds || secondsSince(start) < o.seconds) {
            // Two adjacent untraced/traced pairs, in alternating order;
            // the overhead is the median paired difference, which slow
            // host drift cancels out of.
            for (int i = 0; i < 2; ++i) {
                const bool traced_first = (rounds + std::size_t(i)) % 2;
                const Pass first = pass(traced_first ? &tracer : nullptr);
                const Pass second = pass(traced_first ? nullptr : &tracer);
                const Pass &plain = traced_first ? second : first;
                const Pass &spanned = traced_first ? first : second;
                recordPass(plain, samples);
                recordTracedPass(spanned, samples);
                samples["trace.overhead_s"].push_back(spanned.wall_s -
                                                      plain.wall_s);
            }
            std::size_t probe_cells = 0;
            const std::size_t before = failures.size();
            probeRound(ctx, tracer, samples, probe_cells, failures);
            attempted += probe_cells;
            failed += failures.size() - before;
            ++rounds;
        }
    }
    const double measured_s = secondsSince(start);

    std::vector<Metric> metrics;
    if (!o.trace) {
        metrics = {
            {"branches_per_s", "1/s", median(samples, "branches_per_s")},
            {"cpu_ns_per_branch", "ns", median(samples, "cpu_ns_per_branch")},
            {"peak_rss_mb", "MB", probe_rss_mb},
            {"setup_s", "s", median(samples, "setup_s")},
            {"correct_share", "1",
             attempted ? double(attempted - failed) / double(attempted)
                       : 0.0},
        };
    } else {
        metrics = layerMetrics(w, fw, samples);
    }
    const bool correct = failed == 0 && attempted > 0;

    // Human-readable report, then the result document on disk.
    std::printf("perfbench %s seed=%llu trace=%d: %zu %s in %.1f s, "
                "%zu/%zu cells correct\n",
                w.name.c_str(), (unsigned long long)o.seed, int(o.trace),
                rounds, o.trace ? "rounds" : "passes", measured_s,
                attempted - failed, attempted);
    for (const char *key :
         {"raw_setup_s", "setup_s", "pass_s", "calibration_s",
          "raw_branches_per_s", "branches_per_s", "cpu_ns_per_branch"}) {
        const auto it = samples.find(key);
        if (it == samples.end())
            continue;
        const Summary s = summarize(it->second);
        std::printf("  %-20s n=%zu median=%.6g q1=%.6g q3=%.6g\n", key,
                    s.count, s.median, s.q1, s.q3);
    }
    for (const Metric &m : metrics)
        std::printf("  %-40s %14.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    for (std::size_t i = 0; i < failures.size() && i < 10; ++i)
        std::printf("  FAILED: %s\n", failures[i].c_str());

    json_t result = json_t::object({
        {"workload", w.name},
        {"seed", o.seed},
        {"trace", o.trace},
        {"seconds", o.seconds},
        {"correct", correct},
        {"attempted", std::uint64_t(attempted)},
        {"failed", std::uint64_t(failed)},
    });
    result["fingerprint"] = fingerprint();
    peak_rss["at_end_mb"] = peakRssMb();
    result["peak_rss"] = std::move(peak_rss);
    json_t sample_json = json_t::object();
    for (const auto &[key, values] : samples)
        sample_json[key] = summaryJson(values);
    result["samples"] = std::move(sample_json);
    json_t metric_json = json_t::object();
    for (const Metric &m : metrics)
        metric_json[m.name] =
            json_t::object({{"value", m.value}, {"unit", m.unit}});
    result["metrics"] = std::move(metric_json);
    json_t failure_json = json_t::array();
    for (const std::string &f : failures)
        failure_json.push_back(f);
    result["failures"] = std::move(failure_json);
    if (o.trace)
        result["spans"] = tracer.toJson();
    if (!o.results_dir.empty()) {
        fs::create_directories(o.results_dir);
        const std::string path =
            o.results_dir + "/" + w.name + "-seed" + std::to_string(o.seed) +
            (o.trace ? "-traced-" : "-") +
            std::to_string(std::chrono::system_clock::now()
                               .time_since_epoch()
                               .count()) +
            ".json";
        std::ofstream out(path);
        out << result.dump(1) << "\n";
        std::printf("  result: %s\n", path.c_str());
    }

    std::string line = "{\"correct\": ";
    line += correct ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(attempted);
    line += ", \"failed\": " + std::to_string(failed);
    line += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        line += i ? ", " : "";
        line += "\"" + metrics[i].name + "\": {\"value\": " +
                fullDigits(metrics[i].value) + ", \"unit\": \"" +
                metrics[i].unit + "\"}";
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    try {
        const perfbench::Options o = perfbench::parseArgs(argc, argv);
        std::filesystem::create_directories(o.work_dir);
        return o.write_reference.empty() ? perfbench::run(o)
                                         : perfbench::writeReference(o);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "mbp_perfbench: %s\n", e.what());
        return 2;
    }
}
