/**
 * @file
 * Google-benchmark microbenchmarks for the suite's hot paths: SBBT packet
 * codec, compression codecs, utility primitives and per-predictor
 * steady-state throughput. These are the numbers behind Table III's
 * gradient: the faster the predictor, the more the simulator/trace path
 * dominates.
 */
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <optional>
#include <random>
#include <string>

#include "bench_predictors.hpp"
#include "mbp/compress/flz.hpp"
#include "mbp/predictors/tage.hpp"
#include "mbp/predictors/tagged_history.hpp"
#include "mbp/compress/streams.hpp"
#include "mbp/sbbt/format.hpp"
#include "mbp/sbbt/mem_trace.hpp"
#include "mbp/sbbt/reader.hpp"
#include "mbp/sbbt/writer.hpp"
#include "mbp/tracegen/generator.hpp"
#include "mbp/utils/flat_hash_map.hpp"
#include "mbp/utils/hash.hpp"

namespace
{

using namespace mbp;

const std::vector<tracegen::TraceEvent> &
eventBuffer()
{
    static const auto events = [] {
        tracegen::WorkloadSpec spec;
        spec.seed = 7;
        spec.num_instr = 2'000'000;
        return tracegen::generateAll(spec);
    }();
    return events;
}

std::vector<std::uint8_t>
packetBytes()
{
    std::vector<std::uint8_t> bytes;
    for (const auto &ev : eventBuffer()) {
        auto packet = sbbt::encodePacket({ev.branch, ev.instr_gap});
        bytes.insert(bytes.end(), packet.begin(), packet.end());
    }
    return bytes;
}

void
BM_SbbtEncodePacket(benchmark::State &state)
{
    const auto &events = eventBuffer();
    std::size_t i = 0;
    for (auto _ : state) {
        const auto &ev = events[i];
        benchmark::DoNotOptimize(
            sbbt::encodePacket({ev.branch, ev.instr_gap}));
        i = (i + 1) % events.size();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SbbtEncodePacket);

void
BM_SbbtDecodePacket(benchmark::State &state)
{
    static const auto bytes = packetBytes();
    std::size_t num_packets = bytes.size() / sbbt::kPacketSize;
    std::size_t i = 0;
    sbbt::PacketData out;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            sbbt::decodePacket(bytes.data() + i * sbbt::kPacketSize, out));
        i = (i + 1) % num_packets;
    }
    state.SetItemsProcessed(state.iterations());
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations() * sbbt::kPacketSize));
}
BENCHMARK(BM_SbbtDecodePacket);

void
BM_FlzCompress(benchmark::State &state)
{
    static const auto bytes = packetBytes();
    std::size_t n = std::min<std::size_t>(bytes.size(), 1 << 20);
    int effort = static_cast<int>(state.range(0));
    std::vector<std::uint8_t> out(compress::flzCompressBound(n));
    std::size_t comp_size = 0;
    for (auto _ : state) {
        comp_size = compress::flzCompressBlock(bytes.data(), n, out.data(),
                                               effort, true);
        benchmark::DoNotOptimize(comp_size);
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(n));
    state.counters["ratio"] =
        comp_size ? double(n) / double(comp_size) : 0.0;
}
BENCHMARK(BM_FlzCompress)->Arg(1)->Arg(4)->Arg(16);

void
BM_FlzDecompress(benchmark::State &state)
{
    static const auto bytes = packetBytes();
    std::size_t n = std::min<std::size_t>(bytes.size(), 1 << 20);
    std::vector<std::uint8_t> comp(compress::flzCompressBound(n));
    std::size_t comp_size =
        compress::flzCompressBlock(bytes.data(), n, comp.data(), 16, true);
    std::vector<std::uint8_t> out(n);
    for (auto _ : state) {
        benchmark::DoNotOptimize(compress::flzDecompressBlock(
            comp.data(), comp_size, out.data(), n, true));
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(n));
}
BENCHMARK(BM_FlzDecompress);

void
BM_GzipRoundTripDecompress(benchmark::State &state)
{
    static const auto bytes = packetBytes();
    std::size_t n = std::min<std::size_t>(bytes.size(), 1 << 20);
    auto mem = std::make_unique<compress::MemorySink>();
    auto *mem_raw = mem.get();
    auto sink = compress::makeGzipSink(std::move(mem), 9);
    sink->write(bytes.data(), n);
    sink->finish();
    auto encoded = mem_raw->buffer();
    std::vector<std::uint8_t> out(n);
    for (auto _ : state) {
        auto src = compress::makeGzipSource(
            std::make_unique<compress::MemorySource>(encoded.data(),
                                                     encoded.size()));
        std::size_t got = 0, got_now = 0;
        while ((got_now = src->read(out.data() + got, n - got)) > 0)
            got += got_now;
        benchmark::DoNotOptimize(got);
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(n));
}
BENCHMARK(BM_GzipRoundTripDecompress);

/**
 * Workload size for the pipeline benches: $MBP_BENCH_PIPELINE_INSTR or
 * 70M instructions. The bench-smoke ctest run shrinks it so the
 * arena-vs-streaming numbers come out of every CI run in seconds.
 */
std::uint64_t
pipelineInstrCount()
{
    if (const char *env = std::getenv("MBP_BENCH_PIPELINE_INSTR")) {
        char *end = nullptr;
        unsigned long long v = std::strtoull(env, &end, 10);
        if (end != env && *end == '\0' && v > 0)
            return v;
    }
    return 70'000'000;
}

/**
 * Writes the pipeline workload of @p num_instr instructions as a
 * compressed SBBT trace under the temporary directory, unless a file of
 * that size is there already, and returns its path: a count pass
 * (compressed SBBT needs the header counts up front), then a streaming
 * write. The file name encodes the size so runs of different sizes never
 * reuse a stale trace.
 */
std::string
writePipelineTrace(std::uint64_t num_instr)
{
    tracegen::WorkloadSpec spec;
    spec.name = "pipeline";
    spec.seed = 13;
    spec.num_instr = num_instr;
    std::uint64_t instr = 0, branches = 0;
    {
        tracegen::TraceGenerator gen(spec);
        tracegen::TraceEvent ev;
        while (gen.next(ev)) {
            instr += ev.instr_gap + 1;
            ++branches;
        }
    }
    sbbt::Header header;
    header.instruction_count = instr;
    header.branch_count = branches;
    std::string p = (std::filesystem::temp_directory_path() /
                     ("mbp_pipeline_bench_" + std::to_string(num_instr) +
                      ".sbbt.flz"))
                        .string();
    sbbt::SbbtWriter writer(p, header, 1);
    tracegen::TraceGenerator gen(spec);
    tracegen::TraceEvent ev;
    while (gen.next(ev))
        writer.append(ev.branch, ev.instr_gap);
    writer.close();
    return p;
}

/**
 * On-disk compressed trace for the end-to-end pipeline benchmark. At the
 * default size, ~14M branches from a 70M instruction workload, so one
 * benchmark iteration decompresses and decodes roughly 220 MB of packet
 * data.
 */
const std::string &
pipelineTracePath()
{
    static const std::string path = writePipelineTrace(pipelineInstrCount());
    return path;
}

/**
 * The full trace-read pipeline: open, decompress, decode, iterate.
 * range(0) is the reader block size in packets (1 = the seed
 * packet-at-a-time path), range(1) enables the prefetch thread.
 * items/s == branches/s, the number quoted by docs/FORMATS.md.
 */
void
BM_SbbtTracePipeline(benchmark::State &state)
{
    const std::string &path = pipelineTracePath();
    sbbt::ReaderOptions options;
    options.block_packets = static_cast<std::size_t>(state.range(0));
    options.prefetch = state.range(1) != 0;
    std::uint64_t branches = 0;
    for (auto _ : state) {
        sbbt::SbbtReader reader(path, options);
        sbbt::PacketData p;
        std::uint64_t n = 0;
        while (reader.next(p))
            ++n;
        branches = n;
        benchmark::DoNotOptimize(reader.instrNumber());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(branches));
    state.counters["branches"] = static_cast<double>(branches);
}
BENCHMARK(BM_SbbtTracePipeline)
    ->Args({1, 0})    // seed packet-at-a-time reader
    ->Args({4096, 0}) // block-decoded
    ->Args({4096, 1}) // block-decoded + prefetch thread
    ->Unit(benchmark::kMillisecond);

/** The decode-once arena, shared by the MemTrace benches below. */
std::shared_ptr<const sbbt::MemTrace>
pipelineArena()
{
    static const auto arena = [] {
        std::string error;
        auto trace = sbbt::MemTrace::load(pipelineTracePath(), {}, &error);
        if (trace == nullptr) {
            std::fprintf(stderr, "MemTrace::load: %s\n", error.c_str());
            std::abort();
        }
        return trace;
    }();
    return arena;
}

/**
 * The one-time cost of the in-memory path: decompress + decode the whole
 * trace into a MemTrace arena. Compare one iteration of this plus N of
 * BM_MemTraceReplay against N iterations of BM_SbbtTracePipeline to see
 * where the arena starts winning for an N-predictor sweep.
 */
void
BM_MemTraceLoad(benchmark::State &state)
{
    const std::string &path = pipelineTracePath();
    std::uint64_t branches = 0;
    for (auto _ : state) {
        std::string error;
        auto trace = sbbt::MemTrace::load(path, {}, &error);
        if (trace == nullptr) {
            state.SkipWithError(error.c_str());
            return;
        }
        branches = trace->size();
        benchmark::DoNotOptimize(trace);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(branches));
    state.counters["arena_bytes"] =
        static_cast<double>(pipelineArena()->memoryBytes());
}
BENCHMARK(BM_MemTraceLoad)->Unit(benchmark::kMillisecond);

/**
 * The streamed path every non-arena run takes: the whole trace through
 * one reused TraceWindow of the simulator's 4096-row block, decoded into
 * columns with site ids, touching each block's rows as a kernel would.
 * range(0) enables the prefetch thread (the SimArgs default, and what
 * the stream-virtual perfbench workload runs). items/s is directly
 * comparable with BM_MemTraceLoad's.
 */
void
BM_TraceWindowStream(benchmark::State &state)
{
    const std::string &path = pipelineTracePath();
    sbbt::ReaderOptions options;
    options.prefetch = state.range(0) != 0;
    std::uint64_t branches = 0;
    for (auto _ : state) {
        sbbt::TraceWindow window(path, options, 4096);
        std::uint64_t n = 0;
        std::uint64_t sum = 0;
        for (sbbt::BranchColumns block = window.next(UINT64_MAX);
             block.size > 0; block = window.next(UINT64_MAX)) {
            sum += block.site[block.size - 1] + block.meta[0];
            n += block.size;
        }
        if (!window.error().empty()) {
            state.SkipWithError(window.error().c_str());
            return;
        }
        branches = n;
        benchmark::DoNotOptimize(sum);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(branches));
    state.counters["branches"] = static_cast<double>(branches);
}
BENCHMARK(BM_TraceWindowStream)
    ->Arg(0) // inline decompression
    ->Arg(1) // prefetch thread
    ->Unit(benchmark::kMillisecond);

/**
 * Open latency of the streamed path: open a compressed trace whose first
 * FLZ2 block is a full 8 MiB one (4M instructions, ~800k branches,
 * whatever MBP_BENCH_PIPELINE_INSTR says) and take its first 4096-row
 * block, as every streamed run does before its first prediction. The
 * window's teardown is not timed. range(0) enables the prefetch thread.
 */
void
BM_TraceWindowFirstBlock(benchmark::State &state)
{
    static const std::string path = writePipelineTrace(4'000'000);
    sbbt::ReaderOptions options;
    options.prefetch = state.range(0) != 0;
    std::optional<sbbt::TraceWindow> window;
    for (auto _ : state) {
        window.emplace(path, options, 4096);
        const sbbt::BranchColumns block = window->next(UINT64_MAX);
        if (block.size != 4096 ||
            window->reader().header().branch_count <
                compress::kFlz2BlockSize / sbbt::kPacketSize) {
            state.SkipWithError("the trace's first FLZ block is not full");
            return;
        }
        benchmark::DoNotOptimize(block.site[block.size - 1] +
                                 block.meta[0]);
        state.PauseTiming();
        window.reset();
        state.ResumeTiming();
    }
}
BENCHMARK(BM_TraceWindowFirstBlock)
    ->Arg(0) // inline decompression
    ->Arg(1) // prefetch thread
    ->Unit(benchmark::kMillisecond);

/**
 * The steady-state in-memory path: walk the already-decoded arena in
 * the block driver's column slices, reading each branch's ip, meta and
 * instruction number — what every simulation pass after the first pays
 * before any predictor work. items/s is directly comparable with
 * BM_SbbtTracePipeline's.
 */
void
BM_MemTraceReplay(benchmark::State &state)
{
    auto arena = pipelineArena();
    std::uint64_t branches = 0;
    for (auto _ : state) {
        std::uint64_t n = 0;
        std::uint64_t sum = 0;
        for (sbbt::BranchColumns block = arena->columns(0, 4096);
             block.size > 0; block = arena->columns(n, 4096)) {
            for (std::size_t i = 0; i < block.size; ++i)
                sum += block.ip[i] + block.meta[i] + block.instr[i];
            n += block.size;
        }
        branches = n;
        benchmark::DoNotOptimize(sum);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(branches));
    state.counters["branches"] = static_cast<double>(branches);
}
BENCHMARK(BM_MemTraceReplay)->Unit(benchmark::kMillisecond);

void
BM_XorFold(benchmark::State &state)
{
    std::uint64_t v = 0x123456789abcdef0ull;
    for (auto _ : state) {
        v = XorFold(v, 17) * 0x9e3779b97f4a7c15ull + 1;
        benchmark::DoNotOptimize(v);
    }
}
BENCHMARK(BM_XorFold);

/**
 * Phase 1 of the TAGE-family block kernels (TaggedHistory::indexRows) for
 * the default 8-bank geometry: every bank's flat index and tag for each
 * conditional row of a 512-row chunk, and the history pushes of its
 * rows, over the event buffer's branches. Items are rows. Arg 0 runs
 * indexRows() (the AVX2 loop where the host has it), arg 1 the scalar
 * reference loop.
 */
void
BM_TaggedHistoryIndexRows(benchmark::State &state)
{
    const auto &events = eventBuffer();
    std::vector<std::uint64_t> ips;
    std::vector<std::uint8_t> meta;
    for (const auto &ev : events) {
        ips.push_back(ev.branch.ip());
        meta.push_back(static_cast<std::uint8_t>(
            ev.branch.opcode().bits() | (ev.branch.isTaken() ? 0x10 : 0)));
    }
    sbbt::BranchColumns columns;
    columns.ip = ips.data();
    columns.meta = meta.data();
    columns.size = ips.size();
    pred::TaggedHistory history("tage", pred::Tage::Config::geometric().tables,
                                14);
    const bool scalar = state.range(0) != 0;
    state.SetLabel(scalar ? "scalar"
                          : (history.vectorized() ? "avx2" : "scalar"));
    constexpr std::size_t kChunk = pred::TaggedHistory::kChunkRows;
    const std::size_t chunks = columns.size / kChunk;
    std::size_t chunk = 0;
    for (auto _ : state) {
        const std::size_t begin = chunk * kChunk;
        benchmark::DoNotOptimize(
            scalar ? history.indexRowsScalar(columns, begin, begin + kChunk,
                                             true)
                   : history.indexRows(columns, begin, begin + kChunk, true));
        chunk = chunk + 1 == chunks ? 0 : chunk + 1;
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(kChunk));
}
BENCHMARK(BM_TaggedHistoryIndexRows)->Arg(0)->Arg(1);

void
BM_FlatHashMapUpsert(benchmark::State &state)
{
    util::FlatHashMap<std::uint64_t> map;
    std::mt19937_64 rng(5);
    for (auto _ : state) {
        std::uint64_t key = rng() % 65536;
        benchmark::DoNotOptimize(++map[key]);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FlatHashMapUpsert);

/** Steady-state predictor throughput: predict + train + track per branch.*/
void
BM_Predictor(benchmark::State &state)
{
    auto roster = bench::tableIIIPredictors();
    const auto &entry = roster[static_cast<std::size_t>(state.range(0))];
    state.SetLabel(entry.name);
    auto predictor = entry.make();
    const auto &events = eventBuffer();
    std::size_t i = 0;
    for (auto _ : state) {
        const auto &ev = events[i];
        if (ev.branch.isConditional()) {
            benchmark::DoNotOptimize(predictor->predict(ev.branch.ip()));
            predictor->train(ev.branch);
        }
        predictor->track(ev.branch);
        i = (i + 1) % events.size();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Predictor)->DenseRange(0, 7);

} // namespace

BENCHMARK_MAIN();
