/**
 * @file
 * TaggedHistory implementation: the scalar reference and the AVX2
 * phase-1 loop.
 */
#include "mbp/predictors/tagged_history.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "mbp/utils/bits.hpp"
#include "mbp/utils/hash.hpp"

// The AVX2 loop is compiled with a target attribute, so a baseline -O3
// build emits it without enabling AVX2 globally, and runs it only on a
// host that has it.
#if defined(__x86_64__) && defined(__GNUC__)
#define MBP_TAGGED_HISTORY_AVX2 1
#include <immintrin.h>
#else
#define MBP_TAGGED_HISTORY_AVX2 0
#endif

namespace mbp::pred
{

namespace
{

constexpr std::size_t kLanes = 8; // 32-bit lanes per AVX2 vector

/** Address-fold jobs the AVX2 loop runs at most: two vectors of four
 *  64-bit lanes. */
constexpr std::size_t kJobs = 8;

/**
 * The dword of the AVX2 loop's job vector holding job @p job's fold: the
 * loop narrows the jobs' two 4 x 64-bit vectors with one in-lane shuffle,
 * which leaves jobs 0, 1, 4, 5, 2, 3, 6, 7 in dwords 0 to 7.
 */
std::uint32_t
jobDword(std::size_t job)
{
    static constexpr std::uint32_t kDword[kJobs] = {0, 1, 4, 5, 2, 3, 6, 7};
    return kDword[job];
}

/** The job folding @p width (and the path, when @p path) in @p jobs,
 *  appended if new. */
std::size_t
jobOf(std::vector<int> &widths, std::vector<bool> &paths, int width,
      bool path)
{
    for (std::size_t k = 0; k < widths.size(); ++k) {
        if (widths[k] == width && paths[k] == path)
            return k;
    }
    widths.push_back(width);
    paths.push_back(path);
    return widths.size() - 1;
}

/** One fold's advance past a push: FoldedHistory::update on 32 bits. */
inline std::uint32_t
advanceFold(std::uint32_t v, std::uint32_t shr, std::uint32_t mask,
            std::uint32_t out, std::uint32_t inserted, std::uint32_t evicted)
{
    v = ((v << 1) | (v >> shr)) & mask;
    return v ^ inserted ^ (evicted << out);
}

/** The path register after a push of a branch at @p ip: the low 4 bits
 *  of ip >> 2 for each of the last 8 pushes. */
inline std::uint64_t
pushPath(std::uint64_t path, std::uint64_t ip)
{
    return ((path << 4) | ((ip >> 2) & 0xf)) & 0xffffffffu;
}

/** Bit @p pos of the bit ring @p words. */
inline std::uint32_t
ringBit(const std::uint64_t *words, std::size_t pos)
{
    return static_cast<std::uint32_t>((words[pos >> 6] >> (pos & 63)) & 1);
}

/** Bits [pos, pos + 32) of the bit ring @p words (pos's word and the
 *  next one must exist). */
inline std::uint32_t
ringWindow(const std::uint64_t *words, std::size_t pos)
{
    const std::size_t word = pos >> 6;
    const unsigned bit = pos & 63;
    // (next << 1) << (63 - bit) is next << (64 - bit), or 0 at bit 0.
    return static_cast<std::uint32_t>(
        (words[word] >> bit) | ((words[word + 1] << 1) << (63 - bit)));
}

} // namespace

TaggedHistory::TaggedHistory(const char *kind,
                             const std::vector<TageTableSpec> &specs,
                             int log_bimodal_size)
    : specs_((validateTaggedGeometry(kind, specs, log_bimodal_size), specs)),
      log_bimodal_size_(log_bimodal_size)
{
    const std::size_t banks = specs_.size();
    stride_ = (banks + kLanes - 1) / kLanes * kLanes;
    offset_.assign(stride_, 0);
    length_.assign(stride_, 1);
    idx_slot_.assign(stride_, 0);
    tag_slot_.assign(stride_, 0);
    for (FoldLanes &fold : folds_) {
        fold.value.assign(stride_, 0);
        fold.mask.assign(stride_, 0);
        fold.shr.assign(stride_, 0);
        fold.out.assign(stride_, 0);
    }
    std::vector<bool> job_path{false};
    job_width_ = {log_bimodal_size_};
    std::vector<std::size_t> idx_job(banks), tag_job(banks);
    std::uint32_t offset = 0;
    for (std::size_t t = 0; t < banks; ++t) {
        const TageTableSpec &spec = specs_[t];
        offset_[t] = offset;
        offset += std::uint32_t(1) << spec.log_size;
        length_[t] = static_cast<std::uint32_t>(spec.history_len);
        history_bits_ = std::max(history_bits_, spec.history_len);
        idx_job[t] = jobOf(job_width_, job_path, spec.log_size, true);
        tag_job[t] = jobOf(job_width_, job_path, spec.tag_bits, false);
        const int widths[kFolds] = {spec.log_size, spec.tag_bits,
                                    spec.tag_bits - 1};
        for (int k = 0; k < kFolds; ++k) {
            FoldLanes &fold = folds_[k];
            fold.mask[t] = static_cast<std::uint32_t>(
                util::maskBits(widths[k]));
            fold.shr[t] = static_cast<std::uint32_t>(widths[k] - 1);
            fold.out[t] =
                static_cast<std::uint32_t>(spec.history_len % widths[k]);
        }
    }
    num_entries_ = offset;

    // The ring holds the longest history, a word of slack for the drop
    // granularity and a whole chunk's pushes, plus two words that
    // ringWindow() may read past the last push.
    ring_bits_ = static_cast<std::size_t>(history_bits_);
    ring_cap_ = (static_cast<std::size_t>(history_bits_) + 64 +
                 kChunkRows + 63) / 64 * 64;
    ring_.assign(ring_cap_ / 64 + 2, 0);

#if MBP_TAGGED_HISTORY_AVX2
    vectorized_ =
        __builtin_cpu_supports("avx2") && job_width_.size() <= kJobs;
#endif
    if (!vectorized_)
        return;
    for (std::size_t t = 0; t < banks; ++t) {
        idx_slot_[t] = jobDword(idx_job[t]);
        tag_slot_[t] = jobDword(tag_job[t]);
    }
    // Unused lanes fold nothing: a shift of 64 gives 0 (srlv), mask 0.
    job_path_.assign(kJobs, 0);
    job_mask_.assign(kJobs, 0);
    const int narrowest =
        *std::min_element(job_width_.begin(), job_width_.end());
    while ((narrowest << job_steps_) < 64)
        ++job_steps_;
    job_shift_.assign(std::size_t(job_steps_) * kJobs, 64);
    for (std::size_t k = 0; k < job_width_.size(); ++k) {
        const int width = job_width_[k];
        job_path_[k] = job_path[k] ? ~std::uint64_t(0) : 0;
        job_mask_[k] = util::maskBits(width);
        for (int step = 0; step < job_steps_; ++step) {
            const std::uint64_t shift = std::uint64_t(width) << step;
            job_shift_[std::size_t(step) * kJobs + k] = std::min<
                std::uint64_t>(shift, 64);
        }
    }
}

std::uint32_t
TaggedHistory::bimodalIndex(std::uint64_t ip) const
{
    return static_cast<std::uint32_t>(XorFold(ip >> 2, log_bimodal_size_));
}

void
TaggedHistory::lookup(std::uint64_t ip, std::uint32_t *flat,
                      std::uint16_t *tag) const
{
    // XorFold distributes over XOR, so folding ip ^ path at once is the
    // XOR of the address fold and the path fold.
    const std::uint64_t base = ip >> 2;
    const std::uint64_t base_path = base ^ path_;
    const FoldLanes &f0 = folds_[0], &f1 = folds_[1], &f2 = folds_[2];
    for (std::size_t t = 0; t < specs_.size(); ++t) {
        const TageTableSpec &spec = specs_[t];
        flat[t] = offset_[t] +
                  ((static_cast<std::uint32_t>(
                        XorFold(base_path, spec.log_size)) ^
                    f0.value[t]) &
                   f0.mask[t]);
        tag[t] = static_cast<std::uint16_t>(
            (static_cast<std::uint32_t>(XorFold(base, spec.tag_bits)) ^
             f1.value[t] ^ (f2.value[t] << 1)) &
            f1.mask[t]);
    }
}

void
TaggedHistory::reserveRing(std::size_t pushes)
{
    if (ring_bits_ + pushes <= ring_cap_)
        return;
    const std::size_t drop =
        (ring_bits_ - static_cast<std::size_t>(history_bits_)) / 64;
    std::memmove(ring_.data(), ring_.data() + drop,
                 (ring_.size() - drop) * sizeof(std::uint64_t));
    ring_bits_ -= drop * 64;
}

void
TaggedHistory::push(std::uint64_t ip, bool taken)
{
    reserveRing(1);
    const std::size_t n = ring_bits_;
    const std::uint32_t inserted = taken ? 1 : 0;
    for (std::size_t t = 0; t < specs_.size(); ++t) {
        const std::uint32_t evicted = ringBit(ring_.data(), n - length_[t]);
        for (FoldLanes &fold : folds_)
            fold.value[t] = advanceFold(fold.value[t], fold.shr[t],
                                        fold.mask[t], fold.out[t], inserted,
                                        evicted);
    }
    std::uint64_t &word = ring_[n >> 6];
    word = (word & ~(std::uint64_t(1) << (n & 63))) |
           (std::uint64_t(inserted) << (n & 63));
    ++ring_bits_;
    path_ = pushPath(path_, ip);
}

void
TaggedHistory::ensureScratch()
{
    if (!bim_.empty())
        return;
    flat_.assign(kChunkRows * stride_, 0);
    tag_.assign(kChunkRows * stride_, 0);
    bim_.assign(kChunkRows, 0);
}

std::size_t
TaggedHistory::indexRowsScalar(const sbbt::BranchColumns &columns,
                               std::size_t begin, std::size_t end,
                               bool track_all)
{
    assert(end - begin <= kChunkRows);
    ensureScratch();
    std::size_t j = 0;
    for (std::size_t i = begin; i < end; ++i) {
        const std::uint8_t m = columns.meta[i];
        const bool conditional = (m & 0x01) != 0;
        if (conditional) {
            lookup(columns.ip[i], flat_.data() + j * stride_,
                   tag_.data() + j * stride_);
            bim_[j] = bimodalIndex(columns.ip[i]);
            ++j;
        }
        if (conditional || track_all)
            push(columns.ip[i], (m & 0x10) != 0);
    }
    return j;
}

std::size_t
TaggedHistory::appendOutcomes(const sbbt::BranchColumns &columns,
                              std::size_t begin, std::size_t end,
                              bool track_all)
{
    reserveRing(end - begin);
    std::size_t n = ring_bits_;
    // Whole words at a time: the word being filled is kept in acc.
    std::uint64_t acc = ring_[n >> 6] & util::maskBits(int(n & 63));
    const std::uint64_t push_all = track_all ? 1 : 0;
    for (std::size_t i = begin; i < end; ++i) {
        const std::uint64_t m = columns.meta[i];
        const std::uint64_t pushes = (m & 0x01) | push_all;
        acc |= (((m >> 4) & 1) & pushes) << (n & 63);
        n += pushes;
        if (pushes != 0 && (n & 63) == 0) {
            ring_[(n >> 6) - 1] = acc;
            acc = 0;
        }
    }
    ring_[n >> 6] = acc;
    const std::size_t first = ring_bits_;
    ring_bits_ = n;
    return first;
}

#if MBP_TAGGED_HISTORY_AVX2

namespace
{

/** Lanes [8g, 8g + 8) of @p lanes. */
__attribute__((target("avx2"), always_inline)) inline __m256i
load(const std::vector<std::uint32_t> &lanes, std::size_t g)
{
    return _mm256_loadu_si256(
        reinterpret_cast<const __m256i *>(lanes.data() + g * kLanes));
}

/**
 * Four address-fold jobs: XorFold(base ^ (path & job_path), width) per
 * 64-bit lane, by doubling (see XorFold) with the lane's shifts.
 */
__attribute__((target("avx2"), always_inline)) inline __m256i
foldJobs(__m256i base, __m256i path, __m256i job_path, __m256i job_mask,
         const __m256i *job_shift, int steps)
{
    __m256i x = _mm256_xor_si256(base, _mm256_and_si256(path, job_path));
    for (int step = 0; step < steps; ++step)
        x = _mm256_xor_si256(x, _mm256_srlv_epi64(x, job_shift[step]));
    return _mm256_and_si256(x, job_mask);
}

/** 64-bit lanes [4v, 4v + 4) of @p lanes. */
__attribute__((target("avx2"), always_inline)) inline __m256i
load64(const std::vector<std::uint64_t> &lanes, std::size_t v)
{
    return _mm256_loadu_si256(
        reinterpret_cast<const __m256i *>(lanes.data() + v * 4));
}

} // namespace

/**
 * The phase-1 loop with the banks in 32-bit lanes, kGroups vectors of 8:
 * the same arithmetic as lookup() and push(). The chunk's outcomes go to
 * the ring first, so each lane's evicted bits can come 32 pushes at a
 * time from a window loaded at the lane's history length back.
 */
template <std::size_t kGroups>
__attribute__((target("avx2"))) std::size_t
TaggedHistory::indexAvx2(const sbbt::BranchColumns &columns,
                         std::size_t begin, std::size_t end, bool track_all)
{
    const std::size_t first = appendOutcomes(columns, begin, end, track_all);

    __m256i value[kFolds][kGroups], mask[kFolds][kGroups],
        shr[kFolds][kGroups], out[kFolds][kGroups];
    __m256i offset[kGroups], idx_slot[kGroups], tag_slot[kGroups],
        window[kGroups];
    for (std::size_t g = 0; g < kGroups; ++g) {
        for (int k = 0; k < kFolds; ++k) {
            value[k][g] = load(folds_[k].value, g);
            mask[k][g] = load(folds_[k].mask, g);
            shr[k][g] = load(folds_[k].shr, g);
            out[k][g] = load(folds_[k].out, g);
        }
        offset[g] = load(offset_, g);
        idx_slot[g] = load(idx_slot_, g);
        tag_slot[g] = load(tag_slot_, g);
        window[g] = _mm256_setzero_si256();
    }
    const __m256i one = _mm256_set1_epi32(1);
    alignas(32) std::uint32_t bits[kGroups * kLanes];

    // The address-fold jobs, in the 64-bit lanes of two vectors.
    const bool two_job_vectors = job_width_.size() > 4;
    const int steps = job_steps_;
    __m256i job_path[2], job_mask[2], job_shift[2][6];
    for (std::size_t v = 0; v < 2; ++v) {
        job_path[v] = load64(job_path_, v);
        job_mask[v] = load64(job_mask_, v);
        for (int step = 0; step < steps; ++step)
            job_shift[v][step] =
                load64(job_shift_, std::size_t(step) * 2 + v);
    }

    const std::uint8_t *meta = columns.meta;
    const std::uint64_t *ips = columns.ip;
    const std::uint64_t *ring = ring_.data();
    std::uint64_t path = path_;
    std::size_t n = first; // the ring position of the next push
    std::size_t j = 0;
    for (std::size_t i = begin; i < end; ++i) {
        const std::uint8_t m = meta[i];
        const bool conditional = (m & 0x01) != 0;
        if (!conditional && !track_all)
            continue;
        const std::uint64_t base = ips[i] >> 2;
        if (conditional) {
            const __m256i base_lanes =
                _mm256_set1_epi64x(static_cast<long long>(base));
            const __m256i path_lanes =
                _mm256_set1_epi64x(static_cast<long long>(path));
            const __m256i jobs0 =
                foldJobs(base_lanes, path_lanes, job_path[0], job_mask[0],
                         job_shift[0], steps);
            const __m256i jobs1 =
                two_job_vectors
                    ? foldJobs(base_lanes, path_lanes, job_path[1],
                               job_mask[1], job_shift[1], steps)
                    : jobs0;
            // Each job's low dword, in jobDword() order.
            const __m256i folds = _mm256_castps_si256(_mm256_shuffle_ps(
                _mm256_castsi256_ps(jobs0), _mm256_castsi256_ps(jobs1),
                0x88));
            std::uint32_t *flat_out = flat_.data() + j * stride_;
            std::uint16_t *tag_out = tag_.data() + j * stride_;
            for (std::size_t g = 0; g < kGroups; ++g) {
                const __m256i index = _mm256_and_si256(
                    _mm256_xor_si256(
                        _mm256_permutevar8x32_epi32(folds, idx_slot[g]),
                        value[0][g]),
                    mask[0][g]);
                _mm256_storeu_si256(
                    reinterpret_cast<__m256i *>(flat_out + g * kLanes),
                    _mm256_add_epi32(offset[g], index));
                const __m256i tag = _mm256_and_si256(
                    _mm256_xor_si256(
                        _mm256_xor_si256(_mm256_permutevar8x32_epi32(
                                             folds, tag_slot[g]),
                                         value[1][g]),
                        _mm256_slli_epi32(value[2][g], 1)),
                    mask[1][g]);
                // Tags fit 16 bits: pack per 128-bit half, then gather
                // the two halves' low quadwords.
                const __m256i packed = _mm256_permute4x64_epi64(
                    _mm256_packus_epi32(tag, tag), 0x08);
                _mm_storeu_si128(
                    reinterpret_cast<__m128i *>(tag_out + g * kLanes),
                    _mm256_castsi256_si128(packed));
            }
            bim_[j] = static_cast<std::uint32_t>(
                _mm256_cvtsi256_si32(folds)); // job 0
            ++j;
        }

        // The push: every lane's evicted bit from its window, refilled
        // every 32 pushes.
        if (((n - first) & 31) == 0) {
            for (std::size_t l = 0; l < kGroups * kLanes; ++l)
                bits[l] = ringWindow(ring, n - length_[l]);
            for (std::size_t g = 0; g < kGroups; ++g)
                window[g] = _mm256_load_si256(
                    reinterpret_cast<const __m256i *>(bits + g * kLanes));
        }
        const __m256i inserted = _mm256_set1_epi32((m >> 4) & 1);
        for (std::size_t g = 0; g < kGroups; ++g) {
            const __m256i evicted = _mm256_and_si256(window[g], one);
            window[g] = _mm256_srli_epi32(window[g], 1);
            for (int k = 0; k < kFolds; ++k) {
                __m256i v = value[k][g];
                v = _mm256_and_si256(
                    _mm256_or_si256(_mm256_slli_epi32(v, 1),
                                    _mm256_srlv_epi32(v, shr[k][g])),
                    mask[k][g]);
                v = _mm256_xor_si256(v, inserted);
                value[k][g] = _mm256_xor_si256(
                    v, _mm256_sllv_epi32(evicted, out[k][g]));
            }
        }
        path = pushPath(path, ips[i]);
        ++n;
    }

    for (std::size_t g = 0; g < kGroups; ++g) {
        for (int k = 0; k < kFolds; ++k)
            _mm256_storeu_si256(reinterpret_cast<__m256i *>(
                                    folds_[k].value.data() + g * kLanes),
                                value[k][g]);
    }
    path_ = path;
    return j;
}

std::size_t
TaggedHistory::indexRows(const sbbt::BranchColumns &columns,
                         std::size_t begin, std::size_t end, bool track_all)
{
    if (!vectorized_)
        return indexRowsScalar(columns, begin, end, track_all);
    assert(end - begin <= kChunkRows);
    ensureScratch();
    switch (stride_ / kLanes) {
    case 1:
        return indexAvx2<1>(columns, begin, end, track_all);
    case 2:
        return indexAvx2<2>(columns, begin, end, track_all);
    case 3:
        return indexAvx2<3>(columns, begin, end, track_all);
    case 4:
        return indexAvx2<4>(columns, begin, end, track_all);
    case 5:
        return indexAvx2<5>(columns, begin, end, track_all);
    case 6:
        return indexAvx2<6>(columns, begin, end, track_all);
    case 7:
        return indexAvx2<7>(columns, begin, end, track_all);
    default:
        return indexAvx2<8>(columns, begin, end, track_all);
    }
}

#else

std::size_t
TaggedHistory::indexRows(const sbbt::BranchColumns &columns,
                         std::size_t begin, std::size_t end, bool track_all)
{
    return indexRowsScalar(columns, begin, end, track_all);
}

#endif

} // namespace mbp::pred
