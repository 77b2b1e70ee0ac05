/**
 * @file
 * FLZ block codec implementation: greedy hash-chain LZ77 with an LZ4-style
 * token stream.
 */
#include "mbp/compress/flz.hpp"

#include <cassert>
#include <cstring>

namespace mbp::compress
{

namespace
{

constexpr std::size_t kMinMatch = 4;
constexpr std::size_t kMaxOffset = 65535;
constexpr std::size_t kMaxOffsetWide = (std::size_t(1) << 24) - 1;
constexpr int kHashBits = 16;
constexpr std::size_t kHashSize = std::size_t(1) << kHashBits;

inline std::uint32_t
load32(const std::uint8_t *p)
{
    std::uint32_t v;
    std::memcpy(&v, p, sizeof v);
    return v;
}

inline std::uint32_t
hash4(std::uint32_t v)
{
    return (v * 2654435761u) >> (32 - kHashBits);
}

// Appends a length using the 15 + 255-run encoding.
inline void
putRunLength(std::uint8_t *&dst, std::size_t len)
{
    while (len >= 255) {
        *dst++ = 255;
        len -= 255;
    }
    *dst++ = static_cast<std::uint8_t>(len);
}

} // namespace

std::size_t
flzCompressBound(std::size_t src_size)
{
    // Worst case: all literals, one extension byte per 255 literals, plus
    // token and terminator slack.
    return src_size + src_size / 255 + 32;
    // (The bound holds for both offset widths: matches only shrink output.)
}

std::size_t
flzCompressBlock(const std::uint8_t *src, std::size_t src_size,
                 std::uint8_t *dst, int effort, bool wide)
{
    if (effort < 1)
        effort = 1;
    const std::size_t max_offset = wide ? kMaxOffsetWide : kMaxOffset;
    const std::uint8_t *const dst_start = dst;
    if (src_size == 0) {
        *dst++ = 0; // empty literal-only sequence
        return static_cast<std::size_t>(dst - dst_start);
    }

    // head[h] = most recent position with hash h; chain[i] = previous
    // position with the same hash as i (both one-based to keep 0 = empty).
    std::vector<std::uint32_t> head(kHashSize, 0);
    std::vector<std::uint32_t> chain;
    if (effort > 1)
        chain.assign(src_size, 0);

    std::size_t anchor = 0; // first literal not yet emitted
    std::size_t pos = 0;
    // Leave room so match probing can always read 4 bytes; inputs shorter
    // than a minimum match are emitted as pure literals below.
    const bool can_match = src_size >= kMinMatch;
    const std::size_t last_probe = can_match ? src_size - kMinMatch : 0;

    auto emit = [&](std::size_t literal_end, std::size_t match_pos,
                    std::size_t match_len) {
        std::size_t lit_len = literal_end - anchor;
        std::uint8_t *token = dst++;
        std::size_t lit_nibble = lit_len < 15 ? lit_len : 15;
        std::size_t match_code = match_len - kMinMatch;
        std::size_t match_nibble = match_code < 15 ? match_code : 15;
        *token = static_cast<std::uint8_t>((lit_nibble << 4) | match_nibble);
        if (lit_len >= 15)
            putRunLength(dst, lit_len - 15);
        std::memcpy(dst, src + anchor, lit_len);
        dst += lit_len;
        std::size_t offset = literal_end - match_pos;
        assert(offset >= 1 && offset <= max_offset);
        *dst++ = static_cast<std::uint8_t>(offset & 0xff);
        *dst++ = static_cast<std::uint8_t>((offset >> 8) & 0xff);
        if (wide)
            *dst++ = static_cast<std::uint8_t>(offset >> 16);
        if (match_code >= 15)
            putRunLength(dst, match_code - 15);
    };

    while (can_match && pos <= last_probe) {
        std::uint32_t h = hash4(load32(src + pos));
        std::size_t best_len = 0;
        std::size_t best_pos = 0;
        const std::uint32_t prev_head = head[h];
        std::uint32_t cand = prev_head;
        int probes = effort;
        while (cand != 0 && probes-- > 0) {
            std::size_t cpos = cand - 1;
            if (pos - cpos > max_offset)
                break;
            if (load32(src + cpos) == load32(src + pos)) {
                std::size_t len = kMinMatch;
                std::size_t max_len = src_size - pos;
                while (len < max_len && src[cpos + len] == src[pos + len])
                    ++len;
                if (len > best_len) {
                    best_len = len;
                    best_pos = cpos;
                    if (len >= 128)
                        break; // long enough; stop searching
                }
            }
            cand = chain.empty() ? 0 : chain[cpos];
        }
        head[h] = static_cast<std::uint32_t>(pos + 1);
        if (!chain.empty())
            chain[pos] = prev_head;

        if (best_len >= kMinMatch) {
            emit(pos, best_pos, best_len);
            // Index a few positions inside the match so future matches can
            // reference them, then skip past it.
            std::size_t match_end = pos + best_len;
            std::size_t idx_end =
                match_end <= last_probe ? match_end : last_probe + 1;
            for (std::size_t i = pos + 1; i < idx_end; ++i) {
                std::uint32_t hh = hash4(load32(src + i));
                if (!chain.empty())
                    chain[i] = head[hh];
                head[hh] = static_cast<std::uint32_t>(i + 1);
            }
            pos = match_end;
            anchor = pos;
        } else {
            ++pos;
        }
    }

    // Final literal-only sequence.
    {
        std::size_t lit_len = src_size - anchor;
        std::uint8_t *token = dst++;
        std::size_t lit_nibble = lit_len < 15 ? lit_len : 15;
        *token = static_cast<std::uint8_t>(lit_nibble << 4);
        if (lit_len >= 15)
            putRunLength(dst, lit_len - 15);
        std::memcpy(dst, src + anchor, lit_len);
        dst += lit_len;
    }
    return static_cast<std::size_t>(dst - dst_start);
}

namespace
{

/**
 * The one FLZ block walker. It resumes from @p cursor and walks whole
 * sequences until at least @p stop bytes are out; once all @p dst_size
 * bytes are, it walks on to the end of the input, which holds at most the
 * empty final token of a block that ends in a match. Every length, offset
 * and room check runs in both modes; kCopy = false (the check pass)
 * writes nothing and may be given a null @p dst.
 *
 * Where the output has room, literal runs under 15 bytes and matches
 * with offsets of at least 16 (or 8) are copied in fixed 16-byte (or
 * 8-byte) chunks, which may write garbage past the sequence's end but
 * never past @p dst_size; closer matches keep the byte loop, which
 * replicates overlapping (RLE-style) references.
 *
 * @return False on a corrupt sequence, or when the input ends before the
 *         output reaches @p dst_size; @p cursor is then unspecified.
 */
template <bool kCopy>
bool
walkBlock(const std::uint8_t *src, std::size_t src_size, std::uint8_t *dst,
          std::size_t dst_size, FlzCursor &cursor, std::size_t stop,
          bool wide)
{
    const std::size_t offset_bytes = wide ? 3 : 2;
    std::size_t ip = cursor.in;
    std::size_t op = cursor.out;

    auto readRun = [&](std::size_t base) -> std::size_t {
        std::size_t len = base;
        if (base == 15) {
            std::uint8_t b;
            do {
                if (ip >= src_size)
                    return SIZE_MAX;
                b = src[ip++];
                len += b;
            } while (b == 255);
        }
        return len;
    };

    while (ip < src_size && (op < stop || op == dst_size)) {
        const std::uint8_t token = src[ip++];
        // Literals.
        const std::size_t lit_len = readRun(token >> 4);
        if (lit_len == SIZE_MAX || lit_len > src_size - ip ||
            lit_len > dst_size - op)
            return false;
        if constexpr (kCopy) {
            if (lit_len < 15 && src_size - ip >= 16 && dst_size - op >= 16)
                std::memcpy(dst + op, src + ip, 16);
            else
                std::memcpy(dst + op, src + ip, lit_len);
        }
        ip += lit_len;
        op += lit_len;
        if (ip == src_size)
            break; // final literal-only sequence
        // Match.
        if (src_size - ip < offset_bytes)
            return false;
        std::size_t offset = src[ip] | (std::size_t(src[ip + 1]) << 8);
        if (wide)
            offset |= std::size_t(src[ip + 2]) << 16;
        ip += offset_bytes;
        if (offset == 0 || offset > op)
            return false;
        std::size_t match_len = readRun(token & 0x0f);
        if (match_len == SIZE_MAX)
            return false;
        match_len += kMinMatch;
        if (match_len > dst_size - op)
            return false;
        if constexpr (kCopy) {
            std::uint8_t *const d = dst + op;
            const std::uint8_t *const ref = d - offset;
            const std::size_t slack = dst_size - op - match_len;
            if (offset >= 16 && slack >= 15) {
                for (std::size_t i = 0; i < match_len; i += 16)
                    std::memcpy(d + i, ref + i, 16);
            } else if (offset >= 8 && slack >= 7) {
                for (std::size_t i = 0; i < match_len; i += 8)
                    std::memcpy(d + i, ref + i, 8);
            } else {
                for (std::size_t i = 0; i < match_len; ++i)
                    d[i] = ref[i];
            }
        }
        op += match_len;
    }
    if (ip == src_size && op != dst_size)
        return false;
    cursor = {ip, op};
    return true;
}

} // namespace

bool
flzCheckBlock(const std::uint8_t *src, std::size_t src_size,
              std::size_t dst_size, bool wide)
{
    FlzCursor cursor;
    return walkBlock<false>(src, src_size, nullptr, dst_size, cursor,
                            dst_size, wide);
}

bool
flzDecodeRange(const std::uint8_t *src, std::size_t src_size,
               std::uint8_t *dst, std::size_t dst_size, FlzCursor &cursor,
               std::size_t stop, bool wide)
{
    return walkBlock<true>(src, src_size, dst, dst_size, cursor, stop, wide);
}

bool
flzDecompressBlock(const std::uint8_t *src, std::size_t src_size,
                   std::uint8_t *dst, std::size_t dst_size, bool wide)
{
    FlzCursor cursor;
    return flzDecodeRange(src, src_size, dst, dst_size, cursor, dst_size,
                          wide);
}

std::vector<std::uint8_t>
flzCompress(const std::uint8_t *src, std::size_t src_size, int effort)
{
    std::vector<std::uint8_t> out(flzCompressBound(src_size));
    std::size_t n = flzCompressBlock(src, src_size, out.data(), effort);
    out.resize(n);
    return out;
}

} // namespace mbp::compress
