/**
 * @file
 * FLZ: a from-scratch LZ77 byte-oriented codec.
 *
 * The paper distributes SBBT traces compressed with zstandard; zstd is not
 * available in this environment, so FLZ plays its role in every experiment
 * (see DESIGN.md, substitutions). Like zstd/LZ4 it favors decompression
 * speed: there is no entropy stage, and the decoder copies short literal
 * runs and all but the closest matches in fixed 16- or 8-byte chunks,
 * keeping a byte loop only for overlapping (RLE-style) references. The
 * window is 64 KiB in v1 blocks and 16 MiB in v2 blocks.
 *
 * One resumable walker decodes every block: flzCheckBlock walks it with
 * every bounds check and writes nothing, flzDecodeRange decodes it a
 * range at a time from an FlzCursor, and flzDecompressBlock decodes it
 * whole. A framed reader checks a block first and then decodes it only as
 * far as it is read, so a corrupt block still yields none of its bytes.
 *
 * Block format (LZ4-inspired):
 *   A compressed block is a sequence of "sequences". Each sequence is
 *     token(1B) | literal bytes | offset(2B LE) | extra match length bytes
 *   The token's high nibble is the literal count (15 = extended by 255-run
 *   bytes), the low nibble is match length - 4 (15 = extended likewise).
 *   The final sequence of a block carries literals only (no offset/match).
 *   Matches are at least 4 bytes and reference offsets in [1, 65535].
 *
 * Frame format (for files/streams):
 *   magic "FLZ1" | blocks... | end marker
 *   block = u32 LE raw_size | u32 LE comp_size | payload
 *     comp_size == 0 means the payload is stored uncompressed (raw_size
 *     bytes). raw_size == 0 terminates the frame.
 */
#ifndef MBP_COMPRESS_FLZ_HPP
#define MBP_COMPRESS_FLZ_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

namespace mbp::compress
{

/** Frame magic bytes (narrow-offset v1). */
inline constexpr char kFlzMagic[4] = {'F', 'L', 'Z', '1'};
/** Frame magic bytes (wide-offset v2). */
inline constexpr char kFlz2Magic[4] = {'F', 'L', 'Z', '2'};
/** Default uncompressed block size for framed streams (v1). */
inline constexpr std::size_t kFlzBlockSize = 256 * 1024;
/**
 * Block size for wide-offset frames. v2 exists for the same reason zstd's
 * high levels use large windows: trace files repeat long byte sequences
 * (whole loop iterations of fixed-size records) at distances far beyond a
 * 64 KiB window. v2 blocks are 8 MiB with 24-bit match offsets.
 */
inline constexpr std::size_t kFlz2BlockSize = 8 * 1024 * 1024;
/** Maximum encodable match offset in v2 blocks. */
inline constexpr std::size_t kFlz2MaxOffset = (1 << 24) - 1;

/**
 * @return An upper bound on flzCompressBlock's output size for @p src_size
 *         input bytes.
 */
std::size_t flzCompressBound(std::size_t src_size);

/**
 * Compresses one block.
 *
 * @param src      Input bytes.
 * @param src_size Input size.
 * @param dst      Output buffer of at least flzCompressBound(src_size) bytes.
 * @param effort   Match-finder effort (1 = greedy single probe, higher values
 *                 probe more hash-chain candidates; mirrors zstd levels).
 * @param wide     Use 24-bit match offsets (v2 blocks) instead of 16-bit.
 * @return Number of bytes written to @p dst.
 */
std::size_t flzCompressBlock(const std::uint8_t *src, std::size_t src_size,
                             std::uint8_t *dst, int effort = 4,
                             bool wide = false);

/**
 * Decompresses one block produced by flzCompressBlock.
 *
 * @param src      Compressed bytes.
 * @param src_size Compressed size.
 * @param dst      Output buffer.
 * @param dst_size Exact expected decompressed size.
 * @param wide     Whether the block uses 24-bit offsets (v2).
 * @return True when the block decoded cleanly to exactly @p dst_size bytes.
 */
bool flzDecompressBlock(const std::uint8_t *src, std::size_t src_size,
                        std::uint8_t *dst, std::size_t dst_size,
                        bool wide = false);

/**
 * Checks one block without decompressing it: the walk of
 * flzDecompressBlock, every token, length and offset bounds-checked,
 * with nothing copied.
 *
 * @return True exactly when flzDecompressBlock would succeed on the same
 *         arguments.
 */
bool flzCheckBlock(const std::uint8_t *src, std::size_t src_size,
                   std::size_t dst_size, bool wide = false);

/**
 * Where a block walk stopped: compressed bytes consumed and decompressed
 * bytes produced. A walk starts from a zero cursor and stops only between
 * sequences.
 */
struct FlzCursor
{
    std::size_t in = 0;  //!< compressed bytes consumed
    std::size_t out = 0; //!< decompressed bytes produced
};

/**
 * Decodes one block from @p cursor on, whole sequences at a time, until at
 * least @p stop bytes are out; a walk that puts out the block's last byte
 * also consumes the rest of its input, as flzDecompressBlock does. Bytes
 * of @p dst past the new cursor.out may be overwritten and hold no
 * meaning until a later call decodes them.
 *
 * @param dst    The whole block's output buffer of @p dst_size bytes:
 *               matches refer back to bytes that earlier calls decoded.
 * @param cursor Where the previous call stopped; advanced on success.
 * @return False on a corrupt sequence, or when the input ends before
 *         @p dst_size bytes are out; @p cursor is then unspecified.
 */
bool flzDecodeRange(const std::uint8_t *src, std::size_t src_size,
                    std::uint8_t *dst, std::size_t dst_size,
                    FlzCursor &cursor, std::size_t stop, bool wide = false);

/** Convenience one-shot block compression into a vector. */
std::vector<std::uint8_t> flzCompress(const std::uint8_t *src,
                                      std::size_t src_size, int effort = 4);

} // namespace mbp::compress

#endif // MBP_COMPRESS_FLZ_HPP
