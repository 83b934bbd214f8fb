/**
 * @file
 * Differential, structure-aware fuzzer for the LJPG decoder.
 *
 * Each execution mutates an LJPG stream — a seed encoded from a
 * synthetic image, or a regression-corpus entry — with seeded bit
 * flips, byte storms, truncations at every length class, header field
 * edits and spliced over-long Exp-Golomb prefixes, then checks
 * codec::tryDecode against a plain bit-at-a-time walker of the format
 * local to this file:
 *
 *  - the decoder returns (no crash, no sanitizer finding);
 *  - it accepts exactly the streams the walker accepts, with the same
 *    ErrorCode on rejection;
 *  - decode_mcu's WorkStats items (symbols) and bytes_read equal the
 *    walker's counts over the block rows it completed;
 *  - an accepted image has the header's dimensions;
 *  - the reference decode reaches the same verdict and counts;
 *  - codec::tryDecodeWindow over a seeded window (the full frame, a
 *    single pixel, a strip along an edge, odd offsets) reaches the same
 *    verdict, ErrorCode and decode_mcu counts, and on acceptance its
 *    pixels equal the full decode's cropped to the window.
 *
 *   fuzz_ljpg_decode --iterations 20000 --seed 1 --corpus tests/corpus/ljpg
 *
 * Every corpus file replays before the mutation loop. A finding prints
 * the stream as hex, writes it to fuzz_ljpg_decode-finding.ljpg in the
 * working directory (a candidate for the corpus) and exits 1.
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "hwcount/registry.h"
#include "image/codec/codec.h"
#include "image/geometry.h"
#include "image/synth.h"

namespace {

using namespace lotus;

constexpr std::size_t kHeaderBytes = 10;
/** Pixel cap for both sides: header edits stay cheap to decode. */
constexpr std::int64_t kMaxPixels = std::int64_t(1) << 14;

/** What a correct decoder must report for one stream. */
struct Verdict
{
    bool ok = false;
    ErrorCode code = ErrorCode::kCorruptData;
    /** decode_mcu items and bytes_read over completed block rows. */
    std::uint64_t symbols = 0;
    std::uint64_t bytes_read = 0;
    int width = 0;
    int height = 0;
};

/** Bit-at-a-time reader with no lookahead and no prefix cap short of
 *  what a 64-bit value can hold. */
class BitWalker
{
  public:
    BitWalker(const std::uint8_t *data, std::size_t size)
        : data_(data), size_bits_(size * 8)
    {
    }

    /** One Exp-Golomb code; false when it runs past the end. */
    bool
    ue(std::uint64_t &value)
    {
        int zeros = 0;
        int bit = 0;
        while (next(bit) && bit == 0) {
            if (++zeros > 62)
                return false;
        }
        if (bit == 0)
            return false;
        std::uint64_t code = 1;
        for (int i = 0; i < zeros; ++i) {
            if (!next(bit))
                return false;
            code = (code << 1) | static_cast<std::uint64_t>(bit);
        }
        value = code - 1;
        return true;
    }

    void alignByte() { pos_ = (pos_ + 7) / 8 * 8; }
    std::size_t position() const { return pos_; }

  private:
    bool
    next(int &bit)
    {
        if (pos_ >= size_bits_)
            return false;
        bit = (data_[pos_ / 8] >> (7 - pos_ % 8)) & 1;
        ++pos_;
        return true;
    }

    const std::uint8_t *data_;
    std::size_t size_bits_;
    std::size_t pos_ = 0;
};

std::int64_t
toSigned(std::uint64_t mapped)
{
    return mapped % 2 == 0 ? -static_cast<std::int64_t>(mapped / 2)
                           : static_cast<std::int64_t>((mapped + 1) / 2);
}

/** One block: DC delta, (run, level) pairs, end of block (run 63),
 *  with the decoder's checks. */
bool
walkBlock(BitWalker &walker, std::int64_t &dc_pred, std::uint64_t &symbols)
{
    constexpr std::int64_t kMaxMagnitude = std::int64_t(1) << 20;
    std::uint64_t code = 0;
    if (!walker.ue(code))
        return false;
    const std::int64_t dc = dc_pred + toSigned(code);
    if (dc < -kMaxMagnitude || dc > kMaxMagnitude)
        return false;
    dc_pred = dc;
    ++symbols;
    int k = 1;
    while (k < 64) {
        if (!walker.ue(code))
            return false;
        ++symbols;
        if (code == 63)
            return true;
        if (code > 64)
            return false;
        k += static_cast<int>(code);
        if (k >= 64)
            return false;
        if (!walker.ue(code))
            return false;
        const std::int64_t level = toSigned(code);
        if (level == 0 || level < -kMaxMagnitude || level > kMaxMagnitude)
            return false;
        ++symbols;
        ++k;
    }
    if (!walker.ue(code))
        return false;
    ++symbols;
    return code == 63;
}

bool
walkPlane(BitWalker &walker, int width, int height, Verdict &verdict)
{
    const int blocks_across = (width + 7) / 8;
    const int block_rows = (height + 7) / 8;
    std::int64_t dc_pred = 0;
    for (int by = 0; by < block_rows; ++by) {
        const std::size_t row_start = walker.position();
        std::uint64_t row_symbols = 0;
        for (int bx = 0; bx < blocks_across; ++bx) {
            if (!walkBlock(walker, dc_pred, row_symbols))
                return false;
        }
        verdict.symbols += row_symbols;
        verdict.bytes_read += (walker.position() - row_start) / 8;
    }
    return true;
}

Verdict
oracle(const std::string &blob)
{
    Verdict verdict;
    if (blob.size() < kHeaderBytes) {
        verdict.code = ErrorCode::kTruncated;
        return verdict;
    }
    const auto *u = reinterpret_cast<const std::uint8_t *>(blob.data());
    const int width = u[4] | (u[5] << 8);
    const int height = u[6] | (u[7] << 8);
    const int quality = u[8];
    const bool subsampled = u[9] != 0;
    if (std::memcmp(u, "LJ01", 4) != 0 || width == 0 || height == 0 ||
        quality < 1 || quality > 100 ||
        static_cast<std::int64_t>(width) * height > kMaxPixels)
        return verdict;
    BitWalker walker(u + kHeaderBytes, blob.size() - kHeaderBytes);
    const int chroma_width = subsampled ? (width + 1) / 2 : width;
    const int chroma_height = subsampled ? (height + 1) / 2 : height;
    if (!walkPlane(walker, width, height, verdict))
        return verdict;
    walker.alignByte();
    if (!walkPlane(walker, chroma_width, chroma_height, verdict))
        return verdict;
    walker.alignByte();
    if (!walkPlane(walker, chroma_width, chroma_height, verdict))
        return verdict;
    verdict.ok = true;
    verdict.width = width;
    verdict.height = height;
    return verdict;
}

hwcount::WorkStats
decodeMcuStats()
{
    return hwcount::KernelRegistry::instance()
        .snapshot()
        .aggregate[static_cast<std::size_t>(hwcount::KernelId::DecodeMcu)]
        .stats;
}

/** The decoder's side of a Verdict: the whole frame, or only
 *  @p window when given. The decoded image goes to @p image. */
Verdict
decodeVerdict(const std::string &blob, bool reference,
              const std::optional<image::Rect> &window, image::Image &image)
{
    const image::codec::DecodeOptions options{.reference = reference,
                                              .max_pixels = kMaxPixels};
    const hwcount::WorkStats before = decodeMcuStats();
    Result<image::Image> decoded =
        window.has_value()
            ? image::codec::tryDecodeWindow(blob, *window, options)
            : image::codec::tryDecode(blob, options);
    const hwcount::WorkStats after = decodeMcuStats();
    Verdict verdict;
    verdict.ok = decoded.ok();
    if (decoded.ok()) {
        image = decoded.take();
        verdict.width = image.width();
        verdict.height = image.height();
    } else {
        verdict.code = decoded.error().code;
    }
    verdict.symbols = after.items - before.items;
    verdict.bytes_read = after.bytes_read - before.bytes_read;
    return verdict;
}

/** A window of a width x height frame: the whole frame, one pixel
 *  (often a corner), a strip along one edge, or a random window with
 *  odd offsets. */
image::Rect
pickWindow(Rng &rng, int width, int height)
{
    const auto pick = [&rng](int extent) {
        return static_cast<int>(rng.nextBelow(
            static_cast<std::uint64_t>(extent)));
    };
    switch (rng.nextBelow(5)) {
    case 0: return image::Rect{0, 0, width, height};
    case 1: {
        const bool corner = rng.chance(0.5);
        const int x = corner ? (rng.chance(0.5) ? 0 : width - 1) : pick(width);
        const int y =
            corner ? (rng.chance(0.5) ? 0 : height - 1) : pick(height);
        return image::Rect{x, y, 1, 1};
    }
    case 2: {
        // A strip along the left, right, top or bottom edge.
        const int w = 1 + pick(width);
        const int h = 1 + pick(height);
        switch (rng.nextBelow(4)) {
        case 0: return image::Rect{0, pick(height - h + 1), w, h};
        case 1: return image::Rect{width - w, pick(height - h + 1), w, h};
        case 2: return image::Rect{pick(width - w + 1), 0, w, h};
        default: return image::Rect{pick(width - w + 1), height - h, w, h};
        }
    }
    case 3: {
        // Odd offsets where the frame allows them.
        const int x = width > 1 ? (pick(width - 1) | 1) % width : 0;
        const int y = height > 1 ? (pick(height - 1) | 1) % height : 0;
        return image::Rect{x, y, 1 + pick(width - x), 1 + pick(height - y)};
    }
    default: {
        const int w = 1 + pick(width);
        const int h = 1 + pick(height);
        return image::Rect{pick(width - w + 1), pick(height - h + 1), w, h};
    }
    }
}

/** True when the window decode's pixels are the full decode's
 *  cropped to @p window. */
bool
samePixels(const image::Image &part, const image::Image &full,
           const image::Rect &window)
{
    if (part.width() != window.width || part.height() != window.height)
        return false;
    const image::Image cropped = image::crop(full, window);
    return std::memcmp(part.raw(), cropped.raw(), part.byteSize()) == 0;
}

void
reportFinding(const std::string &blob, const char *what,
              const Verdict &expected, const Verdict &actual)
{
    std::fprintf(stderr,
                 "fuzz_ljpg_decode: FINDING (%s)\n"
                 "  oracle:  ok=%d code=%s symbols=%llu bytes=%llu %dx%d\n"
                 "  decoder: ok=%d code=%s symbols=%llu bytes=%llu %dx%d\n"
                 "  stream (%zu bytes):",
                 what, expected.ok, errorCodeName(expected.code),
                 static_cast<unsigned long long>(expected.symbols),
                 static_cast<unsigned long long>(expected.bytes_read),
                 expected.width, expected.height, actual.ok,
                 errorCodeName(actual.code),
                 static_cast<unsigned long long>(actual.symbols),
                 static_cast<unsigned long long>(actual.bytes_read),
                 actual.width, actual.height, blob.size());
    for (std::size_t i = 0; i < blob.size(); ++i)
        std::fprintf(stderr, "%s%02x", i % 32 == 0 ? "\n    " : " ",
                     static_cast<unsigned char>(blob[i]));
    std::fprintf(stderr, "\n");
    std::ofstream("fuzz_ljpg_decode-finding.ljpg", std::ios::binary)
        .write(blob.data(), static_cast<std::streamsize>(blob.size()));
}

/** Check every property on one stream; false on a finding. */
bool
check(const std::string &blob, bool with_reference, Rng &window_rng,
      int &accepted)
{
    const Verdict expected = oracle(blob);
    // The window: drawn from the header when it parses (past the
    // header checks, a window outside the frame is a caller bug).
    image::Rect window{0, 0, 1, 1};
    if (Result<image::codec::LjpgHeader> header =
            image::codec::tryPeekHeader(blob);
        header.ok())
        window = pickWindow(window_rng, header.value().width,
                            header.value().height);
    image::Image full;
    enum class Mode { kFast, kReference, kWindow };
    for (const Mode mode : {Mode::kFast, Mode::kReference, Mode::kWindow}) {
        if (mode == Mode::kReference && !with_reference)
            continue;
        image::Image image;
        const Verdict actual = decodeVerdict(
            blob, mode == Mode::kReference,
            mode == Mode::kWindow ? std::optional<image::Rect>(window)
                                  : std::nullopt,
            mode == Mode::kFast ? full : image);
        const bool whole = mode != Mode::kWindow;
        const char *what = nullptr;
        if (actual.ok != expected.ok)
            what = "verdict differs from the oracle";
        else if (!actual.ok && actual.code != expected.code)
            what = "error code differs from the oracle";
        else if (actual.symbols != expected.symbols)
            what = "decode_mcu items differ from the oracle";
        else if (actual.bytes_read != expected.bytes_read)
            what = "decode_mcu bytes_read differs from the oracle";
        else if (whole && actual.ok &&
                 (actual.width != expected.width ||
                  actual.height != expected.height))
            what = "accepted image does not have the header's dimensions";
        else if (!whole && actual.ok && !samePixels(image, full, window))
            what = "window decode differs from the cropped full decode";
        if (what != nullptr) {
            reportFinding(blob, what, expected, actual);
            if (whole)
                std::fprintf(stderr, "  (%s decode)\n",
                             mode == Mode::kReference ? "reference"
                                                      : "fast");
            else
                std::fprintf(stderr, "  (window decode, %d,%d %dx%d)\n",
                             window.x, window.y, window.width,
                             window.height);
            return false;
        }
    }
    accepted += expected.ok ? 1 : 0;
    return true;
}

std::vector<std::string>
encodedSeeds()
{
    struct Shape
    {
        int width;
        int height;
    };
    const Shape shapes[] = {{8, 8}, {17, 9}, {24, 24}, {40, 32}, {64, 48},
                            {96, 72}};
    std::vector<std::string> seeds;
    Rng rng(2024);
    for (const Shape shape : shapes) {
        for (const int quality : {30, 75, 95}) {
            for (const bool subsample : {true, false}) {
                const image::Image img =
                    image::synthesize(rng, shape.width, shape.height,
                                      image::SynthOptions{0.6, 2});
                seeds.push_back(image::codec::encode(
                    img, image::codec::EncodeOptions{quality, subsample}));
            }
        }
    }
    return seeds;
}

std::vector<std::string>
readCorpus(const std::string &dir)
{
    std::vector<std::filesystem::path> paths;
    for (const auto &entry : std::filesystem::directory_iterator(dir))
        if (entry.is_regular_file())
            paths.push_back(entry.path());
    std::sort(paths.begin(), paths.end());
    std::vector<std::string> corpus;
    for (const auto &path : paths) {
        std::ifstream in(path, std::ios::binary);
        corpus.emplace_back(std::istreambuf_iterator<char>(in),
                            std::istreambuf_iterator<char>());
    }
    return corpus;
}

/** A position biased toward the entropy payload. */
std::size_t
pickByte(Rng &rng, const std::string &blob)
{
    if (blob.size() > kHeaderBytes && !rng.chance(0.1))
        return kHeaderBytes + rng.nextBelow(blob.size() - kHeaderBytes);
    return rng.nextBelow(blob.size());
}

void
flipBits(Rng &rng, std::string &blob)
{
    const int flips = 1 + static_cast<int>(rng.nextBelow(4));
    for (int i = 0; i < flips; ++i) {
        const std::size_t pos = pickByte(rng, blob);
        blob[pos] = static_cast<char>(static_cast<unsigned char>(blob[pos]) ^
                                      (1u << rng.nextBelow(8)));
    }
}

void
byteStorm(Rng &rng, std::string &blob)
{
    const int bytes = 1 + static_cast<int>(rng.nextBelow(8));
    for (int i = 0; i < bytes; ++i)
        blob[pickByte(rng, blob)] = static_cast<char>(rng.nextBelow(256));
}

void
truncate(Rng &rng, std::string &blob)
{
    // Length classes: inside the header, an empty or short payload,
    // within the last 16 bytes (the reader's zero-padded tail), or
    // anywhere.
    std::size_t keep = 0;
    switch (rng.nextBelow(4)) {
    case 0: keep = rng.nextBelow(kHeaderBytes + 1); break;
    case 1: keep = kHeaderBytes + rng.nextBelow(17); break;
    case 2: keep = blob.size() - std::min<std::size_t>(
                                     blob.size(), 1 + rng.nextBelow(16));
        break;
    default: keep = rng.nextBelow(blob.size()); break;
    }
    blob.resize(std::min(keep, blob.size()));
}

void
editHeader(Rng &rng, std::string &blob)
{
    if (blob.size() < kHeaderBytes)
        return;
    auto set16 = [&blob](std::size_t at, std::uint64_t value) {
        blob[at] = static_cast<char>(value & 0xFF);
        blob[at + 1] = static_cast<char>((value >> 8) & 0xFF);
    };
    auto get16 = [&blob](std::size_t at) {
        return static_cast<unsigned char>(blob[at]) |
               (static_cast<unsigned char>(blob[at + 1]) << 8);
    };
    switch (rng.nextBelow(5)) {
    case 0:
    case 1: {
        // Width or height: nearby, small, zero, or huge.
        const std::size_t at = rng.chance(0.5) ? 4 : 6;
        const std::uint64_t values[] = {
            static_cast<std::uint64_t>(get16(at) + 1),
            static_cast<std::uint64_t>(std::max(get16(at) - 1, 0)),
            1 + rng.nextBelow(64), 0, 0xFFFF, 1 + rng.nextBelow(0xFFFF)};
        set16(at, values[rng.nextBelow(std::size(values))]);
        break;
    }
    case 2: {
        const int values[] = {0, 1, 50, 100, 101, 255,
                              static_cast<int>(rng.nextBelow(256))};
        blob[8] = static_cast<char>(values[rng.nextBelow(std::size(values))]);
        break;
    }
    case 3: // subsampling flag: toggled, or any byte
        blob[9] = static_cast<char>(rng.nextBelow(3) == 0
                                        ? rng.nextBelow(256)
                                        : (blob[9] == 0 ? 1 : 0));
        break;
    default: // magic
        blob[rng.nextBelow(4)] ^= static_cast<char>(1 + rng.nextBelow(255));
        break;
    }
}

void
spliceLongPrefix(Rng &rng, std::string &blob)
{
    // 20-40 zero bits and a 1 at a random payload bit: prefixes around
    // the reader's 28-zero cap and the old 32-zero shift.
    if (blob.size() <= kHeaderBytes)
        return;
    std::size_t bit =
        kHeaderBytes * 8 + rng.nextBelow((blob.size() - kHeaderBytes) * 8);
    const int zeros = 20 + static_cast<int>(rng.nextBelow(21));
    for (int i = 0; i <= zeros && bit / 8 < blob.size(); ++i, ++bit) {
        const auto mask = static_cast<unsigned char>(0x80u >> (bit % 8));
        auto byte = static_cast<unsigned char>(blob[bit / 8]);
        byte = i < zeros ? byte & ~mask : byte | mask;
        blob[bit / 8] = static_cast<char>(byte);
    }
}

void
mutate(Rng &rng, std::string &blob)
{
    const int rounds = 1 + static_cast<int>(rng.nextBelow(3));
    for (int i = 0; i < rounds && !blob.empty(); ++i) {
        switch (rng.nextBelow(5)) {
        case 0: flipBits(rng, blob); break;
        case 1: byteStorm(rng, blob); break;
        case 2: truncate(rng, blob); break;
        case 3: editHeader(rng, blob); break;
        default: spliceLongPrefix(rng, blob); break;
        }
    }
}

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --iterations N [--seed S] [--corpus DIR]\n",
                 argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    long long iterations = -1;
    std::uint64_t seed = 1;
    std::string corpus_dir;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            return usage(argv[0]);
        const char *value = argv[++i];
        if (arg == "--iterations")
            iterations = std::strtoll(value, nullptr, 10);
        else if (arg == "--seed")
            seed = std::strtoull(value, nullptr, 10);
        else if (arg == "--corpus")
            corpus_dir = value;
        else
            return usage(argv[0]);
    }
    if (iterations < 0)
        return usage(argv[0]);

    int accepted = 0;
    std::vector<std::string> corpus;
    if (!corpus_dir.empty())
        corpus = readCorpus(corpus_dir);
    // Windows draw from their own stream, so the mutation stream stays
    // the one a seed has always produced.
    Rng window_rng(seed ^ 0x57494E444F57ull);
    for (const std::string &blob : corpus)
        if (!check(blob, /*with_reference=*/true, window_rng, accepted))
            return 1;

    std::vector<std::string> pool = encodedSeeds();
    pool.insert(pool.end(), corpus.begin(), corpus.end());
    Rng rng(seed);
    for (long long i = 0; i < iterations; ++i) {
        std::string blob = pool[rng.nextBelow(pool.size())];
        if (!rng.chance(1.0 / 32.0))
            mutate(rng, blob);
        if (!check(blob, /*with_reference=*/i % 8 == 0, window_rng,
                   accepted))
            return 1;
    }
    std::printf("fuzz_ljpg_decode: %zu corpus + %lld mutated streams "
                "(seed %llu), %d accepted, no findings\n",
                corpus.size(), iterations,
                static_cast<unsigned long long>(seed), accepted);
    return 0;
}
