// Tests for the io:: checkpoint container: CRC-32, bounds-checked buffer
// (de)serialization, atomic writes, and — the point of the subsystem —
// that no truncation or single-bit corruption ever crashes a reader.
#include "src/io/container.h"

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/io/crc32.h"
#include "src/io/serialize.h"

namespace edsr {
namespace {

std::string TestPath(const std::string& name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

bool FileExists(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return in.good();
}

std::vector<uint8_t> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<uint8_t>((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

// ---- CRC-32 -----------------------------------------------------------

TEST(Crc32, KnownVector) {
  // The IEEE CRC-32 check value for the ASCII digits "123456789".
  EXPECT_EQ(io::Crc32("123456789", 9), 0xCBF43926u);
}

TEST(Crc32, EmptyInputIsZero) { EXPECT_EQ(io::Crc32("", 0), 0u); }

TEST(Crc32, IncrementalMatchesOneShot) {
  const std::string data = "incremental checksumming";
  uint32_t whole = io::Crc32(data.data(), data.size());
  uint32_t part = io::Crc32(data.data(), 7);
  part = io::Crc32(data.data() + 7, data.size() - 7, part);
  EXPECT_EQ(part, whole);
}

TEST(Crc32, DetectsSingleBitFlip) {
  std::vector<uint8_t> bytes(64, 0xA5);
  uint32_t clean = io::Crc32(bytes.data(), bytes.size());
  for (size_t bit = 0; bit < bytes.size() * 8; ++bit) {
    bytes[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    EXPECT_NE(io::Crc32(bytes.data(), bytes.size()), clean) << "bit " << bit;
    bytes[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
  }
}

// The definition, one bit at a time: the reflected polynomial 0xEDB88320
// with the all-ones preset and final inversion (zlib's crc32).
uint32_t BitwiseCrc32(const uint8_t* data, size_t size) {
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < size; ++i) {
    crc ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ (0xEDB88320u & (0u - (crc & 1u)));
    }
  }
  return ~crc;
}

std::vector<uint8_t> RandomBytes(size_t size, uint32_t seed) {
  std::vector<uint8_t> bytes(size);
  uint32_t state = seed;
  for (uint8_t& b : bytes) {
    state = state * 1664525u + 1013904223u;
    b = static_cast<uint8_t>(state >> 24);
  }
  return bytes;
}

TEST(Crc32, MatchesBitwiseReferenceAtEveryLengthAndAlignment) {
  // Every length 0-300 from every start offset 0-7, so each eight-byte step
  // and each tail length meets each alignment.
  const std::vector<uint8_t> bytes = RandomBytes(300 + 8, 1);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t size = 0; size <= 300; ++size) {
      ASSERT_EQ(io::Crc32(bytes.data() + offset, size),
                BitwiseCrc32(bytes.data() + offset, size))
          << "offset " << offset << " size " << size;
    }
  }
  const std::vector<uint8_t> mib = RandomBytes(1 << 20, 2);
  EXPECT_EQ(io::Crc32(mib.data(), mib.size()),
            BitwiseCrc32(mib.data(), mib.size()));
}

TEST(Crc32, SeededCompositionMatchesOneShotAtEverySplit) {
  const std::vector<uint8_t> bytes = RandomBytes(300, 3);
  const uint32_t whole = io::Crc32(bytes.data(), bytes.size());
  for (size_t k = 0; k <= bytes.size(); ++k) {
    EXPECT_EQ(io::Crc32(bytes.data() + k, bytes.size() - k,
                        io::Crc32(bytes.data(), k)),
              whole)
        << "split " << k;
  }
}

// ---- BufferWriter / BufferReader --------------------------------------

TEST(Serialize, RoundTripsEveryPrimitive) {
  io::BufferWriter out;
  out.WriteU8(0xAB);
  out.WriteU32(0xDEADBEEF);
  out.WriteU64(1ull << 60);
  out.WriteI64(-42);
  out.WriteF32(3.25f);
  out.WriteF64(-1.0 / 3.0);
  out.WriteString("hello");
  out.WriteFloats({1.0f, -2.0f, 0.5f});
  out.WriteInts({7, -9});

  io::BufferReader in(out.bytes());
  uint8_t u8 = 0;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  int64_t i64 = 0;
  float f32 = 0;
  double f64 = 0;
  std::string str;
  std::vector<float> floats;
  std::vector<int64_t> ints;
  ASSERT_TRUE(in.ReadU8(&u8).ok());
  ASSERT_TRUE(in.ReadU32(&u32).ok());
  ASSERT_TRUE(in.ReadU64(&u64).ok());
  ASSERT_TRUE(in.ReadI64(&i64).ok());
  ASSERT_TRUE(in.ReadF32(&f32).ok());
  ASSERT_TRUE(in.ReadF64(&f64).ok());
  ASSERT_TRUE(in.ReadString(&str).ok());
  ASSERT_TRUE(in.ReadFloats(&floats).ok());
  ASSERT_TRUE(in.ReadInts(&ints).ok());
  EXPECT_EQ(u8, 0xAB);
  EXPECT_EQ(u32, 0xDEADBEEFu);
  EXPECT_EQ(u64, 1ull << 60);
  EXPECT_EQ(i64, -42);
  EXPECT_EQ(f32, 3.25f);
  EXPECT_EQ(f64, -1.0 / 3.0);
  EXPECT_EQ(str, "hello");
  EXPECT_EQ(floats, (std::vector<float>{1.0f, -2.0f, 0.5f}));
  EXPECT_EQ(ints, (std::vector<int64_t>{7, -9}));
  EXPECT_TRUE(in.AtEnd());
  EXPECT_TRUE(in.ExpectEnd().ok());
}

TEST(Serialize, EveryTruncationFailsCleanly) {
  io::BufferWriter out;
  out.WriteU32(17);
  out.WriteString("name");
  out.WriteFloats({1.0f, 2.0f});
  const std::vector<uint8_t>& full = out.bytes();

  for (size_t len = 0; len < full.size(); ++len) {
    io::BufferReader in(full.data(), len);
    uint32_t u32 = 0;
    std::string str;
    std::vector<float> floats;
    util::Status status = in.ReadU32(&u32);
    if (status.ok()) status = in.ReadString(&str);
    if (status.ok()) status = in.ReadFloats(&floats);
    EXPECT_FALSE(status.ok()) << "length " << len;
    EXPECT_EQ(status.code(), util::StatusCode::kIoError);
  }
}

TEST(Serialize, HugeLengthPrefixIsRejectedBeforeAllocating) {
  // A corrupt length prefix claiming ~2^61 elements must fail by bounds
  // check, not by attempting a multi-exabyte allocation.
  io::BufferWriter out;
  out.WriteU64(uint64_t{1} << 61);
  out.WriteU8(0);  // far fewer payload bytes than the prefix claims

  std::string str;
  EXPECT_EQ(io::BufferReader(out.bytes()).ReadString(&str).code(),
            util::StatusCode::kIoError);
  std::vector<float> floats;
  EXPECT_EQ(io::BufferReader(out.bytes()).ReadFloats(&floats).code(),
            util::StatusCode::kIoError);
  std::vector<int64_t> ints;
  EXPECT_EQ(io::BufferReader(out.bytes()).ReadInts(&ints).code(),
            util::StatusCode::kIoError);
}

TEST(Serialize, ExpectEndRejectsTrailingBytes) {
  io::BufferWriter out;
  out.WriteU8(1);
  out.WriteU8(2);
  io::BufferReader in(out.bytes());
  uint8_t value = 0;
  ASSERT_TRUE(in.ReadU8(&value).ok());
  EXPECT_FALSE(in.ExpectEnd().ok());
}

// An empty vector's data() may be null, and a zero-byte read into it must
// not reach memcpy (the sanitize preset halts on that UBSan report).
TEST(Serialize, EmptyReadsRoundTripIntoNullData) {
  io::BufferWriter out;
  out.WriteFloats({});
  out.WriteInts({});
  io::BufferReader in(out.bytes());
  std::vector<float> floats;
  std::vector<int64_t> ints;
  ASSERT_TRUE(in.ReadFloats(&floats).ok());
  ASSERT_TRUE(in.ReadInts(&ints).ok());
  EXPECT_TRUE(floats.empty());
  EXPECT_TRUE(ints.empty());
  EXPECT_TRUE(in.ExpectEnd().ok());
  std::vector<uint8_t> none;
  EXPECT_TRUE(io::BufferReader(none).ReadBytes(none.data(), 0).ok());
}

// ---- Container --------------------------------------------------------

std::string WriteTwoSectionContainer(const std::string& name) {
  std::string path = TestPath(name);
  io::ContainerWriter writer(path);
  io::BufferWriter alpha;
  alpha.WriteString("alpha payload");
  writer.AddSection("alpha", &alpha);
  io::BufferWriter beta;
  beta.WriteFloats({1.0f, 2.0f, 3.0f});
  writer.AddSection("beta", &beta);
  writer.Finish().Check();
  return path;
}

TEST(Container, RoundTripsSections) {
  std::string path = WriteTwoSectionContainer("container_roundtrip.ckpt");
  util::Result<io::ContainerReader> reader = io::ContainerReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_TRUE((*reader).HasSection("alpha"));
  EXPECT_TRUE((*reader).HasSection("beta"));
  EXPECT_FALSE((*reader).HasSection("gamma"));
  EXPECT_EQ((*reader).SectionNames(),
            (std::vector<std::string>{"alpha", "beta"}));

  std::vector<uint8_t> bytes;
  ASSERT_TRUE((*reader).ReadSection("alpha", &bytes).ok());
  std::string text;
  ASSERT_TRUE(io::BufferReader(bytes).ReadString(&text).ok());
  EXPECT_EQ(text, "alpha payload");

  ASSERT_TRUE((*reader).ReadSection("beta", &bytes).ok());
  std::vector<float> floats;
  ASSERT_TRUE(io::BufferReader(bytes).ReadFloats(&floats).ok());
  EXPECT_EQ(floats, (std::vector<float>{1.0f, 2.0f, 3.0f}));

  EXPECT_EQ((*reader).ReadSection("gamma", &bytes).code(),
            util::StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(Container, WriteIsAtomic) {
  std::string path = TestPath("container_atomic.ckpt");
  std::remove(path.c_str());
  {
    io::ContainerWriter writer(path);
    io::BufferWriter payload;
    payload.WriteU32(7);
    writer.AddSection("only", &payload);
    // Nothing may exist under the final name until Finish() succeeds.
    EXPECT_FALSE(FileExists(path));
    writer.Finish().Check();
  }
  EXPECT_TRUE(FileExists(path));
  EXPECT_FALSE(FileExists(path + ".tmp"));
  std::remove(path.c_str());
}

TEST(Container, FinishFailsCleanlyOnUnwritablePath) {
  std::string path = TestPath("no_such_dir") + "/nested/run.ckpt";
  io::ContainerWriter writer(path);
  io::BufferWriter payload;
  payload.WriteU32(1);
  writer.AddSection("only", &payload);
  EXPECT_EQ(writer.Finish().code(), util::StatusCode::kIoError);
  EXPECT_FALSE(FileExists(path));
}

TEST(Container, MissingFileIsCleanError) {
  util::Result<io::ContainerReader> reader =
      io::ContainerReader::Open(TestPath("does_not_exist.ckpt"));
  EXPECT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), util::StatusCode::kIoError);
}

TEST(Container, RejectsBadMagic) {
  std::string path = WriteTwoSectionContainer("container_magic.ckpt");
  std::vector<uint8_t> bytes = ReadFile(path);
  bytes[0] = 'X';
  WriteFile(path, bytes);
  util::Result<io::ContainerReader> reader = io::ContainerReader::Open(path);
  EXPECT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), util::StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(Container, RejectsUnknownVersion) {
  std::string path = WriteTwoSectionContainer("container_version.ckpt");
  std::vector<uint8_t> bytes = ReadFile(path);
  bytes[8] = 0xFF;  // first byte of the little-endian u32 format version
  WriteFile(path, bytes);
  util::Result<io::ContainerReader> reader = io::ContainerReader::Open(path);
  EXPECT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), util::StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(Container, EveryTruncationFailsCleanly) {
  // Chopping the file at *any* byte boundary — inside the header, a payload,
  // or the section table — must surface as a Status, never a crash. The
  // table sits at the end of the file, so every proper prefix is invalid.
  std::string path = WriteTwoSectionContainer("container_truncate.ckpt");
  std::vector<uint8_t> full = ReadFile(path);
  ASSERT_GT(full.size(), 24u);

  for (size_t len = 0; len < full.size(); ++len) {
    WriteFile(path, std::vector<uint8_t>(full.begin(), full.begin() + len));
    util::Result<io::ContainerReader> reader = io::ContainerReader::Open(path);
    EXPECT_FALSE(reader.ok()) << "truncated to " << len << " bytes";
  }
  std::remove(path.c_str());
}

TEST(Container, EverySingleBitFlipFailsCleanly) {
  // Flip each bit of the container in turn. Wherever the flip lands —
  // header, payload (CRC-covered), table offsets, or a section name — a
  // reader asking for the sections it wrote must get a Status error.
  std::string path = WriteTwoSectionContainer("container_bitflip.ckpt");
  const std::vector<uint8_t> full = ReadFile(path);

  for (size_t bit = 0; bit < full.size() * 8; ++bit) {
    std::vector<uint8_t> corrupt = full;
    corrupt[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    WriteFile(path, corrupt);

    util::Result<io::ContainerReader> reader = io::ContainerReader::Open(path);
    bool failed = !reader.ok();
    if (!failed) {
      std::vector<uint8_t> bytes;
      failed = !(*reader).ReadSection("alpha", &bytes).ok() ||
               !(*reader).ReadSection("beta", &bytes).ok();
    }
    EXPECT_TRUE(failed) << "flip of bit " << bit
                        << " went undetected (byte " << bit / 8 << ")";
  }
  std::remove(path.c_str());
}

TEST(Container, OpenSharedReadsLikeOpen) {
  std::string path = WriteTwoSectionContainer("container_shared.ckpt");
  util::Result<io::ContainerReader> reader =
      io::ContainerReader::OpenShared(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  std::vector<uint8_t> bytes;
  ASSERT_TRUE((*reader).ReadSection("alpha", &bytes).ok());
  std::string text;
  ASSERT_TRUE(io::BufferReader(bytes).ReadString(&text).ok());
  EXPECT_EQ(text, "alpha payload");
  std::remove(path.c_str());
}

TEST(Container, OpenSharedRecoversWhenFirstReadSeesAPartialFile) {
  // Simulate losing the race with an atomic rename: the first Open sees a
  // truncated file; by the retry the full container has replaced it.
  // OpenShared's retry-once contract makes this invisible to the caller.
  std::string good = WriteTwoSectionContainer("container_shared_good.ckpt");
  const std::vector<uint8_t> full = ReadFile(good);
  std::string path = TestPath("container_shared_race.ckpt");
  WriteFile(path, std::vector<uint8_t>(full.begin(),
                                       full.begin() + full.size() / 2));

  util::Result<io::ContainerReader> partial = io::ContainerReader::Open(path);
  EXPECT_FALSE(partial.ok());  // a plain Open fails, as it should

  WriteFile(path, full);  // the "rename" lands before OpenShared's retry
  util::Result<io::ContainerReader> reader =
      io::ContainerReader::OpenShared(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  std::remove(good.c_str());
  std::remove(path.c_str());
}

TEST(Container, ReadSectionsIsAllOrNothing) {
  std::string path = WriteTwoSectionContainer("container_multiread.ckpt");
  util::Result<io::ContainerReader> reader = io::ContainerReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();

  std::vector<std::vector<uint8_t>> sections;
  ASSERT_TRUE((*reader).ReadSections({"alpha", "beta"}, &sections).ok());
  ASSERT_EQ(sections.size(), 2u);
  std::string text;
  ASSERT_TRUE(io::BufferReader(sections[0]).ReadString(&text).ok());
  EXPECT_EQ(text, "alpha payload");
  std::vector<float> floats;
  ASSERT_TRUE(io::BufferReader(sections[1]).ReadFloats(&floats).ok());
  EXPECT_EQ(floats, (std::vector<float>{1.0f, 2.0f, 3.0f}));

  // One missing name fails the whole call and leaves *out untouched.
  std::vector<std::vector<uint8_t>> untouched = {{1, 2, 3}};
  EXPECT_FALSE(
      (*reader).ReadSections({"alpha", "gamma"}, &untouched).ok());
  ASSERT_EQ(untouched.size(), 1u);
  EXPECT_EQ(untouched[0], (std::vector<uint8_t>{1, 2, 3}));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace edsr
