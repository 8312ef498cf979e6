// Bounds-checked binary (de)serialization into byte buffers.
//
// BufferWriter appends fixed-width little-endian primitives and
// length-prefixed containers to an in-memory byte vector (a checkpoint
// section payload). BufferReader is its paranoid inverse: every read
// validates the remaining byte count *before* touching the buffer and every
// length prefix is validated against the bytes actually present before any
// allocation happens, so a corrupt or truncated payload yields a clean
// util::Status instead of a crash or a multi-gigabyte allocation.
#ifndef EDSR_SRC_IO_SERIALIZE_H_
#define EDSR_SRC_IO_SERIALIZE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/util/status.h"

namespace edsr::io {

class BufferWriter {
 public:
  void WriteU8(uint8_t value);
  void WriteU32(uint32_t value);
  void WriteU64(uint64_t value);
  void WriteI64(int64_t value);
  void WriteF32(float value);
  void WriteF64(double value);
  void WriteBytes(const void* data, size_t size);
  // u64 length prefix + raw bytes.
  void WriteString(const std::string& value);
  // u64 element count + raw IEEE-754 payload.
  void WriteFloats(const std::vector<float>& values);
  // u64 element count + raw int64 payload.
  void WriteInts(const std::vector<int64_t>& values);

  const std::vector<uint8_t>& bytes() const { return bytes_; }
  std::vector<uint8_t> TakeBytes() { return std::move(bytes_); }

 private:
  std::vector<uint8_t> bytes_;
};

class BufferReader {
 public:
  BufferReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  explicit BufferReader(const std::vector<uint8_t>& bytes)
      : BufferReader(bytes.data(), bytes.size()) {}

  util::Status ReadU8(uint8_t* out);
  util::Status ReadU32(uint32_t* out);
  util::Status ReadU64(uint64_t* out);
  util::Status ReadI64(int64_t* out);
  util::Status ReadF32(float* out);
  util::Status ReadF64(double* out);
  util::Status ReadBytes(void* out, size_t size);
  // Advances past `size` bytes without copying them (skipping another
  // module's serialized state inside a shared payload). Bounds-checked like
  // every read.
  util::Status Skip(size_t size);
  util::Status ReadString(std::string* out);
  util::Status ReadFloats(std::vector<float>* out);
  util::Status ReadInts(std::vector<int64_t>* out);

  size_t remaining() const { return size_ - pos_; }
  bool AtEnd() const { return pos_ == size_; }
  // Fails unless every byte of the payload has been consumed (catches
  // format drift between writer and reader).
  util::Status ExpectEnd() const;

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

// Name-tagged state envelope: `owner.name()`, a u64 payload length, then
// the payload `owner.Serialize` writes. Selectors, retrieval policies and
// stream transforms checkpoint their state this way. The load fails on a
// different name (state written under one policy must not silently feed
// another) and unless Deserialize consumed exactly its own bytes.
template <typename T>
void SaveNamedState(const T& owner, BufferWriter* out) {
  out->WriteString(owner.name());
  BufferWriter payload;
  owner.Serialize(&payload);
  out->WriteU64(payload.bytes().size());
  out->WriteBytes(payload.bytes().data(), payload.bytes().size());
}

template <typename T>
util::Status LoadNamedState(T* owner, BufferReader* in) {
  EDSR_CHECK(owner != nullptr);
  std::string saved_name;
  EDSR_RETURN_NOT_OK(in->ReadString(&saved_name));
  if (saved_name != owner->name()) {
    return util::Status::InvalidArgument(
        "checkpoint state was written by \"" + saved_name + "\", not \"" +
        owner->name() + "\"");
  }
  uint64_t size = 0;
  EDSR_RETURN_NOT_OK(in->ReadU64(&size));
  if (size > in->remaining()) {
    return util::Status::IoError("truncated " + saved_name +
                                 " state payload");
  }
  std::vector<uint8_t> bytes(size);
  EDSR_RETURN_NOT_OK(in->ReadBytes(bytes.data(), bytes.size()));
  BufferReader payload(bytes);
  EDSR_RETURN_NOT_OK(owner->Deserialize(&payload));
  return payload.ExpectEnd();
}

}  // namespace edsr::io

#endif  // EDSR_SRC_IO_SERIALIZE_H_
