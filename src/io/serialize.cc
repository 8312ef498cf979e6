#include "src/io/serialize.h"

#include <cstring>

namespace edsr::io {

namespace {

// All multi-byte values are stored in the host byte order. Checkpoints are
// host-local artifacts (crash-resume on the machine that wrote them), so no
// byte swapping is performed; the container magic pins the format.

template <typename T>
void AppendRaw(std::vector<uint8_t>* bytes, T value) {
  const auto* p = reinterpret_cast<const uint8_t*>(&value);
  bytes->insert(bytes->end(), p, p + sizeof(T));
}

}  // namespace

void BufferWriter::WriteU8(uint8_t value) { AppendRaw(&bytes_, value); }
void BufferWriter::WriteU32(uint32_t value) { AppendRaw(&bytes_, value); }
void BufferWriter::WriteU64(uint64_t value) { AppendRaw(&bytes_, value); }
void BufferWriter::WriteI64(int64_t value) { AppendRaw(&bytes_, value); }
void BufferWriter::WriteF32(float value) { AppendRaw(&bytes_, value); }
void BufferWriter::WriteF64(double value) { AppendRaw(&bytes_, value); }

void BufferWriter::WriteBytes(const void* data, size_t size) {
  const auto* p = static_cast<const uint8_t*>(data);
  bytes_.insert(bytes_.end(), p, p + size);
}

void BufferWriter::WriteString(const std::string& value) {
  WriteU64(value.size());
  WriteBytes(value.data(), value.size());
}

void BufferWriter::WriteFloats(const std::vector<float>& values) {
  WriteU64(values.size());
  WriteBytes(values.data(), values.size() * sizeof(float));
}

void BufferWriter::WriteInts(const std::vector<int64_t>& values) {
  WriteU64(values.size());
  WriteBytes(values.data(), values.size() * sizeof(int64_t));
}

util::Status BufferReader::ReadBytes(void* out, size_t size) {
  if (size > remaining()) {
    return util::Status::IoError("truncated payload: need " +
                                 std::to_string(size) + " bytes, have " +
                                 std::to_string(remaining()));
  }
  // An empty vector's data() may be null, and memcpy's pointers must not be.
  if (size == 0) return util::Status::OK();
  std::memcpy(out, data_ + pos_, size);
  pos_ += size;
  return util::Status::OK();
}

util::Status BufferReader::Skip(size_t size) {
  if (size > remaining()) {
    return util::Status::IoError("truncated payload: cannot skip " +
                                 std::to_string(size) + " bytes, have " +
                                 std::to_string(remaining()));
  }
  pos_ += size;
  return util::Status::OK();
}

util::Status BufferReader::ReadU8(uint8_t* out) {
  return ReadBytes(out, sizeof(*out));
}
util::Status BufferReader::ReadU32(uint32_t* out) {
  return ReadBytes(out, sizeof(*out));
}
util::Status BufferReader::ReadU64(uint64_t* out) {
  return ReadBytes(out, sizeof(*out));
}
util::Status BufferReader::ReadI64(int64_t* out) {
  return ReadBytes(out, sizeof(*out));
}
util::Status BufferReader::ReadF32(float* out) {
  return ReadBytes(out, sizeof(*out));
}
util::Status BufferReader::ReadF64(double* out) {
  return ReadBytes(out, sizeof(*out));
}

util::Status BufferReader::ReadString(std::string* out) {
  uint64_t size = 0;
  EDSR_RETURN_NOT_OK(ReadU64(&size));
  // Validate before allocating: a corrupt prefix must not drive a huge
  // std::string reservation.
  if (size > remaining()) {
    return util::Status::IoError("string length " + std::to_string(size) +
                                 " exceeds remaining payload " +
                                 std::to_string(remaining()));
  }
  out->assign(reinterpret_cast<const char*>(data_ + pos_),
              static_cast<size_t>(size));
  pos_ += static_cast<size_t>(size);
  return util::Status::OK();
}

util::Status BufferReader::ReadFloats(std::vector<float>* out) {
  uint64_t count = 0;
  EDSR_RETURN_NOT_OK(ReadU64(&count));
  if (count > remaining() / sizeof(float)) {
    return util::Status::IoError("float count " + std::to_string(count) +
                                 " exceeds remaining payload");
  }
  out->resize(static_cast<size_t>(count));
  return ReadBytes(out->data(), static_cast<size_t>(count) * sizeof(float));
}

util::Status BufferReader::ReadInts(std::vector<int64_t>* out) {
  uint64_t count = 0;
  EDSR_RETURN_NOT_OK(ReadU64(&count));
  if (count > remaining() / sizeof(int64_t)) {
    return util::Status::IoError("int count " + std::to_string(count) +
                                 " exceeds remaining payload");
  }
  out->resize(static_cast<size_t>(count));
  return ReadBytes(out->data(), static_cast<size_t>(count) * sizeof(int64_t));
}

util::Status BufferReader::ExpectEnd() const {
  if (!AtEnd()) {
    return util::Status::IoError(std::to_string(remaining()) +
                                 " trailing bytes after payload");
  }
  return util::Status::OK();
}

}  // namespace edsr::io
