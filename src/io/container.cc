#include "src/io/container.h"

#include <cstdio>
#include <cstring>
#include <fstream>

#include "src/io/crc32.h"
#include "src/obs/trace.h"
#include "src/util/check.h"

namespace edsr::io {

namespace {
constexpr size_t kHeaderSize = 8 + 4 + 4 + 8;  // magic | version | count | table offset
// Smallest section-table entry: u64 name length, a one-byte name, u64
// offset, u64 size, u32 CRC.
constexpr size_t kMinTableEntrySize = 8 + 1 + 8 + 8 + 4;
}  // namespace

void ContainerWriter::AddSection(const std::string& name,
                                 std::vector<uint8_t> payload) {
  EDSR_CHECK(!finished_) << "AddSection after Finish";
  EDSR_CHECK(!name.empty()) << "section name must be non-empty";
  for (const Section& s : sections_) {
    EDSR_CHECK(s.name != name) << "duplicate section " << name;
  }
  sections_.push_back({name, std::move(payload)});
}

util::Status ContainerWriter::Finish() {
  EDSR_TRACE_SPAN("container_write");
  EDSR_CHECK(!finished_) << "Finish called twice";
  finished_ = true;

  BufferWriter out;
  out.WriteBytes(kContainerMagic, sizeof(kContainerMagic));
  out.WriteU32(kContainerVersion);
  out.WriteU32(static_cast<uint32_t>(sections_.size()));
  uint64_t offset = kHeaderSize;
  for (const Section& s : sections_) offset += s.payload.size();
  out.WriteU64(offset);  // table offset: right after the payloads

  std::vector<uint64_t> payload_offsets;
  payload_offsets.reserve(sections_.size());
  uint64_t cursor = kHeaderSize;
  for (const Section& s : sections_) {
    payload_offsets.push_back(cursor);
    out.WriteBytes(s.payload.data(), s.payload.size());
    cursor += s.payload.size();
  }
  for (size_t i = 0; i < sections_.size(); ++i) {
    const Section& s = sections_[i];
    out.WriteString(s.name);
    out.WriteU64(payload_offsets[i]);
    out.WriteU64(s.payload.size());
    out.WriteU32(Crc32(s.payload.data(), s.payload.size()));
  }

  const std::string tmp = path_ + ".tmp";
  {
    std::ofstream file(tmp, std::ios::binary | std::ios::trunc);
    if (!file) return util::Status::IoError("cannot open " + tmp);
    const std::vector<uint8_t>& bytes = out.bytes();
    file.write(reinterpret_cast<const char*>(bytes.data()),
               static_cast<std::streamsize>(bytes.size()));
    file.flush();
    if (!file) {
      std::remove(tmp.c_str());
      return util::Status::IoError("write failed for " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path_.c_str()) != 0) {
    std::remove(tmp.c_str());
    return util::Status::IoError("rename " + tmp + " -> " + path_ + " failed");
  }
  return util::Status::OK();
}

util::Result<ContainerReader> ContainerReader::Open(const std::string& path) {
  EDSR_TRACE_SPAN("container_read");
  std::ifstream file(path, std::ios::binary | std::ios::ate);
  if (!file) return util::Status::IoError("cannot open " + path);
  auto size = static_cast<size_t>(file.tellg());
  file.seekg(0);

  ContainerReader reader;
  reader.file_.resize(size);
  file.read(reinterpret_cast<char*>(reader.file_.data()),
            static_cast<std::streamsize>(size));
  if (!file) return util::Status::IoError("read failed for " + path);

  BufferReader header(reader.file_);
  char magic[sizeof(kContainerMagic)] = {};
  EDSR_RETURN_NOT_OK(header.ReadBytes(magic, sizeof(magic)));
  if (std::memcmp(magic, kContainerMagic, sizeof(magic)) != 0) {
    return util::Status::InvalidArgument(path + ": bad container magic");
  }
  uint32_t version = 0;
  EDSR_RETURN_NOT_OK(header.ReadU32(&version));
  if (version != kContainerVersion) {
    return util::Status::InvalidArgument(
        path + ": unsupported container version " + std::to_string(version));
  }
  uint32_t count = 0;
  uint64_t table_offset = 0;
  EDSR_RETURN_NOT_OK(header.ReadU32(&count));
  EDSR_RETURN_NOT_OK(header.ReadU64(&table_offset));
  if (table_offset < kHeaderSize || table_offset > size) {
    return util::Status::IoError(path + ": section table offset out of range");
  }

  // Validate before reserving: a corrupt count must not drive a huge
  // allocation.
  if (count > (size - table_offset) / kMinTableEntrySize) {
    return util::Status::IoError(path + ": section count " +
                                 std::to_string(count) +
                                 " exceeds the section table");
  }
  BufferReader table(reader.file_.data() + table_offset, size - table_offset);
  reader.sections_.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    Section s;
    EDSR_RETURN_NOT_OK(table.ReadString(&s.name));
    EDSR_RETURN_NOT_OK(table.ReadU64(&s.offset));
    EDSR_RETURN_NOT_OK(table.ReadU64(&s.size));
    EDSR_RETURN_NOT_OK(table.ReadU32(&s.crc));
    if (s.name.empty()) {
      return util::Status::IoError(path + ": empty section name");
    }
    // Payloads must land strictly between the header and the table.
    if (s.offset < kHeaderSize || s.offset > table_offset ||
        s.size > table_offset - s.offset) {
      return util::Status::IoError(path + ": section " + s.name +
                                   " extent out of range");
    }
    for (const Section& prior : reader.sections_) {
      if (prior.name == s.name) {
        return util::Status::IoError(path + ": duplicate section " + s.name);
      }
    }
    reader.sections_.push_back(std::move(s));
  }
  EDSR_RETURN_NOT_OK(table.ExpectEnd());
  return reader;
}

util::Result<ContainerReader> ContainerReader::OpenShared(
    const std::string& path) {
  util::Result<ContainerReader> first = Open(path);
  if (first.ok()) return first;
  // A failed validation can mean a genuinely corrupt file or a read that
  // raced the writer's atomic rename. Either way the rename has completed
  // (or never happened) by now, so one re-read disambiguates: a racing
  // reader lands on the complete replacement, a corrupt file fails again
  // with the same clean Status.
  return Open(path);
}

bool ContainerReader::HasSection(const std::string& name) const {
  for (const Section& s : sections_) {
    if (s.name == name) return true;
  }
  return false;
}

util::Status ContainerReader::ReadSection(const std::string& name,
                                          std::vector<uint8_t>* out) const {
  for (const Section& s : sections_) {
    if (s.name != name) continue;
    const uint8_t* payload = file_.data() + s.offset;
    if (Crc32(payload, static_cast<size_t>(s.size)) != s.crc) {
      return util::Status::IoError("CRC mismatch in section " + name);
    }
    out->assign(payload, payload + s.size);
    return util::Status::OK();
  }
  return util::Status::InvalidArgument("no section named " + name);
}

util::Status ContainerReader::ReadSections(
    const std::vector<std::string>& names,
    std::vector<std::vector<uint8_t>>* out) const {
  EDSR_CHECK(out != nullptr);
  std::vector<std::vector<uint8_t>> staged(names.size());
  for (size_t i = 0; i < names.size(); ++i) {
    EDSR_RETURN_NOT_OK(ReadSection(names[i], &staged[i]));
  }
  *out = std::move(staged);
  return util::Status::OK();
}

std::vector<std::string> ContainerReader::SectionNames() const {
  std::vector<std::string> names;
  names.reserve(sections_.size());
  for (const Section& s : sections_) names.push_back(s.name);
  return names;
}

}  // namespace edsr::io
